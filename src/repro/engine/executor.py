"""Embedded executor: run a list of jobs through the async scheduler.

:class:`ExperimentEngine` is the in-process face of the one job
executor, :class:`repro.engine.scheduler.Scheduler`: each :meth:`run`
is an ``asyncio.run`` that submits every job once and returns the
outcomes in input order.  Store hits cost one read; repeated keys in a
batch run once (``"shared"`` outcomes); misses run in this process when
there is only one to run (or ``jobs=1``), otherwise on a process pool
that lives for the batch.  Timeouts, pool replacement, retries and the
journal are the scheduler's; see :mod:`repro.engine.scheduler`.

The event loop runs on a helper thread while the calling thread does
the batch's blocking work — job keys, store and journal I/O, in-process
attempts — as plain calls: an in-process job runs exactly as a direct
``job.run()`` would (same thread, so Ctrl-C interrupts the job itself),
and ``run`` works even where the caller has a loop running.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import os
import queue
import threading
from concurrent.futures import Executor, Future
from typing import Any, Callable, List, Optional, Sequence

from repro.engine.journal import RunJournal
from repro.engine.store import ResultStore


class JobOutcome:
    """What happened to one job: result + provenance.

    ``job`` and ``result`` are duck-typed to the registered job kind
    (``SimJob``/``SimulationResult`` for simulations): the engine only
    needs ``key``/``label`` on the job and ``wall_seconds``/
    ``instructions`` on the result.
    """

    __slots__ = ("job", "result", "status", "wall_seconds", "attempts",
                 "error", "abandoned")

    def __init__(self, job: Any, result: Optional[Any],
                 status: str, wall_seconds: float, attempts: int,
                 error: Optional[str] = None):
        self.job = job
        self.result = result
        self.status = status    # "hit" | "ok" | "shared" | "failed"
        self.wall_seconds = wall_seconds
        self.attempts = attempts
        self.error = error
        #: Attempts of this job abandoned on the way (expired workers
        #: that could not be cancelled), as ``{"job", "key",
        #: "attempts"}`` events.
        self.abandoned: List[dict] = []

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def cached(self) -> bool:
        return self.status == "hit"

    def __repr__(self) -> str:
        return (f"<JobOutcome {self.job.label} {self.status} "
                f"{self.wall_seconds:.2f}s>")


class _CallingThread(Executor):
    """Executor whose one worker is the thread inside
    :meth:`ExperimentEngine.run`: submitted calls run there, in order,
    from :meth:`serve` until :meth:`shutdown`."""

    def __init__(self) -> None:
        self._calls: "queue.SimpleQueue" = queue.SimpleQueue()
        self._cancel: Optional[Callable[[], Any]] = None
        self._interrupted = False

    def attach(self, task: "asyncio.Task") -> None:
        """On the loop thread: let :meth:`interrupt` cancel ``task``."""
        self._cancel = functools.partial(
            asyncio.get_running_loop().call_soon_threadsafe, task.cancel)
        if self._interrupted:
            task.cancel()

    def interrupt(self) -> None:
        """On the calling thread: cancel the attached batch.  Either
        this or :meth:`attach` may run first; the second sees the
        first's write and cancels."""
        self._interrupted = True
        if self._cancel is not None:
            with contextlib.suppress(RuntimeError):  # loop already closed
                self._cancel()

    def submit(self, fn: Callable[..., Any], /, *args: Any,
               **kwargs: Any) -> "Future[Any]":
        future: "Future[Any]" = Future()
        self._calls.put((future, fn, args, kwargs))
        return future

    def shutdown(self, wait: bool = True, *,
                 cancel_futures: bool = False) -> None:
        self._calls.put(None)

    def serve(self) -> None:
        for future, fn, args, kwargs in iter(self._calls.get, None):
            if future.set_running_or_notify_cancel():
                try:
                    future.set_result(fn(*args, **kwargs))
                except Exception as exc:  # noqa: BLE001 — the scheduler's to judge
                    future.set_exception(exc)


class ExperimentEngine:
    """Runs job lists against a result store with process-level
    parallelism.

    ``jobs`` is the worker-process count (default ``os.cpu_count()``);
    ``jobs=1`` runs everything in this process.  ``timeout`` bounds
    each pool attempt's wall time; ``retries`` bounds extra attempts
    after a failure or timeout.
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 journal: Optional[RunJournal] = None,
                 jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1):
        self.store = store
        if journal is None and store is not None:
            journal = RunJournal(store.journal_path)
        self.journal = journal
        self.max_workers = max(1, jobs if jobs else (os.cpu_count() or 1))
        self.timeout = timeout
        self.retries = max(0, retries)
        #: Abandoned-attempt events from every :meth:`run` of this
        #: engine — expired attempts whose worker could not be cancelled
        #: (the journal records them as ``status="abandoned"``).  A job
        #: can be abandoned and still succeed on retry, and one command
        #: may run many batches, so the CLI checks this list once, after
        #: its last batch, rather than the outcomes.
        self.abandoned: List[dict] = []

    def run(self, jobs: Sequence[Any],
            fresh: bool = False) -> List[JobOutcome]:
        """Execute ``jobs``; outcomes come back in input order.

        ``fresh=True`` skips cache *reads* (every job simulates) but
        still records results to the store, so a fresh run refreshes the
        cache rather than forking from it.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        caller = _CallingThread()
        batch: "Future[List[JobOutcome]]" = Future()
        loop_thread = threading.Thread(
            target=self._drive, args=(jobs, fresh, caller, batch),
            name="repro-engine", daemon=True)
        loop_thread.start()
        try:
            caller.serve()
        except BaseException:
            # Ctrl-C (or SystemExit) in an in-process attempt or while
            # waiting: cancel the batch and let it tear its pool down.
            caller.interrupt()
            loop_thread.join()
            raise
        outcomes = batch.result()
        self.abandoned.extend(event for outcome in outcomes
                              for event in outcome.abandoned)
        return outcomes

    def _drive(self, jobs: List[Any], fresh: bool,
               caller: _CallingThread,
               batch: "Future[List[JobOutcome]]") -> None:
        """The loop thread: one ``asyncio.run`` of the batch."""
        try:
            batch.set_result(asyncio.run(self._run(jobs, fresh, caller)))
        except BaseException as exc:  # noqa: BLE001 — re-raised by run()
            batch.set_exception(exc)
        finally:
            caller.shutdown()

    async def _run(self, jobs: List[Any], fresh: bool,
                   caller: _CallingThread) -> List[JobOutcome]:
        from repro.engine.scheduler import Scheduler
        task = asyncio.current_task()
        assert task is not None
        caller.attach(task)
        scheduler = Scheduler(store=self.store, journal=self.journal,
                              workers=self.max_workers,
                              timeout=self.timeout, retries=self.retries)
        scheduler.calling_thread = caller
        try:
            return list(await asyncio.gather(
                *(scheduler.submit(job, fresh=fresh) for job in jobs)))
        finally:
            await scheduler.close()

    def run_one(self, job: Any, fresh: bool = False) -> JobOutcome:
        return self.run([job], fresh=fresh)[0]

    @staticmethod
    def summarize(outcomes: Sequence[JobOutcome]) -> dict:
        """Aggregate counts the CLI and benches report.  ``"shared"``
        outcomes (a submission coalesced onto an in-flight execution of
        the same key) count as simulated: the work ran live, just once
        for everyone."""
        hits = sum(1 for o in outcomes if o.status == "hit")
        simulated = sum(1 for o in outcomes
                        if o.status in ("ok", "shared"))
        failed = sum(1 for o in outcomes if o.status == "failed")
        sim_wall = sum(o.result.wall_seconds for o in outcomes
                       if o.status in ("ok", "shared"))
        return {"total": len(outcomes), "hits": hits,
                "simulated": simulated, "failed": failed,
                "sim_wall_seconds": sim_wall}
