"""Async scheduler: dedupe by content key, execute on a shared pool.

The one job executor.  A long-lived :class:`Scheduler` serves every
connection of the sweep daemon; :class:`~repro.engine.executor.
ExperimentEngine` drives a short-lived one per batch with
``asyncio.run``.  Each *unique* job key in flight owns exactly one
asyncio task; submitting that key while it runs attaches to the task
and shares its outcome (``status="shared"``), so N identical
submissions cost one execution.  Store hits short-circuit before the
dedupe map and never touch the pool.

Where an attempt runs:

* on a ``ProcessPoolExecutor`` of ``workers`` processes, through the
  module-level :func:`_execute_payload` worker entry dispatching via
  the ``JOB_KINDS`` registry, so every placement runs the same code;
* in this process, on :attr:`Scheduler.calling_thread` (embedded
  engine only), when the batch has one job to execute, ``workers ==
  1``, or the pool cannot be created (``OSError``).  In-process
  attempts run one at a time.  The daemon never runs a job in its own
  process.

At most ``workers`` attempts are handed to the pool at once, and an
attempt's clock starts when it gets one of those slots, so time spent
queued behind other jobs never counts against its timeout or its
journaled ``wall_seconds``.  Failure handling:

* per-attempt wall-clock ``timeout`` (pool attempts only: an
  in-process attempt cannot be interrupted); an expired attempt that
  is still queued is cancelled, one whose worker is already running
  forces a pool replacement and is journaled ``"abandoned"`` (the job
  may still succeed on retry),
* a killed/crashed worker (``BrokenProcessPool``) replaces the pool and
  the job retries within its budget — client connections never drop,
* ``retries`` extra attempts per job, then a ``"failed"`` outcome.

Outcomes are :class:`~repro.engine.executor.JobOutcome` objects holding
result objects; the store is read only through ``ResultStore.get`` and
written only through ``ResultStore.put``.  Every outcome is journaled;
subscribed clients receive each journal record as a live event.
Blocking work — job keys, store reads and writes, journal appends —
runs off the event loop, in order: on the embedded engine's calling
thread, or on the daemon's one I/O thread.
"""

from __future__ import annotations

import asyncio
import functools
import os
import time
from concurrent.futures import (Executor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.engine.executor import JobOutcome
from repro.engine.job import job_from_transport, job_to_transport
from repro.engine.journal import RunJournal
from repro.engine.store import ResultStore


def _execute_payload(payload: dict) -> dict:
    """Worker-side entry point (module-level so it pickles)."""
    return job_from_transport(payload).run().to_dict()


def _lookup(job: Any, store: Optional[ResultStore]) -> Tuple[str, Any]:
    """A job's key and its stored result (None on a miss or without a
    store).  Blocking: a sampled interval's key hashes its whole
    snapshot, and the store reads a file."""
    return job.key, (store.get(job) if store is not None else None)


def _consume(wrapped: "asyncio.Future") -> None:
    """Swallow the eventual result of an abandoned future so the event
    loop never logs 'exception was never retrieved'."""
    if not wrapped.cancelled():
        wrapped.exception()


class Scheduler:
    """Deduplicating dispatcher over one shared process pool."""

    def __init__(self, store: Optional[ResultStore] = None,
                 journal: Optional[RunJournal] = None,
                 workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1):
        self.store = store
        if journal is None and store is not None:
            journal = RunJournal(store.journal_path)
        self.journal = journal
        self.workers = max(1, workers or os.cpu_count() or 1)
        self.timeout = timeout
        self.retries = max(0, retries)
        #: The embedded engine's calling thread, as an executor: when
        #: set, it does the store and journal I/O, and one submitted
        #: batch may run its attempts there (see :meth:`_place`).  None
        #: in the daemon, which never runs a job in its own process.
        self.calling_thread: Optional[Executor] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        #: ``calling_thread`` once attempts are placed in this process.
        self._in_process: Optional[Executor] = None
        #: Worker slots, created when the first job executes.
        self._slots: Optional["asyncio.Semaphore"] = None
        #: The daemon's store and journal I/O thread.
        self._io: Optional[ThreadPoolExecutor] = None
        self._lookups: Set["asyncio.Future"] = set()
        self._in_flight: Dict[str, "asyncio.Task"] = {}
        #: Journal-event subscriber queues (one per subscribed client).
        self._subscribers: List["asyncio.Queue"] = []
        self.counters = {"submitted": 0, "hits": 0, "executed": 0,
                         "shared": 0, "failed": 0, "abandoned": 0,
                         "pool_replacements": 0}
        # Daemon uptime/event stamps are operator observability, never
        # simulated data (results come whole from the workers).
        self.started = time.time()  # simcheck: allow=SC001 daemon uptime stamp, not simulated data

    # -- public API --------------------------------------------------------------

    async def submit(self, job: Any, fresh: bool = False,
                     use_store: bool = True) -> JobOutcome:
        """Resolve one job: store hit, attach to an in-flight twin, or
        execute.  Always returns an outcome, never raises for job-level
        failures."""
        self.counters["submitted"] += 1
        start = time.perf_counter()
        store = self.store if use_store else None
        lookup = self._off_loop(_lookup, job,
                                None if fresh else store)
        self._lookups.add(lookup)
        lookup.add_done_callback(self._lookups.discard)
        key, result = await lookup
        if result is not None:
            self.counters["hits"] += 1
            outcome = JobOutcome(job, result, "hit",
                                 time.perf_counter() - start, 0)
            await self._journal(outcome, key)
            return outcome

        task = self._in_flight.get(key)
        if task is not None:
            # Attach: share the twin's execution.  shield() keeps a
            # disconnecting waiter from cancelling the shared work.
            self.counters["shared"] += 1
            base = await asyncio.shield(task)
            outcome = JobOutcome(
                job, base.result, "shared" if base.ok else base.status,
                time.perf_counter() - start, base.attempts, base.error)
            await self._journal(outcome, key)
            return outcome

        loop = asyncio.get_running_loop()
        task = loop.create_task(self._run_job(job, key, store))
        self._in_flight[key] = task

        def _cleanup(done_task: "asyncio.Task") -> None:
            if self._in_flight.get(key) is done_task:
                del self._in_flight[key]

        task.add_done_callback(_cleanup)
        # shield(): a disconnecting submitter must not kill an execution
        # other clients may be attached to (or about to attach to).
        return await asyncio.shield(task)

    def status(self) -> dict:
        """Daemon-level stats for the ``status`` op."""
        stats = {
            "version": 1,
            "uptime_seconds": time.time() - self.started,  # simcheck: allow=SC001 daemon uptime stamp, not simulated data
            "in_flight": len(self._in_flight),
            "subscribers": len(self._subscribers),
            "workers": self.workers,
            "timeout": self.timeout,
            "retries": self.retries,
            "counters": dict(self.counters),
            "store": None,
        }
        if self.store is not None:
            stats["store"] = {"root": self.store.root,
                              "journal": self.store.journal_path}
        return stats

    def subscribe(self) -> "asyncio.Queue":
        queue: "asyncio.Queue" = asyncio.Queue()
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: "asyncio.Queue") -> None:
        if queue in self._subscribers:
            self._subscribers.remove(queue)

    async def close(self) -> None:
        """Cancel in-flight work and tear down the pool."""
        for task in list(self._in_flight.values()):
            task.cancel()
        for task in list(self._in_flight.values()):
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._in_flight.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._io is not None:
            self._io.shutdown(wait=False)
            self._io = None

    # -- execution ---------------------------------------------------------------

    async def _place(self) -> None:
        """Decide once, before the first attempt, where attempts run:
        ``workers`` at a time on the pool, or one at a time on the
        calling thread for an embedded batch with one job to run,
        ``workers == 1``, or no pool to be had."""
        if self._slots is not None:
            return
        if self.calling_thread is not None:
            # The batch's placement depends on its miss count: let every
            # submission still looking up resolve first.
            while self._lookups:
                await asyncio.wait(set(self._lookups))
            if self._slots is not None:
                return
            self.workers = min(self.workers, len(self._in_flight))
            if self.workers > 1:
                try:
                    self._pool = self._make_pool()
                except OSError:
                    self.workers = 1
            if self.workers == 1:
                self._in_process = self.calling_thread
        self._slots = asyncio.Semaphore(self.workers)

    async def _run_job(self, job: Any, key: str,
                       store: Optional[ResultStore]) -> JobOutcome:
        await self._place()
        assert self._slots is not None
        start = 0.0
        error: Optional[str] = None
        abandoned: List[dict] = []
        attempt = 0
        for attempt in range(1, self.retries + 2):
            async with self._slots:
                began = time.perf_counter()
                if attempt == 1:
                    start = began
                try:
                    if self._in_process is not None:
                        future = self._in_process.submit(
                            _execute_payload, job_to_transport(job))
                    else:
                        future = self._submit_to_pool(job)
                except OSError as exc:
                    error = f"cannot create worker pool: {exc}"
                    continue
                pool = self._pool
                wrapped = asyncio.wrap_future(future)
                # An in-process attempt cannot be interrupted.
                timeout = self.timeout if self._in_process is None else None
                try:
                    done, _ = await asyncio.wait({wrapped},
                                                 timeout=timeout)
                    if not done:
                        error = f"timeout after {self.timeout:.1f}s"
                        wrapped.add_done_callback(_consume)
                        if not future.cancel():
                            # The worker is still executing the expired
                            # attempt and would hold its slot forever.
                            abandoned.append(await self._abandon(
                                job, key, attempt, began))
                            self._replace_pool(pool)
                        continue
                    # The future is in `done`: await resolves
                    # immediately, without .result()'s blocking API.
                    result = type(job).result_from_dict(await wrapped)
                except BrokenProcessPool:
                    # A worker died mid-attempt (OOM-kill, crash).  The
                    # pool is unusable; replace it and retry within the
                    # budget.
                    error = "worker process died (BrokenProcessPool)"
                    self._replace_pool(pool)
                    continue
                except asyncio.CancelledError:
                    future.cancel()
                    raise
                except Exception as exc:  # noqa: BLE001 — job is the fault unit
                    error = f"{type(exc).__name__}: {exc}"
                    continue
                if store is not None:
                    await self._off_loop(store.put, job, result)
            self.counters["executed"] += 1
            outcome = JobOutcome(job, result, "ok",
                                 time.perf_counter() - start, attempt)
            outcome.abandoned = abandoned
            await self._journal(outcome, key)
            return outcome

        self.counters["failed"] += 1
        outcome = JobOutcome(job, None, "failed",
                             time.perf_counter() - start,
                             attempt, error)
        outcome.abandoned = abandoned
        await self._journal(outcome, key)
        return outcome

    # -- pool plumbing -----------------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        """Pool factory; a seam for tests to substitute fakes."""
        return ProcessPoolExecutor(max_workers=self.workers)

    def _submit_to_pool(self, job: Any) -> "Future":
        """Submit one job to the shared pool (creating or replacing the
        pool as needed); a seam for tests."""
        if self._pool is None:
            self._pool = self._make_pool()
        payload = job_to_transport(job)
        try:
            return self._pool.submit(_execute_payload, payload)
        except (BrokenProcessPool, RuntimeError):
            # Pool broke between attempts; one replacement, then let
            # errors surface to the retry loop.
            self._replace_pool(self._pool)
            self._pool = self._make_pool()
            return self._pool.submit(_execute_payload, payload)

    def _replace_pool(self, pool: Optional[ProcessPoolExecutor]) -> None:
        """Retire ``pool`` (dead, or stuck on an abandoned attempt) so
        the next attempt starts a fresh one.  A no-op when another job
        already replaced it.  Attempts still queued on it run there."""
        if pool is not self._pool:
            return
        self.counters["pool_replacements"] += 1
        if pool is not None:
            pool.shutdown(wait=False)
        self._pool = None

    async def _abandon(self, job: Any, key: str, attempt: int,
                       began: float) -> dict:
        """Journal one abandoned attempt (stuck worker past timeout)."""
        self.counters["abandoned"] += 1
        await self._record(
            key=key, job=job.label, status="abandoned",
            cached=False, attempts=attempt,
            wall_seconds=time.perf_counter() - began,
            error=f"attempt abandoned: still running after "
                  f"{self.timeout:.1f}s timeout")
        return {"job": job.label, "key": key, "attempts": attempt}

    # -- store / journal ---------------------------------------------------------

    def _off_loop(self, fn: Callable[..., Any],
                  *args: Any) -> "asyncio.Future":
        """Run blocking store/journal I/O off the event loop (SC007),
        in order: on the embedded engine's calling thread, else on the
        scheduler's one I/O thread."""
        executor = self.calling_thread
        if executor is None:
            if self._io is None:
                self._io = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-io")
            executor = self._io
        return asyncio.get_running_loop().run_in_executor(
            executor, fn, *args)

    async def _journal(self, outcome: JobOutcome, key: str) -> None:
        result = outcome.result
        await self._record(
            key=key, job=outcome.job.label,
            status=outcome.status, cached=outcome.cached,
            attempts=outcome.attempts,
            wall_seconds=outcome.wall_seconds,
            sim_wall_seconds=result.wall_seconds if result else None,
            instructions=result.instructions if result else None,
            error=outcome.error)

    async def _record(self, **kwargs: Any) -> None:
        if self.journal is not None:
            # The journal appends with synchronous os.write (O_APPEND
            # keeps lines atomic); keep it off the event loop (SC007).
            entry = await self._off_loop(
                functools.partial(self.journal.record, **kwargs))
        else:
            entry = dict(kwargs)
            entry["ts"] = time.time()  # simcheck: allow=SC001 journal-event timestamp, not simulated data
        for queue in list(self._subscribers):
            queue.put_nowait({"event": "journal", "record": entry})
