#!/usr/bin/env python
"""CI smoke test for checkpointed sampling (`repro sample`).

Exercises the sampled-simulation contract end-to-end:

1. run checkpointed sampling on two workloads in-process (no engine),
2. re-run through an embedded engine with ``--jobs 2`` and again on a
   warm cache — all three must produce digest-identical
   ``SampledResult``s (interval jobs are deterministic and
   content-addressed, so dispatch topology must not matter),
   and one multi-technique plan (``sample_techniques``, what
   ``repro sample`` runs) must equal per-technique ``sample_workload``
   runs, serially and through the ``--jobs 2`` engine,
3. start a real ``repro serve`` daemon and run the same sampling through
   it — the daemon path must join the same digest, and a second
   daemon-path run must be served from the daemon's cache,
4. compare sampled IPC against the full (unsampled) simulation of each
   workload and enforce a relative-error bound.

Run from the repo root: ``PYTHONPATH=src python tools/sample_smoke.py``.
Exits nonzero with a diagnostic on any violation.
"""

import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.engine import ExperimentEngine, ResultStore, SimJob  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.simulator.sampling import (sample_techniques,  # noqa: E402
                                      sample_workload)

WAIT_SECONDS = 30

#: Two structurally different workloads: a graph kernel and a streaming
#: FP kernel.  Tiny scale keeps the smoke under a minute.
WORKLOADS = ("gap.bfs", "spec.fp.saxpy_like")
TECHNIQUE = "conv"
#: Techniques of the multi-technique plan check.
PLAN_TECHNIQUES = ("nowp", TECHNIQUE)
DETAIL, FF = 2000, 6000

#: Sampled-vs-full IPC bound.  Tiny-scale runs are a few tens of
#: thousands of instructions, so per-workload sampling error is noisy —
#: the production bound (mean <= 5% across all 24 workloads at small
#: scale) lives in tools/validate_sampling.py; this smoke only guards
#: against gross breakage (e.g. snapshots restoring cold state).
IPC_ERROR_BOUND = 0.30


def fail(message):
    print(f"sample-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def sample(workload, engine=None, technique=TECHNIQUE):
    return sample_workload(workload, technique=technique, scale="tiny",
                           detail_length=DETAIL, fastforward_length=FF,
                           engine=engine)


def check_one_plan(workload):
    """One plan for every technique equals per-technique runs, serially
    and through the ``--jobs 2`` engine."""
    want = [sample(workload, technique=t).digest()
            for t in PLAN_TECHNIQUES]
    for label, engine in (("serial", None),
                          ("--jobs 2", ExperimentEngine(jobs=2))):
        results, _ = sample_techniques(
            workload, PLAN_TECHNIQUES, scale="tiny", detail_length=DETAIL,
            fastforward_length=FF, engine=engine)
        for technique, result, digest in zip(PLAN_TECHNIQUES, results,
                                             want):
            if isinstance(result, Exception):
                fail(f"{workload}/{technique}: {label} plan failed: "
                     f"{result}")
            if result.digest() != digest:
                fail(f"{workload}/{technique}: {label} multi-technique "
                     f"plan digest {result.digest()[:16]} != "
                     f"per-technique {digest[:16]}")


def main():
    with tempfile.TemporaryDirectory(prefix="repro-sample-smoke-") as tmp:
        # 1. In-process reference digests.
        serial = {w: sample(w) for w in WORKLOADS}

        # 2. Embedded engine, 2 workers, then warm cache.
        engine = ExperimentEngine(
            store=ResultStore(os.path.join(tmp, "cache")), jobs=2)
        for w in WORKLOADS:
            parallel = sample(w, engine=engine)
            if parallel.digest() != serial[w].digest():
                fail(f"{w}: --jobs 2 digest {parallel.digest()[:16]} != "
                     f"serial {serial[w].digest()[:16]}")
            warm = sample(w, engine=engine)
            if warm.digest() != serial[w].digest():
                fail(f"{w}: warm-cache digest diverged")
            check_one_plan(w)

        # 3. Daemon path.
        socket_path = os.path.join(tmp, "repro.sock")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", socket_path,
             "--cache-dir", os.path.join(tmp, "daemon-cache"),
             "--jobs", "2"],
            env={**os.environ,
                 "PYTHONPATH": os.path.join(
                     os.path.dirname(__file__), "..", "src")})
        try:
            deadline = time.time() + WAIT_SECONDS
            while not os.path.exists(socket_path):
                if daemon.poll() is not None:
                    fail(f"daemon exited early (code {daemon.returncode})")
                if time.time() > deadline:
                    fail(f"daemon socket never appeared ({WAIT_SECONDS}s)")
                time.sleep(0.1)

            for w in WORKLOADS:
                with ServiceClient(socket_path) as client:
                    via_daemon = sample(w, engine=client)
                if via_daemon.digest() != serial[w].digest():
                    fail(f"{w}: daemon-path digest diverged")
                # Sample jobs are content-addressed: the re-run must be
                # served from the daemon's store, visibly faster or not,
                # but above all digest-identical.
                with ServiceClient(socket_path) as client:
                    warm = sample(w, engine=client)
                if warm.digest() != serial[w].digest():
                    fail(f"{w}: warm daemon-path digest diverged")

            ServiceClient(socket_path).shutdown()
            try:
                daemon.wait(timeout=WAIT_SECONDS)
            except subprocess.TimeoutExpired:
                fail("daemon did not exit after shutdown op")
        finally:
            if daemon.poll() is None:
                daemon.terminate()
                try:
                    daemon.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    daemon.kill()

        # 4. Sampled-vs-full IPC bound.
        engine_full = ExperimentEngine(
            store=ResultStore(os.path.join(tmp, "full-cache")), jobs=2)
        for w in WORKLOADS:
            outcome = engine_full.run(
                [SimJob(workload=w, technique=TECHNIQUE, scale="tiny")])[0]
            if outcome.result is None:
                fail(f"{w}: full reference run failed: {outcome.error}")
            full_ipc = outcome.result.ipc
            err = abs(serial[w].ipc - full_ipc) / full_ipc
            print(f"sample-smoke: {w}: sampled IPC {serial[w].ipc:.4f} "
                  f"vs full {full_ipc:.4f} (err {err * 100:.2f}%)")
            if err > IPC_ERROR_BOUND:
                fail(f"{w}: sampled-vs-full IPC error {err * 100:.1f}% "
                     f"exceeds {IPC_ERROR_BOUND * 100:.0f}%")

    digests = ", ".join(
        f"{w}={serial[w].digest()[:12]}" for w in WORKLOADS)
    print(f"sample-smoke: OK — serial, --jobs 2, warm cache, daemon and "
          f"multi-technique plan paths all digest-identical ({digests})")


if __name__ == "__main__":
    main()
