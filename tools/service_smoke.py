#!/usr/bin/env python
"""CI smoke test for the sweep daemon (`repro serve`).

Exercises the service contract end-to-end, the way CI can observe it:

1. start a real daemon subprocess on a Unix socket,
2. have two concurrent clients submit the *same* small sweep,
3. assert — from the daemon's journal — that each job key executed
   exactly once (the dedupe guarantee), while both clients got full
   result sets,
4. assert the daemon-path results are digest-identical to embedded
   (no-daemon) engine runs of the same grid, in-process (``jobs=1``)
   and on a process pool (``jobs=2``),
5. shut the daemon down over the wire and check it exits cleanly and
   removes its socket.

Run from the repo root: ``PYTHONPATH=src python tools/service_smoke.py``.
Exits nonzero with a diagnostic on any violation.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.engine import (ExperimentEngine, ResultStore, RunJournal,  # noqa: E402
                          SimJob)
from repro.service import ServiceClient  # noqa: E402

WAIT_SECONDS = 30


def fail(message):
    print(f"service-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def result_digest(outcomes):
    """SHA-256 over the outcomes' serialized results, wall-clock
    excluded (it varies per execution; everything else must not)."""
    basis = []
    for outcome in outcomes:
        data = outcome.result.to_dict()
        data.pop("wall_seconds", None)
        basis.append(data)
    blob = json.dumps(basis, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def main():
    grid = [SimJob(workload="gap.bfs", technique=technique,
                   scale="tiny", max_instructions=8000)
            for technique in ("nowp", "conv")]

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        socket_path = os.path.join(tmp, "repro.sock")
        cache_dir = os.path.join(tmp, "cache")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", socket_path, "--cache-dir", cache_dir,
             "--jobs", "2"],
            env={**os.environ,
                 "PYTHONPATH": os.path.join(
                     os.path.dirname(__file__), "..", "src")})
        try:
            deadline = time.time() + WAIT_SECONDS
            while not os.path.exists(socket_path):
                if daemon.poll() is not None:
                    fail(f"daemon exited early "
                         f"(code {daemon.returncode})")
                if time.time() > deadline:
                    fail(f"daemon socket never appeared "
                         f"({WAIT_SECONDS}s)")
                time.sleep(0.1)

            # Two concurrent clients, identical grid.
            results = {}
            errors = []

            def client_run(name):
                try:
                    with ServiceClient(socket_path) as client:
                        results[name] = client.run(grid)
                except Exception as exc:  # noqa: BLE001 — report, don't hang CI
                    errors.append(f"{name}: {exc}")

            threads = [threading.Thread(target=client_run, args=(n,))
                       for n in ("client-a", "client-b")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=WAIT_SECONDS * 4)
            if errors:
                fail("; ".join(errors))
            if set(results) != {"client-a", "client-b"}:
                fail("a client never returned")
            for name, outcomes in sorted(results.items()):
                bad = [o.job.label for o in outcomes if not o.ok]
                if bad:
                    fail(f"{name} got failed outcomes: {bad}")

            # Journal-verified single execution per key.
            journal = RunJournal(
                ResultStore(cache_dir).journal_path)
            executed = {}
            for entry in journal.entries():
                if entry["status"] == "ok":
                    executed[entry["key"]] = \
                        executed.get(entry["key"], 0) + 1
            for job in grid:
                if executed.get(job.key) != 1:
                    fail(f"{job.label} executed "
                         f"{executed.get(job.key, 0)} times, want 1")

            # Digest equality: daemon path vs embedded path.
            daemon_digest = result_digest(results["client-a"])
            if daemon_digest != result_digest(results["client-b"]):
                fail("the two clients disagree on results")
            # Both embedded placements: jobs=1 runs in-process, jobs=2
            # runs the two-job grid on a process pool.
            for jobs in (1, 2):
                embedded = ExperimentEngine(
                    store=ResultStore(os.path.join(tmp, f"embedded-{jobs}")),
                    jobs=jobs).run(grid)
                if daemon_digest != result_digest(embedded):
                    fail(f"daemon results differ from the embedded "
                         f"engine at jobs={jobs}")

            # Clean shutdown over the wire.
            ServiceClient(socket_path).shutdown()
            try:
                daemon.wait(timeout=WAIT_SECONDS)
            except subprocess.TimeoutExpired:
                fail("daemon did not exit after shutdown op")
            if daemon.returncode != 0:
                fail(f"daemon exited with code {daemon.returncode}")
            if os.path.exists(socket_path):
                fail("daemon left its socket file behind")
        finally:
            if daemon.poll() is None:
                daemon.terminate()
                try:
                    daemon.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    daemon.kill()

    print(f"service-smoke: OK — 2 clients x {len(grid)} jobs, "
          f"each key executed once, digests equal to embedded "
          f"jobs=1 and jobs=2 "
          f"({daemon_digest[:16]})")


if __name__ == "__main__":
    main()
