"""Run journal: append-only JSONL observability for the engine.

Every job the executor finishes — cache hit, fresh simulation, or
failure — appends one record to ``<cache>/journal.jsonl``::

    {"ts": 1754500000.0, "key": "ab34…", "job": "gap.bfs/conv",
     "status": "ok", "cached": false, "attempts": 1,
     "wall_seconds": 3.1, "sim_wall_seconds": 3.0,
     "instructions": 309583, "host_ips": 99865.5, "error": null}

``wall_seconds`` is the engine's time for the job from when its first
attempt got a worker slot (transport, retries and cache I/O included,
queueing behind other jobs not); ``sim_wall_seconds`` is the simulator's
own wall clock; ``host_ips`` is simulated instructions per host second —
the throughput number the paper's speed section (V-B) is about.  The
journal is the audit trail for sweep regressions ("which job got slow /
started missing the cache / started failing"), cheap enough to leave on
always.

Writer safety: several processes append to one journal concurrently —
pool workers via their parent engines, the sweep daemon, and ad-hoc CLI
runs sharing a cache directory.  Each record therefore goes down as a
**single** ``os.write`` on an ``O_APPEND`` descriptor
(:func:`append_jsonl_line`): POSIX serializes appends per write call, so
concurrent records interleave only at line granularity and never corrupt
each other.  A buffered ``open(..., "a").write(...)`` gives no such
guarantee — the buffer layer may split one record across several
syscalls, letting another writer land mid-record.
"""

from __future__ import annotations

import json
import os
import time
from typing import List, Optional


def append_jsonl_line(path: str, entry: dict) -> None:
    """Append ``entry`` to ``path`` as one JSON line with a single
    ``write()`` on an ``O_APPEND`` descriptor — safe under concurrent
    writers (records interleave whole, never torn)."""
    data = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


def read_jsonl(path: str) -> List[dict]:
    """All readable JSONL records of ``path`` (corrupt lines skipped,
    missing file reads as empty)."""
    if not os.path.exists(path):
        return []
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                out.append(record)
    return out


class RunJournal:
    """Appends one JSON line per finished job."""

    def __init__(self, path: str):
        self.path = os.path.abspath(path)

    def record(self, *, key: str, job: str, status: str, cached: bool,
               attempts: int, wall_seconds: float,
               sim_wall_seconds: Optional[float] = None,
               instructions: Optional[int] = None,
               error: Optional[str] = None) -> dict:
        host_ips = None
        if instructions and sim_wall_seconds and sim_wall_seconds > 0:
            host_ips = instructions / sim_wall_seconds
        entry = {
            # The journal is an append-only audit log of *when* runs
            # happened, never an input to simulation or cache keys.
            "ts": time.time(),  # simcheck: allow=SC001 audit timestamp, not simulated data
            "key": key,
            "job": job,
            "status": status,
            "cached": cached,
            "attempts": attempts,
            "wall_seconds": wall_seconds,
            "sim_wall_seconds": sim_wall_seconds,
            "instructions": instructions,
            "host_ips": host_ips,
            "error": error,
        }
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        append_jsonl_line(self.path, entry)
        return entry

    def entries(self) -> List[dict]:
        """All readable journal records (corrupt lines are skipped)."""
        return read_jsonl(self.path)

    def __repr__(self) -> str:
        return f"<RunJournal {self.path}>"
