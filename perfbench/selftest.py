#!/usr/bin/env python3
"""Self-test of the benchmark at minimal size.

    python3 perfbench/selftest.py

For every workload of ``BENCHMARK.json`` it checks that:

* the untraced run prints exactly the end-to-end metrics and the traced
  run exactly the per-layer metrics, each with its declared unit, and
  every op verifies;
* a corrupted expected digest makes an op count as failed;

and, once, that the benchmark refuses to run (non-zero exit, no
result line) in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.  Exits non-zero on any problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root, workload, trace, *extra):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), "--quick", *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(spec, workload):
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = result(run(ROOT, workload, trace))
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        if got != want:
            problems.append(f"{workload} trace={trace}: metrics differ: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}, "
                            f"units {[n for n in want if got.get(n) not in (None, want[n])]}")
        if not all(isinstance(m["value"], (int, float))
                   for m in res["metrics"].values()):
            problems.append(f"{workload} trace={trace}: non-numeric value")
        if not res["correct"] or res["failed"] or res["attempted"] < 1:
            problems.append(f"{workload} trace={trace}: {res['failed']} of "
                            f"{res['attempted']} ops failed")
    res = result(run(ROOT, workload, 0, "--corrupt-expected"))
    if res["correct"] or res["failed"] < 1:
        problems.append(f"{workload}: a corrupted expected digest did not "
                        f"fail an op")
    return problems


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: no sources, so no result."""
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "sweep", 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            return ["bare directory: the benchmark printed a result"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in spec["workloads"]:
        print(f"self-test: {workload['name']}", flush=True)
        problems += check_workload(spec, workload["name"])
    problems += check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test ok" if not problems else
          f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
