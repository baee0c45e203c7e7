"""Determinism goldens for the multicore and trace-replay paths.

``tests/data/determinism_golden.json`` pins single-core
:class:`~repro.simulator.simulation.Simulator` runs; this file pins the
two other ways a timing core is driven:

* :class:`~repro.multicore.MulticoreSimulator` — SHA-256 of each core's
  ``counters()``, the shared-LLC ``AccessStats`` slots, the program
  outputs and the shared-memory access count, for the
  ``tests/test_multicore.py`` kernels (2-core pointer+stream capped per
  core, 1-core pointer to completion) under all four techniques;
* :func:`~repro.functional.trace.simulate_trace` — SHA-256 of
  ``to_dict()`` minus ``wall_seconds`` for gap.bfs (small) replayed
  from a recorded trace under every technique a trace supports.

An intentional modeling change regenerates the file with
``PYTHONPATH=src python -m tests.test_multicore_trace_golden`` in the
same commit; an unintentional mismatch means a refactor changed what
the simulator computes.
"""

import hashlib
import json
import os

import pytest

from repro import CoreConfig
from repro.cache.cache import AccessStats
from repro.functional.trace import InstructionTrace, simulate_trace
from repro.minicc import compile_to_program
from repro.multicore import MulticoreSimulator
from repro.simulator.simulation import ALL_TECHNIQUES
from repro.workloads import build_workload
from tests.test_multicore import POINTER_KERNEL, STREAM_KERNEL

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "multicore_trace_golden.json")
#: Per-core cap for the 2-core run: covers the pointer kernel's
#: mispredict-heavy loop and keeps the test to seconds.
MULTICORE_CAP = 80_000
TRACE_CAP = 60_000
TRACE_TECHNIQUES = ("nowp", "instrec", "conv")


def _sha(data) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def multicore_digests(programs, cap, technique) -> dict:
    result = MulticoreSimulator(programs, config=CoreConfig.scaled(),
                                technique=technique,
                                max_instructions_per_core=cap).run()
    llc = {slot: getattr(result.llc_stats, slot)
           for slot in AccessStats.__slots__}
    return {
        "cores": [_sha(s.counters()) for s in result.core_stats],
        "llc": _sha(llc),
        "outputs": _sha(result.outputs),
        "memory_accesses": result.memory_accesses,
    }


def trace_digest(trace, technique) -> str:
    data = simulate_trace(trace, technique=technique,
                          config=CoreConfig.scaled(),
                          max_instructions=TRACE_CAP).to_dict()
    data.pop("wall_seconds")
    return _sha(data)


def _multicore_cases():
    pointer = compile_to_program(POINTER_KERNEL % 77)
    stream = compile_to_program(STREAM_KERNEL)
    return {"2core": ([pointer, stream], MULTICORE_CAP),
            "1core": ([pointer], None)}


def _trace():
    workload = build_workload("gap.bfs", scale="small", check=False)
    return InstructionTrace.record(workload.program)


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def multicore_cases():
    return _multicore_cases()


@pytest.fixture(scope="module")
def bfs_trace():
    return _trace()


@pytest.mark.parametrize("case", ("2core", "1core"))
@pytest.mark.parametrize("technique", ALL_TECHNIQUES)
def test_multicore_matches_golden(case, technique, goldens,
                                  multicore_cases):
    programs, cap = multicore_cases[case]
    assert multicore_digests(programs, cap, technique) == \
        goldens["multicore"][f"{case}/{technique}"]


@pytest.mark.parametrize("technique", TRACE_TECHNIQUES)
def test_trace_replay_matches_golden(technique, goldens, bfs_trace):
    assert trace_digest(bfs_trace, technique) == \
        goldens["trace"][f"gap.bfs/{technique}"]


def test_golden_file_covers_all_configs(goldens):
    assert set(goldens["multicore"]) == {
        f"{c}/{t}" for c in ("2core", "1core") for t in ALL_TECHNIQUES}
    assert set(goldens["trace"]) == {
        f"gap.bfs/{t}" for t in TRACE_TECHNIQUES}


if __name__ == "__main__":
    cases = _multicore_cases()
    trace = _trace()
    golden = {
        "multicore": {f"{case}/{t}": multicore_digests(*cases[case], t)
                      for case in cases for t in ALL_TECHNIQUES},
        "trace": {f"gap.bfs/{t}": trace_digest(trace, t)
                  for t in TRACE_TECHNIQUES},
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
