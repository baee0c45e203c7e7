"""Shared pytest configuration: hypothesis profiles + the slow marker.

Hypothesis profiles
    ``dev`` (default)  — fewer examples, no deadline: fast local edit
    loops and timing-noise-immune CI boxes.
    ``ci``             — full example counts, derandomized so a CI
    failure reproduces exactly, and ``print_blob`` so the failing
    example can be replayed locally.

    Select with ``HYPOTHESIS_PROFILE=ci pytest`` (the CI workflow does).

Slow tests
    Deep fuzz runs and other long soaks are marked ``@pytest.mark.slow``
    and skipped unless ``--runslow`` is passed (the nightly workflow
    does).

``abandon_first_batch``
    Fixture: the embedded engine reports a stuck worker in the first
    batch of a command only (the CLI must still exit nonzero).
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("dev", max_examples=25, deadline=None)
settings.register_profile("ci", max_examples=100, deadline=None,
                          derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run tests marked @pytest.mark.slow "
                          "(deep fuzz soaks)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running deep tests, skipped unless "
                   "--runslow is given")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def abandon_first_batch(monkeypatch):
    """Make every embedded engine report one abandoned attempt in its
    first batch only, as a worker stuck early in a command would.
    Returns a dict holding the abandoned job's ``label`` and the
    number of ``batches`` run."""
    from repro.engine.executor import ExperimentEngine
    real_run = ExperimentEngine._run
    state = {"batches": 0, "label": None}

    async def run_abandoning_first(self, jobs, fresh, caller):
        outcomes = await real_run(self, jobs, fresh, caller)
        state["batches"] += 1
        if state["batches"] == 1:
            state["label"] = jobs[0].label
            outcomes[0].abandoned.append(
                {"job": jobs[0].label, "key": "-", "attempts": 1})
        return outcomes

    monkeypatch.setattr(ExperimentEngine, "_run", run_abandoning_first)
    return state
