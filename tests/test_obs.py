"""Tests for the observability layer (repro.obs).

The two contracts that make tracing admissible (DESIGN.md §7.2):

* **Lossless decomposition** — episode records are not a sampled view:
  summing any traced field over all episodes reproduces the run's
  aggregate counter exactly, per wrong-path technique and per cache
  level.
* **Side-effect freedom** — attaching an observer must not change
  simulated results.  Traced runs are pinned against the *same*
  committed digests as `tests/test_determinism_golden.py`.
"""

import hashlib
import json
import os

import pytest

from repro.obs import (EPISODE_FIELDS, MetricsRegistry, Observability,
                       RunTrace, WrongPathTracer, build_report,
                       read_episodes, read_manifest, render_report,
                       sanitize_label)
from repro.simulator.simulation import ALL_TECHNIQUES, Simulator
from repro.workloads import build_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "determinism_golden.json")


@pytest.fixture(scope="module")
def bfs():
    return build_workload("gap.bfs", scale="tiny", check=False)


def _run_observed(workload, technique, max_instructions=15000, **obs_kw):
    obs = Observability(label=f"{workload.name}-{technique}",
                        keep_episodes=True, **obs_kw)
    result = Simulator(workload.program, technique=technique,
                       max_instructions=max_instructions,
                       name=workload.name, obs=obs).run()
    return obs, result


class TestLosslessDecomposition:
    """Episode sums == aggregate counters, exactly, per technique."""

    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    def test_episodes_decompose_aggregates(self, bfs, technique):
        obs, result = _run_observed(bfs, technique)
        assert obs.episodes == result.stats.mispredict_windows
        trace = RunTrace(obs.summary, obs.records)
        assert trace.check() == []

    def test_episode_records_are_schema_complete(self, bfs):
        obs, _ = _run_observed(bfs, "conv")
        assert obs.records, "expected mispredicts on gap.bfs"
        for record in obs.records:
            assert set(record) == set(EPISODE_FIELDS)

    def test_wp_cache_split_matches_cache_stats(self, bfs):
        obs, result = _run_observed(bfs, "wpemul")
        for level in ("l1i", "l1d", "l2", "llc"):
            hits = sum(r["cache"][level]["wp_hits"] for r in obs.records)
            misses = sum(r["cache"][level]["wp_misses"]
                         for r in obs.records)
            stats = result.cache_stats[level]
            assert misses == stats["wp_misses"]
            assert hits + misses == stats["wp_accesses"]

    def test_conv_episodes_carry_convergence_point(self, bfs):
        obs, _ = _run_observed(bfs, "conv")
        converged = [r for r in obs.records if r["conv_found"]]
        assert converged, "expected convergence on gap.bfs"
        for record in converged:
            assert isinstance(record["conv_point"], int)
            assert record["conv_distance"] is not None
        for record in obs.records:
            if not record["conv_found"]:
                assert record["conv_point"] is None

    def test_derived_metrics_match_aggregates(self, bfs):
        obs, result = _run_observed(bfs, "conv")
        trace = RunTrace(obs.summary, obs.records)
        stats = result.stats
        assert trace.conv_fraction == pytest.approx(stats.conv_fraction)
        assert trace.conv_distance == pytest.approx(stats.conv_distance)
        assert trace.addr_recover_fraction == pytest.approx(
            stats.addr_recover_fraction)
        assert trace.wp_fraction == pytest.approx(
            stats.wp_executed / stats.instructions)


class TestTracedRunsMatchGoldens:
    """Tracing on -> bit-identical results (the side-effect-free pin).

    Uses the same recipe as tests/test_determinism_golden.py: default
    CoreConfig, small scale, 30k instructions, digest of ``to_dict()``
    without ``wall_seconds``.  A subset of configurations keeps the
    cost bounded; conv and wpemul are the techniques whose models see
    the observer (convergence points, emulated wrong paths).
    """

    CONFIGS = (("gap.bfs", "conv"), ("gap.bfs", "wpemul"),
               ("spec.int.xz_like", "conv"))

    @pytest.mark.parametrize("workload,technique", CONFIGS)
    def test_traced_digest_matches_golden(self, tmp_path, workload,
                                          technique):
        with open(GOLDEN_PATH) as fh:
            goldens = json.load(fh)
        wl = build_workload(workload, scale="small", check=False)
        obs = Observability(trace_dir=str(tmp_path),
                            label=f"{wl.name}-{technique}")
        result = Simulator(wl.program, technique=technique,
                           max_instructions=30000, name=wl.name,
                           obs=obs).run()
        payload = result.to_dict()
        payload.pop("wall_seconds")
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == goldens[f"{workload}/{technique}"], (
            "tracing perturbed simulation results")
        # ... and the trace it wrote is itself lossless.
        manifest = read_manifest(
            os.path.join(str(tmp_path), f"{obs.label}.run.json"))
        episodes = list(read_episodes(obs.episode_path))
        assert RunTrace(manifest, episodes).check() == []


class TestComponentsOffByDefault:
    def test_obs_hooks_default_to_none(self, bfs):
        sim = Simulator(bfs.program, technique="conv",
                        max_instructions=1000, name=bfs.name)
        assert sim.obs is None
        sim.run()


class TestTracer:
    def test_buffered_writes_and_flush(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with WrongPathTracer(path, buffer_records=2) as tracer:
            tracer.emit({"episode": 0})
            assert os.path.getsize(path) == 0  # still buffered
            tracer.emit({"episode": 1})        # buffer full -> flushed
            assert os.path.getsize(path) > 0
            tracer.emit({"episode": 2})
        records = list(read_episodes(path))
        assert [r["episode"] for r in records] == [0, 1, 2]

    def test_open_truncates_previous_trace(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with WrongPathTracer(path) as tracer:
            tracer.emit({"episode": 0})
        with WrongPathTracer(path) as tracer:
            tracer.emit({"episode": 100})
        assert [r["episode"] for r in read_episodes(path)] == [100]

    def test_read_episodes_skips_corrupt_lines(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as fh:
            fh.write('{"episode": 0}\n')
            fh.write("not json at all\n")
            fh.write('{"episode": 1}\n')
        assert [r["episode"] for r in read_episodes(path)] == [0, 1]

    def test_read_manifest_rejects_unknown_schema(self, tmp_path):
        path = str(tmp_path / "m.run.json")
        with open(path, "w") as fh:
            json.dump({"schema": 9999, "label": "x"}, fh)
        assert read_manifest(path) is None
        assert read_manifest(str(tmp_path / "missing.json")) is None


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.counter("core", "retired").add(5)
        reg.counter("core", "retired").inc()
        reg.histogram("queue", "batch").observe(4)
        reg.histogram("queue", "batch").observe(8)
        d = reg.as_dict()
        assert d["core"]["retired"] == 6
        assert d["queue"]["batch"]["count"] == 2
        assert d["queue"]["batch"]["mean"] == 6.0
        assert reg.histogram("queue", "batch").min == 4
        assert reg.histogram("queue", "batch").max == 8

    def test_name_cannot_change_kind(self):
        reg = MetricsRegistry()
        reg.counter("core", "retired")
        with pytest.raises(TypeError):
            reg.histogram("core", "retired")


class TestSanitizeLabel:
    def test_separators_replaced(self):
        assert sanitize_label("gap.bfs/conv") == "gap.bfs-conv"
        assert sanitize_label("a b\tc") == "a-b-c"

    def test_config_axis_chars_survive(self):
        assert sanitize_label("bfs,rob_size=128") == "bfs,rob_size=128"

    def test_empty_label_falls_back(self):
        assert sanitize_label("///") == "run"


class TestReport:
    @pytest.fixture(scope="class")
    def trace_dir(self, tmp_path_factory):
        from repro.cli import main
        d = tmp_path_factory.mktemp("traces")
        rc = main(["compare", "gap.bfs", "--scale", "tiny",
                   "--max-instructions", "8000", "--trace", str(d)])
        assert rc == 0
        return str(d)

    def test_report_cli_table(self, trace_dir, capsys):
        from repro.cli import main
        assert main(["report", trace_dir]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out and "Table III" in out
        for technique in ALL_TECHNIQUES:
            assert technique in out
        assert "ok" in out  # every run's decomposition cross-checks

    def test_report_cli_json(self, trace_dir, capsys):
        from repro.cli import main
        assert main(["report", trace_dir, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        runs = {r["label"]: r for r in payload["runs"]}
        assert len(runs) == 4
        assert all(r["consistent"] for r in runs.values())
        assert payload["table2"]["bfs"]["nowp"] == 0.0
        assert payload["table2"]["bfs"]["conv"] > 0.0

    def test_build_report_matches_aggregates(self, trace_dir):
        report = build_report(trace_dir)
        t3 = report["table3"]["bfs"]
        manifest = read_manifest(os.path.join(
            trace_dir, "bfs-conv.run.json"))
        counters = manifest["counters"]
        assert t3["conv_fraction"] == pytest.approx(
            counters["conv_found"] / counters["conv_attempts"])
        rendered = render_report(report, "md")
        assert "| workload |" in rendered

    def test_report_missing_dir_fails(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["report", str(tmp_path / "nope")]) == 1
        assert "no such" in capsys.readouterr().err

    def test_report_empty_dir_fails(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["report", str(tmp_path)]) == 1
        assert "no run manifests" in capsys.readouterr().err

    def test_report_flags_tampered_trace(self, trace_dir, tmp_path,
                                         capsys):
        from repro.cli import main
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(trace_dir, str(broken))
        episodes_path = str(broken / "bfs-conv.episodes.jsonl")
        records = list(read_episodes(episodes_path))
        records[0]["wp_executed"] += 1
        with open(episodes_path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        assert main(["report", str(broken)]) == 1
        captured = capsys.readouterr()
        assert "do not match" in captured.err
        assert "sum(wp_executed)" in captured.out


class TestAbandonedExit:
    """cmd_sweep / cmd_compare / cmd_sample exit nonzero when any engine
    attempt was abandoned, even though the jobs themselves eventually
    succeeded."""

    @staticmethod
    def _poison_engine_run(monkeypatch):
        from repro.engine.executor import ExperimentEngine
        real_run = ExperimentEngine.run

        def run_with_abandoned(self, jobs, **kwargs):
            outcomes = real_run(self, jobs, **kwargs)
            self.abandoned.append({"job": jobs[0].label,
                                   "key": jobs[0].key, "attempts": 1})
            return outcomes

        monkeypatch.setattr(ExperimentEngine, "run", run_with_abandoned)

    def test_sweep_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        self._poison_engine_run(monkeypatch)
        rc = main(["sweep", "--workloads", "bfs", "--techniques", "nowp",
                   "--scale", "tiny", "--max-instructions", "3000",
                   "--jobs", "1", "--cache-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "abandoned" in err
        assert "journal" in err

    def test_compare_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        self._poison_engine_run(monkeypatch)
        rc = main(["compare", "gap.bfs", "--scale", "tiny",
                   "--max-instructions", "3000",
                   "--jobs", "1", "--cache-dir", str(tmp_path)])
        assert rc == 1
        assert "abandoned" in capsys.readouterr().err

    def test_sample_exits_nonzero_on_first_batch_abandon(
            self, tmp_path, capsys, abandon_first_batch):
        """Two config points are two batches; the stuck worker in the
        first must not be forgotten by the second."""
        from repro.cli import main
        rc = main(["sample", "--workloads", "bfs", "--techniques", "nowp",
                   "--scale", "tiny", "--detail-length", "2000",
                   "--ff-length", "6000", "--set", "rob_size=32",
                   "--set", "rob_size=64", "--jobs", "1",
                   "--cache-dir", str(tmp_path)])
        assert abandon_first_batch["batches"] == 2
        assert rc == 1
        err = capsys.readouterr().err
        assert "1 attempt(s) abandoned" in err
        assert abandon_first_batch["label"] in err
