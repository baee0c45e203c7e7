"""Guardrails for the learned IPC surrogate (repro.analysis.surrogate).

The surrogate is *bounded, not trusted*: these tests hold it against
the real engine.

* **Differential** — a model trained on a real (tiny, seed-pinned)
  cached sweep must predict held-out points within the committed
  ``GUARDRAIL_MAX_MEAN_ERROR`` bound.
* **Metamorphic** — a perfect branch predictor can never be slower
  than gshare at the same point; the prediction path makes this
  structural, so it holds for any trained model.
* **Determinism** — same seed + same training set (any order) produce
  a bit-identical artifact; the digest survives JSON round-trips.
* **Properties** (hypothesis) — feature vectors are always finite and
  fixed-width for arbitrary valid configs and junk trace stats;
  episode statistics are invariant to record order.
* **Active learning** — a scripted oracle engine proves that refine
  spends exactly one oracle call per chosen point, honors the budget
  as a hard cap, and that refitting on the answers reduces error.
"""

import dataclasses
import itertools
import json
import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.surrogate import (GUARDRAIL_MAX_MEAN_ERROR,
                                      FeaturePipeline, LabeledPoint,
                                      PredictJob, SurrogateModel,
                                      evaluate, feature_names, harvest,
                                      predict_jobs, refine, sample_grid,
                                      split)
from repro.analysis.surrogate.features import (PREDICTOR_KINDS,
                                               feature_vector)
from repro.core.config import CoreConfig
from repro.engine import ExperimentEngine, ResultStore, SimJob
from repro.engine.job import job_from_transport, job_to_transport
from repro.fuzz.confgen import AXES
from repro.obs import TRACE_STAT_FIELDS, episode_statistics
from repro.simulator.simulation import ALL_TECHNIQUES

#: The seed-pinned training sweep: one workload, every technique, a
#: predictor x ROB grid.  Small enough to simulate in seconds, varied
#: enough that the model has real structure to learn.
SWEEP_AXES = {
    "predictor_kind": ("bimodal", "gshare", "tournament", "tage",
                       "perfect"),
    "rob_size": (32, 128),
}


def _sweep_jobs():
    jobs = []
    for kind, rob in itertools.product(*SWEEP_AXES.values()):
        for technique in ALL_TECHNIQUES:
            jobs.append(SimJob(
                workload="gap.bfs", technique=technique, scale="tiny",
                max_instructions=3000,
                config_overrides={"predictor_kind": kind,
                                  "rob_size": rob}))
    return jobs


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A result store holding the full mini sweep (real simulations)."""
    root = tmp_path_factory.mktemp("surrogate-cache")
    engine = ExperimentEngine(store=ResultStore(str(root)), jobs=1)
    outcomes = engine.run(_sweep_jobs())
    assert all(o.result is not None for o in outcomes)
    return engine.store


@pytest.fixture(scope="module")
def points(store):
    return harvest(store)


@pytest.fixture(scope="module")
def trained(points):
    """(model, train_points, held_out_points) on a seeded split."""
    train_points, held = split(points, holdout=0.25, seed=0)
    model = SurrogateModel.train(train_points, seed=0, kind="gbm",
                                 members=3, estimators=60)
    return model, train_points, held


class TestHarvest:
    def test_harvests_every_sim_result(self, store, points):
        assert len(points) == len(_sweep_jobs())
        by_key = {p.key: p for p in points}
        for job in _sweep_jobs():
            assert job.key in by_key
            point = by_key[job.key]
            assert point.workload == "gap.bfs"
            assert point.ipc > 0
            assert point.job().key == job.key

    def test_points_sorted_and_independent_of_recency(self, store,
                                                      points):
        keys = [p.key for p in points]
        assert keys == sorted(keys)
        # Reshuffle the index's recency order: harvest must not care.
        rng = random.Random(7)
        shuffled = list(keys)
        rng.shuffle(shuffled)
        for key in shuffled:
            store.index.touch(key)
        assert [p.key for p in harvest(store)] == keys

    def test_skips_foreign_and_corrupt_blobs(self, store, points):
        foreign = "ab" * 32
        path = store.path_for(foreign)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"key": foreign, "job": {"what": 1},
                       "result": {"schema": 1}}, fh)
        store.index.put(foreign, os.path.getsize(path))
        corrupt = "cd" * 32
        path = store.path_for(corrupt)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("{not json")
        store.index.put(corrupt, os.path.getsize(path))
        assert [p.key for p in harvest(store)] == \
            [p.key for p in points]

    def test_spec_twins_deduplicated(self, store, points,
                                     monkeypatch):
        # The same job re-cached under a drifted code fingerprint must
        # not become a second training point (it would leak the same
        # simulation into both sides of a train/holdout split).
        job = _sweep_jobs()[0]
        result = next(p for p in points if p.key == job.key)
        with open(store.path_for(result.key)) as fh:
            payload = json.load(fh)["result"]
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "drifted")
        assert job.key != result.key
        store.put_payload(job, payload)
        harvested = harvest(store)
        assert len(harvested) == len(points)
        kept = min(job.key, result.key)
        assert sum(1 for p in harvested
                   if p.job_dict == result.job_dict) == 1
        assert any(p.key == kept for p in harvested)

    def test_workload_and_technique_filters(self, store):
        assert harvest(store, workloads=["gap.pr"]) == []
        conv = harvest(store, techniques=["conv"])
        assert len(conv) == len(_sweep_jobs()) // len(ALL_TECHNIQUES)
        assert all(p.technique == "conv" for p in conv)

    def test_split_is_seeded_and_order_free(self, points):
        a = split(points, holdout=0.25, seed=3)
        b = split(list(reversed(points)), holdout=0.25, seed=3)
        assert [p.key for p in a[0]] == [p.key for p in b[0]]
        assert [p.key for p in a[1]] == [p.key for p in b[1]]
        assert split(points, holdout=0.25, seed=4) != a
        assert len(a[0]) + len(a[1]) == len(points)
        assert a[1] and a[0]


class TestDifferentialGuardrail:
    def test_held_out_error_within_committed_bound(self, trained):
        model, _, held = trained
        report = evaluate(model, held)
        assert report["n"] == len(held) > 0
        assert report["mean_rel_error"] <= GUARDRAIL_MAX_MEAN_ERROR, \
            (f"held-out mean |IPC error| {report['mean_rel_error']:.4f} "
             f"exceeds the committed bound {GUARDRAIL_MAX_MEAN_ERROR}")

    def test_predictions_positive_and_confident_in_range(self, trained,
                                                         points):
        model, _, _ = trained
        predictions = predict_jobs(model, [p.job() for p in points])
        for pred in predictions:
            assert pred.ipc > 0
            assert 0.0 < pred.confidence <= 1.0


class TestMetamorphic:
    def test_perfect_never_predicts_below_gshare(self, trained):
        model, _, _ = trained
        base = sample_grid(["gap.bfs", "gap.pr"], list(ALL_TECHNIQUES),
                           24, grid_seed=11, scale="tiny",
                           max_instructions=3000)

        def with_kind(job, kind):
            overrides = dict(job.config_overrides)
            overrides["predictor_kind"] = kind
            return dataclasses.replace(job,
                                       config_overrides=overrides)

        perfect = [with_kind(j, "perfect") for j in base]
        gshare = [with_kind(j, "gshare") for j in base]
        p_preds = predict_jobs(model, perfect)
        g_preds = predict_jobs(model, gshare)
        for p, g in zip(p_preds, g_preds):
            assert p.ipc >= g.ipc - 1e-12, (p, g)


class TestDeterminism:
    def test_same_seed_same_points_bit_identical(self, trained):
        model, train_points, _ = trained
        shuffled = list(train_points)
        random.Random(99).shuffle(shuffled)
        again = SurrogateModel.train(shuffled, seed=0, kind="gbm",
                                     members=3, estimators=60)
        assert again.to_dict() == model.to_dict()
        assert again.digest() == model.digest()

    def test_seed_changes_the_artifact(self, trained):
        _, train_points, _ = trained
        a = SurrogateModel.train(train_points, seed=0, kind="gbm",
                                 members=3, estimators=20)
        b = SurrogateModel.train(train_points, seed=1, kind="gbm",
                                 members=3, estimators=20)
        assert a.digest() != b.digest()

    def test_json_roundtrip_preserves_digest_and_predictions(
            self, trained, tmp_path):
        model, _, held = trained
        path = str(tmp_path / "model.json")
        model.save(path)
        loaded = SurrogateModel.load(path)
        assert loaded.digest() == model.digest()
        assert loaded.to_dict() == model.to_dict()
        jobs = [p.job() for p in held]
        before = [(p.ipc, p.confidence)
                  for p in predict_jobs(model, jobs)]
        after = [(p.ipc, p.confidence)
                 for p in predict_jobs(loaded, jobs)]
        assert before == after

    def test_schema_mismatch_rejected(self, trained):
        model, _, _ = trained
        stale = model.to_dict()
        stale["schema"] = 99
        with pytest.raises(ValueError):
            SurrogateModel.from_dict(stale)

    def test_needs_two_points(self, points):
        with pytest.raises(ValueError):
            SurrogateModel.train(points[:1], seed=0)


# -- hypothesis property tests -----------------------------------------------------

_axis_names = sorted(AXES)


@st.composite
def config_overrides(draw):
    axes = draw(st.lists(st.sampled_from(_axis_names), unique=True,
                         max_size=8))
    return {axis: draw(st.sampled_from(AXES[axis])) for axis in axes}


_junk_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10**9, max_value=10**9),
    st.none(), st.text(max_size=4))

_stat_dicts = st.dictionaries(
    st.one_of(st.sampled_from(TRACE_STAT_FIELDS), st.text(max_size=8)),
    _junk_values, max_size=12)


class TestFeatureProperties:
    @given(overrides=config_overrides(),
           technique=st.sampled_from(sorted(ALL_TECHNIQUES) + ["???"]),
           program_stats=_stat_dicts, trace_stats=st.one_of(
               st.none(), _stat_dicts),
           scale=st.sampled_from(["tiny", "small", "medium", "weird"]),
           max_instructions=st.one_of(
               st.none(), st.integers(min_value=0, max_value=10**12)))
    def test_vectors_always_finite_and_fixed_width(
            self, overrides, technique, program_stats, trace_stats,
            scale, max_instructions):
        config = CoreConfig.scaled(**overrides)
        vector = feature_vector(config, technique, program_stats,
                                trace_stats, scale=scale,
                                max_instructions=max_instructions,
                                workload="gap.bfs")
        assert vector.shape == (len(feature_names()),)
        assert np.isfinite(vector).all()

    @given(overrides=config_overrides())
    def test_predictor_one_hot_matches_config(self, overrides):
        config = CoreConfig.scaled(**overrides)
        vector = feature_vector(config, "conv", {})
        names = feature_names()
        for kind in PREDICTOR_KINDS:
            value = vector[names.index(f"cfg.predictor_kind={kind}")]
            assert value == (1.0 if config.predictor_kind == kind
                             else 0.0)


_episode_records = st.lists(st.fixed_dictionaries({}, optional={
    "branch_kind": st.sampled_from(["conditional", "indirect",
                                    "return"]),
    "window_limit": st.integers(min_value=0, max_value=512),
    "wp_fetched": st.integers(min_value=0, max_value=10**6),
    "wp_executed": st.integers(min_value=0, max_value=10**6),
    "window_start": st.integers(min_value=0, max_value=10**9),
    "resolution": st.integers(min_value=0, max_value=10**9),
    "conv_attempted": st.integers(min_value=0, max_value=1),
    "conv_found": st.integers(min_value=0, max_value=1),
    "conv_distance": st.integers(min_value=0, max_value=10**4),
    "wp_addr_recovered": st.integers(min_value=0, max_value=10**4),
    "wp_mem_ops": st.integers(min_value=0, max_value=10**4),
    "cache": st.fixed_dictionaries({}, optional={
        level: st.fixed_dictionaries({
            "wp_hits": st.integers(min_value=0, max_value=10**4),
            "wp_misses": st.integers(min_value=0, max_value=10**4),
        }) for level in ("l1d", "l2", "llc")}),
}), max_size=30)


class TestEpisodeStatisticsProperties:
    @given(episodes=_episode_records,
           seed=st.integers(min_value=0, max_value=2**31))
    def test_order_invariant(self, episodes, seed):
        shuffled = list(episodes)
        random.Random(seed).shuffle(shuffled)
        assert episode_statistics(shuffled) == \
            episode_statistics(episodes)

    @given(episodes=_episode_records)
    def test_fields_complete_and_finite(self, episodes):
        stats = episode_statistics(episodes)
        assert tuple(stats) == TRACE_STAT_FIELDS
        assert all(math.isfinite(v) for v in stats.values())
        assert stats["episodes"] == len(episodes)


# -- active learning ---------------------------------------------------------------


class _OracleResult:
    def __init__(self, ipc):
        self.ipc = ipc
        self.instructions = 1000
        self.cycles = max(1, int(round(1000 / ipc)))


class _Outcome:
    def __init__(self, job, result):
        self.job = job
        self.result = result


class ScriptedEngine:
    """A fake engine whose ground truth is an analytic IPC surface;
    counts every oracle call per job key."""

    def __init__(self):
        self.calls = {}

    @staticmethod
    def true_ipc(job):
        config = job.config()
        base = {"nowp": 0.9, "instrec": 1.0, "conv": 1.1,
                "wpemul": 1.2}[job.technique]
        rank = {"bimodal": 0, "gshare": 1, "tournament": 2, "tage": 3,
                "perfect": 4}[config.predictor_kind]
        return (base + 0.08 * rank
                + 0.05 * math.log2(config.rob_size / 32.0))

    def run(self, jobs, fresh=False):
        outcomes = []
        for job in jobs:
            self.calls[job.key] = self.calls.get(job.key, 0) + 1
            outcomes.append(_Outcome(job, _OracleResult(
                self.true_ipc(job))))
        return outcomes


def _scripted_points(jobs):
    return [LabeledPoint(key=j.key, job_dict=j.to_dict(),
                         ipc=ScriptedEngine.true_ipc(j))
            for j in jobs]


class TestActiveLearning:
    GRID = dict(scale="tiny", max_instructions=3000)

    def _setup(self):
        seed_jobs = sample_grid(["gap.bfs"], ["conv", "nowp"], 16,
                                grid_seed=1, **self.GRID)
        training = _scripted_points(seed_jobs)
        model = SurrogateModel.train(training, seed=0, kind="gbm",
                                     members=3, estimators=40)
        candidates = sample_grid(["gap.bfs"], ["wpemul", "instrec"], 24,
                                 grid_seed=2, **self.GRID)
        return model, training, candidates

    def test_one_oracle_call_per_point_and_hard_budget(self):
        model, training, candidates = self._setup()
        engine = ScriptedEngine()
        refit, report = refine(model, candidates, engine, training,
                               budget=8)
        assert report.queried == 8 == report.budget
        assert sum(engine.calls.values()) == 8
        assert set(engine.calls.values()) == {1}
        candidate_keys = {j.key for j in candidates}
        assert set(engine.calls) <= candidate_keys
        assert report.n_train == len(training) + 8
        assert refit.digest() != model.digest()

    def test_refit_error_drops_on_queried_points(self):
        model, training, candidates = self._setup()
        engine = ScriptedEngine()
        _, report = refine(model, candidates, engine, training,
                           budget=8)
        assert report.mean_error_before > 0
        assert report.mean_error_after < report.mean_error_before

    def test_known_points_never_requeried(self):
        model, training, candidates = self._setup()
        known_job = training[0].job()
        engine = ScriptedEngine()
        _, report = refine(model, [known_job] + candidates, engine,
                           training, budget=100)
        assert known_job.key not in engine.calls
        assert report.queried == len(candidates)  # cap > unknowns

    def test_zero_budget_is_a_no_op(self):
        model, training, candidates = self._setup()
        engine = ScriptedEngine()
        refit, report = refine(model, candidates, engine, training,
                               budget=0)
        assert engine.calls == {}
        assert report.queried == 0
        assert refit.digest() == model.digest() == report.digest_after

    def test_lowest_confidence_points_chosen(self):
        model, training, candidates = self._setup()
        predictions = predict_jobs(model, candidates)
        ranked = sorted(predictions, key=lambda p: (p.confidence,
                                                    p.key))
        expected = {p.key for p in ranked[:5]}
        engine = ScriptedEngine()
        refine(model, candidates, engine, training, budget=5)
        assert set(engine.calls) == expected


class TestPredictJob:
    def _model_and_jobs(self, trained):
        model, _, _ = trained
        jobs = sample_grid(["gap.bfs"], ["conv"], 3, grid_seed=5,
                           scale="tiny", max_instructions=3000)
        return model, jobs

    def test_transport_roundtrip(self, trained):
        model, jobs = self._model_and_jobs(trained)
        job = PredictJob.for_jobs(model, jobs)
        again = job_from_transport(job_to_transport(job))
        assert isinstance(again, PredictJob)
        assert again.key == job.key
        assert [p.ipc for p in again.run().predictions] == \
            [p.ipc for p in job.run().predictions]

    def test_key_covers_model_digest_and_points(self, trained):
        model, jobs = self._model_and_jobs(trained)
        job = PredictJob.for_jobs(model, jobs)
        fewer = PredictJob.for_jobs(model, jobs[:2])
        assert fewer.key != job.key
        other_model = dataclasses.replace(
            job, model=None, model_digest="f" * 64)
        assert other_model.key != job.key

    def test_digest_mismatch_rejected(self, trained):
        model, jobs = self._model_and_jobs(trained)
        with pytest.raises(ValueError):
            PredictJob(model_digest="0" * 64,
                       points=[j.to_dict() for j in jobs],
                       model=model.to_dict())

    def test_engine_caches_predict_batches(self, trained, tmp_path):
        model, jobs = self._model_and_jobs(trained)
        engine = ExperimentEngine(
            store=ResultStore(str(tmp_path / "cache")), jobs=1)
        job = PredictJob.for_jobs(model, jobs)
        first = engine.run([job])[0]
        assert first.result is not None and not first.cached
        second = engine.run([PredictJob.for_jobs(model, jobs)])[0]
        assert second.cached
        assert [p.to_dict() for p in second.result.predictions] == \
            [p.to_dict() for p in first.result.predictions]

    def test_matches_inline_prediction(self, trained):
        model, jobs = self._model_and_jobs(trained)
        batch = PredictJob.for_jobs(model, jobs).run()
        inline = predict_jobs(model, jobs)
        assert [p.to_dict() for p in batch.predictions] == \
            [p.to_dict() for p in inline]


class TestPredictCommand:
    def test_abandon_in_first_batch_exits_nonzero(
            self, trained, tmp_path, capsys, abandon_first_batch):
        """The predict batch reports a stuck worker; the --validate
        batch after it must not clear it."""
        from repro.cli import main
        model, _, _ = trained
        path = str(tmp_path / "model.json")
        model.save(path)
        rc = main(["predict", "--model", path, "--workloads", "gap.bfs",
                   "--techniques", "conv", "--points", "3",
                   "--max-instructions", "3000", "--validate", "1",
                   "--max-error", "100", "--jobs", "1",
                   "--cache-dir", str(tmp_path / "cache")])
        assert abandon_first_batch["batches"] == 2
        assert rc == 1
        out, err = capsys.readouterr()
        assert "validation: 1 ground-truth sims" in out
        assert "1 attempt(s) abandoned" in err
        assert abandon_first_batch["label"] in err


class TestFeaturePipelineCache:
    def test_program_stats_memoized(self):
        pipeline = FeaturePipeline()
        first = pipeline.program_stats("gap.bfs", "tiny", None)
        assert pipeline.program_stats("gap.bfs", "tiny", None) is first
        assert first["static_instructions"] > 0
        assert 0.0 < first["branch_fraction"] < 1.0

    def test_trace_profiles_reach_the_vector(self):
        with_trace = FeaturePipeline(
            {"gap.bfs": {"episodes": 100.0,
                         "indirect_fraction": 0.25}})
        without = FeaturePipeline()
        job = SimJob(workload="gap.bfs", scale="tiny",
                     max_instructions=3000)
        names = feature_names()
        vec_with = with_trace.job_vector(job)
        vec_without = without.job_vector(job)
        has_trace = names.index("trace.has_trace")
        assert vec_with[has_trace] == 1.0
        assert vec_without[has_trace] == 0.0
        indirect = names.index("trace.indirect_fraction")
        assert vec_with[indirect] == 0.25
