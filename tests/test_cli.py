"""Tests for the command-line interface (driven in-process, plus one
fresh-interpreter start-up check)."""

import os
import subprocess
import sys

import pytest

from repro.cli import main, make_parser


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_run_defaults(self):
        args = make_parser().parse_args(["run", "gap.bfs"])
        assert args.technique == "conv"
        assert args.scale == "small"

    def test_bad_technique_rejected(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["run", "gap.bfs",
                                      "--technique", "magic"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gap.bfs" in out and "spec.fp.saxpy_like" in out

    def test_run(self, capsys):
        rc = main(["run", "gap.bfs", "--scale", "tiny",
                   "--technique", "conv", "--max-instructions", "5000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "convergence found" in out

    def test_run_nowp_omits_conv_metrics(self, capsys):
        rc = main(["run", "gap.pr", "--scale", "tiny",
                   "--technique", "nowp", "--max-instructions", "3000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "convergence found" not in out

    def test_compare(self, capsys):
        rc = main(["compare", "gap.bfs", "--scale", "tiny",
                   "--max-instructions", "8000"])
        assert rc == 0
        out = capsys.readouterr().out
        for technique in ("nowp", "instrec", "conv", "wpemul"):
            assert technique in out
        assert "error" in out

    def test_unknown_workload(self, capsys):
        assert main(["run", "gap.nothere",
                     "--max-instructions", "10"]) == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_compare_jobs_flag(self, tmp_path, capsys):
        rc = main(["compare", "gap.bfs", "--scale", "tiny",
                   "--max-instructions", "6000",
                   "--jobs", "2", "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        for technique in ("nowp", "instrec", "conv", "wpemul"):
            assert technique in out
        # Short names resolve through the engine path too.
        assert main(["compare", "bfs", "--scale", "tiny",
                     "--max-instructions", "6000",
                     "--jobs", "1", "--cache-dir", str(tmp_path)]) == 0
        assert "gap.bfs" in capsys.readouterr().out


class TestSweep:
    ARGS = ["sweep", "--workloads", "bfs,pr",
            "--techniques", "nowp,conv", "--scale", "tiny",
            "--max-instructions", "5000"]

    def test_cold_then_warm(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path)]
        assert main(self.ARGS + cache + ["--jobs", "2"]) == 0
        cold = capsys.readouterr().out
        assert "0 cache hits" in cold and "4 simulated" in cold
        assert (tmp_path / "journal.jsonl").exists()

        assert main(self.ARGS + cache + ["--jobs", "2"]) == 0
        warm = capsys.readouterr().out
        assert "4 cache hits (100%)" in warm and "0 simulated" in warm

        # Parallel and serial runs render identical result tables.
        assert main(self.ARGS + cache + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        table = lambda text: text.split("\n\n")[0]  # noqa: E731
        assert table(serial) == table(warm)

    def test_failed_job_sets_exit_code(self, tmp_path, capsys):
        rc = main(["sweep", "--workloads", "bfs", "--techniques", "conv",
                   "--scale", "tiny", "--max-instructions", "1000",
                   "--set", "rob_size=-5", "--jobs", "1", "--retries", "0",
                   "--cache-dir", str(tmp_path)])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out

    def test_config_axis_expands_grid(self, tmp_path, capsys):
        rc = main(["sweep", "--workloads", "bfs", "--techniques", "nowp",
                   "--scale", "tiny", "--max-instructions", "2000",
                   "--set", "rob_size=32", "--set", "rob_size=64",
                   "--jobs", "1", "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rob_size=32" in out and "rob_size=64" in out
        assert "2 jobs" in out

    def test_no_cache_disables_store(self, tmp_path, capsys):
        rc = main(["sweep", "--workloads", "bfs", "--techniques", "nowp",
                   "--scale", "tiny", "--max-instructions", "2000",
                   "--jobs", "1", "--no-cache",
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert not (tmp_path / "journal.jsonl").exists()
        assert "cache:" not in capsys.readouterr().out.splitlines()[-1]


class TestSampleCommand:
    ARGS = ["sample", "--workloads", "bfs", "--techniques", "nowp,conv",
            "--scale", "tiny", "--detail-length", "2000",
            "--ff-length", "6000"]

    def test_cold_then_warm_share_digest(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path)]
        assert main(self.ARGS + cache + ["--jobs", "2"]) == 0
        cold = capsys.readouterr().out
        assert "gap.bfs" in cold and "intervals" in cold
        digest = [line for line in cold.splitlines()
                  if "combined digest" in line]
        assert digest

        assert main(self.ARGS + cache + ["--jobs", "1"]) == 0
        warm = capsys.readouterr().out
        assert digest[0].split("combined digest")[1] in warm

    SAMPLING = dict(scale="tiny", detail_length=2000,
                    fastforward_length=6000)

    @staticmethod
    def _count_calls(monkeypatch):
        """Count ``functional_pass`` calls and engine batches."""
        from repro.engine.executor import ExperimentEngine
        from repro.simulator import sampling
        counts = {"functional_pass": 0, "batches": 0}
        real_pass = sampling.functional_pass
        real_run = ExperimentEngine.run

        def counting_pass(*args, **kwargs):
            counts["functional_pass"] += 1
            return real_pass(*args, **kwargs)

        def counting_run(self, jobs, **kwargs):
            counts["batches"] += 1
            return real_run(self, jobs, **kwargs)

        monkeypatch.setattr(sampling, "functional_pass", counting_pass)
        monkeypatch.setattr(ExperimentEngine, "run", counting_run)
        return counts

    @staticmethod
    def _rows(out):
        return {line.split()[1]: line for line in out.splitlines()
                if line.startswith("gap.bfs ")}

    def test_one_plan_and_one_batch_serve_every_technique(
            self, tmp_path, capsys, monkeypatch):
        import hashlib

        from repro.simulator.sampling import sample_workload
        counts = self._count_calls(monkeypatch)
        assert main(self.ARGS + ["--cache-dir", str(tmp_path),
                                 "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert counts == {"functional_pass": 1, "batches": 1}
        digests = [sample_workload("gap.bfs", technique=t,
                                   **self.SAMPLING).digest()
                   for t in ("nowp", "conv")]
        combined = hashlib.sha256("\n".join(digests).encode()).hexdigest()
        assert f"combined digest {combined[:16]}" in out

    def test_failed_interval_fails_only_its_technique(
            self, tmp_path, capsys, monkeypatch):
        from repro.simulator.sampling import SampleIntervalJob
        real_run = SampleIntervalJob.run

        def conv_breaks(self):
            if self.technique == "conv":
                raise RuntimeError("injected interval fault")
            return real_run(self)

        monkeypatch.setattr(SampleIntervalJob, "run", conv_breaks)
        rc = main(self.ARGS + ["--cache-dir", str(tmp_path),
                               "--jobs", "1"])
        assert rc == 1
        out = capsys.readouterr().out
        rows = self._rows(out)
        assert "FAILED" not in rows["nowp"]
        assert "FAILED" in rows["conv"]
        assert "injected interval fault" in rows["conv"]
        assert "2 sampled runs, 1 failed" in out

    def test_validate_reports_error(self, tmp_path, capsys, monkeypatch):
        from repro.engine import SimJob
        from repro.simulator.sampling import sample_workload
        counts = self._count_calls(monkeypatch)
        rc = main(self.ARGS + ["--cache-dir", str(tmp_path),
                               "--jobs", "1", "--validate", "conv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "err vs full" in out
        assert "mean |IPC error|" in out
        # The full-simulation reference joins the intervals' batch, and
        # the printed error is the one a separate reference run gives.
        assert counts == {"functional_pass": 1, "batches": 1}
        full = SimJob(workload="gap.bfs", technique="conv",
                      scale="tiny").run().ipc
        sampled = sample_workload("gap.bfs", technique="conv",
                                  **self.SAMPLING).ipc
        error = abs(sampled - full) / full
        assert f" {error * 100:.2f}% " in self._rows(out)["conv"]

    def test_parser_defaults(self):
        args = make_parser().parse_args(["sample"])
        assert args.workloads == "gap"
        assert args.detail_length == 10_000
        assert args.ff_length == 40_000
        assert args.validate is None


class TestCompile:
    def test_compile_to_stdout(self, tmp_path, capsys):
        src = tmp_path / "k.c"
        src.write_text("void main() { print_int(7); }")
        assert main(["compile", str(src)]) == 0
        out = capsys.readouterr().out
        assert "_start:" in out

    def test_compile_to_file(self, tmp_path):
        src = tmp_path / "k.c"
        src.write_text("void main() { print_int(7); }")
        out = tmp_path / "k.s"
        assert main(["compile", str(src), "-o", str(out)]) == 0
        assert "_start:" in out.read_text()
        # The emitted assembly must itself assemble and run.
        from repro.functional.emulator import Emulator
        from repro.isa.assembler import assemble
        emu = Emulator(assemble(out.read_text()))
        emu.run()
        assert emu.output == [7]

    def test_compile_error_exit_code(self, tmp_path, capsys):
        src = tmp_path / "bad.c"
        src.write_text("void main() { x = ; }")
        assert main(["compile", str(src)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent/file.c"]) == 1


class TestFuzzCommand:
    def test_fuzz_clean_run(self, tmp_path, capsys):
        rc = main(["fuzz", "--seed", "5", "--budget", "3",
                   "--max-instructions", "2000", "--quiet",
                   "--corpus", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "findings digest:" in out

    def test_fuzz_replay_missing_file(self, capsys):
        assert main(["fuzz", "--replay", "/nonexistent/case.json"]) == 1
        assert "no such corpus file" in capsys.readouterr().err

    def test_fuzz_replay_saved_case(self, tmp_path, capsys):
        from repro.fuzz import make_case, save_case
        # A clean case replays with exit 0 ("no longer reproduces").
        case = make_case(5, 0, max_instructions=2000)
        path = save_case(str(tmp_path), case,
                         [{"oracle": "arch", "technique": "conv",
                           "detail": "stale"}])
        assert main(["fuzz", "--replay", path]) == 0
        assert "no longer reproduces" in capsys.readouterr().out

    def test_fuzz_parser_defaults(self):
        args = make_parser().parse_args(["fuzz"])
        assert args.seed == 0
        assert args.budget == 100
        assert args.frontend == "both"
        assert args.corpus == ".fuzz-corpus"


class TestStartup:
    def test_import_leaves_scipy_unloaded(self):
        """Only the gap.cc/gap.sssp reference checks use scipy, so CLI
        start-up must not pay for importing it."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.strip() == "False"
