"""Tests for the simcheck static-analysis suite itself.

Each rule ships with a pair of fixture files under
``tests/data/simcheck/`` — one deliberately violating, one clean.  Bad
fixtures mark every line a finding must anchor to with a trailing
``# expect: SCnnn`` comment, so these tests pin rule ids *and* line
numbers without hard-coding them here.  The remaining tests cover the
engine machinery: fixture quarantine, inline allows, the line-robust
baseline workflow, CLI exit codes, and the real tree staying clean.
"""

import json
import os
import pathlib
import textwrap

import pytest

from simcheck import ALL_RULES, Baseline, ParseFailure, run_simcheck
from simcheck.engine import BASELINE_PATH, Project, collect_files, main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "tests" / "data" / "simcheck"
RULE_IDS = ("SC001", "SC002", "SC003", "SC004", "SC005", "SC006",
            "SC007", "SC008", "SC009", "SC010")


def expected_lines(path):
    """Line numbers carrying a ``# expect: SCnnn`` marker."""
    return {lineno for lineno, line
            in enumerate(path.read_text().splitlines(), 1)
            if "# expect: SC" in line}


def scan(*paths, **kwargs):
    kwargs.setdefault("include_fixtures", True)
    new, _ = run_simcheck([str(p) for p in paths], **kwargs)
    return new


class TestRegistry:
    def test_at_least_ten_rules(self):
        assert len(ALL_RULES) >= 10

    def test_ids_unique_and_expected(self):
        ids = [rule.id for rule in ALL_RULES]
        assert len(ids) == len(set(ids))
        assert set(RULE_IDS) <= set(ids)

    def test_rule_shape(self):
        for rule in ALL_RULES:
            assert rule.id.startswith("SC") and rule.id[2:].isdigit()
            assert rule.title
            assert rule.severity in ("error", "warning")
            assert callable(rule.check)

    def test_every_rule_has_fixture_pair(self):
        for rule_id in RULE_IDS:
            stem = rule_id.lower()
            assert (FIXTURE_DIR / f"{stem}_bad.py").exists(), rule_id
            assert (FIXTURE_DIR / f"{stem}_good.py").exists(), rule_id


@pytest.mark.parametrize("rule_id", RULE_IDS)
class TestRuleFixtures:
    def test_bad_fixture_flagged_at_expected_lines(self, rule_id):
        path = FIXTURE_DIR / f"{rule_id.lower()}_bad.py"
        findings = scan(path)
        assert findings, f"{rule_id} bad fixture produced no findings"
        assert {f.rule for f in findings} == {rule_id}
        assert {f.line for f in findings} == expected_lines(path)

    def test_good_fixture_clean(self, rule_id):
        path = FIXTURE_DIR / f"{rule_id.lower()}_good.py"
        assert scan(path) == []

    def test_render_has_rule_id_and_location(self, rule_id):
        path = FIXTURE_DIR / f"{rule_id.lower()}_bad.py"
        rendered = scan(path)[0].render()
        assert rule_id in rendered
        assert f"{path.name}:" in rendered


class TestFixtureQuarantine:
    def test_fixtures_skipped_by_default(self):
        assert scan(FIXTURE_DIR, include_fixtures=False) == []

    def test_fixture_only_runs_named_rules(self):
        # The SC002 bad fixture prints inside a loop AND tests _obs — but
        # its deliberate badness must never trip other rules.
        findings = scan(FIXTURE_DIR / "sc002_bad.py")
        assert {f.rule for f in findings} == {"SC002"}


class TestAllowsAndBaseline:
    def _violating(self, tmp_path, extra=""):
        """A scratch src/repro module with one SC001 violation."""
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True, exist_ok=True)
        mod = pkg / "scratch.py"
        mod.write_text(textwrap.dedent("""\
            import time


            def stamp():
                return time.time()
            """) + extra)
        return mod

    def test_violation_reported_with_rule_and_line(self, tmp_path):
        mod = self._violating(tmp_path)
        findings = scan(mod)
        assert len(findings) == 1
        assert findings[0].rule == "SC001"
        assert findings[0].line == 5

    def test_inline_allow_suppresses(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        mod = pkg / "allowed.py"
        mod.write_text(
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time()"
            "  # simcheck: allow=SC001 timestamp is display-only\n")
        assert scan(mod) == []

    def test_allow_on_line_above(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        mod = pkg / "allowed2.py"
        mod.write_text(
            "import time\n\n\n"
            "def stamp():\n"
            "    # simcheck: allow=SC001 timestamp is display-only\n"
            "    return time.time()\n")
        assert scan(mod) == []

    def test_baseline_suppresses_and_survives_line_shift(self, tmp_path):
        mod = self._violating(tmp_path)
        baseline = Baseline.from_findings(scan(mod))

        new, suppressed = run_simcheck([str(mod)], baseline=baseline)
        assert new == []
        assert len(suppressed) == 1

        # Fingerprints hash the flagged line's text, not its number:
        # edits above the finding must not un-suppress it.
        mod.write_text("# an unrelated new comment\n" + mod.read_text())
        new, suppressed = run_simcheck([str(mod)], baseline=baseline)
        assert new == []
        assert len(suppressed) == 1

    def test_new_violation_escapes_baseline(self, tmp_path):
        mod = self._violating(tmp_path)
        baseline = Baseline.from_findings(scan(mod))
        self._violating(tmp_path, extra=(
            "\n\ndef fresh():\n    return time.time_ns()\n"))
        new, suppressed = run_simcheck([str(mod)], baseline=baseline)
        assert len(new) == 1
        assert "time_ns" in new[0].line_text
        assert len(suppressed) == 1

    def test_baseline_roundtrip_via_file(self, tmp_path):
        mod = self._violating(tmp_path)
        path = tmp_path / "baseline.json"
        Baseline.from_findings(scan(mod)).save(str(path))
        loaded = Baseline.load(str(path))
        new, suppressed = run_simcheck([str(mod)], baseline=loaded)
        assert new == [] and len(suppressed) == 1


class TestCli:
    def _violating(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        mod = pkg / "scratch.py"
        mod.write_text("import time\nSTAMP = time.time()\n")
        return mod

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "fine.py").write_text("VALUE = 1\n")
        assert main([str(pkg)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_seeded_violation_exits_nonzero_with_location(
            self, tmp_path, capsys):
        mod = self._violating(tmp_path)
        assert main([str(mod)]) == 1
        out = capsys.readouterr().out
        assert "SC001" in out
        assert f"scratch.py:2:" in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        mod = self._violating(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main([str(mod), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        assert main([str(mod), "--baseline", str(baseline)]) == 0
        assert main([str(mod), "--baseline", str(baseline),
                     "--no-baseline"]) == 1
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_select_unknown_rule_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path), "--select", "SC999"]) == 2
        capsys.readouterr()

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        capsys.readouterr()

    def test_select_runs_only_named_rule(self, tmp_path):
        mod = self._violating(tmp_path)
        new, _ = run_simcheck([str(mod)], select=["SC002"])
        assert new == []


class TestRealTree:
    def test_repo_is_clean_under_committed_baseline(self):
        baseline = Baseline.load(BASELINE_PATH)
        new, _ = run_simcheck(
            [str(REPO_ROOT / part)
             for part in ("src", "tests", "tools", "benchmarks")],
            baseline=baseline)
        assert new == [], "\n".join(f.render() for f in new)

    def test_markers_attached_in_real_tree(self):
        # Guard against the markers silently detaching from their
        # defs/classes during refactors: the rules only fire while
        # these are indexed.
        files = collect_files([str(REPO_ROOT / "src")])
        project = Project(files)
        assert {"DynInstr", "WrongPathRecord", "WrongPathWindow"} \
            <= set(project.per_instruction)
        hot = {os.path.basename(src.path)
               for src in files if src.markers.get("hotpath")}
        assert {"frontend.py", "queue.py", "ooo.py"} <= hot


class TestBlockTemplateAudit:
    """SC003's block-superhandler arm: the template tables of the three
    rendering modules are dummy-rendered and AST-whitelisted, and the
    second sanctioned exec site (`superblock._compile_block`) is scoped
    to exactly that module."""

    REAL_MODULES = (
        "src/repro/functional/superblock.py",
        "src/repro/core/timingblock.py",
        "src/repro/wrongpath/streamblock.py",
    )

    def test_real_block_modules_clean(self):
        for rel in self.REAL_MODULES:
            findings = scan(REPO_ROOT / rel, include_fixtures=False)
            assert findings == [], \
                rel + "\n" + "\n".join(f.render() for f in findings)

    def _streamblock_variant(self, tmp_path, old, new):
        source = (REPO_ROOT / self.REAL_MODULES[2]).read_text()
        assert old in source, "tamper target drifted out of the module"
        mod = tmp_path / "src" / "repro" / "wrongpath" / "streamblock.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(source.replace(old, new))
        return mod

    def test_tampered_template_is_flagged(self, tmp_path):
        # A template body reaching outside the whitelist (here, an
        # __import__ call) must trip the dummy-render audit.
        mod = self._streamblock_variant(
            tmp_path,
            '"exec_plain": "complete = issue_c + {latency}",',
            '"exec_plain": "complete = __import__(\'os\').getpid()",')
        findings = [f for f in scan(mod) if f.rule == "SC003"]
        assert findings
        assert any("whitelist" in f.message for f in findings)

    def test_non_literal_table_is_flagged(self, tmp_path):
        # Hiding the table behind a dynamic construction defeats the
        # static audit, so it is a violation in itself.
        mod = self._streamblock_variant(
            tmp_path,
            "STREAM_TEMPLATES = {",
            "STREAM_TEMPLATES = dict()\n_UNAUDITED = {")
        findings = [f for f in scan(mod) if f.rule == "SC003"]
        assert any("STREAM_TEMPLATES" in f.message for f in findings)

    def test_exec_outside_sanctioned_sites_still_flagged(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        mod = pkg / "scratch_exec.py"
        mod.write_text("def build(src):\n    exec(src)\n")
        findings = [f for f in scan(mod) if f.rule == "SC003"]
        assert len(findings) == 1
        assert "sanctioned" in findings[0].message

    def test_compile_block_sanctioned_only_in_superblock(self, tmp_path):
        # The _compile_block carve-out is keyed to superblock.py's path;
        # the same function name elsewhere in repro stays forbidden.
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        mod = pkg / "sneaky.py"
        mod.write_text("def _compile_block(src):\n    exec(src)\n")
        findings = [f for f in scan(mod) if f.rule == "SC003"]
        assert len(findings) == 1


class TestExitCodes:
    """The CLI's 0/1/2 contract: clean, findings, broken input."""

    def test_unparseable_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert main([str(bad)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_parse_failure_lists_every_bad_file(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text("def a(:\n")
        (tmp_path / "b.py").write_text("def b(:\n")
        assert main([str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "a.py" in err and "b.py" in err

    def test_collect_files_raises_parse_failure(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        with pytest.raises(ParseFailure) as excinfo:
            collect_files([str(tmp_path)])
        assert any("bad.py" in err for err in excinfo.value.errors)

    def test_jobs_zero_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "fine.py").write_text("VALUE = 1\n")
        assert main([str(tmp_path), "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_findings_exit_one_clean_exit_zero(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        mod = pkg / "scratch.py"
        mod.write_text("import time\nSTAMP = time.time()\n")
        assert main([str(mod), "--no-baseline"]) == 1
        mod.write_text("STAMP = 0\n")
        assert main([str(mod), "--no-baseline"]) == 0
        capsys.readouterr()


class TestParallelParse:
    def test_jobs_identical_output(self):
        kwargs = dict(include_fixtures=True, select=RULE_IDS)
        serial, _ = run_simcheck([str(FIXTURE_DIR)], jobs=1, **kwargs)
        parallel, _ = run_simcheck([str(FIXTURE_DIR)], jobs=4, **kwargs)
        assert serial, "fixture scan found nothing; comparison is vacuous"
        assert [(f.render(), f.fingerprint) for f in serial] == \
               [(f.render(), f.fingerprint) for f in parallel]

    def test_jobs_identical_collection(self, tmp_path):
        for name in ("b.py", "a.py", "c.py"):
            (tmp_path / name).write_text("VALUE = 1\n")
        serial = [f.path for f in collect_files([str(tmp_path)])]
        parallel = [f.path for f in collect_files([str(tmp_path)],
                                                  jobs=3)]
        assert serial == parallel == sorted(serial)


class TestBaselineMaintenance:
    def _tree_with_baseline(self, tmp_path):
        """A scratch tree whose one violation is baselined."""
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        mod = pkg / "scratch.py"
        mod.write_text("import time\nSTAMP = time.time()\n")
        baseline = tmp_path / "baseline.json"
        assert main([str(mod), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        return mod, baseline

    def test_stale_entry_warns_on_stderr(self, tmp_path, capsys):
        mod, baseline = self._tree_with_baseline(tmp_path)
        mod.write_text("STAMP = 0\n")  # fix -> entry goes stale
        capsys.readouterr()
        assert main([str(mod), "--baseline", str(baseline)]) == 0
        err = capsys.readouterr().err
        assert "stale baseline entry" in err
        assert "--prune-baseline" in err

    def test_strict_baseline_fails_on_stale(self, tmp_path, capsys):
        mod, baseline = self._tree_with_baseline(tmp_path)
        assert main([str(mod), "--baseline", str(baseline),
                     "--strict-baseline"]) == 0  # entry still live
        mod.write_text("STAMP = 0\n")
        assert main([str(mod), "--baseline", str(baseline),
                     "--strict-baseline"]) == 1
        capsys.readouterr()

    def test_prune_drops_only_stale_entries(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        keep = pkg / "keep.py"
        keep.write_text("import time\nSTAMP = time.time()\n")
        gone = pkg / "gone.py"
        gone.write_text("import time\nSTART = time.time_ns()\n")
        baseline = tmp_path / "baseline.json"
        assert main([str(pkg), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        gone.write_text("START = 0\n")
        capsys.readouterr()
        assert main([str(pkg), "--baseline", str(baseline),
                     "--prune-baseline"]) == 0
        assert "pruned 1" in capsys.readouterr().out
        entries = json.loads(baseline.read_text())["entries"]
        assert len(entries) == 1
        assert entries[0]["path"].endswith("keep.py")
        # After the prune the file is authoritative again.
        assert main([str(pkg), "--baseline", str(baseline),
                     "--strict-baseline"]) == 0
        capsys.readouterr()


class TestSarif:
    def _violating(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        mod = pkg / "scratch.py"
        mod.write_text("import time\nSTAMP = time.time()\n")
        return mod

    def test_sarif_report_structure(self, tmp_path, capsys):
        mod = self._violating(tmp_path)
        assert main([str(mod), "--no-baseline",
                     "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "simcheck"
        assert {r["id"] for r in driver["rules"]} >= set(RULE_IDS)
        result, = run["results"]
        assert result["ruleId"] == "SC001"
        assert driver["rules"][result["ruleIndex"]]["id"] == "SC001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("scratch.py")
        assert "\\" not in location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] == 2
        fingerprint = result["partialFingerprints"]
        assert "simcheckFingerprint/v1" in fingerprint

    def test_sarif_fingerprint_matches_baseline(self, tmp_path, capsys):
        # GitHub dedups alerts on the partial fingerprint; it must be
        # the very hash the baseline workflow keys on.
        mod = self._violating(tmp_path)
        finding, = scan(mod)
        main([str(mod), "--no-baseline", "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        result, = log["runs"][0]["results"]
        assert result["partialFingerprints"]["simcheckFingerprint/v1"] \
            == finding.fingerprint

    def test_sarif_output_file_and_clean_run(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "fine.py").write_text("VALUE = 1\n")
        out = tmp_path / "scan.sarif"
        assert main([str(pkg), "--format", "sarif",
                     "--output", str(out)]) == 0
        log = json.loads(out.read_text())
        assert log["runs"][0]["results"] == []
        capsys.readouterr()


class TestInterproceduralIndexes:
    """The lazily-built call graph / effect index behind SC007-SC010."""

    def test_graph_resolves_cross_function_chain(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "chain.py").write_text(textwrap.dedent("""\
            def leaf():
                return open("x")


            def mid():
                return leaf()


            def top():
                return mid()
            """))
        project = Project(collect_files([str(pkg)]))
        top = next(f for f in project.graph.functions.values()
                   if f.name == "top")
        callees = [callee.name for _, callee
                   in project.graph.calls_in(top)]
        assert callees == ["mid"]
        witness = project.effects.sync_blocking_witness(top)
        assert witness is not None
        assert "leaf" in witness.describe()

    def test_indexes_are_lazy(self, tmp_path):
        (tmp_path / "mod.py").write_text("VALUE = 1\n")
        project = Project(collect_files([str(tmp_path)]))
        assert project._graph is None and project._effects is None
        project.effects
        assert project._graph is not None


class TestAsyncSafetyScope:
    """SC007 covers every package whose coroutines run on an event
    loop: the daemon's and the scheduler the engine shares with it."""

    SOURCE = textwrap.dedent("""\
        import time


        async def tick():
            time.sleep(1)
        """)

    def _scan_in(self, tmp_path, package):
        pkg = tmp_path / "src" / "repro" / package
        pkg.mkdir(parents=True)
        mod = pkg / "loop.py"
        mod.write_text(self.SOURCE)
        return [f.rule for f in scan(mod, select=["SC007"])]

    @pytest.mark.parametrize("package", ["engine", "service"])
    def test_loop_packages_checked(self, tmp_path, package):
        assert self._scan_in(tmp_path, package) == ["SC007"]

    def test_other_packages_not_checked(self, tmp_path):
        assert self._scan_in(tmp_path, "analysis") == []
