"""Tests for tools/check_docs.py and for the repo docs themselves.

The checker's parsing helpers are tested against synthetic markdown;
the final test runs the full check over the real top-level docs, so a
broken cross-reference or a stale ``>>>`` example fails tier-1 (not
just the CI docs job).
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tools"))
import check_docs  # noqa: E402


class TestSlugify:
    def test_basic(self):
        assert check_docs.slugify("Inspecting a run") == "inspecting-a-run"

    def test_punctuation_dropped_code_spans_kept(self):
        assert (check_docs.slugify("7.2 The `zero-cost` hook, contract!")
                == "72-the-zero-cost-hook-contract")

    def test_links_reduced_to_text(self):
        assert check_docs.slugify("See [DESIGN](DESIGN.md)") == "see-design"


class TestHeadingSlugs:
    def test_duplicates_get_github_suffix(self):
        slugs = check_docs.heading_slugs(
            "# Setup\n\n## Setup\n\ntext\n")
        assert "setup" in slugs and "setup-1" in slugs

    def test_headings_inside_fences_ignored(self):
        slugs = check_docs.heading_slugs(
            "# Real\n```bash\n# not a heading\n```\n")
        assert list(slugs) == ["real"]


class TestExtractLinks:
    MD = ("See [a](other.md) and [b](other.md#sec) and "
          "[c](#local) and ![img](pic.png) and [web](https://x.y).\n"
          "```\n[not](a-link.md)\n```\n")

    def test_images_and_fences_skipped(self):
        targets = [t for _, t in check_docs.extract_links(self.MD)]
        assert targets == ["other.md", "other.md#sec", "#local",
                           "https://x.y"]


class TestCheckFileLinks:
    @pytest.fixture()
    def docroot(self, tmp_path):
        (tmp_path / "other.md").write_text("# Section One\n")
        return tmp_path

    def _check(self, docroot, body):
        (docroot / "doc.md").write_text(body)
        return check_docs.check_file_links("doc.md", root=str(docroot))

    def test_good_links_pass(self, docroot):
        assert self._check(
            docroot, "# T\n[x](other.md) [y](other.md#section-one) "
                     "[z](#t) [w](https://example.com)\n") == []

    def test_broken_file_reported(self, docroot):
        problems = self._check(docroot, "[x](missing.md)\n")
        assert len(problems) == 1 and "missing.md" in problems[0]

    def test_broken_anchor_reported(self, docroot):
        problems = self._check(docroot, "# T\n[x](other.md#nope)\n")
        assert len(problems) == 1 and "#nope" in problems[0]

    def test_broken_local_anchor_reported(self, docroot):
        problems = self._check(docroot, "# T\n[x](#absent)\n")
        assert len(problems) == 1 and "#absent" in problems[0]


class TestCodeBlocks:
    def test_python_blocks_extracted_with_line_numbers(self):
        text = "intro\n```python\nx = 1\n```\n```bash\nls(\n```\n"
        blocks = check_docs.python_blocks(text)
        assert blocks == [(3, "x = 1")]

    def test_compile_failure_reported(self, tmp_path):
        (tmp_path / "bad.md").write_text(
            "```python\ndef broken(:\n```\n")
        problems = check_docs.check_file_codeblocks(
            "bad.md", root=str(tmp_path))
        assert len(problems) == 1
        assert "does not compile" in problems[0]

    def test_doctest_style_blocks_deferred(self, tmp_path):
        (tmp_path / "d.md").write_text(
            "```python\n>>> this is doctest, not a script\n```\n")
        assert check_docs.check_file_codeblocks(
            "d.md", root=str(tmp_path)) == []


class TestSimcheckRulePass:
    def test_real_docs_rule_mentions_resolve(self):
        assert check_docs.check_simcheck_rules() == []

    def test_phantom_rule_mention_reported(self, tmp_path):
        # A doc naming a rule the suite doesn't register must fail.
        for relpath in check_docs.CHECKED_FILES:
            dest = tmp_path / relpath
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text("# stub\n")
        from simcheck import ALL_RULES
        registered = " ".join(rule.id for rule in ALL_RULES)
        (tmp_path / "DESIGN.md").write_text(
            f"# stub\n{registered} and SC999.\n")
        problems = check_docs.check_simcheck_rules(root=str(tmp_path))
        assert len(problems) == 1 and "SC999" in problems[0]

    def test_undocumented_rule_reported(self, tmp_path):
        # DESIGN.md silent about a registered rule must fail too.
        for relpath in check_docs.CHECKED_FILES:
            dest = tmp_path / relpath
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text("# stub\n")
        (tmp_path / "DESIGN.md").write_text(
            "# stub\nOnly SC001 is described here.\n")
        problems = check_docs.check_simcheck_rules(root=str(tmp_path))
        assert any("SC002" in p and "never documented" in p
                   for p in problems)


class TestDesignSectionPass:
    DESIGN = ("# t\n## 1. One\n### 1.1 Sub\n### 1.2 Sub\n## 2. Two\n"
              "As §1.2 says.\n")

    def _stub_tree(self, tmp_path, design):
        for relpath in check_docs.CHECKED_FILES:
            dest = tmp_path / relpath
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text("# stub\n")
        (tmp_path / "DESIGN.md").write_text(design)

    def test_real_docs_section_refs_resolve(self):
        assert check_docs.check_design_sections() == []

    def test_well_formed_numbering_passes(self, tmp_path):
        self._stub_tree(tmp_path, self.DESIGN)
        assert check_docs.check_design_sections(root=str(tmp_path)) == []

    def test_dangling_reference_reported(self, tmp_path):
        self._stub_tree(tmp_path, self.DESIGN)
        (tmp_path / "README.md").write_text("See DESIGN.md §7 for it.\n")
        problems = check_docs.check_design_sections(root=str(tmp_path))
        assert len(problems) == 1 and "§7" in problems[0]
        assert problems[0].startswith("README.md:1:")

    def test_gap_after_insertion_reported(self, tmp_path):
        # The renumbering failure mode: a chapter inserted as "2"
        # without shifting the old "2" onward.
        self._stub_tree(tmp_path, "# t\n## 1. One\n## 2. New\n## 2. Old\n")
        problems = check_docs.check_design_sections(root=str(tmp_path))
        assert any("duplicate section number 2" in p for p in problems)
        self._stub_tree(tmp_path, "# t\n## 1. One\n## 3. Skipped\n")
        problems = check_docs.check_design_sections(root=str(tmp_path))
        assert any("section 3 out of sequence" in p for p in problems)

    def test_orphan_subsection_reported(self, tmp_path):
        self._stub_tree(tmp_path, "# t\n## 1. One\n### 2.1 Orphan\n")
        problems = check_docs.check_design_sections(root=str(tmp_path))
        assert any("subsection 2.1 out of sequence" in p
                   for p in problems)

    def test_references_inside_fences_ignored(self, tmp_path):
        self._stub_tree(tmp_path, self.DESIGN)
        (tmp_path / "README.md").write_text("```\n§9 in output\n```\n")
        assert check_docs.check_design_sections(root=str(tmp_path)) == []


class TestPyPathPass:
    def _tree(self, tmp_path, doc):
        for relpath in ("src/repro/engine/scheduler.py",
                        "src/repro/service/daemon.py", "tools/smoke.py"):
            dest = tmp_path / relpath
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text("")
        (tmp_path / "DESIGN.md").write_text(doc)
        return check_docs.check_py_paths(root=str(tmp_path),
                                         files=("DESIGN.md",))

    def test_real_docs_py_paths_resolve(self):
        assert check_docs.check_py_paths() == []

    def test_roadmap_exempt(self):
        assert "ROADMAP.md" not in check_docs.PY_PATH_FILES
        assert set(check_docs.PY_PATH_FILES) == \
            set(check_docs.CHECKED_FILES) - {"ROADMAP.md"}

    def test_path_suffixes_pass(self, tmp_path):
        doc = ("`service/daemon.py`, `daemon.py`, "
               "`src/repro/engine/scheduler.py`, `./tools/smoke.py`,\n"
               "`PYTHONPATH=src python tools/smoke.py`, "
               "`engine/scheduler.py::Scheduler`\n")
        assert self._tree(tmp_path, doc) == []

    def test_stale_module_reported(self, tmp_path):
        problems = self._tree(tmp_path, "# t\nSee `service/scheduler.py`.\n")
        assert problems == ["DESIGN.md:2: names `service/scheduler.py`, "
                            "which matches no file in the repo"]

    def test_suffix_must_split_on_components(self, tmp_path):
        problems = self._tree(tmp_path, "`ice/daemon.py` `mon.py`\n")
        assert len(problems) == 2

    def test_fences_globs_and_prose_ignored(self, tmp_path):
        doc = ("```\nmissing/gone.py\n```\n"
               "`bench_*.py` and gone.py outside backticks\n")
        assert self._tree(tmp_path, doc) == []


class TestRealDocs:
    """The actual repo docs must pass every check."""

    @pytest.mark.parametrize("relpath", check_docs.CHECKED_FILES)
    def test_links(self, relpath):
        assert check_docs.check_file_links(relpath) == []

    @pytest.mark.parametrize("relpath", check_docs.CHECKED_FILES)
    def test_codeblocks(self, relpath):
        assert check_docs.check_file_codeblocks(relpath) == []

    @pytest.mark.parametrize("relpath", check_docs.DOCTEST_FILES)
    def test_doctests(self, relpath):
        assert check_docs.check_file_doctests(relpath) == []
