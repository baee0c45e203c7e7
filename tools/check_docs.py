#!/usr/bin/env python
"""Documentation checks for the top-level markdown files.

Six passes, all run by CI's docs job (and by ``tests/test_docs.py``):

1. **Links** — every relative link ``[text](path)`` must point at an
   existing file, and every ``#anchor`` (same-file or cross-file) must
   match a heading under GitHub's slugification rules.
2. **Code blocks** — every fenced ```` ```python ```` block must
   compile (``pycon``/``>>>`` blocks are covered by the doctest pass
   instead).
3. **Doctests** — ``python -m doctest`` semantics over the files in
   :data:`DOCTEST_FILES`; examples must be deterministic.
4. **simcheck rules** — every ``SCnnn`` rule id a checked file mentions
   must exist in the registered suite (no docs for phantom rules), and
   every registered rule must be documented in DESIGN.md (no phantom
   rules for docs).
5. **DESIGN section numbers** — both directions: every ``§N`` /
   ``§N.M`` reference in a checked file must name an existing
   DESIGN.md numbered heading (references always mean DESIGN.md — the
   other docs say "DESIGN.md §N" explicitly), and DESIGN.md's own
   numbering must be well-formed: top-level sections contiguous from
   1, subsections contiguous from ``N.1`` under their parent.
   Inserting a chapter without renumbering the rest (or renumbering
   without chasing cross-references) fails this pass.
6. **Python paths** — every ``*.py`` path inside a backticked code span
   must be a path suffix of a file in the repo (``service/daemon.py``
   matches ``src/repro/service/daemon.py``), so a moved or deleted
   module cannot stay named in the docs.  ROADMAP.md is exempt: it
   names files that are planned but not written yet.

Usage::

    PYTHONPATH=src python tools/check_docs.py

Exits nonzero listing every problem found.
"""

from __future__ import annotations

import doctest
import os
import re
import sys
from typing import Dict, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Files whose links and ```python blocks are checked.  Deliberately a
#: curated list: ISSUE/PAPERS/SNIPPETS hold external or historical
#: content that is not ours to keep link-clean.
CHECKED_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "CONTRIBUTING.md",
    "ROADMAP.md",
    "benchmarks/README.md",
)

#: Files whose ``>>>`` examples are executed.
DOCTEST_FILES = ("README.md", "DESIGN.md")

#: Files whose backticked ``*.py`` paths must exist (ROADMAP.md names
#: planned files).
PY_PATH_FILES = tuple(f for f in CHECKED_FILES if f != "ROADMAP.md")

_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
_FENCE_RE = re.compile(r"^(```+|~~~+)\s*([\w+-]*)\s*$")


def slugify(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # strip code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # strip links
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def heading_slugs(text: str) -> Dict[str, int]:
    """Map of anchor slug -> occurrence count (GitHub dedups with -1, -2)."""
    slugs: Dict[str, int] = {}
    in_fence = False
    for line in text.splitlines():
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = _HEADING_RE.match(line)
        if not m:
            continue
        base = slugify(m.group(1))
        n = slugs.get(base, 0)
        slugs[base] = n + 1
        if n:  # GitHub's duplicate-heading suffix
            slugs[f"{base}-{n}"] = 1
    return slugs


def extract_links(text: str) -> List[Tuple[int, str]]:
    """All non-image inline link targets as (1-based line, target)."""
    links: List[Tuple[int, str]] = []
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in _LINK_RE.finditer(line):
            links.append((lineno, m.group(1)))
    return links


def check_file_links(relpath: str, root: str = REPO_ROOT) -> List[str]:
    """Problems with the relative links/anchors of one markdown file."""
    path = os.path.join(root, relpath)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    problems: List[str] = []
    for lineno, target in extract_links(text):
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
            continue
        target, _, anchor = target.partition("#")
        if target:
            dest = os.path.normpath(
                os.path.join(os.path.dirname(path), target))
            if not os.path.exists(dest):
                problems.append(f"{relpath}:{lineno}: broken link "
                                f"-> {target}")
                continue
        else:
            dest = path
        if anchor:
            if not dest.endswith(".md") or not os.path.isfile(dest):
                continue  # anchors into non-markdown: not checkable
            with open(dest, encoding="utf-8") as fh:
                slugs = heading_slugs(fh.read())
            if anchor not in slugs:
                problems.append(f"{relpath}:{lineno}: broken anchor "
                                f"-> #{anchor}")
    return problems


def python_blocks(text: str) -> List[Tuple[int, str]]:
    """Fenced ```python blocks as (1-based first-content line, source)."""
    blocks: List[Tuple[int, str]] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = _FENCE_RE.match(lines[i])
        if m and m.group(2) == "python":
            fence, start = m.group(1), i + 1
            j = start
            while j < len(lines) and not lines[j].startswith(fence):
                j += 1
            blocks.append((start + 1, "\n".join(lines[start:j])))
            i = j + 1
        elif m:  # some other fence: skip to its close
            fence = m.group(1)
            i += 1
            while i < len(lines) and not lines[i].startswith(fence):
                i += 1
            i += 1
        else:
            i += 1
    return blocks


def check_file_codeblocks(relpath: str, root: str = REPO_ROOT) -> List[str]:
    """Problems compiling the ```python blocks of one markdown file."""
    path = os.path.join(root, relpath)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    problems: List[str] = []
    for lineno, source in python_blocks(text):
        if source.lstrip().startswith(">>>"):
            continue  # doctest-style: exercised by the doctest pass
        try:
            compile(source, f"{relpath}:{lineno}", "exec")
        except SyntaxError as exc:
            problems.append(f"{relpath}:{lineno}: python block does not "
                            f"compile: {exc.msg} (block line {exc.lineno})")
    return problems


def check_file_doctests(relpath: str, root: str = REPO_ROOT) -> List[str]:
    """Doctest failures of one markdown file (module_relative=False)."""
    failures, _ = doctest.testfile(os.path.join(root, relpath),
                                   module_relative=False, verbose=False)
    return [f"{relpath}: {failures} doctest failure(s)"] if failures else []


_SC_RULE_RE = re.compile(r"\bSC\d{3}\b")


def check_simcheck_rules(root: str = REPO_ROOT) -> List[str]:
    """Cross-check doc-mentioned SCnnn ids against the registered suite."""
    if root not in sys.path:
        sys.path.insert(0, root)  # the repo-root `simcheck` bootstrap stub
    from simcheck import ALL_RULES
    registered = {rule.id for rule in ALL_RULES}

    problems: List[str] = []
    design_mentions: set = set()
    for relpath in CHECKED_FILES:
        with open(os.path.join(root, relpath), encoding="utf-8") as fh:
            text = fh.read()
        for lineno, line in enumerate(text.splitlines(), 1):
            for rule_id in _SC_RULE_RE.findall(line):
                if relpath == "DESIGN.md":
                    design_mentions.add(rule_id)
                if rule_id not in registered:
                    problems.append(
                        f"{relpath}:{lineno}: mentions simcheck rule "
                        f"{rule_id}, which is not in the suite "
                        f"(python -m simcheck --list-rules)")
    for rule_id in sorted(registered - design_mentions):
        problems.append(
            f"DESIGN.md: simcheck rule {rule_id} is registered but "
            f"never documented (add it to the machine-checked "
            f"invariants section)")
    return problems


_SECTION_REF_RE = re.compile(r"§\s?(\d+(?:\.\d+)?)")
_NUMBERED_HEADING_RE = re.compile(r"^(#{2,3})\s+(\d+(?:\.\d+)?)\.?\s+\S")


def design_section_numbers(text: str) -> Tuple[Dict[str, int], List[str]]:
    """DESIGN.md's numbered headings: (number -> line, numbering problems).

    Numbering must be well-formed — ``## N.`` sections contiguous from
    1, ``### N.M`` subsections contiguous from ``.1`` under the current
    section — so a chapter insertion that forgets to renumber is caught
    here even before any cross-reference dangles.
    """
    numbers: Dict[str, int] = {}
    problems: List[str] = []
    in_fence = False
    last_section = 0
    last_sub = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = _NUMBERED_HEADING_RE.match(line)
        if not m:
            continue
        level, number = m.group(1), m.group(2)
        if number in numbers:
            problems.append(f"DESIGN.md:{lineno}: duplicate section "
                            f"number {number} (first at line "
                            f"{numbers[number]})")
            continue
        numbers[number] = lineno
        if level == "##":
            if "." in number or int(number) != last_section + 1:
                problems.append(
                    f"DESIGN.md:{lineno}: section {number} out of "
                    f"sequence (expected {last_section + 1})")
            last_section = int(number.partition(".")[0])
            last_sub = 0
        else:
            parent, _, sub = number.partition(".")
            if (not sub or int(parent) != last_section
                    or int(sub) != last_sub + 1):
                problems.append(
                    f"DESIGN.md:{lineno}: subsection {number} out of "
                    f"sequence (expected {last_section}.{last_sub + 1})")
            if sub:
                last_sub = int(sub)
    return numbers, problems


def check_design_sections(root: str = REPO_ROOT) -> List[str]:
    """Cross-check §N references against DESIGN.md's numbered headings."""
    with open(os.path.join(root, "DESIGN.md"), encoding="utf-8") as fh:
        numbers, problems = design_section_numbers(fh.read())
    for relpath in CHECKED_FILES:
        with open(os.path.join(root, relpath), encoding="utf-8") as fh:
            text = fh.read()
        in_fence = False
        for lineno, line in enumerate(text.splitlines(), 1):
            if _FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for ref in _SECTION_REF_RE.findall(line):
                if ref not in numbers:
                    problems.append(
                        f"{relpath}:{lineno}: references DESIGN.md "
                        f"§{ref}, which does not exist (sections run "
                        f"1-{max(int(n) for n in numbers if '.' not in n)})")
    return problems


_CODE_SPAN_RE = re.compile(r"(`+)(.+?)\1")
_PY_PATH_RE = re.compile(r"(?<![\w/.-])[\w.-]+(?:/[\w.-]+)*\.py(?![\w/])")


def repo_path_suffixes(root: str = REPO_ROOT) -> set:
    """Every ``/``-joined trailing run of path components of every file
    under ``root`` (hidden directories and ``__pycache__`` skipped)."""
    suffixes: set = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if not d.startswith(".") and d != "__pycache__"]
        rel = os.path.relpath(dirpath, root)
        parts = [] if rel == "." else rel.split(os.sep)
        for name in filenames:
            path = parts + [name]
            for i in range(len(path)):
                suffixes.add("/".join(path[i:]))
    return suffixes


def check_py_paths(root: str = REPO_ROOT,
                   files: Tuple[str, ...] = PY_PATH_FILES) -> List[str]:
    """Backticked ``*.py`` paths that name no file in the repo."""
    suffixes = repo_path_suffixes(root)
    problems: List[str] = []
    for relpath in files:
        with open(os.path.join(root, relpath), encoding="utf-8") as fh:
            text = fh.read()
        in_fence = False
        for lineno, line in enumerate(text.splitlines(), 1):
            if _FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for span in _CODE_SPAN_RE.finditer(line):
                for m in _PY_PATH_RE.finditer(span.group(2)):
                    path = m.group(0)
                    if path.startswith("./"):
                        path = path[2:]
                    if path not in suffixes:
                        problems.append(
                            f"{relpath}:{lineno}: names `{m.group(0)}`, "
                            f"which matches no file in the repo")
    return problems


def main(argv: List[str] = ()) -> int:
    problems: List[str] = []
    for relpath in CHECKED_FILES:
        problems += check_file_links(relpath)
        problems += check_file_codeblocks(relpath)
    for relpath in DOCTEST_FILES:
        problems += check_file_doctests(relpath)
    problems += check_simcheck_rules()
    problems += check_design_sections()
    problems += check_py_paths()
    for problem in problems:
        print(problem, file=sys.stderr)
    n_files = len(set(CHECKED_FILES) | set(DOCTEST_FILES))
    if problems:
        print(f"check_docs: {len(problems)} problem(s) in {n_files} "
              f"file(s)", file=sys.stderr)
        return 1
    print(f"check_docs: {n_files} file(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
