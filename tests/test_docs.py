"""Executable documentation: README/docs code snippets run, links resolve.

Every fenced ``python`` code block in ``README.md`` and ``docs/*.md`` is
executed (blocks within one file share a namespace, so a snippet may build on
the previous one; blocks written in doctest style are run through
:mod:`doctest`).  Every relative markdown link must point at an existing file
in the repository, and so must every ``*.md`` name that code or tooling
mentions.  Every ``examples/*.py`` script must run to completion.  CI runs
this module as the ``docs`` job, so documentation drift fails the build
instead of rotting.

Snippets that are *not* meant to be executed (shell transcripts, pseudo-code,
expected output) must use a non-``python`` fence (``sh``, ``text``, ...).
"""

from __future__ import annotations

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda path: path.name,
)

EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"), key=lambda path: path.name)

_FENCE = re.compile(r"^```(\w*)\s*$")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_MD_NAME = re.compile(r"[\w./-]*\w\.md\b")


def python_blocks(path: Path) -> list[tuple[int, str]]:
    """The fenced ``python`` blocks of a markdown file, with line numbers."""
    blocks: list[tuple[int, str]] = []
    language = None
    start = 0
    lines: list[str] = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        fence = _FENCE.match(line)
        if fence and language is None:
            language = fence.group(1)
            start = number + 1
            lines = []
        elif line.strip() == "```" and language is not None:
            if language == "python":
                blocks.append((start, "\n".join(lines)))
            language = None
        elif language is not None:
            lines.append(line)
    return blocks


def relative_links(path: Path) -> list[str]:
    """All relative (intra-repository) link targets of a markdown file."""
    targets = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        targets.append(target.split("#", 1)[0])
    return [t for t in targets if t]


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_documented_files_exist(path):
    assert path.exists(), f"documentation file {path} is missing"


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_python_snippets_execute(path):
    """Each file's python blocks run top to bottom in one shared namespace."""
    blocks = python_blocks(path)
    namespace: dict = {"__name__": f"doctest_{path.stem}"}
    for line, source in blocks:
        if ">>>" in source:
            runner = doctest.DocTestRunner(verbose=False, optionflags=doctest.ELLIPSIS)
            test = doctest.DocTestParser().get_doctest(
                source, namespace, f"{path.name}:{line}", str(path), line
            )
            runner.run(test)
            assert runner.failures == 0, f"doctest block at {path.name}:{line} failed"
        else:
            try:
                exec(compile(source, f"{path.name}:{line}", "exec"), namespace)
            except Exception as error:  # pragma: no cover - failure reporting
                pytest.fail(f"snippet at {path.name}:{line} raised {error!r}")


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_intra_repo_links_resolve(path):
    broken = []
    for target in relative_links(path):
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{path.name} has broken links: {broken}"


def test_mentioned_md_files_exist():
    """``*.md`` names in code and tooling resolve from the root or the mentioning file."""
    missing = []
    for folder in ("src", "benchmarks", "tools"):
        for path in (REPO_ROOT / folder).rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                for name in _MD_NAME.findall(path.read_text(encoding="utf-8", errors="ignore")):
                    if not (REPO_ROOT / name).exists() and not (path.parent / name).exists():
                        missing.append(f"{path.relative_to(REPO_ROOT)}: {name}")
    assert not missing, f"mentions of missing *.md files: {missing}"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(path):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, f"{path.name} failed:\n{result.stderr}"
