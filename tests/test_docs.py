"""Executable documentation: README/docs code snippets run, links resolve.

Every fenced ``python`` code block in ``README.md`` and ``docs/*.md`` is
executed (blocks within one file share a namespace, so a snippet may build on
the previous one; blocks written in doctest style are run through
:mod:`doctest`).  Every relative markdown link must point at an existing file
in the repository, and so must every ``*.md`` name that code or tooling
mentions.  Every documented ``python -m repro ...`` command must parse, and
every ``--flag`` its trailing ``#`` comment suggests must exist.  Every
``examples/*.py`` script must run to completion.  CI runs this module as the
``docs`` job, so documentation drift fails the build instead of rotting.

Snippets that are *not* meant to be executed (shell transcripts, pseudo-code,
expected output) must use a non-``python`` fence (``sh``, ``text``, ...).
"""

from __future__ import annotations

import argparse
import doctest
import os
import re
import shlex
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
_REPRO_COMMAND = re.compile(r"python -m repro\b(.*)")


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


def repro_commands(path: Path) -> list[tuple[int, str]]:
    """The ``python -m repro`` command lines of a markdown file, with line numbers.

    Backslash continuations are joined; each command is returned as the text
    after ``python -m repro``, trailing comment included.
    """
    commands: list[tuple[int, str]] = []
    pending, start = "", 0
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not pending:
            start = number
        if line.endswith("\\"):
            pending += line[:-1]
            continue
        match = _REPRO_COMMAND.search(pending + line)
        if match:
            commands.append((start, match.group(1)))
        pending = ""
    return commands


def split_comment(command: str) -> tuple[list[str], str]:
    """The shell words of *command* and its trailing ``#`` comment."""
    words = shlex.split(command, comments=True)
    for hash_sign in re.finditer(r"(?:^|\s)#", command):
        try:
            if shlex.split(command[: hash_sign.start()]) == words:
                return words, command[hash_sign.end():]
        except ValueError:  # this '#' sits inside an open quote
            continue
    return words, ""


def command_parser(words: list[str]) -> tuple[argparse.ArgumentParser, list[str]]:
    """The parser ``python -m repro`` hands *words* to, and the words it sees."""
    from repro.analysis.cli import build_analyze_parser
    from repro.cli import build_argument_parser
    from repro.scenarios.cli import build_scenarios_parser

    if words[:1] == ["scenarios"]:
        return build_scenarios_parser(), words[1:]
    if words[:1] == ["analyze"]:
        return build_analyze_parser(), words[1:]
    return build_argument_parser(), words


def option_strings(parser: argparse.ArgumentParser, words: list[str]) -> set[str]:
    """The options of *parser* and of the sub-command *words* select."""
    options: set[str] = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            verb = next((word for word in words if word in action.choices), None)
            if verb is not None:
                options |= option_strings(action.choices[verb], [])
    return options


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
def test_documented_commands_parse(path):
    """Each ``python -m repro`` line parses, and its comment names real flags."""
    problems = []
    for line, command in repro_commands(path):
        words, comment = split_comment(command)
        parser, argv = command_parser(words)
        _, unknown = parser.parse_known_args(argv)
        if unknown:
            problems.append(f"{path.name}:{line}: unknown arguments {unknown}")
        options = option_strings(parser, argv)
        for flag in re.findall(r"(?<![\w-])--[\w-]+", comment):
            if flag not in options:
                problems.append(f"{path.name}:{line}: the comment names unknown {flag}")
    assert not problems, problems


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
