#!/usr/bin/env python3
"""Custom lint: every guarded-state mutation site holds the matching lock.

Two module-level structures are shared by every engine in the process, so
callers' own threads may reach them concurrently.  This script re-checks
their locking invariants statically on every CI run:

* ``repro.chase.segments.SegmentStore`` — all mutations of the store's
  internal state (``_segments``, ``_aliases``, ``_replays`` and the
  counters) happen under ``self._lock``; the module-level store registry is
  mutated only under ``_registry_lock``.
* ``repro.core.answering`` — the shared-engine LRU (``_engine_cache``) and
  its hit/miss counters are mutated only under ``_cache_lock``.

The check is purely syntactic (``ast``), with two deliberate escapes that
mirror how the code is written: ``__init__``/module-level *definitions* (no
concurrent reader can exist yet), and helper methods whose docstring
contains "must hold the lock" (their callers are the locked sites).  A
mutation is an assignment / augmented assignment / ``del`` targeting a
guarded name (or an attribute/subscript of one), or a call of a mutating
method (``pop``, ``clear``, ``move_to_end``, …) on a guarded name.

Run from the repo root::

    python tools/check_lock_invariants.py

Exit code 0 when every mutation site is locked, 1 otherwise (sites listed).
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

#: methods whose call on a guarded object counts as a mutation
MUTATING_METHODS = {
    "add",
    "append",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}

#: docstring marker exempting a helper whose callers hold the lock
CALLER_HOLDS_MARKER = "must hold the lock"


@dataclass(frozen=True)
class Rule:
    """One invariant: mutations of *guarded* names need *lock* held."""

    path: str
    lock: str  # attribute name on self, or module-level name
    lock_is_self_attr: bool
    guarded: frozenset[str]  # self attributes / module globals
    guarded_is_self_attr: bool
    scope_class: Optional[str] = None  # restrict to one class body


RULES = [
    Rule(
        path="src/repro/chase/segments.py",
        lock="_lock",
        lock_is_self_attr=True,
        guarded=frozenset(
            {
                "_segments",
                "_aliases",
                "_replays",
                "_replay_count",
                "_total_nodes",
                "_hits",
                "_misses",
                "_recordings",
                "_evictions",
                "_alias_hits",
            }
        ),
        guarded_is_self_attr=True,
        scope_class="SegmentStore",
    ),
    Rule(
        path="src/repro/chase/segments.py",
        lock="_registry_lock",
        lock_is_self_attr=False,
        guarded=frozenset({"_stores"}),
        guarded_is_self_attr=False,
    ),
    Rule(
        path="src/repro/core/answering.py",
        lock="_cache_lock",
        lock_is_self_attr=False,
        guarded=frozenset({"_engine_cache", "_cache_hits", "_cache_misses"}),
        guarded_is_self_attr=False,
    ),
]


def _is_lock_context(node: ast.With, rule: Rule) -> bool:
    """Does this ``with`` statement acquire the rule's lock?"""
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):  # with lock.acquire-style wrappers
            expr = expr.func
        if rule.lock_is_self_attr:
            if (
                isinstance(expr, ast.Attribute)
                and expr.attr == rule.lock
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
            ):
                return True
        else:
            if isinstance(expr, ast.Name) and expr.id == rule.lock:
                return True
    return False


def _guarded_root(expr: ast.AST, rule: Rule) -> Optional[str]:
    """The guarded name at the root of an expression, if any.

    Unwraps subscripts and attribute chains: ``self._segments[k]``,
    ``_engine_cache.move_to_end`` and plain ``_cache_hits`` all resolve to
    their guarded root.
    """
    while isinstance(expr, (ast.Subscript, ast.Attribute)):
        if rule.guarded_is_self_attr and isinstance(expr, ast.Attribute):
            if (
                expr.attr in rule.guarded
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
            ):
                return expr.attr
        expr = expr.value
    if not rule.guarded_is_self_attr and isinstance(expr, ast.Name):
        if expr.id in rule.guarded:
            return expr.id
    return None


def _mutations(node: ast.AST, rule: Rule) -> Iterator[tuple[int, str]]:
    """Yield (lineno, description) for every mutation of guarded state."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            name = _guarded_root(target, rule)
            if name is not None:
                yield node.lineno, f"assignment to {name}"
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            name = _guarded_root(target, rule)
            if name is not None:
                yield node.lineno, f"del on {name}"
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in MUTATING_METHODS:
            name = _guarded_root(node.func.value, rule)
            if name is not None:
                yield node.lineno, f"{name}.{node.func.attr}(...)"


def _docstring_exempts(node: ast.AST) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        doc = ast.get_docstring(node)
        return doc is not None and CALLER_HOLDS_MARKER in doc.lower()
    return False


def _walk(
    node: ast.AST,
    rule: Rule,
    *,
    locked: bool,
    exempt: bool,
    in_scope: bool,
) -> Iterator[tuple[int, str]]:
    """DFS tracking lock context, exemptions and the class scope filter."""
    for child in ast.iter_child_nodes(node):
        child_locked = locked
        child_exempt = exempt
        child_scope = in_scope
        if isinstance(child, ast.ClassDef):
            if rule.scope_class is not None:
                child_scope = child.name == rule.scope_class
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a nested function body does not inherit the lexical lock —
            # it may run later, outside the with block
            child_locked = False
            child_exempt = exempt or child.name == "__init__" or _docstring_exempts(child)
        elif isinstance(child, ast.With) and _is_lock_context(child, rule):
            child_locked = True
        if in_scope and not locked and not exempt:
            # module-level Assign/AnnAssign is the *definition* of the
            # guarded object — no concurrent reader can exist at import time
            defining = isinstance(node, ast.Module) and isinstance(
                child, (ast.Assign, ast.AnnAssign)
            )
            if not defining:
                yield from _mutations(child, rule)
        yield from _walk(
            child,
            rule,
            locked=child_locked,
            exempt=child_exempt,
            in_scope=child_scope,
        )


def check_rule(rule: Rule) -> list[str]:
    path = REPO_ROOT / rule.path
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    findings = []
    initial_scope = rule.scope_class is None
    for lineno, description in _walk(
        tree, rule, locked=False, exempt=False, in_scope=initial_scope
    ):
        findings.append(
            f"{rule.path}:{lineno}: {description} without holding {rule.lock}"
        )
    return sorted(set(findings))


def main() -> int:
    all_findings: list[str] = []
    for rule in RULES:
        all_findings.extend(check_rule(rule))
    if all_findings:
        print("lock-invariant violations:")
        for finding in all_findings:
            print(f"  {finding}")
        return 1
    checked = ", ".join(sorted({rule.path for rule in RULES}))
    print(f"lock invariants hold ({checked})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
