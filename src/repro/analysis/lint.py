"""Structural lint rules over normal rules and databases.

Each check emits :class:`~repro.analysis.diagnostics.Diagnostic` instances
with a stable code (see ``CODE_TABLE``); the checks are purely syntactic —
no grounding, no evaluation — so linting a program is always cheap and
side-effect free.  Safety and range restriction are enforced at rule
*construction* time in this codebase (an unsafe rule cannot exist as a
``NormalRule`` value), so the linter reports those as ``E102`` only when it
is handed raw text that fails to parse; everything it checks on live rule
objects is the layer above safety: arity discipline, namespace hygiene,
redundancy (duplicates/subsumption), vacuous bodies, and reachability.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional, Protocol, Sequence

from ..lang.atoms import Atom
from ..lang.program import atom_signature
from ..lang.rules import NormalRule
from ..lang.terms import FunctionTerm, Term, Variable
from ..rewrite.magic import MAGIC_PREFIX
from .diagnostics import Diagnostic

__all__ = ["lint_rules"]


class _QueryLike(Protocol):
    """Anything with a predicate set: ConjunctiveQuery, NormalBCQ, …"""

    def predicates(self) -> set[str]:  # pragma: no cover - protocol
        ...


#: canonical forms produced by :func:`_canonical` — variables replaced by
#: first-occurrence names, so variant rules compare equal
_CanonAtom = tuple[str, tuple[object, ...]]
_CanonRule = tuple[_CanonAtom, tuple[_CanonAtom, ...], tuple[_CanonAtom, ...]]


def lint_rules(
    rules: Sequence[NormalRule],
    *,
    database_atoms: Optional[Iterable[Atom]] = None,
    database_signature: Optional[Collection[tuple[str, int]]] = None,
    queries: Sequence[_QueryLike] = (),
) -> list[Diagnostic]:
    """Run every structural lint rule and return the findings (unordered).

    The EDB, when known, feeds the arity check and enables the reachability
    checks — without a database the analyzer cannot know which predicates
    are extensional, so ``I301``/``I302`` are skipped rather than guessed.
    Both checks read only its ``(predicate, arity)`` pairs: pass them as
    ``database_signature`` (what :meth:`Database.signature` caches), or the
    atoms as ``database_atoms``.  ``queries`` mark predicates as consumed for
    the unused-predicate check.
    """
    rules = list(rules)
    if database_signature is None and database_atoms is not None:
        database_signature = atom_signature(database_atoms)
    findings: list[Diagnostic] = []
    findings += _check_arities(rules, database_signature or ())
    findings += _check_magic_namespace(rules)
    findings += _check_case_collisions(rules)
    findings += _check_duplicates_and_subsumption(rules)
    findings += _check_unsatisfiable_bodies(rules)
    if database_signature is not None:
        findings += _check_reachability(rules, database_signature, queries)
    return findings


# -- arity discipline ---------------------------------------------------------


def _check_arities(
    rules: Sequence[NormalRule], database: Collection[tuple[str, int]]
) -> list[Diagnostic]:
    """E101: one predicate, two arities — almost always a typo."""
    seen: dict[str, dict[int, str]] = {}
    findings: list[Diagnostic] = []
    reported: set[str] = set()
    for index, rule in enumerate(rules):
        for atom in rule.atoms():
            where = f"rule {index}"
            _record_arity(
                atom.predicate, atom.arity, where, seen, reported, findings, rule_index=index
            )
    for predicate, arity in sorted(database):
        _record_arity(predicate, arity, "database", seen, reported, findings, rule_index=None)
    return findings


def _record_arity(
    predicate: str,
    arity: int,
    where: str,
    seen: dict[str, dict[int, str]],
    reported: set[str],
    findings: list[Diagnostic],
    *,
    rule_index: Optional[int],
) -> None:
    arities = seen.setdefault(predicate, {})
    arities.setdefault(arity, where)
    if len(arities) > 1 and predicate not in reported:
        reported.add(predicate)
        described = ", ".join(
            f"arity {used} ({first})" for used, first in sorted(arities.items())
        )
        findings.append(
            Diagnostic(
                "E101",
                f"predicate {predicate} is used with inconsistent arities: "
                f"{described}",
                rule_index=rule_index,
                predicate=predicate,
            )
        )


# -- namespace hygiene --------------------------------------------------------


def _check_magic_namespace(rules: Sequence[NormalRule]) -> list[Diagnostic]:
    """W201: user predicates inside the reserved magic-rewrite namespace."""
    findings: list[Diagnostic] = []
    flagged: set[str] = set()
    for index, rule in enumerate(rules):
        for atom in rule.atoms():
            if atom.predicate.startswith(MAGIC_PREFIX) and atom.predicate not in flagged:
                flagged.add(atom.predicate)
                findings.append(
                    Diagnostic(
                        "W201",
                        f"predicate {atom.predicate} collides with the reserved "
                        f"{MAGIC_PREFIX!r} namespace; magic-set rewriting is "
                        "disabled for programs using it",
                        rule_index=index,
                        rule=str(rule),
                        predicate=atom.predicate,
                    )
                )
    return findings


def _check_case_collisions(rules: Sequence[NormalRule]) -> list[Diagnostic]:
    """W205: two predicates that differ only by case (likely a typo)."""
    by_folded: dict[str, set[str]] = {}
    for rule in rules:
        for atom in rule.atoms():
            by_folded.setdefault(atom.predicate.lower(), set()).add(atom.predicate)
    findings: list[Diagnostic] = []
    for names in by_folded.values():
        if len(names) > 1:
            ordered = sorted(names)
            findings.append(
                Diagnostic(
                    "W205",
                    "predicate names differ only by case: " + ", ".join(ordered),
                    predicate=ordered[0],
                )
            )
    return findings


# -- redundancy ---------------------------------------------------------------


def _canonical(rule: NormalRule) -> _CanonRule:
    """The rule with variables renamed by first occurrence (variant-invariant).

    Two rules that are syntactic variants (equal up to a consistent variable
    renaming that preserves occurrence order) canonicalise identically, which
    is what the duplicate and subsumption checks compare.  This is a linter's
    approximation of θ-subsumption, not a decision procedure — it trades
    completeness for predictability.
    """
    mapping: dict[Variable, str] = {}

    def canon_term(term: Term) -> object:
        if isinstance(term, Variable):
            if term not in mapping:
                mapping[term] = f"V{len(mapping)}"
            return mapping[term]
        if isinstance(term, FunctionTerm):
            return (term.function, tuple(canon_term(a) for a in term.args))
        return term

    def canon_atom(atom: Atom) -> _CanonAtom:
        return (atom.predicate, tuple(canon_term(a) for a in atom.args))

    head = canon_atom(rule.head)
    body_pos = tuple(canon_atom(a) for a in rule.body_pos)
    body_neg = tuple(canon_atom(a) for a in rule.body_neg)
    return (head, body_pos, body_neg)


def _check_duplicates_and_subsumption(
    rules: Sequence[NormalRule],
) -> list[Diagnostic]:
    """W202 exact/variant duplicates; W203 body-superset subsumption."""
    findings: list[Diagnostic] = []
    canonical = [_canonical(rule) for rule in rules]
    seen: dict[_CanonRule, int] = {}
    for index, key in enumerate(canonical):
        if key in seen:
            findings.append(
                Diagnostic(
                    "W202",
                    f"rule duplicates rule {seen[key]}",
                    rule_index=index,
                    rule=str(rules[index]),
                )
            )
        else:
            seen[key] = index
    # Subsumption: same canonical head, body a strict subset → the wider rule
    # can never contribute an atom the narrower one does not already derive.
    for i, (head_i, pos_i, neg_i) in enumerate(canonical):
        for j, (head_j, pos_j, neg_j) in enumerate(canonical):
            if i == j or head_i != head_j:
                continue
            if canonical[i] == canonical[j]:
                continue  # duplicates already reported
            if set(pos_i) <= set(pos_j) and set(neg_i) <= set(neg_j):
                findings.append(
                    Diagnostic(
                        "W203",
                        f"rule is subsumed by rule {i} (same head, body superset)",
                        rule_index=j,
                        rule=str(rules[j]),
                    )
                )
    return findings


def _check_unsatisfiable_bodies(rules: Sequence[NormalRule]) -> list[Diagnostic]:
    """W204: an atom required both positively and negatively can never hold."""
    findings: list[Diagnostic] = []
    for index, rule in enumerate(rules):
        clash = set(rule.body_pos) & set(rule.body_neg)
        if clash:
            atom = sorted(clash, key=str)[0]
            findings.append(
                Diagnostic(
                    "W204",
                    f"body requires {atom} both positively and under negation; "
                    "the rule can never fire",
                    rule_index=index,
                    rule=str(rule),
                    predicate=atom.predicate,
                )
            )
    return findings


# -- reachability -------------------------------------------------------------


def _check_reachability(
    rules: Sequence[NormalRule],
    database: Collection[tuple[str, int]],
    queries: Sequence[_QueryLike],
) -> list[Diagnostic]:
    """I301 sourceless body predicates; I302 derived-but-never-consumed.

    Both are informational: facts can legitimately arrive after analysis
    (view maintenance) and "unused" heads are often the program's outputs
    when no query is supplied.
    """
    heads = {rule.head.predicate for rule in rules}
    edb = {predicate for predicate, _ in database}
    consumed: set[str] = set()
    for query in queries:
        consumed.update(query.predicates())
    body_predicates: dict[str, int] = {}
    for index, rule in enumerate(rules):
        for atom in list(rule.body_pos) + list(rule.body_neg):
            body_predicates.setdefault(atom.predicate, index)
    findings: list[Diagnostic] = []
    for predicate, index in sorted(body_predicates.items()):
        if predicate not in heads and predicate not in edb:
            findings.append(
                Diagnostic(
                    "I301",
                    f"body predicate {predicate} has no rule deriving it and no "
                    "facts in the database; rules using it cannot fire until "
                    "facts arrive",
                    rule_index=index,
                    predicate=predicate,
                )
            )
    for predicate in sorted(heads):
        if predicate not in body_predicates and predicate not in consumed:
            findings.append(
                Diagnostic(
                    "I302",
                    f"derived predicate {predicate} is never consumed by a body "
                    "or query (it may be the program's output)",
                    predicate=predicate,
                )
            )
    return findings
