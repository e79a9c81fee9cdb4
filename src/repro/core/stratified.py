"""Stratified Datalog± semantics — the baseline the paper generalises.

Calì, Gottlob & Lukasiewicz ("A general Datalog-based framework for tractable
query answering over ontologies", J. Web Sem. 2012 — reference [1] of the
paper) add *stratified* negation to Datalog±: when the predicate dependency
graph has no negative edge inside a cycle, the canonical model can be built
stratum by stratum, running a (positive) chase per stratum and evaluating the
negated body atoms against the strata already completed (closed world on the
lower strata).

The paper's WFS is designed to coincide with this semantics on stratified
programs while also giving meaning to non-stratified ones.  This module
implements the baseline so that experiment E4 can check the coincidence and
compare cost:

* :class:`StratifiedModel` — the canonical model segment (a set of atoms,
  two-valued / closed world);
* :class:`StratifiedDatalogPM` — stratify, then iterate the Skolem chase per
  stratum up to a term-depth bound.

Like the WFS engine, the chase per stratum is depth-bounded (existential
rules may generate unboundedly deep Skolem terms); the bound is expressed on
the nesting depth of Skolem terms, which corresponds to chase depth.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from ..lang.atoms import Atom
from ..lang.program import Database, DatalogPMProgram
from ..lang.queries import ConjunctiveQuery, NormalBCQ, evaluate_query, query_holds
from ..lang.rules import NormalRule
from ..lang.skolem import skolemize_ntgd
from ..lang.parser import parse_database, parse_program, parse_query
from ..lang.substitution import Substitution, match
from ..lang.terms import Term, term_depth
from ..lp.stratification import stratify

__all__ = ["StratifiedModel", "StratifiedDatalogPM"]


class StratifiedModel:
    """The canonical model of a stratified Datalog± program (finite segment).

    Two-valued: an atom is true iff it was derived, false otherwise (closed
    world), which is the reading of stratified negation.  Implements the
    three-valued protocol so that query evaluation and comparisons with the
    WFS engine work uniformly.
    """

    def __init__(self, atoms: Iterable[Atom], *, depth: int):
        self._atoms = frozenset(atoms)
        self.depth = depth

    def is_true(self, atom: Atom) -> bool:
        """Atom was derived by the stratified chase."""
        return atom in self._atoms

    def is_false(self, atom: Atom) -> bool:
        """Atom was not derived (closed world)."""
        return atom not in self._atoms

    def is_undefined(self, atom: Atom) -> bool:
        """Stratified models are total."""
        return False

    def true_atoms(self) -> frozenset[Atom]:
        """All derived atoms (including atoms with labelled nulls)."""
        return self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __repr__(self) -> str:
        return f"StratifiedModel({len(self._atoms)} atoms, depth={self.depth})"


class StratifiedDatalogPM:
    """Query answering under the stratified (iterated chase) semantics of [1].

    Parameters
    ----------
    program, database:
        As for :class:`~repro.core.engine.WellFoundedEngine`.
    max_term_depth:
        Bound on the nesting depth of Skolem terms generated by the chase;
        plays the role of the chase-depth bound of the WFS engine.

    Raises
    ------
    NotStratifiedError
        If the program's predicate dependency graph has a negative cycle.
    """

    def __init__(
        self,
        program: Union[DatalogPMProgram, str],
        database: Union[Database, Iterable[Atom], str, None] = None,
        *,
        max_term_depth: int = 6,
        max_atoms: int = 500_000,
    ):
        if isinstance(program, str):
            program, parsed_facts = parse_program(program)
        else:
            parsed_facts = None
        if database is None:
            database = Database()
        elif isinstance(database, str):
            database = parse_database(database)
        elif not isinstance(database, Database):
            database = Database(database)
        if parsed_facts is not None:
            database = database.copy()
            database.update(parsed_facts)

        self.program = program
        self.database = database
        self.max_term_depth = max_term_depth
        self.max_atoms = max_atoms
        self.strata = stratify(program)  # raises NotStratifiedError if needed
        self._model: Optional[StratifiedModel] = None

    # -- public API -----------------------------------------------------------------

    def model(self) -> StratifiedModel:
        """The canonical model segment (computed on first use, then cached)."""
        if self._model is None:
            self._model = self._compute()
        return self._model

    def holds(self, query: Union[NormalBCQ, str, Atom]) -> bool:
        """Does the NBCQ (or ground atom) hold in the canonical model?"""
        model = self.model()
        if isinstance(query, str):
            query = parse_query(query)
        if isinstance(query, Atom):
            return model.is_true(query)
        return query_holds(query, model)

    def answer(self, query: ConjunctiveQuery) -> set[tuple[Term, ...]]:
        """Answers to a conjunctive query over the canonical model."""
        return evaluate_query(query, self.model())

    # -- computation --------------------------------------------------------------------

    def _compute(self) -> StratifiedModel:
        """Iterate the Skolem chase stratum by stratum."""
        skolemized: list[tuple[int, NormalRule]] = []
        for index, ntgd in enumerate(self.program):
            rule_id = ntgd.label or f"r{index}"
            stratum = self.strata.get(ntgd.head.predicate, 0)
            skolemized.append((stratum, skolemize_ntgd(ntgd, rule_id)))

        atoms: set[Atom] = set(self.database)
        max_stratum = max((s for s, _ in skolemized), default=0)
        for level in range(max_stratum + 1):
            level_rules = [rule for stratum, rule in skolemized if stratum == level]
            self._saturate(level_rules, atoms)
        return StratifiedModel(atoms, depth=self.max_term_depth)

    def _saturate(self, rules: list[NormalRule], atoms: set[Atom]) -> None:
        """Run the (depth-bounded) chase of one stratum to saturation.

        Negated body atoms are evaluated against the current atom set; by
        stratification they only mention predicates of lower strata, which are
        already complete, so the evaluation is final.
        """
        changed = True
        while changed:
            changed = False
            index = _index_by_predicate(atoms)
            for rule in rules:
                for subst in _match_all(rule.body_pos, index):
                    if any(subst.apply_atom(b) in atoms for b in rule.body_neg):
                        continue
                    head = subst.apply_atom(rule.head)
                    if head in atoms:
                        continue
                    if _atom_term_depth(head) > self.max_term_depth:
                        continue
                    atoms.add(head)
                    changed = True
                    if len(atoms) > self.max_atoms:
                        raise MemoryError(
                            f"stratified chase exceeded the atom budget of {self.max_atoms}"
                        )

    def __repr__(self) -> str:
        return (
            f"StratifiedDatalogPM({len(self.program)} NTGDs, |D|={len(self.database)}, "
            f"max_term_depth={self.max_term_depth})"
        )


def _index_by_predicate(atoms: Iterable[Atom]) -> dict[str, list[Atom]]:
    """Group atoms by predicate for body matching."""
    index: dict[str, list[Atom]] = {}
    for atom in atoms:
        index.setdefault(atom.predicate, []).append(atom)
    return index


def _match_all(patterns, index, subst: Optional[Substitution] = None):
    """Enumerate substitutions matching all pattern atoms against the index."""
    if subst is None:
        subst = Substitution.empty()
    if not patterns:
        yield subst
        return
    first, rest = patterns[0], patterns[1:]
    for candidate in index.get(first.predicate, ()):  # pragma: no branch
        extended = match(first, candidate, subst)
        if extended is not None:
            yield from _match_all(rest, index, extended)


def _atom_term_depth(atom: Atom) -> int:
    """Maximum Skolem-term nesting depth among the atom's arguments."""
    return max((term_depth(arg) for arg in atom.args), default=0)
