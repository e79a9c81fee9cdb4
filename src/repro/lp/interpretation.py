"""Three-valued interpretations (Sec. 2.2 of the paper).

A (three-valued) interpretation w.r.t. a program ``P`` is a *consistent* set
of ground literals ``I ⊆ Lit_P``: an atom may be true (``a ∈ I``), false
(``¬a ∈ I``) or undefined (neither).  :class:`Interpretation` stores the true
and false atoms in two separate sets and enforces consistency.

The class implements the ``ThreeValuedLike`` protocol used by query
evaluation, and offers the set-algebra needed by the fixpoint computations
(union, subset tests, literal iteration).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..exceptions import InconsistentInterpretationError
from ..lang.atoms import Atom, Literal

__all__ = ["Interpretation", "TruthValue"]


class TruthValue:
    """The three truth values, as string constants."""

    TRUE = "true"
    FALSE = "false"
    UNDEFINED = "undefined"


class Interpretation:
    """A consistent set of ground literals, i.e. a three-valued interpretation."""

    __slots__ = ("_true", "_false")

    def __init__(
        self,
        true_atoms: Iterable[Atom] = (),
        false_atoms: Iterable[Atom] = (),
    ):
        self._true: set[Atom] = set(true_atoms)
        self._false: set[Atom] = set(false_atoms)
        overlap = self._true & self._false
        if overlap:
            sample = next(iter(overlap))
            raise InconsistentInterpretationError(
                f"interpretation is inconsistent: {sample} is both true and false"
            )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def empty(cls) -> "Interpretation":
        """The empty interpretation (everything undefined)."""
        return cls()

    @classmethod
    def from_literals(cls, literals: Iterable[Literal]) -> "Interpretation":
        """Build an interpretation from ground literals."""
        true_atoms = []
        false_atoms = []
        for literal in literals:
            if literal.positive:
                true_atoms.append(literal.atom)
            else:
                false_atoms.append(literal.atom)
        return cls(true_atoms, false_atoms)

    def copy(self) -> "Interpretation":
        """An independent copy of the interpretation."""
        return Interpretation(self._true, self._false)

    # -- membership -----------------------------------------------------------

    def is_true(self, atom: Atom) -> bool:
        """``True`` iff the atom is true in the interpretation."""
        return atom in self._true

    def is_false(self, atom: Atom) -> bool:
        """``True`` iff the atom is false in the interpretation."""
        return atom in self._false

    def is_undefined(self, atom: Atom) -> bool:
        """``True`` iff the atom is neither true nor false."""
        return atom not in self._true and atom not in self._false

    def value(self, atom: Atom) -> str:
        """The :class:`TruthValue` of the atom."""
        if atom in self._true:
            return TruthValue.TRUE
        if atom in self._false:
            return TruthValue.FALSE
        return TruthValue.UNDEFINED

    def holds(self, literal: Literal) -> bool:
        """``True`` iff the literal is satisfied (its atom has the right value)."""
        if literal.positive:
            return self.is_true(literal.atom)
        return self.is_false(literal.atom)

    def __contains__(self, literal: Literal) -> bool:
        if not isinstance(literal, Literal):
            return NotImplemented
        return self.holds(literal)

    # -- views -----------------------------------------------------------------

    def true_atoms(self) -> frozenset[Atom]:
        """The set of true atoms."""
        return frozenset(self._true)

    def false_atoms(self) -> frozenset[Atom]:
        """The set of false atoms."""
        return frozenset(self._false)

    def literals(self) -> Iterator[Literal]:
        """Iterate over all literals of the interpretation (positives first)."""
        for atom in self._true:
            yield Literal(atom, True)
        for atom in self._false:
            yield Literal(atom, False)

    def defined_atoms(self) -> frozenset[Atom]:
        """All atoms with a classical (non-undefined) value."""
        return frozenset(self._true | self._false)

    def __len__(self) -> int:
        return len(self._true) + len(self._false)

    def __iter__(self) -> Iterator[Literal]:
        return self.literals()

    # -- mutation ----------------------------------------------------------------

    def add_true(self, atom: Atom) -> None:
        """Mark *atom* as true (raises if it is already false)."""
        if atom in self._false:
            raise InconsistentInterpretationError(f"{atom} is already false")
        self._true.add(atom)

    def add_false(self, atom: Atom) -> None:
        """Mark *atom* as false (raises if it is already true)."""
        if atom in self._true:
            raise InconsistentInterpretationError(f"{atom} is already true")
        self._false.add(atom)

    def add_literal(self, literal: Literal) -> None:
        """Add a ground literal."""
        if literal.positive:
            self.add_true(literal.atom)
        else:
            self.add_false(literal.atom)

    def update(self, other: "Interpretation") -> None:
        """Add every literal of *other* (raises on inconsistency)."""
        conflict = (self._true & other._false) | (self._false & other._true)
        if conflict:
            sample = next(iter(conflict))
            raise InconsistentInterpretationError(
                f"union would be inconsistent on {sample}"
            )
        self._true |= other._true
        self._false |= other._false

    # -- algebra ----------------------------------------------------------------

    def union(self, other: "Interpretation") -> "Interpretation":
        """The union of two interpretations (must be consistent)."""
        result = self.copy()
        result.update(other)
        return result

    def issubset(self, other: "Interpretation") -> bool:
        """Information ordering: every literal of ``self`` is in ``other``."""
        return self._true <= other._true and self._false <= other._false

    def __le__(self, other: "Interpretation") -> bool:
        return self.issubset(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interpretation):
            return NotImplemented
        return self._true == other._true and self._false == other._false

    def __hash__(self) -> int:
        return hash((frozenset(self._true), frozenset(self._false)))

    def is_consistent(self) -> bool:
        """Always ``True`` by construction; present for API symmetry."""
        return not (self._true & self._false)

    def is_total_on(self, atoms: Iterable[Atom]) -> bool:
        """``True`` iff every atom of *atoms* has a classical truth value."""
        return all(not self.is_undefined(a) for a in atoms)

    def restricted_to(self, atoms: Iterable[Atom]) -> "Interpretation":
        """The interpretation restricted to the given atoms."""
        atom_set = set(atoms)
        return Interpretation(self._true & atom_set, self._false & atom_set)

    # -- display -------------------------------------------------------------------

    def __str__(self) -> str:
        trues = sorted(self._true, key=lambda a: a.sort_key())
        falses = sorted(self._false, key=lambda a: a.sort_key())
        parts = [str(a) for a in trues] + [f"not {a}" for a in falses]
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"Interpretation({len(self._true)} true, {len(self._false)} false)"
