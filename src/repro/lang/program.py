"""Databases, schemas and programs (Sec. 2.1, 2.2, 2.4).

* :class:`Database` — a finite set of ground atoms whose arguments are
  constants (the paper's database instances ``D``).
* :class:`Schema` — the relational schema ``R``: predicate names with arities,
  derived from programs/databases or given explicitly.  Needed for the
  locality bound δ of Prop. 12 and for workload generation.
* :class:`NormalProgram` — a finite set of :class:`~repro.lang.rules.NormalRule`
  (a normal logic program, Sec. 2.2).
* :class:`DatalogPMProgram` — a finite set of :class:`~repro.lang.rules.NTGD`
  (a (guarded) normal Datalog± program, Sec. 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, TypeVar, cast

from ..exceptions import IllFormedRuleError, NotGuardedError
from .atoms import Atom
from .rules import NTGD, NormalRule
from .terms import Constant, FunctionTerm, Term

__all__ = ["Database", "Schema", "NormalProgram", "DatalogPMProgram", "atom_signature"]

_Snapshot = TypeVar("_Snapshot")


def atom_signature(atoms: Iterable[Atom]) -> frozenset[tuple[str, int]]:
    """The ``(predicate, arity)`` pairs occurring in *atoms*."""
    return frozenset((atom.predicate, len(atom.args)) for atom in atoms)


class Database:
    """A database instance: a finite set of ground atoms over constants.

    The class behaves like a read-mostly set of :class:`~repro.lang.atoms.Atom`
    with predicate-indexed access.  Atoms must be ground; by default they must
    also be null-free (databases range over ``Δ`` only), but the check can be
    relaxed for intermediate instances produced by the chase.

    Two views derived from the atoms are cached on the instance and rebuilt
    only after a mutation bumps :attr:`version`: the ``(predicate, arity)``
    :meth:`signature` the analyzer's lints read, and the slot behind
    :meth:`snapshot`, which holds the columnar snapshot
    (:class:`repro.lp.columnar.EDBSnapshot`) every goal-directed engine over
    this instance grounds from.  The snapshot builds its relations and their
    hash indexes lazily and keeps them; it serialises its own builds, so
    engines on several threads may share one instance.
    """

    def __init__(self, atoms: Iterable[Atom] = (), *, allow_nulls: bool = False):
        self._atoms: set[Atom] = set()
        self._by_predicate: dict[str, set[Atom]] = {}
        self._allow_nulls = allow_nulls
        #: monotone mutation counter: bumped on every effective add/remove,
        #: so caches can fingerprint the instance (``len`` alone cannot — an
        #: add followed by a remove lands back on the same size)
        self._version = 0
        #: ``(version, value)`` of the cached signature and snapshot
        self._signature: Optional[tuple[int, frozenset[tuple[str, int]]]] = None
        self._snapshot: Optional[tuple[int, object]] = None
        for atom in atoms:
            self.add(atom)

    # -- mutation -------------------------------------------------------------

    def add(self, atom: Atom) -> None:
        """Add a ground atom to the database.

        Raises
        ------
        IllFormedRuleError
            If the atom is not ground, or contains a null while nulls are not
            allowed for this instance.
        """
        if not atom.is_ground():
            raise IllFormedRuleError(f"database atoms must be ground, got {atom}")
        if not self._allow_nulls:
            for arg in atom.args:
                if isinstance(arg, FunctionTerm):
                    raise IllFormedRuleError(
                        f"database atoms must be over constants only, got {atom}"
                    )
        if atom not in self._atoms:
            self._atoms.add(atom)
            self._by_predicate.setdefault(atom.predicate, set()).add(atom)
            self._version += 1

    def update(self, atoms: Iterable[Atom]) -> None:
        """Add every atom of *atoms*."""
        for atom in atoms:
            self.add(atom)

    def remove(self, atom: Atom) -> None:
        """Remove an atom from the database.

        Raises
        ------
        KeyError
            If the atom is not in the database (use :meth:`discard` for the
            tolerant variant).
        """
        if atom not in self._atoms:
            raise KeyError(atom)
        self.discard(atom)

    def discard(self, atom: Atom) -> bool:
        """Remove *atom* if present; return ``True`` iff it was removed."""
        if atom not in self._atoms:
            return False
        self._atoms.discard(atom)
        bucket = self._by_predicate.get(atom.predicate)
        if bucket is not None:
            bucket.discard(atom)
            if not bucket:
                del self._by_predicate[atom.predicate]
        self._version += 1
        return True

    @property
    def version(self) -> int:
        """The mutation counter: distinct after every effective add/remove."""
        return self._version

    def signature(self) -> frozenset[tuple[str, int]]:
        """The ``(predicate, arity)`` pairs of the atoms, built once per version.

        The atoms are copied in one step before they are read, so a
        mutation on another thread cannot break the iteration; the version
        is read first, so a signature that saw such a mutation is filed
        under a version no later request matches.
        """
        version, cached = self._version, self._signature
        if cached is None or cached[0] != version:
            cached = (version, atom_signature(tuple(self._atoms)))
            self._signature = cached
        return cached[1]

    def snapshot(self, build: Callable[["Database"], _Snapshot]) -> _Snapshot:
        """The derived snapshot of the current version, made by *build* on first request.

        The database only holds the slot: *build* (the columnar layer's
        snapshot constructor) is called with this instance at most once per
        :attr:`version`, and every later request of the same version returns
        the same object.
        """
        version, cached = self._version, self._snapshot
        if cached is None or cached[0] != version:
            cached = (version, build(self))
            self._snapshot = cached
        return cast(_Snapshot, cached[1])

    # -- set-like access ---------------------------------------------------------

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Database):
            return self._atoms == other._atoms
        if isinstance(other, (set, frozenset)):
            return self._atoms == other
        return NotImplemented

    def atoms(self) -> frozenset[Atom]:
        """All atoms of the database as a frozen set."""
        return frozenset(self._atoms)

    def with_predicate(self, predicate: str) -> frozenset[Atom]:
        """All atoms of the database with the given predicate."""
        return frozenset(self._by_predicate.get(predicate, ()))

    def predicates(self) -> set[str]:
        """All predicate names occurring in the database."""
        return set(self._by_predicate)

    def constants(self) -> set[Constant]:
        """The active domain of the database (constants occurring in atoms)."""
        result: set[Constant] = set()
        for atom in self._atoms:
            for arg in atom.args:
                if isinstance(arg, Constant):
                    result.add(arg)
        return result

    def copy(self) -> "Database":
        """A shallow copy of the database."""
        return Database(self._atoms, allow_nulls=self._allow_nulls)

    def __str__(self) -> str:
        listed = sorted(self._atoms, key=lambda a: a.sort_key())
        return "{" + ", ".join(str(a) for a in listed) + "}"

    def __repr__(self) -> str:
        return f"Database({len(self._atoms)} atoms)"


@dataclass(frozen=True)
class Schema:
    """A relational schema ``R``: a mapping of predicate names to arities."""

    arities: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "arities", dict(self.arities))

    # -- derivation ------------------------------------------------------------

    @classmethod
    def from_atoms(cls, atoms: Iterable[Atom]) -> "Schema":
        """Infer a schema from a collection of atoms."""
        arities: dict[str, int] = {}
        for atom in atoms:
            existing = arities.get(atom.predicate)
            if existing is not None and existing != atom.arity:
                raise IllFormedRuleError(
                    f"predicate {atom.predicate} used with arities {existing} and {atom.arity}"
                )
            arities[atom.predicate] = atom.arity
        return cls(arities)

    @classmethod
    def from_program_and_database(
        cls,
        program: "DatalogPMProgram | NormalProgram",
        database: Optional[Iterable[Atom]] = None,
    ) -> "Schema":
        """Infer a schema from all atoms of a program and (optionally) a database."""
        atoms: list[Atom] = []
        for rule in program:
            if isinstance(rule, NormalRule):
                atoms.extend(rule.atoms())
            else:
                atoms.extend((rule.head, *rule.body_pos, *rule.body_neg))
        if database is not None:
            atoms.extend(database)
        return cls.from_atoms(atoms)

    # -- access ------------------------------------------------------------------

    def __contains__(self, predicate: str) -> bool:
        return predicate in self.arities

    def __len__(self) -> int:
        return len(self.arities)

    def __iter__(self) -> Iterator[str]:
        return iter(self.arities)

    def arity(self, predicate: str) -> int:
        """Arity of *predicate* (raises ``KeyError`` if unknown)."""
        return self.arities[predicate]

    def max_arity(self) -> int:
        """The maximum arity ``w`` over all predicates (0 for an empty schema)."""
        return max(self.arities.values(), default=0)

    def predicates(self) -> set[str]:
        """The set of predicate names."""
        return set(self.arities)

    def __str__(self) -> str:
        inner = ", ".join(f"{p}/{a}" for p, a in sorted(self.arities.items()))
        return "{" + inner + "}"


class NormalProgram:
    """A normal logic program: a finite set of :class:`NormalRule` (Sec. 2.2)."""

    def __init__(self, rules: Iterable[NormalRule] = ()):
        self._rules: list[NormalRule] = []
        self._seen: set[NormalRule] = set()
        for rule in rules:
            self.add(rule)

    def add(self, rule: NormalRule) -> None:
        """Add a rule (duplicates are silently ignored)."""
        if rule not in self._seen:
            self._seen.add(rule)
            self._rules.append(rule)

    def __iter__(self) -> Iterator[NormalRule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule: NormalRule) -> bool:
        return rule in self._seen

    def rules(self) -> tuple[NormalRule, ...]:
        """The rules in insertion order."""
        return tuple(self._rules)

    def facts(self) -> list[NormalRule]:
        """The rules with empty bodies."""
        return [r for r in self._rules if r.is_fact()]

    def proper_rules(self) -> list[NormalRule]:
        """The rules with non-empty bodies."""
        return [r for r in self._rules if not r.is_fact()]

    def is_positive(self) -> bool:
        """``True`` iff no rule has a negated body atom."""
        return all(r.is_positive() for r in self._rules)

    def positive_part(self) -> "NormalProgram":
        """The program ``P⁺`` obtained by deleting all negative body literals."""
        return NormalProgram(r.positive_part() for r in self._rules)

    def predicates(self) -> set[str]:
        """All predicate names occurring in the program."""
        result: set[str] = set()
        for rule in self._rules:
            result.update(rule.predicates())
        return result

    def constants(self) -> set[Constant]:
        """All constants occurring in the program (inside any rule atom)."""
        result: set[Constant] = set()
        for rule in self._rules:
            for atom in rule.atoms():
                for arg in atom.args:
                    result.update(_constants_in_term(arg))
        return result

    def function_symbols(self) -> set[tuple[str, int]]:
        """All function symbols (name, arity) occurring in the program."""
        result: set[tuple[str, int]] = set()
        for rule in self._rules:
            for atom in rule.atoms():
                for arg in atom.args:
                    result.update(_functions_in_term(arg))
        return result

    def schema(self) -> Schema:
        """The schema inferred from the program's atoms."""
        return Schema.from_program_and_database(self)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self._rules)

    def __repr__(self) -> str:
        return f"NormalProgram({len(self._rules)} rules)"


class DatalogPMProgram:
    """A (normal) Datalog± program: a finite set of :class:`NTGD` (Sec. 2.4)."""

    def __init__(self, ntgds: Iterable[NTGD] = ()):
        self._ntgds: list[NTGD] = []
        self._seen: set[NTGD] = set()
        for ntgd in ntgds:
            self.add(ntgd)

    def add(self, ntgd: NTGD) -> None:
        """Add an NTGD (duplicates are silently ignored)."""
        if ntgd not in self._seen:
            self._seen.add(ntgd)
            self._ntgds.append(ntgd)

    def __iter__(self) -> Iterator[NTGD]:
        return iter(self._ntgds)

    def __len__(self) -> int:
        return len(self._ntgds)

    def __contains__(self, ntgd: NTGD) -> bool:
        return ntgd in self._seen

    def rules(self) -> tuple[NTGD, ...]:
        """The NTGDs in insertion order."""
        return tuple(self._ntgds)

    def is_positive(self) -> bool:
        """``True`` iff no NTGD has a negated body atom."""
        return all(r.is_positive() for r in self._ntgds)

    def is_guarded(self) -> bool:
        """``True`` iff every NTGD of the program is guarded."""
        return all(r.is_guarded() for r in self._ntgds)

    def require_guarded(self) -> None:
        """Raise :class:`NotGuardedError` unless every NTGD is guarded."""
        for ntgd in self._ntgds:
            if not ntgd.is_guarded():
                raise NotGuardedError(f"program contains the unguarded NTGD {ntgd}")

    def positive_part(self) -> "DatalogPMProgram":
        """The program Σ⁺ obtained by deleting all negated body atoms."""
        return DatalogPMProgram(r.positive_part() for r in self._ntgds)

    def predicates(self) -> set[str]:
        """All predicate names occurring in the program."""
        result: set[str] = set()
        for ntgd in self._ntgds:
            result.update(ntgd.predicates())
        return result

    def schema(self, database: Optional[Iterable[Atom]] = None) -> Schema:
        """The schema inferred from the program (and optionally a database)."""
        return Schema.from_program_and_database(self, database)

    def max_arity(self) -> int:
        """Maximum predicate arity across the program (the paper's ``w``)."""
        return max((r.max_arity() for r in self._ntgds), default=0)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self._ntgds)

    def __repr__(self) -> str:
        return f"DatalogPMProgram({len(self._ntgds)} NTGDs)"


def _constants_in_term(term: Term) -> set[Constant]:
    """Constants occurring anywhere inside *term*."""
    if isinstance(term, Constant):
        return {term}
    if isinstance(term, FunctionTerm):
        result: set[Constant] = set()
        for arg in term.args:
            result.update(_constants_in_term(arg))
        return result
    return set()


def _functions_in_term(term: Term) -> set[tuple[str, int]]:
    """Function symbols (name, arity) occurring anywhere inside *term*."""
    if isinstance(term, FunctionTerm):
        result = {(term.function, len(term.args))}
        for arg in term.args:
            result.update(_functions_in_term(arg))
        return result
    return set()
