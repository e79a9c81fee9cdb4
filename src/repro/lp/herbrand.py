"""Herbrand universe and Herbrand base (Sec. 2.2 of the paper).

For a normal program ``P`` the Herbrand universe ``HU_P`` is the set of all
ground terms built from the constants and function symbols of ``P`` (if ``P``
has no constant, an arbitrary one is used), and the Herbrand base ``HB_P`` is
the set of all ground atoms over the program's predicates and ``HU_P``.

With function symbols both sets are infinite; this module therefore exposes
*depth-bounded* enumerations: all terms of functional nesting depth at most
``max_depth`` and all atoms over them.  The classical WFS substrate only needs
the full sets for function-free programs (depth 0), while the Datalog± engine
never materialises a Herbrand base at all (it works on the chase forest); the
bounded enumerations are mainly useful for tests, for the brute-force
stable-model checker and for didactic exploration.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from ..exceptions import GroundingError
from ..lang.atoms import Atom
from ..lang.program import NormalProgram, Schema
from ..lang.terms import Constant, FunctionTerm, Term

__all__ = ["herbrand_universe", "herbrand_base", "program_signature"]

#: Constant used when a program mentions no constant at all (the paper allows
#: picking an arbitrary constant from the vocabulary in that case).
DEFAULT_CONSTANT = Constant("c0")


def program_signature(
    program: NormalProgram,
) -> tuple[set[Constant], set[tuple[str, int]], Schema]:
    """Return ``(constants, function_symbols, schema)`` of a normal program."""
    constants = program.constants()
    functions = program.function_symbols()
    schema = program.schema()
    return constants, functions, schema


def herbrand_universe(
    constants: Iterable[Constant],
    function_symbols: Iterable[tuple[str, int]] = (),
    max_depth: int = 0,
) -> set[Term]:
    """The set of ground terms of nesting depth ≤ ``max_depth``.

    Depth 0 terms are the constants; depth ``k+1`` terms additionally contain
    every application of a function symbol to depth-``≤ k`` terms.  If no
    constant is given, :data:`DEFAULT_CONSTANT` is used, matching the paper's
    convention of picking an arbitrary constant.

    Raises
    ------
    GroundingError
        If ``max_depth`` is negative.
    """
    if max_depth < 0:
        raise GroundingError("max_depth must be non-negative")
    current: set[Term] = set(constants)
    if not current:
        current = {DEFAULT_CONSTANT}
    functions = list(function_symbols)
    universe: set[Term] = set(current)
    previous_layer: set[Term] = set(current)
    for _ in range(max_depth):
        new_layer: set[Term] = set()
        for name, arity in functions:
            if arity == 0:
                candidate = FunctionTerm(name, ())
                if candidate not in universe:
                    new_layer.add(candidate)
                continue
            for combo in itertools.product(universe, repeat=arity):
                # at least one argument must come from the previous layer to
                # actually increase the depth; otherwise we re-create old terms.
                candidate = FunctionTerm(name, combo)
                if candidate not in universe:
                    new_layer.add(candidate)
        if not new_layer:
            break
        universe |= new_layer
        previous_layer = new_layer
    return universe


def herbrand_base(
    schema: Schema,
    terms: Iterable[Term],
    *,
    max_atoms: Optional[int] = None,
) -> set[Atom]:
    """All ground atoms over the schema's predicates and the given terms.

    Parameters
    ----------
    schema:
        The relational schema (predicate names and arities).
    terms:
        The ground terms available as arguments.
    max_atoms:
        Optional safety valve: raise :class:`GroundingError` if the base would
        exceed this many atoms (the base grows as ``Σ_P |terms|^{arity(P)}``).
    """
    term_list = list(terms)
    total = sum(len(term_list) ** schema.arity(p) for p in schema)
    if max_atoms is not None and total > max_atoms:
        raise GroundingError(
            f"Herbrand base would contain {total} atoms, exceeding the limit of {max_atoms}"
        )
    base: set[Atom] = set()
    for predicate in schema:
        arity = schema.arity(predicate)
        if arity == 0:
            base.add(Atom(predicate, ()))
            continue
        for combo in itertools.product(term_list, repeat=arity):
            base.add(Atom(predicate, combo))
    return base


def herbrand_base_of_program(
    program: NormalProgram,
    *,
    max_depth: int = 0,
    max_atoms: Optional[int] = None,
) -> set[Atom]:
    """Depth-bounded Herbrand base of a normal program.

    Convenience wrapper combining :func:`program_signature`,
    :func:`herbrand_universe` and :func:`herbrand_base`.
    """
    constants, functions, schema = program_signature(program)
    universe = herbrand_universe(constants, functions, max_depth=max_depth)
    return herbrand_base(schema, universe, max_atoms=max_atoms)
