"""Locality: the depth bound δ of Proposition 12.

Prop. 12 states: for a schema ``R`` with maximum arity ``w``, let

    δ := 2 · |R| · (2w)^w · 2^{|R| · (2w)^w}

Then, if an NBCQ ``Q`` with ``n`` literals holds in ``WFS(D ∪ Σ^f)``, there is
a homomorphism μ witnessing this such that every positive query atom is
matched at depth at most ``n·δ`` of ``F*(P)``, and every negative query atom
is either absent from ``F⁺(P)`` altogether or matched at depth at most
``n·δ``.

The bound is *doubly exponential* in the arity and exponential in the schema
size — astronomically large even for toy schemas — so the practical engine
(:mod:`repro.core.engine`) uses a type-repetition convergence test instead and
treats δ only as the worst-case guarantee.  This module exposes the bound and
a couple of helpers so the locality experiment (E6,
``benchmarks/bench_locality.py``) can compare
the depth at which answers *actually* stabilise with the theoretical bound.
"""

from __future__ import annotations

from typing import Union

from ..lang.program import Database, DatalogPMProgram, Schema
from ..lang.queries import NormalBCQ
from ..chase.types import max_type_count

__all__ = ["delta_bound", "query_depth_bound", "type_count_bound"]


def type_count_bound(schema: Schema) -> int:
    """The number of non-isomorphic types used in the proof of Prop. 12.

    This is ``|R| · (2w)^w · 2^{|R| · (2w)^w}`` — half of δ.
    """
    return max_type_count(len(schema), schema.max_arity())


def delta_bound(schema: Union[Schema, DatalogPMProgram]) -> int:
    """The constant δ of Prop. 12 for the given schema (or program).

    ``δ = 2 · |R| · (2w)^w · 2^{|R|·(2w)^w}`` where ``w`` is the maximum
    predicate arity of the schema.  Accepts a :class:`DatalogPMProgram` for
    convenience, in which case the schema is inferred from the program.
    """
    if isinstance(schema, DatalogPMProgram):
        schema = schema.schema()
    return 2 * type_count_bound(schema)


def query_depth_bound(
    query: NormalBCQ,
    schema: Union[Schema, DatalogPMProgram],
) -> int:
    """The depth bound ``n · δ`` of Prop. 12 for a concrete query.

    ``n`` is the number of literals of the query.  Any query match that exists
    at all exists within this depth of the chase forest; the engine's
    convergence test typically stops orders of magnitude earlier.
    """
    return query.size() * delta_bound(schema)
