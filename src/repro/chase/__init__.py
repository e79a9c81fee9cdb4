"""Guarded chase substrate: chase forests, atom types and the chase engine.

Implements Sec. 2.5 of the paper (guarded chase forests ``F(P)`` / ``F⁺(P)``,
derivation levels) plus the type/isomorphism machinery of Sec. 3 that the
locality results are built on.
"""

from .engine import GuardedChaseEngine, chase_forest
from .forest import ChaseForest, ChaseNode
from .types import (
    AtomType,
    are_x_isomorphic,
    canonical_type_key,
    max_type_count,
    x_isomorphism,
)

__all__ = [
    "GuardedChaseEngine",
    "chase_forest",
    "ChaseForest",
    "ChaseNode",
    "AtomType",
    "are_x_isomorphic",
    "canonical_type_key",
    "max_type_count",
    "x_isomorphism",
]
