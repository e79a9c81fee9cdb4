"""Stable-model (answer-set) semantics for finite ground normal programs.

The paper remarks that the WFS "approximates the answer set semantics": every
well-founded atom is true in every stable model and every unfounded atom is
false in every stable model.  This module provides a small, exact stable-model
facility so the test-suite can check that property on concrete programs:

* :func:`is_stable_model` — test whether a candidate atom set is a stable
  model (least model of its Gelfond–Lifschitz reduct);
* :func:`stable_models` — enumerate all stable models by search over the
  undefined atoms (exponential in the worst case, intended for the small
  programs used in tests and ablation benchmarks only).

The search is pruned with the well-founded model: true atoms must be in, false
atoms must be out, which is exactly the approximation property being validated.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from ..lang.atoms import Atom
from .grounding import GroundProgram
from .wfs import well_founded_model

__all__ = ["is_stable_model", "stable_models"]


def is_stable_model(program: GroundProgram, candidate: Iterable[Atom]) -> bool:
    """Is *candidate* a stable model of the ground program?

    ``M`` is stable iff ``M`` equals the least model of the reduct ``P^M``,
    computed as one ``Γ`` propagation on the program's rule index (the reduct
    is represented by blocking rules, never materialised).
    """
    candidate_set = set(candidate)
    return program.index().gamma(candidate_set) == candidate_set


def stable_models(
    program: GroundProgram,
    *,
    max_undefined: int = 25,
    use_wfs_pruning: bool = True,
) -> Iterator[set[Atom]]:
    """Enumerate the stable models of a finite ground normal program.

    The search space is the power set of the atoms left *undefined* by the
    well-founded model (when pruning is on): by the classical approximation
    theorem every stable model contains all well-founded atoms and no
    unfounded atom, so only undefined atoms need to be guessed.

    Parameters
    ----------
    program:
        The finite ground program.
    max_undefined:
        Guard against accidental exponential blow-ups: if more than this many
        atoms are undefined a ``ValueError`` is raised (2^25 candidate sets is
        already far beyond what the tests need).
    use_wfs_pruning:
        When ``False``, search over all atoms of the relevant universe instead
        (used by tests to confirm the pruned and unpruned enumerations agree).
    """
    universe = sorted(program.atoms(), key=lambda a: a.sort_key())
    if use_wfs_pruning:
        wfm = well_founded_model(program)
        fixed_true = [a for a in universe if wfm.is_true(a)]
        guessable = [a for a in universe if wfm.is_undefined(a)]
    else:
        fixed_true = []
        guessable = list(universe)

    if len(guessable) > max_undefined:
        raise ValueError(
            f"{len(guessable)} atoms would need to be guessed, exceeding max_undefined={max_undefined}"
        )

    seen: set[frozenset[Atom]] = set()
    for bits in itertools.product((False, True), repeat=len(guessable)):
        candidate = set(fixed_true)
        candidate.update(a for a, chosen in zip(guessable, bits) if chosen)
        frozen = frozenset(candidate)
        if frozen in seen:
            continue
        if is_stable_model(program, candidate):
            seen.add(frozen)
            yield candidate
