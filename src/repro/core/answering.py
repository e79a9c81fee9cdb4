"""Convenience entry points for NBCQ answering under WFS(D, Σ) (Theorem 14).

These module-level functions wrap :class:`~repro.core.engine.WellFoundedEngine`
for one-shot use: each call builds a fresh engine over the program and the
database as they are at the call, answers one query and drops the engine.
Nothing is cached between calls, so a mutated database is never answered
from a stale engine.  A caller with several questions against one (D, Σ)
should build a :class:`WellFoundedEngine` and ask it each one: the engine
keeps its model (finite grounding or chase segment) and rule index between
queries.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from ..lang.atoms import Atom, Literal
from ..lang.program import Database, DatalogPMProgram
from ..lang.queries import ConjunctiveQuery, NormalBCQ
from ..lang.terms import Constant, Term
from .engine import DatalogWellFoundedModel, WellFoundedEngine

__all__ = [
    "holds_under_wfs",
    "answer_query",
    "certain_answers",
]


def clear_engine_cache() -> None:
    """Do nothing: the one-shot helpers keep no engines between calls.

    Kept only because the end-to-end benchmark's cold-answer workload still
    calls it before every operation; it goes once that call does.
    """


def holds_under_wfs(
    program: Union[DatalogPMProgram, str],
    database: Union[Database, Iterable[Atom], str, None],
    query: Union[NormalBCQ, Literal, Atom, str],
    *,
    rewrite: Optional[bool] = None,
    **engine_options,
) -> bool:
    """Decide ``WFS(D, Σ) |= Q`` for an NBCQ (or ground literal/atom) Q.

    ``engine_options`` are forwarded to :class:`WellFoundedEngine` (depth
    schedule, strictness, ...); ``rewrite`` selects the goal-directed
    magic-sets query path (see :meth:`WellFoundedEngine.holds`).
    """
    engine = WellFoundedEngine(program, database, **engine_options)
    return engine.holds(query, rewrite=rewrite)


def answer_query(
    program: Union[DatalogPMProgram, str],
    database: Union[Database, Iterable[Atom], str, None],
    query: Union[NormalBCQ, ConjunctiveQuery, str],
    *,
    constants_only: bool = True,
    rewrite: Optional[bool] = None,
    **engine_options,
) -> set[tuple[Term, ...]]:
    """All answers to a (non-Boolean) conjunctive query over WFS(D, Σ)."""
    engine = WellFoundedEngine(program, database, **engine_options)
    return engine.answer(query, constants_only=constants_only, rewrite=rewrite)


def certain_answers(
    model: DatalogWellFoundedModel,
    query: ConjunctiveQuery,
) -> set[tuple[Constant, ...]]:
    """Answers to *query* over an already-computed model, restricted to constants.

    The paper defines CQ answers as tuples over ``Δ``; tuples containing
    labelled nulls are therefore filtered out here.
    """
    from ..lang.queries import evaluate_query

    answers = evaluate_query(query, model)
    return {
        tup for tup in answers if all(isinstance(t, Constant) for t in tup)
    }
