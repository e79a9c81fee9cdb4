"""Query-driven (magic-sets) rewriting for goal-directed WFS query answering.

The subsystem turns the bottom-up reasoner into a goal-directed query engine,
following the query-rewriting line of the ontological-database literature
(Gottlob–Orsi–Pieris; the Vadalog system): instead of grounding from *all*
facts, the query's constants are propagated top-down through the program and
only the reachable slice is ever grounded.

Pipeline (see each module for the details):

* :mod:`repro.rewrite.adornment` — the bound/free adornment pass computing
  the ``(predicate, adornment)`` pairs reachable from a query, plus the
  query-relevant predicate set the chase layer uses for pruning.  Bindings
  pass sideways through rule bodies left to right
  (:func:`~repro.rewrite.adornment.sips_schedule`), with negated literals
  visited last, fully bound;
* :mod:`repro.rewrite.magic` — the magic transformation itself, realised as a
  WFS-sound *grounding-time* restriction: magic guards gate the semi-naive
  grounding and are stripped before the well-founded model is computed, so
  magic atoms never interact with three-valued evaluation.

:class:`repro.core.engine.WellFoundedEngine` wires this into ``holds()`` /
``answer()`` behind the ``rewrite=`` option, with a conservative fallback to
relevance-pruned unrewritten evaluation for program/query pairs outside the
supported fragment (query-relevant existential recursion).
"""

from .adornment import AdornedProgram, Adornment, SIPSStep, adorn, adornment_of
from .magic import (
    MAGIC_PREFIX,
    MagicGrounding,
    MagicPlan,
    ground_magic,
    is_magic_predicate,
    magic_predicate_name,
    rewrite_for_query,
)

__all__ = [
    "Adornment",
    "AdornedProgram",
    "adorn",
    "adornment_of",
    "SIPSStep",
    "MAGIC_PREFIX",
    "MagicGrounding",
    "MagicPlan",
    "ground_magic",
    "is_magic_predicate",
    "magic_predicate_name",
    "rewrite_for_query",
]
