"""The paper's contribution: WFS for guarded normal Datalog± under the UNA.

* :class:`WellFoundedEngine` / :class:`DatalogWellFoundedModel` — Definition 3
  made executable (chase segment + exact finite WFS + locality-based
  stabilisation).
* :mod:`repro.core.forward_proof` — forward proofs and the Ŵ_P operator
  (Definitions 5/7, Theorem 8).
* :mod:`repro.core.wcheck` — path-based literal membership (the WCHECK idea of
  Sec. 4).
* :mod:`repro.core.answering` — one-shot NBCQ answering helpers (Theorem 14).
* :mod:`repro.core.locality` — the δ bound of Prop. 12.
* :mod:`repro.core.stratified` — the stratified Datalog± baseline of [1].
"""

from .answering import answer_query, certain_answers, holds_under_wfs
from .constraints import (
    EGD,
    ConstraintViolation,
    NegativeConstraint,
    check_constraints,
    is_consistent,
)
from .engine import DatalogWellFoundedModel, WellFoundedEngine
from .forward_proof import (
    ForwardProof,
    find_forward_proof,
    provable_atoms,
    what_fixpoint,
    what_operator,
)
from .locality import delta_bound, query_depth_bound, type_count_bound
from .stratified import StratifiedDatalogPM, StratifiedModel
from .wcheck import path_witness, wcheck_atom, wcheck_literal

__all__ = [
    "answer_query",
    "certain_answers",
    "holds_under_wfs",
    "EGD",
    "ConstraintViolation",
    "NegativeConstraint",
    "check_constraints",
    "is_consistent",
    "DatalogWellFoundedModel",
    "WellFoundedEngine",
    "ForwardProof",
    "find_forward_proof",
    "provable_atoms",
    "what_fixpoint",
    "what_operator",
    "delta_bound",
    "query_depth_bound",
    "type_count_bound",
    "StratifiedDatalogPM",
    "StratifiedModel",
    "path_witness",
    "wcheck_atom",
    "wcheck_literal",
]
