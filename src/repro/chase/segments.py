"""The no-op ``clear_segment_stores()``, kept for one caller.

No chase subtrees are stored between engines.  Lemma 11 (isomorphic types
have isomorphic subtrees) is used inside one chase run only, by the
convergence test of :class:`repro.core.engine.WellFoundedEngine`.
"""

from __future__ import annotations


def clear_segment_stores() -> None:
    """Do nothing: there are no segment stores to clear.

    Kept only because the end-to-end benchmark's cold-answer workload still
    calls it before every operation; it goes once that call does.
    """
