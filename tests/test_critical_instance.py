"""An independent check of the termination verdict the finite plan trusts.

:class:`~repro.core.engine.WellFoundedEngine` answers a program from its
finite grounding whenever :func:`~repro.analysis.termination.termination_verdict`
certifies that the Skolem chase terminates.  The check here shares no code
with the acyclicity tests: by Marnette's theorem the Skolem chase of a
constant-free rule set terminates on every database iff it terminates on
the *critical instance*, one fact ``p(*, …, *)`` per predicate and arity.
Negative bodies are dropped first, which only adds firings; constants
written in rules are not added to the instance, which can only hide a
divergence, never report a false one.  Every accepted program must
therefore saturate there, which the columnar grounder — a Skolem chase of
the positive rules — checks under an atom budget.

Three generators feed the property: Skolemized guarded workloads, safe
normal programs, and :func:`strategies.repeated_skolem_programs`, which
repeats Skolem terms across head positions and shares function symbols
across rules.  The weekly ``stress`` job runs the same property at sweep
size.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis import termination_verdict
from repro.exceptions import GroundingError
from repro.lang.atoms import Atom
from repro.lang.parser import parse_normal_program
from repro.lang.program import NormalProgram
from repro.lang.rules import NormalRule
from repro.lang.skolem import skolemize_program
from repro.lang.terms import Constant
from repro.lp.grounding import relevant_grounding

from strategies import guarded_workloads, repeated_skolem_programs, safe_normal_workloads

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

STAR = Constant("*")

#: Two generator sites under the function symbol ``f`` build the same term
#: ``f(a)``, and the chase grounds ``f(f(…))`` forever.
SHARED_SYMBOL = parse_normal_program(
    "p(Y, Y), q(Y, Y) -> q(f(Y), f(Y)). q(X, X) -> p(f(X), f(X)). p(a, a). q(a, a)."
)


def critical_instance(rules) -> list[Atom]:
    """One all-``*`` fact per predicate and arity occurring in *rules*."""
    signature = {(atom.predicate, atom.arity) for rule in rules for atom in rule.atoms()}
    return [Atom(predicate, (STAR,) * arity) for predicate, arity in sorted(signature)]


def saturates_on_critical_instance(rules) -> bool:
    """Does the Skolem chase of the positive rules stop on the critical instance?"""
    positive = [NormalRule(rule.head, rule.body_pos) for rule in rules if not rule.is_fact()]
    try:
        relevant_grounding(
            positive, critical_instance(positive), backend="columnar", max_atoms=5_000
        )
    except GroundingError:
        return False
    return True


def check_verdict(rules) -> None:
    rules = list(rules)
    verdict = termination_verdict(rules)
    if verdict.terminating:
        assert saturates_on_critical_instance(rules), (verdict, [str(r) for r in rules])


programs = st.one_of(
    guarded_workloads().map(lambda workload: skolemize_program(workload[0])),
    safe_normal_workloads().map(lambda workload: workload[0]),
    repeated_skolem_programs(),
)


def test_critical_instance_catches_the_shared_symbol_program():
    """The oracle itself: it sees the divergence the old verdict missed."""
    assert not saturates_on_critical_instance(SHARED_SYMBOL)
    assert termination_verdict(SHARED_SYMBOL).criterion is None


@given(rules=programs)
@example(rules=SHARED_SYMBOL)
@settings(max_examples=300, **COMMON_SETTINGS)
def test_accepted_programs_saturate_on_the_critical_instance(rules: NormalProgram):
    check_verdict(rules)


@pytest.mark.stress
@given(rules=programs)
@example(rules=SHARED_SYMBOL)
@settings(max_examples=5_000, **COMMON_SETTINGS)
def test_accepted_programs_saturate_on_the_critical_instance_deep_sweep(rules):
    """The same property at sweep size (``-m stress``)."""
    check_verdict(rules)
