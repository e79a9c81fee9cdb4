"""Shared hypothesis strategies for the test-suite.

Lives in a plain helper module (pytest puts the ``tests/`` directory on
``sys.path``) so every test file can import the strategies without relative
imports — ``tests`` is intentionally not a package.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.bench.generators import random_guarded_program
from repro.lang.atoms import Atom
from repro.lang.program import NormalProgram
from repro.lang.queries import NormalBCQ
from repro.lang.rules import NormalRule
from repro.lang.terms import Constant, FunctionTerm, Variable
from repro.lp.grounding import GroundProgram

__all__ = [
    "constants",
    "variables",
    "terms",
    "ground_terms",
    "atoms",
    "ground_atoms",
    "prop_atoms",
    "ground_programs",
    "safe_normal_workloads",
    "guarded_workloads",
    "rewrite_workloads",
    "repeated_skolem_programs",
    "agenda_orderings",
    "scenario_bundles",
    "scenario_traces",
]

constants = st.sampled_from([Constant(name) for name in "abcde"])
variables = st.sampled_from([Variable(name) for name in ("X", "Y", "Z")])


def terms(max_depth=2):
    return st.recursive(
        constants | variables,
        lambda children: st.builds(
            FunctionTerm,
            st.sampled_from(["f", "g"]),
            st.lists(children, min_size=1, max_size=2).map(tuple),
        ),
        max_leaves=4,
    )


ground_terms = st.recursive(
    constants,
    lambda children: st.builds(
        FunctionTerm,
        st.sampled_from(["f", "g"]),
        st.lists(children, min_size=1, max_size=2).map(tuple),
    ),
    max_leaves=4,
)

atoms = st.builds(
    Atom,
    st.sampled_from(["p", "q", "r"]),
    st.lists(terms(), min_size=0, max_size=2).map(tuple),
)

ground_atoms = st.builds(
    Atom,
    st.sampled_from(["p", "q", "r"]),
    st.lists(ground_terms, min_size=0, max_size=2).map(tuple),
)

#: Propositional atoms used to build random ground normal programs.
prop_atoms = st.sampled_from([Atom(name, ()) for name in "abcdefg"])


@st.composite
def ground_programs(draw):
    """Random small ground (propositional) normal programs."""
    num_rules = draw(st.integers(min_value=1, max_value=8))
    rules = []
    for _ in range(num_rules):
        head = draw(prop_atoms)
        body_pos = tuple(draw(st.lists(prop_atoms, max_size=2)))
        body_neg = tuple(draw(st.lists(prop_atoms, max_size=2)))
        rules.append(NormalRule(head, body_pos, body_neg))
    num_facts = draw(st.integers(min_value=0, max_value=3))
    for _ in range(num_facts):
        rules.append(NormalRule(draw(prop_atoms)))
    return GroundProgram(rules)


#: Small predicate space shared by the grounder-level differential tests.
_WORKLOAD_PREDICATES = [("p", 1), ("q", 2), ("r", 1), ("e", 2)]


@st.composite
def safe_normal_workloads(draw):
    """A random small *safe* non-ground normal program plus a ground EDB.

    Heads only use variables bound in the positive body (or constants, or a
    function term over those), negative bodies likewise — the safety regime
    every grounding backend must handle; the EDB is returned separately so it
    can be fed to a grounder as ``extra_atoms``.  Function-term heads are
    restricted to single-atom bodies: with a wider body the tuple oracle can
    observe its own emissions while still enumerating the same rule pass and
    derive an unbounded function-symbol chain *within one round*, where no
    ``max_rounds`` budget can interrupt it.
    """
    rules = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        body_pos = []
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            name, arity = draw(st.sampled_from(_WORKLOAD_PREDICATES))
            args = tuple(draw(constants | variables) for _ in range(arity))
            body_pos.append(Atom(name, args))
        bound = sorted(
            {t for atom in body_pos for t in atom.args if isinstance(t, Variable)},
            key=str,
        )
        safe_terms = st.sampled_from([Constant(n) for n in "abcde"] + bound)
        head_terms = safe_terms
        if len(body_pos) == 1:
            head_terms = safe_terms | st.builds(
                FunctionTerm,
                st.sampled_from(["f", "g"]),
                st.lists(safe_terms, min_size=1, max_size=2).map(tuple),
            )
        name, arity = draw(st.sampled_from(_WORKLOAD_PREDICATES))
        head = Atom(name, tuple(draw(head_terms) for _ in range(arity)))
        body_neg = []
        if draw(st.booleans()):
            name, arity = draw(st.sampled_from(_WORKLOAD_PREDICATES))
            body_neg.append(Atom(name, tuple(draw(safe_terms) for _ in range(arity))))
        rules.append(NormalRule(head, tuple(body_pos), tuple(body_neg)))
    edb = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        name, arity = draw(st.sampled_from(_WORKLOAD_PREDICATES))
        edb.append(Atom(name, tuple(draw(ground_terms) for _ in range(arity))))
    return NormalProgram(rules), edb


@st.composite
def guarded_workloads(draw):
    """A random guarded Datalog± workload (program + database).

    Shared by the incremental-engine and columnar-backend property suites:
    the engine observables must be invariant under every (schedule ×
    configuration) combination, so the same workload space exercises both.
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_predicates = draw(st.integers(min_value=1, max_value=3))
    num_rules = draw(st.integers(min_value=2, max_value=5))
    negation_prob = draw(st.sampled_from([0.0, 0.4, 0.8]))
    existential_prob = draw(st.sampled_from([0.0, 0.4, 0.8]))
    return random_guarded_program(
        num_predicates,
        2,
        num_rules,
        negation_prob=negation_prob,
        existential_prob=existential_prob,
        num_constants=3,
        num_facts=8,
        seed=seed,
    )


@st.composite
def rewrite_workloads(draw):
    """A random guarded Datalog± workload plus a query against it.

    ``existential_prob > 0`` yields Skolemised rules whose query-relevant
    fragments are frequently not weakly acyclic, which is exactly what drives
    the conservative fallback path.
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_predicates = draw(st.integers(min_value=1, max_value=3))
    num_rules = draw(st.integers(min_value=2, max_value=5))
    negation_prob = draw(st.sampled_from([0.0, 0.4, 0.8]))
    existential_prob = draw(st.sampled_from([0.0, 0.0, 0.4]))
    program, database = random_guarded_program(
        num_predicates,
        2,
        num_rules,
        negation_prob=negation_prob,
        existential_prob=existential_prob,
        num_constants=3,
        num_facts=8,
        seed=seed,
    )

    predicates = sorted({f"q{i}" for i in range(num_predicates)})
    predicate = draw(st.sampled_from(predicates))
    shape = draw(st.sampled_from(["ground", "open", "negated", "join"]))
    x = Variable("X")
    constant = Constant(f"c{draw(st.integers(min_value=0, max_value=2))}")
    if shape == "ground":
        query = NormalBCQ((Atom(predicate, (constant,)),))
    elif shape == "open":
        query = NormalBCQ((Atom(predicate, (x,)),))
    elif shape == "negated":
        other = draw(st.sampled_from(predicates))
        query = NormalBCQ((Atom(predicate, (x,)),), (Atom(other, (x,)),))
    else:
        other = draw(st.sampled_from(predicates))
        query = NormalBCQ((Atom(predicate, (x,)), Atom(other, (x,))))
    return program, database, query


#: Predicates of :func:`repeated_skolem_programs`: mostly low arities, where
#: two rules' Skolem terms meet at one position most often.
_SKOLEM_PREDICATES = [("p", 1), ("q", 1), ("r", 2), ("s", 2), ("t", 3)]


@st.composite
def repeated_skolem_programs(draw):
    """Small normal rule sets aimed at the acyclicity hierarchy's weak spots.

    1–4 rules with 1–3 positive body atoms over two variables and one
    constant (so self-joins such as ``r(X, X)`` and constant filters are
    common), whose heads repeat one Skolem term at several positions — the
    shape of the bugs the joint and super-weak criteria have had.  One branch
    gives every rule its own function symbol, as Skolemization does; the
    other gives every rule the symbol ``f``, so generator sites share it.
    """
    shared = draw(st.booleans())
    pool = [Variable("X"), Variable("Y"), Constant("a")]
    rules = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        body = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            name, arity = draw(st.sampled_from(_SKOLEM_PREDICATES))
            body.append(Atom(name, tuple(draw(st.sampled_from(pool)) for _ in range(arity))))
        bound = sorted(
            {t for atom in body for t in atom.args if isinstance(t, Variable)}, key=str
        )
        if not bound:
            bound = [Variable("X")]
            body[0] = Atom(body[0].predicate, (bound[0], *body[0].args[1:]))
        symbol = "f" if shared else f"f{index}"
        skolem = FunctionTerm(
            symbol, tuple(draw(st.lists(st.sampled_from(bound), min_size=1, max_size=2)))
        )
        name, arity = draw(st.sampled_from(_SKOLEM_PREDICATES))
        head_terms = st.sampled_from([skolem, skolem, skolem, *bound, Constant("a")])
        head = Atom(name, tuple(draw(head_terms) for _ in range(arity)))
        rules.append(NormalRule(head, tuple(body)))
    return NormalProgram(rules)


#: Per-scenario size overrides keeping property examples fast (the registry
#: defaults target the CLI/bench; hypothesis runs hundreds of examples).
_SCENARIO_PROPERTY_SIZES = {
    "telemetry-rca": {"size": 6},
    "access-control": {"size": 4},
    "win-move": {"size": 6},
    "lubm-university": {"size": 1, "students": 2},
    "supply-chain": {"size": 6},
}


@st.composite
def scenario_bundles(draw, names=None):
    """A small instance of a registered scenario (random name × seed)."""
    from repro.scenarios import build_scenario, scenario_names

    name = draw(st.sampled_from(list(names) if names else scenario_names()))
    seed = draw(st.integers(min_value=0, max_value=1_000))
    overrides = dict(_SCENARIO_PROPERTY_SIZES.get(name, {}))
    overrides["seed"] = seed
    overrides["trace_length"] = draw(st.integers(min_value=4, max_value=24))
    overrides["checkpoint_every"] = draw(st.sampled_from([3, 5, 8]))
    return build_scenario(name, **overrides)


@st.composite
def scenario_traces(draw, names=None):
    """A scenario bundle plus a *fresh* random interleaving over its fact pool.

    The returned trace is regenerated from the bundle's dynamic-fact pool and
    query mix with an independent seed — so the property suites exercise
    interleavings the registry never shipped, not just the bundled trace.
    """
    bundle = draw(scenario_bundles(names))
    trace = bundle.regenerate_trace(
        seed=draw(st.integers(min_value=0, max_value=1_000)),
        length=draw(st.integers(min_value=4, max_value=24)),
        query_ratio=draw(st.sampled_from([0.0, 0.3, 0.6])),
        checkpoint_every=draw(st.sampled_from([3, 5])),
    )
    return bundle, trace


@st.composite
def agenda_orderings(draw):
    """A random agenda-scheduling policy for the chase engine.

    Draws a seed and returns a zero-argument factory producing a fresh
    ``agenda_order`` callable (``queue length -> index to pop``) driven by a
    seeded PRNG — a fresh callable per engine, so two engines given the same
    factory replay the same permutation and a test can still vary the order
    across examples.  ``None`` (the engine's default LIFO policy) is drawn as
    a degenerate case.
    """
    seed = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)))
    if seed is None:
        return lambda: None

    def factory():
        rng = random.Random(seed)
        return lambda queue_length: rng.randrange(queue_length)

    return factory
