"""The scenario registry: named, parameterized workloads with bundled traces.

A *scenario* packages one realistic workload shape — rules, an initial
database, a query mix, and a seeded update/query trace — behind a name, the
registry pattern production reasoners use to pin their evaluation corpora.
Every scenario doubles as

* a **differential fixture**: its bundle feeds the cross-product suites that
  assert bit-identical answers across every engine configuration
  (``backend`` × ``rewrite`` × ``incremental``), and maintained-vs-scratch
  equality at every trace checkpoint; and
* a **load shape**: its trace drives a warm :class:`repro.views.MaterializedEngine`
  through :mod:`repro.scenarios.replay`, which is the load generator the
  serving layer benchmarks against.

Builders are deterministic given their parameters (every random choice flows
through a seeded :class:`random.Random`), accept at least ``size`` and
``seed``, and return a :class:`ScenarioBundle`.  Register a new scenario with
the :func:`scenario` decorator::

    @scenario(
        "my-domain",
        description="one line shown by `repro scenarios list`",
        tags=("negation",),
        size=8,
        seed=0,
    )
    def _my_domain(*, size, seed, trace_length=48, **trace_options):
        ...
        return ScenarioBundle(...)

The five built-in scenarios span the regimes the engine must cover:
RCA/diagnosis over telemetry (stratified negation over a DAG),
access-control policies (stratified deny-overrides *and* an unstratified
request cycle), win/move game graphs (the canonical unstratified program),
a LUBM-style DL ontology routed through :mod:`repro.dl` (existential axioms
plus default negation), and supply-chain reachability with existential
(chase) rules deriving properties of invented nulls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..dl.translate import translate_ontology
from ..bench.generators import university_ontology, win_move_datalog_pm
from ..lang.atoms import Atom
from ..lang.parser import parse_program
from ..lang.program import Database, DatalogPMProgram
from ..lang.terms import Constant
from .trace import TraceEvent, generate_trace

__all__ = [
    "Scenario",
    "ScenarioBundle",
    "scenario",
    "scenario_names",
    "get_scenario",
    "build_scenario",
]


@dataclass(frozen=True)
class ScenarioBundle:
    """One built workload: ``(program, database, queries, update trace)``.

    ``dynamic_facts`` is the pool of facts the trace toggles (a superset of
    the toggled facts, disjoint from the static database core), exposed so
    property tests can generate *fresh* random interleavings over the same
    scenario with :func:`repro.scenarios.trace.generate_trace`;
    ``initially_present`` is the subset of the pool already in ``database``.
    """

    name: str
    description: str
    program: DatalogPMProgram
    database: Database
    queries: tuple[str, ...]
    trace: tuple[TraceEvent, ...]
    dynamic_facts: tuple[Atom, ...] = ()
    initially_present: tuple[Atom, ...] = ()
    params: Mapping[str, object] = field(default_factory=dict)

    def regenerate_trace(self, **options) -> list[TraceEvent]:
        """A fresh trace over the same dynamic pool (defaults re-seeded)."""
        merged = {"length": len(self.trace), "seed": 0}
        merged.update(options)
        return generate_trace(
            self.dynamic_facts,
            self.queries,
            initially_present=self.initially_present,
            **merged,
        )


@dataclass(frozen=True)
class Scenario:
    """A registered scenario: metadata plus its parameterized builder."""

    name: str
    description: str
    builder: Callable[..., ScenarioBundle]
    defaults: Mapping[str, object]
    tags: frozenset[str]

    def build(self, **overrides) -> ScenarioBundle:
        """Build the bundle with the registered defaults overridden."""
        params = dict(self.defaults)
        unknown = set(overrides) - set(params)
        if unknown:
            raise ValueError(
                f"scenario {self.name!r} has no parameters {sorted(unknown)}; "
                f"known: {sorted(params)}"
            )
        params.update(overrides)
        return self.builder(**params)


_REGISTRY: dict[str, Scenario] = {}


def scenario(
    name: str, *, description: str, tags: Sequence[str] = (), **defaults
) -> Callable:
    """Class-less registration decorator; ``defaults`` are builder kwargs."""

    def register(builder: Callable[..., ScenarioBundle]) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = Scenario(
            name=name,
            description=description,
            builder=builder,
            defaults=dict(defaults),
            tags=frozenset(tags),
        )
        return builder

    return register


def scenario_names() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name (:class:`KeyError` with the known names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {scenario_names()}"
        ) from None


def build_scenario(name: str, **overrides) -> ScenarioBundle:
    """Shorthand for ``get_scenario(name).build(**overrides)``."""
    return get_scenario(name).build(**overrides)


def _bundle(
    name: str,
    *,
    program: DatalogPMProgram,
    database: Sequence[Atom],
    queries: Sequence[str],
    dynamic_facts: Sequence[Atom],
    params: Mapping[str, object],
    trace_length: int,
    seed: int,
    query_ratio: float,
    checkpoint_every: int,
    think_time: float,
) -> ScenarioBundle:
    """Assemble a bundle, deriving the trace from the dynamic pool."""
    database = Database(database)
    present = tuple(atom for atom in dynamic_facts if atom in database)
    trace = generate_trace(
        dynamic_facts,
        queries,
        length=trace_length,
        seed=seed,
        initially_present=present,
        query_ratio=query_ratio,
        checkpoint_every=checkpoint_every,
        think_time=think_time,
    )
    return ScenarioBundle(
        name=name,
        description=_REGISTRY[name].description if name in _REGISTRY else "",
        program=program,
        database=database,
        queries=tuple(queries),
        trace=tuple(trace),
        dynamic_facts=tuple(dynamic_facts),
        initially_present=present,
        params=dict(params),
    )


# ---------------------------------------------------------------------------
# RCA / diagnosis over synthetic telemetry
# ---------------------------------------------------------------------------

_TELEMETRY_RULES = """
alert(S) -> degraded(S).
depends(S, T), degraded(T) -> degraded(S).
depends(S, T), degraded(T) -> upstream_issue(S).
alert(S), not upstream_issue(S) -> root_cause(S).
service(S), not degraded(S) -> healthy(S).
"""


@scenario(
    "telemetry-rca",
    description=(
        "root-cause analysis over a service dependency DAG: alerts stream in "
        "and out, degradation propagates upstream, root causes are alerts "
        "with no degraded dependency (stratified negation)"
    ),
    tags=("negation", "stratified", "telemetry"),
    size=12,
    seed=0,
    trace_length=60,
    query_ratio=0.35,
    checkpoint_every=10,
    think_time=0.0,
)
def _telemetry_rca(
    *, size, seed, trace_length, query_ratio, checkpoint_every, think_time
) -> ScenarioBundle:
    rng = random.Random(seed)
    program, _ = parse_program(_TELEMETRY_RULES)
    services = [Constant(f"s{i}") for i in range(size)]
    facts: list[Atom] = [Atom("service", (s,)) for s in services]
    # A layered DAG: every service depends on one or two strictly later ones,
    # so degradation ripples from leaves toward the front tier.
    for index, service in enumerate(services[:-1]):
        for target in rng.sample(
            range(index + 1, size), k=min(size - index - 1, rng.randint(1, 2))
        ):
            facts.append(Atom("depends", (service, services[target])))
    alerts = [Atom("alert", (s,)) for s in services]
    for alert in rng.sample(alerts, k=max(1, size // 4)):
        facts.append(alert)
    queries = (
        "? root_cause(X)",
        "? healthy(X)",
        f"? degraded({services[0].name})",
        f"? upstream_issue({services[0].name})",
    )
    return _bundle(
        "telemetry-rca",
        program=program,
        database=facts,
        queries=queries,
        dynamic_facts=alerts,
        params={"size": size, "seed": seed},
        trace_length=trace_length,
        seed=seed,
        query_ratio=query_ratio,
        checkpoint_every=checkpoint_every,
        think_time=think_time,
    )


# ---------------------------------------------------------------------------
# Access control / policy negation
# ---------------------------------------------------------------------------

_POLICY_RULES = """
grant(U, R) -> may(U, R).
deleg(V, U, R), may(V, R) -> may(U, R).
may(U, R), not revoked(U, R) -> allowed(U, R).
request(U, R), not blocked(U, R) -> active(U, R).
request(U, R), not active(U, R) -> blocked(U, R).
"""


@scenario(
    "access-control",
    description=(
        "policy evaluation with delegation chains: deny-overrides through "
        "stratified negation (allowed = may and not revoked) plus an "
        "unstratified request/block cycle whose WFS value is undefined"
    ),
    tags=("negation", "unstratified", "policy"),
    size=8,
    seed=0,
    trace_length=60,
    query_ratio=0.35,
    checkpoint_every=10,
    think_time=0.0,
)
def _access_control(
    *, size, seed, trace_length, query_ratio, checkpoint_every, think_time
) -> ScenarioBundle:
    rng = random.Random(seed)
    program, _ = parse_program(_POLICY_RULES)
    users = [Constant(f"u{i}") for i in range(size)]
    resources = [Constant(f"r{i}") for i in range(max(2, size // 2))]
    facts: list[Atom] = []
    dynamic: list[Atom] = []
    for resource in resources:
        owner = rng.choice(users)
        facts.append(Atom("grant", (owner, resource)))
        # a delegation chain from the owner through a few other users
        chain = [owner] + rng.sample(
            [u for u in users if u != owner], k=min(3, size - 1)
        )
        for giver, receiver in zip(chain, chain[1:]):
            facts.append(Atom("deleg", (giver, receiver, resource)))
    for user in users:
        resource = rng.choice(resources)
        dynamic.append(Atom("grant", (user, resource)))
        dynamic.append(Atom("revoked", (user, resource)))
        dynamic.append(Atom("request", (user, rng.choice(resources))))
    for fact in rng.sample(dynamic, k=max(1, len(dynamic) // 4)):
        facts.append(fact)
    queries = (
        f"? allowed({users[0].name}, X)",
        f"? allowed(X, {resources[0].name})",
        f"? may({users[1].name}, {resources[0].name})",
        "? blocked(X, Y)",
        f"? active({users[0].name}, {resources[0].name})",
    )
    return _bundle(
        "access-control",
        program=program,
        database=facts,
        queries=queries,
        dynamic_facts=dynamic,
        params={"size": size, "seed": seed},
        trace_length=trace_length,
        seed=seed,
        query_ratio=query_ratio,
        checkpoint_every=checkpoint_every,
        think_time=think_time,
    )


# ---------------------------------------------------------------------------
# Win/move game graphs
# ---------------------------------------------------------------------------


@scenario(
    "win-move",
    description=(
        "the canonical unstratified program — win(X) <- move(X, Y), "
        "not win(Y) — over a random game graph; edges churn, positions flip "
        "between won, lost and drawn (undefined)"
    ),
    tags=("negation", "unstratified", "game"),
    size=10,
    seed=0,
    trace_length=60,
    query_ratio=0.3,
    checkpoint_every=10,
    think_time=0.0,
)
def _win_move(
    *, size, seed, trace_length, query_ratio, checkpoint_every, think_time
) -> ScenarioBundle:
    rng = random.Random(seed)
    program, database = win_move_datalog_pm(size, out_degree=2, seed=seed)
    # The dynamic pool is the present edges plus candidate edges not in the
    # graph, so the trace both cuts and creates escape routes.
    dynamic = list(database)
    candidates = {
        (f"n{a}", f"n{b}")
        for a in range(size)
        for b in range(size)
        if a != b
    } - {(atom.args[0].name, atom.args[1].name) for atom in database}
    for source, target in rng.sample(sorted(candidates), k=min(size, len(candidates))):
        dynamic.append(Atom("move", (Constant(source), Constant(target))))
    queries = ("? win(X)", "? win(n0)", "? win(n1)", f"? win(n{size - 1})")
    return _bundle(
        "win-move",
        program=program,
        database=list(database),
        queries=queries,
        dynamic_facts=dynamic,
        params={"size": size, "seed": seed},
        trace_length=trace_length,
        seed=seed,
        query_ratio=query_ratio,
        checkpoint_every=checkpoint_every,
        think_time=think_time,
    )


# ---------------------------------------------------------------------------
# LUBM-style DL ontology through repro.dl
# ---------------------------------------------------------------------------


@scenario(
    "lubm-university",
    description=(
        "a LUBM-flavoured DL-Lite ontology routed through repro.dl: "
        "existential axioms (everyone works/enrolls somewhere), role "
        "hierarchies, and the default-negation axiom 'unadvised students "
        "need an advisor'; advisor assignments churn"
    ),
    tags=("ontology", "existential", "negation"),
    size=2,
    students=3,
    seed=0,
    trace_length=48,
    query_ratio=0.35,
    checkpoint_every=8,
    think_time=0.0,
)
def _lubm_university(
    *, size, students, seed, trace_length, query_ratio, checkpoint_every, think_time
) -> ScenarioBundle:
    program, database = translate_ontology(
        university_ontology(size, students, advised_fraction=0.5, seed=seed)
    )
    # Advisor churn: every professor/student pair within a department.
    dynamic = [
        Atom(
            "advises",
            (Constant(f"prof{dept}"), Constant(f"student{dept}_{index}")),
        )
        for dept in range(size)
        for index in range(students)
    ]
    queries = (
        "? employee(X)",
        "? advised(X)",
        "? mentors(X, Y)",
        "? needsAdvisor(student0_0, Y)",
        "? advised(student0_0)",
    )
    return _bundle(
        "lubm-university",
        program=program,
        database=list(database),
        queries=queries,
        dynamic_facts=dynamic,
        params={"size": size, "students": students, "seed": seed},
        trace_length=trace_length,
        seed=seed,
        query_ratio=query_ratio,
        checkpoint_every=checkpoint_every,
        think_time=think_time,
    )


# ---------------------------------------------------------------------------
# Supply-chain reachability with existential (chase) rules
# ---------------------------------------------------------------------------

_SUPPLY_RULES = """
part(X) -> exists S made_by(X, S).
made_by(X, S) -> sourced(X).
uses(A, B), tainted(B) -> tainted(A).
recalled(X) -> tainted(X).
part(X), not tainted(X) -> safe(X).
made_by(X, S), recalled(X) -> suspect_source(S).
"""


@scenario(
    "supply-chain",
    description=(
        "taint reachability over an assembly DAG with existential rules: "
        "every part has an invented maker (a labelled null) that turns "
        "suspect when the part is recalled; recalls and dependency edges "
        "churn"
    ),
    tags=("existential", "chase", "negation", "reachability"),
    size=10,
    seed=0,
    trace_length=60,
    query_ratio=0.3,
    checkpoint_every=10,
    think_time=0.0,
)
def _supply_chain(
    *, size, seed, trace_length, query_ratio, checkpoint_every, think_time
) -> ScenarioBundle:
    rng = random.Random(seed)
    program, _ = parse_program(_SUPPLY_RULES)
    parts = [Constant(f"p{i}") for i in range(size)]
    facts: list[Atom] = [Atom("part", (p,)) for p in parts]
    # An assembly DAG: each part uses one or two strictly later parts
    # (components), so taint flows from leaf components up to assemblies.
    for index, part in enumerate(parts[:-1]):
        for target in rng.sample(
            range(index + 1, size), k=min(size - index - 1, rng.randint(1, 2))
        ):
            facts.append(Atom("uses", (part, parts[target])))
    recalls = [Atom("recalled", (p,)) for p in parts]
    for recall in rng.sample(recalls, k=max(1, size // 5)):
        facts.append(recall)
    queries = (
        "? safe(X)",
        "? tainted(X)",
        f"? tainted({parts[0].name})",
        f"? made_by({parts[0].name}, S)",
        "? suspect_source(S)",
    )
    return _bundle(
        "supply-chain",
        program=program,
        database=facts,
        queries=queries,
        dynamic_facts=recalls,
        params={"size": size, "seed": seed},
        trace_length=trace_length,
        seed=seed,
        query_ratio=query_ratio,
        checkpoint_every=checkpoint_every,
        think_time=think_time,
    )
