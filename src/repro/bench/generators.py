"""Synthetic workload generators for the evaluation (``benchmarks/``, experiments E1–E7).

The paper has no empirical section, so the workloads here are derived from its
worked examples and from the classical benchmark programs of the WFS
literature:

* :func:`paper_example_program` — Example 4/6/9 verbatim (the transfinite
  ``T(0)`` example), optionally with extra seed facts.
* :func:`employment_workload` — Example 2 (the DL-Lite_{R,⊓,not} employment
  ontology) scaled to ``n`` persons; used for the data-complexity experiment.
* :func:`win_move_game` — the win/move game, *the* canonical program with
  unstratified negation; both as a plain normal logic program (for the LP
  substrate) and as a guarded Datalog± program.
* :func:`reachability_program` — a stratified program (reach + unreachable)
  used to check the coincidence of WFS and stratified semantics.
* :func:`random_guarded_program` — random guarded NTGDs over a configurable
  schema, used for the combined-complexity experiment.
* :func:`university_ontology` — a small LUBM-flavoured ontology with
  existential axioms and default negation, used for the ontology experiment.

All generators are deterministic given their ``seed``.
"""

from __future__ import annotations

import random

from ..lang.atoms import Atom
from ..lang.program import Database, DatalogPMProgram, NormalProgram
from ..lang.rules import NTGD, NormalRule
from ..lang.terms import Constant, Variable
from ..dl.syntax import Ontology

__all__ = [
    "paper_example_program",
    "employment_workload",
    "employment_ontology",
    "win_move_game",
    "win_move_datalog_pm",
    "reachability_program",
    "large_edb_reachability",
    "chain_reachability_workload",
    "combined_complexity_workload",
    "random_guarded_program",
    "university_ontology",
]


# ---------------------------------------------------------------------------
# E1 — the paper's running example
# ---------------------------------------------------------------------------


def paper_example_program(extra_chains: int = 0) -> tuple[DatalogPMProgram, Database]:
    """The program and database of Example 4 of the paper.

    ``extra_chains`` adds further seed facts ``r(i, i, i+1), p(i, i)`` for
    ``i = 1 … extra_chains`` so the same rule set can be exercised over larger
    databases (each chain behaves like an isomorphic copy of the original).
    """
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    w = Variable("W")
    r = lambda a, b, c: Atom("r", (a, b, c))  # noqa: E731 - local shorthand
    p = lambda a, b: Atom("p", (a, b))  # noqa: E731
    q = lambda a: Atom("q", (a,))  # noqa: E731
    s = lambda a: Atom("s", (a,))  # noqa: E731
    t = lambda a: Atom("t", (a,))  # noqa: E731

    program = DatalogPMProgram(
        [
            NTGD((r(x, y, z),), r(x, z, w), label="growth"),
            NTGD((r(x, y, z), p(x, y)), p(x, z), (q(z),), label="propagate"),
            NTGD((r(x, y, z),), q(z), (p(x, y),), label="mark"),
            NTGD((r(x, y, z),), s(x), (p(x, z),), label="suspect"),
            NTGD((p(x, y),), t(x), (s(x),), label="trust"),
        ]
    )
    facts = [Atom("r", (Constant("0"), Constant("0"), Constant("1"))), Atom("p", (Constant("0"), Constant("0")))]
    for i in range(1, extra_chains + 1):
        base = Constant(f"c{i}")
        succ = Constant(f"c{i}_1")
        facts.append(Atom("r", (base, base, succ)))
        facts.append(Atom("p", (base, base)))
    return program, Database(facts)


# ---------------------------------------------------------------------------
# E2 / E5 — the employment ontology of Example 2, scaled
# ---------------------------------------------------------------------------


def employment_ontology(
    num_persons: int,
    *,
    employed_fraction: float = 0.5,
    registered_fraction: float = 0.1,
    seed: int = 0,
) -> Ontology:
    """Example 2 of the paper as an ontology over ``num_persons`` individuals.

    A ``registered_fraction`` of the unemployed persons is explicitly asserted
    to already hold a job-seeker ID (a role assertion to a named ID), which
    exercises the negated existential in the first axiom.
    """
    rng = random.Random(seed)
    ontology = Ontology()
    ontology.subclass(
        ["Person", "Employed", ("not", "exists JobSeekerID")], "exists EmployeeID"
    )
    ontology.subclass(
        ["Person", ("not", "Employed"), ("not", "exists EmployeeID")], "exists JobSeekerID"
    )
    ontology.subclass(
        ["exists EmployeeID-", ("not", "exists JobSeekerID-")], "ValidID"
    )
    for i in range(num_persons):
        person = f"p{i}"
        ontology.abox.assert_concept("Person", person)
        if rng.random() < employed_fraction:
            ontology.abox.assert_concept("Employed", person)
        elif rng.random() < registered_fraction:
            ontology.abox.assert_role("JobSeekerID", person, f"jsid{i}")
    return ontology


def employment_workload(
    num_persons: int,
    *,
    employed_fraction: float = 0.5,
    registered_fraction: float = 0.1,
    seed: int = 0,
) -> tuple[DatalogPMProgram, Database]:
    """The employment ontology already translated to guarded normal Datalog±."""
    from ..dl.translate import translate_ontology

    ontology = employment_ontology(
        num_persons,
        employed_fraction=employed_fraction,
        registered_fraction=registered_fraction,
        seed=seed,
    )
    return translate_ontology(ontology)


# ---------------------------------------------------------------------------
# E4 / E7 — the win/move game
# ---------------------------------------------------------------------------


def _game_graph(
    num_positions: int, out_degree: int, seed: int
) -> list[tuple[str, str]]:
    """A random directed game graph with out-degrees between 0 and *out_degree*.

    Roughly a quarter of the positions are dead ends (out-degree 0), which
    gives the game a rich mix of won, lost and drawn (undefined) positions —
    the interesting regime for the well-founded semantics.
    """
    rng = random.Random(seed)
    edges: set[tuple[str, str]] = set()
    for source in range(num_positions):
        if rng.random() < 0.25:
            continue  # dead end: an immediately lost position
        for _ in range(rng.randint(1, max(1, out_degree))):
            target = rng.randrange(num_positions)
            if target != source:
                edges.add((f"n{source}", f"n{target}"))
    return sorted(edges)


def win_move_game(
    num_positions: int,
    *,
    out_degree: int = 2,
    seed: int = 0,
) -> NormalProgram:
    """The win/move game as a normal logic program.

    ``win(X) ← move(X, Y), not win(Y)`` over a random game graph.  The program
    is not stratified; positions on even-length escape paths come out true,
    dead ends false, and cycles with no escape undefined — the textbook WFS
    behaviour used throughout the literature (and in the paper's Example 4
    in spirit).
    """
    x, y = Variable("X"), Variable("Y")
    rules = [
        NormalRule(Atom("win", (x,)), (Atom("move", (x, y)),), (Atom("win", (y,)),))
    ]
    for source, target in _game_graph(num_positions, out_degree, seed):
        rules.append(NormalRule(Atom("move", (Constant(source), Constant(target)))))
    return NormalProgram(rules)


def win_move_datalog_pm(
    num_positions: int,
    *,
    out_degree: int = 2,
    seed: int = 0,
) -> tuple[DatalogPMProgram, Database]:
    """The same win/move game as a guarded normal Datalog± program plus database.

    The single rule is guarded by ``move(X, Y)``; the game graph becomes the
    database.  Used to check that the Datalog± engine coincides with the
    classical LP well-founded model on existential-free programs.
    """
    x, y = Variable("X"), Variable("Y")
    program = DatalogPMProgram(
        [NTGD((Atom("move", (x, y)),), Atom("win", (x,)), (Atom("win", (y,)),), label="win")]
    )
    facts = [
        Atom("move", (Constant(source), Constant(target)))
        for source, target in _game_graph(num_positions, out_degree, seed)
    ]
    return program, Database(facts)


# ---------------------------------------------------------------------------
# E4 — a stratified workload
# ---------------------------------------------------------------------------


def reachability_program(
    num_nodes: int,
    *,
    edge_prob: float = 0.08,
    seed: int = 0,
) -> NormalProgram:
    """A stratified program: reachability from a source plus its negation.

    ``reach(s)``; ``reach(Y) ← reach(X), edge(X, Y)``;
    ``unreachable(X) ← node(X), not reach(X)``.  Stratified, so the WFS is
    total and coincides with the perfect model — one of the classical
    properties experiment E4 re-checks.
    """
    rng = random.Random(seed)
    x, y = Variable("X"), Variable("Y")
    rules = [
        NormalRule(Atom("reach", (Constant("s"),))),
        NormalRule(Atom("reach", (y,)), (Atom("reach", (x,)), Atom("edge", (x, y))), ()),
        NormalRule(Atom("unreachable", (x,)), (Atom("node", (x,)),), (Atom("reach", (x,)),)),
    ]
    names = ["s"] + [f"v{i}" for i in range(num_nodes - 1)]
    for name in names:
        rules.append(NormalRule(Atom("node", (Constant(name),))))
    for source in names:
        for target in names:
            if source != target and rng.random() < edge_prob:
                rules.append(NormalRule(Atom("edge", (Constant(source), Constant(target)))))
    return NormalProgram(rules)


# ---------------------------------------------------------------------------
# Columnar-grounding benchmark — a large EDB with a small reachable core
# ---------------------------------------------------------------------------


def large_edb_reachability(
    num_facts: int,
    *,
    core_size: int = 128,
    seed: int = 0,
) -> tuple[NormalProgram, list[Atom]]:
    """A reachability/ontology workload whose EDB dwarfs its derived core.

    Returns the *rules* (a :class:`NormalProgram` without facts) and the EDB
    as a separate atom list, ready to feed a grounding backend as
    ``extra_atoms``:

    * ``reach(X) ← source(X)``
    * ``reach(Y) ← edge(X, Y), reach(X)``
    * ``frontier(X) ← reach(X), edge(X, Y), not reach(Y)``
    * ``unreachable(X) ← node(X), not reach(X)``

    The EDB has exactly ``num_facts`` atoms: one ``source`` fact, a
    deterministic chain of ``core_size - 1`` ``edge`` facts (the only part
    reachable from the source), ``node`` facts for about a quarter of the
    budget, and random background ``edge`` facts among *unreachable* nodes
    for the rest.  The derived ``reach`` core therefore stays ``core_size``
    atoms no matter how large the database grows — the regime where the
    per-candidate tuple matcher pays its full per-predicate scan on every
    deepening round while a columnar backend only probes hash indexes.
    Deterministic given *seed*.
    """
    core_size = max(2, min(core_size, num_facts // 4))
    x, y = Variable("X"), Variable("Y")
    rules = [
        NormalRule(Atom("reach", (x,)), (Atom("source", (x,)),), ()),
        NormalRule(Atom("reach", (y,)), (Atom("edge", (x, y)), Atom("reach", (x,))), ()),
        NormalRule(
            Atom("frontier", (x,)),
            (Atom("reach", (x,)), Atom("edge", (x, y))),
            (Atom("reach", (y,)),),
        ),
        NormalRule(Atom("unreachable", (x,)), (Atom("node", (x,)),), (Atom("reach", (x,)),)),
    ]

    rng = random.Random(seed)
    core = [Constant(f"k{i}") for i in range(core_size)]
    facts: list[Atom] = [Atom("source", (core[0],))]
    for left, right in zip(core, core[1:]):
        facts.append(Atom("edge", (left, right)))

    num_node_facts = num_facts // 4
    remaining = num_facts - len(facts) - num_node_facts
    # Background nodes are disjoint from the core and never pointed to from
    # it, so no background edge can ever extend the reachable set.
    num_background = max(2, min(remaining, 4 * int(remaining**0.5) + 2))
    background = [f"b{i}" for i in range(num_background)]
    edges: set[tuple[str, str]] = set()
    while len(edges) < remaining:
        source = rng.randrange(num_background)
        target = rng.randrange(num_background)
        if source != target:
            edges.add((background[source], background[target]))
    for left, right in sorted(edges):
        facts.append(Atom("edge", (Constant(left), Constant(right))))
    for name in core[: num_node_facts // 2] + [
        Constant(b) for b in background[: num_node_facts - num_node_facts // 2]
    ]:
        facts.append(Atom("node", (name,)))
    # Top the budget up with extra node facts over fresh isolated constants
    # if the background pool was too small to absorb it.
    index = 0
    while len(facts) < num_facts:
        facts.append(Atom("node", (Constant(f"iso{index}"),)))
        index += 1
    return NormalProgram(rules), facts


# ---------------------------------------------------------------------------
# Query-rewriting benchmark — disjoint reachability chains
# ---------------------------------------------------------------------------


def chain_reachability_workload(
    num_chains: int,
    chain_length: int,
) -> tuple[DatalogPMProgram, Database]:
    """Disjoint reachability chains as a guarded Datalog± program + database.

    ``num_chains`` chains of ``chain_length`` edges each, with nodes named
    ``c<chain>_<index>``; rules:

    * ``source(X) → reach(X)``
    * ``edge(X, Y), reach(X) → reach(Y)``  (guarded by ``edge``)
    * ``node(X), not reach(X) → unreachable(X)``

    A query about one node of one chain (e.g. ``? reach(c0_{L})``) is
    *selective*: its magic-sets rewriting only grounds the target's own chain,
    so the rewritten-vs-unrewritten ground-rule ratio grows linearly with
    ``num_chains``.  This is the workload behind ``BENCH_query_rewrite.json``.
    Deterministic by construction.
    """
    x, y = Variable("X"), Variable("Y")
    program = DatalogPMProgram(
        [
            NTGD((Atom("source", (x,)),), Atom("reach", (x,)), label="seed"),
            NTGD(
                (Atom("edge", (x, y)), Atom("reach", (x,))),
                Atom("reach", (y,)),
                label="step",
            ),
            NTGD(
                (Atom("node", (x,)),),
                Atom("unreachable", (x,)),
                (Atom("reach", (x,)),),
                label="complement",
            ),
        ]
    )
    facts: list[Atom] = []
    for chain in range(num_chains):
        names = [f"c{chain}_{i}" for i in range(chain_length + 1)]
        facts.append(Atom("source", (Constant(names[0]),)))
        for left, right in zip(names, names[1:]):
            facts.append(Atom("edge", (Constant(left), Constant(right))))
        for name in names:
            facts.append(Atom("node", (Constant(name),)))
    return program, Database(facts)


# ---------------------------------------------------------------------------
# E3 — workloads with a growing schema (combined complexity)
# ---------------------------------------------------------------------------


def combined_complexity_workload(
    num_predicates: int,
    arity: int,
    *,
    num_constants: int = 2,
    chain_length: int = 3,
) -> tuple[DatalogPMProgram, Database]:
    """A deterministic family whose cost is driven by the *schema*, not the data.

    The guard predicate ``g`` has the given arity and is seeded with every
    tuple over ``num_constants`` constants (so the database alone grows as
    ``num_constants^arity`` — the combined-complexity effect of wide guards),
    plus:

    * an existential "shift" rule ``g(X₁…X_w) → ∃Z g(X₂…X_w, Z)`` that keeps
      the chase alive;
    * for each of the ``num_predicates`` unary predicates ``qᵢ`` a pair of
      mutually negative rules
      ``g(X₁…X_w), not q_{i+1}(X₁) → qᵢ(X₁)`` (indices cyclic), which makes
      the unfounded-set computation work harder as the schema grows.

    Used by experiment E3; deterministic by construction.
    """
    variables = [Variable(f"X{i}") for i in range(arity)]
    guard = Atom("g", tuple(variables))
    fresh = Variable("Z")
    shifted = Atom("g", tuple(variables[1:] + [fresh])) if arity > 0 else Atom("g", ())

    ntgds: list[NTGD] = []
    if arity > 0:
        ntgds.append(NTGD((guard,), shifted, label="shift"))
    for index in range(num_predicates):
        current = Atom(f"q{index}", (variables[0],) if arity else ())
        successor = Atom(f"q{(index + 1) % num_predicates}", (variables[0],) if arity else ())
        ntgds.append(NTGD((guard,), current, (successor,), label=f"cycle{index}"))

    constants = [Constant(f"c{i}") for i in range(num_constants)]
    facts: list[Atom] = []
    if arity > 0:
        import itertools as _it

        for combo in _it.product(constants, repeat=arity):
            facts.append(Atom("g", combo))
    else:
        facts.append(Atom("g", ()))
    # ``chain_length`` extra unary facts give the qᵢ predicates mixed support.
    for i in range(min(chain_length, num_constants)):
        facts.append(Atom("q0", (constants[i],)))
    return DatalogPMProgram(ntgds), Database(facts)


# ---------------------------------------------------------------------------
# E3 (auxiliary) — random guarded programs over a growing schema
# ---------------------------------------------------------------------------


def random_guarded_program(
    num_predicates: int,
    arity: int,
    num_rules: int,
    *,
    negation_prob: float = 0.3,
    existential_prob: float = 0.4,
    num_constants: int = 4,
    num_facts: int = 12,
    seed: int = 0,
) -> tuple[DatalogPMProgram, Database]:
    """A random guarded normal Datalog± program over a configurable schema.

    Each rule has a guard atom over a "wide" predicate mentioning all its
    variables, an optional extra positive atom, an optional negated atom and a
    head that reuses guard variables plus (with probability
    ``existential_prob``) one existential variable.  Used to scale the number
    of predicates and the arity for the combined-complexity experiment (E3).
    """
    rng = random.Random(seed)
    predicates = [f"q{i}" for i in range(num_predicates)]
    guard_pred = "g"  # dedicated wide guard predicate of the given arity
    variables = [Variable(f"X{i}") for i in range(arity)]

    ntgds: list[NTGD] = []
    for rule_index in range(num_rules):
        guard = Atom(guard_pred, tuple(variables))
        body_pos: list[Atom] = [guard]
        body_neg: list[Atom] = []
        if predicates and rng.random() < 0.5:
            extra_pred = rng.choice(predicates)
            extra_args = tuple(rng.choice(variables) for _ in range(1))
            body_pos.append(Atom(extra_pred, extra_args))
        if predicates and rng.random() < negation_prob:
            neg_pred = rng.choice(predicates)
            body_neg.append(Atom(neg_pred, (rng.choice(variables),)))
        head_pred = rng.choice(predicates) if predicates else guard_pred
        if rng.random() < existential_prob:
            head = Atom(head_pred, (rng.choice(variables),))
            # existential head over the guard predicate keeps the chase alive
            if rng.random() < 0.5:
                fresh = Variable("Z")
                head = Atom(guard_pred, tuple(variables[1:] + [fresh])[:arity])
        else:
            head = Atom(head_pred, (rng.choice(variables),))
        ntgds.append(NTGD(tuple(body_pos), head, tuple(body_neg), label=f"rnd{rule_index}"))

    constants = [Constant(f"c{i}") for i in range(num_constants)]
    facts: list[Atom] = []
    for _ in range(num_facts):
        facts.append(Atom(guard_pred, tuple(rng.choice(constants) for _ in range(arity))))
        if predicates:
            facts.append(Atom(rng.choice(predicates), (rng.choice(constants),)))
    return DatalogPMProgram(ntgds), Database(facts)


# ---------------------------------------------------------------------------
# E5 — a university ontology (LUBM flavour, with default negation)
# ---------------------------------------------------------------------------


def university_ontology(
    num_departments: int,
    students_per_department: int,
    *,
    advised_fraction: float = 0.5,
    seed: int = 0,
) -> Ontology:
    """A small LUBM-flavoured ontology with existentials and default negation.

    TBox (in DL-Lite_{R,⊓,not}):

    * ``Professor ⊑ ∃worksFor``                 (every professor works somewhere)
    * ``Student ⊑ ∃enrolledIn``                 (every student is enrolled)
    * ``∃advises⁻ ⊑ Advised``                   (someone advised by anybody is Advised)
    * ``Student ⊓ not Advised ⊑ ∃needsAdvisor`` (unadvised students need an advisor)
    * ``∃worksFor ⊑ Employee``
    * ``advises ⊑ mentors``                     (role inclusion)

    ABox: departments, professors, students, and ``advised_fraction`` of the
    students have an explicit advisor.
    """
    rng = random.Random(seed)
    ontology = Ontology()
    ontology.subclass("Professor", "exists WorksFor")
    ontology.subclass("Student", "exists EnrolledIn")
    ontology.subclass("exists Advises-", "Advised")
    ontology.subclass(["Student", ("not", "Advised")], "exists NeedsAdvisor")
    ontology.subclass("exists WorksFor", "Employee")
    ontology.subrole("Advises", "Mentors")

    for dept_index in range(num_departments):
        dept = f"dept{dept_index}"
        professor = f"prof{dept_index}"
        ontology.abox.assert_concept("Professor", professor)
        ontology.abox.assert_role("WorksFor", professor, dept)
        for student_index in range(students_per_department):
            student = f"student{dept_index}_{student_index}"
            ontology.abox.assert_concept("Student", student)
            ontology.abox.assert_role("EnrolledIn", student, dept)
            if rng.random() < advised_fraction:
                ontology.abox.assert_role("Advises", professor, student)
    return ontology
