"""Differential tests: every grounding backend is indistinguishable.

The per-candidate tuple matcher (:class:`repro.lp.grounding.SemiNaiveGrounder`)
is the retained oracle; the columnar hash-join backend
(:mod:`repro.lp.columnar`) must produce *set-identical* ground programs — the
same rules modulo insertion order, the same candidate atoms, the same
saturation/budget behaviour — and therefore identical well-founded models,
query answers and CLI output.  The suites here pin that equivalence on the
named workloads; :mod:`test_columnar_properties` does the same over random
programs.
"""

from __future__ import annotations

import pytest

from repro.bench.generators import (
    chain_reachability_workload,
    large_edb_reachability,
    reachability_program,
    win_move_game,
)
from repro.cli import main
from repro.core.engine import WellFoundedEngine
from repro.exceptions import GroundingError
from repro.lang.atoms import Atom, Literal
from repro.lang.program import NormalProgram
from repro.lang.skolem import skolemize_program
from repro.lang.rules import NormalRule
from repro.lang.terms import Constant, FunctionTerm, Variable
from repro.lp.columnar import BACKENDS, ColumnarGrounder, make_grounder
from repro.lp.grounding import SemiNaiveGrounder, relevant_grounding
from repro.lp.wfs import well_founded_model
from repro.rewrite.magic import ground_magic, rewrite_for_query
from repro.views import MaterializedEngine

X, Y = Variable("X"), Variable("Y")
NEW_BACKENDS = [b for b in BACKENDS if b != "tuple"]


def assert_backends_agree(program, extra_atoms=()):
    """Ground with every backend; pin rule sets, atoms and models identical."""
    grounders = {}
    for backend in BACKENDS:
        grounders[backend] = make_grounder(program, extra_atoms, backend=backend)
        grounders[backend].run()
    oracle = grounders["tuple"]
    oracle_rules = set(oracle.ground)
    oracle_model = well_founded_model(oracle.ground)
    for backend in NEW_BACKENDS:
        ground = grounders[backend].ground
        assert set(ground) == oracle_rules, backend
        assert ground.atoms() == oracle.ground.atoms(), backend
        assert grounders[backend].saturated == oracle.saturated, backend
        assert well_founded_model(ground) == oracle_model, backend
    return grounders


# ---------------------------------------------------------------------------
# Named workloads
# ---------------------------------------------------------------------------


def test_backends_agree_on_reachability():
    assert_backends_agree(reachability_program(24, seed=3))


def test_backends_agree_on_win_move():
    assert_backends_agree(win_move_game(30, seed=7))


def test_backends_agree_on_large_edb_workload():
    program, edb = large_edb_reachability(600, core_size=16, seed=1)
    assert len(edb) == 600
    grounders = assert_backends_agree(program, edb)
    # the reachable core is bounded by construction: exactly the chain derives
    reach = {
        a for a in grounders["tuple"].ground.head_atoms() if a.predicate == "reach"
    }
    assert len(reach) == 16


def test_backends_agree_on_skolem_heads():
    """Function terms in heads (the skolemized chase shape) intern correctly."""
    program = NormalProgram(
        [
            NormalRule(Atom("p", (Constant("a"),))),
            NormalRule(
                Atom("q", (FunctionTerm("f", (X,)),)), (Atom("p", (X,)),), ()
            ),
            NormalRule(Atom("r", (X,)), (Atom("q", (X,)),), (Atom("p", (X,)),)),
        ]
    )
    grounders = assert_backends_agree(program)
    atoms = grounders["columnar"].ground.atoms()
    assert Atom("q", (FunctionTerm("f", (Constant("a"),)),)) in atoms


def test_backends_agree_on_destructuring_bodies():
    """A non-variable body argument forces the per-rule tuple fallback."""
    pattern = Atom("q", (FunctionTerm("f", (X,)),))
    program = NormalProgram(
        [
            NormalRule(Atom("q", (FunctionTerm("f", (Constant("a"),)),))),
            NormalRule(Atom("r", (X,)), (pattern,), ()),
        ]
    )
    grounder = ColumnarGrounder(program)
    assert any(c.fallback for c in grounder._compiled)
    assert_backends_agree(program)


def test_backends_agree_on_repeated_variables_and_nullary():
    program = NormalProgram(
        [
            NormalRule(Atom("e", (Constant("a"), Constant("a")))),
            NormalRule(Atom("e", (Constant("a"), Constant("b")))),
            NormalRule(Atom("loop", (X,)), (Atom("e", (X, X)),), ()),
            NormalRule(Atom("any", ()), (Atom("loop", (X,)),), ()),
        ]
    )
    grounders = assert_backends_agree(program)
    assert Atom("any", ()) in grounders["columnar"].ground.atoms()


def test_backends_agree_on_mixed_arity_predicate():
    """The same predicate at different arities must not cross-join."""
    program = NormalProgram(
        [
            NormalRule(Atom("p", (Constant("a"),))),
            NormalRule(Atom("p", (Constant("a"), Constant("b")))),
            NormalRule(Atom("r", (X,)), (Atom("p", (X,)),), ()),
            NormalRule(Atom("s", (X, Y)), (Atom("p", (X, Y)),), ()),
        ]
    )
    grounders = assert_backends_agree(program)
    atoms = grounders["columnar"].ground.atoms()
    assert Atom("r", (Constant("a"),)) in atoms
    assert Atom("s", (Constant("a"), Constant("b"))) in atoms
    assert Atom("r", (Constant("b"),)) not in atoms


def test_backends_agree_on_empty_program():
    for backend in BACKENDS:
        grounder = make_grounder(NormalProgram([]), backend=backend)
        assert grounder.run()
        assert len(grounder.ground) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_non_ground_candidates_are_rejected_without_a_trace(backend):
    edge = Atom("edge", (Constant("a"), Constant("b")))
    loose = Atom("edge", (X, Constant("b")))
    program = NormalProgram(
        [NormalRule(edge), NormalRule(Atom("p", (X,)), (Atom("edge", (X, Y)),), ())]
    )
    with pytest.raises(GroundingError):
        make_grounder(program, [loose], backend=backend)
    grounder = make_grounder(program, backend=backend)
    atoms = set(grounder.index.atoms())
    with pytest.raises(GroundingError):
        grounder.reseed(loose)
    assert set(grounder.index.atoms()) == atoms and len(grounder.index) == 1
    if backend == "columnar":
        assert grounder.candidates == 1
    grounder.run()
    assert grounder.ground.atoms() == {edge, Atom("p", (Constant("a"),))}


# ---------------------------------------------------------------------------
# Single-driver rounds: a relation holding only delta rows drives the rule
# ---------------------------------------------------------------------------


Z = Variable("Z")
a, b, c, z = (Constant(n) for n in "abcz")


def _facts(*atoms):
    return [NormalRule(atom) for atom in atoms]


def test_single_driver_on_edb_only_body():
    program = NormalProgram(
        _facts(Atom("e", (a, b)), Atom("e", (b, c)), Atom("f", (b,)))
        + [NormalRule(Atom("p", (X, Y)), (Atom("e", (X, Y)), Atom("f", (Y,))), ())]
    )
    grounders = assert_backends_agree(program)
    assert Atom("p", (a, b)) in grounders["columnar"].ground.atoms()


def test_single_driver_on_self_join_over_new_rows():
    program = NormalProgram(
        _facts(Atom("e", (a, b)), Atom("e", (b, c)), Atom("e", (c, a)))
        + [NormalRule(Atom("t", (X, Z)), (Atom("e", (X, Y)), Atom("e", (Y, Z))), ())]
    )
    grounders = assert_backends_agree(program)
    assert len(grounders["columnar"].ground) == 6


def test_single_driver_with_rows_gained_earlier_in_the_round():
    """``q`` gains rows from the first rule while the second still runs."""
    program = NormalProgram(
        _facts(Atom("e", (a, b)), Atom("e", (b, c)), Atom("q", (z,)))
        + _facts(Atom("f", (a,)), Atom("f", (b,)), Atom("f", (z,)))
        + [
            NormalRule(Atom("q", (X,)), (Atom("e", (X, Y)),), ()),
            NormalRule(Atom("r", (X,)), (Atom("q", (X,)), Atom("f", (X,))), ()),
            NormalRule(Atom("s", (X, Y)), (Atom("q", (X,)), Atom("q", (Y,))), ()),
        ]
    )
    grounders = assert_backends_agree(program)
    atoms = grounders["columnar"].ground.atoms()
    assert {Atom("r", (t,)) for t in (a, b, z)} <= atoms


def test_single_driver_on_empty_body_relation():
    program = NormalProgram(
        _facts(Atom("e", (a, b)))
        + [NormalRule(Atom("u", (X,)), (Atom("e", (X, Y)), Atom("missing", (Y,))), ())]
    )
    grounders = assert_backends_agree(program)
    assert len(grounders["columnar"].ground) == 1


@pytest.mark.parametrize("backend", NEW_BACKENDS)
def test_single_driver_on_first_fact_of_a_new_predicate(backend):
    program = NormalProgram(
        _facts(Atom("e", (a, b)), Atom("e", (b, c)))
        + [NormalRule(Atom("p", (X,)), (Atom("e", (X, Y)), Atom("g", (Y,))), ())]
    )
    oracle = SemiNaiveGrounder(program)
    grounder = make_grounder(program, backend=backend)
    for g in (oracle, grounder):
        assert g.run()
        g.add_fact(Atom("g", (c,)))
        assert g.run()
    assert set(grounder.delta_rules()) == set(oracle.delta_rules())
    assert set(grounder.ground) == set(oracle.ground)
    assert Atom("p", (b,)) in grounder.ground.atoms()


def test_magic_guard_drives_round_one(monkeypatch):
    """Round 1 of the magic grounding scans no ``edge`` delta row."""
    driven: list[tuple[int, str]] = []
    original = ColumnarGrounder._run_plan_dict

    def spy(self, plan, *args):
        driven.append((self.rounds, plan.delta_key[0]))
        return original(self, plan, *args)

    monkeypatch.setattr(ColumnarGrounder, "_run_plan_dict", spy)

    program, database = chain_reachability_workload(64, 24)
    rules = skolemize_program(program).rules()
    plan = rewrite_for_query(rules, [Literal(Atom("reach", (Constant("c5_24"),)), True)])
    grounding = ground_magic(plan, database, backend="columnar")
    oracle = ground_magic(plan, database, backend="tuple")
    assert set(grounding.ground) == set(oracle.ground)
    first_round = [predicate for round_, predicate in driven if round_ == 1]
    assert first_round, "round 1 ran no plan"
    assert "edge" not in first_round


# ---------------------------------------------------------------------------
# Budgets and resumability
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", NEW_BACKENDS)
def test_budget_raise_and_resume_matches_tuple(backend):
    """max_rounds is cumulative across calls and raises like the oracle."""
    program = NormalProgram(
        [
            NormalRule(Atom("p", (Constant("a"),))),
            NormalRule(Atom("p", (FunctionTerm("f", (X,)),)), (Atom("p", (X,)),), ()),
        ]
    )
    oracle = SemiNaiveGrounder(program)
    grounder = make_grounder(program, backend=backend)
    assert not grounder.run(max_rounds=3, raise_on_budget=False)
    assert not oracle.run(max_rounds=3, raise_on_budget=False)
    assert set(grounder.ground) == set(oracle.ground)
    assert grounder.rounds == oracle.rounds == 3
    # resuming with the same cumulative budget makes no progress but raises
    with pytest.raises(GroundingError):
        grounder.run(max_rounds=3)
    # a raised budget resumes from the partial state
    assert not grounder.run(max_rounds=5, raise_on_budget=False)
    assert not oracle.run(max_rounds=5, raise_on_budget=False)
    assert set(grounder.ground) == set(oracle.ground)
    assert grounder.delta_rules() == oracle.delta_rules()


@pytest.mark.parametrize("backend", NEW_BACKENDS)
def test_atom_budget_raises(backend):
    program = NormalProgram(
        [
            NormalRule(Atom("p", (Constant("a"),))),
            NormalRule(Atom("p", (FunctionTerm("f", (X,)),)), (Atom("p", (X,)),), ()),
        ]
    )
    with pytest.raises(GroundingError):
        make_grounder(program, backend=backend).run(max_atoms=4)


@pytest.mark.parametrize("backend", NEW_BACKENDS)
def test_non_ground_extra_atom_rejected(backend):
    """The columnar backend validates candidate atoms eagerly."""
    with pytest.raises(GroundingError):
        make_grounder(NormalProgram([]), [Atom("p", (X,))], backend=backend)


#: ``"sqlite"`` is not a backend either; it must fail like any unknown name.
UNKNOWN_BACKENDS = ("pandas", "sqlite")


def test_unknown_backend_rejected():
    for backend in UNKNOWN_BACKENDS:
        with pytest.raises(ValueError):
            make_grounder(NormalProgram([]), backend=backend)
        with pytest.raises(ValueError):
            relevant_grounding(NormalProgram([]), backend=backend)


# ---------------------------------------------------------------------------
# Magic-sets path: the magic guard acts as a semi-join filter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", NEW_BACKENDS)
def test_ground_magic_agrees_across_backends(backend):
    program, database = chain_reachability_workload(3, 6)
    rules = skolemize_program(program).rules()
    plan = rewrite_for_query(rules, [Literal(Atom("reach", (Constant("c0_6"),)), True)])
    oracle = ground_magic(plan, database, backend="tuple")
    grounding = ground_magic(plan, database, backend=backend)
    assert set(grounding.ground) == set(oracle.ground)
    assert grounding.ground.atoms() == oracle.ground.atoms()


# ---------------------------------------------------------------------------
# Engine and CLI threading
# ---------------------------------------------------------------------------


QUERIES = ["? reach(c0_6)", "? reach(X)", "? node(c1_6), not reach(c1_6)"]


@pytest.mark.parametrize("backend", NEW_BACKENDS)
def test_engine_answers_and_stats_across_backends(backend):
    program, database = chain_reachability_workload(2, 6)
    oracle = WellFoundedEngine(program, database, backend="tuple")
    engine = WellFoundedEngine(program, database, backend=backend)
    assert engine.backend == backend
    for rewrite in (False, True):
        for query in QUERIES:
            assert engine.holds(query, rewrite=rewrite) == oracle.holds(
                query, rewrite=rewrite
            ), (query, rewrite)
        assert engine.answer("? reach(X)", rewrite=rewrite) == oracle.answer(
            "? reach(X)", rewrite=rewrite
        )
    assert engine.last_query_stats["backend"] == backend
    assert oracle.last_query_stats["backend"] == "tuple"


def test_engine_rejects_unknown_backend():
    program, database = chain_reachability_workload(1, 2)
    for backend in UNKNOWN_BACKENDS:
        with pytest.raises(ValueError):
            WellFoundedEngine(program, database, backend=backend)
        with pytest.raises(ValueError):
            MaterializedEngine(program, database, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_cli_backend_flag(tmp_path, capsys, backend):
    source = tmp_path / "chains.dlp"
    lines = [
        "source(X) -> reach(X).",
        "edge(X, Y), reach(X) -> reach(Y).",
        "node(X), not reach(X) -> unreachable(X).",
    ]
    for chain in range(2):
        lines.append(f"source(c{chain}_0).")
        for i in range(4):
            lines.append(f"edge(c{chain}_{i}, c{chain}_{i + 1}).")
        for i in range(5):
            lines.append(f"node(c{chain}_{i}).")
    source.write_text("\n".join(lines) + "\n")
    exit_code = main(
        [
            str(source),
            "--backend",
            backend,
            "--rewrite",
            "--query",
            "? reach(c0_4)",
            "--query",
            "? unreachable(c0_4)",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "? reach(c0_4) : yes" in captured
    assert "? unreachable(c0_4) : no" in captured
