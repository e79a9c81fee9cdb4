"""End-to-end replay of the paper's running example (Examples 4, 6 and 9).

The expected truth values are taken verbatim from the paper:

* ``R(0, 1, f(0,0,1)) ∈ WFS(D, Σ)``        (Example 4),
* ``P(0, 1) ∈ WFS(D, Σ)``                   (Example 4),
* ``¬Q(1) ∈ WFS(D, Σ)``                     (Example 4),
* ``¬S(0)`` and ``T(0) ∈ WFS(D, Σ)``        (Example 9 — the literals that only
  appear after transfinitely many Ŵ_P iterations on the infinite forest),
* ``P(0, t_j)`` true and ``Q(t_j)`` false for every chain term ``t_j``
  materialised by the engine (Example 9's characterisation of Ŵ_{P,ω+2}).
"""

from __future__ import annotations

from repro.lang.atoms import Atom
from repro.lang.parser import parse_atom
from repro.lang.terms import Constant, FunctionTerm
from repro.core.engine import WellFoundedEngine
from repro.bench.generators import paper_example_program


def chain_terms(depth):
    """t_0 = 0, t_1 = 1, t_{i+2} = sk(0, t_i, t_{i+1})."""
    terms = [Constant("0"), Constant("1")]
    for _ in range(depth):
        terms.append(FunctionTerm("sk_r0_W", (Constant("0"), terms[-2], terms[-1])))
    return terms


class TestExample4Literals:
    def test_database_atoms_are_true(self, paper_example_engine):
        model = paper_example_engine.model()
        assert model.is_true(parse_atom("r(0,0,1)"))
        assert model.is_true(parse_atom("p(0,0)"))

    def test_first_chase_step_atom_is_true(self, paper_example_engine):
        model = paper_example_engine.model()
        terms = chain_terms(1)
        assert model.is_true(Atom("r", (Constant("0"), Constant("1"), terms[2])))

    def test_q1_is_false_because_of_the_una(self, paper_example_engine):
        # No rule can derive an atom R(*, *, 1): Skolem terms differ from the
        # constant 1 by the UNA, so the only rule instance for Q(1) is blocked
        # by P(0,0) being true — exactly the argument of Example 4.
        model = paper_example_engine.model()
        assert model.is_false(parse_atom("q(1)"))

    def test_p01_is_true(self, paper_example_engine):
        assert paper_example_engine.model().is_true(parse_atom("p(0,1)"))


class TestExample9TransfiniteLiterals:
    def test_s0_is_false_and_t0_is_true(self, paper_example_engine):
        model = paper_example_engine.model()
        assert model.is_false(parse_atom("s(0)"))
        assert model.is_true(parse_atom("t(0)"))

    def test_chain_literals_up_to_the_materialised_depth(self, paper_example_engine):
        model = paper_example_engine.model()
        terms = chain_terms(model.depth - 2)
        zero = Constant("0")
        for j in range(1, len(terms) - 1):
            assert model.is_true(Atom("p", (zero, terms[j]))), f"p(0, t_{j}) should be true"
            assert model.is_false(Atom("q", (terms[j],))), f"q(t_{j}) should be false"

    def test_model_is_total_on_the_segment(self, paper_example_engine):
        # Example 9's well-founded model decides every atom of the chain.
        model = paper_example_engine.model()
        assert model.undefined_atoms() == frozenset()

    def test_engine_converges_quickly(self, paper_example_engine):
        model = paper_example_engine.model()
        assert model.converged
        assert model.depth <= 7
        assert model.iterations <= 3


class TestExampleQueries:
    def test_boolean_queries(self, paper_example_engine):
        engine = paper_example_engine
        assert engine.holds("? t(0)")
        assert engine.holds("? t(X), not s(X)")
        assert engine.holds("? p(0, X), not q(X)")
        assert not engine.holds("? s(X)")
        assert not engine.holds("? q(1)")

    def test_atom_and_literal_queries(self, paper_example_engine):
        from repro.lang.atoms import Literal

        engine = paper_example_engine
        assert engine.holds(parse_atom("t(0)"))
        assert engine.holds(Literal(parse_atom("s(0)"), False))
        assert not engine.holds(Literal(parse_atom("t(0)"), False))

    def test_answer_returns_constant_tuples_only_by_default(self, paper_example_engine):
        answers = paper_example_engine.answer("? p(0, Y)")
        assert (Constant("0"),) in answers
        assert (Constant("1"),) in answers
        assert all(isinstance(t, Constant) for tup in answers for t in tup)

    def test_answer_can_include_nulls_on_request(self, paper_example_engine):
        answers = paper_example_engine.answer("? p(0, Y)", constants_only=False)
        assert any(isinstance(tup[0], FunctionTerm) for tup in answers)

    def test_literal_value_api(self, paper_example_engine):
        assert paper_example_engine.literal_value(parse_atom("t(0)")) == "true"
        assert paper_example_engine.literal_value(parse_atom("s(0)")) == "false"


class TestApiEquivalence:
    def test_programmatic_and_textual_construction_agree(self, paper_example_engine):
        program, database = paper_example_program()
        engine = WellFoundedEngine(program, database)
        left = paper_example_engine.model()
        right = engine.model()
        for atom_text in ("p(0,0)", "p(0,1)", "q(1)", "s(0)", "t(0)"):
            atom = parse_atom(atom_text)
            assert left.is_true(atom) == right.is_true(atom)
            assert left.is_false(atom) == right.is_false(atom)

    def test_extra_chains_behave_like_isomorphic_copies(self):
        program, database = paper_example_program(extra_chains=2)
        engine = WellFoundedEngine(program, database)
        model = engine.model()
        assert model.is_true(parse_atom("t(0)"))
        assert model.is_true(parse_atom("t(c1)"))
        assert model.is_true(parse_atom("t(c2)"))
        assert model.is_false(parse_atom("s(c1)"))
