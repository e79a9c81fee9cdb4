"""Tests for the workload generators (:mod:`repro.bench.generators`)."""

from __future__ import annotations

from repro.lang.parser import parse_atom
from repro.bench.generators import (
    combined_complexity_workload,
    employment_ontology,
    employment_workload,
    paper_example_program,
    random_guarded_program,
    reachability_program,
    university_ontology,
    win_move_datalog_pm,
    win_move_game,
)
from repro.lp.grounding import relevant_grounding
from repro.lp.stratification import is_stratified
from repro.lp.wfs import well_founded_model


class TestPaperExample:
    def test_base_instance_matches_example_4(self):
        program, database = paper_example_program()
        assert len(program) == 5
        assert parse_atom("r(0,0,1)") in database
        assert parse_atom("p(0,0)") in database
        assert program.is_guarded()

    def test_extra_chains_add_isomorphic_seed_facts(self):
        _, database = paper_example_program(extra_chains=3)
        assert len(database) == 2 + 2 * 3
        assert parse_atom("p(c3, c3)") in database


class TestEmploymentWorkload:
    def test_determinism(self):
        left = employment_ontology(25, seed=11)
        right = employment_ontology(25, seed=11)
        assert str(left) == str(right)

    def test_database_grows_linearly_with_persons(self):
        _, small = employment_workload(10, seed=1)
        _, large = employment_workload(40, seed=1)
        assert len(large) > len(small)

    def test_translated_program_is_guarded_and_uses_negation(self):
        program, _ = employment_workload(5, seed=1)
        assert program.is_guarded()
        assert not program.is_positive()

    def test_fraction_parameters_shape_the_abox(self):
        all_employed, _ = employment_workload(20, employed_fraction=1.0, seed=2)
        _, database = employment_workload(20, employed_fraction=1.0, seed=2)
        employed = [a for a in database if a.predicate == "employed"]
        persons = [a for a in database if a.predicate == "person"]
        assert len(employed) == len(persons) == 20


class TestWinMove:
    def test_lp_and_datalog_pm_versions_share_the_same_graph(self):
        lp_program = win_move_game(20, seed=5)
        program, database = win_move_datalog_pm(20, seed=5)
        lp_moves = {r.head for r in lp_program if r.is_fact()}
        assert lp_moves == set(database)

    def test_graph_has_dead_ends_to_make_the_game_interesting(self):
        lp_program = win_move_game(40, seed=9)
        ground = relevant_grounding(lp_program)
        model = well_founded_model(ground)
        wins = [a for a in model.universe() if a.predicate == "win"]
        assert any(model.is_true(a) for a in wins)
        assert any(model.is_false(a) for a in wins)

    def test_win_move_is_not_stratified(self):
        assert not is_stratified(win_move_game(10, seed=0))


class TestOtherGenerators:
    def test_reachability_program_is_stratified(self):
        program = reachability_program(15, seed=2)
        assert is_stratified(program)
        model = well_founded_model(relevant_grounding(program))
        assert model.is_total()
        assert model.is_true(parse_atom("reach(s)"))

    def test_random_guarded_program_is_guarded_and_deterministic(self):
        left, left_db = random_guarded_program(3, 2, 5, seed=4)
        right, right_db = random_guarded_program(3, 2, 5, seed=4)
        assert [str(r) for r in left] == [str(r) for r in right]
        assert left_db == right_db
        assert left.is_guarded()

    def test_random_guarded_program_scales_with_parameters(self):
        small, _ = random_guarded_program(2, 2, 3, seed=1)
        large, _ = random_guarded_program(2, 2, 9, seed=1)
        assert len(large) > len(small)

    def test_combined_complexity_workload_scales_with_the_schema(self):
        small_program, small_db = combined_complexity_workload(2, 2)
        large_program, large_db = combined_complexity_workload(4, 3)
        assert small_program.is_guarded() and large_program.is_guarded()
        assert len(large_program) > len(small_program)
        assert len(large_db) > len(small_db)
        assert large_program.max_arity() == 3

    def test_combined_complexity_workload_runs_under_the_engine(self):
        from repro.core.engine import WellFoundedEngine

        program, database = combined_complexity_workload(2, 2)
        model = WellFoundedEngine(program, database, max_depth=9).model()
        assert model.true_atoms()

    def test_university_ontology_shape(self):
        ontology = university_ontology(2, 4, seed=6)
        individuals = ontology.abox.individuals()
        assert "prof0" in individuals and "student1_3" in individuals
        assert "Student" in ontology.concept_names()
        assert "Advises" in ontology.role_names()
