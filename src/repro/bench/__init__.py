"""Workload generators and the measurement harness for the evaluation suite."""

from .generators import (
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
from .harness import fit_powerlaw_exponent, time_call

__all__ = [
    "combined_complexity_workload",
    "employment_ontology",
    "employment_workload",
    "paper_example_program",
    "random_guarded_program",
    "reachability_program",
    "university_ontology",
    "win_move_datalog_pm",
    "win_move_game",
    "fit_powerlaw_exponent",
    "time_call",
]
