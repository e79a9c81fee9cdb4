"""repro — Well-founded semantics for guarded normal Datalog± under the UNA.

A from-scratch Python implementation of

    André Hernich, Clemens Kupke, Thomas Lukasiewicz, Georg Gottlob.
    "Well-Founded Semantics for Extended Datalog and Ontological Reasoning."
    PODS 2013.

The public API re-exported here covers the common workflow:

>>> from repro import parse_program, parse_query, WellFoundedEngine
>>> program, database = parse_program('''
...     scientist(X) -> exists Y isAuthorOf(X, Y).
...     scientist(john).
... ''')
>>> engine = WellFoundedEngine(program, database)
>>> engine.holds(parse_query("? isAuthorOf(john, Y)"))
True

Sub-packages
------------
``repro.lang``   terms, atoms, rules, programs, queries, parsing, Skolemisation
``repro.lp``     classical WFS substrate for finite ground normal programs
``repro.chase``  guarded chase forests, atom types, locality machinery
``repro.core``   the paper's contribution: WFS for guarded normal Datalog±
``repro.rewrite`` magic-sets query-driven rewriting for goal-directed answering
``repro.views``  materialized-view maintenance (DRed/counting) over warm state
``repro.dl``     DL-Lite_{R,⊓,not} front-end translated to Datalog±
``repro.bench``  workload generators and the measurement harness
"""

from .exceptions import (
    ConvergenceError,
    GroundingError,
    IllFormedRuleError,
    InconsistentInterpretationError,
    NotGuardedError,
    NotStratifiedError,
    ParseError,
    ReproError,
    TranslationError,
)
from .lang import (
    Atom,
    Constant,
    ConjunctiveQuery,
    Database,
    DatalogPMProgram,
    FunctionTerm,
    Literal,
    NTGD,
    NormalBCQ,
    NormalProgram,
    NormalRule,
    Schema,
    Substitution,
    TGD,
    Variable,
    evaluate_query,
    parse_atom,
    parse_database,
    parse_literal,
    parse_normal_program,
    parse_normal_rule,
    parse_ntgd,
    parse_program,
    parse_query,
    parse_term,
    query_holds,
    skolemize_ntgd,
    skolemize_program,
)
from .lp import (
    GroundProgram,
    Interpretation,
    RuleIndex,
    WellFoundedModel,
    perfect_model,
    relevant_grounding,
    stable_models,
    well_founded_model,
    well_founded_model_alternating,
    well_founded_model_naive,
)

__version__ = "0.1.0"

__all__ = [
    # exceptions
    "ReproError",
    "ParseError",
    "IllFormedRuleError",
    "NotGuardedError",
    "NotStratifiedError",
    "GroundingError",
    "ConvergenceError",
    "InconsistentInterpretationError",
    "TranslationError",
    # language
    "Atom",
    "Constant",
    "ConjunctiveQuery",
    "Database",
    "DatalogPMProgram",
    "FunctionTerm",
    "Literal",
    "NTGD",
    "NormalBCQ",
    "NormalProgram",
    "NormalRule",
    "Schema",
    "Substitution",
    "TGD",
    "Variable",
    "evaluate_query",
    "query_holds",
    "skolemize_ntgd",
    "skolemize_program",
    "parse_atom",
    "parse_database",
    "parse_literal",
    "parse_normal_program",
    "parse_normal_rule",
    "parse_ntgd",
    "parse_program",
    "parse_query",
    "parse_term",
    # lp substrate
    "GroundProgram",
    "Interpretation",
    "RuleIndex",
    "WellFoundedModel",
    "perfect_model",
    "relevant_grounding",
    "stable_models",
    "well_founded_model",
    "well_founded_model_alternating",
    "well_founded_model_naive",
    # lazily re-exported flagships (see __getattr__)
    "MaterializedEngine",
    "WellFoundedEngine",
    "answer_query",
    "holds_under_wfs",
    "StratifiedDatalogPM",
    "Ontology",
    "OntologyReasoner",
    "translate_ontology",
    "rewrite_for_query",
    "ground_magic",
    "MagicPlan",
]


def __getattr__(name: str):
    """Lazily expose the heavier sub-packages' flagship classes.

    ``WellFoundedEngine``, ``answer_query`` (from :mod:`repro.core`) and the
    DL front-end (:mod:`repro.dl`) import the chase machinery; importing them
    lazily keeps ``import repro`` cheap for users who only need the language
    or LP layers.
    """
    if name in (
        "WellFoundedEngine",
        "answer_query",
        "holds_under_wfs",
        "StratifiedDatalogPM",
    ):
        from . import core

        return getattr(core, name)
    if name == "MaterializedEngine":
        from . import views

        return views.MaterializedEngine
    if name in ("Ontology", "OntologyReasoner", "translate_ontology"):
        from . import dl

        return getattr(dl, name)
    if name in ("rewrite_for_query", "ground_magic", "MagicPlan"):
        from . import rewrite

        return getattr(rewrite, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
