"""Quickstart: define a guarded normal Datalog± program, compute its
well-founded model and ask queries.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import WellFoundedEngine, parse_atom

# A small knowledge base about a research group.  It mixes the three features
# the paper is about: existential rules (every scientist authors *something*),
# default negation (papers not known to be retracted count as valid), and a
# database of plain facts.
PROGRAM = """
% TBox-style rules ---------------------------------------------------------
conferencePaper(X) -> article(X).
scientist(X) -> exists Y isAuthorOf(X, Y).
isAuthorOf(X, Y), not retracted(Y) -> hasValidPublication(X).
article(X), not openAccess(X) -> paywalled(X).

% Database -----------------------------------------------------------------
scientist(ada).
scientist(grace).
conferencePaper(pods13).
openAccess(pods13).
isAuthorOf(grace, pods13).
"""


def main() -> None:
    engine = WellFoundedEngine(PROGRAM)
    model = engine.model()

    print("Well-founded model computed.")
    # depth is None on the finite plan: the program's chase terminates, so
    # its finite grounding was solved directly, without deepening
    plan = "finite grounding" if model.depth is None else f"chase to depth {model.depth}"
    print(f"  plan             : {plan}")
    print(f"  converged        : {model.converged}")
    print(f"  true atoms       : {len(model.true_atoms())}")
    print(f"  false atoms      : {len(model.false_atoms())}")
    print(f"  undefined atoms  : {len(model.undefined_atoms())}")

    print("\nBoolean queries (NBCQs):")
    for query in (
        "? isAuthorOf(ada, Y)",                       # existential witness (a null)
        "? hasValidPublication(grace)",                # uses default negation
        "? article(pods13), not paywalled(pods13)",    # negation over derived atoms
        "? retracted(pods13)",
    ):
        print(f"  {query:48s} -> {engine.holds(query)}")

    print("\nCertain answers to 'which articles are open access?':")
    for answer in sorted(engine.answer("? article(X), openAccess(X)")):
        print("  ", ", ".join(str(term) for term in answer))

    print("\nTruth values of selected ground atoms:")
    for text in ("article(pods13)", "paywalled(pods13)", "hasValidPublication(ada)"):
        print(f"  {text:32s} -> {engine.literal_value(parse_atom(text))}")


if __name__ == "__main__":
    main()
