"""Textual syntax for programs, databases and queries.

The library is fully usable through its Python API, but a small, readable
surface syntax makes examples, tests and benchmarks far easier to write and
audit against the paper.  The grammar (whitespace-insensitive)::

    program     := (statement)*
    statement   := rule "." | fact "." | comment
    fact        := atom
    rule        := body "->" head
    body        := literal ("," literal)*
    literal     := atom | "not" atom
    head        := ["exists" varlist] atom          (for Datalog± NTGDs)
    query       := "?" literal ("," literal)*       (an NBCQ)
    atom        := predicate "(" term ("," term)* ")" | predicate
    term        := variable | constant | function "(" term ("," term)* ")"
    variable    := identifier starting with an upper-case letter or "_"
    constant    := identifier starting with a lower-case letter, a digit
                   sequence, or a single-quoted string
    comment     := "%" … end of line   |   "#" … end of line

Example (the paper's Example 1)::

    conferencePaper(X) -> article(X).
    scientist(X) -> exists Y isAuthorOf(X, Y).
    scientist(john).

and the BCQ "does John author something?" is written ``? isAuthorOf(john, Y)``.
"""

from __future__ import annotations

import re
from typing import Optional

from ..exceptions import ParseError
from .atoms import Atom, Literal
from .program import Database, DatalogPMProgram, NormalProgram
from .queries import NormalBCQ
from .rules import NTGD, NormalRule
from .terms import Constant, FunctionTerm, Term, Variable

__all__ = [
    "parse_term",
    "parse_atom",
    "parse_literal",
    "parse_query",
    "parse_ntgd",
    "parse_normal_rule",
    "parse_program",
    "parse_normal_program",
    "parse_database",
]


_TOKEN_REGEX = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>[%#][^\n]*)
  | (?P<ARROW>->)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<DOT>\.)
  | (?P<QMARK>\?)
  | (?P<STRING>'[^']*')
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<NUMBER>\d+)
    """,
    re.VERBOSE,
)

_KEYWORD_NOT = "not"
_KEYWORD_EXISTS = "exists"


class _Token:
    """A single token with its kind, text and position (for error messages)."""

    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int):
        self.kind = kind
        self.text = text
        self.position = position

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}@{self.position})"


def _tokenize(text: str) -> list[_Token]:
    """Tokenise *text*, dropping whitespace and comments."""
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        matched = _TOKEN_REGEX.match(text, position)
        if matched is None:
            raise ParseError(
                f"unexpected character {text[position]!r} at offset {position}",
                text=text,
                position=position,
            )
        kind = matched.lastgroup or ""
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, matched.group(), position))
        position = matched.end()
    return tokens


class _Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token utilities -----------------------------------------------------

    def peek(self) -> Optional[_Token]:
        """The next token, or ``None`` at end of input."""
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self) -> _Token:
        """Consume and return the next token."""
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input", text=self.text, position=len(self.text))
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        """Consume a token of the given kind or raise a parse error."""
        token = self.peek()
        if token is None or token.kind != kind:
            found = token.text if token else "end of input"
            position = token.position if token else len(self.text)
            raise ParseError(
                f"expected {kind} but found {found!r} at offset {position}",
                text=self.text,
                position=position,
            )
        return self.advance()

    def at_end(self) -> bool:
        """``True`` iff all tokens have been consumed."""
        return self.index >= len(self.tokens)

    def error(self, message: str) -> ParseError:
        """Build a :class:`ParseError` at the current position."""
        token = self.peek()
        position = token.position if token else len(self.text)
        return ParseError(f"{message} at offset {position}", text=self.text, position=position)

    # -- grammar -------------------------------------------------------------

    def parse_term(self) -> Term:
        """term := variable | constant | function(term, ...)"""
        token = self.advance()
        if token.kind == "NUMBER":
            return Constant(token.text)
        if token.kind == "STRING":
            return Constant(token.text[1:-1])
        if token.kind != "NAME":
            raise self.error(f"expected a term, found {token.text!r}")
        name = token.text
        nxt = self.peek()
        if nxt is not None and nxt.kind == "LPAREN":
            # function term
            self.advance()
            args = [self.parse_term()]
            while self.peek() is not None and self.peek().kind == "COMMA":
                self.advance()
                args.append(self.parse_term())
            self.expect("RPAREN")
            return FunctionTerm(name, tuple(args))
        if name[0].isupper() or name[0] == "_":
            return Variable(name)
        return Constant(name)

    def parse_atom(self) -> Atom:
        """atom := predicate | predicate(term, ...)"""
        token = self.expect("NAME")
        predicate = token.text
        nxt = self.peek()
        if nxt is None or nxt.kind != "LPAREN":
            return Atom(predicate, ())
        self.advance()
        args = [self.parse_term()]
        while self.peek() is not None and self.peek().kind == "COMMA":
            self.advance()
            args.append(self.parse_term())
        self.expect("RPAREN")
        return Atom(predicate, tuple(args))

    def parse_literal(self) -> Literal:
        """literal := atom | "not" atom"""
        token = self.peek()
        if token is not None and token.kind == "NAME" and token.text == _KEYWORD_NOT:
            self.advance()
            return Literal(self.parse_atom(), False)
        return Literal(self.parse_atom(), True)

    def parse_literal_list(self) -> list[Literal]:
        """literal ("," literal)*"""
        literals = [self.parse_literal()]
        while self.peek() is not None and self.peek().kind == "COMMA":
            self.advance()
            literals.append(self.parse_literal())
        return literals

    def parse_head(self) -> tuple[list[Variable], Atom]:
        """head := ["exists" var ("," var)*] atom"""
        existentials: list[Variable] = []
        token = self.peek()
        if token is not None and token.kind == "NAME" and token.text == _KEYWORD_EXISTS:
            self.advance()
            while True:
                var_token = self.expect("NAME")
                if not (var_token.text[0].isupper() or var_token.text[0] == "_"):
                    raise self.error(f"existential variable expected, found {var_token.text!r}")
                existentials.append(Variable(var_token.text))
                nxt = self.peek()
                # A comma may separate either further variables or start of nothing;
                # a variable list is followed by the head atom (a NAME + LPAREN).
                if nxt is not None and nxt.kind == "COMMA":
                    after = self.tokens[self.index + 1] if self.index + 1 < len(self.tokens) else None
                    if after is not None and after.kind == "NAME" and _looks_like_variable(after.text):
                        # could still be the head atom if it has no parentheses; require
                        # that a variable list element is followed by "," or a NAME that
                        # itself is followed by "(" (the head atom).
                        after_after = (
                            self.tokens[self.index + 2] if self.index + 2 < len(self.tokens) else None
                        )
                        if after_after is not None and after_after.kind == "LPAREN":
                            break
                        self.advance()
                        continue
                break
        atom = self.parse_atom()
        return existentials, atom

    def parse_statement(
        self,
    ) -> "Atom | tuple[list[Literal], list[Variable], Atom]":
        """statement := (body "->" head | atom) "."

        Returns either an :class:`Atom` (for a fact) or a raw rule tuple
        ``(body_literals, existential_variables, head_atom)``; the public
        entry points turn the tuple into an :class:`NTGD` or a
        :class:`NormalRule` as appropriate (NTGDs reject function terms,
        normal rules reject existential variables).
        """
        start_index = self.index
        literals = self.parse_literal_list()
        token = self.peek()
        if token is not None and token.kind == "ARROW":
            self.advance()
            existentials, head = self.parse_head()
            self.expect("DOT")
            return (literals, existentials, head)
        if token is not None and token.kind == "DOT" and len(literals) == 1 and literals[0].positive:
            # a fact: its one positive literal is the atom
            self.advance()
            return literals[0].atom
        # not a well-formed fact: parse it again as one for the error message
        self.index = start_index
        atom = self.parse_atom()
        self.expect("DOT")
        return atom

    def parse_query(self) -> NormalBCQ:
        """query := "?" literal ("," literal)*"""
        self.expect("QMARK")
        literals = self.parse_literal_list()
        if not self.at_end():
            token = self.peek()
            if token is not None and token.kind == "DOT":
                self.advance()
        if not self.at_end():
            raise self.error("unexpected trailing input after query")
        return NormalBCQ.from_literals(literals)


def _looks_like_variable(name: str) -> bool:
    """Heuristic used only inside the 'exists' variable-list parser."""
    return bool(name) and (name[0].isupper() or name[0] == "_")


def _build_ntgd(raw: "tuple[list[Literal], list[Variable], Atom]") -> NTGD:
    """Turn a raw rule tuple from :meth:`_Parser.parse_statement` into an NTGD."""
    literals, _existentials, head = raw
    body_pos = tuple(l.atom for l in literals if l.positive)
    body_neg = tuple(l.atom for l in literals if not l.positive)
    return NTGD(body_pos, head, body_neg)


def _build_normal_rule(
    raw: "tuple[list[Literal], list[Variable], Atom]", text: str
) -> NormalRule:
    """Turn a raw rule tuple into a normal logic-programming rule."""
    literals, existentials, head = raw
    body_pos = tuple(l.atom for l in literals if l.positive)
    body_neg = tuple(l.atom for l in literals if not l.positive)
    head_vars = head.variables()
    body_vars = set().union(*(a.variables() for a in body_pos)) if body_pos else set()
    if existentials or (head_vars - body_vars):
        raise ParseError(
            f"normal rules must not have existential head variables: {text.strip()}", text=text
        )
    return NormalRule(head, body_pos, body_neg)


# ---------------------------------------------------------------------------
# Public parsing entry points
# ---------------------------------------------------------------------------


def parse_term(text: str) -> Term:
    """Parse a single term."""
    parser = _Parser(text)
    term = parser.parse_term()
    if not parser.at_end():
        raise parser.error("unexpected trailing input after term")
    return term


def parse_atom(text: str) -> Atom:
    """Parse a single atom."""
    parser = _Parser(text)
    atom = parser.parse_atom()
    if not parser.at_end():
        raise parser.error("unexpected trailing input after atom")
    return atom


def parse_literal(text: str) -> Literal:
    """Parse a single literal (atom or ``not`` atom)."""
    parser = _Parser(text)
    literal = parser.parse_literal()
    if not parser.at_end():
        raise parser.error("unexpected trailing input after literal")
    return literal


def parse_query(text: str) -> NormalBCQ:
    """Parse an NBCQ of the form ``? p(X), not q(X)``.

    A query without negated atoms is a plain BCQ.
    """
    parser = _Parser(text)
    return parser.parse_query()


def parse_ntgd(text: str) -> NTGD:
    """Parse a single NTGD (must end with a dot)."""
    parser = _Parser(text)
    statement = parser.parse_statement()
    if not parser.at_end():
        raise parser.error("unexpected trailing input after rule")
    if isinstance(statement, Atom):
        raise ParseError(f"expected a rule with '->' but got the fact {statement}", text=text)
    return _build_ntgd(statement)


def parse_normal_rule(text: str) -> NormalRule:
    """Parse a single normal logic-programming rule or fact (may use function terms)."""
    parser = _Parser(text)
    statement = parser.parse_statement()
    if not parser.at_end():
        raise parser.error("unexpected trailing input after rule")
    if isinstance(statement, Atom):
        return NormalRule(statement)
    return _build_normal_rule(statement, text)


def parse_program(text: str) -> tuple[DatalogPMProgram, Database]:
    """Parse a Datalog± program together with its database facts.

    Every statement with an arrow becomes an NTGD of the program; every bare
    fact becomes a database atom.  Returns ``(program, database)``.
    """
    parser = _Parser(text)
    ntgds: list[NTGD] = []
    facts: list[Atom] = []
    while not parser.at_end():
        statement = parser.parse_statement()
        if isinstance(statement, Atom):
            facts.append(statement)
        else:
            ntgds.append(_build_ntgd(statement))
    return DatalogPMProgram(ntgds), Database(facts)


def parse_normal_program(text: str) -> NormalProgram:
    """Parse a normal logic program (rules and facts, function terms allowed)."""
    parser = _Parser(text)
    rules: list[NormalRule] = []
    while not parser.at_end():
        statement = parser.parse_statement()
        if isinstance(statement, Atom):
            rules.append(NormalRule(statement))
        else:
            rules.append(_build_normal_rule(statement, text))
    return NormalProgram(rules)


def parse_database(text: str) -> Database:
    """Parse a database: a sequence of ground facts terminated by dots."""
    parser = _Parser(text)
    facts: list[Atom] = []
    while not parser.at_end():
        statement = parser.parse_statement()
        if not isinstance(statement, Atom):
            raise ParseError(f"databases may only contain facts, found the rule {statement}", text=text)
        facts.append(statement)
    return Database(facts)
