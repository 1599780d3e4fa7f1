"""Top-down parser for the logic-program surface syntax.

The accepted subset: atoms, variables, integers, compound terms, bracket
list sugar ([a, b], [H|T]), facts and rules with `:-`, comma conjunction,
prefix `not`, the infix builtins `=` and `\\=`, `%` line comments, and
`?-` queries.  Each `_` is a variable of its own, named `_#A<n>` in the
solver's namespace; `format_term` prints it back as `_`.

One regular expression splits the text, and a token is just its string,
with "" for the end of input.  Its kind is read from its text: a word
starts with a letter or `_` and is a variable when that is `_` or an
uppercase letter, an atom otherwise; a run of decimal digits is an
integer; the rest is punctuation.  Only space, tab, `\r` and `\n` are
whitespace.  Line and column are counted from the text only when a
ParseError is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import List, Tuple

from .program import BUILTIN_FUNCTORS, Clause, Literal, PredId, Program, pred_of
from .terms import EMPTY_LIST, Const, Struct, Term, Var, make_list

__all__ = ["ParseError", "parse_program", "parse_query", "parse_term_text"]


@dataclass
class ParseError(Exception):
    message: str
    line: int
    column: int
    expected: Tuple[str, ...] = ()

    def __str__(self) -> str:
        s = f"line {self.line}, column {self.column}: {self.message}"
        if self.expected:
            s += f" (expected {' or '.join(self.expected)})"
        return s


# token kinds
_ATOM = "atom"
_VAR = "var"
_INT = "int"
_PUNCT = "punct"

_PUNCTS = frozenset((":-", "?-", "\\=", *"()[],|.="))
_NOT = PredId("not", 1)

# One token per match, after any whitespace and `%` comments: a two- or
# one-character punctuation mark, a run of decimal digits, a word, any
# other single character (rejected by _tokenize), or "" at the end.
_TOKEN = re.compile(r"(?:[ \t\r\n]+|%[^\n]*)*(:-|\?-|\\=|[()\[\],|.=]|\d+|\w+|.|\Z)")


def _kind(tok: str) -> str:
    """A token's kind, read from its first character."""
    c = tok[:1]
    if c.isalpha() or c == "_":
        return _VAR if c == "_" or c.isupper() else _ATOM
    return _INT if c.isdecimal() else _PUNCT


def _error(text: str, index: int, message: str, expected: Tuple[str, ...] = ()) -> ParseError:
    """A ParseError at the start of the text's index-th token, which for
    the final "" is the end of the text."""
    offset = next(islice(_TOKEN.finditer(text), index, None)).start(1)
    column = offset - text.rfind("\n", 0, offset)
    return ParseError(message, text.count("\n", 0, offset) + 1, column, expected)


def _tokenize(text: str) -> List[str]:
    """The text's tokens, ending with "".  Every token is checked before
    any grammar runs, so an unexpected character anywhere is the error."""
    toks = _TOKEN.findall(text)
    bad = [t for t in set(toks) if t and _kind(t) == _PUNCT and t not in _PUNCTS]
    if bad:
        first = min(map(toks.index, bad))
        raise _error(text, first, f"unexpected character {toks[first][0]!r}")
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.anon = 0  # counter for `_` occurrences

    # -- token plumbing ----------------------------------------------------

    def fail(self, message: str, expected: Tuple[str, ...] = ()) -> ParseError:
        return _error(self.text, self.pos, message, expected)

    def expect_punct(self, value: str) -> None:
        if self.toks[self.pos] != value:
            raise self.fail(f"got {self.describe()}", expected=(f"'{value}'",))
        self.pos += 1

    def describe(self) -> str:
        tok = self.toks[self.pos]
        return f"{_kind(tok)} {tok!r}" if tok else "end of input"

    # -- grammar -----------------------------------------------------------

    def parse_term(self) -> Term:
        """Parse one term.  The compounds and lists still open wait on an
        explicit stack of [kind, functor, items] frames, kind "(" for a
        compound's arguments, "[" for a list's items and "|" for its tail,
        so nesting depth does not deepen the Python stack."""
        toks = self.toks
        pos = self.pos
        stack: List[list] = []
        while True:
            # A term's first tokens: the whole term, or a frame to push.
            tok = toks[pos]
            c = tok[:1]  # read as in _kind, which this loop inlines
            pos += 1
            if c.isalpha() or c == "_":
                if c == "_" or c.isupper():
                    t = self.anonymous() if tok == "_" else Var(tok)
                elif toks[pos] != "(":
                    t = Const(tok)
                else:
                    pos += 1
                    if not toks[pos]:
                        self.pos = pos
                        raise self.fail("unterminated argument list", expected=("term",))
                    stack.append(["(", tok, []])
                    continue
            elif c.isdecimal():
                t = Const(int(tok))
            elif tok == "[":
                if toks[pos] == "]":
                    pos += 1
                    t = EMPTY_LIST
                elif toks[pos]:
                    stack.append(["[", None, []])
                    continue
                else:
                    self.pos = pos
                    raise self.fail("unterminated list", expected=("term", "']'"))
            else:
                self.pos = pos - 1
                raise self.fail(f"got {self.describe()}", expected=("term",))
            # t is whole: close the frames it completes.
            while True:
                if not stack:
                    self.pos = pos
                    return t
                frame = stack[-1]
                kind, functor, items = frame
                if kind == "|":
                    self.pos = pos
                    self.expect_punct("]")
                    pos += 1
                    stack.pop()
                    t = make_list(items, t)
                    continue
                items.append(t)
                tok = toks[pos]
                pos += 1
                if tok == ",":
                    break
                if kind == "(" and tok == ")":
                    stack.pop()
                    t = Struct(functor, tuple(items))
                elif kind == "[" and tok == "]":
                    stack.pop()
                    t = make_list(items)
                elif kind == "[" and tok == "|":
                    frame[0] = "|"
                    break
                else:
                    self.pos = pos - 1
                    if kind == "(":
                        raise self.fail(
                            f"unterminated argument list, got {self.describe()}",
                            expected=("','", "')'"),
                        )
                    raise self.fail(
                        f"unterminated list, got {self.describe()}",
                        expected=("','", "'|'", "']'"),
                    )

    def anonymous(self) -> Var:
        """A variable for `_`, numbered in text order, so `format_term`'s `_`
        re-parses to the same name.  No program or query can write it."""
        self.anon += 1
        return Var(f"_#A{self.anon}")

    def parse_literal(self) -> Literal:
        toks = self.toks
        negated = toks[self.pos] == "not" and (
            toks[self.pos + 1] == "[" or _kind(toks[self.pos + 1]) != _PUNCT
        )
        if negated:
            self.pos += 1
            if toks[self.pos] == "not":
                raise self.fail("double negation is not supported")
        term = self.parse_term()
        if not negated:
            if self.is_builtin_follow():
                op = toks[self.pos]
                self.pos += 1
                return Literal(Struct(op, (term, self.parse_term())))
            self.check_callable(term)
            if pred_of(term) != _NOT:
                return Literal(term)
            term = term.args[0]  # not(G) is the negation of G, as `not G` is.
        self.check_callable(term)
        if pred_of(term) == _NOT:
            raise self.fail("double negation is not supported")
        if self.is_builtin_follow():
            raise self.fail("builtins cannot appear under not")
        return Literal(term, negated=True)

    def is_builtin_follow(self) -> bool:
        return self.toks[self.pos] in BUILTIN_FUNCTORS

    def check_callable(self, t: Term) -> None:
        if isinstance(t, Var):
            raise self.fail("a variable cannot be called as a literal")
        if isinstance(t, Const) and not isinstance(t.value, str):
            raise self.fail("an integer cannot be called as a literal")
        if isinstance(t, Struct) and t.functor == "." and len(t.args) == 2:
            raise self.fail("a list cannot be called as a literal")

    def parse_body(self) -> Tuple[Literal, ...]:
        lits = [self.parse_literal()]
        while self.toks[self.pos] == ",":
            self.pos += 1
            lits.append(self.parse_literal())
        return tuple(lits)

    def parse_clause(self) -> Clause:
        head = self.parse_term()
        self.check_callable(head)
        if self.is_builtin_follow():
            raise self.fail("clause heads cannot use builtins")
        body: Tuple[Literal, ...] = ()
        if self.toks[self.pos] == ":-":
            self.pos += 1
            body = self.parse_body()
        self.expect_punct(".")
        return Clause(head, body)

    def parse_program(self) -> Program:
        clauses = []
        while self.toks[self.pos]:
            clauses.append(self.parse_clause())
        return Program(clauses)

    def parse_query(self) -> List[Literal]:
        self.expect_punct("?-")
        if self.toks[self.pos] == ".":
            raise self.fail("empty goal", expected=("literal",))
        body = list(self.parse_body())
        self.expect_punct(".")
        if self.toks[self.pos]:
            raise self.fail(f"trailing input after query: {self.describe()}")
        return body


def parse_program(text: str) -> Program:
    """Parse a program (facts and rules); raises ParseError with position."""
    return _Parser(text).parse_program()


def parse_query(text: str) -> List[Literal]:
    """Parse a `?- goal, ... .` query into a literal list."""
    return _Parser(text).parse_query()


def parse_term_text(text: str) -> Term:
    """Parse a single term; convenience for tests and tooling."""
    p = _Parser(text)
    t = p.parse_term()
    if p.toks[p.pos]:
        raise p.fail(f"trailing input after term: {p.describe()}")
    return t
