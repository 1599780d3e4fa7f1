"""Top-down parser for the logic-program surface syntax.

The accepted subset: lowercase atoms, uppercase/underscore variables,
integers, compound terms, bracket list sugar ([a, b], [H|T]), facts and
rules with `:-`, comma conjunction, prefix `not`, the infix builtins
`=` and `\\=`, `%` line comments, and `?-` queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from .program import BUILTIN_FUNCTORS, Clause, Literal, Program, pred_of
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
_EOF = "eof"

_PUNCT_TWO = (":-", "?-", "\\=")
_PUNCT_ONE = "()[],|.="


def _tokenize(text: str) -> List[Tuple[str, str, int, int]]:
    toks: List[Tuple[str, str, int, int]] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        two = text[i : i + 2]
        if two in _PUNCT_TWO:
            toks.append((_PUNCT, two, line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT_ONE:
            toks.append((_PUNCT, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append((_INT, text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = _VAR if (ch == "_" or ch.isupper()) else _ATOM
            toks.append((kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append((_EOF, "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.anon = 0  # counter for `_` occurrences
        self.anon_prefix = "_A"  # "_#A" in a query
        self.scope = 0  # position where the current clause or query starts
        self.written: Optional[Set[str]] = None  # its variable names, once needed

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Tuple[str, str, int, int]:
        return self.toks[self.pos]

    def next(self) -> Tuple[str, str, int, int]:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str, expected: Tuple[str, ...] = ()) -> ParseError:
        _, _, line, col = self.peek()
        return ParseError(message, line, col, expected)

    def expect_punct(self, value: str) -> None:
        kind, val, _, _ = self.peek()
        if kind != _PUNCT or val != value:
            raise self.fail(f"got {self.describe()}", expected=(f"'{value}'",))
        self.next()

    def describe(self) -> str:
        kind, val, _, _ = self.peek()
        return "end of input" if kind == _EOF else f"{kind} {val!r}"

    # -- grammar -----------------------------------------------------------

    def parse_term(self) -> Term:
        """Parse one term.  The compounds and lists still open wait on an
        explicit stack of [kind, functor, items] frames, kind "(" for a
        compound's arguments, "[" for a list's items and "|" for its tail,
        so nesting depth does not deepen the Python stack."""
        stack: List[list] = []
        while True:
            t = self.parse_opening(stack)
            while t is not None:
                if not stack:
                    return t
                frame = stack[-1]
                kind, functor, items = frame
                if kind == "|":
                    self.expect_punct("]")
                    stack.pop()
                    t = make_list(items, t)
                    continue
                items.append(t)
                k, v, _, _ = self.peek()
                if k == _PUNCT and v == ",":
                    self.next()
                    t = None
                elif kind == "(" and k == _PUNCT and v == ")":
                    self.next()
                    stack.pop()
                    t = Struct(functor, tuple(items))
                elif kind == "(":
                    raise self.fail(
                        f"unterminated argument list, got {self.describe()}",
                        expected=("','", "')'"),
                    )
                elif k == _PUNCT and v == "|":
                    self.next()
                    frame[0] = "|"
                    t = None
                elif k == _PUNCT and v == "]":
                    self.next()
                    stack.pop()
                    t = make_list(items)
                else:
                    raise self.fail(
                        f"unterminated list, got {self.describe()}",
                        expected=("','", "'|'", "']'"),
                    )

    def parse_opening(self, stack: List[list]) -> Optional[Term]:
        """Read a term's first tokens.  Return the term if that completes
        it; for a compound or a non-empty list, push its frame and return
        None."""
        kind, val, _, _ = self.peek()
        if kind == _VAR:
            self.next()
            if val == "_":
                return self.anonymous()
            return Var(val)
        if kind == _INT:
            self.next()
            return Const(int(val))
        if kind == _ATOM:
            self.next()
            k, v, _, _ = self.peek()
            if k == _PUNCT and v == "(":
                self.next()
                if self.peek()[0] == _EOF:
                    raise self.fail("unterminated argument list", expected=("term",))
                stack.append(["(", val, []])
                return None
            return Const(val)
        if kind == _PUNCT and val == "[":
            self.next()
            kind, val, _, _ = self.peek()
            if kind == _PUNCT and val == "]":
                self.next()
                return EMPTY_LIST
            if kind == _EOF:
                raise self.fail("unterminated list", expected=("term", "']'"))
            stack.append(["[", None, []])
            return None
        raise self.fail(f"got {self.describe()}", expected=("term",))

    def anonymous(self) -> Var:
        """A variable for `_`, named `_A<n>` but never as a variable the
        clause writes, so the name survives printing and parsing.  In a
        query it is named `_#A<n>`, in the solver's own namespace, which no
        query can write and no answer reports."""
        if self.written is None:
            self.written = set()
            i = self.scope
            while True:
                kind, val, _, _ = self.toks[i]
                if kind == _EOF or (kind == _PUNCT and val == "."):
                    break
                if kind == _VAR:
                    self.written.add(val)
                i += 1
        while True:
            self.anon += 1
            name = f"{self.anon_prefix}{self.anon}"
            if name not in self.written:
                return Var(name)

    def begin_scope(self) -> None:
        self.scope = self.pos
        self.written = None

    def parse_literal(self) -> Literal:
        kind, val, _, _ = self.peek()
        if kind == _ATOM and val == "not":
            nxt = self.toks[self.pos + 1]
            if nxt[0] in (_ATOM, _VAR, _INT) or (nxt[0] == _PUNCT and nxt[1] == "["):
                self.next()
                if self.peek()[0] == _ATOM and self.peek()[1] == "not":
                    raise self.fail("double negation is not supported")
                inner = self.parse_term()
                self.check_callable(inner)
                if self.is_builtin_follow():
                    raise self.fail("builtins cannot appear under not")
                return Literal(inner, negated=True)
        term = self.parse_term()
        kind, val, _, _ = self.peek()
        if kind == _PUNCT and val in BUILTIN_FUNCTORS:
            self.next()
            rhs = self.parse_term()
            return Literal(Struct(val, (term, rhs)))
        self.check_callable(term)
        return Literal(term)

    def is_builtin_follow(self) -> bool:
        kind, val, _, _ = self.peek()
        return kind == _PUNCT and val in BUILTIN_FUNCTORS

    def check_callable(self, t: Term) -> None:
        if isinstance(t, Var):
            raise self.fail("a variable cannot be called as a literal")
        if isinstance(t, Const) and not isinstance(t.value, str):
            raise self.fail("an integer cannot be called as a literal")
        if isinstance(t, Struct) and t.functor == "." and len(t.args) == 2:
            raise self.fail("a list cannot be called as a literal")

    def parse_body(self) -> Tuple[Literal, ...]:
        lits = [self.parse_literal()]
        while True:
            kind, val, _, _ = self.peek()
            if kind == _PUNCT and val == ",":
                self.next()
                lits.append(self.parse_literal())
            else:
                return tuple(lits)

    def parse_clause(self) -> Clause:
        self.begin_scope()
        head = self.parse_term()
        self.check_callable(head)
        if self.is_builtin_follow() or pred_of(head).name in BUILTIN_FUNCTORS:
            raise self.fail("clause heads cannot use builtins")
        kind, val, _, _ = self.peek()
        body: Tuple[Literal, ...] = ()
        if kind == _PUNCT and val == ":-":
            self.next()
            body = self.parse_body()
        self.expect_punct(".")
        return Clause(head, body)

    def parse_program(self) -> Program:
        clauses = []
        while self.peek()[0] != _EOF:
            clauses.append(self.parse_clause())
        return Program(clauses)

    def parse_query(self) -> List[Literal]:
        self.begin_scope()
        self.anon_prefix = "_#A"
        self.expect_punct("?-")
        if self.peek()[0] == _PUNCT and self.peek()[1] == ".":
            raise self.fail("empty goal", expected=("literal",))
        body = list(self.parse_body())
        self.expect_punct(".")
        kind, _, _, _ = self.peek()
        if kind != _EOF:
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
    if p.peek()[0] != _EOF:
        raise p.fail(f"trailing input after term: {p.describe()}")
    return t
