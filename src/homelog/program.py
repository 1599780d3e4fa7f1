"""Clause-level syntax: literals, clauses and indexed programs."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, NamedTuple, Set, Tuple

from .terms import Const, Struct, Term, Var, compile_template, format_term

__all__ = [
    "BUILTIN_FUNCTORS",
    "BUILTIN_PREDS",
    "PredId",
    "Literal",
    "Clause",
    "Program",
    "pred_of",
    "forward_closure",
    "format_literal",
    "format_clause",
    "format_program",
]

# Comparison builtins handled natively by the solver.
BUILTIN_FUNCTORS = ("=", "\\=")


class PredId(NamedTuple):
    """A predicate's name and arity; a tuple, so hashing and comparing it
    cost no Python-level call."""

    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@functools.lru_cache(maxsize=1024)
def _pred_id(name: str, arity: int) -> PredId:
    """One `PredId` per predicate, shared by every clause and literal that
    names it.  A 400-object scene has some 740 facts over five predicates, and a
    fresh `PredId` costs about as much as the fact's `Struct` head."""
    return PredId(name, arity)


def pred_of(atom: Term) -> PredId:
    """Predicate identifier of an atom (a constant is a 0-ary predicate)."""
    if isinstance(atom, Struct):
        return _pred_id(atom.functor, len(atom.args))
    if isinstance(atom, Const) and isinstance(atom.value, str):
        return _pred_id(atom.value, 0)
    raise ValueError(f"not a callable atom: {atom!r}")


BUILTIN_PREDS: Tuple[PredId, ...] = tuple(PredId(f, 2) for f in BUILTIN_FUNCTORS)


@dataclass(frozen=True, slots=True)
class Literal:
    """A body literal: an atom, possibly under negation as failure.

    Negation only ever wraps a positive atom; the parser rejects `not not p`.
    The equality builtins are ordinary positive literals with functor = or \\=
    and exactly two arguments.  The predicate and the builtin flag are
    computed once, when the literal is built.
    """

    atom: Term
    negated: bool = False
    pred: PredId = field(init=False, compare=False, repr=False)
    is_builtin: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.atom, Var):
            raise ValueError("a variable is not a literal")
        pred = pred_of(self.atom)
        builtin = pred in BUILTIN_PREDS
        if builtin and self.negated:
            raise ValueError("builtins cannot appear under not")
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "is_builtin", builtin)


def forward_closure(adj: Mapping[PredId, Iterable[PredId]], roots: Iterable[PredId]) -> Set[PredId]:
    """The predicates reached from `roots` along one or more edges of `adj`
    (a root is in it only when it lies on a cycle); an explicit stack."""
    out: Set[PredId] = set()
    todo = [p for r in roots for p in adj.get(r, ())]
    while todo:
        p = todo.pop()
        if p not in out:
            out.add(p)
            todo.extend(adj.get(p, ()))
    return out


class Clause:
    """head :- body.  A fact is a clause with an empty body.

    A clause is a value: equality and hashing read `head` and `body`
    only.  `head_pred` and `code` are derived once, when it is built.
    `code` is the clause compiled for the solver: (number of variable
    slots, the head's argument templates, the head's postfix code, the
    body atoms' postfix code); see `terms.compile_template`.  A fact with
    a ground head compiles to its own arguments without a walk.
    """

    __slots__ = ("head", "body", "head_pred", "code")

    def __init__(self, head: Term, body: Tuple[Literal, ...] = ()):
        pred = pred_of(head)  # raises on non-atoms
        args = head.args if type(head) is Struct else ()
        if pred in BUILTIN_PREDS:
            raise ValueError(f"cannot define builtin {pred}")
        self.head = head
        self.body = body
        self.head_pred = pred
        if not body and (not args or head.ground):
            self.code = (0, args, (), ())
            return
        slots: Dict[str, int] = {}
        head_code: List[object] = []
        template = compile_template(head, slots, head_code)
        body_code: List[object] = []
        for lit in body:
            compile_template(lit.atom, slots, body_code)
        if type(template) is tuple:  # a head with variables
            args = template[1]
        self.code = (len(slots), args, tuple(head_code), tuple(body_code))

    def __eq__(self, other: object) -> bool:
        if type(other) is not Clause:
            return NotImplemented
        return self.head == other.head and self.body == other.body

    def __hash__(self) -> int:
        return hash((self.head, self.body))

    def __repr__(self) -> str:
        return f"Clause(head={self.head!r}, body={self.body!r})"

    @property
    def is_fact(self) -> bool:
        return not self.body


class Program:
    """An ordered clause list with a (name, arity) -> clauses index.

    The index is an exact partition of the clauses; both views preserve
    source order.  `solver_index` caches what the solver derives from the
    clauses (see `engine._ProgramIndex`).  It is filled on the first solve,
    except in a program made by `engine.layer_facts`: there it is a copy
    of the knowledge base's own index, which is built once per
    knowledge-base object, with the facts' predicates added to its lookup.
    """

    __slots__ = ("clauses", "index", "solver_index")

    def __init__(self, clauses: Iterable[Clause]):
        self.clauses: Tuple[Clause, ...] = tuple(clauses)
        index: Dict[PredId, List[Clause]] = {}
        for c in self.clauses:
            index.setdefault(c.head_pred, []).append(c)
        self.index: Dict[PredId, Tuple[Clause, ...]] = {
            k: tuple(v) for k, v in index.items()
        }
        self.solver_index = None

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self):
        return iter(self.clauses)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Program) and self.clauses == other.clauses

    def __add__(self, other: "Program") -> "Program":
        """Both clause lists in order, indexed by merging the two indexes
        predicate by predicate rather than by walking every clause."""
        out = Program(())
        out.clauses = self.clauses + other.clauses
        index = dict(self.index)
        for pred, clauses in other.index.items():
            index[pred] = index.get(pred, ()) + clauses
        out.index = index
        return out


def format_literal(lit: Literal) -> str:
    if lit.is_builtin:
        assert isinstance(lit.atom, Struct)
        lhs, rhs = lit.atom.args
        return f"{format_term(lhs)} {lit.atom.functor} {format_term(rhs)}"
    text = format_term(lit.atom)
    return f"not {text}" if lit.negated else text


def format_clause(c: Clause) -> str:
    head = format_term(c.head)
    if c.is_fact:
        return f"{head}."
    body = ", ".join(format_literal(l) for l in c.body)
    return f"{head} :- {body}."


def format_program(p: Program) -> str:
    return "\n".join(format_clause(c) for c in p.clauses) + ("\n" if len(p) else "")
