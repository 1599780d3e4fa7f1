"""Clause-level syntax: literals, clauses and indexed programs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Tuple

from .terms import Const, Struct, Term, Var, compile_template, format_term

__all__ = [
    "BUILTIN_FUNCTORS",
    "PredId",
    "Literal",
    "Clause",
    "Program",
    "ground_facts",
    "pred_of",
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


def pred_of(atom: Term) -> PredId:
    """Predicate identifier of an atom (a constant is a 0-ary predicate)."""
    if isinstance(atom, Struct):
        return PredId(atom.functor, len(atom.args))
    if isinstance(atom, Const) and isinstance(atom.value, str):
        return PredId(atom.value, 0)
    raise ValueError(f"not a callable atom: {atom!r}")


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
        builtin = pred.name in BUILTIN_FUNCTORS and pred.arity == 2
        if builtin and self.negated:
            raise ValueError("builtins cannot appear under not")
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "is_builtin", builtin)


@dataclass(frozen=True, slots=True)
class Clause:
    """head :- body.  A fact is a clause with an empty body.

    `code` is the clause compiled once, when it is built, for the solver:
    (number of variable slots, the head's argument templates, the head's
    postfix code, the body atoms' postfix code); see
    `terms.compile_template`.  A fact with a ground head compiles to its
    own arguments without a walk.
    """

    head: Term
    body: Tuple[Literal, ...] = ()
    head_pred: PredId = field(init=False, compare=False, repr=False)
    code: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        hp = pred_of(self.head)  # raises on non-atoms
        if hp.name in BUILTIN_FUNCTORS and hp.arity == 2:
            raise ValueError(f"cannot define builtin {hp}")
        object.__setattr__(self, "head_pred", hp)
        object.__setattr__(self, "code", _compile_clause(self.head, self.body))

    @property
    def is_fact(self) -> bool:
        return not self.body


_CLAUSE_SETTERS = tuple(Clause.__dict__[f].__set__ for f in ("head", "body", "head_pred", "code"))


def ground_facts(rows: Iterable[Tuple[str, Tuple[Term, ...]]]) -> List[Clause]:
    """The fact name(*args) for each (name, args) row of ground arguments.

    Each equals `Clause(Struct(name, args))`, with the same `head_pred` and
    `code`.  Only a predicate's first fact goes through that constructor,
    which refuses a builtin head; the rest skip the dataclass `__init__`
    and `__post_init__`, reuse its predicate and compile to their own
    arguments.  A row with a variable raises ValueError.
    """
    set_head, set_body, set_pred, set_code = _CLAUSE_SETTERS
    new = object.__new__
    preds: Dict[str, PredId] = {}
    facts: List[Clause] = []
    for name, args in rows:
        head = Struct(name, args)
        if not head.ground:
            raise ValueError(f"not a ground fact: {format_term(head)}")
        pred = preds.get(name)
        if pred is None or pred.arity != len(args):
            fact = Clause(head)
            preds[name] = fact.head_pred
        else:
            fact = new(Clause)
            set_head(fact, head)
            set_body(fact, ())
            set_pred(fact, pred)
            set_code(fact, (0, args, (), ()))
        facts.append(fact)
    return facts


def _compile_clause(head: Term, body: Tuple[Literal, ...]) -> tuple:
    args = head.args if type(head) is Struct else ()
    if not body and (not args or head.ground):
        return (0, args, (), ())
    slots: Dict[str, int] = {}
    head_code: List[object] = []
    template = compile_template(head, slots, head_code)
    body_code: List[object] = []
    for lit in body:
        compile_template(lit.atom, slots, body_code)
    if type(template) is tuple:  # a head with variables
        args = template[1]
    return (len(slots), args, tuple(head_code), tuple(body_code))


class Program:
    """An ordered clause list with a (name, arity) -> clauses index.

    The index is an exact partition of the clauses; both views preserve
    source order.  `solver_index` caches what the solver derives from the
    clauses (see `engine._ProgramIndex`).  It is filled on the first solve,
    except in a program made by `engine.layer_facts`: there it is the
    knowledge base's own index, built once per knowledge-base object, with
    the facts' predicates layered on top.
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

    def defines(self, pred: PredId) -> bool:
        return pred in self.index


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
