"""First-order terms, substitutions and unification.

Terms are immutable values: variables, constants (symbols or integers) and
compound terms.  Prolog-style lists are ordinary compound terms built from
the "." functor and the empty-list constant, so [a, b] is '.'(a, '.'(b, [])).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "Var",
    "Const",
    "Struct",
    "Term",
    "Subst",
    "EMPTY_LIST",
    "make_list",
    "list_parts",
    "term_vars",
    "apply_subst",
    "unify",
    "rename_apart_term",
    "variant_of",
    "variant_key",
    "format_term",
]


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return f"Var({self.name})"


@dataclass(frozen=True, slots=True)
class Const:
    value: Union[str, int]

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


@dataclass(frozen=True, slots=True)
class Struct:
    functor: str
    args: Tuple["Term", ...]

    def __post_init__(self) -> None:
        if not self.args:
            raise ValueError("compound term needs at least one argument")

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:
        return f"Struct({self.functor}/{len(self.args)})"


Term = Union[Var, Const, Struct]

# A substitution maps variable names to terms.  Public helpers treat these
# dicts as immutable values; extension returns a new dict.
Subst = Dict[str, Term]

LIST_FUNCTOR = "."
EMPTY_LIST = Const("[]")


def make_list(items: List[Term], tail: Term = EMPTY_LIST) -> Term:
    """Build a list term from Python items, optionally with a non-[] tail."""
    out = tail
    for item in reversed(items):
        out = Struct(LIST_FUNCTOR, (item, out))
    return out


def list_parts(t: Term) -> Tuple[List[Term], Term]:
    """Split a term into list elements plus the final tail.

    For proper lists the tail is the empty-list constant; anything else
    (a variable, or a non-list term) is returned as-is.
    """
    items: List[Term] = []
    while isinstance(t, Struct) and t.functor == LIST_FUNCTOR and len(t.args) == 2:
        items.append(t.args[0])
        t = t.args[1]
    return items, t


def term_vars(t: Term) -> List[str]:
    """Variable names in first-occurrence order."""
    seen: Dict[str, None] = {}
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            if cur.name not in seen:
                seen[cur.name] = None
        elif isinstance(cur, Struct):
            stack.extend(reversed(cur.args))
    return list(seen)


def _walk(t: Term, s: Subst) -> Term:
    """Chase variable bindings until a non-variable or unbound variable."""
    while isinstance(t, Var):
        nxt = s.get(t.name)
        if nxt is None:
            return t
        t = nxt
    return t


def apply_subst(s: Subst, t: Term) -> Term:
    """Apply a substitution exhaustively; the result is fixed under reapplication."""
    t = _walk(t, s)
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(apply_subst(s, a) for a in t.args))
    return t


def _occurs(name: str, t: Term, s: Subst) -> bool:
    t = _walk(t, s)
    if isinstance(t, Var):
        return t.name == name
    if isinstance(t, Struct):
        return any(_occurs(name, a, s) for a in t.args)
    return False


def unify_in_place(t1: Term, t2: Term, bindings: Subst, trail: List[str]) -> bool:
    """Destructive unification with occurs check, used by the solver.

    New bindings go into `bindings` and their names onto `trail` so the
    caller can undo them on backtracking.  Returns False on clash, leaving
    whatever partial bindings it made on the trail (caller unwinds).
    """
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = _walk(a, bindings)
        b = _walk(b, bindings)
        if a is b:
            continue
        if isinstance(a, Var):
            if isinstance(b, Var) and b.name == a.name:
                continue
            if _occurs(a.name, b, bindings):
                return False
            bindings[a.name] = b
            trail.append(a.name)
        elif isinstance(b, Var):
            if _occurs(b.name, a, bindings):
                return False
            bindings[b.name] = a
            trail.append(b.name)
        elif isinstance(a, Const) and isinstance(b, Const):
            if a.value != b.value:
                return False
        elif isinstance(a, Struct) and isinstance(b, Struct):
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
        else:
            return False
    return True


def undo_trail(bindings: Subst, trail: List[str], mark: int) -> None:
    """Remove bindings recorded past `mark`."""
    while len(trail) > mark:
        del bindings[trail.pop()]


def unify(t1: Term, t2: Term, s: Optional[Subst] = None) -> Optional[Subst]:
    """Most general unifier extending `s`, or None if the terms clash.

    The input substitution is never mutated.
    """
    out: Subst = dict(s) if s else {}
    trail: List[str] = []
    if unify_in_place(t1, t2, out, trail):
        return out
    return None


def rename_apart_term(t: Term, mapping: Dict[str, str], counter: Iterator[int]) -> Term:
    """Copy `t` renaming variables via `mapping`, minting fresh names as needed."""
    if isinstance(t, Var):
        new = mapping.get(t.name)
        if new is None:
            new = f"_G{next(counter)}"
            mapping[t.name] = new
        return Var(new)
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(rename_apart_term(a, mapping, counter) for a in t.args))
    return t


def variant_key(t: Term, bindings: Optional[Subst] = None) -> str:
    """Canonical text with variables numbered in first-occurrence order.

    Variables bound in `bindings` are read through.  Two terms are variants
    (equal up to a bijective variable renaming) exactly when their keys are
    equal: variables print as `_0`, `_1`, ... and integers as `#1`, text no
    parsed atom can spell.
    """
    mapping: Dict[str, str] = {}
    parts: List[str] = []
    _variant_key(t, bindings if bindings is not None else {}, mapping, parts)
    return "".join(parts)


def _variant_key(t: Term, s: Subst, mapping: Dict[str, str], parts: List[str]) -> None:
    if isinstance(t, Var):
        t = _walk(t, s)
        if isinstance(t, Var):
            new = mapping.get(t.name)
            if new is None:
                new = f"_{len(mapping)}"
                mapping[t.name] = new
            parts.append(new)
            return
    if isinstance(t, Const):
        v = t.value
        parts.append(v if isinstance(v, str) else f"#{v}")
    else:
        parts.append(t.functor)
        parts.append("(")
        _variant_key(t.args[0], s, mapping, parts)
        for a in t.args[1:]:
            parts.append(",")
            _variant_key(a, s, mapping, parts)
        parts.append(")")


def variant_of(t1: Term, t2: Term) -> bool:
    """True when the terms are equal up to a bijective renaming of variables."""
    return _variant_walk(t1, t2, {}, {})


def _variant_walk(t1: Term, t2: Term, fwd: Dict[str, str], bwd: Dict[str, str]) -> bool:
    if isinstance(t1, Var) and isinstance(t2, Var):
        a = fwd.setdefault(t1.name, t2.name)
        b = bwd.setdefault(t2.name, t1.name)
        return a == t2.name and b == t1.name
    if isinstance(t1, Const) and isinstance(t2, Const):
        return t1.value == t2.value
    if isinstance(t1, Struct) and isinstance(t2, Struct):
        if t1.functor != t2.functor or len(t1.args) != len(t2.args):
            return False
        return all(_variant_walk(a, b, fwd, bwd) for a, b in zip(t1.args, t2.args))
    return False


def format_term(t: Term) -> str:
    """Canonical text form; proper and partial lists print with bracket sugar."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    if t.functor == LIST_FUNCTOR and len(t.args) == 2:
        items, tail = list_parts(t)
        inner = ", ".join(format_term(i) for i in items)
        if tail == EMPTY_LIST:
            return f"[{inner}]"
        return f"[{inner}|{format_term(tail)}]"
    return f"{t.functor}({', '.join(format_term(a) for a in t.args)})"
