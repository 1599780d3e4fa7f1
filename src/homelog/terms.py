"""First-order terms, substitutions and unification.

Terms are immutable values: variables, constants (symbols or integers) and
compound terms.  Prolog-style lists are ordinary compound terms built from
the "." functor and the empty-list constant, so [a, b] is '.'(a, '.'(b, [])).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

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
    "compile_template",
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


class Struct:
    """A compound term.

    `ground` is true when no variable occurs in the term.  It is computed
    once, at construction, from the children's flags, so walks that only
    look for variables stop at ground subterms.  The structural hash is
    cached on the term the first time it is hashed or, for a ground term,
    compared, so equality rejects most unequal ground terms with one
    integer compare and terms that are never hashed never pay for it.
    Equality and hashing are structural and walk the term without
    recursion.
    """

    __slots__ = ("functor", "args", "ground", "_hash")

    def __init__(self, functor: str, args: Tuple["Term", ...]):
        if not args:
            raise ValueError("compound term needs at least one argument")
        self.functor = functor
        self.args = args
        self._hash = None
        for a in args:
            if type(a) is Var or (type(a) is Struct and not a.ground):
                self.ground = False
                return
        self.ground = True

    def __repr__(self) -> str:
        return f"Struct({self.functor}/{len(self.args)})"

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # Fill the missing hashes of subterms bottom-up, so that hashing
            # a node's args tuple never descends more than a level.
            stack = [self]
            while stack:
                t = stack[-1]
                pending = [a for a in t.args if type(a) is Struct and a._hash is None]
                if pending:
                    stack.extend(pending)
                else:
                    stack.pop()
                    t._hash = hash((t.functor, t.args))
            h = self._hash
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Struct:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if type(a) is not Struct:
                if a != b:
                    return False
                continue
            if (
                a.ground is not b.ground
                or (a.ground and hash(a) != hash(b))
                or a.functor != b.functor
                or len(a.args) != len(b.args)
            ):
                return False
            stack.extend(zip(a.args, b.args))
        return True


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
    """Variable names in first-occurrence order; ground compounds are skipped."""
    seen: Dict[str, None] = {}
    stack = [t]
    while stack:
        cur = stack.pop()
        if type(cur) is Var:
            if cur.name not in seen:
                seen[cur.name] = None
        elif type(cur) is Struct and not cur.ground:
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
    """Apply a substitution exhaustively; the result is fixed under reapplication.

    Ground compounds are returned as they are; the rest is rebuilt bottom-up
    from an explicit stack, so the Python stack does not grow with the term.
    """
    todo: List[object] = [t]
    done: List[Term] = []
    while todo:
        cur = todo.pop()
        if type(cur) is tuple:
            functor, n = cur
            args = tuple(done[-n:])
            del done[-n:]
            done.append(Struct(functor, args))
            continue
        while type(cur) is Var:
            nxt = s.get(cur.name)
            if nxt is None:
                break
            cur = nxt
        if type(cur) is Struct and not cur.ground:
            todo.append((cur.functor, len(cur.args)))
            todo.extend(reversed(cur.args))
        else:
            done.append(cur)
    return done[0]


def _occurs(name: str, t: Term, s: Subst) -> bool:
    stack = [t]
    while stack:
        t = stack.pop()
        while type(t) is Var:
            if t.name == name:
                return True
            nxt = s.get(t.name)
            if nxt is None:
                break
            t = nxt
        if type(t) is Struct and not t.ground:
            stack.extend(t.args)
    return False


def _ground(t: Term, s: Subst) -> bool:
    """True when no unbound variable occurs in `t` read through `s`: one walk
    that stops at ground subterms and builds nothing."""
    stack = [t]
    while stack:
        t = stack.pop()
        while type(t) is Var:
            t = s.get(t.name)
            if t is None:
                return False
        if type(t) is Struct and not t.ground:
            stack.extend(t.args)
    return True


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


def compile_template(t: Term, slots: Dict[str, int], code: List[object]) -> object:
    """Compile a clause term against the clause's variable slots.

    Variables become slot numbers, given in first-occurrence order and
    shared through `slots` by every term of one clause.  The term's postfix
    code is appended to `code` (see `rename_apart_term`).  The return value
    is the term's template for head matching: a slot number, a constant or
    ground compound shared as it is, or, for any other compound, a tuple
    (functor, argument templates, lo, hi) whose own postfix code is
    `code[lo:hi]`.  Built from an explicit stack.
    """
    todo: List[object] = [t]
    done: List[object] = []
    while todo:
        cur = todo.pop()
        if type(cur) is tuple:
            functor, n, lo = cur
            args = tuple(done[-n:])
            del done[-n:]
            code.append((functor, n))
            done.append((functor, args, lo, len(code)))
        elif type(cur) is Var:
            slot = slots.get(cur.name)
            if slot is None:
                slot = slots[cur.name] = len(slots)
            code.append(slot)
            done.append(slot)
        elif type(cur) is Struct and not cur.ground:
            todo.append((cur.functor, len(cur.args), len(code)))
            todo.extend(reversed(cur.args))
        else:
            code.append(cur)
            done.append(cur)
    return done[0]


def rename_apart_term(code: Sequence[object], frame: List[Optional[Term]], fresh: Iterator[int]) -> List[Term]:
    """Instantiate postfix template code over a clause frame.

    `code` lists a sequence of terms in postfix order: a slot number pushes
    the frame's term for that slot, a (functor, n) pair builds a compound
    from the last n terms, and anything else (a constant or a ground
    compound) is pushed as it is, shared.  A slot with no term yet gets a
    fresh variable, named `_#<n>` so that no program or query can write it.
    Returns the built terms in order.
    """
    done: List[Term] = []
    for op in code:
        if type(op) is int:
            t = frame[op]
            if t is None:
                t = frame[op] = Var(f"_#{next(fresh)}")
            done.append(t)
        elif type(op) is tuple:
            functor, n = op
            args = tuple(done[-n:])
            del done[-n:]
            done.append(Struct(functor, args))
        else:
            done.append(op)
    return done


def variant_key(t: Term) -> Tuple[int, tuple]:
    """A hashable key equal for two terms exactly when they are variants.

    The key lists the term in prefix order: variables as their number in
    first-occurrence order, constants and ground compounds as themselves,
    other compounds as (functor, arity).  It is returned with its hash in
    front, so comparing two keys usually stops at one integer compare.
    Bindings are not read: the solver keys the call it has resolved with
    `apply_subst`.
    """
    mapping: Dict[str, int] = {}
    key: List[object] = []
    todo: List[Term] = [t]
    while todo:
        cur = todo.pop()
        if type(cur) is Var:
            n = mapping.get(cur.name)
            if n is None:
                n = mapping[cur.name] = len(mapping)
            key.append(n)
        elif type(cur) is Struct and not cur.ground:
            key.append((cur.functor, len(cur.args)))
            todo.extend(reversed(cur.args))
        else:
            key.append(cur)
    out = tuple(key)
    return hash(out), out


def variant_of(t1: Term, t2: Term) -> bool:
    """True when the terms are equal up to a bijective renaming of variables."""
    return variant_key(t1) == variant_key(t2)


def format_term(t: Term) -> str:
    """Canonical text form; proper and partial lists print with bracket sugar.

    The text is written from an explicit stack of terms and pending
    punctuation, so nesting depth does not deepen the Python stack.
    """
    out: List[str] = []
    todo: List[object] = [t]
    while todo:
        cur = todo.pop()
        if type(cur) is str:
            out.append(cur)
        elif type(cur) is Var:
            # A parsed `_` (see the parser) prints as written.
            out.append("_" if cur.name.startswith("_#A") else cur.name)
        elif type(cur) is Const:
            out.append(str(cur.value))
        elif cur.functor == LIST_FUNCTOR and len(cur.args) == 2:
            items, tail = list_parts(cur)
            todo.append("]")
            if tail != EMPTY_LIST:
                todo.append(tail)
                todo.append("|")
            _push_args(todo, items)
            todo.append("[")
        else:
            todo.append(")")
            _push_args(todo, cur.args)
            todo.append(cur.functor + "(")
    return "".join(out)


def _push_args(todo: List[object], args) -> None:
    """Push comma-separated terms so that they pop in order."""
    for i in range(len(args) - 1, 0, -1):
        todo.append(args[i])
        todo.append(", ")
    todo.append(args[0])
