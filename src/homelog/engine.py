"""Goal-directed SLDNF solver with loop detection and resource budgets.

Search is depth-first, clauses are tried in source order, body literals
left to right.  A call whose first argument is bound tries only the
clauses whose head's first argument is a variable or has the same
constant, or the same functor and arity (first-argument indexing).
A clause is tried without copying it: the call is unified with the
clause's compiled head over a fresh frame of its variables, and the body
is built from that frame only once the head matches.

A positive call that, resolved through the bindings, is a variant of an
ancestor call on the current derivation path fails (loop check), which
makes the kind of left recursion found in family-tree rule sets
terminate.  Only a call on a cycle of the call graph is checked, and not
even that when its argument at its component's descent position is
ground: such a call only ever descends to smaller terms there (see
`_descent_positions`).  Negation as failure runs the positive atom one
level deeper on the same stacks, behind a barrier choice point, under
the solve's one step budget and depth cap; non-ground negated calls
flounder loudly.

Unless the program defines them, `insert_sorted/3` is native and
`member/2` walks a list's cells in one choice point: one step and one
unification per cell, and no loop-check key and no derivation level per
cell.

Answers stream lazily from a generator.  The stream ends in one of three
ways: normal exhaustion, `BudgetExceeded`, or `SolveTimeout` (the latter
two raised out of the generator, never silently swallowed).
"""

from __future__ import annotations

import bisect
import copy
import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .parser import parse_program
from .program import Clause, Literal, PredId, Program, forward_closure
from .terms import (
    EMPTY_LIST,
    LIST_FUNCTOR,
    Const,
    Struct,
    Subst,
    Term,
    Var,
    _ground,
    _occurs,
    _walk,
    apply_subst,
    format_term,
    list_parts,
    make_list,
    rename_apart_term,
    term_vars,
    undo_trail,
    unify_in_place,
    variant_key,
)

__all__ = [
    "SolveConfig",
    "Answer",
    "BudgetExceeded",
    "SolveTimeout",
    "FlounderError",
    "PRELUDE",
    "PRELUDE_PREDS",
    "layer_facts",
    "solve",
    "solve_all",
]


class BudgetExceeded(Exception):
    """Step budget or depth cap exhausted before the search finished."""


class SolveTimeout(Exception):
    """Wall-clock limit hit before the search finished."""


class FlounderError(Exception):
    """A negated call (or sorted insertion) was selected while non-ground."""


@dataclass(frozen=True)
class SolveConfig:
    max_depth: int = 10_000
    step_budget: int = 5_000_000
    loop_check: bool = True
    wall_timeout: Optional[float] = None
    trace: Optional[Callable[[str], None]] = None

    def __post_init__(self):
        if self.max_depth < 0 or self.step_budget < 0:
            raise ValueError("max_depth and step_budget must be at least 0")
        if self.wall_timeout is not None and not self.wall_timeout >= 0:
            raise ValueError("wall_timeout must be a number of seconds, at least 0")

    def time_left(self, start: float) -> SolveConfig:
        """This config with its wall-clock limit counted from `start`, a
        `time.monotonic()` reading: what is left of it now, 0 once spent."""
        if self.wall_timeout is None:
            return self
        return replace(self, wall_timeout=max(0.0, start + self.wall_timeout - time.monotonic()))


@dataclass(frozen=True)
class Answer:
    """Bindings for the variables the query writes, in first-occurrence order.

    Every value is either ground or contains only presentation variables
    (_A, _B, ..., skipping names the query reports); solver-internal names
    never leak.
    """

    bindings: Dict[str, Term] = field(default_factory=dict)
    order: Tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.order:
            return "yes"
        return ", ".join(f"{v} = {format_term(self.bindings[v])}" for v in self.order)


_PRELUDE_TEXT = """\
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
subset([], _).
subset([H|T], L) :- member(H, L), subset(T, L).
"""

PRELUDE: Program = parse_program(_PRELUDE_TEXT)

_INSERT_SORTED = PredId("insert_sorted", 3)
_MEMBER = PredId("member", 2)

# Predicates the solver provides when the program does not define them.
PRELUDE_PREDS: Tuple[PredId, ...] = (*PRELUDE.index, _INSERT_SORTED)


def _cyclic_preds(index: Dict[PredId, Tuple[Clause, ...]]) -> Dict[PredId, FrozenSet[PredId]]:
    """The predicates that sit on a cycle of the program's call graph, each
    mapped to its strongly connected component.

    Only these can ever meet a same-predicate ancestor on a derivation
    path, so the variant loop check is restricted to them, and a call can
    only descend into the predicates of its own component.  Facts add no
    edges, so the graph is read from the rules alone.  A predicate is
    cyclic when it reaches itself, and its component is what it reaches
    that reaches it back; the members share one frozenset.  One closure
    per rule predicate costs O(P·(P+E)) against a linear pass's O(P+E),
    which is nothing at the few dozen rule predicates a program here has.
    """
    adj = {p: {lit.pred for c in cs for lit in c.body} for p, cs in index.items()}
    reach = {p: forward_closure(adj, (p,)) for p, succ in adj.items() if succ}
    cyclic: Dict[PredId, FrozenSet[PredId]] = {}
    for p, out in reach.items():
        if p in out and p not in cyclic:
            members = frozenset(q for q in out if p in reach.get(q, ()))
            cyclic.update(dict.fromkeys(members, members))
    return cyclic


def _descent_positions(
    index: Dict[PredId, Tuple[Clause, ...]], cyclic: Dict[PredId, FrozenSet[PredId]]
) -> Dict[PredId, int]:
    """A descent position for each cyclic predicate that has one.

    A component's predicates get position i when every positive call from
    their clauses to the component passes, at i, a proper subterm of the
    head's argument i; a negated call is exempt, as its proof starts with
    no ancestors.  Every same-component call beneath a call whose argument
    there is ground then holds a strictly smaller ground term there, so
    the loop check can skip it (a structural level mapping: Bezem 1989;
    Apt & Pedreschi 1993).  The component shares one position, each tried
    in turn, so every clause is read at most once per argument position.
    """
    out: Dict[PredId, int] = {}
    for members in dict.fromkeys(cyclic.values()):
        clauses = [c for p in members for c in index[p]]
        for i in range(min(p.arity for p in members)):
            if all(
                lit.negated
                or lit.is_builtin
                or lit.pred not in members
                or _proper_subterm(lit.atom.args[i], c.head.args[i])
                for c in clauses
                for lit in c.body
            ):
                out.update(dict.fromkeys(members, i))
                break
    return out


def _proper_subterm(s: Term, t: Term) -> bool:
    """True when `s` occurs in `t` below its root, variables read as written."""
    todo = [t] if type(t) is Struct else []
    while todo:
        cur = todo.pop()
        for a in cur.args:
            if a == s:
                return True
            if type(a) is Struct:
                todo.append(a)
    return False


def _first_arg_table(
    clauses: Tuple[Clause, ...],
) -> Tuple[Dict[object, Tuple[Clause, ...]], Tuple[Clause, ...]]:
    """Index a predicate's clauses by the first argument of their heads.

    A head's key is the `_arg_key` of its first argument: a constant's
    value, or a compound's functor and arity.  The dict maps each head's key
    to the clauses a call with that key can match: those with the key and
    those with a variable there.  The second value holds the variable-headed
    clauses alone, for keys no head has.  Both keep source order.  When
    every first argument is a distinct constant, as in a scene's facts, the
    dict comes from one comprehension.
    """
    firsts = [c.head.args[0] for c in clauses]
    if all(type(f) is Const for f in firsts):
        table = {f.value: (c,) for f, c in zip(firsts, clauses)}
        if len(table) == len(clauses):
            return table, ()
    by_key: Dict[object, List[Clause]] = {}
    open_heads: List[Clause] = []
    for c, first in zip(clauses, firsts):
        if type(first) is Var:
            open_heads.append(c)
            for got in by_key.values():
                got.append(c)
        else:
            by_key.setdefault(_arg_key(first), list(open_heads)).append(c)
    return {k: tuple(v) for k, v in by_key.items()}, tuple(open_heads)


def _arg_key(t: Term) -> object:
    """Index key of a bound argument: int 1, atom '1' and f/1 stay apart."""
    return t.value if type(t) is Const else (t.functor, len(t.args))


class _ProgramIndex:
    """What the solver derives from a program, built once per program.

    `lookup` maps each predicate to its clauses, the prelude filling in
    what the program does not define; `cyclic` holds the predicates on a
    cycle of the call graph, and `descent` the descent position of those
    that have one (see `_descent_positions`); `tables` holds first-argument
    tables, every rule predicate's from the start and a fact-only
    predicate's from the first call to it with a bound first argument.  It
    is cached on the program, so every solve over the same program (the
    planner's one per plan length) shares it.  `layer_facts` puts a
    program's facts on top of a built index without deriving the rest
    again.
    """

    __slots__ = ("lookup", "cyclic", "descent", "tables", "native_insert", "native_member")

    def __init__(self, program: Program):
        lookup = dict(program.index)
        for pred, clauses in PRELUDE.index.items():
            lookup.setdefault(pred, clauses)
        self.lookup = lookup
        components = _cyclic_preds(lookup)
        self.cyclic = set(components)
        self.descent = _descent_positions(lookup, components)
        self.tables: Dict[PredId, tuple] = {
            pred: _first_arg_table(clauses)
            for pred, clauses in lookup.items()
            if pred.arity and any(c.body for c in clauses)
        }
        self.native_insert = _INSERT_SORTED not in program.index
        self.native_member = _MEMBER not in program.index

    def clauses(self, pred: PredId, first: Term) -> Tuple[Clause, ...]:
        """The clauses of `pred` a call whose first argument is `first`
        (resolved, not a variable) can match, in source order."""
        table = self.tables.get(pred)
        if table is None:
            table = self.tables[pred] = _first_arg_table(self.lookup[pred])
        by_key, open_heads = table
        return by_key.get(_arg_key(first), open_heads)


def _program_index(program: Program) -> _ProgramIndex:
    idx = program.solver_index
    if idx is None:
        idx = program.solver_index = _ProgramIndex(program)
    return idx


def layer_facts(kb: Program, facts: Program) -> Program:
    """`kb + facts`, solved over kb's own index with the facts' predicates
    layered on top: kb is indexed once, however many fact programs meet it.

    Facts add no call-graph edge, so the layered index is a copy of kb's
    that shares its cyclic set and descent positions; only its lookup and
    tables (a few dozen entries) are copied again, not derived from every
    clause.  Raises ValueError when `facts` holds a rule, or defines a
    predicate that kb, the prelude or the solver already provides.
    """
    if any(c.body for c in facts.clauses):
        raise ValueError("only facts can be layered on a program's index")
    base = _program_index(kb)
    clash = [p for p in facts.index if p in base.lookup or p in PRELUDE_PREDS]
    if clash:
        names = ", ".join(map(str, clash))
        raise ValueError(f"facts define {names}, which the program already provides")
    index = copy.copy(base)
    index.lookup = {**base.lookup, **facts.index}
    index.tables = dict(base.tables)
    program = kb + facts
    program.solver_index = index
    return program


def _is_cell(t: Term) -> bool:
    return type(t) is Struct and t.functor == LIST_FUNCTOR and len(t.args) == 2


_FAILED = object()


class _Solver:
    def __init__(self, program: Program, goals: Sequence[Literal], config: SolveConfig):
        if not goals:
            raise ValueError("empty goal list")
        self.config = config
        self.goals = list(goals)
        self.steps = 0
        self.step_limit = config.step_budget
        self.deadline = (
            time.monotonic() + config.wall_timeout
            if config.wall_timeout is not None
            else None
        )
        self.fresh = itertools.count()
        self.bindings: Subst = {}
        self.trail: List[str] = []
        self.index = _program_index(program)
        seen: Dict[str, None] = {}
        for lit in goals:
            for name in term_vars(lit.atom):
                seen.setdefault(name)
        # A query's `_` is named `_#A<n>` (see the parser) and is no answer.
        self.query_vars: Tuple[str, ...] = tuple(n for n in seen if not n.startswith("_#"))
        self.query_terms = tuple(map(Var, self.query_vars))
        self.seen_answers: Set[Tuple[Term, ...]] = set()

    def _step(self) -> None:
        self.steps += 1
        if self.steps > self.step_limit:
            raise BudgetExceeded(f"step budget exhausted after {self.steps} steps")
        # The clock is read on a solve's first step and every 256th after it.
        if self.deadline is not None and self.steps & 0xFF == 1:
            if time.monotonic() >= self.deadline:
                raise SolveTimeout("wall-clock limit reached")

    # -- derivation machinery ------------------------------------------------

    def run(self) -> Iterator[Answer]:
        # Goal stack nodes are (atom, literal, ancestors, depth, next): the
        # atom to solve and the literal it was built from, which carries its
        # predicate and flags.  Ancestors links the (loop-check key, parent)
        # frames of keyed calls.  A negation's proof marker is a node
        # whose literal is the negated one and whose atom is the index of
        # the negation's barrier in the choice-point stack.
        cur = None
        for lit in reversed(self.goals):
            cur = (lit.atom, lit, None, 0, cur)
        cps: List[list] = []
        cfg = self.config
        while True:
            if cur is None:
                ans = self._answer()
                if ans is not None:
                    yield ans
                cur = self._backtrack(cps)
                if cur is _FAILED:
                    return
                continue
            atom, lit, anc, depth, nxt = cur
            ok: object
            if lit.negated:
                if type(atom) is int:
                    # The marker is reached: the negated atom has a proof.
                    undo_trail(self.bindings, self.trail, cps[atom][3])
                    del cps[atom:]
                    ok = _FAILED
                else:
                    self._step()
                    if not _ground(atom, self.bindings):
                        text = format_term(apply_subst(self.bindings, atom))
                        raise FlounderError(f"negated call not ground: not {text}")
                    # Prove the atom as a positive goal with no ancestors,
                    # behind a barrier that is resumed once its search is
                    # exhausted (see _resume) and a marker that cuts it.
                    marker = (len(cps), lit, None, depth, None)
                    cps.append([cur, None, 0, len(self.trail), None])
                    ok = (atom, Literal(atom), None, depth + 1, marker)
            elif lit.is_builtin:
                self._step()
                ok = nxt if self._builtin(atom) else _FAILED
            else:
                pred = lit.pred
                if self.index.native_insert and pred == _INSERT_SORTED:
                    self._step()
                    ok = nxt if self._insert_sorted(atom) else _FAILED
                else:
                    if depth >= cfg.max_depth:
                        raise BudgetExceeded(f"derivation depth cap {cfg.max_depth} exceeded")
                    # A new choice point is on top, so _backtrack resumes it first.
                    cp = self._choice_point(cur, pred)
                    if cp is not None:
                        cps.append(cp)
                    ok = _FAILED
            if ok is _FAILED:
                cur = self._backtrack(cps)
                if cur is _FAILED:
                    return
            else:
                cur = ok

    def _backtrack(self, cps: List[list]) -> object:
        while cps:
            nxt = self._resume(cps[-1])
            if nxt is not _FAILED:
                return nxt
            cps.pop()
        undo_trail(self.bindings, self.trail, 0)
        return _FAILED

    def _choice_point(self, node: tuple, pred: PredId) -> Optional[list]:
        """Open the choice point of a call, or return None if the loop check cuts it.

        A choice point is [node, alternatives, position, trail mark, key].
        The alternatives are the call's candidate clauses, or, for a native
        member/2 walk, the rest of the list.  A negation's barrier has None
        there, and its node is the negated literal's.
        """
        atom, _, anc, depth, _ = node
        idx = self.index
        cfg = self.config
        cell = None
        if pred == _MEMBER and idx.native_member:
            cell = _walk(atom.args[1], self.bindings)
            if not _is_cell(cell):
                cell = None
        key = None
        if cell is None and cfg.loop_check and pred in idx.cyclic:
            # A call whose descent argument is ground cannot loop: no key, no frame.
            pos = idx.descent.get(pred)
            if pos is None or not _ground(atom.args[pos], self.bindings):
                key = variant_key(apply_subst(self.bindings, atom))
                if self._seen_on_path(anc, key):
                    self._step()
                    return None
        if cfg.trace is not None:
            cfg.trace("  " * depth + "call " + format_term(apply_subst(self.bindings, atom)))
        if cell is not None:
            return [node, cell, 0, len(self.trail), None]
        clauses = idx.lookup.get(pred, ())
        if clauses and type(atom) is Struct:
            first = _walk(atom.args[0], self.bindings)
            if type(first) is not Var:
                clauses = idx.clauses(pred, first)
        return [node, clauses, 0, len(self.trail), key]

    def _resume(self, cp: list) -> object:
        """Take the choice point's next alternative.

        Returns the goal node to continue with, or _FAILED with the trail
        undone to the choice point's mark when no alternative is left.
        """
        node, clauses, _, mark, key = cp
        if type(clauses) is not tuple:
            if clauses is not None:
                return self._next_cell(cp)
            # A barrier is resumed once the negated atom's search is
            # exhausted: the negation holds, once.
            undo_trail(self.bindings, self.trail, mark)
            if cp[2]:
                return _FAILED
            cp[2] = 1
            return node[4]
        atom, lit, anc, depth, nxt = node
        while cp[2] < len(clauses):
            clause = clauses[cp[2]]
            cp[2] += 1
            undo_trail(self.bindings, self.trail, mark)
            self._step()
            slots, head_args, head_code, body_code = clause.code
            frame: List[Optional[Term]] = [None] * slots
            if head_args and not self._unify_head(atom.args, head_args, head_code, frame):
                continue
            out = nxt
            if body_code:
                up = anc if key is None else (key, anc)
                atoms = rename_apart_term(body_code, frame, self.fresh)
                body = clause.body
                for i in range(len(atoms) - 1, -1, -1):
                    out = (atoms[i], body[i], up, depth + 1, out)
            return out
        undo_trail(self.bindings, self.trail, mark)
        return _FAILED

    def _unify_head(self, args: tuple, templates: tuple, code: tuple, frame: list) -> bool:
        """Unify a call's arguments with a clause head's argument templates.

        Arguments are matched first to last, depth first.  A slot met for
        the first time takes the call's subterm as it is, with no variable,
        binding or trail entry; a slot met again unifies its term with the
        call's subterm, which binds the earlier of two unbound variables to
        the later.  Constants and ground compounds of the head are shared:
        a constant is compared in place, a ground compound goes to
        `unify_in_place`.  A head compound with variables that meets an
        unbound variable is built from the frame and bound to it after the
        occurs check.  On failure the caller undoes the trail.
        """
        bindings = self.bindings
        trail = self.trail
        todo = list(zip(reversed(args), reversed(templates)))
        while todo:
            a, t = todo.pop()
            if type(t) is int:
                had = frame[t]
                if had is None:
                    frame[t] = a
                elif not unify_in_place(had, a, bindings, trail):
                    return False
                continue
            while type(a) is Var:
                b = bindings.get(a.name)
                if b is None:
                    break
                a = b
            if type(t) is tuple:  # a compound with variables
                if type(a) is Struct:
                    if a.functor != t[0] or len(a.args) != len(t[1]):
                        return False
                    todo.extend(zip(reversed(a.args), reversed(t[1])))
                elif type(a) is Var:
                    built = rename_apart_term(code[t[2] : t[3]], frame, self.fresh)[0]
                    if _occurs(a.name, built, bindings):
                        return False
                    bindings[a.name] = built
                    trail.append(a.name)
                else:
                    return False
            elif a is not t:  # a constant or a ground compound
                if type(a) is Var:
                    bindings[a.name] = t
                    trail.append(a.name)
                elif type(t) is Const:
                    if type(a) is not Const or a.value != t.value:
                        return False
                elif not unify_in_place(a, t, bindings, trail):
                    return False
        return True

    def _next_cell(self, cp: list) -> object:
        """Native member(X, L): unify X with the head of the next list cell.

        The rest of the list is resolved only after the trail is undone, so
        bindings made for one element never steer the walk.  Each cell costs
        one step and one unification, whatever its head.  An unbound tail is
        the last alternative: a member/2 call of its own, on the prelude
        clauses, at the same depth and with the same ancestors.
        """
        node, _, _, mark, _ = cp
        atom, lit, anc, depth, nxt = node
        x = atom.args[0]
        while True:
            undo_trail(self.bindings, self.trail, mark)
            rest = _walk(cp[1], self.bindings)
            if not _is_cell(rest):
                break
            self._step()
            head, cp[1] = rest.args
            if unify_in_place(x, head, self.bindings, self.trail):
                return nxt
        cp[1] = EMPTY_LIST
        if type(rest) is Var:
            return (Struct(_MEMBER.name, (x, rest)), lit, anc, depth, nxt)
        return _FAILED

    def _seen_on_path(self, anc, key: Tuple[int, tuple]) -> bool:
        while anc is not None:
            akey, anc = anc
            # A key names its predicate and leads with its hash, so most frames fail one int compare.
            if akey == key:
                return True
        return False

    # -- deterministic goals ---------------------------------------------------

    def _builtin(self, atom: Term) -> bool:
        assert isinstance(atom, Struct)
        lhs, rhs = atom.args
        keep = atom.functor == "="
        mark = len(self.trail)
        ok = unify_in_place(lhs, rhs, self.bindings, self.trail)
        if ok and keep:
            return True
        undo_trail(self.bindings, self.trail, mark)
        # \= succeeds exactly when the two sides do not unify
        return not (ok or keep)

    def _insert_sorted(self, atom: Term) -> bool:
        assert isinstance(atom, Struct)
        item, lst, out = atom.args
        if not (_ground(item, self.bindings) and _ground(lst, self.bindings)):
            raise FlounderError("insert_sorted/3 needs ground item and list")
        item = apply_subst(self.bindings, item)
        items, tail = list_parts(apply_subst(self.bindings, lst))
        if tail != EMPTY_LIST:
            raise FlounderError("insert_sorted/3 needs a proper list")
        if item not in items:
            bisect.insort(items, item, key=format_term)
        return unify_in_place(out, make_list(items), self.bindings, self.trail)

    # -- answers ---------------------------------------------------------------

    def _answer(self) -> Optional[Answer]:
        values = tuple([apply_subst(self.bindings, v) for v in self.query_terms])
        if not all([type(v) is Const or (type(v) is Struct and v.ground) for v in values]):
            # Free variables become _A, _B, ... in order of first occurrence.
            # A label the query itself reports would read as that variable,
            # so it is skipped.
            labels = (x for x in map(_label, itertools.count()) if x not in self.query_vars)
            free = dict.fromkeys(n for v in values for n in term_vars(v))
            rename: Subst = {n: Var(next(labels)) for n in free}
            values = tuple([apply_subst(rename, v) for v in values])
        # Presented values rename free variables canonically, so equal
        # tuples are variant answers; terms, not their text, because an
        # integer and an atom can print alike.
        if values in self.seen_answers:
            return None
        self.seen_answers.add(values)
        return Answer(dict(zip(self.query_vars, values)), self.query_vars)


def _label(i: int) -> str:
    """The i-th presentation variable's name: _A ... _Z, then _V26, ..."""
    return "_" + (chr(ord("A") + i) if i < 26 else f"V{i}")


def solve(
    program: Program,
    goals: Sequence[Literal],
    config: Optional[SolveConfig] = None,
) -> Iterator[Answer]:
    """Lazily enumerate answers for a conjunctive query.

    Answers are deduplicated by variant.  The generator raises
    BudgetExceeded or SolveTimeout when a resource limit interrupts the
    search; normal exhaustion just ends the iteration.
    """
    return _Solver(program, goals, config or SolveConfig()).run()


def solve_all(
    program: Program,
    goals: Sequence[Literal],
    config: Optional[SolveConfig] = None,
) -> Tuple[List[Answer], str]:
    """Collect every answer plus a final status.

    Status is one of "exhausted", "budget_exceeded" or "timeout"; the
    answers already produced are returned either way.
    """
    answers: List[Answer] = []
    try:
        for a in solve(program, goals, config):
            answers.append(a)
    except BudgetExceeded:
        return answers, "budget_exceeded"
    except SolveTimeout:
        return answers, "timeout"
    return answers, "exhausted"
