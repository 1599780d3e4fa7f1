"""Goal-directed SLDNF solver with loop detection and resource budgets.

Search is depth-first, clauses are tried in source order, body literals
left to right.  A call whose first argument is bound tries only the
clauses whose head's first argument can match it (first-argument
indexing), and when that argument is a compound whose own first argument
is bound, only those whose compound can match there too (a second level).
A clause is tried without copying it: the call is unified with the
clause's compiled head over a fresh frame of its variables, and the body
is built from that frame only once the head matches.

A positive call that is a variant of an ancestor call on the current
derivation path fails (loop check), which makes the kind of left
recursion found in family-tree rule sets terminate.  Negation as failure
runs the positive atom one level deeper on the same stacks, behind a
barrier choice point, under the solve's one step budget and depth cap;
non-ground negated calls flounder loudly.

Unless the program defines them, `insert_sorted/3` is native and
`member/2` walks a list's cells in one choice point: one step per cell,
no loop-check key and no derivation level per cell, and a ground element
is compared with ground cells by hash and equality rather than unified.

Answers stream lazily from a generator.  The stream ends in one of three
ways: normal exhaustion, `BudgetExceeded`, or `SolveTimeout` (the latter
two raised out of the generator, never silently swallowed).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .parser import parse_program
from .program import Clause, Literal, PredId, Program
from .terms import (
    EMPTY_LIST,
    LIST_FUNCTOR,
    Const,
    Struct,
    Subst,
    Term,
    Var,
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


@dataclass(frozen=True)
class Answer:
    """Bindings for the variables the query writes, in first-occurrence order.

    Every value is either ground or contains only presentation variables
    (_A, _B, ...); solver-internal names never leak.
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
PRELUDE_PREDS: Tuple[PredId, ...] = (
    _MEMBER,
    PredId("subset", 2),
    _INSERT_SORTED,
)


def _cyclic_preds(index: Dict[PredId, Tuple[Clause, ...]]) -> Set[PredId]:
    """Predicates that sit on a cycle of the program's call graph.

    Only these can ever meet a same-predicate ancestor on a derivation
    path, so the variant loop check is restricted to them.  Facts add no
    edges, so the graph is read from the rules alone, and its strongly
    connected components come from one iterative pass (Tarjan's).
    """
    adj: Dict[PredId, Set[PredId]] = {}
    for pred, clauses in index.items():
        for c in clauses:
            if c.body:
                succ = adj.setdefault(pred, set())
                succ.update(lit.pred for lit in c.body if not lit.is_builtin)
    order: Dict[PredId, int] = {}
    low: Dict[PredId, int] = {}
    stack: List[PredId] = []
    cyclic: Set[PredId] = set()
    for root in adj:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, succs = work[-1]
            for w in succs:
                if w not in adj:
                    continue  # no rules: on no cycle
                if w not in order:
                    order[w] = low[w] = len(order)
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if w in low:  # still on the stack
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    component = []
                    while not component or component[-1] != v:
                        component.append(stack.pop())
                        del low[component[-1]]
                    if len(component) > 1 or v in adj[v]:
                        cyclic.update(component)
    return cyclic


def _first_arg_table(
    clauses: Tuple[Clause, ...],
) -> Tuple[Dict[object, Tuple[Clause, ...]], Tuple[Clause, ...]]:
    """Index a predicate's clauses by the first argument of their heads, in
    two levels: a compound is keyed by its functor and arity and also by
    the key of its own first argument.

    A head's key is a constant's value, or (functor, arity, inner) for a
    compound, where inner is the `_arg_key` of the compound's first
    argument, or None when that is a variable.  The dict maps each head's
    key, and each compound's (functor, arity), to the clauses a call with
    that key can match: those with the key, those with a variable there,
    and, for a compound key, those of the same functor and arity whose
    inner argument is a variable; (functor, arity) takes the whole family,
    for calls whose inner argument is unbound.  The second value holds the
    variable-headed clauses alone, for keys no head has.  All keep source
    order.  When every first argument is a distinct constant, as in a
    scene's facts, the dict comes from one comprehension.
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
            keys: Iterable[object] = list(by_key)
        elif type(first) is Const:
            keys = (first.value,)
        else:
            outer = (first.functor, len(first.args))
            inner = first.args[0]
            if type(inner) is Var:
                # It matches every call of its functor and arity.
                keys = {outer, outer + (None,), *(k for k in by_key if type(k) is tuple and k[:2] == outer)}
            else:
                k = outer + (_arg_key(inner),)
                if k not in by_key:
                    # The earlier clauses that match k are those that match
                    # an inner argument no head has.
                    by_key[k] = list(by_key.get(outer + (None,), open_heads))
                keys = (outer, k)
        for k in keys:
            got = by_key.get(k)
            if got is None:
                got = by_key[k] = list(open_heads)
            got.append(c)
    return {k: tuple(v) for k, v in by_key.items()}, tuple(open_heads)


def _arg_key(t: Term) -> object:
    """Index key of a bound argument: int 1, atom '1' and f/1 stay apart."""
    return t.value if type(t) is Const else (t.functor, len(t.args))


class _ProgramIndex:
    """What the solver derives from a program, built once per program.

    `lookup` maps each predicate to its clauses, the prelude filling in
    what the program does not define; `cyclic` holds the predicates on a
    cycle of the call graph; `tables` holds first-argument tables, every
    rule predicate's from the start and a fact-only predicate's from the
    first call to it with a bound first argument.  It is cached on the
    program, so every solve over the same program (the planner's one per
    plan length) shares it.  `layer_facts` puts a program's facts on top
    of a built index without deriving the rest again.
    """

    __slots__ = ("lookup", "cyclic", "tables", "native_insert", "native_member")

    def __init__(self, program: Program):
        lookup = dict(program.index)
        for pred, clauses in PRELUDE.index.items():
            lookup.setdefault(pred, clauses)
        self.lookup = lookup
        self.cyclic = _cyclic_preds(lookup)
        self.tables: Dict[PredId, tuple] = {
            pred: _first_arg_table(clauses)
            for pred, clauses in lookup.items()
            if pred.arity and any(c.body for c in clauses)
        }
        self.native_insert = _INSERT_SORTED not in program.index
        self.native_member = _MEMBER not in program.index

    def clauses(self, pred: PredId, first: Term, bindings: Subst) -> Tuple[Clause, ...]:
        """The clauses of `pred` a call whose first argument is `first`
        (resolved, not a variable) can match, in source order.  A compound's
        own first argument is read through `bindings`."""
        table = self.tables.get(pred)
        if table is None:
            table = self.tables[pred] = _first_arg_table(self.lookup[pred])
        by_key, open_heads = table
        if type(first) is Const:
            return by_key.get(first.value, open_heads)
        outer = (first.functor, len(first.args))
        inner = _walk(first.args[0], bindings)
        if type(inner) is Var:
            return by_key.get(outer, open_heads)
        got = by_key.get(outer + (_arg_key(inner),))
        if got is None:
            got = by_key.get(outer + (None,), open_heads)
        return got


def _program_index(program: Program) -> _ProgramIndex:
    idx = program.solver_index
    if idx is None:
        idx = program.solver_index = _ProgramIndex(program)
    return idx


def layer_facts(kb: Program, facts: Program) -> Program:
    """`kb + facts`, solved over kb's own index with the facts' predicates
    layered on top: kb is indexed once, however many fact programs meet it.

    Facts add no call-graph edge, so the layered index shares kb's cyclic
    set, and it copies kb's lookup and tables (a few dozen entries) rather
    than deriving them from every clause.  Raises ValueError when `facts`
    holds a rule, or defines a predicate that kb, the prelude or the solver
    already provides.
    """
    if any(c.body for c in facts.clauses):
        raise ValueError("only facts can be layered on a program's index")
    base = _program_index(kb)
    clash = [p for p in facts.index if p in base.lookup or p in PRELUDE_PREDS]
    if clash:
        names = ", ".join(map(str, clash))
        raise ValueError(f"facts define {names}, which the program already provides")
    index = _ProgramIndex.__new__(_ProgramIndex)
    index.lookup = {**base.lookup, **facts.index}
    index.cyclic = base.cyclic
    index.tables = dict(base.tables)
    index.native_insert = base.native_insert
    index.native_member = base.native_member
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
        self.seen_answers: Set[Tuple[str, ...]] = set()

    def _step(self) -> None:
        self.steps += 1
        if self.steps > self.step_limit:
            raise BudgetExceeded(f"step budget exhausted after {self.steps} steps")
        if self.deadline is not None and self.steps & 0xFF == 0:
            if time.monotonic() > self.deadline:
                raise SolveTimeout("wall-clock limit reached")

    # -- derivation machinery ------------------------------------------------

    def run(self) -> Iterator[Answer]:
        # Goal stack nodes are (atom, literal, ancestors, depth, next): the
        # atom to solve and the literal it was built from, which carries its
        # predicate and flags.  Ancestors is a linked list of (pred,
        # variant-key, parent) frames.  A negation's proof marker is a node
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
                    atom = apply_subst(self.bindings, atom)
                    if term_vars(atom):
                        raise FlounderError(f"negated call not ground: not {format_term(atom)}")
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
                    cp = self._choice_point(cur, pred)
                    if cp is None:
                        ok = _FAILED
                    else:
                        cps.append(cp)
                        ok = self._resume(cp)
                        if ok is _FAILED:
                            cps.pop()
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
            key = variant_key(atom, self.bindings)
            if self._seen_on_path(anc, pred, key):
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
                clauses = idx.clauses(pred, first, self.bindings)
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
                up = (lit.pred, key, anc)
                atoms = rename_apart_term(body_code, frame, self.fresh)
                body = clause.body
                for i in range(len(atoms) - 1, -1, -1):
                    out = (atoms[i], body[i], up, depth + 1, out)
            return out
        undo_trail(self.bindings, self.trail, mark)
        return _FAILED

    def _unify_head(self, args: tuple, templates: tuple, code: tuple, frame: list) -> bool:
        """Unify a call's arguments with a clause head's argument templates.

        A slot met for the first time takes the call's subterm as it is,
        with no variable, binding or trail entry; a slot met again is
        unified with its term.  Constants and ground compounds of the head
        are shared.  A head compound that meets an unbound variable is built
        from the frame and bound to it after the occurs check.  On failure
        the caller undoes the trail.
        """
        bindings = self.bindings
        trail = self.trail
        todo = list(zip(args, templates))
        while todo:
            a, t = todo.pop()
            if type(t) is int:
                had = frame[t]
                if had is None:
                    frame[t] = a
                elif not unify_in_place(a, had, bindings, trail):
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
                    todo.extend(zip(a.args, t[1]))
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
                elif type(a) is not Struct:
                    return False
                elif a.ground:
                    if a != t:
                        return False
                elif not unify_in_place(a, t, bindings, trail):
                    return False
        return True

    def _next_cell(self, cp: list) -> object:
        """Native member(X, L): unify X with the head of the next list cell.

        The rest of the list is resolved only after the trail is undone, so
        bindings made for one element never steer the walk.  When X resolves
        to a ground term, a ground cell is compared with it by its cached
        hash and then `==`; other cells unify.  An unbound tail is the last
        alternative: a member/2 call of its own, on the prelude clauses, at
        the same depth and with the same ancestors.
        """
        node, _, _, mark, _ = cp
        atom, lit, anc, depth, nxt = node
        undo_trail(self.bindings, self.trail, mark)
        x = _walk(atom.args[0], self.bindings)
        ground = type(x) is Const or (type(x) is Struct and x.ground)
        hx = hash(x) if ground else None
        while True:
            undo_trail(self.bindings, self.trail, mark)
            rest = _walk(cp[1], self.bindings)
            if not _is_cell(rest):
                break
            self._step()
            head, cp[1] = rest.args
            if ground and (type(head) is Const or (type(head) is Struct and head.ground)):
                if hash(head) == hx and head == x:
                    return nxt
            elif unify_in_place(x, head, self.bindings, self.trail):
                return nxt
        cp[1] = EMPTY_LIST
        if type(rest) is Var:
            return (Struct(_MEMBER.name, (x, rest)), lit, anc, depth, nxt)
        return _FAILED

    def _seen_on_path(self, anc, pred: PredId, key: Tuple[int, tuple]) -> bool:
        while anc is not None:
            apred, akey, anc = anc
            # The key leads with its hash, so most frames fail one int compare.
            if akey == key and apred == pred:
                return True
        return False

    # -- deterministic goals ---------------------------------------------------

    def _builtin(self, atom: Term) -> bool:
        assert isinstance(atom, Struct)
        lhs, rhs = atom.args
        if atom.functor == "=":
            mark = len(self.trail)
            if unify_in_place(lhs, rhs, self.bindings, self.trail):
                return True
            undo_trail(self.bindings, self.trail, mark)
            return False
        # \=: succeeds exactly when the two sides do not unify
        mark = len(self.trail)
        ok = unify_in_place(lhs, rhs, self.bindings, self.trail)
        undo_trail(self.bindings, self.trail, mark)
        return not ok

    def _insert_sorted(self, atom: Term) -> bool:
        assert isinstance(atom, Struct)
        item = apply_subst(self.bindings, atom.args[0])
        lst = apply_subst(self.bindings, atom.args[1])
        if term_vars(item) or term_vars(lst):
            raise FlounderError("insert_sorted/3 needs ground item and list")
        items, tail = list_parts(lst)
        if tail != EMPTY_LIST:
            raise FlounderError("insert_sorted/3 needs a proper list")
        if item not in items:
            text = format_term(item)
            at = len(items)
            for i, existing in enumerate(items):
                if format_term(existing) > text:
                    at = i
                    break
            items.insert(at, item)
        return unify_in_place(atom.args[2], make_list(items), self.bindings, self.trail)

    # -- answers ---------------------------------------------------------------

    def _answer(self) -> Optional[Answer]:
        free: Dict[str, Term] = {}
        values: Dict[str, Term] = {}
        for name in self.query_vars:
            values[name] = self._present(Var(name), free)
        key = tuple(format_term(values[n]) for n in self.query_vars)
        if key in self.seen_answers:
            return None
        self.seen_answers.add(key)
        return Answer(values, self.query_vars)

    def _present(self, t: Term, free: Dict[str, Term]) -> Term:
        """Resolve a term, renaming its free variables to _A, _B, ... in order of
        first occurrence, recorded in `free`; rebuilt from an explicit stack."""
        todo: List[object] = [t]
        done: List[Term] = []
        while todo:
            cur = _walk(todo.pop(), self.bindings)
            if type(cur) is tuple:
                functor, n = cur
                args = tuple(done[-n:])
                del done[-n:]
                done.append(Struct(functor, args))
            elif type(cur) is Var:
                got = free.get(cur.name)
                if got is None:
                    i = len(free)
                    label = chr(ord("A") + i) if i < 26 else f"V{i}"
                    got = free[cur.name] = Var(f"_{label}")
                done.append(got)
            elif type(cur) is Struct and not cur.ground:
                todo.append((cur.functor, len(cur.args)))
                todo.extend(reversed(cur.args))
            else:
                done.append(cur)
        return done[0]


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
