"""Independent oracles for the solver and the variant check.

Naive bottom-up evaluation repeatedly applies every rule to the facts
derived so far until nothing new appears.  Only negation-free programs
over constants are supported; anything else raises OracleUnsupported
rather than guessing.  `variant_of` decides variance by a parallel walk,
a second definition to hold `terms.variant_key` against.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from homelog.program import Literal, PredId, Program, pred_of
from homelog.terms import Struct, Subst, Term, Var, apply_subst, term_vars, unify

__all__ = ["OracleUnsupported", "fixpoint_eval", "fixpoint_answers", "variant_of"]


class OracleUnsupported(Exception):
    """The program falls outside the oracle's fragment."""


def _check_flat(atom: Term, where: str) -> None:
    if isinstance(atom, Struct):
        for a in atom.args:
            if isinstance(a, Struct):
                raise OracleUnsupported(f"function symbol in {where}: {a.functor}/{len(a.args)}")


def _validate(program: Program) -> None:
    for clause in program:
        _check_flat(clause.head, "clause head")
        for lit in clause.body:
            if lit.negated:
                raise OracleUnsupported("negation as failure is not supported bottom-up")
            if lit.is_builtin:
                continue
            _check_flat(lit.atom, "clause body")


def _match_body(
    body: Tuple[Literal, ...],
    i: int,
    subst: Subst,
    by_pred: Dict[PredId, List[Term]],
) -> Iterator[Subst]:
    if i == len(body):
        yield subst
        return
    lit = body[i]
    if lit.is_builtin:
        assert isinstance(lit.atom, Struct)
        lhs = apply_subst(subst, lit.atom.args[0])
        rhs = apply_subst(subst, lit.atom.args[1])
        if lit.atom.functor == "=":
            ext = unify(lhs, rhs, subst)
            if ext is not None:
                yield from _match_body(body, i + 1, ext, by_pred)
        else:
            if term_vars(lhs) or term_vars(rhs):
                raise OracleUnsupported("non-ground \\= during bottom-up evaluation")
            if lhs != rhs:
                yield from _match_body(body, i + 1, subst, by_pred)
        return
    for fact in by_pred.get(lit.pred, ()):
        ext = unify(lit.atom, fact, subst)
        if ext is not None:
            yield from _match_body(body, i + 1, ext, by_pred)


def fixpoint_eval(program: Program) -> Set[Term]:
    """All ground atoms derivable from the program, as a set of terms."""
    _validate(program)
    derived: Set[Term] = set()
    by_pred: Dict[PredId, List[Term]] = {}

    def add(atom: Term) -> bool:
        if atom in derived:
            return False
        derived.add(atom)
        by_pred.setdefault(pred_of(atom), []).append(atom)
        return True

    for clause in program:
        if clause.is_fact:
            if term_vars(clause.head):
                raise OracleUnsupported("non-ground fact")
            add(clause.head)

    rules = [c for c in program if not c.is_fact]
    changed = True
    while changed:
        changed = False
        for rule in rules:
            for subst in _match_body(rule.body, 0, {}, by_pred):
                head = apply_subst(subst, rule.head)
                if term_vars(head):
                    raise OracleUnsupported("rule derives a non-ground atom")
                if add(head):
                    changed = True
    return derived


def fixpoint_answers(program: Program, pred: PredId) -> Set[Tuple[Term, ...]]:
    """Derivable argument tuples for one predicate."""
    out: Set[Tuple[Term, ...]] = set()
    for atom in fixpoint_eval(program):
        if pred_of(atom) == pred:
            out.add(atom.args if isinstance(atom, Struct) else ())
    return out


def variant_of(t1: Term, t2: Term) -> bool:
    """True when the terms are equal up to a bijective renaming of variables.

    Walks both terms in parallel with one variable map each way, so a
    variable stands for one variable on the other side and no two
    variables stand for the same one.
    """
    forth: Dict[str, str] = {}
    back: Dict[str, str] = {}
    todo = [(t1, t2)]
    while todo:
        a, b = todo.pop()
        if type(a) is Var and type(b) is Var:
            if forth.setdefault(a.name, b.name) != b.name or back.setdefault(b.name, a.name) != a.name:
                return False
        elif type(a) is Struct and type(b) is Struct:
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            todo.extend(zip(a.args, b.args))
        elif type(a) is Var or type(b) is Var or a != b:
            return False
    return True
