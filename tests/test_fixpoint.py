"""The bottom-up oracle on its own: derived sets and fragment limits."""

import pytest

from homelog.fixpoint import OracleUnsupported, fixpoint_answers, fixpoint_eval
from homelog.parser import parse_program
from homelog.program import PredId
from homelog.terms import Const, Struct


def atom(functor, *names):
    return Struct(functor, tuple(Const(n) for n in names))


def test_single_fact_program():
    derived = fixpoint_eval(parse_program("parent(tony, abe)."))
    assert derived == {atom("parent", "tony", "abe")}


def test_family_fixpoint_contains_expected_atoms(family_program):
    derived = fixpoint_eval(family_program)
    assert atom("sibling", "abe", "jill") in derived
    assert atom("sibling", "jill", "abe") in derived
    assert atom("auntuncle", "jill", "sarah") in derived
    assert atom("niece", "sarah", "jill") in derived
    assert atom("grandparent", "tony", "sarah") in derived
    # The \= guard keeps reflexive pairs out of sibling/2.
    assert atom("sibling", "abe", "abe") not in derived


def test_family_niece_answers_frozen(family_program):
    got = fixpoint_answers(family_program, PredId("niece", 2))
    assert got == {(Const("sarah"), Const("jill"))}


def test_family_parent_answers_frozen(family_program):
    got = fixpoint_answers(family_program, PredId("parent", 2))
    assert got == {
        (Const("tony"), Const("abe")),
        (Const("tony"), Const("jill")),
        (Const("abe"), Const("sarah")),
    }


def test_chained_rules_reach_fixpoint():
    text = """
    edge(a, b). edge(b, c). edge(c, d).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- edge(X, Y), path(Y, Z).
    """
    got = fixpoint_answers(parse_program(text), PredId("path", 2))
    assert got == {
        (Const(x), Const(y))
        for x, y in [
            ("a", "b"), ("b", "c"), ("c", "d"),
            ("a", "c"), ("b", "d"), ("a", "d"),
        ]
    }


def test_equality_builtin_binds():
    text = """
    item(a). item(b).
    same(X, Y) :- item(X), item(Y), X = Y.
    """
    got = fixpoint_answers(parse_program(text), PredId("same", 2))
    assert got == {(Const("a"), Const("a")), (Const("b"), Const("b"))}


def test_negation_unsupported():
    text = "p(a). q(X) :- p(X), not r(X)."
    with pytest.raises(OracleUnsupported):
        fixpoint_eval(parse_program(text))


def test_compound_arguments_unsupported():
    with pytest.raises(OracleUnsupported):
        fixpoint_eval(parse_program("holds(state(a))."))


def test_compound_body_arguments_unsupported():
    text = "p(a). q(X) :- p(X), r(f(X))."
    with pytest.raises(OracleUnsupported):
        fixpoint_eval(parse_program(text))


def test_non_ground_fact_unsupported():
    with pytest.raises(OracleUnsupported):
        fixpoint_eval(parse_program("p(X)."))


def test_unbound_rule_head_unsupported():
    # Y never gets a value, so the rule would derive a non-ground atom.
    with pytest.raises(OracleUnsupported):
        fixpoint_eval(parse_program("p(a). q(X, Y) :- p(X)."))


def test_non_ground_disequality_unsupported():
    # Y is bound by no body literal, so `X \= Y` cannot be decided.
    with pytest.raises(OracleUnsupported, match=r"non-ground \\= during bottom-up evaluation"):
        fixpoint_eval(parse_program("q(a). p(X) :- q(X), X \\= Y."))


def test_zero_arity_predicates():
    derived = fixpoint_eval(parse_program("raining. wet :- raining."))
    assert Const("wet") in derived
    assert fixpoint_answers(parse_program("raining. wet :- raining."), PredId("wet", 0)) == {()}
