"""Solver behaviour: answers, negation, budgets, and oracle agreement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_program
from homelog.engine import (
    BudgetExceeded,
    FlounderError,
    SolveConfig,
    solve,
    solve_all,
)
from homelog.fixpoint import fixpoint_answers
from homelog.parser import parse_program, parse_query
from homelog.program import Literal, PredId
from homelog.terms import Const, Struct, Var, format_term, make_list


def answers_for(program, query_text, config=None):
    answers, status = solve_all(program, parse_query(query_text), config)
    assert status == "exhausted"
    return answers


def answer_tuples(program, goals, config=None):
    """Ground answers as a set of argument tuples, for oracle comparison."""
    answers, status = solve_all(program, goals, config)
    assert status == "exhausted"
    return {tuple(a.bindings[v] for v in a.order) for a in answers}


# -- basic resolution ------------------------------------------------------------


def test_ground_query_yes(family_program):
    answers = answers_for(family_program, "?- parent(tony, abe).")
    assert [str(a) for a in answers] == ["yes"]


def test_ground_query_no(family_program):
    assert answers_for(family_program, "?- parent(abe, tony).") == []


def test_family_niece_frozen(family_program):
    answers = answers_for(family_program, "?- niece(X, Y).")
    assert [str(a) for a in answers] == ["X = sarah, Y = jill"]


def test_family_parent_frozen(family_program):
    got = answer_tuples(family_program, parse_query("?- parent(X, Y)."))
    assert got == {
        (Const("tony"), Const("abe")),
        (Const("tony"), Const("jill")),
        (Const("abe"), Const("sarah")),
    }


def test_clauses_tried_in_source_order():
    p = parse_program("pick(first). pick(second). pick(third).")
    answers = answers_for(p, "?- pick(X).")
    assert [str(a) for a in answers] == ["X = first", "X = second", "X = third"]


def test_duplicate_answers_collapse():
    p = parse_program("p(a). p(a). q(X) :- p(X).")
    assert [str(a) for a in answers_for(p, "?- q(X).")] == ["X = a"]


def test_undefined_predicate_just_fails(family_program):
    assert answers_for(family_program, "?- nosuchthing(X).") == []


def test_unbound_answer_uses_presentation_names():
    p = parse_program("pair(X, X).")
    answers = answers_for(p, "?- pair(A, B).")
    assert [str(a) for a in answers] == ["A = _A, B = _A"]


def test_empty_goal_list_rejected(family_program):
    with pytest.raises(ValueError):
        list(solve(family_program, []))


# -- builtins and prelude --------------------------------------------------------


def test_equality_builtin():
    p = parse_program("id(X, Y) :- X = Y.")
    answers = answers_for(p, "?- id(a, Z).")
    assert [str(a) for a in answers] == ["Z = a"]


def test_disequality_builtin(family_program):
    assert [str(a) for a in answers_for(family_program, "?- a \\= b.")] == ["yes"]
    assert answers_for(family_program, "?- a \\= a.") == []


def test_occurs_check_blocks_cyclic_binding():
    p = parse_program("wrap(X, f(X)).")
    assert answers_for(p, "?- wrap(Y, Y).") == []


def test_prelude_member_enumerates_in_order(family_program):
    answers = answers_for(family_program, "?- member(X, [c, a, b]).")
    assert [str(a) for a in answers] == ["X = c", "X = a", "X = b"]


def test_prelude_subset(family_program):
    assert [str(a) for a in answers_for(family_program, "?- subset([a, b], [b, c, a]).")] == ["yes"]
    assert answers_for(family_program, "?- subset([a, d], [b, c, a]).") == []


def test_program_definition_overrides_prelude():
    p = parse_program("member(zzz, _).")
    answers = answers_for(p, "?- member(X, [a, b]).")
    assert [str(a) for a in answers] == ["X = zzz"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("abcd"), max_size=6))
def test_member_yields_unique_elements_in_first_occurrence_order(xs):
    p = parse_program("seed(none).")
    lst = make_list([Const(x) for x in xs])
    answers, status = solve_all(p, [Literal(Struct("member", (Var("X"), lst)))])
    assert status == "exhausted"
    expected = list(dict.fromkeys(xs))
    assert [format_term(a.bindings["X"]) for a in answers] == expected


def test_native_insert_sorted_inserts_by_text(family_program):
    answers = answers_for(
        family_program,
        "?- insert_sorted(close(tv1), [close(couch1), holds(plate2)], L).",
    )
    assert [str(a) for a in answers] == ["L = [close(couch1), close(tv1), holds(plate2)]"]


def test_native_insert_sorted_deduplicates(family_program):
    answers = answers_for(family_program, "?- insert_sorted(b, [a, b, c], L).")
    assert [str(a) for a in answers] == ["L = [a, b, c]"]


def test_native_insert_sorted_needs_ground_input(family_program):
    with pytest.raises(FlounderError):
        answers_for(family_program, "?- insert_sorted(X, [a], L).")


def test_program_can_redefine_insert_sorted():
    p = parse_program("insert_sorted(a, b, c).")
    answers = answers_for(p, "?- insert_sorted(a, b, Z).")
    assert [str(a) for a in answers] == ["Z = c"]


# -- negation as failure -----------------------------------------------------------


def test_naf_success_and_failure():
    p = parse_program("p(a). q(X) :- r(X), not p(X). r(a). r(b).")
    answers = answers_for(p, "?- q(X).")
    assert [str(a) for a in answers] == ["X = b"]


def test_naf_on_unbound_variable_flounders():
    p = parse_program("p(a).")
    with pytest.raises(FlounderError):
        answers_for(p, "?- not p(X).")


def test_naf_over_budget_is_an_error_not_success():
    # The sub-derivation for the negated call never terminates once the
    # loop check is off; that must surface as BudgetExceeded, not "yes".
    p = parse_program("loop(X) :- loop(X). top :- not loop(a).")
    cfg = SolveConfig(loop_check=False, step_budget=20_000)
    with pytest.raises(BudgetExceeded):
        list(solve(p, parse_query("?- top."), cfg))


def test_naf_over_cyclic_call_decided_by_loop_check():
    p = parse_program("loop(X) :- loop(X). top :- not loop(a).")
    answers = answers_for(p, "?- top.", SolveConfig(step_budget=20_000))
    assert [str(a) for a in answers] == ["yes"]


# -- loop check and resource limits -----------------------------------------------


def test_left_recursive_family_terminates_within_budget(family_program):
    cfg = SolveConfig(step_budget=100_000)
    answers, status = solve_all(family_program, parse_query("?- niece(X, Y)."), cfg)
    assert status == "exhausted"
    assert [str(a) for a in answers] == ["X = sarah, Y = jill"]


def test_left_recursion_diverges_without_loop_check(family_program):
    cfg = SolveConfig(loop_check=False, step_budget=50_000)
    answers, status = solve_all(family_program, parse_query("?- niece(X, Y)."), cfg)
    assert status == "budget_exceeded"


def test_loop_check_only_cuts_variant_calls():
    # Structurally shrinking recursion must still run to completion.
    p = parse_program("len([], z). len([_|T], s(N)) :- len(T, N).")
    answers = answers_for(p, "?- len([a, b, c], N).")
    assert [str(a) for a in answers] == ["N = s(s(s(z)))"]


def test_loop_check_tells_integers_from_lookalike_atoms():
    # p(1) calls p(i1), which is not a variant of it, so the call must run.
    p = parse_program("p(1) :- p(i1). p(i1).")
    assert [str(a) for a in answers_for(p, "?- p(1).")] == ["yes"]
    assert (Const(1),) in fixpoint_answers(p, PredId("p", 1))


def test_member_over_a_long_list_fact():
    # The loop-check key, the occurs check and renaming walk the whole list;
    # none of them may recurse once per element.
    items = ", ".join(f"x{i}" for i in range(3000))
    p = parse_program(f"items([{items}]).\nhas(X) :- items(L), member(X, L).\n")
    assert [str(a) for a in answers_for(p, "?- has(x1500).")] == ["yes"]


def test_depth_cap_raises():
    p = parse_program("count(z). count(s(X)) :- count(X).")
    gen = solve(p, parse_query("?- count(s(s(s(s(z)))))."), SolveConfig(max_depth=3))
    with pytest.raises(BudgetExceeded):
        list(gen)


def test_budget_exceeded_raised_from_generator():
    p = parse_program("spin :- spin.")
    gen = solve(p, parse_query("?- spin."), SolveConfig(loop_check=False, step_budget=5_000))
    with pytest.raises(BudgetExceeded):
        next(gen)


def test_wall_timeout_reported_as_status():
    # A generous depth cap keeps the step budget and depth limits out of the
    # way so the wall clock is the limit that actually fires.
    p = parse_program("spin :- spin.")
    cfg = SolveConfig(loop_check=False, wall_timeout=0.05, max_depth=10**9)
    answers, status = solve_all(p, parse_query("?- spin."), cfg)
    assert answers == []
    assert status == "timeout"


def test_budget_growth_yields_answer_prefixes():
    program, goals = random_program(11)
    with_big, status = solve_all(program, goals, SolveConfig(step_budget=1_000_000))
    assert status == "exhausted"
    big = [str(a) for a in with_big]
    for budget in (50, 200, 1_000, 10_000):
        got, _ = solve_all(program, goals, SolveConfig(step_budget=budget))
        texts = [str(a) for a in got]
        assert texts == big[: len(texts)]


def test_answers_stream_lazily(family_program):
    gen = solve(family_program, parse_query("?- parent(X, Y)."))
    first = next(gen)
    assert str(first) == "X = tony, Y = abe"
    gen.close()


def test_determinism_across_runs():
    program, goals = random_program(23)
    runs = []
    for _ in range(2):
        answers, status = solve_all(program, goals)
        runs.append((status, [str(a) for a in answers]))
    assert runs[0] == runs[1]


def test_trace_callback_sees_calls(family_program):
    lines = []
    cfg = SolveConfig(trace=lines.append)
    answers_for(family_program, "?- parent(tony, abe).", cfg)
    assert any(line.strip().startswith("call parent") for line in lines)


# -- agreement with the bottom-up oracle ------------------------------------------


def test_family_answers_match_fixpoint(family_program):
    for name in ("parent", "sibling", "grandparent", "auntuncle", "niece"):
        goals = parse_query(f"?- {name}(Q0, Q1).")
        got = answer_tuples(family_program, goals, SolveConfig(step_budget=200_000))
        want = fixpoint_answers(family_program, PredId(name, 2))
        assert got == want, name


@pytest.mark.parametrize("seed", range(25))
def test_random_programs_match_fixpoint(seed):
    program, goals = random_program(seed)
    got = answer_tuples(program, goals)
    pred = goals[0].pred
    want = fixpoint_answers(program, pred)
    assert got == want
