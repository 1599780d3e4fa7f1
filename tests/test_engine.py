"""Solver behaviour: answers, negation, budgets, and oracle agreement."""

import itertools
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FAMILY_TEXT, random_program
import homelog.engine as engine
from homelog.engine import (
    BudgetExceeded,
    FlounderError,
    SolveConfig,
    SolveTimeout,
    _cyclic_preds,
    _descent_positions,
    _first_arg_table,
    _program_index,
    _ProgramIndex,
    layer_facts,
    solve,
    solve_all,
)
from homelog.fixpoint import fixpoint_answers
from homelog.parser import ParseError, parse_program, parse_query, parse_term_text
from homelog.planner import TASK_CATALOG, PlanOptions, UnresolvableTask, plan, planning_kb
from homelog.program import Clause, Literal, PredId, Program
from homelog.scenes import six_object_scene
from homelog.terms import (
    Const,
    Struct,
    Var,
    apply_subst,
    format_term,
    make_list,
    term_vars,
    unify,
    variant_of,
)
from homelog.world import random_scene, state_to_facts


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


def test_answers_keep_integers_apart_from_lookalike_atoms():
    # Both answers print as `X = 1`; they are still two answers.
    p = Program([Clause(Struct("p", (Const(1),))), Clause(Struct("p", (Const("1"),)))])
    answers, status = solve_all(p, [Literal(Struct("p", (Var("X"),)))])
    assert status == "exhausted"
    assert [a.bindings["X"] for a in answers] == [Const(1), Const("1")]


def test_undefined_predicate_just_fails(family_program):
    assert answers_for(family_program, "?- nosuchthing(X).") == []


def test_unbound_answer_uses_presentation_names():
    p = parse_program("pair(X, X).")
    answers = answers_for(p, "?- pair(A, B).")
    assert [str(a) for a in answers] == ["A = _A, B = _A"]


def test_anonymous_query_variables_are_not_answers():
    p = parse_program("pair(a, b). pair(a, c).")
    # Both pair/2 facts give X = a: the `_` is no part of the dedup key.
    assert [str(a) for a in answers_for(p, "?- pair(X, _).")] == ["X = a"]
    assert [str(a) for a in answers_for(p, "?- pair(_, _).")] == ["yes"]
    # Written names that merely start with an underscore are answers.
    assert [str(a) for a in answers_for(p, "?- pair(_Foo, _A1).")] == [
        "_Foo = a, _A1 = b",
        "_Foo = a, _A1 = c",
    ]
    [answer] = answers_for(p, "?- pair(X, _), pair(_, Y), Y = b.")
    assert answer.order == ("X", "Y") and set(answer.bindings) == {"X", "Y"}


def test_answer_labels_skip_the_names_the_query_reports():
    # A label that is also a query variable would make `_A = f(_A)` read
    # as a cyclic term.
    p = parse_program("q(X, Y) :- X = f(Y). p(a, W).")
    assert [str(a) for a in answers_for(p, "?- q(_A, _B).")] == ["_A = f(_C), _B = _C"]
    assert [str(a) for a in answers_for(p, "?- p(_A, X).")] == ["_A = a, X = _B"]
    assert [str(a) for a in answers_for(p, "?- q(_B, Y).")] == ["_B = f(_A), Y = _A"]


_QUERY_VAR_NAMES = ("X", "Y", "Z", "_A", "_B")
_QUERY_TERMS = st.recursive(
    st.sampled_from([Var(n) for n in _QUERY_VAR_NAMES] + [Const("a"), Const(1)]),
    lambda kids: st.builds(Struct, st.sampled_from("fg"), st.lists(kids, min_size=1, max_size=2).map(tuple)),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_QUERY_VAR_NAMES), _QUERY_TERMS), min_size=1, max_size=3))
def test_answers_are_the_resolved_query_with_labels_in_first_occurrence_order(eqs):
    # ?- V1 = t1, ..., Vn = tn. over shared variables, some of them named
    # like labels: the one answer is the resolved query variables, up to
    # renaming, and its free variables are labels in order of first
    # occurrence, skipping every name the query reports.
    query = "?- " + ", ".join(f"{v} = {format_term(t)}" for v, t in eqs) + "."
    subst = {}
    for v, t in eqs:
        subst = unify(Var(v), t, subst) if subst is not None else None
    answers = answers_for(Program([]), query)
    if subst is None:
        assert answers == []
        return
    [answer] = answers
    presented = Struct("t", tuple(answer.bindings[v] for v in answer.order))
    resolved = Struct("t", tuple(apply_subst(subst, Var(v)) for v in answer.order))
    assert variant_of(presented, resolved)
    labels = (f"_{c}" for c in "ABCDEFGH" if f"_{c}" not in answer.order)
    assert term_vars(presented) == list(itertools.islice(labels, len(term_vars(presented))))


def test_fresh_variables_cannot_alias_query_variables():
    # Variables the solver makes up must not share a name with any the
    # query or program can write, whatever that query writes.
    p = parse_program("p(X, Y) :- X = f(Y).")
    assert [str(a) for a in answers_for(p, "?- p(_G1, _G0).")] == ["_G1 = f(_A), _G0 = _A"]
    assert [str(a) for a in answers_for(p, "?- p(A, B).")] == ["A = f(_A), B = _A"]
    p = parse_program("q(X) :- r(X, Y), s(Y). r(a, Z). s(b).")
    lines = []
    assert [str(a) for a in answers_for(p, "?- q(_G0).", SolveConfig(trace=lines.append))] == ["_G0 = a"]
    # The body-only Y shows up in the trace under a name no program can write.
    prefix = "call r(_G0, "
    line = lines[1].strip()
    assert line.startswith(prefix) and line.endswith(")")
    with pytest.raises(ParseError):
        parse_term_text(line[len(prefix) : -1])


# -- head matching ---------------------------------------------------------------


def test_repeated_head_variable_must_match_itself():
    p = parse_program("eq(X, X).")
    assert answers_for(p, "?- eq(a, b).") == []
    assert [str(a) for a in answers_for(p, "?- eq(a, a).")] == ["yes"]
    assert [str(a) for a in answers_for(p, "?- eq(Y, b).")] == ["Y = b"]
    # The second occurrence unifies under the occurs check.
    assert answers_for(p, "?- eq(Y, f(Y)).") == []
    assert answers_for(p, "?- eq(f(Y), Y).") == []


def test_head_compound_is_built_over_an_earlier_slot():
    p = parse_program("wrap(X, f(X)).")
    assert [str(a) for a in answers_for(p, "?- wrap(a, Z).")] == ["Z = f(a)"]
    assert [str(a) for a in answers_for(p, "?- wrap(W, Z).")] == ["W = _A, Z = f(_A)"]
    assert [str(a) for a in answers_for(p, "?- wrap(W, f(b)).")] == ["W = b"]
    assert answers_for(p, "?- wrap(a, g(a)).") == []
    # Built, then bound after the occurs check.
    assert answers_for(p, "?- wrap(Y, Y).") == []
    # A later slot that the built compound holds is fresh, then bound.
    p = parse_program("pre(f(X), X).")
    assert [str(a) for a in answers_for(p, "?- pre(Z, a).")] == ["Z = f(a)"]
    assert answers_for(p, "?- pre(Z, Z).") == []


def test_zero_ary_predicates():
    p = parse_program("rain. wet :- rain. dry :- not wet. sunny :- dry.")
    assert [str(a) for a in answers_for(p, "?- wet.")] == ["yes"]
    assert answers_for(p, "?- dry.") == []
    assert answers_for(p, "?- sunny.") == []
    assert answers_for(p, "?- snow.") == []


def test_body_only_variable_is_fresh_on_every_try():
    p = parse_program("one(X) :- X = g(W). two(P) :- one(A), one(B), P = pair(A, B).")
    assert [str(a) for a in answers_for(p, "?- two(P).")] == ["P = pair(g(_A), g(_B))"]
    # Each try of a recursive clause gets its own.
    p = parse_program("fresh([]). fresh([V|T]) :- fresh(T), V = v(W).")
    assert [str(a) for a in answers_for(p, "?- fresh([A, B]).")] == ["A = v(_A), B = v(_B)"]


def test_negated_literal_over_a_body_only_variable_flounders():
    p = parse_program("q(a). p(X) :- r(X), not q(Y). r(b).")
    with pytest.raises(FlounderError):
        answers_for(p, "?- p(b).")


_match_terms = st.recursive(
    st.one_of(
        st.sampled_from(["a", "b"]).map(Const),
        st.integers(min_value=0, max_value=1).map(Const),
        st.sampled_from(["X", "Y", "Z"]).map(Var),
    ),
    lambda kids: st.builds(
        Struct, st.sampled_from(["f", "g"]), st.lists(kids, min_size=1, max_size=2).map(tuple)
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.lists(_match_terms, min_size=n, max_size=n).map(tuple),
            st.lists(_match_terms, min_size=n, max_size=n).map(tuple),
        )
    )
)
@example(((Var("X"), Var("X")), (Var("Y"), Struct("f", (Var("Y"),)))))
@example(((Var("X"), Struct("f", (Var("X"),))), (Var("Y"), Var("Y"))))
@example(((Struct("f", (Var("X"),)), Var("X")), (Var("Z"), Var("Z"))))
def test_head_matching_agrees_with_copy_then_unify(args):
    head_args, call_args = args
    # The reference: copy the head apart by hand, then unify.
    names = term_vars(Struct("h", head_args))
    copy = apply_subst({n: Var(n + "_copy") for n in names}, Struct("h", head_args))
    call = Struct("h", call_args)
    mgu = unify(call, copy)
    answers, status = solve_all(Program([Clause(Struct("h", head_args))]), [Literal(call)])
    assert status == "exhausted"
    if mgu is None:
        assert answers == []
    else:
        [answer] = answers
        assert variant_of(apply_subst(answer.bindings, call), apply_subst(mgu, call))


# -- the loop check's predicates -------------------------------------------------


def test_cyclic_predicates_of_the_planning_program():
    program = planning_kb() + state_to_facts(six_object_scene())
    want = {
        PredId("member", 2),
        PredId("needed_steps", 3),
        PredId("remove_fluent", 3),
        PredId("subset", 2),
        PredId("transform", 4),
        PredId("update_walking", 3),
    }
    assert _program_index(program).cyclic == want
    assert _program_index(planning_kb() + state_to_facts(random_scene(7, 100))).cyclic == want


def test_descent_positions_of_the_planning_program():
    index = _program_index(planning_kb())
    want = {
        PredId("member", 2): 1,
        PredId("needed_steps", 3): 0,
        PredId("remove_fluent", 3): 1,
        PredId("subset", 2): 0,
        PredId("transform", 4): 3,
        PredId("update_walking", 3): 0,
    }
    assert index.descent == want
    assert set(want) == index.cyclic


@pytest.mark.parametrize(
    "text, want",
    [
        ("nat(z). nat(s(X)) :- nat(X).", {"nat": 0}),
        ("len([], z). len([_|T], s(N)) :- len(T, N).", {"len": 0}),
        ("rev([], A, A). rev([H|T], A, R) :- rev(T, [H|A], R).", {"rev": 0}),
        # Descent through two mutually recursive predicates.
        ("even(z). even(s(X)) :- odd(X). odd(s(X)) :- even(X).", {"even": 0, "odd": 0}),
        # A negated call needs no descent: its proof starts with no ancestors.
        ("even(z). even(s(X)) :- not even(X).", {"even": 0}),
        # The head's argument itself, or a larger term, is no descent.
        ("p(X) :- p(f(X)). p(a).", {}),
        ("q(X) :- q(X). q(a).", {}),
        ("a(X) :- b(X). b(X) :- a(X). a(z).", {}),
        ("a(X) :- b(X). b(f(X)) :- a(X).", {}),
        # Descent at different positions in different clauses: no common measure.
        ("p(f(X), Y) :- p(X, f(Y)). p(X, f(Y)) :- p(f(X), Y).", {}),
        ("path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), path(Z, Y). edge(a, b).", {}),
    ],
)
def test_descent_positions_of_small_programs(text, want):
    program = parse_program(text)
    got = _descent_positions(program.index, _cyclic_preds(program.index))
    assert {p.name: i for p, i in got.items()} == want


GRAPH = "edge(a, b). edge(b, c). edge(c, a). edge(c, d).\n"

# Recursive programs and queries, with the loop check cutting calls, with
# calls exempt by descent, and with both.
DESCENT_CORPUS = [
    (text + GRAPH, ("?- path(a, Y).", "?- path(X, d).", "?- path(X, Y)."))
    for text in (
        "path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), path(Z, Y).",
        "path(X, Y) :- path(X, Z), edge(Z, Y). path(X, Y) :- edge(X, Y).",
        "path(X, Y) :- edge(X, Y). path(X, Y) :- path(X, Z), path(Z, Y).",
        "path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), hop(Z, Y).\n"
        "hop(X, Y) :- edge(X, Y). hop(X, Y) :- edge(X, Z), path(Z, Y).",
    )
] + [
    (FAMILY_TEXT, ("?- niece(X, Y).", "?- parent(X, Y).")),
    ("nat(z). nat(s(X)) :- nat(X).", ("?- nat(X).", "?- nat(s(s(z))).", "?- nat(s(X)).")),
    (
        "even(z). even(s(X)) :- odd(X). odd(s(X)) :- even(X).",
        ("?- even(s(s(z))).", "?- odd(s(s(z))).", "?- even(X).", "?- odd(X)."),
    ),
    ("a(X) :- b(X). b(X) :- a(X). a(z).", ("?- a(z).", "?- b(X).")),
    ("q(a). q(X) :- q(X).", ("?- q(a).", "?- q(X).")),
    ("p(f(X), Y) :- p(X, f(Y)). p(X, f(Y)) :- p(f(X), Y). p(a, b).", ("?- p(f(a), b).", "?- p(a, f(b)).")),
    (
        "lst([a, b, c]).",
        (
            "?- lst(L), member(X, L).",
            "?- member(a, L).",
            "?- lst(L), subset([c, a], L).",
            "?- lst(L), subset(S, L).",
        ),
    ),
    ("member(X, [X|_]). member(X, [_|T]) :- member(X, T).", ("?- member(X, [a, b, a]).", "?- member(b, L).")),
    ("rev([], A, A). rev([H|T], A, R) :- rev(T, [H|A], R).", ("?- rev([a, b, c], [], R).",)),
    ("even(z). even(s(X)) :- not even(X).", ("?- even(s(s(s(z)))).", "?- even(s(s(z))).")),
]


def test_the_descent_exemption_changes_no_search(monkeypatch, loop_check_counts):
    """Answers, statuses, call traces and loop-check cut-offs are the same
    with and without the descent table, on recursive programs and on
    planning; only the number of calls keyed falls."""
    counts = loop_check_counts

    def observe(exempt):
        keyed = counts.keyed
        out = []
        for text, queries in DESCENT_CORPUS:
            program = parse_program(text)
            if not exempt:
                _program_index(program).descent = {}
            for query in queries:
                lines = []
                cut = counts.cuts
                config = SolveConfig(step_budget=2_000, trace=lines.append)
                answers, status = solve_all(program, parse_query(query), config)
                out.append((text, query, [str(a) for a in answers], status, lines, counts.cuts - cut))
        if not exempt:
            monkeypatch.setattr(_program_index(planning_kb()), "descent", {})
        for scene in (random_scene(7, 100), six_object_scene(), random_scene(1, 12), random_scene(2, 40)):
            for task in TASK_CATALOG.values():
                lines = []
                cut = counts.cuts
                try:
                    actions = plan(scene, task, PlanOptions(config=SolveConfig(trace=lines.append)))
                except UnresolvableTask as e:
                    actions = e.type_name
                out.append((task.name, actions, lines, counts.cuts - cut))
        return out, counts.keyed - keyed

    exempt, keyed = observe(True)
    full, keyed_without = observe(False)
    assert exempt == full
    assert keyed < keyed_without / 2
    nat = [row for row in exempt if row[1] == "?- nat(X)."]
    assert [row[2:4] for row in nat] == [(["X = z"], "exhausted")]


def _force_tables(index):
    """Build every predicate's first-argument table through the lookup path."""
    for pred in index.lookup:
        if pred.arity:
            index.clauses(pred, Const("no_such_key"))
    return index


@pytest.mark.parametrize("seed, n_objects", [(3, 6), (7, 100), (11, 400)])
def test_layered_index_equals_a_fresh_index(seed, n_objects):
    facts = state_to_facts(random_scene(seed, n_objects))
    program = layer_facts(planning_kb(), facts)
    fresh = _ProgramIndex(planning_kb() + facts)
    layered = program.solver_index
    assert layered is not planning_kb().solver_index
    assert layered.cyclic is planning_kb().solver_index.cyclic
    assert program == planning_kb() + facts
    assert layered.lookup == fresh.lookup
    assert layered.cyclic == fresh.cyclic
    assert layered.descent == fresh.descent
    assert (layered.native_insert, layered.native_member) == (fresh.native_insert, fresh.native_member)
    assert _force_tables(layered).tables == _force_tables(fresh).tables


def test_layering_leaves_the_knowledge_base_index_alone():
    kb = planning_kb()
    first = layer_facts(kb, state_to_facts(random_scene(7, 100)))
    base = kb.solver_index
    before = dict(base.tables)
    answers, status = solve_all(first, parse_query("?- type(X, shirt), grabbable(X)."))
    assert status == "exhausted" and answers
    _force_tables(first.solver_index)
    assert base.tables == before and kb.solver_index is base
    second = layer_facts(kb, state_to_facts(random_scene(8, 6)))
    assert second.solver_index.lookup[PredId("type", 2)] != first.solver_index.lookup[PredId("type", 2)]


@pytest.mark.parametrize(
    "fact",
    ["transform(a, b).", "member(a, b).", "subset(a, b).", "insert_sorted(a, b, c).", "goal_object(a, b)."],
)
def test_facts_that_the_knowledge_base_defines_do_not_layer(fact):
    facts = parse_program("type(a, couch).\n" + fact)
    with pytest.raises(ValueError, match="already provides"):
        layer_facts(planning_kb(), facts)


def test_rules_do_not_layer():
    with pytest.raises(ValueError, match="only facts"):
        layer_facts(planning_kb(), parse_program("type(a, couch). grabbable(X) :- type(X, couch)."))


def _head_key(c):
    """A head's index key: None for a variable, a constant's value, or a
    compound's (functor, arity)."""
    first = c.head.args[0]
    if type(first) is Var:
        return None
    if type(first) is Const:
        return first.value
    return (first.functor, len(first.args))


_UPDATE_WALKING = """\
uw([], _, []).
uw([close(Y)|Rest], State, [close(Y)|Kept]) :- member(holds(Y), State), uw(Rest, State, Kept).
uw([close(Y)|Rest], State, Kept) :- not member(holds(Y), State), uw(Rest, State, Kept).
uw(Any, State, Kept) :- other(Any, State, Kept).
uw([holds(Y)|Rest], State, [holds(Y)|Kept]) :- uw(Rest, State, Kept).
uw([on(Y)|Rest], State, [on(Y)|Kept]) :- uw(Rest, State, Kept).
uw([sitting_on(_)|Rest], State, Kept) :- uw(Rest, State, Kept).
other(_, _, []).
"""


def test_first_argument_tables_match_their_definition():
    programs = [
        state_to_facts(random_scene(5, 60)),
        parse_program("p(a, 1). p(b, 2). p(a, 3). p(1, x). p(f(a), y). p(f(b), z). p(X, w). p(c, v)."),
        parse_program("q(a). q(b). q(X). q(c)."),
        parse_program("e(a, b). e(a, c). e(b, c). e(1, d)."),
        Program(Clause(Struct("r", (t,))) for t in (Const(1), Const("1"), Struct("f", (Const(1),)))),
        parse_program(_UPDATE_WALKING),
        _second_level_program(),
        parse_program("s([1|_]). s([X|_]). s([f(a)|_]). s(Z). s([1|T]). s(g(h(1))). s([Y|T]). s(g(Z)). s(g(h(2)))."),
        planning_kb(),
    ]
    for program in programs:
        for clauses in program.index.values():
            if not clauses[0].head.args:
                continue
            table, open_heads = _first_arg_table(clauses)
            keys = {_head_key(c) for c in clauses} - {None}
            assert open_heads == tuple(c for c in clauses if _head_key(c) is None)
            assert set(table) == keys
            for k, picked in table.items():
                assert picked == tuple(c for c in clauses if _head_key(c) in (None, k))


# First arguments that mix integers with lookalike atoms, nested compounds
# of varied functor and arity, lists, and variables.
_INDEX_LEAVES = st.sampled_from([Const(1), Const("1"), Const(2), Const("f"), Const("[]")]) | st.builds(
    Var, st.sampled_from(["X", "Y", "Z"])
)
_INDEX_ARGS = st.recursive(
    _INDEX_LEAVES,
    lambda kids: st.builds(Struct, st.sampled_from(["f", "g", "."]), st.lists(kids, min_size=1, max_size=3).map(tuple)),
    max_leaves=8,
)


def _renamed_apart(t, prefix):
    return apply_subst({n: Var(prefix + n) for n in term_vars(t)}, t)


@settings(max_examples=300, deadline=None)
@given(st.lists(_INDEX_ARGS, min_size=1, max_size=8), _INDEX_ARGS.filter(lambda t: type(t) is not Var))
def test_the_index_never_drops_a_clause_that_unification_accepts(firsts, call_first):
    clauses = tuple(Clause(Struct("p", (first, Const(i)))) for i, first in enumerate(firsts))
    index = _ProgramIndex(Program(clauses))
    offered = index.clauses(PredId("p", 2), call_first)
    positions = [clauses.index(c) for c in offered]
    assert positions == sorted(set(positions))
    call = _renamed_apart(call_first, "C")
    for c in clauses:
        if unify(_renamed_apart(c.head.args[0], "H"), call) is not None:
            assert c in offered


def _offered(program, call_text):
    """The clauses the index offers a call, as their source positions."""
    call = parse_term_text(call_text)
    index = _ProgramIndex(program)
    clauses = program.index[PredId(call.functor, len(call.args))]
    offered = index.clauses(PredId(call.functor, len(call.args)), call.args[0])
    return [clauses.index(c) for c in offered]


def test_a_list_call_is_offered_only_the_clauses_of_its_element():
    # The index reads one level: a list call is offered every list clause
    # and the variable-headed one, and head unification then keeps only
    # the clauses of its element.
    program = parse_program(_UPDATE_WALKING)
    every_list_clause = [1, 2, 3, 4, 5, 6]
    assert _offered(program, "uw([holds(o3)|T], S, K)") == every_list_clause
    assert _offered(program, "uw([close(o3)|T], S, K)") == every_list_clause
    assert _offered(program, "uw([sitting_on(o3)], S, K)") == every_list_clause
    assert _offered(program, "uw([under(o3)|T], S, K)") == every_list_clause
    assert _offered(program, "uw([], S, K)") == [0, 3]
    assert _offered(program, "uw(none, S, K)") == [3]
    lines = []
    answers_for(program, "?- uw([holds(a)], [], K).", SolveConfig(trace=lines.append))
    assert lines == [
        "call uw([holds(a)], [], K)",
        "  call other([holds(a)], [], K)",
        "  call uw([], [], _#0)",
        "    call other([], [], _#0)",
    ]
    answers = answers_for(program, "?- uw([holds(a), close(b), on(c), sitting_on(d)], [holds(a)], K).")
    assert [format_term(a.bindings["K"]) for a in answers] == ["[]", "[holds(a)]", "[holds(a), on(c)]"]


def _second_level_program():
    """s([1|_], int). s(['1'|_], atom). s([f(a)|_], f1). s([f(a, b)|_], f2).
    s([X|_], any).  The text parser reads no quoted atoms, so it is built."""
    a, b = Const("a"), Const("b")
    heads = [(Const(1), "int"), (Const("1"), "atom"), (Struct("f", (a,)), "f1"),
             (Struct("f", (a, b)), "f2"), (Var("X"), "any")]
    return Program(
        Clause(Struct("s", (Struct(".", (element, Var("_T"))), Const(name)))) for element, name in heads
    )


def test_the_second_level_keeps_integers_atoms_and_arities_apart():
    # One index level offers every list clause; head unification keeps
    # integers, atoms and arities apart inside the list.
    program = _second_level_program()
    assert _offered(program, "s([1|T], W)") == [0, 1, 2, 3, 4]
    assert _offered(program, "s(2, W)") == []
    for element, names in (
        (Const(1), ["int", "any"]),
        (Const("1"), ["atom", "any"]),
        (Struct("f", (Var("Z"),)), ["f1", "any"]),
        (Struct("f", (Var("Z"), Var("Y"))), ["f2", "any"]),
        (Struct("f", (Var("Z"), Var("Y"), Var("V"))), ["any"]),
        (Const(2), ["any"]),
    ):
        goal = Literal(Struct("s", (Struct(".", (element, Var("T"))), Var("W"))))
        answers, status = solve_all(program, [goal])
        assert status == "exhausted"
        assert [format_term(a.bindings["W"]) for a in answers] == names
    goal = Literal(Struct("s", (make_list([Const("1"), Const(1)]), Var("W"))))
    answers, status = solve_all(program, [goal])
    assert status == "exhausted"
    assert [format_term(a.bindings["W"]) for a in answers] == ["atom", "any"]


def test_an_inner_argument_is_read_through_bindings():
    # The index reads no inner argument; head unification reads it
    # through the bindings, so an element bound by an earlier goal picks
    # the same clauses as one written in place.
    program = parse_program(_UPDATE_WALKING)
    assert _offered(program, "uw([X|T], S, K)") == [1, 2, 3, 4, 5, 6]
    for element in ("holds(a)", "on(a)", "close(a)", "close(b)", "sitting_on(a)"):
        written = answers_for(program, f"?- uw([{element}], [holds(a)], K).")
        bound = answers_for(program, f"?- Y = {element}, X = Y, uw([X], [holds(a)], K).")
        assert [a.bindings["K"] for a in bound] == [a.bindings["K"] for a in written]
    assert [format_term(a.bindings["K"]) for a in answers_for(program, "?- X = on(a), uw([X], [], K).")] == [
        "[]",
        "[on(a)]",
    ]


@pytest.mark.parametrize(
    "text, names",
    [
        ("nat(z). nat(s(X)) :- nat(X). top :- nat(z).", {"nat"}),
        ("even(z). even(s(X)) :- odd(X). odd(s(X)) :- even(X). top(X) :- even(X).", {"even", "odd"}),
        ("a :- b. b :- c. c :- b. c :- d. d.", {"b", "c"}),
        ("p :- not q. q :- p.", {"p", "q"}),
        ("a :- b, c. b :- c. c. d(X) :- X = d(X).", set()),
    ],
)
def test_cyclic_predicates_of_small_programs(text, names):
    program = parse_program(text)
    assert {p.name for p in _cyclic_preds(program.index)} == names


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.lists(st.integers(0, 7), max_size=3)), max_size=10))
def test_cyclic_predicates_are_those_that_reach_themselves(rules):
    # p0..p5 may have rules; p6 and p7 are facts or undefined.
    clauses = [Clause(Const(f"p{h}"), tuple(Literal(Const(f"p{b}")) for b in body)) for h, body in rules]
    clauses.append(Clause(Const("p6")))
    program = Program(clauses)
    calls = {}
    for c in clauses:
        calls.setdefault(c.head.value, set()).update(lit.atom.value for lit in c.body)
    want = set()
    for start in calls:
        seen, todo = set(), list(calls[start])
        while todo:
            p = todo.pop()
            if p not in seen:
                seen.add(p)
                todo.extend(calls.get(p, ()))
        if start in seen:
            want.add(start)
    assert {p.name for p in _cyclic_preds(program.index)} == want


_BODY_LITERAL = st.one_of(
    st.tuples(st.integers(0, 7), st.booleans()),  # p<n>, negated or not
    st.just(None),  # X = a
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.lists(_BODY_LITERAL, max_size=3)), max_size=12))
def test_cyclic_components_are_the_mutually_reachable_predicates(rules):
    # p0..p5 may have rules, p6 is a fact and p7 is undefined; a negated
    # call is an edge, `=` is none.
    clauses = [
        Clause(
            Struct(f"p{h}", (Var("X"),)),
            tuple(
                Literal(Struct("=", (Var("X"), Const("a")))) if b is None
                else Literal(Struct(f"p{b[0]}", (Var("X"),)), negated=b[1])
                for b in body
            ),
        )
        for h, body in rules
    ]
    clauses.append(Clause(Struct("p6", (Const("a"),))))
    program = Program(clauses)
    calls = {}
    for h, body in rules:
        calls.setdefault(f"p{h}", set()).update(f"p{b[0]}" for b in body if b is not None)

    def reached(start):
        seen, todo = set(), list(calls.get(start, ()))
        while todo:
            p = todo.pop()
            if p not in seen:
                seen.add(p)
                todo.extend(calls.get(p, ()))
        return seen

    reach = {p: reached(p) for p in calls}
    want = {
        p: {q for q in reach[p] if p in reach.get(q, ())}
        for p in calls
        if p in reach[p]
    }
    got = _cyclic_preds(program.index)
    assert {p.name: {q.name for q in members} for p, members in got.items()} == want
    for members in got.values():
        assert all(got[q] is members for q in members)


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
    # A program's own member/2 also replaces the native list walk.
    p = parse_program("member(X, [_|T]) :- member(X, T). member(X, [X|_]).")
    answers = answers_for(p, "?- member(X, [a, b, c]).")
    assert [str(a) for a in answers] == ["X = c", "X = b", "X = a"]


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


def test_native_insert_sorted_bisects_a_list_not_sorted_by_text(family_program):
    # Bisection compares b with a, the middle element, and goes right.
    answers = answers_for(family_program, "?- insert_sorted(b, [c, a], L).")
    assert [str(a) for a in answers] == ["L = [c, a, b]"]


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


# -- first-argument indexing --------------------------------------------------------


def test_indexing_keeps_source_order_around_variable_heads():
    p = parse_program("p(a, 1). p(X, 2). p(b, 3). p(a, 4). p(Y, 5).")
    assert [str(a) for a in answers_for(p, "?- p(a, N).")] == ["N = 1", "N = 2", "N = 4", "N = 5"]
    assert [str(a) for a in answers_for(p, "?- p(b, N).")] == ["N = 2", "N = 3", "N = 5"]
    assert [str(a) for a in answers_for(p, "?- p(c, N).")] == ["N = 2", "N = 5"]


def test_indexing_tells_integers_from_lookalike_atoms():
    p = Program(
        Clause(Struct("p", (first, Const(tag))))
        for first, tag in ((Const(1), "int"), (Const("1"), "atom"), (Const("i1"), "i1"))
    )
    for first, tag in ((Const(1), "int"), (Const("1"), "atom"), (Const("i1"), "i1")):
        goal = Literal(Struct("p", (first, Var("T"))))
        answers, status = solve_all(p, [goal])
        assert status == "exhausted"
        assert [str(a) for a in answers] == [f"T = {tag}"]
        # Not only the answers: the index offers that one clause alone.
        picked = p.solver_index.clauses(PredId("p", 2), first)
        assert [format_term(c.head.args[1]) for c in picked] == [tag]


def test_indexing_tells_compounds_apart_by_functor_and_arity():
    p = parse_program("q(f(a), one). q(f(a, b), two). q(g(a), three). q(X, any).")
    assert [str(a) for a in answers_for(p, "?- q(f(Z), N).")] == ["Z = a, N = one", "Z = _A, N = any"]
    assert [str(a) for a in answers_for(p, "?- q(f(a, W), N).")] == ["W = b, N = two", "W = _A, N = any"]
    assert [str(a) for a in answers_for(p, "?- q(g(a), N).")] == ["N = three", "N = any"]
    assert [str(a) for a in answers_for(p, "?- q(h, N).")] == ["N = any"]
    for first, tags in (
        (Struct("f", (Var("Z"),)), ["one", "any"]),
        (Struct("f", (Const("a"), Var("W"))), ["two", "any"]),
        (Struct("g", (Const("a"),)), ["three", "any"]),
        (Const("f"), ["any"]),
    ):
        picked = p.solver_index.clauses(PredId("q", 2), first)
        assert [format_term(c.head.args[1]) for c in picked] == tags


def test_unbound_first_argument_tries_every_clause():
    p = parse_program("q(f(a), one). q(f(a, b), two). q(g(a), three). q(X, any). q(7, seven).")
    answers = answers_for(p, "?- q(W, N).")
    assert [format_term(a.bindings["N"]) for a in answers] == ["one", "two", "three", "any", "seven"]
    # Bound through a variable counts as bound.
    assert [str(a) for a in answers_for(p, "?- Y = 7, q(Y, N).")] == ["Y = 7, N = any", "Y = 7, N = seven"]


def test_naf_sub_derivation_shares_the_program_index():
    p = parse_program("ok(X) :- cand(X), not bad(X). cand(a). cand(b). cand(d). bad(b). bad(c).")
    assert [str(a) for a in answers_for(p, "?- ok(X).")] == ["X = a", "X = d"]
    index = p.solver_index
    # bad/1 is only ever called under `not`; its table is in the index the
    # solve made, so negated calls look clauses up in the same index.
    assert PredId("bad", 1) in index.tables
    answers_for(p, "?- ok(d).")
    assert p.solver_index is index


# -- native member/2 -----------------------------------------------------------------

PRELUDE_MEMBER = "member(X, [X|_]). member(X, [_|T]) :- member(X, T).\n"


def test_native_member_over_a_partial_list_matches_the_prelude_clauses():
    # A program that defines member/2 itself runs the prelude's clauses
    # through ordinary resolution: the reference.
    query = "?- member(X, [a|T])."
    native = answers_for(parse_program("seed(none)."), query)
    clauses = answers_for(parse_program(PRELUDE_MEMBER), query)
    assert [str(a) for a in native] == [str(a) for a in clauses] == [
        "X = a, T = _A",
        "X = _A, T = [_A|_B]",
    ]
    # Without the loop check the answers go on for ever; under one step
    # budget both give a prefix of the same sequence.
    cfg = SolveConfig(loop_check=False, step_budget=100)
    runs = []
    for program in (parse_program("seed(none)."), parse_program(PRELUDE_MEMBER)):
        answers, status = solve_all(program, parse_query(query), cfg)
        assert status == "budget_exceeded"
        runs.append([str(a) for a in answers])
    shorter, longer = sorted(runs, key=len)
    assert len(shorter) >= 10
    assert shorter == longer[: len(shorter)]
    assert longer[2] == "X = _A, T = [_B, _A|_C]"


def test_native_member_yields_duplicates_in_order():
    p = parse_program("q(X) :- member(X, [b, a, b, c, a]), r(X). r(_).")
    lines = []
    assert [str(a) for a in answers_for(p, "?- q(X).", SolveConfig(trace=lines.append))] == [
        "X = b", "X = a", "X = c",
    ]
    calls = [line.strip() for line in lines if line.strip().startswith("call r(")]
    assert calls == ["call r(b)", "call r(a)", "call r(b)", "call r(c)", "call r(a)"]
    assert sum(line.strip().startswith("call member(") for line in lines) == 1


def test_member_resolves_the_tail_before_each_element():
    # Matching f(T) against f(a) binds T; the walk must go on into the
    # unbound T, whose prelude clauses then search without end, not into a.
    query = "?- member(f(T), [f(a)|T])."
    for program in (parse_program("seed(none)."), parse_program(PRELUDE_MEMBER)):
        answers, status = solve_all(program, parse_query(query), SolveConfig(step_budget=300))
        assert [str(a) for a in answers] == ["T = a"]
        assert status == "budget_exceeded"


def test_member_skips_cells_whose_head_cannot_match():
    # A cell whose head is a constant, or a compound of another functor or
    # arity, fails to unify, and costs its one step.
    p = parse_program("seed(none).")
    query = parse_query("?- member(holds(X), [close(a), on(b), holds(c), holds(d)]).")
    solver = engine._Solver(p, query, SolveConfig())
    assert [str(a) for a in solver.run()] == ["X = c", "X = d"]
    assert solver.steps == 4
    # A variable cell, a bound-variable cell and a non-ground cell of the
    # same functor unify.
    query = "?- Y = holds(e), member(holds(X), [close(a), Y, holds, V, h(g), holds(f(W))])."
    assert [str(a) for a in answers_for(p, query)] == [
        "Y = holds(e), X = e, V = _A, W = _B",
        "Y = holds(e), X = _A, V = holds(_A), W = _B",
        "Y = holds(e), X = f(_A), V = _B, W = _A",
    ]


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


EVEN = "even(z). even(s(X)) :- not even(X).\n"


def _even_goal(n):
    t = Const("z")
    for _ in range(n):
        t = Struct("s", (t,))
    return [Literal(Struct("even", (t,)))]


@pytest.mark.parametrize("n, expected", [(24, ["yes"]), (25, []), (40, ["yes"]), (2_000, ["yes"])])
def test_nested_negation_is_bounded_by_the_depth_cap_alone(n, expected):
    # Each level of `not` nests the next; none of them gets a smaller
    # share of the step budget than the solve has.
    answers, status = solve_all(parse_program(EVEN), _even_goal(n))
    assert [str(a) for a in answers] == expected
    assert status == "exhausted"


def test_self_negation_stops_at_the_depth_cap():
    start = time.monotonic()
    with pytest.raises(BudgetExceeded, match="depth cap"):
        list(solve(parse_program("p :- not p."), parse_query("?- p.")))
    assert time.monotonic() - start < 1.0


def test_negation_with_open_choice_points_inside_a_backtracking_conjunction():
    # bad(1, a) has two proofs and choice points left open below the first;
    # v/3 fails for (3, d), so the search backtracks past the negation into
    # w/2 and r/1.  The nested `not quiet(L)` has proofs of its own.
    p = parse_program(
        "r(1). r(2). r(3). r(4).\n"
        "w(1, a). w(1, b). w(2, a). w(3, c). w(3, d). w(4, e).\n"
        "bad(X, W) :- link(X, W, L), not quiet(L).\n"
        "link(1, a, p). link(1, a, q). link(1, a, r). link(2, a, p).\n"
        "link(3, c, r). link(3, c, q). link(4, e, r).\n"
        "quiet(r). quiet(r).\n"
        "v(1, b, z1). v(1, b, z2). v(2, a, z3). v(4, e, z5). v(4, e, z6).\n"
    )
    query = "?- r(X), w(X, W), not bad(X, W), v(X, W, Z)."
    assert [str(a) for a in answers_for(p, query)] == [
        "X = 1, W = b, Z = z1",
        "X = 1, W = b, Z = z2",
        "X = 4, W = e, Z = z5",
        "X = 4, W = e, Z = z6",
    ]


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


_PATH_EDGES = "edge(a, b). edge(b, c). edge(c, a). edge(b, a). edge(c, d).\n"
_PATH_SHAPES = {
    "left": "path(X, Y) :- path(X, Z), edge(Z, Y).\npath(X, Y) :- edge(X, Y).\n",
    "right": "path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n",
    "mutual": (
        "path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), hop(Z, Y).\n"
        "hop(X, Y) :- edge(X, Y).\nhop(X, Y) :- edge(X, Z), path(Z, Y).\n"
    ),
}


@pytest.mark.parametrize(
    "shape, query, expected, keys, cuts",
    [
        # Left recursion still loses c, a and d to the loop check.
        ("left", "?- path(a, Y).", ["Y = b"], 2, 1),
        ("right", "?- path(X, d).", ["X = c", "X = a", "X = b"], 27, 8),
        ("mutual", "?- path(a, Y).", ["Y = b", "Y = c", "Y = a", "Y = d"], 11, 3),
    ],
)
def test_loop_check_keys_and_cut_offs_on_recursive_paths(loop_check_counts, shape, query, expected, keys, cuts):
    # Pins how many calls are keyed and how many the loop check cuts over
    # a cyclic graph, so a change to how keys are built keeps both.
    program = parse_program(_PATH_SHAPES[shape] + _PATH_EDGES)
    assert [str(a) for a in answers_for(program, query)] == expected
    assert (loop_check_counts.keyed, loop_check_counts.cuts) == (keys, cuts)


def test_member_over_a_long_list_fact():
    # The occurs check and renaming walk the whole list; neither may
    # recurse once per element.  The member/2 walk spends no derivation
    # level per cell, so the 10,000-level depth cap does not bound it.
    items = ", ".join(f"x{i}" for i in range(20_000))
    p = parse_program(f"items([{items}]).\nhas(X) :- items(L), member(X, L).\n")
    assert [str(a) for a in answers_for(p, "?- has(x1500).")] == ["yes"]
    assert [str(a) for a in answers_for(p, "?- has(x19999).")] == ["yes"]
    assert answers_for(p, "?- has(x20000).") == []


def test_long_answers_print_without_recursion():
    items = ", ".join(f"x{i}" for i in range(10_000))
    p = parse_program(f"items([{items}]).\n")
    [answer] = answers_for(p, "?- items(L).")
    assert str(answer) == f"L = [{items}]"
    deep = Var("X")
    for _ in range(10_000):
        deep = Struct("f", (deep,))
    p = Program([Clause(Struct("deep", (deep,)))])
    [answer] = answers_for(p, "?- deep(T).")
    assert str(answer) == "T = " + "f(" * 10_000 + "_A" + ")" * 10_000


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


def test_a_zero_wall_timeout_stops_at_the_first_step(family_program):
    # The clock is read on a solve's first step, not only on every 256th.
    with pytest.raises(SolveTimeout):
        next(solve(family_program, parse_query("?- niece(X, Y)."), SolveConfig(wall_timeout=0)))
    p = parse_program("nat(z). nat(s(X)) :- nat(X).")
    answers, status = solve_all(p, parse_query("?- nat(X)."), SolveConfig(loop_check=False, wall_timeout=0))
    assert (answers, status) == ([], "timeout")


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
