"""Dependency graphs, query-directed slicing, and slicing soundness."""

import json
import logging

import pytest

from conftest import random_program
from homelog.engine import PRELUDE_PREDS, SolveConfig, solve_all
from homelog.parser import parse_program, parse_query
from homelog.planner import TASK_CATALOG, domain_kb, encode_goal_fluents
from homelog.program import Literal, PredId, Program
from homelog.relevance import (
    BUILTIN_PREDS,
    build_depgraph,
    prune_program,
    reachable,
    to_dot,
)
from homelog.terms import Struct, Var, format_term, make_list
from homelog.world import load_scene, state_to_facts

ALWAYS_KEPT = set(BUILTIN_PREDS) | set(PRELUDE_PREDS)


def pid(text):
    name, arity = text.rsplit("/", 1)
    return PredId(name, int(arity))


# -- graph construction ------------------------------------------------------------


def test_family_graph_edges(family_program):
    g = build_depgraph(family_program, parse_query("?- niece(X, Y)."))
    assert g.roots == frozenset({pid("niece/2")})
    assert (pid("niece/2"), pid("auntuncle/2"), False) in g.edges
    assert (pid("niece/2"), pid("female/1"), False) in g.edges
    assert (pid("auntuncle/2"), pid("sibling/2"), False) in g.edges
    assert (pid("sibling/2"), pid("\\=/2"), False) in g.edges
    assert (pid("grandparent/2"), pid("parent/2"), False) in g.edges
    # Facts contribute nodes but no outgoing edges.
    assert pid("male/1") in g.nodes
    assert not any(src == pid("male/1") for src, _, _ in g.edges)


def test_naf_edges_are_flagged():
    p = parse_program("q(X) :- p(X), not r(X). p(a). r(b).")
    g = build_depgraph(p, parse_query("?- q(X)."))
    assert (pid("q/1"), pid("r/1"), True) in g.edges
    assert (pid("q/1"), pid("p/1"), False) in g.edges


def test_roots_are_added_even_when_undefined():
    g = build_depgraph(parse_program("p(a)."), parse_query("?- mystery(X)."))
    assert pid("mystery/1") in g.nodes
    assert g.roots == frozenset({pid("mystery/1")})


# -- reachability -------------------------------------------------------------------


def test_family_reachable_from_niece(family_program):
    g = build_depgraph(family_program, parse_query("?- niece(X, Y)."))
    want = {
        pid("niece/2"),
        pid("auntuncle/2"),
        pid("sibling/2"),
        pid("parent/2"),
        pid("female/1"),
    } | ALWAYS_KEPT
    assert reachable(g) == frozenset(want)


def test_family_reachable_from_grandparent(family_program):
    g = build_depgraph(family_program, parse_query("?- grandparent(G, C)."))
    want = {pid("grandparent/2"), pid("parent/2"), pid("sibling/2")} | ALWAYS_KEPT
    assert reachable(g) == frozenset(want)


def test_reachability_follows_naf_edges():
    p = parse_program("q(X) :- p(X), not r(X). r(a) :- s(a). s(a). p(a). t(b).")
    g = build_depgraph(p, parse_query("?- q(X)."))
    got = reachable(g)
    assert {pid("q/1"), pid("p/1"), pid("r/1"), pid("s/1")} <= got
    assert pid("t/1") not in got


def test_empty_roots_keep_only_the_permanent_core():
    g = build_depgraph(parse_program("p(a)."), [])
    assert reachable(g) == frozenset(ALWAYS_KEPT)


# -- slicing ------------------------------------------------------------------------


def test_family_slice_for_niece_drops_exactly_three_clauses(family_program):
    pruned = prune_program(family_program, parse_query("?- niece(X, Y)."))
    assert len(family_program) == 12
    assert len(pruned) == 9
    removed = [c for c in family_program if c not in pruned.clauses]
    assert [c.head_pred for c in removed] == [pid("male/1"), pid("male/1"), pid("grandparent/2")]
    # The kept slice still defines female/1; "male(" appearing inside
    # "female(" must not be mistaken for a kept male/1 clause.
    assert pid("male/1") not in pruned.index
    assert pid("female/1") in pruned.index


def test_slice_preserves_source_order(family_program):
    pruned = prune_program(family_program, parse_query("?- niece(X, Y)."))
    keep = set(pruned.clauses)
    assert list(pruned.clauses) == [c for c in family_program if c in keep]


def test_slice_is_idempotent(family_program):
    query = parse_query("?- niece(X, Y).")
    once = prune_program(family_program, query)
    twice = prune_program(once, query)
    assert list(twice.clauses) == list(once.clauses)


def test_slice_never_grows(family_program):
    for text in ("?- niece(X, Y).", "?- parent(X, Y).", "?- male(X)."):
        pruned = prune_program(family_program, parse_query(text))
        assert len(pruned) <= len(family_program)
        assert set(pruned.clauses) <= set(family_program.clauses)


def test_slice_to_nothing_warns(family_program, caplog):
    with caplog.at_level(logging.WARNING, logger="homelog.relevance"):
        pruned = prune_program(family_program, parse_query("?- mystery(X)."))
    assert len(pruned) == 0
    assert any("not defined" in rec.message for rec in caplog.records)


def test_multi_goal_query_unions_roots(family_program):
    pruned = prune_program(family_program, parse_query("?- male(X), female(Y)."))
    heads = {c.head_pred for c in pruned}
    assert heads == {pid("male/1"), pid("female/1")}


# -- slicing soundness: same answers before and after -------------------------------


def answers_text(program, goals, config=None):
    answers, status = solve_all(program, goals, config)
    assert status == "exhausted"
    return [str(a) for a in answers]


@pytest.mark.parametrize(
    "query_text",
    ["?- niece(X, Y).", "?- parent(X, Y).", "?- sibling(A, B).", "?- grandparent(G, C)."],
)
def test_family_slice_is_sound(family_program, query_text):
    goals = parse_query(query_text)
    cfg = SolveConfig(step_budget=200_000)
    assert answers_text(family_program, goals, cfg) == answers_text(
        prune_program(family_program, goals), goals, cfg
    )


def test_planner_slice_is_sound_for_action_queries(six_scene):
    program = domain_kb() + state_to_facts(six_scene)
    goals = parse_query("?- close_to_character(S), legal_action(A, S).")
    pruned = prune_program(program, goals)
    assert len(pruned) < len(program)
    answers = answers_text(program, goals)
    assert answers and answers == answers_text(pruned, goals)


# One room, and one object for each kind of scene fact: the remote is a
# grabbable device that is off, the lamp a device that is on, the couch
# is sittable.
SMALL_SCENE = {
    "rooms": [{"id": "livingroom1", "type": "livingroom"}],
    "objects": [
        {"id": "remotecontrol1", "type": "remotecontrol", "room": "livingroom1", "powered": "off"},
        {"id": "couch1", "type": "couch", "room": "livingroom1"},
        {"id": "lamp1", "type": "lamp", "room": "livingroom1", "powered": "on"},
    ],
    "agent": {"room": "livingroom1"},
}


def test_an_answer_preserving_slice_keeps_every_object_fact():
    """Bound on any slice finer than predicate level for planning queries.

    Planning queries reach every scene-fact predicate, so predicate-level
    slicing keeps all scene facts.  A finer slice that keeps every answer
    could drop single facts only where no answer needs them.  Here every
    plan of up to three actions for walking to the remote is enumerated
    with each scene fact left out in turn: no fact can go, so every fact
    the scene emits is used by some plan.
    """
    scene = load_scene(json.dumps(SMALL_SCENE))
    goal_list = make_list(encode_goal_fluents(TASK_CATALOG["walk_to_remote"], scene))
    queries = [
        [Literal(Struct("transform", (goal_list, make_list([Var(f"A{i}") for i in range(n)]))))]
        for n in range(1, 4)
    ]

    def plans(facts):
        program = domain_kb() + facts
        return [answers_text(program, query) for query in queries]

    facts = state_to_facts(scene)
    all_plans = plans(facts)
    assert all(all_plans)
    droppable = [
        format_term(fact.head)
        for fact in facts
        if plans(Program(c for c in facts if c is not fact)) == all_plans
    ]
    assert droppable == []


@pytest.mark.parametrize("seed", range(15))
def test_random_program_slices_are_sound(seed):
    program, goals = random_program(seed)
    pruned = prune_program(program, goals)
    assert answers_text(program, goals) == answers_text(pruned, goals)


# -- DOT rendering ------------------------------------------------------------------


def test_dot_output_shape(family_program):
    g = build_depgraph(family_program, parse_query("?- niece(X, Y)."))
    dot = to_dot(g)
    assert dot.startswith("digraph deps {")
    assert dot.rstrip().endswith("}")
    assert '"niece/2" [shape=doublecircle];' in dot
    assert '"niece/2" -> "auntuncle/2";' in dot
    assert '"sibling/2" -> "\\\\=/2";' in dot


def test_dot_marks_naf_edges_dashed():
    p = parse_program("q(X) :- p(X), not r(X).")
    dot = to_dot(build_depgraph(p, parse_query("?- q(X).")))
    assert '"q/1" -> "r/1" [style=dashed];' in dot
    assert '"q/1" -> "p/1";' in dot
