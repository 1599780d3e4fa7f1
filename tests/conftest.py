"""Shared fixtures: corpus texts, oracles, and random generators.

The corpus texts are kept byte-for-byte as published so the parser is
exercised on real surface syntax, including the timestamped variants.
The oracles here are deliberately independent of the engine: plan
lengths come from breadth-first search over the native simulator, and
logic answers come from the bottom-up fixpoint evaluator.
"""

from __future__ import annotations

import collections
import random
from typing import List, Optional, Tuple

import pytest

from homelog import engine
from homelog.planner import Task, goal_satisfied
from homelog.program import Clause, Literal, Program, pred_of
from homelog.scenes import six_object_scene as _six_object_scene
from homelog.terms import Const, Struct, Term, Var, format_term
from homelog.world import Action, WorldState, apply_action, fluent_list, legal_actions, random_scene

# -- corpus texts ---------------------------------------------------------------

FAMILY_TEXT = """\
parent(tony, abe).
parent(tony, jill).
parent(abe, sarah).

male(tony).
male(abe).
female(jill).
female(sarah).

parent(Parent, Child) :- sibling(X, Child), parent(Parent, X).
grandparent(Grandparent, Child) :-
    parent(Grandparent, Parent), parent(Parent, Child).
sibling(X,Y) :- parent(Parent, X), parent(Parent, Y), X\\=Y.
auntuncle(AU,N) :- sibling(AU, Parent), parent(Parent, N).
niece(Niece, AU) :- auntuncle(AU, Niece), female(Niece).
"""

# World-state facts in both forms: timestamped and timestamp-free.
WORLD_FACTS_TEXT = """\
current_time(1).
type(livingroom100, livingroom).
type(remotecontrol1, remotecontrol).
off(remotecontrol1, 1).
inside([inside(remotecontrol1, livingroom100),
        inside(character0, livingroom100)], 1).
type(livingroom100, livingroom).
type(remotecontrol1, remotecontrol).
off(remotecontrol1).
inside([inside(remotecontrol1, livingroom100),
        inside(character0, livingroom100)]).
"""

PLANNER_RULES_TEXT = """\
initial_state(List) :- close_to_character(List).

transform(FinalState, Plan) :-
    initial_state(State1),
    transform(State1, FinalState, [State1], Plan).
transform(State1, FinalState,_,[]) :- subset(FinalState, State1).
transform(State1, State2, Visited, [Action|Actions]) :-
    choose_action(Action, State1, State2),
    update(Action, State1, State),
    not member(State, Visited),
    transform(State, State2, [State|Visited], Actions).

choose_action(Action, State1, State2) :-
    suggest(Action, State2), legal_action(Action, State1).
choose_action(Action, State1, _) :-
    legal_action(Action, State1).
suggest(walk(X), State) :- member(close(X), State).

legal_action(walk(X), State) :-
    type(X, Y), Y \\= character, not member(close(X), State).

update(walk(X), State, [close(X) | State1]) :-
    update_walking(X, State, State, [], State1).

complete_task(walk_to_remote, P) :-
    type(Remote, remotecontrol), transform([close(Remote)], P).
"""

HEURISTIC_RULE_TEXT = (
    "suggest(walk(X), State) :- member(holds(X), State), "
    "not member(close(X), State).\n"
)

CORPUS_TEXTS = {
    "family": FAMILY_TEXT,
    "world_facts": WORLD_FACTS_TEXT,
    "planner_rules": PLANNER_RULES_TEXT,
    "heuristic_rule": HEURISTIC_RULE_TEXT,
}


@pytest.fixture
def family_text() -> str:
    return FAMILY_TEXT


@pytest.fixture
def family_program():
    from homelog.parser import parse_program

    return parse_program(FAMILY_TEXT)


@pytest.fixture
def six_scene() -> WorldState:
    return _six_object_scene()


# -- loop-check counts ------------------------------------------------------------


class LoopCheckCounts:
    """What the solver's loop check did while the fixture is active: the
    calls keyed, by predicate; the calls cut off as variants of an
    ancestor; and the ancestor frames compared, up to the first match."""

    def __init__(self, monkeypatch):
        self.keys: collections.Counter = collections.Counter()
        self.cuts = 0
        self.frames = 0
        variant_key = engine.variant_key
        seen_on_path = engine._Solver._seen_on_path

        def counted_key(atom):
            self.keys[pred_of(atom)] += 1
            return variant_key(atom)

        def counted_walk(solver, anc, key):
            frame = anc
            while frame is not None:
                self.frames += 1
                if frame[0] == key:
                    break
                frame = frame[1]
            seen = seen_on_path(solver, anc, key)
            self.cuts += seen
            return seen

        monkeypatch.setattr(engine, "variant_key", counted_key)
        monkeypatch.setattr(engine._Solver, "_seen_on_path", counted_walk)

    @property
    def keyed(self) -> int:
        return sum(self.keys.values())


@pytest.fixture
def loop_check_counts(monkeypatch) -> LoopCheckCounts:
    return LoopCheckCounts(monkeypatch)


# -- breadth-first shortest-plan oracle over the native simulator ----------------


def state_key(s: WorldState):
    return (
        s.agent.room,
        s.agent.close,
        s.agent.held,
        s.agent.sitting_on,
        tuple(sorted((oid, o.room, o.powered) for oid, o in s.objects.items())),
    )


def bfs_plan_length(scene: WorldState, task: Task, max_depth: int = 8) -> Optional[int]:
    """Length of a shortest action sequence reaching the task goal."""
    if goal_satisfied(scene, task):
        return 0
    seen = {state_key(scene)}
    frontier = [scene]
    for depth in range(1, max_depth + 1):
        nxt = []
        for s in frontier:
            for a in legal_actions(s):
                s2 = apply_action(s, a)
                k = state_key(s2)
                if k in seen:
                    continue
                seen.add(k)
                if goal_satisfied(s2, task):
                    return depth
                nxt.append(s2)
        frontier = nxt
        if not frontier:
            return None
    return None


# -- seeded random logic programs ------------------------------------------------
#
# Range-restricted, naf-free programs over at most six predicates and
# twelve facts, so the fixpoint oracle applies.  A rule's body calls only
# strictly earlier predicates, so the programs are not recursive; with
# `recursive` it may call any predicate, its own and later ones included.
# Disequalities are appended after the variables they test are bound.


def random_program(seed: int, recursive: bool = False) -> Tuple[Program, List[Literal]]:
    rng = random.Random(seed)
    n_preds = rng.randint(2, 6)
    preds = [(f"p{i}", rng.randint(1, 2)) for i in range(n_preds)]
    consts = list("abcdef")[: rng.randint(2, 6)]
    n_base = max(1, n_preds // 2)

    clauses: List[Clause] = []
    for _ in range(rng.randint(1, 12)):
        name, arity = preds[rng.randrange(n_base)]
        args = tuple(Const(rng.choice(consts)) for _ in range(arity))
        clauses.append(Clause(Struct(name, args)))

    pool = ("X", "Y", "Z", "W")
    for i in range(n_base, n_preds):
        name, arity = preds[i]
        for _ in range(rng.randint(1, 2)):
            body: List[Literal] = []
            bound: List[str] = []
            # two body literals at most keeps full enumeration cheap even
            # when rules chain through several derived predicates
            for _ in range(rng.randint(1, 2)):
                bname, barity = preds[rng.randrange(n_preds if recursive else i)]
                args = tuple(Var(rng.choice(pool)) for _ in range(barity))
                bound.extend(v.name for v in args)
                body.append(Literal(Struct(bname, args)))
            if len(set(bound)) >= 2 and rng.random() < 0.3:
                v1, v2 = rng.sample(sorted(set(bound)), 2)
                body.append(Literal(Struct("\\=", (Var(v1), Var(v2)))))
            head_args = tuple(Var(rng.choice(bound)) for _ in range(arity))
            clauses.append(Clause(Struct(name, head_args), tuple(body)))

    qname, qarity = preds[-1]
    qvars = tuple(Var(f"Q{j}") for j in range(qarity))
    return Program(clauses), [Literal(Struct(qname, qvars))]


# -- seeded random world states and actions --------------------------------------


def _sample_action(rng: random.Random, state: WorldState) -> Action:
    targets = sorted(state.objects) + sorted(state.rooms) + ["character0", "ghost9"]
    name = rng.choice(("walk", "grab", "switchon", "switchoff", "sit", "standup"))
    if name == "standup" and rng.random() < 0.8:
        return Action("standup")
    return Action(name, rng.choice(targets))


def random_walk_actions(count: int, seed: int) -> List[Tuple[WorldState, WorldState, Action]]:
    """(start, state, action) triples: a random walk from a random start
    scene reaches the state, and the action is sampled in it."""
    rng = random.Random(seed)
    triples: List[Tuple[WorldState, WorldState, Action]] = []
    while len(triples) < count:
        start = state = random_scene(rng.randrange(100_000), rng.randint(3, 10))
        for _ in range(rng.randint(0, 5)):
            actions = legal_actions(state)
            if not actions:
                break
            state = apply_action(state, rng.choice(actions))
        for _ in range(rng.randint(1, 4)):
            if len(triples) >= count:
                break
            triples.append((start, state, _sample_action(rng, state)))
    return triples


def kb_fluents(start: WorldState, state: WorldState) -> List[Term]:
    """The planning knowledge base's view of a state reached from `start`:
    the agent's fluents, and on(X) or off(X) for each device whose power
    differs from how it was in `start`, canonically sorted.  The knowledge
    base reads the rest of the power from `state_to_facts(start)`."""
    fluents = [f for f in fluent_list(state) if f.functor != "on"]
    fluents += [
        Struct(obj.powered, (Const(obj_id),))
        for obj_id, obj in state.objects.items()
        if obj.powered != start.objects[obj_id].powered
    ]
    return sorted(fluents, key=format_term)
