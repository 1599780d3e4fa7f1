"""Task planning over the household world via the logic engine.

A task is a goal fluent list.  The knowledge base below searches for an
action sequence turning the current fluent list into one that contains
every goal fluent, and the planner drives that search with iterative
deepening over the plan length, so the first plan found is a shortest
one.  Returned plans are replayed in the native simulator by the caller
to confirm they execute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import SolveConfig, layer_facts, solve
from .parser import parse_program
from .program import Literal, Program
from .relevance import prune_program
from .terms import Const, Struct, Term, Var, format_term, make_list
from .world import (
    Action,
    IllegalAction,
    WorldState,
    action_from_term,
    apply_action,
    fluent_list,
    state_to_facts,
)

__all__ = [
    "UnresolvableTask",
    "Task",
    "PlanOptions",
    "TASK_CATALOG",
    "BENCH_TASK_NAMES",
    "DOMAIN_KB_TEXT",
    "domain_kb",
    "planning_kb",
    "encode_goal_fluents",
    "encode_task",
    "plan",
    "execute_plan",
    "goal_satisfied",
]


class UnresolvableTask(Exception):
    """The scene has no object of a type the task's goal needs."""

    def __init__(self, type_name: str):
        self.type_name = type_name
        super().__init__(f"no object of type {type_name} in the scene")


@dataclass(frozen=True, slots=True)
class Task:
    """A named goal template: (fluent functor, object type) pairs."""

    name: str
    goal_template: Tuple[Tuple[str, str], ...]


TASK_CATALOG: Dict[str, Task] = {
    t.name: t
    for t in (
        Task("walk_to_remote", (("close", "remotecontrol"),)),
        Task("grab_remote", (("holds", "remotecontrol"),)),
        Task("grab_remote_and_shirt", (("holds", "remotecontrol"), ("holds", "shirt"))),
        Task(
            "grab_cellphone_and_sit_on_couch",
            (("holds", "cellphone"), ("sitting_on", "couch")),
        ),
        Task("sit_on_couch", (("sitting_on", "couch"),)),
    )
}

# The three tasks acceptance criteria 4, 5a and 5b plan.
BENCH_TASK_NAMES: Tuple[str, ...] = (
    "grab_remote",
    "grab_remote_and_shirt",
    "grab_cellphone_and_sit_on_couch",
)


@dataclass(frozen=True, slots=True)
class PlanOptions:
    max_plan_len: int = 8
    config: SolveConfig = field(default_factory=SolveConfig)

    def __post_init__(self):
        if self.max_plan_len < 1:
            raise ValueError("max_plan_len must be at least 1")


# The planning knowledge base.  States are canonically sorted fluent
# lists; update rules keep them that way so `not member(State, Visited)`
# is a sound visited-set test.  Power is inert: a device stays as the
# scene's starts_on/1 facts give it until the plan switches it, and the
# state holds on(X) or off(X) only while it differs from how it started;
# powered/2 alone reads power.  within_reach/3 is an admissible lower
# bound on the number of actions still needed, expressed structurally
# (one plan slot per needed action) so no arithmetic is required; it
# prunes branches whose remaining action slots cannot possibly suffice,
# which is what makes bounded-depth search tractable in large scenes.
DOMAIN_KB_TEXT = """\
% state access
initial_state(List) :- close_to_character(List).

% plan search
transform(FinalState, Plan) :-
    initial_state(State1),
    transform(State1, FinalState, [State1], Plan).

transform(State1, FinalState, _, []) :- subset(FinalState, State1).
transform(State1, State2, Visited, [Action|Actions]) :-
    within_reach(State1, State2, [Action|Actions]),
    choose_action(Action, State1, State2),
    update(Action, State1, State),
    not member(State, Visited),
    transform(State, State2, [State|Visited], Actions).

% lower bound on the actions still needed: one plan slot per action
within_reach(State1, State2, Plan) :-
    missing_goals(State2, State1, Missing),
    needed_steps(Missing, State1, Plan).

missing_goals([], _, []).
missing_goals([G|Gs], State, Missing) :-
    member(G, State),
    missing_goals(Gs, State, Missing).
missing_goals([G|Gs], State, [G|Missing]) :-
    not member(G, State),
    missing_goals(Gs, State, Missing).

needed_steps([], _, _).
needed_steps([close(_)|Gs], State, [_|Actions]) :-
    needed_steps(Gs, State, Actions).
needed_steps([holds(X)|Gs], State, [_|Actions]) :-
    member(close(X), State),
    needed_steps(Gs, State, Actions).
needed_steps([holds(X)|Gs], State, [_,_|Actions]) :-
    not member(close(X), State),
    needed_steps(Gs, State, Actions).
needed_steps([on(X)|Gs], State, [_|Actions]) :-
    member(close(X), State),
    needed_steps(Gs, State, Actions).
needed_steps([on(X)|Gs], State, [_,_|Actions]) :-
    not member(close(X), State),
    needed_steps(Gs, State, Actions).
needed_steps([sitting_on(X)|Gs], State, [_|Actions]) :-
    member(close(X), State),
    needed_steps(Gs, State, Actions).
needed_steps([sitting_on(X)|Gs], State, [_,_|Actions]) :-
    not member(close(X), State),
    needed_steps(Gs, State, Actions).

% action choice: goal-directed suggestions first, then any legal action
choose_action(Action, State1, State2) :-
    suggest(Action, State2),
    legal_action(Action, State1).
choose_action(Action, State1, _) :-
    legal_action(Action, State1).

suggest(walk(X), State) :- member(close(X), State).
suggest(walk(X), State) :-
    member(holds(X), State), not member(close(X), State).
suggest(walk(X), State) :-
    member(on(X), State), not member(close(X), State).
suggest(walk(X), State) :-
    member(sitting_on(X), State), not member(close(X), State).

% action legality against the current fluent list
legal_action(grab(X), State) :-
    member(close(X), State),
    grabbable(X),
    not member(holds(X), State),
    not hands_full(State),
    not sitting(State).
legal_action(switchon(X), State) :-
    member(close(X), State),
    switchable(X),
    not powered(X, State).
legal_action(switchoff(X), State) :-
    member(close(X), State),
    switchable(X),
    powered(X, State).
legal_action(sit(X), State) :-
    member(close(X), State),
    sittable(X),
    not sitting(State).
legal_action(standup, State) :- sitting(State).
legal_action(walk(X), State) :-
    type(X, _),
    not member(close(X), State).

powered(X, State) :- member(on(X), State).
powered(X, State) :- starts_on(X), not member(off(X), State).
sitting(State) :- member(sitting_on(_), State).
hands_full(State) :-
    member(holds(X), State), member(holds(Y), State), X \\= Y.

% effects: successor fluent lists stay sorted and duplicate-free
update(walk(X), State, State2) :-
    update_walking(State, State, Kept),
    insert_sorted(close(X), Kept, State2).
update(grab(X), State, State2) :- insert_sorted(holds(X), State, State2).
update(switchon(X), State, State2) :- starts_on(X), remove_fluent(off(X), State, State2).
update(switchon(X), State, State2) :- not starts_on(X), insert_sorted(on(X), State, State2).
update(switchoff(X), State, State2) :- starts_on(X), insert_sorted(off(X), State, State2).
update(switchoff(X), State, State2) :- not starts_on(X), remove_fluent(on(X), State, State2).
update(sit(X), State, State2) :- insert_sorted(sitting_on(X), State, State2).
update(standup, State, State2) :- remove_fluent(sitting_on(_), State, State2).

% walking keeps held items close and every switch the plan made;
% closeness to anything not held is lost, and the agent stands up.  One
% pass in state order, so the kept fluents stay sorted.
update_walking([], _, []).
update_walking([close(Y)|Rest], State, [close(Y)|Kept]) :-
    member(holds(Y), State),
    update_walking(Rest, State, Kept).
update_walking([close(Y)|Rest], State, Kept) :-
    not member(holds(Y), State),
    update_walking(Rest, State, Kept).
update_walking([holds(Y)|Rest], State, [holds(Y)|Kept]) :-
    update_walking(Rest, State, Kept).
update_walking([off(Y)|Rest], State, [off(Y)|Kept]) :-
    update_walking(Rest, State, Kept).
update_walking([on(Y)|Rest], State, [on(Y)|Kept]) :-
    update_walking(Rest, State, Kept).
update_walking([sitting_on(_)|Rest], State, Kept) :-
    update_walking(Rest, State, Kept).

remove_fluent(F, [F|Rest], Rest).
remove_fluent(F, [G|Rest], [G|Rest2]) :-
    G \\= F,
    remove_fluent(F, Rest, Rest2).

% task catalog
complete_task(walk_to_remote, P) :-
    type(Remote, remotecontrol),
    transform([close(Remote)], P).
complete_task(grab_remote, P) :-
    type(Remote, remotecontrol),
    transform([holds(Remote)], P).
complete_task(grab_remote_and_shirt, P) :-
    type(Remote, remotecontrol),
    type(Shirt, shirt),
    transform([holds(Remote), holds(Shirt)], P).
complete_task(grab_cellphone_and_sit_on_couch, P) :-
    type(Phone, cellphone),
    type(Couch, couch),
    transform([holds(Phone), sitting_on(Couch)], P).
complete_task(sit_on_couch, P) :-
    type(Couch, couch),
    transform([sitting_on(Couch)], P).
"""


@lru_cache(maxsize=1)
def domain_kb() -> Program:
    """The planning knowledge base, parsed once."""
    return parse_program(DOMAIN_KB_TEXT)


@lru_cache(maxsize=1)
def planning_kb() -> Program:
    """The knowledge base's slice for transform/2, cut once.  Scene facts
    add no dependency edges and the knowledge base calls each of their
    predicates, so this slice plus a scene's facts is the slice of both."""
    query = [Literal(Struct("transform", (Var("Goals"), Var("Plan"))))]
    return prune_program(domain_kb(), query)


def encode_goal_fluents(task: Task, state: WorldState) -> List[Term]:
    """Resolve the task's goal template against the scene.

    Each (functor, object type) pair becomes a ground fluent over the
    smallest matching object id; the result is canonically sorted.
    """
    fluents = []
    for functor, type_name in task.goal_template:
        candidates = sorted(
            obj_id for obj_id, obj in state.objects.items() if obj.type == type_name
        )
        if not candidates:
            raise UnresolvableTask(type_name)
        fluents.append(Struct(functor, (Const(candidates[0]),)))
    return sorted(set(fluents), key=format_term)


def encode_task(task: Task, state: WorldState) -> Literal:
    """The planning goal: transform(GoalFluents, P) with P free."""
    goal_list = make_list(encode_goal_fluents(task, state))
    return Literal(Struct("transform", (goal_list, Var("P"))))


def goal_satisfied(state: WorldState, task: Task) -> bool:
    current = set(fluent_list(state))
    return all(g in current for g in encode_goal_fluents(task, state))


def execute_plan(state: WorldState, actions: Sequence[Action]) -> WorldState:
    """Replay the plan in the simulator; failures carry the step index."""
    for i, action in enumerate(actions):
        try:
            state = apply_action(state, action)
        except IllegalAction as e:
            raise IllegalAction(e.reason, index=i) from None
    return state


def plan(
    state: WorldState, task: Task, options: Optional[PlanOptions] = None
) -> Optional[List[Action]]:
    """Find a shortest plan for the task, or None when there is none.

    The scene's facts are layered on planning_kb() (see
    `engine.layer_facts`), whose solver index is built once per process,
    and the result is solved with an exact-length action skeleton for each
    length 1..max_plan_len in turn, each with what is left of the
    options' wall-clock limit.  SolveTimeout and BudgetExceeded propagate.
    """
    options = options or PlanOptions()
    start = set(fluent_list(state))
    goals = encode_goal_fluents(task, state)
    if all(g in start for g in goals):
        return []

    # The state records only the plan's switches, so an on/1 goal whose
    # device starts on is left out: a shortest plan never switches it.
    goal_list = make_list([g for g in goals if g.functor != "on" or g not in start])
    program = layer_facts(planning_kb(), state_to_facts(state))

    cfg = options.config
    deadline = None if cfg.wall_timeout is None else time.monotonic() + cfg.wall_timeout
    for length in range(1, options.max_plan_len + 1):
        if deadline is not None:
            cfg = replace(cfg, wall_timeout=deadline - time.monotonic())
        skeleton = [Var(f"A{i}") for i in range(1, length + 1)]
        goal = Literal(Struct("transform", (goal_list, make_list(skeleton))))
        try:
            answer = next(solve(program, [goal], cfg))
        except StopIteration:
            continue
        return [action_from_term(answer.bindings[v.name]) for v in skeleton]
    return None
