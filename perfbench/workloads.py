"""Seeded inputs, operations and engine-free correctness references.

An op is one unit of measured work: a `plan` call plus its replay check,
or one parse + query + `solve_all`.  Each op returns OK or the reason it
failed; a reason starting with WRONG means the program returned a wrong
result (an unsound answer or a bad plan), as opposed to an incomplete
one or an error.

A workload is a fixed list of ops, one pass.  Runs repeat whole passes,
so the mix of op kinds, and with it every percentile, stays the same
however many passes fit in the run.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Tuple

from homelog import (
    TASK_CATALOG,
    IllegalAction,
    PlanOptions,
    SolveConfig,
    domain_kb,
    execute_plan,
    format_term,
    goal_satisfied,
    load_scene,
    parse_program,
    parse_query,
    plan,
    random_scene,
    solve_all,
)
from homelog.world import scene_to_dict

OK = "ok"
WRONG = "wrong: "

# Shortest plan length per task on a scene where the agent starts close to
# nothing and holds nothing, which is how random_scene builds every scene.
SHORTEST_PLAN: Dict[str, int] = {
    "walk_to_remote": 1,
    "grab_remote": 2,
    "grab_remote_and_shirt": 4,
    "grab_cellphone_and_sit_on_couch": 4,
    "sit_on_couch": 2,
}


class Outcomes:
    """Latency and outcome of every op.

    `seconds` is an op's time at the reference host speed (see
    hostspeed.py), `raw_seconds` its time as the clock read it.
    """

    def __init__(self, limit_s: float):
        self.limit_s = limit_s
        self.latencies: List[float] = []
        self.raw_latencies: List[float] = []
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        self.attempted = 0
        self.failed: Dict[str, int] = {}
        self.wrong = 0

    def add(self, reason: str, seconds: float, raw_seconds: float) -> None:
        self.attempted += 1
        self.busy_s += seconds
        self.raw_busy_s += raw_seconds
        if reason == OK:
            self.latencies.append(seconds)
            self.raw_latencies.append(raw_seconds)
            return
        self.raw_latencies.append(self.limit_s + raw_seconds)
        # A failed op missed every latency limit: it reads as the limit plus
        # the time it took, so it sorts above every success.
        self.latencies.append(self.limit_s + seconds)
        self.failed[reason] = self.failed.get(reason, 0) + 1
        if reason.startswith(WRONG):
            self.wrong += 1

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


@dataclass(frozen=True)
class Workload:
    ops: List[Callable]
    limit_s: float  # per-op wall-clock limit; a failed op counts beyond it


# -- planning ----------------------------------------------------------------


class PlanOp:
    kind = "plan"

    def __init__(self, scene, task_name: str, limit_s: float):
        self.scene = scene
        self.task = TASK_CATALOG[task_name]
        self.options = PlanOptions(config=SolveConfig(wall_timeout=limit_s))

    def __call__(self, span) -> str:
        with span("planner.plan", task=self.task.name):
            actions = plan(self.scene, self.task, self.options)
        if actions is None:
            return "no plan"
        with span("world.replay"):
            try:
                final = execute_plan(self.scene, actions)
            except IllegalAction:
                return WRONG + "illegal action in plan"
            reached = goal_satisfied(final, self.task)
        if not reached:
            return WRONG + "plan does not reach the goal"
        if len(actions) != SHORTEST_PLAN[self.task.name]:
            return WRONG + "plan is not shortest"
        return OK


def _scene(seed: int, n_objects: int):
    """random_scene(seed, n) with one device in eight switched on.

    Every device that is on adds one fluent to the state list, and plan
    cost grows steeply with that list's length.  random_scene draws each
    device's power independently, which made one task's time vary by a
    factor of two between seeds at 1000 objects; fixing the count keeps
    scenes of one size comparable.  A scene with fewer devices than that
    has all of them on.  Layout and object types are untouched.
    """
    doc = scene_to_dict(random_scene(seed, n_objects))
    devices = [o for o in doc["objects"] if o["switchable"]]
    count = min(len(devices), n_objects // 8)
    on = {o["id"] for o in random.Random(seed).sample(devices, count)}
    for o in devices:
        o["powered"] = "on" if o["id"] in on else "off"
    return load_scene(json.dumps(doc))


def _plan_ops(seed: int, n_objects: int, limit_s: float) -> List[Callable]:
    scene = _scene(seed, n_objects)
    return [PlanOp(scene, name, limit_s) for name in SHORTEST_PLAN]


def plan_large(seed: int) -> Workload:
    # The five tasks on each of four 400-object scenes, 50 fluents each.
    # At 1000 objects one scene's five plans took about 15 s, too few
    # plans in a run for a steady median.
    limit_s = 60.0
    rng = random.Random(seed)
    ops: List[Callable] = []
    for _ in range(4):
        ops.extend(_plan_ops(rng.randrange(2**32), 400, limit_s))
    return Workload(ops, limit_s)


def plan_small(seed: int) -> Workload:
    # 40 scenes whose sizes are stratified over 6..40 objects, so every run
    # sees the same spread of sizes.
    limit_s = 10.0
    rng = random.Random(seed)
    ops: List[Callable] = []
    for i in range(40):
        size = 6 + int((i + rng.random()) * 35 / 40)
        ops.extend(_plan_ops(rng.randrange(2**32), size, limit_s))
    return Workload(ops, limit_s)


# -- recursive queries ---------------------------------------------------------

RIGHT = """\
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
"""
MUTUAL = """\
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), hop(Z, Y).
hop(X, Y) :- edge(X, Y).
hop(X, Y) :- edge(X, Z), path(Z, Y).
"""
LEFT = """\
path(X, Y) :- path(X, Z), edge(Z, Y).
path(X, Y) :- edge(X, Y).
"""
HAS = "has(X) :- items(L), member(X, L).\n"


class QueryOp:
    def __init__(self, kind: str, text: str, query: str, check: Callable, limit_s: float):
        self.kind = kind
        self.text = text
        self.query = query
        self.check = check
        self.config = SolveConfig(wall_timeout=limit_s)
        self.kb = (len(text) + len(query)) / 1024

    def __call__(self, span) -> str:
        with span("parser.parse", kb=self.kb):
            program = parse_program(self.text)
            goals = parse_query(self.query)
        answers, status = solve_all(program, goals, self.config)
        return self.check(answers, status)


def _reach(succ: Dict[str, List[str]], start: str) -> Set[str]:
    """Nodes reachable from `start` over one or more edges (plain BFS)."""
    seen: Set[str] = set()
    todo = deque(succ[start])
    while todo:
        n = todo.popleft()
        if n not in seen:
            seen.add(n)
            todo.extend(succ[n])
    return seen


def _expect_set(var: str, expected: Set[str]) -> Callable:
    def check(answers, status) -> str:
        got = {format_term(a.bindings[var]) for a in answers}
        if got - expected:
            return WRONG + "answer not in the reference"
        if status != "exhausted":
            return status
        return OK if got == expected else "incomplete answers"

    return check


def _expect_bool(expected: bool) -> Callable:
    def check(answers, status) -> str:
        if answers and not expected:
            return WRONG + "member/2 proved an absent element"
        if status != "exhausted":
            return status
        return OK if bool(answers) == expected else "incomplete answers"

    return check


def _graph(rng: random.Random) -> Tuple[List[List[str]], List[Tuple[str, str]]]:
    """32 nodes in a chain of eight directed 4-cycles, 47 edges.

    In each cycle a -> b -> c -> d -> a, the edge b -> a doubles back into
    a 2-cycle, and c joins the next cycle's a.  Every cycle is even, so the
    mutually recursive program comes back to a node only under the same
    predicate, where the loop check cuts it.  The seed shuffles the node
    names, and with them the order of the edge facts; the shape stays
    fixed, because in random graphs the number of simple paths, which the
    loop check makes the solver enumerate, varies by orders of magnitude.
    """
    names = [f"n{i}" for i in range(32)]
    rng.shuffle(names)
    clusters = [names[4 * c : 4 * c + 4] for c in range(8)]
    edges = []
    for a, b, c, d in clusters:
        edges += [(a, b), (b, c), (c, d), (d, a), (b, a)]
    for here, there in zip(clusters, clusters[1:]):
        edges.append((here[2], there[0]))
    return clusters, sorted(edges)


def _graph_ops(rng: random.Random, limit_s: float) -> List[Callable]:
    """Both source-bound programs from every node, and the target-bound
    and left-recursive queries from fixed places in the shape.

    Every query's place in the shape, and so its cost, is the same for
    every seed; only the names, and the order of the facts, change.
    """
    clusters, edges = _graph(rng)
    facts = "".join(f"edge({a}, {b}).\n" for a, b in edges)
    succ: Dict[str, List[str]] = {n: [] for c in clusters for n in c}
    pred: Dict[str, List[str]] = {n: [] for n in succ}
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)

    def from_source(kind: str, program: str, src: str) -> QueryOp:
        return QueryOp(kind, program + facts, f"?- path({src}, Y).",
                       _expect_set("Y", _reach(succ, src)), limit_s)

    nodes = [n for c in clusters for n in c]
    ops = [from_source("right_source", RIGHT, n) for n in nodes]
    ops += [from_source("mutual", MUTUAL, n) for n in nodes]
    target = clusters[-1][0]
    ops.append(QueryOp("right_target", RIGHT + facts, f"?- path(X, {target}).",
                       _expect_set("X", _reach(pred, target)), limit_s))
    ops += [from_source("left", LEFT, clusters[c][0]) for c in (0, 3)]
    return ops


def _list_ops(rng: random.Random, length: int, limit_s: float) -> List[Callable]:
    items = [f"x{i}" for i in range(length)]
    rng.shuffle(items)
    text = f"items([{', '.join(items)}]).\n" + HAS
    present = items[length // 2]
    return [
        QueryOp("member", text, f"?- has({present}).", _expect_bool(True), limit_s),
        QueryOp("member", text, "?- has(absent).", _expect_bool(False), limit_s),
    ]


def solve_recursive(seed: int) -> Workload:
    # Two graphs, and eight list facts of 200, 300, ..., 900 elements, so
    # every seed holds the same share of lists too long for today's
    # recursive term walks (about 330 elements).  The element sought sits
    # in the middle of its list.
    limit_s = 10.0
    rng = random.Random(seed)
    ops: List[Callable] = []
    for _ in range(2):
        ops.extend(_graph_ops(rng, limit_s))
    for i in range(8):
        ops.extend(_list_ops(rng, 200 + 100 * i, limit_s))
    return Workload(ops, limit_s)


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "plan_large": plan_large,
    "plan_small": plan_small,
    "solve_recursive": solve_recursive,
}


def build(name: str, seed: int) -> Workload:
    """The workload's inputs; plan workloads also parse the knowledge base."""
    if name != "solve_recursive":
        domain_kb()
    return WORKLOADS[name](seed)
