"""Task encoding, the planning knowledge base, and plan search."""

import hashlib
import json
import re

import pytest

from conftest import bfs_plan_length
from homelog import engine, planner
from homelog.engine import PRELUDE_PREDS, SolveConfig, SolveTimeout, solve, solve_all
from homelog.parser import parse_query
from homelog.planner import (
    BENCH_TASK_NAMES,
    DOMAIN_KB_TEXT,
    PlanOptions,
    TASK_CATALOG,
    Task,
    UnresolvableTask,
    domain_kb,
    encode_goal_fluents,
    encode_task,
    execute_plan,
    goal_satisfied,
    plan,
    planning_kb,
)
from homelog.program import Literal, PredId
from homelog.relevance import BUILTIN_PREDS, build_depgraph, prune_program, reachable
from homelog.scenes import minimal_scene, six_object_scene
from homelog.terms import Const, Struct, Var, format_term, list_parts, make_list, variant_key
from homelog.world import (
    Action,
    IllegalAction,
    action_from_term,
    action_term,
    fluent_list,
    legal,
    load_scene,
    random_scene,
    scene_to_dict,
    state_to_facts,
)


def clause_shape(clause):
    """A clause as one term, for comparison modulo variable renaming."""
    body = [
        Struct("not", (lit.atom,)) if lit.negated else lit.atom for lit in clause.body
    ]
    return variant_key(Struct(":-", (clause.head, make_list(body))))


def squeeze(text):
    return "".join(text.split())


# -- the knowledge base -------------------------------------------------------------


def test_kb_text_contains_the_subset_base_case():
    assert squeeze("transform(State1,FinalState,_,[]) :- subset(FinalState,State1).") in squeeze(
        DOMAIN_KB_TEXT
    )


def test_kb_parses_and_contains_the_base_case_structurally():
    from homelog.parser import parse_program

    expected = parse_program("transform(State1, FinalState, _, []) :- subset(FinalState, State1).")
    shapes = {clause_shape(c) for c in domain_kb()}
    assert clause_shape(expected.clauses[0]) in shapes


def test_kb_defines_the_expected_predicates():
    kb = domain_kb()
    for name, arity in [
        ("transform", 2), ("transform", 4), ("needed_steps", 3), ("goal_object", 2),
        ("choose_action", 3), ("suggest", 2), ("legal_action", 2),
        ("update", 3), ("update_walking", 3), ("remove_fluent", 3),
        ("complete_task", 2), ("sitting", 1), ("hands_full", 1),
    ]:
        assert kb.defines(PredId(name, arity)), f"{name}/{arity}"


def test_kb_has_legality_and_effect_rules_for_every_action():
    kb = domain_kb()
    legality = set()
    effects = set()
    for clause in kb:
        arg = clause.head.args[0] if clause.head.args else None
        key = arg.functor if isinstance(arg, Struct) else getattr(arg, "value", None)
        if clause.head_pred == PredId("legal_action", 2):
            legality.add(key)
        elif clause.head_pred == PredId("update", 3):
            effects.add(key)
    expected = {"walk", "grab", "switchon", "switchoff", "sit", "standup"}
    assert legality == expected
    assert effects == expected


def test_kb_walks_to_an_object_of_type_character_as_the_simulator_does():
    """An object's type is only a name: one typed `character` is walked to
    like any other object, by the simulator and by the knowledge base."""
    scene = load_scene(json.dumps({
        "rooms": [{"id": "livingroom1", "type": "livingroom"}],
        "objects": [{"id": "character1", "type": "character", "room": "livingroom1"}],
        "agent": {"room": "livingroom1"},
    }))
    action = Action("walk", "character1")
    assert legal(scene, action) == (True, "")
    goal = Literal(Struct("legal_action", (action_term(action), make_list(fluent_list(scene)))))
    answers, status = solve_all(domain_kb() + state_to_facts(scene), [goal])
    assert (len(answers), status) == (1, "exhausted")


def test_kb_suggests_walking_for_every_closeness_prerequisite():
    """suggest/2 proposes walking to the object of each goal kind that
    needs closeness, unless the goals already ask to be close to it: every
    close/1 goal first, then holds/1, on/1 and sitting_on/1 goals, each in
    goal-list order, whatever order the list is in."""
    goals = parse_query(
        "?- suggest(A, [sitting_on(s1), on(o2), holds(h2), close(c1), sitting_on(s2),"
        " holds(h1), on(o1), close(c2), holds(c1)])."
    )
    answers, status = solve_all(domain_kb(), goals)
    assert status == "exhausted"
    assert [format_term(a.bindings["A"]) for a in answers] == [
        "walk(c1)", "walk(c2)", "walk(h2)", "walk(h1)", "walk(o2)", "walk(o1)", "walk(s1)", "walk(s2)",
    ]


def test_kb_body_predicates_are_all_resolvable(six_scene):
    """Every predicate the KB calls is defined somewhere: in the KB, in the
    scene facts, or by the solver itself."""
    kb = domain_kb()
    facts = state_to_facts(six_scene)
    known = set(kb.index) | set(facts.index) | set(PRELUDE_PREDS) | set(BUILTIN_PREDS)
    for clause in kb:
        for lit in clause.body:
            assert lit.pred in known, f"{lit.pred} in clause for {clause.head_pred}"


def test_every_kb_predicate_is_reached_from_a_planning_query():
    """No rule of the knowledge base is dead: each predicate it defines is
    called, directly or not, by transform/2 or complete_task/2."""
    kb = domain_kb()
    query = parse_query("?- transform(G, P), complete_task(T, P).")
    assert set(kb.index) <= reachable(build_depgraph(kb, query))


# -- task encoding -------------------------------------------------------------------


def test_catalog_names():
    assert set(BENCH_TASK_NAMES) <= set(TASK_CATALOG)
    assert TASK_CATALOG["grab_remote"].goal_template == (("holds", "remotecontrol"),)


def test_encode_walk_to_remote_on_minimal_scene():
    lit = encode_task(TASK_CATALOG["walk_to_remote"], minimal_scene())
    assert format_term(lit.atom) == "transform([close(remotecontrol1)], P)"
    assert lit.atom.args[1] == Var("P")


def test_encode_sorts_goal_fluents(six_scene):
    goals = encode_goal_fluents(TASK_CATALOG["grab_cellphone_and_sit_on_couch"], six_scene)
    assert [format_term(g) for g in goals] == ["holds(cellphone1)", "sitting_on(couch1)"]


def test_encode_resolves_each_type_to_the_smallest_id():
    text = json.dumps({
        "rooms": [{"id": "livingroom100", "type": "livingroom"}],
        "objects": [
            {"id": "remotecontrol2", "type": "remotecontrol", "room": "livingroom100"},
            {"id": "remotecontrol1", "type": "remotecontrol", "room": "livingroom100"},
            {"id": "shirt2", "type": "shirt", "room": "livingroom100"},
        ],
        "agent": {"room": "livingroom100"},
    })
    scene = load_scene(text)
    goals = encode_goal_fluents(TASK_CATALOG["grab_remote_and_shirt"], scene)
    assert [format_term(g) for g in goals] == ["holds(remotecontrol1)", "holds(shirt2)"]


def test_encode_unresolvable_task_names_the_type():
    with pytest.raises(UnresolvableTask) as e:
        encode_task(TASK_CATALOG["sit_on_couch"], minimal_scene())
    assert e.value.type_name == "couch"


# -- goal satisfaction and plan execution ----------------------------------------------


def test_goal_satisfied_flips_after_walking():
    s = minimal_scene()
    task = TASK_CATALOG["walk_to_remote"]
    assert not goal_satisfied(s, task)
    s = execute_plan(s, [Action("walk", "remotecontrol1")])
    assert goal_satisfied(s, task)


def test_execute_plan_empty_is_identity(six_scene):
    assert execute_plan(six_scene, []) is six_scene


def test_execute_plan_reports_failing_index(six_scene):
    with pytest.raises(IllegalAction) as e:
        execute_plan(six_scene, [Action("grab", "remotecontrol1")])
    assert e.value.index == 0
    assert "not close" in str(e.value)
    with pytest.raises(IllegalAction) as e:
        execute_plan(
            six_scene, [Action("walk", "couch1"), Action("sit", "couch1"), Action("sit", "couch1")]
        )
    assert e.value.index == 2


# -- planning ---------------------------------------------------------------------------


def test_plan_minimal_walk():
    assert plan(minimal_scene(), TASK_CATALOG["walk_to_remote"]) == [Action("walk", "remotecontrol1")]


def test_plan_minimal_grab():
    assert plan(minimal_scene(), TASK_CATALOG["grab_remote"]) == [
        Action("walk", "remotecontrol1"),
        Action("grab", "remotecontrol1"),
    ]


def test_plan_already_satisfied_is_empty(six_scene):
    s = execute_plan(six_scene, [Action("walk", "remotecontrol1")])
    assert plan(s, TASK_CATALOG["walk_to_remote"]) == []


def test_plan_respects_max_plan_len(six_scene):
    options = PlanOptions(max_plan_len=1)
    assert plan(six_scene, TASK_CATALOG["grab_remote"], options) is None


def test_plan_unresolvable_task_raises():
    with pytest.raises(UnresolvableTask):
        plan(minimal_scene(), TASK_CATALOG["sit_on_couch"])


def test_plan_frozen_sequences(six_scene):
    got = plan(six_scene, TASK_CATALOG["grab_cellphone_and_sit_on_couch"])
    assert got == [
        Action("walk", "cellphone1"), Action("grab", "cellphone1"),
        Action("walk", "couch1"), Action("sit", "couch1"),
    ]
    got = plan(six_scene, TASK_CATALOG["sit_on_couch"])
    assert got == [Action("walk", "couch1"), Action("sit", "couch1")]


@pytest.mark.parametrize("task_name", sorted(TASK_CATALOG))
def test_plans_on_the_six_object_scene_are_valid_and_shortest(six_scene, task_name):
    task = TASK_CATALOG[task_name]
    actions = plan(six_scene, task)
    assert actions is not None
    end = execute_plan(six_scene, actions)
    assert goal_satisfied(end, task)
    assert len(actions) == bfs_plan_length(six_scene, task)


@pytest.mark.parametrize("task_name", sorted(TASK_CATALOG))
def test_prune_transparency(monkeypatch, six_scene, task_name):
    """Planning over the whole knowledge base, not its slice, finds the
    same plan."""
    task = TASK_CATALOG[task_name]
    with_prune = plan(six_scene, task)
    monkeypatch.setattr(planner, "planning_kb", domain_kb)
    without = plan(six_scene, task)
    assert with_prune == without


def test_the_whole_knowledge_base_gets_an_index_of_its_own(monkeypatch, six_scene):
    task = TASK_CATALOG["grab_remote"]
    plan(six_scene, task)
    sliced = planning_kb().solver_index
    monkeypatch.setattr(planner, "planning_kb", domain_kb)
    plan(six_scene, task)
    whole = domain_kb().solver_index
    assert sliced is not None and whole is not None and whole is not sliced
    assert planning_kb().solver_index is sliced
    assert PredId("complete_task", 2) in whole.lookup
    assert PredId("complete_task", 2) not in sliced.lookup


@pytest.mark.parametrize("task_name", sorted(TASK_CATALOG))
def test_plans_never_revisit_a_fluent_state(six_scene, task_name):
    task = TASK_CATALOG[task_name]
    actions = plan(six_scene, task)
    state = six_scene
    seen = {tuple(map(format_term, fluent_list(state)))}
    for action in actions:
        state = execute_plan(state, [action])
        key = tuple(map(format_term, fluent_list(state)))
        assert key not in seen
        seen.add(key)


LAMP_ON_AND_GRAB_REMOTE = Task("lamp_on_and_grab_remote", (("on", "lamp"), ("holds", "remotecontrol")))


def lamp_scene(lamp):
    """The six-object scene with lamp1's power set to `lamp`."""
    doc = scene_to_dict(six_object_scene())
    for obj in doc["objects"]:
        if obj["id"] == "lamp1":
            obj["powered"] = lamp
    return load_scene(json.dumps(doc))


@pytest.mark.parametrize(
    "lamp, want",
    [
        ("on", "walk(remotecontrol1) grab(remotecontrol1)"),
        ("off", "walk(remotecontrol1) grab(remotecontrol1) walk(lamp1) switchon(lamp1)"),
    ],
)
def test_an_on_goal_plans_whether_its_device_starts_on_or_off(lamp, want):
    """A plan's state records only the switches it makes, so a lamp that
    starts on never shows as on/1 there: its goal must count as met from the
    start, or no state ever satisfies it and the search runs out its budget.
    A lamp that starts off must be switched on."""
    scene = lamp_scene(lamp)
    task = LAMP_ON_AND_GRAB_REMOTE
    actions = plan(scene, task, PlanOptions(config=SolveConfig(step_budget=100_000)))
    assert " ".join(map(str, actions)) == want
    assert len(actions) == bfs_plan_length(scene, task)
    assert goal_satisfied(execute_plan(scene, actions), task)


def test_the_goal_encode_task_builds_solves_for_a_device_that_starts_on():
    scene = lamp_scene("on")
    program = engine.layer_facts(planning_kb(), state_to_facts(scene))
    goal = encode_task(LAMP_ON_AND_GRAB_REMOTE, scene)
    answer = next(solve(program, [goal], SolveConfig(step_budget=200_000)))
    assert answer.bindings["P"].ground


PLAN_GOAL_CASES = [(six_object_scene(), task) for task in TASK_CATALOG.values()] + [
    (lamp_scene(lamp), LAMP_ON_AND_GRAB_REMOTE) for lamp in ("on", "off")
]


@pytest.mark.parametrize("scene, task", PLAN_GOAL_CASES)
def test_plan_solves_the_goal_encode_task_builds(monkeypatch, scene, task):
    goals = []

    def spy(program, query, config=None):
        goals.append(query)
        return solve(program, query, config)

    monkeypatch.setattr(planner, "solve", spy)
    actions = plan(scene, task)
    want = encode_task(task, scene).atom.args[0]
    assert len(goals) == len(actions)
    for length, [goal] in enumerate(goals, 1):
        assert goal.atom.functor == "transform" and goal.atom.args[0] == want
        assert len(list_parts(goal.atom.args[1])[0]) == length


def holds_every_goal(state, task):
    """Whether the state's fluents include every goal fluent of the task."""
    current = set(fluent_list(state))
    return all(g in current for g in encode_goal_fluents(task, state))


@pytest.mark.parametrize("scene, task", PLAN_GOAL_CASES + [
    (random_scene(seed, 8), TASK_CATALOG[name]) for seed in range(4) for name in BENCH_TASK_NAMES
])
def test_encode_task_is_none_exactly_when_every_goal_holds(scene, task):
    actions = plan(scene, task) or []
    states = [scene]
    for action in actions:
        states.append(execute_plan(states[-1], [action]))
    for state in states:
        assert (encode_task(task, state) is None) == holds_every_goal(state, task)
        assert goal_satisfied(state, task) == holds_every_goal(state, task)


@pytest.mark.parametrize("seed", range(4))
def test_plan_lengths_match_breadth_first_search_on_small_scenes(seed):
    scene = random_scene(seed, 8)
    for task_name in BENCH_TASK_NAMES:
        task = TASK_CATALOG[task_name]
        actions = plan(scene, task)
        want = bfs_plan_length(scene, task)
        if actions is None:
            assert want is None
        else:
            assert len(actions) == want
            assert goal_satisfied(execute_plan(scene, actions), task)


@pytest.mark.parametrize("scene", [six_object_scene(), random_scene(7, 100)],
                         ids=["six_scene", "random_7_100"])
def test_plan_slices_the_knowledge_base_once(monkeypatch, scene):
    """The program plan solves equals the slice of the knowledge base plus
    the scene's facts, and every predicate a scene states is one the
    knowledge base can call, so no fact is lost by slicing only the KB."""
    solved = []

    def spy(program, goals, config=None):
        solved.append(program)
        return solve(program, goals, config)

    monkeypatch.setattr(planner, "solve", spy)
    facts = state_to_facts(scene)
    for task in TASK_CATALOG.values():
        solved.clear()
        plan(scene, task)
        assert solved, task.name
        want = prune_program(domain_kb() + facts, [encode_task(task, scene)])
        assert all(program == want for program in solved), task.name

    query = [encode_task(TASK_CATALOG["grab_remote"], scene)]
    assert set(facts.index) <= reachable(build_depgraph(planning_kb(), query))


_FRESH_VAR = re.compile(r"_#(\d+)")


def _search_digest(scenes, drop=(), keep=("",)):
    """sha256 over every task's call trace and plan on the scenes, and the
    number of trace lines.  Only calls whose text starts with one of `keep`
    and with none of `drop` are kept.  The solver's fresh variables `_#<n>`
    are renamed in first-occurrence order among the kept calls of each
    solve (a solve's trace starts with its one depth-0 call), since their
    raw numbers also count the variables of clause heads that were tried
    and failed."""
    digest = hashlib.sha256()
    n_lines = 0
    for scene in scenes:
        for name in sorted(TASK_CATALOG):
            lines = []
            try:
                actions = plan(scene, TASK_CATALOG[name], PlanOptions(config=SolveConfig(trace=lines.append)))
                outcome = "None" if actions is None else " ".join(map(str, actions))
            except UnresolvableTask as e:
                outcome = f"unresolvable {e.type_name}"
            names = {}
            for line in lines:
                if not line.startswith(" "):
                    names = {}
                call = line.lstrip()
                if call.startswith(drop) or not call.startswith(keep):
                    continue
                line = _FRESH_VAR.sub(lambda m: names.setdefault(m.group(1), f"_#v{len(names)}"), line)
                digest.update(line.encode() + b"\n")
                n_lines += 1
            digest.update(outcome.encode() + b"\n")
    return digest.hexdigest(), n_lines


@pytest.mark.parametrize(
    "scenes, want",
    [
        (
            lambda: [random_scene(7, 100)],
            ("ac0d6d686d9358a3f2ee1ffe6077bdfeb3cec1a9b90ef15b44dfc307559eb27e", 575),
        ),
        (
            lambda: [six_object_scene(), random_scene(1, 12), random_scene(2, 40)],
            ("f1d0724de7006d698500abd011c2db9f7ed9ff3566ea576906f5551238d2f9cc", 1729),
        ),
    ],
    ids=["random_7_100", "small_scenes"],
)
def test_search_is_unchanged(scenes, want):
    """Plans and normalized call traces equal the recorded ones: a change to
    how the solver picks clauses or matches terms must not change which
    calls it makes, in what order, or the plans it finds.  A change that
    alters the search on purpose records new digests and says why."""
    assert _search_digest(scenes()) == want


@pytest.mark.parametrize(
    "scenes, want",
    [
        (
            lambda: [random_scene(7, 100)],
            ("f7c573c8a60dc72b366c1814355e0eb20b9c1ceb964ef2d478a61ec9e3b049cf", 259),
        ),
        (
            lambda: [six_object_scene(), random_scene(1, 12), random_scene(2, 40)],
            ("cdbf4c3fe1303c80cb531ada07e7275e51552d26cf861d652ca7f8bcab4d59bd", 777),
        ),
    ],
    ids=["random_7_100", "small_scenes"],
)
def test_search_outside_the_bound_is_unchanged(scenes, want):
    """Plans and normalized call traces, less the calls of the lower bound's
    own predicates and of member/2, equal the recorded ones: however the
    bound is worded, the actions the search tries and the plans it finds
    stay the same."""
    drop = ("call needed_steps(", "call fits_in(", "call member(")
    assert _search_digest(scenes(), drop) == want


@pytest.mark.parametrize(
    "scenes, want",
    [
        (
            lambda: [random_scene(7, 100)],
            ("9d0f3fae4a2506010d76ceb9d3eba0ae0abe47ea4eb14af047fa036e09ea3870", 36),
        ),
        (
            lambda: [six_object_scene(), random_scene(1, 12), random_scene(2, 40)],
            ("2054572d775155edab80f5baa03ae07f5f16860367deab956b2d666c61f88d25", 108),
        ),
    ],
    ids=["random_7_100", "small_scenes"],
)
def test_scene_fact_calls_are_unchanged(scenes, want):
    """Plans and normalized calls of the scene's fact predicates other than
    power equal the recorded ones.  These calls fix the order in which the
    search tries actions, so this digest holds however the state list
    records power; it was recorded before power moved to starts_on/1."""
    keep = ("call type(", "call grabbable(", "call switchable(", "call sittable(")
    assert _search_digest(scenes(), keep=keep) == want


@pytest.mark.parametrize(
    "scenes, want",
    [
        (
            lambda: [random_scene(7, 100)],
            ("d8869c7d4112cf6212c2f66a4bea6a811dbf96b94482ab77f6126d5d1a359299", 132),
        ),
        (
            lambda: [six_object_scene(), random_scene(1, 12), random_scene(2, 40)],
            ("e16a17bcd44fbbec7644c9a83f14210e508c30b37d96568bdb6c58098e99af18", 396),
        ),
    ],
    ids=["random_7_100", "small_scenes"],
)
def test_action_level_search_is_unchanged(scenes, want):
    """Plans and normalized calls of the search's own steps (each state it
    expands, each action it picks, checks and applies) and of the scene's
    fact predicates equal the recorded ones.  The rules that bound the
    search or name a goal's object may be reworded; the states expanded,
    the actions tried, in their order, and the plans found may not."""
    keep = (
        "call transform(", "call choose_action(", "call legal_action(", "call update(",
        "call insert_sorted(", "call remove_fluent(",
        "call type(", "call grabbable(", "call switchable(", "call sittable(",
    )
    assert _search_digest(scenes(), keep=keep) == want


def test_every_task_plans_shortest_on_a_3000_object_scene():
    scene = random_scene(7, 3000)
    assert not scene.agent.close and not scene.agent.held
    options = PlanOptions(config=SolveConfig(wall_timeout=60.0))
    lengths = []
    for task in TASK_CATALOG.values():
        actions = plan(scene, task, options)
        assert actions is not None, task.name
        assert goal_satisfied(execute_plan(scene, actions), task), task.name
        lengths.append(len(actions))
    assert lengths == [1, 2, 4, 4, 2]


def test_every_task_plans_shortest_on_a_5000_object_scene():
    scene = random_scene(7, 5000)
    assert not scene.agent.close and not scene.agent.held
    options = PlanOptions(config=SolveConfig(wall_timeout=120.0))
    lengths = []
    for task in TASK_CATALOG.values():
        actions = plan(scene, task, options)
        assert actions is not None, task.name
        assert goal_satisfied(execute_plan(scene, actions), task), task.name
        lengths.append(len(actions))
    assert lengths == [1, 2, 4, 4, 2]


def test_loop_check_walks_stay_short_on_a_1000_object_scene(loop_check_counts):
    """Only calls whose descent argument is not ground are keyed: the plan
    search's transform/4, whose plan skeleton is open.  The calls that walk
    a state list are exempt, so neither keys nor the ancestor frames the
    loop check compares grow with the number of fluents in a state."""
    scene = random_scene(7, 1000)
    lengths = [len(plan(scene, task)) for task in TASK_CATALOG.values()]
    assert lengths == [1, 2, 4, 4, 2]
    assert set(loop_check_counts.keys) == {PredId("transform", 4)}
    assert loop_check_counts.keyed <= 50
    assert loop_check_counts.frames <= 50


def test_plan_timeout_propagates():
    scene = random_scene(7, 100)
    options = PlanOptions(config=SolveConfig(wall_timeout=0.0005))
    with pytest.raises(SolveTimeout):
        plan(scene, TASK_CATALOG["grab_remote_and_shirt"], options)


def test_plan_with_a_spent_limit_builds_no_facts(six_scene, monkeypatch):
    def no_facts(state):
        raise AssertionError("facts built after the limit was spent")

    monkeypatch.setattr(planner, "state_to_facts", no_facts)
    options = PlanOptions(config=SolveConfig(wall_timeout=0))
    with pytest.raises(SolveTimeout, match="wall-clock limit reached"):
        plan(six_scene, TASK_CATALOG["grab_remote"], options)


def test_complete_task_rules_drive_the_same_search():
    program = domain_kb() + state_to_facts(minimal_scene())
    answer = next(solve(program, parse_query("?- complete_task(walk_to_remote, P).")))
    assert format_term(answer.bindings["P"]) == "[walk(remotecontrol1)]"


@pytest.mark.parametrize(
    "task, length", [("grab_remote_and_shirt", 5), ("grab_cellphone_and_sit_on_couch", 20)]
)
def test_complete_task_with_an_unbound_plan_is_depth_first(six_scene, task, length):
    # README's example: without a skeleton the first answer need not be
    # shortest (4 actions suffice for either task), but it replays.
    program = domain_kb() + state_to_facts(six_scene)
    answer = next(solve(program, parse_query(f"?- complete_task({task}, P).")))
    terms, tail = list_parts(answer.bindings["P"])
    assert tail == Const("[]") and len(terms) == length
    actions = [action_from_term(t) for t in terms]
    assert goal_satisfied(execute_plan(six_scene, actions), TASK_CATALOG[task])


def test_plan_options_validate():
    with pytest.raises(ValueError):
        PlanOptions(max_plan_len=0)
    assert PlanOptions().max_plan_len == 8


def test_task_is_a_value_object():
    t = Task("demo", (("close", "tv"),))
    assert t.name == "demo"
    assert t.goal_template == (("close", "tv"),)
