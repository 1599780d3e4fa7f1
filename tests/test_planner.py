"""Task encoding, the planning knowledge base, and plan search."""

import collections
import hashlib
import json
import re

import pytest

from conftest import bfs_plan_length
from homelog import engine, planner
from homelog.engine import PRELUDE_PREDS, SolveConfig, SolveTimeout, solve, solve_all
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
from homelog.terms import Const, Struct, Var, format_term, make_list, variant_key
from homelog.world import (
    IllegalAction,
    action_term,
    fluent_list,
    grab,
    legal,
    load_scene,
    random_scene,
    scene_to_dict,
    sit,
    state_to_facts,
    walk,
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
        ("initial_state", 1), ("transform", 2), ("transform", 4),
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
    action = walk("character1")
    assert legal(scene, action) == (True, "")
    goal = Literal(Struct("legal_action", (action_term(action), make_list(fluent_list(scene)))))
    answers, status = solve_all(domain_kb() + state_to_facts(scene), [goal])
    assert (len(answers), status) == (1, "exhausted")


def test_kb_suggests_walking_for_every_closeness_prerequisite():
    kb = domain_kb()
    triggers = set()
    for clause in kb:
        if clause.head_pred != PredId("suggest", 2):
            continue
        action = clause.head.args[0]
        assert isinstance(action, Struct) and action.functor == "walk"
        first = clause.body[0].atom
        assert first.functor == "member"
        triggers.add(first.args[0].functor)
    assert triggers == {"close", "holds", "on", "sitting_on"}


def test_kb_body_predicates_are_all_resolvable(six_scene):
    """Every predicate the KB calls is defined somewhere: in the KB, in the
    scene facts, or by the solver itself."""
    kb = domain_kb()
    facts = state_to_facts(six_scene)
    known = set(kb.index) | set(facts.index) | set(PRELUDE_PREDS) | set(BUILTIN_PREDS)
    for clause in kb:
        for lit in clause.body:
            assert lit.pred in known, f"{lit.pred} in clause for {clause.head_pred}"


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
    s = execute_plan(s, [walk("remotecontrol1")])
    assert goal_satisfied(s, task)


def test_execute_plan_empty_is_identity(six_scene):
    assert execute_plan(six_scene, []) is six_scene


def test_execute_plan_reports_failing_index(six_scene):
    with pytest.raises(IllegalAction) as e:
        execute_plan(six_scene, [grab("remotecontrol1")])
    assert e.value.index == 0
    assert "not close" in str(e.value)
    with pytest.raises(IllegalAction) as e:
        execute_plan(six_scene, [walk("couch1"), sit("couch1"), sit("couch1")])
    assert e.value.index == 2


# -- planning ---------------------------------------------------------------------------


def test_plan_minimal_walk():
    assert plan(minimal_scene(), TASK_CATALOG["walk_to_remote"]) == [walk("remotecontrol1")]


def test_plan_minimal_grab():
    assert plan(minimal_scene(), TASK_CATALOG["grab_remote"]) == [
        walk("remotecontrol1"),
        grab("remotecontrol1"),
    ]


def test_plan_already_satisfied_is_empty(six_scene):
    s = execute_plan(six_scene, [walk("remotecontrol1")])
    assert plan(s, TASK_CATALOG["walk_to_remote"]) == []


def test_plan_respects_max_plan_len(six_scene):
    options = PlanOptions(max_plan_len=1)
    assert plan(six_scene, TASK_CATALOG["grab_remote"], options) is None


def test_plan_unresolvable_task_raises():
    with pytest.raises(UnresolvableTask):
        plan(minimal_scene(), TASK_CATALOG["sit_on_couch"])


def test_plan_frozen_sequences(six_scene):
    got = plan(six_scene, TASK_CATALOG["grab_cellphone_and_sit_on_couch"])
    assert got == [walk("cellphone1"), grab("cellphone1"), walk("couch1"), sit("couch1")]
    got = plan(six_scene, TASK_CATALOG["sit_on_couch"])
    assert got == [walk("couch1"), sit("couch1")]


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
    doc = scene_to_dict(six_object_scene())
    for obj in doc["objects"]:
        if obj["id"] == "lamp1":
            obj["powered"] = lamp
    scene = load_scene(json.dumps(doc))
    task = Task("lamp_on_and_grab_remote", (("on", "lamp"), ("holds", "remotecontrol")))
    actions = plan(scene, task, PlanOptions(config=SolveConfig(step_budget=100_000)))
    assert " ".join(map(str, actions)) == want
    assert len(actions) == bfs_plan_length(scene, task)
    assert goal_satisfied(execute_plan(scene, actions), task)


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
            ("ed0e423fd5c9821aac7fca60310ec52a184c54f443b51cc1e7fce5cf09985be2", 605),
        ),
        (
            lambda: [six_object_scene(), random_scene(1, 12), random_scene(2, 40)],
            ("a6cfc4cab339492ce1b3c5fee643c2f8e8edc20dcc8600f6135bf8bc091f4850", 1819),
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
            ("e5e2a4a88ea730352ac20fb533026399bf0a6b6afb199045c04b0f8a78f5574a", 301),
        ),
        (
            lambda: [six_object_scene(), random_scene(1, 12), random_scene(2, 40)],
            ("3e2263f08f891db869f5b2820392cb4722819b1b81b1a57737a7039f8652e157", 903),
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


def test_loop_check_walks_stay_short_on_a_1000_object_scene(monkeypatch):
    """Only calls whose descent argument is not ground are keyed: the plan
    search's transform/4, whose plan skeleton is open.  The calls that walk
    a state list are exempt, so neither keys nor the ancestor frames the
    loop check compares grow with the number of fluents in a state."""
    keyed = collections.Counter()
    frames = 0
    variant_key = engine.variant_key
    seen_on_path = engine._Solver._seen_on_path

    def counted_key(atom, bindings=None):
        keyed[PredId(atom.functor, len(atom.args))] += 1
        return variant_key(atom, bindings)

    def counted_walk(self, anc, key):
        nonlocal frames
        frame = anc
        while frame is not None:
            frames += 1
            if frame[0] == key:
                break
            frame = frame[1]
        return seen_on_path(self, anc, key)

    monkeypatch.setattr(engine, "variant_key", counted_key)
    monkeypatch.setattr(engine._Solver, "_seen_on_path", counted_walk)
    scene = random_scene(7, 1000)
    lengths = [len(plan(scene, task)) for task in TASK_CATALOG.values()]
    assert lengths == [1, 2, 4, 4, 2]
    assert set(keyed) == {PredId("transform", 4)}
    assert sum(keyed.values()) <= 50
    assert frames <= 50


def test_plan_timeout_propagates():
    scene = random_scene(7, 100)
    options = PlanOptions(config=SolveConfig(wall_timeout=0.0005))
    with pytest.raises(SolveTimeout):
        plan(scene, TASK_CATALOG["grab_remote_and_shirt"], options)


def test_complete_task_rules_drive_the_same_search():
    from homelog.parser import parse_query

    program = domain_kb() + state_to_facts(minimal_scene())
    answer = next(solve(program, parse_query("?- complete_task(walk_to_remote, P).")))
    assert format_term(answer.bindings["P"]) == "[walk(remotecontrol1)]"


def test_plan_options_validate():
    with pytest.raises(ValueError):
        PlanOptions(max_plan_len=0)
    assert PlanOptions().max_plan_len == 8


def test_task_is_a_value_object():
    t = Task("demo", (("close", "tv"),))
    assert t.name == "demo"
    assert t.goal_template == (("close", "tv"),)
