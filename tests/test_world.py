"""Simulator semantics, scene documents, and the fact translation."""

import dataclasses
import hashlib
import json
import time
from collections import Counter

import pytest

from conftest import random_walk_actions, state_key
from scenes import minimal_scene
from homelog.parser import parse_program
from homelog.planner import TASK_CATALOG, UnresolvableTask, encode_goal_fluents
from homelog.program import Clause, Literal, PredId, format_program
from homelog.terms import Const, Struct, Var, format_term, make_list
from homelog.world import (
    ACTION_NAMES,
    Action,
    IllegalAction,
    ObjectInfo,
    SchemaError,
    WorldState,
    action_from_term,
    action_term,
    apply_action,
    fluent_list,
    legal,
    legal_actions,
    load_scene,
    random_scene,
    scene_to_dict,
    state_to_facts,
    validate_state,
)


def run(state, *actions):
    for a in actions:
        state = apply_action(state, a)
    return state


# -- scene documents ----------------------------------------------------------------


def test_minimal_scene_contents():
    s = minimal_scene()
    assert s.rooms == {"livingroom100": "livingroom"}
    assert set(s.objects) == {"remotecontrol1"}
    remote = s.objects["remotecontrol1"]
    assert (remote.grabbable, remote.sittable, remote.switchable) == (True, False, True)
    assert remote.powered == "off"
    assert s.agent.room == "livingroom100"
    assert s.agent.close == frozenset()
    assert s.agent.held == frozenset()
    assert s.agent.sitting_on is None


def test_six_object_scene_contents(six_scene):
    assert set(six_scene.rooms) == {"livingroom100", "bedroom101"}
    assert set(six_scene.objects) == {
        "remotecontrol1", "shirt1", "cellphone1", "couch1", "tv1", "lamp1",
    }
    assert six_scene.objects["shirt1"].room == "bedroom101"
    assert six_scene.objects["tv1"].powered == "on"
    assert six_scene.objects["couch1"].sittable
    assert not six_scene.objects["couch1"].grabbable


def test_type_table_fills_in_flags():
    text = json.dumps({
        "rooms": [{"id": "kitchen100", "type": "kitchen"}],
        "objects": [{"id": "mug1", "type": "mug", "room": "kitchen100"}],
        "agent": {"room": "kitchen100"},
    })
    s = load_scene(text)
    mug = s.objects["mug1"]
    assert (mug.grabbable, mug.sittable, mug.switchable) == (True, False, False)
    assert mug.powered == "none"


def test_explicit_flags_override_the_type_table():
    text = json.dumps({
        "rooms": [{"id": "kitchen100", "type": "kitchen"}],
        "objects": [{"id": "mug1", "type": "mug", "room": "kitchen100",
                     "grabbable": False, "switchable": True, "powered": "on"}],
        "agent": {"room": "kitchen100"},
    })
    mug = load_scene(text).objects["mug1"]
    assert not mug.grabbable
    assert mug.switchable and mug.powered == "on"


def test_scene_round_trips_through_dict(six_scene):
    again = load_scene(json.dumps(scene_to_dict(six_scene)))
    assert state_key(again) == state_key(six_scene)


def test_every_walked_state_round_trips_through_a_scene_document():
    # Seated states included: the agent's sitting_on is written when set.
    seated = 0
    for start, state, action in random_walk_actions(1000, seed=25):
        states = [start, state]
        if legal(state, action)[0]:
            states.append(apply_action(state, action))
        for s in states:
            doc = scene_to_dict(s)
            assert ("sitting_on" in doc["agent"]) == (s.agent.sitting_on is not None)
            assert load_scene(json.dumps(doc)) == s
            seated += s.agent.sitting_on is not None
    assert seated


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(weather="sunny"), "unknown top-level key"),
        (lambda d: d.pop("agent"), "missing top-level key"),
        (lambda d: d["rooms"].append({"id": "livingroom100", "type": "livingroom"}),
         "duplicate room id"),
        (lambda d: d["objects"].append({"id": "tv1", "type": "tv", "room": "livingroom100"}),
         "duplicate id"),
        (lambda d: d["objects"].append({"id": "ghost1", "type": "vase", "room": "attic9"}),
         "unknown room"),
        (lambda d: d["objects"].append({"id": "vase1", "type": "vase",
                                        "room": "livingroom100", "color": "blue"}),
         "unknown object keys"),
        (lambda d: d["objects"].append({"id": "vase1", "type": "vase"}),
         "missing field"),
        (lambda d: d["objects"].append({"id": "vase1", "type": "vase",
                                        "room": "livingroom100", "powered": "on"}),
         "not switchable"),
        (lambda d: d["objects"].append({"id": "fan1", "type": "fan", "room": "livingroom100",
                                        "switchable": True, "powered": "none"}),
         "no power state"),
        (lambda d: d["agent"].update(close=["unicorn1"]), "unknown object"),
        (lambda d: d["agent"].update(held=["tv1"]), "held objects must be close"),
        (lambda d: d["agent"].update(room="attic9"), "not a room"),
        (lambda d: d["objects"].append({"id": "vase1", "type": "vase", "room": ["livingroom100"]}),
         "object room must be a lowercase identifier"),
        (lambda d: d["agent"].update(room={"id": "livingroom100"}),
         "agent room must be a lowercase identifier"),
        (lambda d: d.update(rooms=[]), "a scene needs at least one room"),
        (lambda d: d.update(rooms="r1"), "rooms must be a list of objects"),
        (lambda d: d.update(agent=[]), "agent entry must be an object"),
        (lambda d: d["objects"][0].update(powered="dim"), "cellphone1.powered must be on/off/none"),
        (lambda d: d["objects"][0].update(grabbable="yes"), "cellphone1.grabbable must be a boolean"),
        (lambda d: d["agent"].update(close="couch1"), "agent.close must be a list of ids"),
        (lambda d: d["agent"].update(close=["shirt1"]), "close object shirt1 is in another room"),
        (lambda d: d["agent"].update(close=["couch1"], held=["couch1"]),
         "held object couch1 is not grabbable"),
        (lambda d: d["agent"].update(sitting_on="couch1"), "sitting on something out of reach"),
        (lambda d: d["agent"].update(close=["tv1"], sitting_on="tv1"), "cannot be sitting on tv1"),
        (lambda d: d["agent"].update(sitting_on=["couch1"]),
         "agent.sitting_on must be a lowercase identifier"),
    ],
)
def test_bad_scenes_are_rejected(six_scene, mutate, message):
    doc = scene_to_dict(six_scene)
    mutate(doc)
    with pytest.raises(SchemaError) as e:
        load_scene(json.dumps(doc))
    assert message in str(e.value)


@pytest.mark.parametrize(
    "obj_id, powered, message",
    [
        ("tv1", "none", "tv1 is switchable but has no power state"),
        ("remotecontrol1", "dim", "remotecontrol1 is switchable but has no power state"),
        ("shirt1", "on", "shirt1 is not switchable but has a power state"),
        ("couch1", "off", "couch1 is not switchable but has a power state"),
    ],
)
def test_validate_state_checks_power_on_states_built_in_code(six_scene, obj_id, powered, message):
    objects = dict(six_scene.objects)
    objects[obj_id] = dataclasses.replace(objects[obj_id], powered=powered)
    with pytest.raises(SchemaError) as e:
        validate_state(dataclasses.replace(six_scene, objects=objects))
    assert str(e.value) == message


@pytest.mark.parametrize(
    "close, sitting_on, message",
    [(["tv1"], "tv1", "cannot be sitting on tv1"), ([], "couch1", "sitting on something out of reach")],
    ids=["not_sittable", "out_of_reach"],
)
def test_validate_state_checks_what_the_agent_sits_on(six_scene, close, sitting_on, message):
    agent = dataclasses.replace(six_scene.agent, close=frozenset(close), sitting_on=sitting_on)
    with pytest.raises(SchemaError) as e:
        validate_state(dataclasses.replace(six_scene, agent=agent))
    assert str(e.value) == message


def test_invalid_json_is_a_schema_error():
    with pytest.raises(SchemaError):
        load_scene("{not json")
    with pytest.raises(SchemaError):
        load_scene("[1, 2, 3]")


@pytest.mark.parametrize("depth", [1_100, 100_000])
def test_a_scene_nested_past_the_decoder_limit_is_a_schema_error(depth):
    with pytest.raises(SchemaError):
        load_scene('{"rooms": ' + "[" * depth + "]" * depth + ', "objects": [], "agent": {}}')


def test_held_must_fit_in_two_hands():
    doc = {
        "rooms": [{"id": "office100", "type": "office"}],
        "objects": [
            {"id": f"book{i}", "type": "book", "room": "office100"} for i in (1, 2, 3)
        ],
        "agent": {"room": "office100", "close": ["book1", "book2", "book3"],
                  "held": ["book1", "book2", "book3"]},
    }
    with pytest.raises(SchemaError) as e:
        load_scene(json.dumps(doc))
    assert "two hands" in str(e.value)


# -- action legality and effects ------------------------------------------------------


def test_walk_establishes_closeness(six_scene):
    ok, _ = legal(six_scene, Action("walk", "remotecontrol1"))
    assert ok
    s = apply_action(six_scene, Action("walk", "remotecontrol1"))
    assert s.agent.close == {"remotecontrol1"}
    assert s.agent.room == "livingroom100"


def test_walk_changes_room(six_scene):
    s = apply_action(six_scene, Action("walk", "shirt1"))
    assert s.agent.room == "bedroom101"
    assert s.agent.close == {"shirt1"}


def test_walk_to_a_close_object_is_illegal(six_scene):
    s = apply_action(six_scene, Action("walk", "tv1"))
    ok, reason = legal(s, Action("walk", "tv1"))
    assert not ok and "already close" in reason


def test_walk_needs_a_known_object(six_scene):
    ok, reason = legal(six_scene, Action("walk", "unicorn1"))
    assert not ok and "no object" in reason
    ok, reason = legal(six_scene, Action("walk", "livingroom100"))
    assert not ok
    ok, reason = legal(six_scene, Action("walk", "character0"))
    assert not ok


def test_grab_requires_closeness(six_scene):
    ok, reason = legal(six_scene, Action("grab", "remotecontrol1"))
    assert not ok and "not close" in reason
    s = run(six_scene, Action("walk", "remotecontrol1"), Action("grab", "remotecontrol1"))
    assert s.agent.held == {"remotecontrol1"}


def test_grab_requires_grabbable(six_scene):
    s = apply_action(six_scene, Action("walk", "couch1"))
    ok, reason = legal(s, Action("grab", "couch1"))
    assert not ok and "not grabbable" in reason


def test_grab_twice_is_illegal(six_scene):
    s = run(six_scene, Action("walk", "remotecontrol1"), Action("grab", "remotecontrol1"))
    ok, reason = legal(s, Action("grab", "remotecontrol1"))
    assert not ok and "already holding" in reason


def test_two_hands_max(six_scene):
    s = run(
        six_scene,
        Action("walk", "remotecontrol1"), Action("grab", "remotecontrol1"),
        Action("walk", "cellphone1"), Action("grab", "cellphone1"),
        Action("walk", "shirt1"),
    )
    assert s.agent.held == {"remotecontrol1", "cellphone1"}
    ok, reason = legal(s, Action("grab", "shirt1"))
    assert not ok and "hands are full" in reason


def test_held_objects_travel(six_scene):
    s = run(six_scene, Action("walk", "remotecontrol1"), Action("grab", "remotecontrol1"),
            Action("walk", "shirt1"))
    assert s.objects["remotecontrol1"].room == "bedroom101"
    assert s.agent.close == {"shirt1", "remotecontrol1"}
    assert s.agent.held == {"remotecontrol1"}


def test_switch_round_trip(six_scene):
    s = apply_action(six_scene, Action("walk", "lamp1"))
    ok, reason = legal(s, Action("switchoff", "lamp1"))
    assert not ok and "not on" in reason
    s = apply_action(s, Action("switchon", "lamp1"))
    assert s.objects["lamp1"].powered == "on"
    ok, reason = legal(s, Action("switchon", "lamp1"))
    assert not ok and "not off" in reason
    s = apply_action(s, Action("switchoff", "lamp1"))
    assert s.objects["lamp1"].powered == "off"


def test_switching_needs_a_switchable_target(six_scene):
    s = apply_action(six_scene, Action("walk", "shirt1"))
    ok, reason = legal(s, Action("switchon", "shirt1"))
    assert not ok and "not switchable" in reason


def test_sit_and_standup(six_scene):
    s = run(six_scene, Action("walk", "couch1"), Action("sit", "couch1"))
    assert s.agent.sitting_on == "couch1"
    ok, reason = legal(s, Action("sit", "couch1"))
    assert not ok and "already sitting" in reason
    ok, reason = legal(s, Action("grab", "couch1"))
    assert not ok
    s = apply_action(s, Action("standup"))
    assert s.agent.sitting_on is None


def test_walking_away_stands_up(six_scene):
    s = run(six_scene, Action("walk", "couch1"), Action("sit", "couch1"))
    s2 = apply_action(s, Action("walk", "lamp1"))
    assert s2.agent.sitting_on is None


def test_sitting_blocks_grab():
    # Needs something both grabbable and sittable, which no stock type is.
    text = json.dumps({
        "rooms": [{"id": "livingroom100", "type": "livingroom"}],
        "objects": [{"id": "beanbag1", "type": "beanbag", "room": "livingroom100",
                     "grabbable": True, "sittable": True}],
        "agent": {"room": "livingroom100"},
    })
    s = run(load_scene(text), Action("walk", "beanbag1"), Action("sit", "beanbag1"))
    ok, reason = legal(s, Action("grab", "beanbag1"))
    assert not ok and "while sitting" in reason
    s = apply_action(s, Action("standup"))
    assert legal(s, Action("grab", "beanbag1"))[0]


def test_standup_rules(six_scene):
    ok, reason = legal(six_scene, Action("standup"))
    assert not ok and "not sitting" in reason
    ok, reason = legal(six_scene, Action("standup", "couch1"))
    assert not ok and "no target" in reason
    ok, reason = legal(six_scene, Action("dance", "couch1"))
    assert not ok and "unknown action" in reason


def test_apply_illegal_action_raises(six_scene):
    with pytest.raises(IllegalAction) as e:
        apply_action(six_scene, Action("grab", "remotecontrol1"))
    assert "not close" in str(e.value)


def test_legal_actions_in_start_state(six_scene):
    # Nothing is close yet, so the only legal moves are the six walks.
    got = legal_actions(six_scene)
    assert got == [Action("walk", x) for x in sorted(six_scene.objects)]


def test_legal_actions_agree_with_legal(six_scene):
    state = six_scene
    for _ in range(4):
        actions = legal_actions(state)
        for a in actions:
            assert legal(state, a)[0], str(a)
        state = apply_action(state, actions[0])


# -- action terms ---------------------------------------------------------------------


def test_action_term_round_trip():
    for a in (Action("walk", "tv1"), Action("grab", "mug2"), Action("switchon", "lamp1"),
              Action("switchoff", "lamp1"), Action("sit", "couch1"), Action("standup")):
        assert action_from_term(action_term(a)) == a
    assert format_term(action_term(Action("walk", "tv1"))) == "walk(tv1)"
    assert format_term(action_term(Action("standup"))) == "standup"
    assert str(Action("walk", "tv1")) == "walk(tv1)"


def test_action_from_term_rejects_junk():
    with pytest.raises(ValueError):
        action_from_term(Const("fly"))
    with pytest.raises(ValueError):
        action_from_term(Struct("walk", (Const("a"), Const("b"))))
    with pytest.raises(ValueError):
        action_from_term(Struct("standup", (Const("a"),)))


# -- fluents and facts ------------------------------------------------------------------


def test_fluent_list_is_sorted_and_duplicate_free(six_scene):
    s = run(six_scene, Action("walk", "remotecontrol1"), Action("grab", "remotecontrol1"),
            Action("walk", "couch1"), Action("sit", "couch1"))
    texts = [format_term(t) for t in fluent_list(s)]
    assert "close(couch1)" in texts
    assert "close(remotecontrol1)" in texts  # held implies close after the walk
    assert "holds(remotecontrol1)" in texts
    assert "sitting_on(couch1)" in texts
    assert "on(tv1)" in texts
    # Over random walks too, where the agent is close to several objects,
    # holds two or sits: state_to_facts splits fluent_list, the on/1
    # fluents into starts_on/1 and the rest into close_to_character/1.
    states = [s] + [state for _, state, _ in random_walk_actions(1000, seed=29)]
    assert sum(len(state.agent.close) > 1 for state in states) >= 20
    for state in states:
        fluents = fluent_list(state)
        texts = [format_term(t) for t in fluents]
        assert texts == sorted(texts)
        assert len(texts) == len(set(texts))
        facts = state_to_facts(state)
        [start] = [c.head.args[0] for c in facts if c.head_pred == PredId("close_to_character", 1)]
        assert start == make_list([f for f in fluents if f.functor != "on"])
        starts_on = [c.head.args for c in facts if c.head_pred == PredId("starts_on", 1)]
        assert starts_on == [f.args for f in fluents if f.functor == "on"]


def test_state_to_facts_contents(six_scene):
    program = state_to_facts(six_scene)
    text = format_program(program)
    assert "type(remotecontrol1, remotecontrol)." in text
    # no plan reads the rooms' types or the agent's own facts
    assert "type(livingroom100, livingroom)." not in text
    assert "type(character0, character)." not in text
    # devices are switchable whether on or off; one that is on starts on,
    # and the start state's fluent list records no power
    for device in ("cellphone1", "lamp1", "remotecontrol1", "tv1"):
        assert f"switchable({device})." in text
    assert "switchable(shirt1)." not in text
    assert "grabbable(shirt1)." in text
    assert "sittable(couch1)." in text
    assert [c for c in program if c.head_pred == PredId("starts_on", 1)] == [
        Clause(Struct("starts_on", (Const("tv1"),)))
    ]
    assert "close_to_character([])." in text
    assert {c.head_pred for c in program} == {
        PredId("type", 2), PredId("switchable", 1), PredId("grabbable", 1),
        PredId("sittable", 1), PredId("starts_on", 1), PredId("close_to_character", 1),
    }


def test_state_to_facts_tracks_the_current_fluents(six_scene):
    s = run(six_scene, Action("walk", "remotecontrol1"), Action("grab", "remotecontrol1"),
            Action("switchon", "remotecontrol1"))
    text = format_program(state_to_facts(s))
    assert "close_to_character([close(remotecontrol1), holds(remotecontrol1)])." in text
    assert "starts_on(remotecontrol1).\nstarts_on(tv1)." in text


def test_state_to_facts_round_trips_through_the_parser(six_scene):
    program = state_to_facts(six_scene)
    again = parse_program(format_program(program))
    assert list(again.clauses) == list(program.clauses)


@pytest.mark.parametrize("seed, n_objects", [(1, 6), (2, 17), (3, 40), (4, 100), (5, 400)])
def test_state_to_facts_builds_the_clauses_the_constructor_builds(seed, n_objects):
    s = random_scene(seed, n_objects)
    remote = min(i for i, o in s.objects.items() if o.type == "remotecontrol")
    s = run(s, Action("walk", remote), Action("grab", remote))
    facts = state_to_facts(s)
    assert len(facts) > n_objects
    for fact in facts:
        want = Clause(Struct(fact.head.functor, fact.head.args))
        assert fact == want
        assert fact.head_pred == want.head_pred
        assert fact.code == want.code
        assert fact.is_fact and fact.head.ground


def test_state_to_facts_shares_one_const_per_name():
    facts = state_to_facts(random_scene(6, 100))
    by_value = {}
    for fact in facts:
        for arg in fact.head.args:
            if type(arg) is Const:
                assert by_value.setdefault(arg.value, arg) is arg


STATIC_PREDS = {PredId("type", 2), PredId("switchable", 1), PredId("grabbable", 1), PredId("sittable", 1)}


def test_successors_share_the_scene_layouts_clauses(six_scene):
    # No plan builds a per-object clause: the static facts are the start
    # state's own objects on every call and in every successor, through a
    # walk while holding an item, a switch, a sit and a standup.
    first = state_to_facts(six_scene)
    static = [c for c in first if c.head_pred in STATIC_PREDS]
    assert len(static) == 6 + 4 + 3 + 1
    states = [six_scene]
    for a in (Action("walk", "remotecontrol1"), Action("grab", "remotecontrol1"),
              Action("switchon", "remotecontrol1"), Action("walk", "couch1"),
              Action("sit", "couch1"), Action("standup")):
        states.append(apply_action(states[-1], a))
    assert states[4].objects is not six_scene.objects  # the held walk made new objects
    for state in states:
        facts = state_to_facts(state)
        assert [c for c in facts if c.head_pred in STATIC_PREDS] == static
        assert all(a is b for a, b in zip(facts, static))
        fresh = facts.clauses[len(static):]
        assert {c.head_pred for c in fresh} <= {PredId("starts_on", 1), PredId("close_to_character", 1)}
        assert not any(c is d for c in fresh for d in first)
    assert "starts_on(remotecontrol1)." in format_program(state_to_facts(states[3]))


def test_a_replaced_state_gets_a_layout_of_its_own_objects(six_scene):
    state_to_facts(six_scene)  # the layout is built
    objects = dict(six_scene.objects)
    objects["couch1"] = dataclasses.replace(objects["couch1"], type="chair")
    objects["shirt1"] = dataclasses.replace(objects["shirt1"], grabbable=False)
    changed = dataclasses.replace(six_scene, objects=objects)
    text = format_program(state_to_facts(changed))
    assert "type(couch1, chair)." in text and "type(couch1, couch)." not in text
    assert "grabbable(shirt1)." not in text and "grabbable(cellphone1)." in text
    assert encode_goal_fluents(TASK_CATALOG["grab_remote_and_shirt"], changed) == [
        Struct("holds", (Const("remotecontrol1"),)), Struct("holds", (Const("shirt1"),))
    ]
    with pytest.raises(UnresolvableTask, match="couch"):
        encode_goal_fluents(TASK_CATALOG["sit_on_couch"], changed)
    assert encode_goal_fluents(TASK_CATALOG["sit_on_couch"], six_scene) == [
        Struct("sitting_on", (Const("couch1"),))
    ]
    # A hand-built state reads its own objects too; the layout takes no
    # part in equality or repr.
    built = WorldState(six_scene.rooms, {**six_scene.objects, "vase1": ObjectInfo("vase", "livingroom100")},
                       six_scene.agent)
    assert "type(vase1, vase)." in format_program(state_to_facts(built))
    assert dataclasses.replace(six_scene) == six_scene != changed
    assert WorldState(six_scene.rooms, dict(six_scene.objects), six_scene.agent) == six_scene
    assert repr(six_scene) == (
        f"WorldState(rooms={six_scene.rooms!r}, objects={six_scene.objects!r}, agent={six_scene.agent!r})"
    )


@pytest.mark.parametrize("functor", ["=", "\\="])
def test_a_fact_cannot_define_a_builtin(functor):
    with pytest.raises(ValueError, match="builtin"):
        Clause(Struct(functor, (Const("a"), Const("b"))))


def test_clauses_keep_one_predicate_per_arity():
    a, b = Clause(Struct("p", (Const("a"),))), Clause(Struct("p", (Const("a"), Const("b"))))
    assert (a.head_pred, b.head_pred) == (PredId("p", 1), PredId("p", 2))


def test_a_clause_is_a_value_of_its_head_and_body():
    head = Struct("p", (Var("X"),))
    body = (Literal(Struct("q", (Var("X"),))),)
    a, b = Clause(head, body), Clause(Struct("p", (Var("X"),)), (Literal(Struct("q", (Var("X"),))),))
    assert a is not b and a == b and hash(a) == hash(b)
    # The derived fields take no part in equality or hashing.
    b.code = ()
    b.head_pred = PredId("other", 9)
    assert a == b and hash(a) == hash(b)
    assert a != Clause(head) and a != Clause(Struct("p", (Var("Y"),)), body)
    assert a.__eq__(head) is NotImplemented
    assert len({a, b, Clause(head), Clause(Struct("p", (Var("X"),)))}) == 2
    assert repr(Clause(head)) == "Clause(head=Struct(p/1), body=())"
    assert repr(a) == f"Clause(head=Struct(p/1), body={body!r})"


# -- random scenes ------------------------------------------------------------------------


def test_random_scene_is_deterministic():
    a = random_scene(7, 40)
    b = random_scene(7, 40)
    assert state_key(a) == state_key(b)
    c = random_scene(8, 40)
    assert state_key(a) != state_key(c)


def test_random_scene_counts_and_task_objects():
    s = random_scene(3, 25)
    assert len(s.objects) == 25
    validate_state(s)
    for task_type in ("remotecontrol", "shirt", "cellphone", "couch"):
        assert sum(1 for o in s.objects.values() if o.type == task_type) == 1


def test_small_random_scene_may_lack_task_objects():
    s = random_scene(5, 2)
    assert len(s.objects) == 2
    validate_state(s)


def test_random_scene_rejects_zero_objects():
    with pytest.raises(ValueError):
        random_scene(1, 0)


def test_large_scene_translates_quickly():
    s = random_scene(1, 500)
    t0 = time.perf_counter()
    program = state_to_facts(s)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert all(c.is_fact for c in program)
    assert Counter(c.head_pred for c in program) == {
        PredId("type", 2): 500,
        PredId("switchable", 1): 130,
        PredId("grabbable", 1): 214,
        PredId("sittable", 1): 93,
        PredId("starts_on", 1): 69,
        PredId("close_to_character", 1): 1,
    }


def test_random_walks_preserve_state_invariants():
    import random as _random

    rng = _random.Random(99)
    for seed in range(5):
        state = random_scene(seed, 8)
        for _ in range(12):
            actions = legal_actions(state)
            if not actions:
                break
            state = apply_action(state, rng.choice(actions))
            validate_state(state)


def test_sampled_actions_apply_iff_legal():
    for _, state, action in random_walk_actions(120, seed=4):
        ok, reason = legal(state, action)
        if ok:
            validate_state(apply_action(state, action))
        else:
            assert reason
            with pytest.raises(IllegalAction) as e:
                apply_action(state, action)
            assert str(e.value) == reason


def _transition_row(state, action):
    ok, reason = legal(state, action)
    try:
        after = apply_action(state, action)
    except IllegalAction as e:
        outcome = str(e)
    else:
        outcome = [scene_to_dict(after), after.agent.sitting_on]
    return [str(action), ok, reason, outcome]


def test_transition_digest_is_pinned():
    # Verdict, reason and successor (or IllegalAction text) of sampled
    # pairs, plus every action name (and an unknown one) against no
    # target, unknown ids, a room and every object in every 25th state.
    rows = []
    for i, (_, state, action) in enumerate(random_walk_actions(1000, seed=25)):
        rows.append(_transition_row(state, action))
        if i % 25 == 0:
            targets = [None, "ghost9", "character0", sorted(state.rooms)[0], *sorted(state.objects)]
            for name in (*ACTION_NAMES, "dance"):
                rows += [_transition_row(state, Action(name, t)) for t in targets]
    text = json.dumps(rows, sort_keys=True)
    assert len(rows) == 3821
    assert hashlib.sha256(text.encode()).hexdigest() == "4c7ad23fee6875ec8fea8efbd8760e773b6324d7d7ba635ebc25438bab3e27c2"
