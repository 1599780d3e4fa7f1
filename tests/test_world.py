"""Simulator semantics, scene documents, and the fact translation."""

import dataclasses
import json
import time
from collections import Counter

import pytest

from conftest import random_walk_actions, state_key
from homelog.parser import parse_program
from homelog.program import Clause, Literal, PredId, format_program
from homelog.scenes import minimal_scene
from homelog.terms import Const, Struct, Var, format_term
from homelog.world import (
    IllegalAction,
    SchemaError,
    action_from_term,
    action_term,
    apply_action,
    fluent_list,
    grab,
    legal,
    legal_actions,
    load_scene,
    random_scene,
    scene_to_dict,
    sit,
    standup,
    state_to_facts,
    switchoff,
    switchon,
    validate_state,
    walk,
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
    assert s.step == 0


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


def test_invalid_json_is_a_schema_error():
    with pytest.raises(SchemaError):
        load_scene("{not json")
    with pytest.raises(SchemaError):
        load_scene("[1, 2, 3]")


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
    ok, _ = legal(six_scene, walk("remotecontrol1"))
    assert ok
    s = apply_action(six_scene, walk("remotecontrol1"))
    assert s.agent.close == {"remotecontrol1"}
    assert s.agent.room == "livingroom100"
    assert s.step == 1


def test_walk_changes_room(six_scene):
    s = apply_action(six_scene, walk("shirt1"))
    assert s.agent.room == "bedroom101"
    assert s.agent.close == {"shirt1"}


def test_walk_to_a_close_object_is_illegal(six_scene):
    s = apply_action(six_scene, walk("tv1"))
    ok, reason = legal(s, walk("tv1"))
    assert not ok and "already close" in reason


def test_walk_needs_a_known_object(six_scene):
    ok, reason = legal(six_scene, walk("unicorn1"))
    assert not ok and "no object" in reason
    ok, reason = legal(six_scene, walk("livingroom100"))
    assert not ok
    ok, reason = legal(six_scene, walk("character0"))
    assert not ok


def test_grab_requires_closeness(six_scene):
    ok, reason = legal(six_scene, grab("remotecontrol1"))
    assert not ok and "not close" in reason
    s = run(six_scene, walk("remotecontrol1"), grab("remotecontrol1"))
    assert s.agent.held == {"remotecontrol1"}


def test_grab_requires_grabbable(six_scene):
    s = apply_action(six_scene, walk("couch1"))
    ok, reason = legal(s, grab("couch1"))
    assert not ok and "not grabbable" in reason


def test_grab_twice_is_illegal(six_scene):
    s = run(six_scene, walk("remotecontrol1"), grab("remotecontrol1"))
    ok, reason = legal(s, grab("remotecontrol1"))
    assert not ok and "already holding" in reason


def test_two_hands_max(six_scene):
    s = run(
        six_scene,
        walk("remotecontrol1"), grab("remotecontrol1"),
        walk("cellphone1"), grab("cellphone1"),
        walk("shirt1"),
    )
    assert s.agent.held == {"remotecontrol1", "cellphone1"}
    ok, reason = legal(s, grab("shirt1"))
    assert not ok and "hands are full" in reason


def test_held_objects_travel(six_scene):
    s = run(six_scene, walk("remotecontrol1"), grab("remotecontrol1"), walk("shirt1"))
    assert s.objects["remotecontrol1"].room == "bedroom101"
    assert s.agent.close == {"shirt1", "remotecontrol1"}
    assert s.agent.held == {"remotecontrol1"}


def test_switch_round_trip(six_scene):
    s = apply_action(six_scene, walk("lamp1"))
    ok, reason = legal(s, switchoff("lamp1"))
    assert not ok and "not on" in reason
    s = apply_action(s, switchon("lamp1"))
    assert s.objects["lamp1"].powered == "on"
    ok, reason = legal(s, switchon("lamp1"))
    assert not ok and "not off" in reason
    s = apply_action(s, switchoff("lamp1"))
    assert s.objects["lamp1"].powered == "off"


def test_switching_needs_a_switchable_target(six_scene):
    s = apply_action(six_scene, walk("shirt1"))
    ok, reason = legal(s, switchon("shirt1"))
    assert not ok and "not switchable" in reason


def test_sit_and_standup(six_scene):
    s = run(six_scene, walk("couch1"), sit("couch1"))
    assert s.agent.sitting_on == "couch1"
    ok, reason = legal(s, sit("couch1"))
    assert not ok and "already sitting" in reason
    ok, reason = legal(s, grab("couch1"))
    assert not ok
    s = apply_action(s, standup())
    assert s.agent.sitting_on is None


def test_walking_away_stands_up(six_scene):
    s = run(six_scene, walk("couch1"), sit("couch1"))
    s2 = apply_action(s, walk("lamp1"))
    assert s2.agent.sitting_on is None


def test_sitting_blocks_grab():
    # Needs something both grabbable and sittable, which no stock type is.
    text = json.dumps({
        "rooms": [{"id": "livingroom100", "type": "livingroom"}],
        "objects": [{"id": "beanbag1", "type": "beanbag", "room": "livingroom100",
                     "grabbable": True, "sittable": True}],
        "agent": {"room": "livingroom100"},
    })
    s = run(load_scene(text), walk("beanbag1"), sit("beanbag1"))
    ok, reason = legal(s, grab("beanbag1"))
    assert not ok and "while sitting" in reason
    s = apply_action(s, standup())
    assert legal(s, grab("beanbag1"))[0]


def test_standup_rules(six_scene):
    ok, reason = legal(six_scene, standup())
    assert not ok and "not sitting" in reason
    from homelog.world import Action

    ok, reason = legal(six_scene, Action("standup", "couch1"))
    assert not ok and "no target" in reason
    ok, reason = legal(six_scene, Action("dance", "couch1"))
    assert not ok and "unknown action" in reason


def test_apply_illegal_action_raises(six_scene):
    with pytest.raises(IllegalAction) as e:
        apply_action(six_scene, grab("remotecontrol1"))
    assert "not close" in str(e.value)


def test_legal_actions_in_start_state(six_scene):
    # Nothing is close yet, so the only legal moves are the six walks.
    got = legal_actions(six_scene)
    assert got == [walk(x) for x in sorted(six_scene.objects)]


def test_legal_actions_agree_with_legal(six_scene):
    state = six_scene
    for _ in range(4):
        actions = legal_actions(state)
        for a in actions:
            assert legal(state, a)[0], str(a)
        state = apply_action(state, actions[0])


# -- action terms ---------------------------------------------------------------------


def test_action_term_round_trip():
    for a in (walk("tv1"), grab("mug2"), switchon("lamp1"), switchoff("lamp1"),
              sit("couch1"), standup()):
        assert action_from_term(action_term(a)) == a
    assert format_term(action_term(walk("tv1"))) == "walk(tv1)"
    assert format_term(action_term(standup())) == "standup"
    assert str(walk("tv1")) == "walk(tv1)"


def test_action_from_term_rejects_junk():
    with pytest.raises(ValueError):
        action_from_term(Const("fly"))
    with pytest.raises(ValueError):
        action_from_term(Struct("walk", (Const("a"), Const("b"))))
    with pytest.raises(ValueError):
        action_from_term(Struct("standup", (Const("a"),)))


# -- fluents and facts ------------------------------------------------------------------


def test_fluent_list_is_sorted_and_duplicate_free(six_scene):
    s = run(six_scene, walk("remotecontrol1"), grab("remotecontrol1"),
            walk("couch1"), sit("couch1"))
    texts = [format_term(t) for t in fluent_list(s)]
    assert texts == sorted(texts)
    assert len(texts) == len(set(texts))
    assert "close(couch1)" in texts
    assert "close(remotecontrol1)" in texts  # held implies close after the walk
    assert "holds(remotecontrol1)" in texts
    assert "sitting_on(couch1)" in texts
    assert "on(tv1)" in texts


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
    s = run(six_scene, walk("remotecontrol1"), grab("remotecontrol1"), switchon("remotecontrol1"))
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
    s = run(s, walk(remote), grab(remote))
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
            with pytest.raises(IllegalAction):
                apply_action(state, action)
