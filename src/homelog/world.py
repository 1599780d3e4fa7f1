"""Discrete household world: rooms, objects and a single agent.

The simulator is deliberately small: six action kinds (walk, grab,
switchon, switchoff, sit, standup) over objects with four boolean-ish
properties.  States are values; applying an action returns a new state.
The same state can be rendered as logic-program facts so that the native
rules here and the planning knowledge base stay checkable against each
other.  No action changes an object's id, type or flags, so a scene's
static facts are built once, on first use, and every successor state
shares them (see `SceneLayout`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

from .program import Clause, Program
from .terms import Const, Struct, Term, format_term, make_list

__all__ = [
    "AGENT_ID",
    "SchemaError",
    "IllegalAction",
    "ObjectInfo",
    "AgentState",
    "SceneLayout",
    "WorldState",
    "Action",
    "action_term",
    "action_from_term",
    "legal",
    "apply_action",
    "legal_actions",
    "fluent_list",
    "state_to_facts",
    "load_scene",
    "scene_to_dict",
    "random_scene",
    "validate_state",
]


class SchemaError(Exception):
    """A scene document is malformed or internally inconsistent."""


class IllegalAction(Exception):
    """An action was applied in a state where it is not legal."""

    def __init__(self, reason: str, index: Optional[int] = None):
        self.reason = reason
        self.index = index
        super().__init__(f"step {index}: {reason}" if index is not None else reason)


AGENT_ID = "character0"

ROOM_TYPES: Tuple[str, ...] = ("livingroom", "kitchen", "bedroom", "bathroom", "office")

# type -> (grabbable, sittable, switchable)
OBJECT_TYPES: Dict[str, Tuple[bool, bool, bool]] = {
    "remotecontrol": (True, False, True),
    "shirt": (True, False, False),
    "cellphone": (True, False, True),
    "couch": (False, True, False),
    "tv": (False, False, True),
    "lamp": (False, False, True),
    "radio": (False, False, True),
    "book": (True, False, False),
    "mug": (True, False, False),
    "pillow": (True, False, False),
    "plate": (True, False, False),
    "towel": (True, False, False),
    "chair": (False, True, False),
    "armchair": (False, True, False),
    "plant": (False, False, False),
    "vase": (False, False, False),
}

# Types the planning task catalog refers to; random scenes with at least
# six objects contain exactly one object of each.
TASK_OBJECT_TYPES: Tuple[str, ...] = ("remotecontrol", "shirt", "cellphone", "couch")
FILLER_TYPES: Tuple[str, ...] = tuple(t for t in OBJECT_TYPES if t not in TASK_OBJECT_TYPES)


@dataclass(frozen=True, slots=True)
class ObjectInfo:
    type: str
    room: str
    grabbable: bool = False
    sittable: bool = False
    switchable: bool = False
    powered: str = "none"  # "on" | "off" | "none"


@dataclass(frozen=True, slots=True)
class AgentState:
    room: str
    close: FrozenSet[str] = frozenset()
    held: FrozenSet[str] = frozenset()
    sitting_on: Optional[str] = None


@dataclass(frozen=True, slots=True)
class SceneLayout:
    """What no action changes: the type/2, switchable/1, grabbable/1 and
    sittable/1 facts, each type's first id and the switchable ids in id
    order, all as the facts' own `Const`s, one per name."""

    facts: Program
    first_of_type: Dict[str, Const]
    switchable: Tuple[Const, ...]

    @staticmethod
    def of(objects: Dict[str, ObjectInfo]) -> "SceneLayout":
        consts = {v: Const(v) for v in {*objects, *(o.type for o in objects.values())}}
        objs = [(consts[obj_id], objects[obj_id]) for obj_id in sorted(objects)]
        first_of_type: Dict[str, Const] = {}
        for i, o in objs:
            first_of_type.setdefault(o.type, i)
        facts = [Clause(Struct("type", (i, consts[o.type]))) for i, o in objs]
        facts += [Clause(Struct("switchable", (i,))) for i, o in objs if o.switchable]
        facts += [Clause(Struct("grabbable", (i,))) for i, o in objs if o.grabbable]
        facts += [Clause(Struct("sittable", (i,))) for i, o in objs if o.sittable]
        return SceneLayout(Program(facts), first_of_type, tuple(i for i, o in objs if o.switchable))


@dataclass(frozen=True)
class WorldState:
    rooms: Dict[str, str]  # room id -> room type
    objects: Dict[str, ObjectInfo]
    agent: AgentState

    # Built on first use; not a field, so `==`, `repr` and `replace` skip it. `_next` hands it on.
    @cached_property
    def layout(self) -> SceneLayout:
        return SceneLayout.of(self.objects)


@dataclass(frozen=True, slots=True)
class Action:
    name: str
    target: Optional[str] = None

    def __str__(self) -> str:
        return self.name if self.target is None else f"{self.name}({self.target})"


ACTION_NAMES = ("walk", "grab", "switchon", "switchoff", "sit", "standup")


def action_term(action: Action) -> Term:
    """Logic-term form of an action: walk(x) ... or the standup constant."""
    if action.target is None:
        return Const(action.name)
    return Struct(action.name, (Const(action.target),))


def action_from_term(t: Term) -> Action:
    if isinstance(t, Const) and t.value == "standup":
        return Action("standup")
    if (
        isinstance(t, Struct)
        and t.functor in ACTION_NAMES
        and t.functor != "standup"
        and len(t.args) == 1
        and isinstance(t.args[0], Const)
        and isinstance(t.args[0].value, str)
    ):
        return Action(t.functor, t.args[0].value)
    raise ValueError(f"not an action term: {format_term(t)}")


# -- legality and effects ------------------------------------------------------


def _next(state: WorldState, objects: Dict[str, ObjectInfo], agent: AgentState) -> WorldState:
    """The successor; it keeps the layout, as no action changes an object's id, type or flags."""
    after = WorldState(state.rooms, objects, agent)
    if "layout" in state.__dict__:
        after.__dict__["layout"] = state.layout
    return after


def _successor(state: WorldState, action: Action) -> Tuple[Optional[WorldState], str]:
    """The action's precondition and effect in one place: the successor
    state, or None and the reason the action may not run."""
    name, target = action.name, action.target
    agent, objects = state.agent, state.objects
    if name not in ACTION_NAMES:
        return None, f"unknown action {name}"
    if name == "standup":
        if target is not None:
            return None, "standup takes no target"
        if agent.sitting_on is None:
            return None, "not sitting"
        return _next(state, objects, replace(agent, sitting_on=None)), ""
    if target is None:
        return None, f"{name} needs a target"
    obj = objects.get(target)
    if obj is None:
        return None, f"no object named {target}"
    if name == "walk":
        if target in agent.close:
            return None, f"already close to {target}"
        # held objects travel with the agent
        if agent.held:
            objects = {**objects, **{i: replace(objects[i], room=obj.room) for i in agent.held}}
        agent = AgentState(obj.room, frozenset({target}) | agent.held, agent.held)
        return _next(state, objects, agent), ""
    if target not in agent.close:
        return None, f"not close to {target}"
    if name == "grab":
        if not obj.grabbable:
            return None, f"{target} is not grabbable"
        if target in agent.held:
            return None, f"already holding {target}"
        if len(agent.held) >= 2:
            return None, "both hands are full"
        if agent.sitting_on is not None:
            return None, "cannot grab while sitting"
        agent = replace(agent, held=agent.held | {target})
    elif name == "sit":
        if not obj.sittable:
            return None, f"cannot sit on {target}"
        if agent.sitting_on is not None:
            return None, "already sitting"
        agent = replace(agent, sitting_on=target)
    else:  # switchon or switchoff: from one power state to the other
        before, after = ("off", "on") if name == "switchon" else ("on", "off")
        if not obj.switchable:
            return None, f"{target} is not switchable"
        if obj.powered != before:
            return None, f"{target} is not {before}"
        objects = {**objects, target: replace(obj, powered=after)}
    return _next(state, objects, agent), ""


def legal(state: WorldState, action: Action) -> Tuple[bool, str]:
    """Whether the action may run in the state, with a reason when not."""
    after, reason = _successor(state, action)
    return after is not None, reason


def apply_action(state: WorldState, action: Action) -> WorldState:
    """Successor state, or IllegalAction explaining why there is none."""
    after, reason = _successor(state, action)
    if after is None:
        raise IllegalAction(reason)
    return after


def legal_actions(state: WorldState) -> List[Action]:
    """Every action legal in the state (used by search oracles and fuzzing)."""
    out: List[Action] = []
    for obj_id in sorted(state.objects):
        for name in ACTION_NAMES[:-1]:  # all but standup, which takes no target
            a = Action(name, obj_id)
            if legal(state, a)[0]:
                out.append(a)
    if legal(state, Action("standup"))[0]:
        out.append(Action("standup"))
    return out


# -- logic-program view --------------------------------------------------------


def fluent_list(state: WorldState) -> List[Term]:
    """Current fluents in canonical order, no duplicates: close/1 and
    holds/1 over sorted ids, on/1 for each device that is on in the
    layout's id order, then sitting_on/1.  That is the text order of
    their `format_term` forms, the order `insert_sorted/3` keeps, with no
    text sort: the functors sort in that order, ids are identifiers, and
    `)` sorts below every identifier character, so `close(a)` comes
    before `close(ab)` as `a` comes before `ab`."""
    agent, objects = state.agent, state.objects
    fluents: List[Term] = [Struct("close", (Const(x),)) for x in sorted(agent.close)]
    fluents += [Struct("holds", (Const(x),)) for x in sorted(agent.held)]
    fluents += [Struct("on", (i,)) for i in state.layout.switchable if objects[i.value].powered == "on"]
    if agent.sitting_on is not None:
        fluents.append(Struct("sitting_on", (Const(agent.sitting_on),)))
    return fluents


def state_to_facts(state: WorldState) -> Program:
    """The state as the facts the planning knowledge base reads: each
    object's type/2, the switchable/1, grabbable/1 and sittable/1 flags,
    starts_on/1 for each device that is on, and one close_to_character/1
    fact holding the rest of `fluent_list` (close/1, holds/1,
    sitting_on/1) in its order, the plan's start state.  A plan's states
    add on/1 or off/1 only for the switches it makes.  Rooms, placement
    and the agent get no facts: no plan reads them.  The first four are
    the scene layout's, built once and shared by every successor state;
    only the starts_on/1 facts, over the on/1 fluents' own arguments, and
    the close_to_character/1 fact are built per call."""
    fluents = fluent_list(state)
    facts = [Clause(Struct("starts_on", f.args)) for f in fluents if f.functor == "on"]
    start = make_list([f for f in fluents if f.functor != "on"])
    facts.append(Clause(Struct("close_to_character", (start,))))
    return state.layout.facts + Program(facts)


# -- scene documents -----------------------------------------------------------

_ROOM_KEYS = {"id", "type"}
_OBJECT_KEYS = {"id", "type", "room", "grabbable", "sittable", "switchable", "powered"}
_AGENT_KEYS = {"room", "close", "held", "sitting_on"}


def _ident(value: object, what: str) -> str:
    if not isinstance(value, str) or not value or not value[0].islower() or not value.isidentifier():
        raise SchemaError(f"{what} must be a lowercase identifier, got {value!r}")
    return value


def load_scene(text: str) -> WorldState:
    """Parse and validate a scene document (JSON with rooms/objects/agent)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"scene is not valid JSON: {e}") from e
    except RecursionError as e:
        raise SchemaError("scene nests too deeply to decode") from e
    if not isinstance(doc, dict):
        raise SchemaError("scene must be a JSON object")
    extra = set(doc) - {"rooms", "objects", "agent"}
    if extra:
        raise SchemaError(f"unknown top-level keys: {sorted(extra)}")
    for key in ("rooms", "objects", "agent"):
        if key not in doc:
            raise SchemaError(f"missing top-level key: {key}")

    rooms: Dict[str, str] = {}
    for entry in _as_list(doc["rooms"], "rooms"):
        _check_keys(entry, _ROOM_KEYS, {"id", "type"}, "room")
        room_id = _ident(entry["id"], "room id")
        if room_id in rooms:
            raise SchemaError(f"duplicate room id {room_id}")
        rooms[room_id] = _ident(entry["type"], "room type")
    if not rooms:
        raise SchemaError("a scene needs at least one room")

    objects: Dict[str, ObjectInfo] = {}
    for entry in _as_list(doc["objects"], "objects"):
        _check_keys(entry, _OBJECT_KEYS, {"id", "type", "room"}, "object")
        obj_id = _ident(entry["id"], "object id")
        if obj_id in objects or obj_id in rooms or obj_id == AGENT_ID:
            raise SchemaError(f"duplicate id {obj_id}")
        obj_type = _ident(entry["type"], "object type")
        room = _ident(entry["room"], "object room")
        defaults = OBJECT_TYPES.get(obj_type, (False, False, False))
        grabbable = _as_bool(entry.get("grabbable", defaults[0]), f"{obj_id}.grabbable")
        sittable = _as_bool(entry.get("sittable", defaults[1]), f"{obj_id}.sittable")
        switchable = _as_bool(entry.get("switchable", defaults[2]), f"{obj_id}.switchable")
        powered = entry.get("powered", "off" if switchable else "none")
        if powered not in ("on", "off", "none"):
            raise SchemaError(f"{obj_id}.powered must be on/off/none")
        objects[obj_id] = ObjectInfo(obj_type, room, grabbable, sittable, switchable, powered)

    agent_doc = doc["agent"]
    _check_keys(agent_doc, _AGENT_KEYS, {"room"}, "agent")
    close = frozenset(_as_str_list(agent_doc.get("close", []), "agent.close"))
    held = frozenset(_as_str_list(agent_doc.get("held", []), "agent.held"))
    sitting_on = agent_doc.get("sitting_on")
    if sitting_on is not None:
        sitting_on = _ident(sitting_on, "agent.sitting_on")
    agent = AgentState(_ident(agent_doc["room"], "agent room"), close, held, sitting_on)
    state = WorldState(rooms, objects, agent)
    validate_state(state)
    return state


def _as_list(value: object, what: str) -> List[dict]:
    if not isinstance(value, list) or not all(isinstance(x, dict) for x in value):
        raise SchemaError(f"{what} must be a list of objects")
    return value


def _check_keys(entry: object, allowed: set, required: set, what: str) -> None:
    if not isinstance(entry, dict):
        raise SchemaError(f"{what} entry must be an object")
    extra = set(entry) - allowed
    if extra:
        raise SchemaError(f"unknown {what} keys: {sorted(extra)}")
    missing = required - set(entry)
    if missing:
        raise SchemaError(f"{what} entry missing field: {sorted(missing)[0]}")


def _as_bool(value: object, what: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{what} must be a boolean")
    return value


def _as_str_list(value: object, what: str) -> List[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaError(f"{what} must be a list of ids")
    return value


def scene_to_dict(state: WorldState) -> dict:
    """Scene-document form of a state (explicit flags, load_scene-compatible);
    the agent's `sitting_on` is written only when it is set."""
    doc = {
        "rooms": [{"id": rid, "type": rtype} for rid, rtype in sorted(state.rooms.items())],
        "objects": [
            {
                "id": oid,
                "type": obj.type,
                "room": obj.room,
                "grabbable": obj.grabbable,
                "sittable": obj.sittable,
                "switchable": obj.switchable,
                "powered": obj.powered,
            }
            for oid, obj in sorted(state.objects.items())
        ],
        "agent": {
            "room": state.agent.room,
            "close": sorted(state.agent.close),
            "held": sorted(state.agent.held),
        },
    }
    if state.agent.sitting_on is not None:
        doc["agent"]["sitting_on"] = state.agent.sitting_on
    return doc


def validate_state(state: WorldState) -> None:
    """Check the cross-references and invariants a well-formed state obeys."""
    agent = state.agent
    if agent.room not in state.rooms:
        raise SchemaError(f"agent room {agent.room!r} is not a room")
    for obj_id, obj in state.objects.items():
        if obj.room not in state.rooms:
            raise SchemaError(f"object {obj_id} references unknown room {obj.room!r}")
        if obj.switchable and obj.powered not in ("on", "off"):
            raise SchemaError(f"{obj_id} is switchable but has no power state")
        if not obj.switchable and obj.powered != "none":
            raise SchemaError(f"{obj_id} is not switchable but has a power state")
    for obj_id in agent.close:
        if obj_id not in state.objects:
            raise SchemaError(f"close references unknown object {obj_id}")
        if state.objects[obj_id].room != agent.room:
            raise SchemaError(f"close object {obj_id} is in another room")
    if not agent.held <= agent.close:
        raise SchemaError("held objects must be close")
    if len(agent.held) > 2:
        raise SchemaError("the agent has two hands")
    for obj_id in agent.held:
        if not state.objects[obj_id].grabbable:
            raise SchemaError(f"held object {obj_id} is not grabbable")
    if agent.sitting_on is not None:
        target = agent.sitting_on
        if target not in state.objects or not state.objects[target].sittable:
            raise SchemaError(f"cannot be sitting on {target}")
        if target not in agent.close:
            raise SchemaError("sitting on something out of reach")


def random_scene(seed: int, n_objects: int) -> WorldState:
    """Deterministic scene with `n_objects` objects in 1-5 rooms.

    With six or more objects the scene contains exactly one object of
    each task type (remote control, shirt, cell phone, couch); the rest
    are filler objects.
    """
    if n_objects < 1:
        raise ValueError("need at least one object")
    rng = random.Random(seed)
    n_rooms = rng.randint(1, 5)
    rooms: Dict[str, str] = {}
    for i in range(n_rooms):
        rtype = rng.choice(ROOM_TYPES)
        rooms[f"{rtype}{100 + i}"] = rtype
    room_ids = sorted(rooms)

    types: List[str] = []
    if n_objects >= 6:
        types.extend(TASK_OBJECT_TYPES)
    while len(types) < n_objects:
        types.append(rng.choice(FILLER_TYPES))
    rng.shuffle(types)

    counters: Dict[str, int] = {}
    objects: Dict[str, ObjectInfo] = {}
    for obj_type in types:
        counters[obj_type] = counters.get(obj_type, 0) + 1
        obj_id = f"{obj_type}{counters[obj_type]}"
        grabbable, sittable, switchable = OBJECT_TYPES[obj_type]
        powered = rng.choice(("on", "off")) if switchable else "none"
        objects[obj_id] = ObjectInfo(
            obj_type, rng.choice(room_ids), grabbable, sittable, switchable, powered
        )

    agent = AgentState(room=rng.choice(room_ids))
    state = WorldState(rooms, objects, agent)
    validate_state(state)
    return state
