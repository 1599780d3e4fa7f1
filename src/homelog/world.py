"""Discrete household world: rooms, objects and a single agent.

The simulator is deliberately small: six action kinds (walk, grab,
switchon, switchoff, sit, standup) over objects with four boolean-ish
properties.  States are values; applying an action returns a new state.
The same state can be rendered as logic-program facts so that the native
rules here and the planning knowledge base stay checkable against each
other.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from .program import Clause, Program
from .terms import Const, Struct, Term, format_term, make_list

__all__ = [
    "AGENT_ID",
    "SchemaError",
    "IllegalAction",
    "ObjectInfo",
    "AgentState",
    "WorldState",
    "Action",
    "walk",
    "grab",
    "switchon",
    "switchoff",
    "sit",
    "standup",
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


@dataclass(frozen=True)
class WorldState:
    rooms: Dict[str, str]  # room id -> room type
    objects: Dict[str, ObjectInfo]
    agent: AgentState
    step: int = 0


@dataclass(frozen=True, slots=True)
class Action:
    name: str
    target: Optional[str] = None

    def __str__(self) -> str:
        return self.name if self.target is None else f"{self.name}({self.target})"


def walk(target: str) -> Action:
    return Action("walk", target)


def grab(target: str) -> Action:
    return Action("grab", target)


def switchon(target: str) -> Action:
    return Action("switchon", target)


def switchoff(target: str) -> Action:
    return Action("switchoff", target)


def sit(target: str) -> Action:
    return Action("sit", target)


def standup() -> Action:
    return Action("standup")


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


def legal(state: WorldState, action: Action) -> Tuple[bool, str]:
    """Whether the action may run in the state, with a reason when not."""
    name, target = action.name, action.target
    if name not in ACTION_NAMES:
        return False, f"unknown action {name}"
    if name == "standup":
        if target is not None:
            return False, "standup takes no target"
        if state.agent.sitting_on is None:
            return False, "not sitting"
        return True, ""
    if target is None:
        return False, f"{name} needs a target"
    obj = state.objects.get(target)
    if obj is None:
        return False, f"no object named {target}"
    close = target in state.agent.close
    if name == "walk":
        if close:
            return False, f"already close to {target}"
        return True, ""
    if not close:
        return False, f"not close to {target}"
    if name == "grab":
        if not obj.grabbable:
            return False, f"{target} is not grabbable"
        if target in state.agent.held:
            return False, f"already holding {target}"
        if len(state.agent.held) >= 2:
            return False, "both hands are full"
        if state.agent.sitting_on is not None:
            return False, "cannot grab while sitting"
        return True, ""
    if name == "switchon":
        if not obj.switchable:
            return False, f"{target} is not switchable"
        if obj.powered != "off":
            return False, f"{target} is not off"
        return True, ""
    if name == "switchoff":
        if not obj.switchable:
            return False, f"{target} is not switchable"
        if obj.powered != "on":
            return False, f"{target} is not on"
        return True, ""
    if name == "sit":
        if not obj.sittable:
            return False, f"cannot sit on {target}"
        if state.agent.sitting_on is not None:
            return False, "already sitting"
        return True, ""
    return False, f"unknown action {name}"


def apply_action(state: WorldState, action: Action) -> WorldState:
    """Successor state, or IllegalAction explaining why there is none."""
    ok, reason = legal(state, action)
    if not ok:
        raise IllegalAction(reason)
    agent = state.agent
    objects = state.objects
    name, target = action.name, action.target
    if name == "walk":
        assert target is not None
        room = objects[target].room
        # held objects travel with the agent
        if agent.held:
            objects = dict(objects)
            for held_id in agent.held:
                objects[held_id] = replace(objects[held_id], room=room)
        agent = AgentState(
            room=room,
            close=frozenset({target}) | agent.held,
            held=agent.held,
            sitting_on=None,
        )
    elif name == "grab":
        agent = replace(agent, held=agent.held | {target})
    elif name in ("switchon", "switchoff"):
        assert target is not None
        objects = dict(objects)
        objects[target] = replace(objects[target], powered="on" if name == "switchon" else "off")
    elif name == "sit":
        agent = replace(agent, sitting_on=target)
    else:  # standup
        agent = replace(agent, sitting_on=None)
    return WorldState(state.rooms, objects, agent, state.step + 1)


def legal_actions(state: WorldState) -> List[Action]:
    """Every action legal in the state (used by search oracles and fuzzing)."""
    out: List[Action] = []
    for obj_id in sorted(state.objects):
        for ctor in (walk, grab, switchon, switchoff, sit):
            a = ctor(obj_id)
            if legal(state, a)[0]:
                out.append(a)
    if legal(state, standup())[0]:
        out.append(standup())
    return out


# -- logic-program view --------------------------------------------------------


def _agent_fluents(state: WorldState) -> List[Term]:
    agent = state.agent
    fluents: List[Term] = [Struct("close", (Const(x),)) for x in agent.close]
    fluents += [Struct("holds", (Const(x),)) for x in agent.held]
    if agent.sitting_on is not None:
        fluents.append(Struct("sitting_on", (Const(agent.sitting_on),)))
    return fluents


def fluent_list(state: WorldState) -> List[Term]:
    """Current fluents, canonically ordered by their text form, no duplicates."""
    fluents = _agent_fluents(state)
    fluents += [Struct("on", (Const(i),)) for i, obj in state.objects.items() if obj.powered == "on"]
    return sorted(fluents, key=format_term)


def state_to_facts(state: WorldState) -> Program:
    """The state as the facts the planning knowledge base reads: each
    object's type/2, the switchable/1, grabbable/1 and sittable/1 flags,
    starts_on/1 for each device that is on, and one close_to_character/1
    fact holding the canonical list of the agent's fluents (close/1,
    holds/1, sitting_on/1), the plan's start state.  A plan's states add
    on/1 or off/1 only for the switches it makes.  Rooms, placement and
    the agent get no facts: no plan reads them.  Each object id and type
    becomes one `Const`, shared by every fact that names it."""
    objects = state.objects
    order = sorted(objects)
    consts: Dict[str, Const] = {}

    def const(value: str) -> Const:
        c = consts.get(value)
        if c is None:
            c = consts[value] = Const(value)
        return c

    objs = [(const(obj_id), objects[obj_id]) for obj_id in order]
    facts = [Clause(Struct("type", (i, const(o.type)))) for i, o in objs]
    facts += [Clause(Struct("switchable", (i,))) for i, o in objs if o.switchable]
    facts += [Clause(Struct("grabbable", (i,))) for i, o in objs if o.grabbable]
    facts += [Clause(Struct("sittable", (i,))) for i, o in objs if o.sittable]
    facts += [Clause(Struct("starts_on", (i,))) for i, o in objs if o.powered == "on"]
    start = sorted(_agent_fluents(state), key=format_term)
    facts.append(Clause(Struct("close_to_character", (make_list(start),))))
    return Program(facts)


# -- scene documents -----------------------------------------------------------

_ROOM_KEYS = {"id", "type"}
_OBJECT_KEYS = {"id", "type", "room", "grabbable", "sittable", "switchable", "powered"}
_AGENT_KEYS = {"room", "close", "held"}


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
    agent = AgentState(room=_ident(agent_doc["room"], "agent room"), close=close, held=held, sitting_on=None)
    state = WorldState(rooms, objects, agent, step=0)
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
    """Scene-document form of a state (explicit flags, load_scene-compatible)."""
    return {
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
    if state.step < 0:
        raise SchemaError("negative step counter")


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
    state = WorldState(rooms, objects, agent, step=0)
    validate_state(state)
    return state
