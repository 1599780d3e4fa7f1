"""Ready-made scene documents, the minimal and the six-object one, for the docs and the tests."""

from __future__ import annotations

import json

from .world import WorldState, load_scene

__all__ = [
    "MINIMAL_SCENE_JSON",
    "SIX_OBJECT_SCENE_JSON",
    "minimal_scene",
    "six_object_scene",
]

# One room, one turned-off remote control, nothing else.
MINIMAL_SCENE_JSON = json.dumps(
    {
        "rooms": [{"id": "livingroom100", "type": "livingroom"}],
        "objects": [
            {
                "id": "remotecontrol1",
                "type": "remotecontrol",
                "room": "livingroom100",
                "powered": "off",
            }
        ],
        "agent": {"room": "livingroom100", "close": [], "held": []},
    },
    indent=2,
)

# One object of every type the task catalog mentions, plus a TV and a
# lamp.  The shirt hangs in the bedroom so plans can cross rooms.
SIX_OBJECT_SCENE_JSON = json.dumps(
    {
        "rooms": [
            {"id": "livingroom100", "type": "livingroom"},
            {"id": "bedroom101", "type": "bedroom"},
        ],
        "objects": [
            {"id": "remotecontrol1", "type": "remotecontrol", "room": "livingroom100", "powered": "off"},
            {"id": "shirt1", "type": "shirt", "room": "bedroom101"},
            {"id": "cellphone1", "type": "cellphone", "room": "livingroom100", "powered": "off"},
            {"id": "couch1", "type": "couch", "room": "livingroom100"},
            {"id": "tv1", "type": "tv", "room": "livingroom100", "powered": "on"},
            {"id": "lamp1", "type": "lamp", "room": "livingroom100", "powered": "off"},
        ],
        "agent": {"room": "livingroom100", "close": [], "held": []},
    },
    indent=2,
)


def minimal_scene() -> WorldState:
    return load_scene(MINIMAL_SCENE_JSON)


def six_object_scene() -> WorldState:
    return load_scene(SIX_OBJECT_SCENE_JSON)
