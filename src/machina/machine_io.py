"""Reading and writing the ``.sm.json`` machine definition format.

Document layout (unknown keys are rejected)::

    machine    {name, states, transitions}
    state      {name, description, tags?, entry?, exit?, substates?, initial?}
    transition {source, target, event, guard?, actions?, trigger?}
    guard      {"expr": <DSL text>}  xor  {"action": <action name>}
    action     {name, output_key?, params?}
    param      {name, source, datatype, description?, source_key?}

Parsing is purely structural; semantic rules (unique names, start/end tags,
dangling references) belong to :func:`machina.model.validate_machine`.
Serialization is canonical: keys in schema order, two-space indentation,
defaults omitted, so serializing twice is byte-stable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from . import model
from .errors import SchemaError, check_keys, require_list, require_object, require_string
from .json_extract import read_json
from .model import (
    ActionSpec,
    Condition,
    ParameterSpec,
    State,
    StateMachine,
    Transition,
)


def _identifier(obj: dict, key: str, pointer: str) -> str:
    value = require_string(obj, key, pointer)
    if not model.is_identifier(value):
        raise SchemaError(f"{pointer}/{key}", f"{value!r} is not an identifier")
    return value


def _param_from(value: Any, pointer: str) -> ParameterSpec:
    obj = require_object(value, pointer)
    check_keys(
        obj,
        ("name", "source", "datatype", "description", "source_key"),
        ("name", "source", "datatype"),
        pointer,
    )
    name = _identifier(obj, "name", pointer)
    source = require_string(obj, "source", pointer)
    if source not in model.PARAM_SOURCES:
        raise SchemaError(f"{pointer}/source", f"source must be one of {model.PARAM_SOURCES}")
    datatype = require_string(obj, "datatype", pointer)
    if datatype not in model.DATATYPES:
        raise SchemaError(f"{pointer}/datatype", f"datatype must be one of {model.DATATYPES}")
    description = ""
    if "description" in obj:
        description = require_string(obj, "description", pointer)
    source_key = None
    if "source_key" in obj:
        if source != model.SOURCE_INTERNAL:
            raise SchemaError(
                f"{pointer}/source_key", "source_key is only allowed on internal parameters"
            )
        source_key = _identifier(obj, "source_key", pointer)
        if source_key == name:
            source_key = None  # canonical form: the default is implicit
    return ParameterSpec(name, source, datatype, description, source_key)


def _action_from(value: Any, pointer: str) -> ActionSpec:
    obj = require_object(value, pointer)
    check_keys(obj, ("name", "output_key", "params"), ("name",), pointer)
    name = _identifier(obj, "name", pointer)
    output_key = None
    if "output_key" in obj:
        output_key = _identifier(obj, "output_key", pointer)
        if output_key == name:
            output_key = None
    params = []
    if "params" in obj:
        raw = require_list(obj["params"], f"{pointer}/params")
        for i, p in enumerate(raw):
            params.append(_param_from(p, f"{pointer}/params/{i}"))
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise SchemaError(f"{pointer}/params", "parameter names must be unique")
    return ActionSpec(name, output_key, tuple(params))


def _guard_from(value: Any, pointer: str) -> Condition:
    obj = require_object(value, pointer)
    check_keys(obj, ("expr", "action"), (), pointer)
    has_expr = "expr" in obj
    has_action = "action" in obj
    if has_expr == has_action:
        raise SchemaError(pointer, "guard needs exactly one of 'expr' or 'action'")
    if has_expr:
        return Condition(model.GUARD_EXPRESSION, expression=require_string(obj, "expr", pointer))
    return Condition(model.GUARD_ACTION, action_name=_identifier(obj, "action", pointer))


def _state_from(value: Any, pointer: str) -> State:
    obj = require_object(value, pointer)
    check_keys(
        obj,
        ("name", "description", "tags", "entry", "exit", "substates", "initial"),
        ("name", "description"),
        pointer,
    )
    name = _identifier(obj, "name", pointer)
    description = require_string(obj, "description", pointer)
    tags: frozenset[str] = frozenset()
    if "tags" in obj:
        raw_tags = require_list(obj["tags"], f"{pointer}/tags")
        for i, tag in enumerate(raw_tags):
            if tag not in model.TAGS:
                raise SchemaError(f"{pointer}/tags/{i}", f"tag must be one of {model.TAGS}")
        if len(set(raw_tags)) != len(raw_tags):
            raise SchemaError(f"{pointer}/tags", "tags must be unique")
        tags = frozenset(raw_tags)
    entry = _action_from(obj["entry"], f"{pointer}/entry") if "entry" in obj else None
    exit_ = _action_from(obj["exit"], f"{pointer}/exit") if "exit" in obj else None
    substates: list[State] = []
    if "substates" in obj:
        raw = require_list(obj["substates"], f"{pointer}/substates")
        for i, sub in enumerate(raw):
            substates.append(_state_from(sub, f"{pointer}/substates/{i}"))
    initial = None
    if "initial" in obj:
        if not substates:
            raise SchemaError(f"{pointer}/initial", "initial requires substates")
        initial = _identifier(obj, "initial", pointer)
    return State(name, description, tags, entry, exit_, tuple(substates), initial)


def _transition_from(value: Any, pointer: str) -> Transition:
    obj = require_object(value, pointer)
    check_keys(
        obj,
        ("source", "target", "event", "guard", "actions", "trigger"),
        ("source", "target", "event"),
        pointer,
    )
    source = _identifier(obj, "source", pointer)
    target = _identifier(obj, "target", pointer)
    event = _identifier(obj, "event", pointer)
    guard = _guard_from(obj["guard"], f"{pointer}/guard") if "guard" in obj else None
    actions: list[ActionSpec] = []
    if "actions" in obj:
        raw = require_list(obj["actions"], f"{pointer}/actions")
        for i, a in enumerate(raw):
            actions.append(_action_from(a, f"{pointer}/actions/{i}"))
    trigger = model.TRIGGER_INTERNAL
    if "trigger" in obj:
        trigger = require_string(obj, "trigger", pointer)
        if trigger not in model.TRIGGERS:
            raise SchemaError(f"{pointer}/trigger", f"trigger must be one of {model.TRIGGERS}")
    return Transition(source, target, event, guard, tuple(actions), trigger)


def machine_from_value(doc: Any) -> StateMachine:
    """Build a machine from an already-decoded JSON value."""
    obj = require_object(doc, "")
    check_keys(obj, ("name", "states", "transitions"), ("name", "states", "transitions"), "")
    name = _identifier(obj, "name", "")
    states = [
        _state_from(s, f"/states/{i}")
        for i, s in enumerate(require_list(obj["states"], "/states"))
    ]
    transitions = [
        _transition_from(t, f"/transitions/{i}")
        for i, t in enumerate(require_list(obj["transitions"], "/transitions"))
    ]
    return StateMachine(name, tuple(states), tuple(transitions))


def parse_machine(text: str | bytes) -> StateMachine:
    """Parse machine JSON. Total: always a machine or a raised error."""
    try:
        return machine_from_value(read_json(text))
    except RecursionError:
        raise SchemaError("", "document nested too deeply") from None


# ---------------------------------------------------------------------------
# Serialization


def _param_to(p: ParameterSpec) -> dict:
    out: dict[str, Any] = {"name": p.name, "source": p.source, "datatype": p.datatype}
    if p.description:
        out["description"] = p.description
    if p.source_key is not None and p.source_key != p.name:
        out["source_key"] = p.source_key
    return out


def _action_to(a: ActionSpec) -> dict:
    out: dict[str, Any] = {"name": a.name}
    if a.output_key is not None and a.output_key != a.name:
        out["output_key"] = a.output_key
    if a.params:
        out["params"] = [_param_to(p) for p in a.params]
    return out


def _guard_to(g: Condition) -> dict:
    if g.kind == model.GUARD_EXPRESSION:
        return {"expr": g.expression}
    return {"action": g.action_name}


def _state_to(s: State) -> dict:
    out: dict[str, Any] = {"name": s.name, "description": s.description}
    if s.tags:
        out["tags"] = [t for t in model.TAGS if t in s.tags]
    if s.entry_action:
        out["entry"] = _action_to(s.entry_action)
    if s.exit_action:
        out["exit"] = _action_to(s.exit_action)
    if s.substates:
        out["substates"] = [_state_to(sub) for sub in s.substates]
    if s.initial is not None:
        out["initial"] = s.initial
    return out


def _transition_to(t: Transition) -> dict:
    out: dict[str, Any] = {"source": t.source, "target": t.target, "event": t.event}
    if t.guard:
        out["guard"] = _guard_to(t.guard)
    if t.actions:
        out["actions"] = [_action_to(a) for a in t.actions]
    if t.trigger != model.TRIGGER_INTERNAL:
        out["trigger"] = t.trigger
    return out


def machine_to_value(sm: StateMachine) -> dict:
    return {
        "name": sm.name,
        "states": [_state_to(s) for s in sm.states],
        "transitions": [_transition_to(t) for t in sm.transitions],
    }


def serialize_machine(sm: StateMachine) -> str:
    """Canonical JSON text; ``parse_machine`` of the result round-trips."""
    return json.dumps(machine_to_value(sm), indent=2, ensure_ascii=False) + "\n"


def load_machine(path: str | Path) -> StateMachine:
    return parse_machine(Path(path).read_bytes())

