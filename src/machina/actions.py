"""Action registry and the built-in scene question-answering actions.

An action implementation is a callable ``(inputs, context) -> output`` where
``inputs`` is the resolved parameter dict and the output is any JSON value.
The registry declares canonical parameter specs per action for documentation
and for guard-time invocation; machines bind parameters per usage site
through their own :class:`~machina.model.ActionSpec`. The scene actions
receive their ``scene`` parameter parsed, as a :class:`~machina.scene.SceneGraph`.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

from . import scene as scene_ops
from .errors import MachinaError, quoted, require_object
from .keypath import JsonValue
from .model import (
    SOURCE_EXTERNAL,
    SOURCE_INTERNAL,
    ActionSpec,
    ParameterSpec,
)
from .providers import CompletionProvider
from .values import EMPTY_MAPPING, FrozenValue, Value

# Built-in actions that send a prompt to the provider (one call each).
LLM_ACTION_NAMES = frozenset({"classifyQuestion", "extractObjects", "answerQuestion"})


class DuplicateAction(MachinaError):
    def __init__(self, name: str):
        super().__init__(f"action {name!r} is already registered")
        self.name = name


class ArgumentTypeError(MachinaError):
    """A supplied argument does not fit the declared datatype."""


class ActionContext(NamedTuple):
    """Runtime handles passed to every action implementation."""

    provider: CompletionProvider
    spec: ActionSpec


ActionImpl = Callable[[dict[str, JsonValue], ActionContext], JsonValue]


class RegisteredAction(FrozenValue):
    """A registered action. ``parsers`` maps a parameter name to the
    function that turns its bound JSON value into what ``impl`` receives;
    a value read from a task input is parsed once per belief. Equality,
    hashing and ``repr`` leave ``parsers`` out."""

    __slots__ = ("name", "params", "impl", "output_datatype", "parsers")
    _uncompared = ("parsers",)

    def __init__(
        self,
        name: str,
        params: tuple[ParameterSpec, ...],
        impl: ActionImpl,
        output_datatype: str = "json",
        parsers: Mapping[str, Callable[[JsonValue], object]] = EMPTY_MAPPING,
    ):
        self._set(name, params, impl, output_datatype, parsers)


class ActionRegistry(Value):
    __slots__ = ("_actions",)

    def __init__(self, _actions: dict[str, RegisteredAction] | None = None):
        self._actions = {} if _actions is None else _actions

    def register(
        self,
        name: str,
        params: tuple[ParameterSpec, ...],
        impl: ActionImpl,
        output_datatype: str = "json",
    ) -> "ActionRegistry":
        if name in self._actions:
            raise DuplicateAction(name)
        self._actions[name] = RegisteredAction(name, tuple(params), impl, output_datatype)
        return self

    def lookup(self, name: str) -> RegisteredAction | None:
        return self._actions.get(name)

    def names(self) -> frozenset[str]:
        return frozenset(self._actions)


def coerce_argument(value: JsonValue, datatype: str) -> JsonValue:
    """Fit a JSON value to a declared datatype, with mild coercion.

    Numbers and booleans are accepted as JSON values or as their obvious
    string spellings; ``json`` accepts anything. A value that does not fit
    raises :class:`ArgumentTypeError`, quoting it as
    :func:`~machina.errors.quoted` does.
    """
    if datatype == "json":
        return value
    if datatype == "string":
        if isinstance(value, str):
            return value
    elif datatype == "number":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                try:
                    number = float(value)
                    if math.isfinite(number):
                        return number
                except ValueError:
                    pass
    elif datatype == "boolean":
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
    else:
        raise ArgumentTypeError(f"unknown datatype {datatype!r}")
    raise ArgumentTypeError(f"expected a {datatype}, got {quoted(value)}")


# ---------------------------------------------------------------------------
# Built-in actions


def _ext(name: str, datatype: str, description: str = "") -> ParameterSpec:
    return ParameterSpec(name, SOURCE_EXTERNAL, datatype, description)


def _int(name: str, datatype: str, description: str = "", source_key: str | None = None) -> ParameterSpec:
    return ParameterSpec(name, SOURCE_INTERNAL, datatype, description, source_key)


def parse_scene_input(value: JsonValue) -> scene_ops.SceneGraph:
    """The parser of the scene actions' ``scene`` parameter; a belief's
    memo holds its result under this function."""
    # looked up on the module at call time, so a wrapper installed there sees it
    return scene_ops.scene_from_json_value(value)


_SCENE_PARSER = {"scene": parse_scene_input}


def _filter_impl(inputs, ctx) -> JsonValue:
    predicate = require_object(inputs["predicate"], "/predicate")
    return scene_ops.filter_objects(inputs["scene"], predicate)


def _relation_impl(inputs, ctx) -> JsonValue:
    return scene_ops.related_objects(inputs["scene"], inputs["object"], inputs["relation"])


def _checking_impl(inputs, ctx) -> JsonValue:
    return scene_ops.same_attribute(inputs["scene"], inputs["object"], inputs["attribute"])


def _query_impl(inputs, ctx) -> JsonValue:
    return scene_ops.query_attribute(inputs["scene"], inputs["object"], inputs["attribute"])


def _count_impl(inputs, ctx) -> JsonValue:
    ids = inputs["ids"]
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise MachinaError(f"ids must be an array of strings, got {ids!r}")
    return scene_ops.count_objects(ids)


def _classify_impl(inputs, ctx) -> JsonValue:
    return scene_ops.classify_question(ctx.provider, inputs["question"])


def _extract_impl(inputs, ctx) -> JsonValue:
    return scene_ops.extract_objects(ctx.provider, inputs["scene"], inputs["question"])


def _answer_impl(inputs, ctx) -> JsonValue:
    return scene_ops.answer_question(ctx.provider, inputs["scene"], inputs["question"])


def _note_impl(inputs, ctx) -> JsonValue:
    # Marker defaults to the usage site's output key so parameterless notes
    # still leave distinguishable traces.
    text = inputs.get("text")
    if text is None:
        return ctx.spec.resolved_output_key
    return str(text)


_SCENE_PARAM = _int("scene", "json", "scene graph JSON from the belief")

# The bundled action library, built once; each registry gets its own dict
# over these shared, frozen entries.
_BUILTIN_ACTIONS = {
    a.name: a
    for a in (
        RegisteredAction(
            "filter",
            (_ext("predicate", "json", "attribute name to required value"), _SCENE_PARAM),
            _filter_impl,
            parsers=_SCENE_PARSER,
        ),
        RegisteredAction(
            "relation",
            (
                _ext("object", "string", "anchor object id"),
                _ext("relation", "string", "one of left, right, front, behind"),
                _SCENE_PARAM,
            ),
            _relation_impl,
            parsers=_SCENE_PARSER,
        ),
        RegisteredAction(
            "checking",
            (
                _ext("object", "string", "anchor object id"),
                _ext("attribute", "string", "attribute to compare"),
                _SCENE_PARAM,
            ),
            _checking_impl,
            parsers=_SCENE_PARSER,
        ),
        RegisteredAction(
            "query",
            (
                _ext("object", "string", "object id to inspect"),
                _ext("attribute", "string", "attribute to read"),
                _SCENE_PARAM,
            ),
            _query_impl,
            output_datatype="string",
            parsers=_SCENE_PARSER,
        ),
        RegisteredAction(
            "countObjects",
            (_int("ids", "json", "object ids to count"),),
            _count_impl,
            output_datatype="number",
        ),
        RegisteredAction(
            "classifyQuestion",
            (_int("question", "string"),),
            _classify_impl,
            output_datatype="string",
        ),
        RegisteredAction(
            "extractObjects",
            (_int("question", "string"), _SCENE_PARAM),
            _extract_impl,
            parsers=_SCENE_PARSER,
        ),
        RegisteredAction(
            "answerQuestion",
            (_int("question", "string"), _SCENE_PARAM),
            _answer_impl,
            output_datatype="string",
            parsers=_SCENE_PARSER,
        ),
        RegisteredAction(
            "note",
            (_ext("text", "string", "marker to record"),),
            _note_impl,
            output_datatype="string",
        ),
    )
}


def builtin_registry() -> ActionRegistry:
    """A fresh registry holding the bundled action library."""
    return ActionRegistry(dict(_BUILTIN_ACTIONS))
