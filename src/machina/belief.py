"""The agent's mutable task memory.

A belief holds the task context (messages that started the task), the
read-only task inputs (values such as a scene that the task reads but never
changes), the trajectory store (every fired transition), the execution log
(every executed action with its inputs and output) and a key-value store for
intermediate results. :func:`render_history` produces the bounded text block
that LLM-facing prompts embed.
"""

from __future__ import annotations

import json
import math
from collections import ChainMap
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import MachinaError, utf8
from .keypath import JsonValue, resolve, split_path
from .model import is_identifier

ROLE_USER = "user"
ROLE_SYSTEM = "system"
ROLES = (ROLE_USER, ROLE_SYSTEM)

PHASE_EXIT = "exit"
PHASE_TRANSITION = "transition"
PHASE_ENTRY = "entry"
PHASES = (PHASE_EXIT, PHASE_TRANSITION, PHASE_ENTRY)

TRUNCATION_MARKER = "..."


class StepOutOfOrder(MachinaError):
    """A record's step number does not fit the current trajectory length."""


class TransitionRecord(NamedTuple):
    """One fired transition. ``source`` and ``target`` are the active leaf
    states before and after the step (self-transitions repeat the name)."""

    step: int
    source: str
    target: str
    event: str
    event_payload: JsonValue = None


class ActionRecord(NamedTuple):
    """One executed action. ``step`` is the trajectory step it belongs to;
    step 0 marks actions that ran while entering the initial state. An
    input bound to a task input is recorded as the reference
    ``"<input:name>"``, not as a copy of its value."""

    step: int
    action: str
    inputs: dict[str, JsonValue]
    output: JsonValue
    phase: str


@dataclass
class Belief:
    """The agent's memory. ``inputs`` is read-only: the engine never
    changes it, snapshots share it, beliefs built from one ``SceneGraph``
    share its JSON value, and actions get copies or parsed forms of its
    values. ``_parsed`` memoizes :func:`parsed_input`."""

    task_context: list[tuple[str, str]] = field(default_factory=list)
    trajectory: list[TransitionRecord] = field(default_factory=list)
    execution_log: list[ActionRecord] = field(default_factory=list)
    kv: dict[str, JsonValue] = field(default_factory=dict)
    current_state: str | None = None
    inputs: dict[str, JsonValue] = field(default_factory=dict)
    _parsed: dict = field(default_factory=dict, compare=False, repr=False)


class ReadOnlyInput(MachinaError):
    def __init__(self, key: str):
        super().__init__(f"{key!r} is a read-only task input")
        self.key = key


def new_belief(
    task_context: Iterable[tuple[str, str]] = (),
    inputs: Mapping[str, JsonValue] | None = None,
) -> Belief:
    """Fresh belief with empty stores and no current state.

    ``inputs`` become the read-only task inputs, copied once here by
    :func:`copy_json`, which raises :class:`NotJsonValue` for a value that
    is not plain JSON. Their keys must be identifiers; internal parameters,
    guards, rules and :func:`kv_get` read them like key-value entries.
    """
    context = []
    for role, text in task_context:
        if role not in ROLES:
            raise MachinaError(f"task context role must be one of {ROLES}, got {role!r}")
        context.append((role, str(text)))
    own_inputs = {}
    for key, value in (inputs or {}).items():
        if not is_identifier(key):
            raise MachinaError(f"input key must be an identifier, got {key!r}")
        own_inputs[key] = copy_json(value)
    return Belief(task_context=context, inputs=own_inputs)


def record_transition(belief: Belief, rec: TransitionRecord) -> Belief:
    """Append a transition; steps must arrive in order, starting at 1."""
    expected = len(belief.trajectory) + 1
    if rec.step != expected:
        raise StepOutOfOrder(f"transition step {rec.step}, expected {expected}")
    belief.trajectory.append(rec)
    belief.current_state = rec.target
    return belief


def record_action(belief: Belief, rec: ActionRecord) -> Belief:
    """Append an action record.

    The step may reference an existing trajectory step, step 0 (pre-run), or
    the step currently in flight (one past the trajectory length): actions
    execute before their transition record lands.
    """
    if rec.phase not in PHASES:
        raise MachinaError(f"action phase must be one of {PHASES}, got {rec.phase!r}")
    if not 0 <= rec.step <= len(belief.trajectory) + 1:
        raise StepOutOfOrder(
            f"action step {rec.step} does not reference an existing step"
        )
    belief.execution_log.append(rec)
    return belief


def kv_set(belief: Belief, key: str, value: JsonValue) -> Belief:
    """Store ``value`` under ``key``; a task input's key raises
    :class:`ReadOnlyInput`."""
    if not is_identifier(key):
        raise MachinaError(f"kv key must be an identifier, got {key!r}")
    if key in belief.inputs:
        raise ReadOnlyInput(key)
    belief.kv[key] = value
    return belief


def kv_get(belief: Belief, path: str):
    """Resolve a dotted path into the task inputs or the store; ``ABSENT``
    when missing."""
    segments = split_path(path)
    return resolve(belief.inputs if segments[0] in belief.inputs else belief.kv, segments)


def lookup_scope(belief: Belief) -> Mapping[str, JsonValue]:
    """What guard expressions read: the store, plus the task inputs."""
    return ChainMap(belief.inputs, belief.kv) if belief.inputs else belief.kv


def parsed_input(belief: Belief, path: str, parse: Callable[[JsonValue], object]):
    """``parse`` of the task input at ``path``, computed once per belief.

    The memo is keyed by path and parser; snapshots share it, as they share
    the inputs it is computed from.
    """
    key = (path, parse)
    try:
        return belief._parsed[key]
    except KeyError:
        pass
    value = parse(kv_get(belief, path))
    belief._parsed[key] = value
    return value


def seed_parsed_input(belief: Belief, path: str, parse: Callable[[JsonValue], object], value) -> None:
    """Make :func:`parsed_input` return ``value`` for ``path`` and ``parse``
    without parsing, for a caller that already holds the parsed form.
    ``value`` must equal ``parse`` of the input and never change."""
    belief._parsed[(path, parse)] = value


# JSON scalars shared as they are; a float is checked on its own, since NaN
# and the infinities have no strict JSON form.
_JSON_SCALARS = frozenset((str, int, bool, type(None)))


class NotJsonValue(MachinaError):
    """A value is not plain JSON: it holds a key that is not a string, a
    value of another type (a set, a tuple, bytes, a mapping or sequence
    that is not a dict or list, a generator) or a float that strict JSON
    cannot write (NaN or an infinity)."""


class NestingTooDeep(NotJsonValue):
    """A value is nested too deeply to copy."""


def copy_json(value: object) -> JsonValue:
    """Deep copy of a plain JSON value, checked in the same pass.

    Dicts and lists are rebuilt; strings, integers, booleans, ``None`` and
    finite floats are shared. Anything else raises :class:`NotJsonValue`,
    and a value nested past the interpreter's recursion limit
    :class:`NestingTooDeep`. Every value that enters a belief (task
    inputs, event payloads, bound parameters, action outputs, the
    key-value store at snapshot) goes through here, so a belief holds
    only what strict JSON can write.
    """
    kind = type(value)
    try:
        # scalars inline: most members of a JSON document are leaves
        if kind is dict:
            copied = {
                k: v if type(v) in _JSON_SCALARS else copy_json(v)
                for k, v in value.items()
                if type(k) is str
            }
            if len(copied) != len(value):
                key = next(k for k in value if type(k) is not str)
                raise NotJsonValue(f"key {key!r} is not a string")
            return copied
        if kind is list:
            return [v if type(v) in _JSON_SCALARS else copy_json(v) for v in value]
        if kind in _JSON_SCALARS or (kind is float and math.isfinite(value)):
            return value
    except RecursionError:
        # the innermost level that hit the limit raises; the rest pass it on
        raise NestingTooDeep("value is nested too deeply to copy") from None
    if kind is float:
        raise NotJsonValue(f"{value!r} has no strict JSON form")
    raise NotJsonValue(f"a {kind.__name__} is not a JSON value")


def snapshot(belief: Belief) -> Belief:
    """A copy of ``belief`` that later changes to it cannot reach.

    Records are immutable named tuples holding values copied when they were
    made, and the task inputs are read-only, so the copy shares them; only
    the key-value store, whose values actions receive by reference, is
    copied. Edit a snapshot's records only after ``copy.deepcopy``.
    """
    return Belief(
        list(belief.task_context),
        list(belief.trajectory),
        list(belief.execution_log),
        copy_json(belief.kv),
        belief.current_state,
        belief.inputs,
        belief._parsed,
    )


def belief_to_trace(belief: Belief) -> dict:
    """JSON-ready trace document (the CLI ``--trace`` payload). It holds
    the belief's own values, the shared read-only task inputs among them,
    so ``copy.deepcopy`` it before editing it."""
    return {
        "task_context": [{"role": r, "text": t} for r, t in belief.task_context],
        "inputs": belief.inputs,
        "trajectory": [
            {
                "step": r.step,
                "source": r.source,
                "target": r.target,
                "event": r.event,
                "event_payload": r.event_payload,
            }
            for r in belief.trajectory
        ],
        "execution_log": [
            {
                "step": r.step,
                "action": r.action,
                "inputs": r.inputs,
                "output": r.output,
                "phase": r.phase,
            }
            for r in belief.execution_log
        ],
        "kv": belief.kv,
        "current_state": belief.current_state,
    }


# ---------------------------------------------------------------------------
# History rendering


def estimate_tokens(text: str) -> int:
    """Provider-agnostic token estimate: one token per four UTF-8 bytes."""
    return math.ceil(len(utf8(text)) / 4)


# Records hold JSON values: the engine stores copy_json copies, which cannot
# hold a cycle.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, check_circular=False
)


# JSONEncoder.encode builds a C encoder for every list or dict it dumps,
# which costs as much as dumping a record's small values; build one here,
# with the arguments JSONEncoder.iterencode gives it.
_C_ENCODE = c_make_encoder and c_make_encoder(
    None,
    _ENCODER.default,
    encode_basestring,
    None,
    _ENCODER.key_separator,
    _ENCODER.item_separator,
    _ENCODER.sort_keys,
    _ENCODER.skipkeys,
    _ENCODER.allow_nan,
)


def _dump(value: JsonValue) -> str:
    if _C_ENCODE is None:  # an interpreter without json's C accelerator
        return _ENCODER.encode(value)
    return "".join(_C_ENCODE(value, 0))


def _action_line(rec: ActionRecord) -> str:
    return (
        f"[step {rec.step}] {rec.phase} action {rec.action}"
        f" inputs={_dump(rec.inputs)} output={_dump(rec.output)}"
    )


def _transition_line(rec: TransitionRecord) -> str:
    line = f"[step {rec.step}] transition {rec.source} --{rec.event}--> {rec.target}"
    if rec.event_payload:
        line += f" payload={_dump(rec.event_payload)}"
    return line


def _lines_newest_first(belief: Belief) -> Iterator[str]:
    """The history's lines, newest first, each formatted only when reached.

    Oldest first, the history reads: step 0 actions (initial entry), then
    each transition followed by its step's actions, then the actions of a
    step still in flight. Within a step, actions keep their log order; a
    stable sort by step puts an action recorded late for an earlier step in
    its place, and costs one pass when the log is already in step order.
    """
    actions = sorted(belief.execution_log, key=attrgetter("step"))
    i = len(actions) - 1
    for rec in reversed(belief.trajectory):
        while i >= 0 and actions[i].step >= rec.step:
            yield _action_line(actions[i])
            i -= 1
        yield _transition_line(rec)
    while i >= 0:
        yield _action_line(actions[i])
        i -= 1


def _truncate_tail(line: str, budget: int) -> str:
    """Keep the newest tail of ``line`` within ``budget`` estimated tokens,
    dropping bytes from the head and prefixing a marker."""
    max_bytes = budget * 4
    encoded = line.encode("utf-8")
    tail = encoded[-max_bytes:]
    # avoid splitting a multi-byte sequence at the cut point
    text = tail.decode("utf-8", errors="ignore")
    return TRUNCATION_MARKER + text


def render_history(belief: Belief, token_budget: int) -> str:
    """Newest-last rendering of the interleaved record history.

    Includes the maximal chronological suffix of records whose estimated
    size fits ``token_budget``; when even the newest record alone exceeds
    the budget, that record is included truncated head-first. Records are
    walked newest first and formatted only up to the first that does not
    fit, so the cost follows the window, not the length of the run.
    """
    if token_budget < 1:
        raise MachinaError("token budget must be at least 1")
    selected: list[str] = []
    total = 0
    for line in _lines_newest_first(belief):
        cost = estimate_tokens(line + "\n")
        if not selected and cost > token_budget:
            return _truncate_tail(line, token_budget)
        if total + cost > token_budget:
            break
        selected.append(line)
        total += cost
    return "\n".join(reversed(selected))
