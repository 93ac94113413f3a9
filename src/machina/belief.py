"""The agent's mutable task memory.

A belief holds the task context (messages that started the task), the
read-only task inputs (values such as a scene that the task reads but never
changes), the trajectory store (every fired transition), the execution log
(every executed action with its inputs and output) and a key-value store for
intermediate results. :func:`render_history` produces the bounded text block
that LLM-facing prompts embed.
"""

from __future__ import annotations

import math
import sys
from collections import ChainMap
from operator import attrgetter
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import MachinaError, utf8
from .json_extract import json_writer
from .keypath import JsonValue, resolve, split_path
from .model import is_identifier
from .values import Value

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


class Belief(Value):
    """The agent's memory. ``inputs`` is read-only: the engine never
    changes it, snapshots share it, beliefs built from one ``SceneGraph``
    share its JSON value, and actions get copies or parsed forms of its
    values. ``_parsed`` memoizes :func:`parsed_input`; equality and
    ``repr`` leave it out. A store left out or given as ``None`` starts
    empty."""

    __slots__ = (
        "task_context",
        "trajectory",
        "execution_log",
        "kv",
        "current_state",
        "inputs",
        "_parsed",
    )
    _uncompared = ("_parsed",)

    def __init__(
        self,
        task_context: list[tuple[str, str]] | None = None,
        trajectory: list[TransitionRecord] | None = None,
        execution_log: list[ActionRecord] | None = None,
        kv: dict[str, JsonValue] | None = None,
        current_state: str | None = None,
        inputs: dict[str, JsonValue] | None = None,
        _parsed: dict | None = None,
    ):
        self.task_context = [] if task_context is None else task_context
        self.trajectory = [] if trajectory is None else trajectory
        self.execution_log = [] if execution_log is None else execution_log
        self.kv = {} if kv is None else kv
        self.current_state = current_state
        self.inputs = {} if inputs is None else inputs
        self._parsed = {} if _parsed is None else _parsed


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
    Task-context text that UTF-8 cannot encode (a lone surrogate, as a
    command line that is not UTF-8 decodes to) raises
    :class:`~machina.errors.UnencodableText`, since every prompt and trace
    writes it as UTF-8.
    """
    context = []
    for role, text in task_context:
        if role not in ROLES:
            raise MachinaError(f"task context role must be one of {ROLES}, got {role!r}")
        text = str(text)
        if not text.isascii():
            utf8(text)
        context.append((role, text))
    own_inputs = {}
    for key, value in (inputs or {}).items():
        if not is_identifier(key):
            raise MachinaError(f"input key must be an identifier, got {key!r}")
        own_inputs[key] = copy_json(value)
    return Belief(task_context=context, inputs=own_inputs)


def record_transition(belief: Belief, rec: TransitionRecord) -> Belief:
    """Append a transition; steps must arrive in order, starting at 1.
    :func:`~machina.engine.dispatch` makes the same check on its own
    records and appends them itself."""
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
    :func:`~machina.engine.execute_action` makes the same checks before it
    runs an action and appends its record itself.
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


# JSON scalars shared as they are. An int is shared when ``str`` can write
# it, and a float when it is finite: NaN and the infinities have no strict
# JSON form.
_JSON_SCALARS = frozenset((str, bool, type(None)))

# Python 3.11 and later refuse to write an int of more digits than
# sys.get_int_max_str_digits(); every limit it accepts is 0 (none) or at
# least 640 digits, so a shorter int is always written.
_get_int_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_SHORT_INT_LOW, _SHORT_INT_HIGH = -(10**640), 10**640
_int_bounds: dict[int, int] = {}


def _int_has_text(value: int) -> bool:
    """Whether ``str(value)`` is within the interpreter's digit limit."""
    if _SHORT_INT_LOW < value < _SHORT_INT_HIGH:
        return True
    limit = _get_int_digit_limit()
    if not limit:
        return True
    bound = _int_bounds.get(limit)
    if bound is None:
        bound = _int_bounds[limit] = 10**limit
    return -bound < value < bound


class NotJsonValue(MachinaError):
    """A value is not plain JSON: it holds a key that is not a string, a
    value of another type (a set, a tuple, bytes, a mapping or sequence
    that is not a dict or list, a generator), an int with more digits than
    the interpreter writes, or a float that strict JSON cannot write (NaN
    or an infinity)."""


class NestingTooDeep(NotJsonValue):
    """A value is nested too deeply to copy."""


def copy_json(value: object) -> JsonValue:
    """Deep copy of a plain JSON value, checked in the same pass.

    Dicts and lists are rebuilt; strings, integers, booleans, ``None`` and
    finite floats are shared. Anything else raises :class:`NotJsonValue`,
    as does an int with more digits than ``sys.get_int_max_str_digits()``
    (which ``str``, ``json.dumps`` and so a prompt or a trace would refuse
    to write), and a value nested past the interpreter's recursion limit
    :class:`NestingTooDeep`. Every value that enters a belief (task
    inputs, event payloads, bound parameters, action outputs, the
    key-value store at snapshot) goes through here, so a belief holds
    only what strict JSON can write.
    """
    kind = type(value)
    try:
        # scalars inline: most members of a JSON document are leaves, and
        # most leaves are strings (86-97% of the members perfbench's
        # workloads copy), tested first; then a short int, then the set
        if kind is dict:
            copied = {
                k: v
                if type(v) is str
                or (type(v) is int and _SHORT_INT_LOW < v < _SHORT_INT_HIGH)
                or type(v) in _JSON_SCALARS
                else copy_json(v)
                for k, v in value.items()
                if type(k) is str
            }
            if len(copied) != len(value):
                key = next(k for k in value if type(k) is not str)
                raise NotJsonValue(f"key {key!r} is not a string")
            return copied
        if kind is list:
            return [
                v
                if type(v) is str
                or (type(v) is int and _SHORT_INT_LOW < v < _SHORT_INT_HIGH)
                or type(v) in _JSON_SCALARS
                else copy_json(v)
                for v in value
            ]
        if (
            kind in _JSON_SCALARS
            or (kind is int and _int_has_text(value))
            or (kind is float and math.isfinite(value))
        ):
            return value
    except RecursionError:
        # the innermost level that hit the limit raises; the rest pass it on
        raise NestingTooDeep("value is nested too deeply to copy") from None
    if kind is int:
        raise NotJsonValue(
            f"an int with more than {_get_int_digit_limit()} digits has no JSON form"
        )
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
    """JSON-ready trace document (the CLI ``--trace`` payload). Each
    trajectory and execution-log entry is its record's fields in order
    (:class:`TransitionRecord`, :class:`ActionRecord`). It holds the
    belief's own values, the shared read-only task inputs among them, so
    ``copy.deepcopy`` it before editing it."""
    return {
        "task_context": [{"role": r, "text": t} for r, t in belief.task_context],
        "inputs": belief.inputs,
        "trajectory": [r._asdict() for r in belief.trajectory],
        "execution_log": [r._asdict() for r in belief.execution_log],
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
_dump = json_writer(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


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

    Oldest first, the history reads: step 0 actions (initial entry), then
    each transition followed by its step's actions, then the actions of a
    step still in flight. Within a step, actions keep their log order; a
    stable sort by step puts an action recorded late for an earlier step in
    its place, and costs one pass when the log is already in step order.

    Includes the maximal chronological suffix of records whose estimated
    size fits ``token_budget``; when even the newest record alone exceeds
    the budget, that record is included truncated head-first. Only the
    records in the window are formatted, but the sort reads and copies the
    whole log on every call, so the cost grows with the length of the run.
    """
    if token_budget < 1:
        raise MachinaError("token budget must be at least 1")
    actions = sorted(belief.execution_log, key=attrgetter("step"))
    transitions = belief.trajectory
    i, t = len(actions) - 1, len(transitions) - 1
    selected: list[str] = []
    total = 0
    while i >= 0 or t >= 0:
        # a step's actions come after its transition, so they are newer
        if i >= 0 and (t < 0 or actions[i].step >= transitions[t].step):
            line = _action_line(actions[i])
            i -= 1
        else:
            line = _transition_line(transitions[t])
            t -= 1
        cost = estimate_tokens(line + "\n")
        if not selected and cost > token_budget:
            return _truncate_tail(line, token_budget)
        if total + cost > token_budget:
            break
        selected.append(line)
        total += cost
    return "\n".join(reversed(selected))
