"""Transition selection: fast-forward, rule-based and LLM-based policies.

A policy receives the current state, the candidate transitions (with guards
already evaluated) and the belief, and yields an :class:`EventInstance`,
which ``decide`` maps to the candidate the engine fires. Policies are
stacked: the fast-forward shortcut always runs first, then each stage in
order until one selects. A stage is any object with
``select(state, selectable, belief, provider)``, as :class:`PolicyStage` says.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Mapping, NamedTuple, Protocol, Sequence, Union

from .actions import ArgumentTypeError, coerce_argument
from .belief import Belief, lookup_scope, render_history
from .errors import MachinaError, SchemaError, check_keys, quoted, require_list, require_object, require_string
from .guards import GuardExpr, evaluate, parse_guard, resolve_kv_path
from .json_extract import first_json_object, read_json
from .keypath import ABSENT, BadPath, JsonValue, split_path
from .model import TRIGGER_EXTERNAL, TRIGGER_INTERNAL, ActionSpec, EventInstance, ParameterSpec, State, Transition
from .providers import CompletionProvider, _reply_text
from .values import EMPTY_MAPPING, FrozenValue, distinct, tuple_new

DEFAULT_HISTORY_BUDGET = 3000
PARSE_RETRIES = 1
OUTPUT_INSTRUCTION = (
    "Choose the next transition. Reply with exactly one JSON object of the form "
    '{"event": "<event name>", "arguments": {<param name>: <value>}}.'
)


class PolicyError(MachinaError):
    """Base class for selection failures."""


class NoCandidates(PolicyError):
    def __init__(self):
        super().__init__("no guard-passed candidate transitions")


class Unparseable(PolicyError):
    def __init__(self, reply: str):
        super().__init__(f"reply contains no usable JSON object: {quoted(reply)}")


class UnknownEvent(PolicyError):
    def __init__(self, event: str):
        super().__init__(f"event {quoted(event)} is not among the candidates")
        self.event = event


class MissingArgument(PolicyError):
    def __init__(self, name: str):
        super().__init__(f"missing required argument {name!r}")
        self.name = name


class BadArgumentType(PolicyError):
    def __init__(self, name: str, detail: str):
        super().__init__(f"argument {name!r}: {detail}")
        self.name = name


class RuleArgumentUnresolvable(PolicyError):
    def __init__(self, path: str):
        super().__init__(f"rule argument references absent belief path {path!r}")
        self.path = path


class PolicyFailure(PolicyError):
    """A stage produced no usable selection: the LLM policy after retries, or
    a ``select`` that raised a non-:class:`MachinaError` or returned a non-event."""


class PolicyExhausted(PolicyError):
    def __init__(self):
        super().__init__("no policy stage produced a selection")


class CandidateTransition(FrozenValue):
    """One enabled transition with its evaluated guard, the external
    parameters that would have to be supplied to select it (union over the
    transition's actions and the exit/entry actions the step would run) and
    the ``target_description`` the prompt shows; and the step it fires: the
    ``target_leaf`` it ends in and its ``(phase, ActionSpec)`` ``actions``,
    exit, transition and entry in that order. A leaf plan's candidates pass
    their guards; a failed guard is a copy with ``guard_passed=False``."""

    __slots__ = (
        "transition",
        "guard_passed",
        "required_external_params",
        "target_description",
        "target_leaf",
        "actions",
        "__dict__",
    )

    def __init__(
        self,
        transition: Transition,
        guard_passed: bool,
        required_external_params: tuple[ParameterSpec, ...] = (),
        target_description: str = "",
        target_leaf: str = "",
        actions: tuple[tuple[str, ActionSpec], ...] = (),
    ):
        self._set(transition, guard_passed, required_external_params, target_description, target_leaf, actions)

    @cached_property
    def prompt_line(self) -> str:
        """This candidate's line under ``# Available transitions``. The leaf
        plans' candidates are shared by every agent, so each line is
        formatted once per process."""
        t = self.transition
        if self.required_external_params:
            params = ", ".join(
                f"{p.name}: {p.datatype}" + (f" ({p.description})" if p.description else "")
                for p in self.required_external_params
            )
        else:
            params = "none"
        return f"- {t.event} -> {t.target}: {self.target_description} | params: {params}"


@distinct
class PathRef(NamedTuple):
    """Marks a rule argument resolved from the belief at selection time."""

    path: str


class Rule(FrozenValue):
    """The default ``emit_arguments`` is a shared, read-only empty mapping."""

    __slots__ = ("emit_event", "when_state", "when_guard", "emit_arguments")

    def __init__(
        self,
        emit_event: str,
        when_state: str | None = None,
        when_guard: GuardExpr | None = None,
        emit_arguments: Mapping[str, Union[PathRef, JsonValue]] = EMPTY_MAPPING,
    ):
        if when_state is None and when_guard is None:
            raise MachinaError("a rule needs when_state and/or when_guard")
        self._set(emit_event, when_state, when_guard, emit_arguments)


@distinct
class RulePolicy(NamedTuple):
    rules: tuple[Rule, ...]

    def select(self, state, selectable, belief, provider):
        return rule_decide(self.rules, state, selectable, belief)


class LlmPolicy(FrozenValue):
    __slots__ = ("task_description", "history_token_budget")

    def __init__(self, task_description: str, history_token_budget: int = DEFAULT_HISTORY_BUDGET):
        budget = history_token_budget
        if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
            raise MachinaError(f"history_token_budget must be an integer >= 1, got {budget!r}")
        self._set(task_description, history_token_budget)

    def select(self, state, selectable, belief, provider):
        return llm_decide(self, provider, state, selectable, belief) if selectable else None


class PolicyStage(Protocol):
    """``select`` returns an event among ``selectable``, or ``None`` to pass
    to the next stage; ``decide`` fires the first selectable candidate with
    that event's name. A stage always gets a read-only sequence. At a leaf
    with no guarded step it is the leaf plan's, shared by every turn and
    agent on the machine."""

    def select(
        self, state: State, selectable: Sequence[CandidateTransition], belief: Belief, provider: CompletionProvider
    ) -> EventInstance | None: ...


class _Candidates(tuple):
    """Candidates in resolution order, as one read-only sequence, with what
    the policy functions derive from them kept as ``cached_property`` memos.
    A leaf plan whose candidates the machine fixes holds one, so each memo is
    computed once per machine and shared by every agent and turn; any other
    lasts one turn (at a guarded leaf) or one call of a policy function
    given a list. Each memo's worth in oracle-mix's items/s, against a plain
    property: passing 2.0%, selectable 22%, forced 1.0%, by_event 3.4%
    and transition_lines 2.7% (BENCH_ablation.json)."""

    @cached_property
    def waits(self) -> bool:
        """Every guard-passed candidate needs an external trigger."""
        return all(c.transition.trigger == TRIGGER_EXTERNAL for c in self.passing)

    @cached_property
    def passing(self) -> _Candidates:
        """The guard-passed candidates."""
        return _Candidates(c for c in self if c.guard_passed)

    @cached_property
    def selectable(self) -> _Candidates:
        """Candidates a policy may fire: guard passed and internally triggered."""
        return _Candidates(c for c in self.passing if c.transition.trigger == TRIGGER_INTERNAL)

    @cached_property
    def forced(self) -> EventInstance | None:
        """The event :func:`fast_forward` fires, or ``None``."""
        eligible = self.selectable
        if len(eligible) == 1 and not eligible[0].required_external_params:
            return EventInstance(eligible[0].transition.event)
        return None

    @cached_property
    def by_event(self) -> dict[str, CandidateTransition]:
        """The first guard-passed candidate with each event name."""
        return {c.transition.event: c for c in reversed(self.passing)}

    @cached_property
    def transition_lines(self) -> str:
        """The prompt's ``# Available transitions`` lines, one per guard-passed
        candidate."""
        return "\n".join([c.prompt_line for c in self.passing])

    def first(self, event) -> CandidateTransition | None:
        """The first guard-passed candidate whose event is ``event``; a name
        that cannot be hashed names none."""
        try:
            return self.by_event.get(event)
        except TypeError:
            return None


def _plan(candidates: Sequence[CandidateTransition]) -> _Candidates:
    """``candidates`` as a :class:`_Candidates`, wrapped unless it is one."""
    return candidates if type(candidates) is _Candidates else _Candidates(candidates)


def fast_forward(candidates: Sequence[CandidateTransition]) -> EventInstance | None:
    """Skip the policy when the choice is forced.

    Fires only when exactly one guard-passed, internally triggered candidate
    exists and it needs no external parameters (the shortcut cannot invent
    arguments).
    """
    return _plan(candidates).forced


def rule_decide(
    rules: Sequence[Rule],
    state: State,
    candidates: Sequence[CandidateTransition],
    belief: Belief,
) -> EventInstance | None:
    """First rule that matches the state, passes its guard and emits an
    event present among the guard-passed candidates wins.

    Rules whose event is not a candidate here, or whose arguments do not
    cover the candidate's required parameters, are skipped so one rule list
    can serve many states.
    """
    plan = _plan(candidates)
    scope = lookup_scope(belief)
    for rule in rules:
        if rule.when_state is not None and rule.when_state != state.name:
            continue
        if rule.when_guard is not None and not evaluate(rule.when_guard, scope):
            continue
        candidate = plan.first(rule.emit_event)
        if candidate is None:
            continue
        arguments: dict[str, JsonValue] = {}
        for name, source in rule.emit_arguments.items():
            if isinstance(source, PathRef):
                value = resolve_kv_path(scope, split_path(source.path))
                if value is ABSENT:
                    raise RuleArgumentUnresolvable(source.path)
                arguments[name] = value
            else:
                arguments[name] = source
        if any(p.name not in arguments for p in candidate.required_external_params):
            continue
        return tuple_new(EventInstance, (rule.emit_event, arguments))
    return None


def build_policy_prompt(
    policy: LlmPolicy,
    state: State,
    candidates: Sequence[CandidateTransition],
    belief: Belief,
) -> str:
    """Deterministic five-section prompt: task description and the task
    context messages, execution history, current state, available
    transitions, output instruction."""
    plan = _plan(candidates)
    if not plan.passing:
        raise NoCandidates()
    lines = ["# Task", policy.task_description]
    lines += [f"{role}: {text}" for role, text in belief.task_context]
    lines.append("")
    lines += ["# Execution history", render_history(belief, policy.history_token_budget), ""]
    lines += ["# Current state", f"{state.name}: {state.description}", ""]
    lines += ["# Available transitions", plan.transition_lines]
    lines += ["", "# Output instruction", OUTPUT_INSTRUCTION]
    return "\n".join(lines)


def parse_policy_response(
    text: str, candidates: Sequence[CandidateTransition]
) -> EventInstance:
    """Extract the first JSON object from a reply and validate it.

    Expected shape: ``{"event": str, "arguments": {..}?}``. The event must
    belong to a guard-passed candidate and the arguments must cover that
    candidate's required external parameters at their declared datatypes.
    """
    doc = first_json_object(text)
    if doc is None or not isinstance(doc.get("event"), str):
        raise Unparseable(text)
    arguments = doc.get("arguments", {})
    if not isinstance(arguments, dict):
        raise Unparseable(text)
    event = doc["event"]
    candidate = _plan(candidates).first(event)
    if candidate is None:
        raise UnknownEvent(event)
    coerced = dict(arguments)
    for param in candidate.required_external_params:
        if param.name not in arguments:
            raise MissingArgument(param.name)
        try:
            coerced[param.name] = coerce_argument(arguments[param.name], param.datatype)
        except ArgumentTypeError as exc:
            raise BadArgumentType(param.name, str(exc)) from None
    return tuple_new(EventInstance, (event, coerced))


def llm_decide(
    policy: LlmPolicy,
    provider: CompletionProvider,
    state: State,
    candidates: Sequence[CandidateTransition],
    belief: Belief,
) -> EventInstance:
    """Prompt, complete, parse; on a bad reply retry with the error appended.
    Each reply comes from ``providers._reply_text``, so one that is not a
    ``str`` raises :class:`~machina.providers.ReplyNotText`, not retried."""
    candidates = _plan(candidates)
    prompt = build_policy_prompt(policy, state, candidates, belief)
    last_error: PolicyError | None = None
    for _ in range(PARSE_RETRIES + 1):
        reply = _reply_text(provider, prompt)
        try:
            return parse_policy_response(reply, candidates)
        except (Unparseable, UnknownEvent, MissingArgument, BadArgumentType) as exc:
            last_error = exc
            prompt += (
                "\n\n# Correction\n"
                f"Your previous reply could not be used: {exc}. "
                "Reply again with exactly one JSON object."
            )
    raise PolicyFailure(str(last_error)) from last_error


def decide(
    stack: Sequence[PolicyStage],
    state: State,
    candidates: Sequence[CandidateTransition],
    belief: Belief,
    provider: CompletionProvider,
) -> tuple[CandidateTransition, EventInstance]:
    """Fast-forward, then each stage's ``select`` in order: the first
    selection that is not ``None`` wins. Returns the first selectable
    candidate in ``candidates`` whose event is that selection's, with the
    selection; naming none raises :class:`UnknownEvent`. An empty stack is
    allowed for machines whose every step fast-forwards; any other step then
    exhausts the policy. A stage that raises anything but a ``MachinaError``
    (which passes through), or returns neither ``None`` nor an
    :class:`EventInstance`, raises :class:`PolicyFailure` naming the stage.

    Every stage gets the one read-only ``selectable`` of the candidates as
    a :class:`_Candidates`; given a leaf plan's, the plan's own.
    """
    plan = _plan(candidates)
    selection = fast_forward(plan)
    if selection is None:
        for stage in stack:
            try:
                selection = stage.select(state, plan.selectable, belief, provider)
            except MachinaError:
                raise
            except Exception as exc:
                raise PolicyFailure(f"policy stage {type(stage).__name__} raised {quoted(exc)}") from exc
            if selection is not None:
                break
        else:
            raise PolicyExhausted()
        if not isinstance(selection, EventInstance):
            raise PolicyFailure(f"policy stage {type(stage).__name__} returned {quoted(selection)}")
    chosen = plan.selectable.first(selection.name)
    if chosen is None:
        raise UnknownEvent(selection.name)
    return chosen, selection


# ---------------------------------------------------------------------------
# Rule file loading


def rules_from_value(doc: JsonValue) -> tuple[Rule, ...]:
    """Rules from a decoded JSON array.

    Each entry is ``{"emit_event": str, "when_state": str?, "when_guard":
    <DSL text>?, "emit_arguments": {name: value}?}``; an argument value of
    the form ``{"$ref": "<dotted path>"}`` is resolved from the belief when
    the rule fires, anything else is a literal. A ``$ref`` path is checked
    here (an empty path or segment is a :class:`SchemaError`) and read as a
    guard path is, so a leading ``kv.`` names the store root.
    """
    rules = []
    for i, raw in enumerate(require_list(doc, "")):
        pointer = f"/{i}"
        obj = require_object(raw, pointer)
        keys = ("emit_event", "when_state", "when_guard", "emit_arguments")
        check_keys(obj, keys, ("emit_event",), pointer)
        event = require_string(obj, "emit_event", pointer)
        when_state = None
        if obj.get("when_state") is not None:
            when_state = require_string(obj, "when_state", pointer)
        when_guard = None
        if "when_guard" in obj:
            when_guard = parse_guard(require_string(obj, "when_guard", pointer))
        arguments: dict[str, Union[PathRef, JsonValue]] = {}
        raw_args = require_object(obj.get("emit_arguments", {}), f"{pointer}/emit_arguments")
        for name, value in raw_args.items():
            if isinstance(value, dict) and set(value) == {"$ref"} and isinstance(value["$ref"], str):
                try:
                    split_path(value["$ref"])
                except BadPath as exc:
                    raise SchemaError(f"{pointer}/emit_arguments/{name}/$ref", str(exc)) from None
                arguments[name] = PathRef(value["$ref"])
            else:
                arguments[name] = value
        if when_state is None and when_guard is None:
            raise SchemaError(pointer, "rule needs when_state and/or when_guard")
        rules.append(Rule(event, when_state, when_guard, arguments))
    return tuple(rules)


def load_rules(path: str | Path) -> tuple[Rule, ...]:
    return rules_from_value(read_json(Path(path).read_bytes()))
