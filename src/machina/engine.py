"""Agent execution: event dispatch, hierarchical transition resolution,
exit/transition/entry action ordering and the policy-driven run loop.

Step semantics follow statechart convention. Resolving an event walks the
active leaf's own transitions first, then each ancestor's, innermost first,
taking the first declaration whose guard passes. A step exits the active
states innermost-out up to (excluding) the least common ancestor of source
and target, runs the transition's actions in declaration order, then enters
the target chain outermost-in, descending composite ``initial`` links to a
leaf. A self-transition therefore exits and re-enters its state. The event
payload is offered as external arguments to every action the step fires.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

from .actions import (
    ActionContext,
    ActionRegistry,
    ArgumentTypeError,
    RegisteredAction,
    coerce_argument,
)
from .belief import (
    PHASE_ENTRY,
    PHASE_EXIT,
    PHASE_TRANSITION,
    PHASES,
    ActionRecord,
    Belief,
    NotJsonValue,
    ReadOnlyInput,
    StepOutOfOrder,
    TransitionRecord,
    _JSON_SCALARS,
    copy_json,
    kv_get,
    lookup_scope,
    parsed_input,
    snapshot,
)
from .errors import MachinaError
from .guards import evaluate, truthy
from .keypath import ABSENT, JsonValue
from .model import (
    GUARD_ACTION,
    GUARD_EXPRESSION,
    SOURCE_EXTERNAL,
    SOURCE_INTERNAL,
    TRIGGER_EXTERNAL,
    ActionSpec,
    Condition,
    EventInstance,
    ParameterSpec,
    State,
    StateMachine,
    Transition,
    ValidationReport,
    enabled_transitions,
    initial_entry_path,
    parent_chain,
    start_state,
    validate_machine,
)
from .policy import CandidateTransition, PolicyStage, decide
from .providers import CallStats, CompletionProvider
from .values import FrozenValue, Value, tuple_new

STATUS_COMPLETED = "completed"
STATUS_WAITING = "waiting"
STATUS_BUDGET_EXHAUSTED = "budget_exhausted"
STATUS_FAILED = "failed"

DEFAULT_MAX_TRANSITIONS = 10

UNHANDLED_ERROR = "error"
UNHANDLED_IGNORE = "ignore"


class UnhandledEvent(MachinaError):
    def __init__(self, event: str, state: str):
        super().__init__(f"no transition for event {event!r} at state {state!r}")
        self.event = event
        self.state = state


class MissingExternalArgument(MachinaError):
    def __init__(self, name: str):
        super().__init__(f"missing external argument {name!r}")
        self.name = name


class MissingInternalValue(MachinaError):
    def __init__(self, key: str):
        super().__init__(f"belief has no value under {key!r}")
        self.key = key


class ActionFailure(MachinaError):
    def __init__(self, name: str, detail: str):
        super().__init__(f"action {name!r} failed: {detail}")
        self.action = name
        self.detail = detail


class UnknownGuardAction(MachinaError):
    def __init__(self, name: str):
        super().__init__(f"guard action {name!r} is not registered")
        self.name = name


class InvalidMachine(MachinaError):
    def __init__(self, report: ValidationReport):
        details = "; ".join(str(v) for v in report.errors)
        super().__init__(f"machine failed validation: {details}")
        self.report = report


class AgentNotStarted(MachinaError):
    def __init__(self):
        super().__init__("agent has no current state; run it first")


class InvalidEventPayload(MachinaError):
    """An event payload is not a mapping, or is one that
    :func:`~machina.belief.copy_json` rejects."""


class RunLimits(FrozenValue):
    __slots__ = ("max_transitions", "unhandled_event")

    def __init__(
        self, max_transitions: int = DEFAULT_MAX_TRANSITIONS, unhandled_event: str = UNHANDLED_ERROR
    ):
        limit = max_transitions
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise MachinaError(f"max_transitions must be an integer >= 1, got {limit!r}")
        if unhandled_event not in (UNHANDLED_ERROR, UNHANDLED_IGNORE):
            raise MachinaError("unhandled_event must be 'error' or 'ignore'")
        self._set(max_transitions, unhandled_event)


class RunResult(NamedTuple):
    """How a run ended, with a snapshot of the belief at that point.

    A result is a named tuple, as are the records in its snapshot and a
    :class:`StepOutcome`: immutable, indexable and iterable, equal to a
    plain tuple of the same values, and copied with a change by
    ``_replace``.

    ``belief_snapshot`` does not change afterwards: not through later runs or
    dispatches on the agent, not through actions that edit their inputs in
    place and not through edits to the ``EventInstance`` passed in. Its lists
    share the belief's frozen records, whose values were copied as they were
    recorded, and its key-value store is a deep copy. Records and task inputs
    are read-only, and the inputs may be shared with other beliefs (a QA
    belief's ``scene`` is its ``SceneGraph``'s JSON value); ``copy.deepcopy``
    a snapshot before editing its records or inputs. When the key-value store
    holds a value that :func:`~machina.belief.copy_json` rejects (a caller's
    :func:`~machina.belief.kv_set` stores values unchecked), the run is
    ``failed`` with a ``key-value store: ...`` reason, and the snapshot's
    key-value store is empty.
    """

    status: str
    output: JsonValue
    belief_snapshot: Belief
    stats: CallStats
    reason: str | None = None


class StepOutcome(NamedTuple):
    """What :func:`dispatch` did: the ``event`` it was given, the
    ``transition`` that fired, the active leaf before (``source_leaf``) and
    after (``target_leaf``) the step, and the ``records`` of the actions it
    ran, exit, transition and entry actions in that order."""

    event: EventInstance
    transition: Transition
    source_leaf: str
    target_leaf: str
    records: tuple[ActionRecord, ...]


class Agent(Value):
    """A machine bound to a belief, a policy stack, actions and a provider.
    Building one, ``_replace`` included, validates the machine against the
    registry's action names and requires a callable ``select`` of each policy stage."""

    __slots__ = ("machine", "belief", "policy", "registry", "provider", "limits")

    def __init__(
        self,
        machine: StateMachine,
        belief: Belief,
        policy: tuple[PolicyStage, ...],
        registry: ActionRegistry,
        provider: CompletionProvider,
        limits: RunLimits = RunLimits(),
    ):
        # A machine instance is validated once per set of registered names.
        names = registry.names()
        report = machine._memo.get(("report", names))
        if report is None:
            report = validate_machine(machine, names)
            machine._memo[("report", names)] = report
        if not report.ok:
            raise InvalidMachine(report)
        for stage in policy:
            if not callable(getattr(stage, "select", None)):
                raise MachinaError(f"unknown policy stage: {stage!r}")
        self.machine = machine
        self.belief = belief
        self.policy = policy
        self.registry = registry
        self.provider = provider
        self.limits = limits

    @property
    def started(self) -> bool:
        return self.belief.current_state is not None


# ---------------------------------------------------------------------------
# Guards


def eval_guard(
    guard: Condition,
    belief: Belief,
    registry: ActionRegistry,
    provider: CompletionProvider,
) -> bool:
    """Evaluate a transition guard against the belief.

    Expression guards run over the key-value store and the task inputs.
    Action guards invoke the named registered action, binding its internal
    parameters from the belief, and coerce the output by guard truthiness;
    anything the action raises is an :class:`ActionFailure` naming it, as
    for a transition action. Guard evaluation is not logged as an executed
    action; any provider calls it makes still count in the provider's stats.
    """
    if guard.kind == GUARD_EXPRESSION:
        return evaluate(guard.parsed, lookup_scope(belief))
    if guard.kind != GUARD_ACTION:
        raise MachinaError(f"unknown guard kind {guard.kind!r}")
    name = guard.action_name or ""
    registered = registry.lookup(name)
    if registered is None:
        raise UnknownGuardAction(name)
    internal = [p for p in registered.params if p.source == SOURCE_INTERNAL]
    inputs, _ = _bind(registered, internal, {}, belief)
    context = tuple_new(ActionContext, (provider, ActionSpec(name)))
    try:
        output = registered.impl(inputs, context)
    except Exception as exc:
        raise ActionFailure(name, str(exc)) from exc
    return truthy(output)


# ---------------------------------------------------------------------------
# Step planning


class _Step(FrozenValue):
    """What firing ``transition`` from one leaf does; fixed by the machine.
    ``passed`` and ``blocked`` are its candidate with the guard passed and
    failed: only the guard outcome differs from one evaluation to the next."""

    __slots__ = ("transition", "target_leaf", "actions", "passed", "blocked")

    def __init__(
        self,
        transition: Transition,
        target_leaf: str,
        actions: tuple[tuple[str, ActionSpec], ...],
        passed: CandidateTransition,
        blocked: CandidateTransition,
    ):
        self._set(transition, target_leaf, actions, passed, blocked)


def _plan_step(sm: StateMachine, leaf: str, transition: Transition) -> _Step:
    source_chain = [leaf] + parent_chain(sm, leaf)
    target_ancestors = parent_chain(sm, transition.target)
    chain_set = set(source_chain)
    lca = next((a for a in target_ancestors if a in chain_set), None)

    exits = []
    for name in source_chain:
        if name == lca:
            break
        exits.append(sm.state(name))

    entry_names = []
    for name in target_ancestors:
        if name == lca:
            break
        entry_names.append(name)
    entry_names.reverse()
    entry_names.extend(initial_entry_path(sm, transition.target))
    entries = tuple(sm.state(n) for n in entry_names)

    actions = [(PHASE_EXIT, st.exit_action) for st in exits if st.exit_action]
    actions += [(PHASE_TRANSITION, spec) for spec in transition.actions]
    actions += [(PHASE_ENTRY, st.entry_action) for st in entries if st.entry_action]
    required: dict[str, ParameterSpec] = {}
    for _, spec in actions:
        for param in spec.external_params():
            required.setdefault(param.name, param)
    passed = CandidateTransition(
        transition=transition,
        guard_passed=True,
        required_external_params=tuple(required.values()),
        target_description=sm.state(transition.target).description,
    )
    return _Step(
        transition=transition,
        target_leaf=entry_names[-1],
        actions=tuple(actions),
        passed=passed,
        blocked=passed._replace(guard_passed=False),
    )


class _LeafPlan(FrozenValue):
    """What ``run`` reads at any leaf, end leaves too; fixed by the machine.
    ``candidates`` are the steps' ``passed`` candidates and ``waits`` says
    whether all of them need an external trigger, both only when no step is
    guarded (else ``None``): a guard's outcome is never kept."""

    __slots__ = ("state", "steps", "candidates", "waits")

    def __init__(
        self,
        state: State,
        steps: tuple[_Step, ...],
        candidates: Optional[tuple[CandidateTransition, ...]],
        waits: Optional[bool],
    ):
        self._set(state, steps, candidates, waits)


def _leaf_plan(sm: StateMachine, leaf: str) -> _LeafPlan:
    """The plan of ``leaf``, built once per machine instance and memoized
    under the leaf's name (the memo's other keys are tuples). An unknown
    leaf raises :class:`~machina.model.UnknownState` and is not memoized."""
    plan = sm._memo.get(leaf)
    if plan is None:
        state = sm.state(leaf)
        steps = tuple(_plan_step(sm, leaf, t) for t in enabled_transitions(sm, leaf))
        candidates = waits = None
        if all(step.transition.guard is None for step in steps):
            candidates = tuple(step.passed for step in steps)
            waits = all(c.transition.trigger == TRIGGER_EXTERNAL for c in candidates)
        plan = sm._memo[leaf] = _LeafPlan(state, steps, candidates, waits)
    return plan


def candidate_transitions(agent: Agent) -> list[CandidateTransition]:
    """All transitions enabled at the active leaf, in a new list, each with
    its guard evaluated exactly once and its required external parameters
    computed from the actions the step would fire. The candidates are the
    leaf plan's own frozen objects, shared by every agent on the machine; at
    a leaf with no guarded step the list is a copy of the plan's fixed
    candidates, and at any other leaf every guard is evaluated anew;
    :func:`run` calls it only there, in a turn with no pending event."""
    leaf = agent.belief.current_state
    if leaf is None:
        raise AgentNotStarted()
    plan = _leaf_plan(agent.machine, leaf)
    if plan.candidates is not None:
        return list(plan.candidates)
    return [
        step.passed
        if step.transition.guard is None
        or eval_guard(step.transition.guard, agent.belief, agent.registry, agent.provider)
        else step.blocked
        for step in plan.steps
    ]


# ---------------------------------------------------------------------------
# Action execution


def _bind(
    registered: RegisteredAction,
    params: Sequence[ParameterSpec],
    external_args: Mapping[str, JsonValue],
    belief: Belief,
) -> tuple[dict[str, JsonValue], dict[str, JsonValue]]:
    """Inputs for ``params`` and their record form, bound as
    :func:`execute_action` describes."""
    action = registered.name
    inputs: dict[str, JsonValue] = {}
    recorded: dict[str, JsonValue] = {}
    for param in params:
        if param.source == SOURCE_EXTERNAL:
            if param.name not in external_args:
                raise MissingExternalArgument(param.name)
            try:
                value = coerce_argument(external_args[param.name], param.datatype)
            except ArgumentTypeError as exc:
                raise ActionFailure(action, f"argument {param.name!r}: {exc}") from None
            # the event payload stays in the trajectory; the action gets its own copy
            inputs[param.name] = copy_json(value)
            recorded[param.name] = copy_json(value)
            continue
        key = param.resolved_source_key
        value = kv_get(belief, key)
        if value is ABSENT:
            raise MissingInternalValue(key)
        # a task input is read-only: its record names it, its action gets a copy
        shared = bool(belief.inputs) and key.partition(".")[0] in belief.inputs
        try:
            recorded[param.name] = f"<input:{key}>" if shared else copy_json(value)
        except NotJsonValue as exc:
            raise ActionFailure(action, f"parameter {param.name!r}: {exc}") from None
        parse = registered.parsers.get(param.name)
        if parse is None:
            inputs[param.name] = copy_json(value) if shared else value
            continue
        try:
            inputs[param.name] = parsed_input(belief, key, parse) if shared else parse(value)
        except Exception as exc:
            raise ActionFailure(action, f"parameter {param.name!r}: {exc}") from exc
    return inputs, recorded


def execute_action(
    registry: ActionRegistry,
    spec: ActionSpec,
    external_args: Mapping[str, JsonValue],
    belief: Belief,
    provider: CompletionProvider,
    *,
    phase: str = PHASE_TRANSITION,
    step: int = 0,
) -> ActionRecord:
    """Bind parameters, run the action, store its output, log the record.

    ``phase`` must be one of :data:`~machina.belief.PHASES` and ``step``
    must reference step 0, an existing trajectory step or the step in
    flight, as :func:`~machina.belief.record_action` requires; both are
    checked before anything is bound or run, and raise its errors, so a
    refused call runs no action and leaves the store and the log as they
    were. External parameters come from ``external_args`` and are datatype
    checked; internal parameters are read from the task inputs or the
    key-value store under their source keys. The output lands in the store
    under the action's output key. The record holds copies of the inputs as
    the action got them and of its output, so nothing the action or a later
    step does to those values reaches the record. An input bound to a task
    input is recorded as ``"<input:key>"``; the action gets its own copy of
    the value, or, for a parameter the action parses (the scene actions'
    ``scene``), the parse memoized per belief. An output key that is not an
    identifier (tested once per spec), or that names a task input, fails
    before the action runs; an output that
    :func:`~machina.belief.copy_json` rejects fails the step with
    :class:`ActionFailure` and never reaches the store.
    """
    if phase not in PHASES:
        raise MachinaError(f"action phase must be one of {PHASES}, got {phase!r}")
    if not 0 <= step <= len(belief.trajectory) + 1:
        raise StepOutOfOrder(f"action step {step} does not reference an existing step")
    registered = registry.lookup(spec.name)
    if registered is None:
        raise ActionFailure(spec.name, "not registered")
    key = spec.resolved_output_key
    if not spec.output_key_is_identifier:
        raise MachinaError(f"output key of action {spec.name!r} must be an identifier, got {key!r}")
    if key in belief.inputs:
        raise ReadOnlyInput(key)
    if spec.params:
        inputs, recorded_inputs = _bind(registered, spec.params, external_args, belief)
    else:
        inputs, recorded_inputs = {}, {}
    try:
        output = registered.impl(inputs, tuple_new(ActionContext, (provider, spec)))
    except Exception as exc:
        raise ActionFailure(spec.name, str(exc)) from exc
    # copy first: a value that is not JSON must not reach the key-value store;
    # a scalar is immutable, so the record shares it
    try:
        recorded_output = output if type(output) in _JSON_SCALARS else copy_json(output)
    except NotJsonValue as exc:
        raise ActionFailure(spec.name, f"output: {exc}") from None
    belief.kv[key] = output
    record = tuple_new(ActionRecord, (step, spec.name, recorded_inputs, recorded_output, phase))
    belief.execution_log.append(record)
    return record


# ---------------------------------------------------------------------------
# Dispatch and run


def dispatch(agent: Agent, event: EventInstance, _step: Optional[_Step] = None) -> StepOutcome | None:
    """Apply one event to the agent's machine.

    The step fired is the first enabled transition for the event, in
    resolution order, whose guard passes: the steps and what each fires come
    from the active leaf's memoized plan, and guards are evaluated lazily,
    each at most once per call, up to the first that passes. No guard
    outcome outlives the call. :func:`run` passes the ``_step`` of the
    candidate its policy decided on, which fires as it is, with no lookup.

    Returns ``None`` when the event is unhandled and the limits say to
    ignore it. A payload that is not a mapping of plain JSON values raises
    :class:`InvalidEventPayload` before any action runs or record lands; an
    empty payload is recorded as ``None``.
    If an action fails mid-step the transition record is still appended
    (the log keeps referencing valid steps) and the failure propagates.
    """
    belief = agent.belief
    leaf = belief.current_state
    if leaf is None:
        raise AgentNotStarted()
    chosen = _step
    if chosen is None:
        for chosen in _leaf_plan(agent.machine, leaf).steps:
            t = chosen.transition
            if t.event == event.name and (
                t.guard is None or eval_guard(t.guard, belief, agent.registry, agent.provider)
            ):
                break
        else:
            if agent.limits.unhandled_event == UNHANDLED_IGNORE:
                return None
            raise UnhandledEvent(event.name, leaf)

    payload = event.payload
    if type(payload) is not dict:
        if not isinstance(payload, Mapping):
            raise InvalidEventPayload(
                f"event payload must be a mapping, got {type(payload).__name__}"
            )
        payload = dict(payload)
    try:
        payload = copy_json(payload)
    except NotJsonValue as exc:
        raise InvalidEventPayload(f"event payload: {exc}") from None
    trajectory = belief.trajectory
    step = len(trajectory) + 1
    records: list[ActionRecord] = []
    try:
        for phase, spec in chosen.actions:
            records.append(
                execute_action(
                    agent.registry,
                    spec,
                    payload,
                    belief,
                    agent.provider,
                    phase=phase,
                    step=step,
                )
            )
    finally:
        # the check record_transition makes
        if len(trajectory) + 1 != step:
            raise StepOutOfOrder(f"transition step {step}, expected {len(trajectory) + 1}")
        trajectory.append(
            tuple_new(
                TransitionRecord, (step, leaf, chosen.target_leaf, event.name, payload or None)
            )
        )
        belief.current_state = chosen.target_leaf
    return tuple_new(
        StepOutcome, (event, chosen.transition, leaf, chosen.target_leaf, tuple(records))
    )


def start(agent: Agent) -> None:
    """Enter the start state's initial path once, firing entry actions.

    ``run`` calls this implicitly; it is public for callers that drive the
    machine through :func:`dispatch` directly.
    """
    if agent.started:
        return
    path = initial_entry_path(agent.machine, start_state(agent.machine))
    agent.belief.current_state = path[-1]
    for name in path:
        state = agent.machine.state(name)
        if state.entry_action:
            execute_action(
                agent.registry,
                state.entry_action,
                {},
                agent.belief,
                agent.provider,
                phase=PHASE_ENTRY,
                step=0,
            )


def _result(agent: Agent, status: str, reason: str | None = None) -> RunResult:
    try:
        belief = snapshot(agent.belief)
    except NotJsonValue as exc:
        status = STATUS_FAILED
        reason = f"{reason}; key-value store: {exc}" if reason else f"key-value store: {exc}"
        belief = snapshot(agent.belief._replace(kv={}))
    log = agent.belief.execution_log
    output = log[-1].output if log else None
    return tuple_new(RunResult, (status, output, belief, agent.provider.snapshot_stats(), reason))


def run(agent: Agent, initial_event: EventInstance | None = None) -> RunResult:
    """Drive the agent until it completes, waits, exhausts its budget or fails.

    A fresh agent first enters the start state's initial path, firing entry
    actions along it. Each turn then follows one path: plan the active leaf
    (memoized, end leaves included); an end leaf completes the run; with no
    pending event the run waits if every guard-passed candidate needs an
    external trigger (the belief is preserved, so a later
    ``run(agent, event)`` resumes); the transition budget ends the run once
    the trajectory reaches the limit; otherwise :func:`dispatch` resolves a
    pending event by name, or else fires the step of the candidate
    ``decide`` chose. Only a turn with no pending event reads candidates:
    the plan's fixed tuple at a leaf with no guarded step, else one
    :func:`candidate_transitions` list. The result carries the output of
    the last executed action.
    """
    try:
        if agent.belief.current_state is None:
            start(agent)
        pending = initial_event
        memo = agent.machine._memo
        while True:
            leaf = agent.belief.current_state
            plan = memo.get(leaf)
            if plan is None:
                plan = _leaf_plan(agent.machine, leaf)
            if plan.state.is_end:
                return _result(agent, STATUS_COMPLETED)
            event, pending = pending, None
            if event is None:
                candidates, waits = plan.candidates, plan.waits
                if candidates is None:
                    candidates = candidate_transitions(agent)
                    waits = all(
                        c.transition.trigger == TRIGGER_EXTERNAL for c in candidates if c.guard_passed
                    )
                if waits:
                    return _result(agent, STATUS_WAITING)
            if len(agent.belief.trajectory) >= agent.limits.max_transitions:
                return _result(agent, STATUS_BUDGET_EXHAUSTED)
            if event is None:
                chosen, event = decide(agent.policy, plan.state, candidates, agent.belief, agent.provider)
                for step in plan.steps:
                    if step.passed is chosen:
                        break
                dispatch(agent, event, step)
            else:
                dispatch(agent, event)
    except MachinaError as exc:
        return _result(agent, STATUS_FAILED, reason=str(exc))
