"""State machine definition data and structural validation.

A machine is immutable data: a tree of simple and composite states plus a
flat list of transitions. These classes carry no execution behaviour; they
answer structural questions only (start state, parent chains, which
transitions apply to a state) and are checked for well-formedness by
:func:`validate_machine`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Optional

from .errors import MachinaError
from .guards import GuardExpr, GuardSyntaxError, parse_guard
from .keypath import JsonValue
from .values import EMPTY_MAPPING, FrozenValue, distinct

TAG_START = "start"
TAG_END = "end"
TAGS = (TAG_START, TAG_END)

SOURCE_EXTERNAL = "external"
SOURCE_INTERNAL = "internal"
PARAM_SOURCES = (SOURCE_EXTERNAL, SOURCE_INTERNAL)

DATATYPES = ("string", "number", "boolean", "json")

TRIGGER_INTERNAL = "internal"
TRIGGER_EXTERNAL = "external"
TRIGGERS = (TRIGGER_INTERNAL, TRIGGER_EXTERNAL)

GUARD_EXPRESSION = "expression"
GUARD_ACTION = "action"


class UnknownState(MachinaError):
    def __init__(self, name: str):
        super().__init__(f"unknown state: {name}")
        self.name = name


def is_identifier(text: object) -> bool:
    """Whether ``text`` is a string matching ``[A-Za-z_][A-Za-z0-9_]*``:
    the ASCII Python identifiers, keywords included."""
    return isinstance(text, str) and text.isascii() and text.isidentifier()


class ParameterSpec(FrozenValue):
    """Declared action parameter.

    External parameters are supplied by the caller of the action (an event
    payload or a policy decision); internal parameters are read from the
    agent's key-value store under ``source_key`` (defaulting to the
    parameter name).
    """

    __slots__ = ("name", "source", "datatype", "description", "source_key")

    def __init__(
        self,
        name: str,
        source: str,
        datatype: str,
        description: str = "",
        source_key: Optional[str] = None,
    ):
        self._set(name, source, datatype, description, source_key)

    @property
    def resolved_source_key(self) -> str:
        return self.source_key if self.source_key is not None else self.name


class ActionSpec(FrozenValue):
    """Reference to a named action with its per-usage parameter bindings.

    ``output_key`` names the key-value slot that receives the action's
    output; it defaults to the action name.
    """

    __slots__ = ("name", "output_key", "params", "__dict__")

    def __init__(
        self, name: str, output_key: Optional[str] = None, params: tuple[ParameterSpec, ...] = ()
    ):
        self._set(name, output_key, params)

    # memos: with State.is_end, worth 7% of resume-loop's items/s (BENCH_ablation.json)
    @cached_property
    def resolved_output_key(self) -> str:
        return self.output_key if self.output_key is not None else self.name

    @cached_property
    def output_key_is_identifier(self) -> bool:
        return is_identifier(self.resolved_output_key)

    def external_params(self) -> tuple[ParameterSpec, ...]:
        return tuple(p for p in self.params if p.source == SOURCE_EXTERNAL)


class Condition(FrozenValue):
    """Transition guard: a DSL expression over the belief, or an action name."""

    __slots__ = ("kind", "expression", "action_name", "__dict__")

    def __init__(
        self, kind: str, expression: Optional[str] = None, action_name: Optional[str] = None
    ):
        self._set(kind, expression, action_name)

    @cached_property
    def parsed(self) -> GuardExpr:
        """The expression's AST, parsed once per condition; raises
        :class:`~machina.guards.GuardSyntaxError` (uncached) when it does
        not parse."""
        return parse_guard(self.expression or "")

    def describe(self) -> str:
        if self.kind == GUARD_EXPRESSION:
            return self.expression or ""
        return f"action:{self.action_name}"


class Transition(FrozenValue):
    """Directed edge between states, fired by an event.

    ``trigger`` records whether the event may be produced internally by a
    policy or must arrive from outside the agent; a state whose passing
    transitions are all external leaves the run loop waiting for input.
    """

    __slots__ = ("source", "target", "event", "guard", "actions", "trigger")

    def __init__(
        self,
        source: str,
        target: str,
        event: str,
        guard: Optional[Condition] = None,
        actions: tuple[ActionSpec, ...] = (),
        trigger: str = TRIGGER_INTERNAL,
    ):
        self._set(source, target, event, guard, actions, trigger)


@distinct
class EventInstance(NamedTuple):
    """A named trigger with an optional JSON payload: what a policy picks and
    what the engine dispatches. The default payload is a shared, read-only
    empty mapping."""

    name: str
    payload: Mapping[str, JsonValue] = EMPTY_MAPPING


class State(FrozenValue):
    """Simple or composite state. Composite iff ``substates`` is nonempty."""

    __slots__ = (
        "name",
        "description",
        "tags",
        "entry_action",
        "exit_action",
        "substates",
        "initial",
        "__dict__",
    )

    def __init__(
        self,
        name: str,
        description: str = "",
        tags: frozenset[str] = frozenset(),
        entry_action: Optional[ActionSpec] = None,
        exit_action: Optional[ActionSpec] = None,
        substates: tuple["State", ...] = (),
        initial: Optional[str] = None,
    ):
        self._set(name, description, tags, entry_action, exit_action, substates, initial)

    @property
    def is_composite(self) -> bool:
        return bool(self.substates)

    @cached_property
    def is_end(self) -> bool:
        return TAG_END in self.tags


class StateMachine(FrozenValue):
    __slots__ = ("name", "states", "transitions", "__dict__")

    def __init__(self, name: str, states: tuple[State, ...], transitions: tuple[Transition, ...]):
        self._set(name, states, transitions)

    @cached_property
    def _index(
        self,
    ) -> tuple[dict[str, State], dict[str, Optional[str]], dict[str, list[Transition]]]:
        """States by name and each state's parent (the first of a repeated
        name wins), and the transitions leaving each state in declaration
        order: everything structural is read from here."""
        by_name: dict[str, State] = {}
        parents: dict[str, Optional[str]] = {}
        for st, parent in _walk_with_parents(self.states):
            if st.name not in by_name:
                by_name[st.name] = st
                parents[st.name] = parent.name if parent else None
        outgoing: dict[str, list[Transition]] = {}
        for t in self.transitions:
            outgoing.setdefault(t.source, []).append(t)
        return by_name, parents, outgoing

    @cached_property
    def _memo(self) -> dict:
        """What the engine derives from this instance (validation reports,
        leaf plans), kept per instance: a frozen tree is too slow to hash
        on every lookup. A ``_replace`` copy starts empty."""
        return {}

    def state(self, name: str) -> State:
        found = self._index[0].get(name)
        if found is None:
            raise UnknownState(name)
        return found


# ---------------------------------------------------------------------------
# Structure queries


def start_state(sm: StateMachine) -> str:
    """Name of the unique top-level state tagged ``start``."""
    starts = [s.name for s in sm.states if TAG_START in s.tags]
    if len(starts) != 1:
        raise MachinaError(
            f"machine {sm.name!r} has {len(starts)} top-level start states"
        )
    return starts[0]


def parent_chain(sm: StateMachine, state: str) -> list[str]:
    """Ancestors of ``state``, innermost first, excluding the state itself."""
    parents = sm._index[1]
    if state not in parents:
        raise UnknownState(state)
    chain = []
    current = parents[state]
    while current is not None:
        chain.append(current)
        current = parents[current]
    return chain


def enabled_transitions(sm: StateMachine, state: str) -> list[Transition]:
    """Transitions applicable at ``state``: its own first (declaration
    order), then each ancestor's, innermost ancestor first. Guards are not
    evaluated here."""
    outgoing = sm._index[2]
    result = list(outgoing.get(state, ()))
    for owner in parent_chain(sm, state):
        result.extend(outgoing.get(owner, ()))
    return result


def initial_entry_path(sm: StateMachine, state: str) -> list[str]:
    """Path from ``state`` down its ``initial`` links to a simple leaf.

    Raises :class:`MachinaError` at a composite whose ``initial`` is not one
    of its children, so the walk only descends and always ends."""
    by_name, parents, _ = sm._index
    current = sm.state(state)
    path = [current.name]
    while current.is_composite:
        if parents.get(current.initial) != current.name:
            raise MachinaError(
                f"initial substate {current.initial!r} of {current.name!r} "
                "is not among its children"
            )
        current = by_name[current.initial]
        path.append(current.name)
    return path


# ---------------------------------------------------------------------------
# Validation

DUPLICATE_STATE = "DuplicateState"
MISSING_START = "MissingStart"
MULTIPLE_START = "MultipleStart"
MISSING_END = "MissingEnd"
DANGLING_TRANSITION = "DanglingTransition"
END_HAS_OUTGOING = "EndHasOutgoing"
COMPOSITE_WITHOUT_INITIAL = "CompositeWithoutInitial"
UNKNOWN_ACTION = "UnknownAction"
BAD_GUARD = "BadGuard"
UNREACHABLE_STATE = "UnreachableState"
SHADOWED_TRANSITION = "ShadowedTransition"

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@distinct
class Violation(NamedTuple):
    cls: str
    severity: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.cls}: {self.message}"


class ValidationReport(FrozenValue):
    """Iterating a report yields its violations, and a report is true when
    it holds no error (a named tuple's iteration and truth are its fields')."""

    __slots__ = ("violations",)

    def __init__(self, violations: tuple[Violation, ...]):
        self._set(violations)

    @property
    def errors(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == SEVERITY_ERROR)

    @property
    def warnings(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == SEVERITY_WARNING)

    @property
    def ok(self) -> bool:
        return not self.errors

    def __bool__(self) -> bool:
        return self.ok

    def __iter__(self):
        return iter(self.violations)


def _walk_with_parents(
    states: tuple[State, ...], parent: Optional[State] = None
) -> Iterator[tuple[State, Optional[State]]]:
    """Every state with its parent, depth first in declaration order."""
    stack = [(st, parent) for st in reversed(states)]
    while stack:
        st, parent = stack.pop()
        yield st, parent
        stack.extend((sub, st) for sub in reversed(st.substates))


def validate_machine(sm: StateMachine, known_actions: frozenset[str] | set[str]) -> ValidationReport:
    """Check every structural rule; violations are data, not exceptions.

    The report contains at most one ``DuplicateState`` per repeated name and
    is invariant (as a multiset) under reordering of states and transitions,
    except for ``ShadowedTransition``, which depends on the order of one
    state's transitions. Unreachable states are reported as warnings so that
    machines may ship optional externally-triggered branches.

    A transition is shadowed, and reported as a warning, when an earlier
    transition on the same source state has the same event and no guard:
    dispatch by name and a policy decision both take the earlier one, so the
    later one never fires. An earlier transition that is not internally
    triggered does not shadow a later internal one, which a decision can
    still choose. A transition on a composite state is shadowed, by the same
    rule, when at every leaf beneath it a transition of the leaf or of a
    state between the two comes first: a leaf's candidates list its own
    transitions, then each ancestor's, innermost first. An end leaf counts
    as shadowing it, since :func:`~machina.engine.run` stops there; a caller
    of :func:`~machina.engine.dispatch` at an end leaf can still fire it.
    """
    violations: list[Violation] = []
    known = frozenset(known_actions)
    by_name, parents, outgoing = sm._index
    # per state, for each leaf beneath it: the states from the leaf up to
    # (not including) that state, whose transitions a candidate list puts
    # ahead of the state's own
    below: dict[str, list[list[str]]] = {}
    for name, st in by_name.items():
        if st.is_composite:
            continue
        chain = [name]
        owner = parents[name]
        while owner is not None:
            below.setdefault(owner, []).append(chain[:])
            chain.append(owner)
            owner = parents[owner]
    # per (source, event): the subject of the first unguarded transition,
    # and of the first unguarded internal one
    unguarded: dict[tuple[str, str], str] = {}
    unguarded_internal: dict[tuple[str, str], str] = {}

    def error(cls: str, subject: str, message: str) -> None:
        violations.append(Violation(cls, SEVERITY_ERROR, subject, message))

    def check_action(where: str, spec: Optional[ActionSpec]) -> None:
        if spec is not None and spec.name not in known:
            error(UNKNOWN_ACTION, where, f"action {spec.name!r} ({where}) is not registered")

    seen: dict[str, int] = {}
    any_end = False
    for st, parent in _walk_with_parents(sm.states):
        seen[st.name] = seen.get(st.name, 0) + 1
        if parent is not None and TAG_START in st.tags:
            error(
                MULTIPLE_START,
                st.name,
                f"nested state {st.name!r} carries the 'start' tag; "
                "composites designate their entry substate via 'initial'",
            )
        if TAG_END in st.tags:
            any_end = True
            if st.name in outgoing:
                error(END_HAS_OUTGOING, st.name, f"end state {st.name!r} has outgoing transitions")
        if not st.is_composite:
            if st.initial is not None:
                error(
                    COMPOSITE_WITHOUT_INITIAL,
                    st.name,
                    f"state {st.name!r} designates an initial substate but has no substates",
                )
        elif st.initial is None:
            error(
                COMPOSITE_WITHOUT_INITIAL,
                st.name,
                f"composite state {st.name!r} has no initial substate",
            )
        elif all(c.name != st.initial for c in st.substates):
            error(
                COMPOSITE_WITHOUT_INITIAL,
                st.name,
                f"initial substate {st.initial!r} of {st.name!r} is not among its children",
            )
        check_action(f"state {st.name} entry", st.entry_action)
        check_action(f"state {st.name} exit", st.exit_action)
    for name, count in seen.items():
        if count > 1:
            error(DUPLICATE_STATE, name, f"state name {name!r} defined {count} times")
    if not any_end:
        error(MISSING_END, sm.name, "no state anywhere is tagged 'end'")

    for t in sm.transitions:
        subject = f"{t.source}--{t.event}-->{t.target}"
        for endpoint, name in (("source", t.source), ("target", t.target)):
            if name not in seen:
                error(
                    DANGLING_TRANSITION, subject, f"transition {endpoint} {name!r} is not a state"
                )
        for spec in t.actions:
            check_action(f"transition {subject}", spec)
        key = (t.source, t.event)
        internal = t.trigger == TRIGGER_INTERNAL
        earlier = (unguarded_internal if internal else unguarded).get(key)
        if earlier is not None:
            violations.append(
                Violation(
                    SHADOWED_TRANSITION,
                    SEVERITY_WARNING,
                    subject,
                    f"transition {subject} can never fire: the earlier transition "
                    f"{earlier} has the same event and no guard",
                )
            )
        elif t.source in below and all(
            by_name[chain[0]].is_end
            or any(
                u.event == t.event
                and u.guard is None
                and (not internal or u.trigger == TRIGGER_INTERNAL)
                for state in chain
                for u in outgoing.get(state, ())
            )
            for chain in below[t.source]
        ):
            violations.append(
                Violation(
                    SHADOWED_TRANSITION,
                    SEVERITY_WARNING,
                    subject,
                    f"transition {subject} can never fire in a run: at every leaf beneath "
                    f"{t.source!r} a run has ended or an earlier transition has the same event "
                    "and no guard",
                )
            )
        guard = t.guard
        if guard is None:
            unguarded.setdefault(key, subject)
            if internal:
                unguarded_internal.setdefault(key, subject)
            continue
        if guard.kind == GUARD_ACTION:
            if not guard.action_name:
                error(BAD_GUARD, subject, "guard action has no name")
            elif guard.action_name not in known:
                error(
                    UNKNOWN_ACTION,
                    subject,
                    f"guard action {guard.action_name!r} is not registered",
                )
        elif guard.kind == GUARD_EXPRESSION:
            try:
                guard.parsed  # kept on the condition for eval_guard
            except GuardSyntaxError as exc:
                error(BAD_GUARD, subject, f"guard does not parse: {exc}")
        else:
            error(BAD_GUARD, subject, f"unknown guard kind {guard.kind!r}")

    top_starts = [s.name for s in sm.states if TAG_START in s.tags]
    if not top_starts:
        error(MISSING_START, sm.name, "no top-level state is tagged 'start'")
    elif len(top_starts) > 1:
        error(
            MULTIPLE_START,
            sm.name,
            f"multiple top-level start states: {', '.join(top_starts)}",
        )
    else:
        violations.extend(_reachability_warnings(sm, top_starts[0]))
    return ValidationReport(tuple(violations))


def _reachability_warnings(sm: StateMachine, start: str) -> list[Violation]:
    """One work-list pass from ``start``: entering a state enters its parent
    and its ``initial`` child, and enables the transitions it is the source
    of. Since every ancestor of an entered state is entered too, a
    transition whose source is entered applies, as it does while any
    descendant is active."""
    by_name, parents, outgoing = sm._index
    reached: set[str] = set()
    work: list[Optional[str]] = [start]
    while work:
        name = work.pop()
        if name in reached or name not in by_name:
            continue
        reached.add(name)
        work.append(parents[name])
        if by_name[name].is_composite:
            work.append(by_name[name].initial)
        work.extend(t.target for t in outgoing.get(name, ()))
    return [
        Violation(
            UNREACHABLE_STATE,
            SEVERITY_WARNING,
            name,
            f"state {name!r} cannot be reached from the start state",
        )
        for name in sorted(by_name)
        if name not in reached
    ]
