"""State machine definition data and structural validation.

A machine is immutable data: a tree of simple and composite states plus a
flat list of transitions. These classes carry no execution behaviour; they
answer structural questions only (start state, parent chains, which
transitions apply to a state) and are checked for well-formedness by
:func:`validate_machine`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Optional

from .errors import MachinaError
from .guards import GuardExpr, GuardSyntaxError, parse_guard
from .keypath import JsonValue

IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

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
    return isinstance(text, str) and IDENTIFIER_RE.fullmatch(text) is not None


@dataclass(frozen=True)
class ParameterSpec:
    """Declared action parameter.

    External parameters are supplied by the caller of the action (an event
    payload or a policy decision); internal parameters are read from the
    agent's key-value store under ``source_key`` (defaulting to the
    parameter name).
    """

    name: str
    source: str
    datatype: str
    description: str = ""
    source_key: Optional[str] = None

    @property
    def resolved_source_key(self) -> str:
        return self.source_key if self.source_key is not None else self.name


@dataclass(frozen=True)
class ActionSpec:
    """Reference to a named action with its per-usage parameter bindings.

    ``output_key`` names the key-value slot that receives the action's
    output; it defaults to the action name.
    """

    name: str
    output_key: Optional[str] = None
    params: tuple[ParameterSpec, ...] = ()

    @property
    def resolved_output_key(self) -> str:
        return self.output_key if self.output_key is not None else self.name

    def external_params(self) -> tuple[ParameterSpec, ...]:
        return tuple(p for p in self.params if p.source == SOURCE_EXTERNAL)


@dataclass(frozen=True)
class Condition:
    """Transition guard: a DSL expression over the belief, or an action name."""

    kind: str
    expression: Optional[str] = None
    action_name: Optional[str] = None

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


@dataclass(frozen=True)
class Transition:
    """Directed edge between states, fired by an event.

    ``trigger`` records whether the event may be produced internally by a
    policy or must arrive from outside the agent; a state whose passing
    transitions are all external leaves the run loop waiting for input.
    """

    source: str
    target: str
    event: str
    guard: Optional[Condition] = None
    actions: tuple[ActionSpec, ...] = ()
    trigger: str = TRIGGER_INTERNAL


@dataclass(frozen=True)
class EventInstance:
    """A named trigger with an optional JSON payload: what a policy picks and
    what the engine dispatches."""

    name: str
    payload: Mapping[str, JsonValue] = field(default_factory=dict)


@dataclass(frozen=True)
class State:
    """Simple or composite state. Composite iff ``substates`` is nonempty."""

    name: str
    description: str = ""
    tags: frozenset[str] = frozenset()
    entry_action: Optional[ActionSpec] = None
    exit_action: Optional[ActionSpec] = None
    substates: tuple["State", ...] = ()
    initial: Optional[str] = None

    @property
    def is_composite(self) -> bool:
        return bool(self.substates)

    @property
    def is_end(self) -> bool:
        return TAG_END in self.tags


@dataclass(frozen=True)
class StateMachine:
    name: str
    states: tuple[State, ...]
    transitions: tuple[Transition, ...]

    @cached_property
    def _index(self) -> tuple[dict[str, State], dict[str, Optional[str]]]:
        by_name: dict[str, State] = {}
        parents: dict[str, Optional[str]] = {}
        for st, parent in _walk_with_parents(self.states):
            if st.name not in by_name:
                by_name[st.name] = st
                parents[st.name] = parent.name if parent else None
        return by_name, parents

    @cached_property
    def _memo(self) -> dict:
        """What the engine derives from this instance (validation reports,
        step tables), kept per instance: a frozen tree is too slow to hash
        on every lookup. A ``dataclasses.replace`` copy starts empty."""
        return {}

    def state(self, name: str) -> State:
        found = self._index[0].get(name)
        if found is None:
            raise UnknownState(name)
        return found

    def parent_of(self, name: str) -> Optional[str]:
        if name not in self._index[1]:
            raise UnknownState(name)
        return self._index[1][name]


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
    chain = []
    current = sm.parent_of(state)
    while current is not None:
        chain.append(current)
        current = sm.parent_of(current)
    return chain


def enabled_transitions(sm: StateMachine, state: str) -> list[Transition]:
    """Transitions applicable at ``state``: its own first (declaration
    order), then each ancestor's, innermost ancestor first. Guards are not
    evaluated here."""
    sm.state(state)
    scope = [state] + parent_chain(sm, state)
    result = []
    for owner in scope:
        result.extend(t for t in sm.transitions if t.source == owner)
    return result


def initial_entry_path(sm: StateMachine, state: str) -> list[str]:
    """Path from ``state`` down its ``initial`` links to a simple leaf."""
    current = sm.state(state)
    path = [current.name]
    while current.is_composite:
        current = sm.state(current.initial)  # validated: initial is a child
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

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Violation:
    cls: str
    severity: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.cls}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

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
    for st in states:
        yield st, parent
        yield from _walk_with_parents(st.substates, st)


def _iter_action_specs(sm: StateMachine) -> Iterator[tuple[str, ActionSpec]]:
    for st, _ in _walk_with_parents(sm.states):
        if st.entry_action:
            yield f"state {st.name} entry", st.entry_action
        if st.exit_action:
            yield f"state {st.name} exit", st.exit_action
    for t in sm.transitions:
        for spec in t.actions:
            yield f"transition {t.source}--{t.event}-->{t.target}", spec


def validate_machine(sm: StateMachine, known_actions: frozenset[str] | set[str]) -> ValidationReport:
    """Check every structural rule; violations are data, not exceptions.

    The report contains at most one ``DuplicateState`` per repeated name and
    is invariant (as a multiset) under reordering of states and transitions.
    Unreachable states are reported as warnings so that machines may ship
    optional externally-triggered branches.
    """
    violations: list[Violation] = []

    seen: dict[str, int] = {}
    for st, _ in _walk_with_parents(sm.states):
        seen[st.name] = seen.get(st.name, 0) + 1
    for name, count in seen.items():
        if count > 1:
            violations.append(
                Violation(
                    DUPLICATE_STATE,
                    SEVERITY_ERROR,
                    name,
                    f"state name {name!r} defined {count} times",
                )
            )

    top_starts = [s.name for s in sm.states if TAG_START in s.tags]
    if not top_starts:
        violations.append(
            Violation(
                MISSING_START,
                SEVERITY_ERROR,
                sm.name,
                "no top-level state is tagged 'start'",
            )
        )
    elif len(top_starts) > 1:
        violations.append(
            Violation(
                MULTIPLE_START,
                SEVERITY_ERROR,
                sm.name,
                f"multiple top-level start states: {', '.join(top_starts)}",
            )
        )
    for st, parent in _walk_with_parents(sm.states):
        if parent is not None and TAG_START in st.tags:
            violations.append(
                Violation(
                    MULTIPLE_START,
                    SEVERITY_ERROR,
                    st.name,
                    f"nested state {st.name!r} carries the 'start' tag; "
                    "composites designate their entry substate via 'initial'",
                )
            )

    if not any(TAG_END in st.tags for st, _ in _walk_with_parents(sm.states)):
        violations.append(
            Violation(
                MISSING_END,
                SEVERITY_ERROR,
                sm.name,
                "no state anywhere is tagged 'end'",
            )
        )

    for t in sm.transitions:
        for endpoint, name in (("source", t.source), ("target", t.target)):
            if name not in seen:
                violations.append(
                    Violation(
                        DANGLING_TRANSITION,
                        SEVERITY_ERROR,
                        f"{t.source}--{t.event}-->{t.target}",
                        f"transition {endpoint} {name!r} is not a state",
                    )
                )

    for st, _ in _walk_with_parents(sm.states):
        if TAG_END in st.tags and any(t.source == st.name for t in sm.transitions):
            violations.append(
                Violation(
                    END_HAS_OUTGOING,
                    SEVERITY_ERROR,
                    st.name,
                    f"end state {st.name!r} has outgoing transitions",
                )
            )

    for st, _ in _walk_with_parents(sm.states):
        child_names = {c.name for c in st.substates}
        if st.is_composite:
            if st.initial is None:
                violations.append(
                    Violation(
                        COMPOSITE_WITHOUT_INITIAL,
                        SEVERITY_ERROR,
                        st.name,
                        f"composite state {st.name!r} has no initial substate",
                    )
                )
            elif st.initial not in child_names:
                violations.append(
                    Violation(
                        COMPOSITE_WITHOUT_INITIAL,
                        SEVERITY_ERROR,
                        st.name,
                        f"initial substate {st.initial!r} of {st.name!r} "
                        "is not among its children",
                    )
                )
        elif st.initial is not None:
            violations.append(
                Violation(
                    COMPOSITE_WITHOUT_INITIAL,
                    SEVERITY_ERROR,
                    st.name,
                    f"state {st.name!r} designates an initial substate "
                    "but has no substates",
                )
            )

    known = frozenset(known_actions)
    for where, spec in _iter_action_specs(sm):
        if spec.name not in known:
            violations.append(
                Violation(
                    UNKNOWN_ACTION,
                    SEVERITY_ERROR,
                    where,
                    f"action {spec.name!r} ({where}) is not registered",
                )
            )

    for t in sm.transitions:
        if t.guard is None:
            continue
        subject = f"{t.source}--{t.event}-->{t.target}"
        if t.guard.kind == GUARD_ACTION:
            if not t.guard.action_name:
                violations.append(
                    Violation(BAD_GUARD, SEVERITY_ERROR, subject, "guard action has no name")
                )
            elif t.guard.action_name not in known:
                violations.append(
                    Violation(
                        UNKNOWN_ACTION,
                        SEVERITY_ERROR,
                        subject,
                        f"guard action {t.guard.action_name!r} is not registered",
                    )
                )
        elif t.guard.kind == GUARD_EXPRESSION:
            try:
                t.guard.parsed  # kept on the condition for eval_guard
            except GuardSyntaxError as exc:
                violations.append(
                    Violation(
                        BAD_GUARD,
                        SEVERITY_ERROR,
                        subject,
                        f"guard does not parse: {exc}",
                    )
                )
        else:
            violations.append(
                Violation(
                    BAD_GUARD, SEVERITY_ERROR, subject, f"unknown guard kind {t.guard.kind!r}"
                )
            )

    violations.extend(_reachability_warnings(sm, seen, top_starts))
    return ValidationReport(tuple(violations))


def _reachability_warnings(
    sm: StateMachine, all_names: dict[str, int], top_starts: list[str]
) -> list[Violation]:
    if len(top_starts) != 1:
        return []
    by_name = {st.name: st for st, _ in _walk_with_parents(sm.states)}
    parents: dict[str, Optional[str]] = {}
    for st, parent in _walk_with_parents(sm.states):
        parents.setdefault(st.name, parent.name if parent else None)

    def expand(name: str, reached: set[str]) -> None:
        """Entering a state activates its ancestors and its initial chain."""
        stack = [name]
        while stack:
            n = stack.pop()
            if n in reached or n not in by_name:
                continue
            reached.add(n)
            p = parents.get(n)
            if p is not None:
                stack.append(p)
            st = by_name[n]
            if st.is_composite and st.initial in by_name:
                stack.append(st.initial)

    reached: set[str] = set()
    expand(top_starts[0], reached)
    changed = True
    while changed:
        changed = False
        for t in sm.transitions:
            if t.target in reached or t.target not in by_name:
                continue
            src = by_name.get(t.source)
            if src is None:
                continue
            # A transition applies while its source or any descendant is active.
            active = t.source in reached or any(
                d.name in reached for d, _ in _walk_with_parents(src.substates)
            )
            if active:
                expand(t.target, reached)
                changed = True

    return [
        Violation(
            UNREACHABLE_STATE,
            SEVERITY_WARNING,
            name,
            f"state {name!r} cannot be reached from the start state",
        )
        for name in sorted(all_names)
        if name not in reached
    ]
