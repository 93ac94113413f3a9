"""The six-walk ``validate_machine`` that ``machina.model.validate_machine``
replaced with one walk over the states and one pass over the transitions,
kept as the reference the new checker must match as a multiset of
violations on every machine.

It walks the state tree once per rule (name counts, nested starts, any end,
end states with outgoing transitions, composite ``initial`` links, and
entry/exit actions) and passes over the transitions once each for dangling
endpoints, transition actions and guards. The ``ShadowedTransition`` warning
was added to the checker and to this reference together, here as a pass of
its own that looks back from each transition over the ones before it, and,
for a transition no earlier one on its own state shadows, over the
candidates that come before it at each leaf beneath its source; an end
leaf, where a run has ended, shadows it too.
"""

from typing import Iterator

from machina.guards import GuardSyntaxError
from machina.model import (
    BAD_GUARD,
    COMPOSITE_WITHOUT_INITIAL,
    DANGLING_TRANSITION,
    DUPLICATE_STATE,
    END_HAS_OUTGOING,
    GUARD_ACTION,
    GUARD_EXPRESSION,
    MISSING_END,
    MISSING_START,
    MULTIPLE_START,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    SHADOWED_TRANSITION,
    TAG_END,
    TAG_START,
    TRIGGER_INTERNAL,
    UNKNOWN_ACTION,
    ActionSpec,
    StateMachine,
    ValidationReport,
    Violation,
    _reachability_warnings,
    _walk_with_parents,
    enabled_transitions,
    parent_chain,
)


def _iter_action_specs(sm: StateMachine) -> Iterator[tuple[str, ActionSpec]]:
    for st, _ in _walk_with_parents(sm.states):
        if st.entry_action:
            yield f"state {st.name} entry", st.entry_action
        if st.exit_action:
            yield f"state {st.name} exit", st.exit_action
    for t in sm.transitions:
        for spec in t.actions:
            yield f"transition {t.source}--{t.event}-->{t.target}", spec


def _shadowed_at(sm: StateMachine, leaf: str, t) -> bool:
    """Whether ``leaf`` is an end state, where a run has ended, or, among
    the candidates at ``leaf``, a transition listed before the first one of
    ``t``'s source has ``t``'s event and no guard, and can be chosen wherever
    ``t`` can (any such one when ``t`` is external, an internal one when
    ``t`` is internal)."""
    if sm.state(leaf).is_end:
        return True
    enabled = enabled_transitions(sm, leaf)
    ahead = enabled[: next(i for i, u in enumerate(enabled) if u.source == t.source)]
    return any(
        u.event == t.event
        and u.guard is None
        and (u.trigger == TRIGGER_INTERNAL or t.trigger != TRIGGER_INTERNAL)
        for u in ahead
    )


def validate_machine(sm: StateMachine, known_actions: frozenset[str] | set[str]) -> ValidationReport:
    """Check every structural rule; violations are data, not exceptions.

    The report contains at most one ``DuplicateState`` per repeated name and
    is invariant (as a multiset) under reordering of states and transitions,
    except for ``ShadowedTransition``. Unreachable states are reported as
    warnings so that machines may ship optional externally-triggered
    branches.
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

    outgoing = sm._index[2]
    for st, _ in _walk_with_parents(sm.states):
        if TAG_END in st.tags and st.name in outgoing:
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

    transitions = list(sm.transitions)
    for i, t in enumerate(transitions):
        for earlier in transitions[:i]:
            if (earlier.source, earlier.event) != (t.source, t.event) or earlier.guard is not None:
                continue
            if earlier.trigger != TRIGGER_INTERNAL and t.trigger == TRIGGER_INTERNAL:
                continue  # a decision can still choose t
            subject = f"{t.source}--{t.event}-->{t.target}"
            violations.append(
                Violation(
                    SHADOWED_TRANSITION,
                    SEVERITY_WARNING,
                    subject,
                    f"transition {subject} can never fire: the earlier transition "
                    f"{earlier.source}--{earlier.event}-->{earlier.target} "
                    "has the same event and no guard",
                )
            )
            break
        else:
            leaves = [
                name
                for name, st in sm._index[0].items()
                if not st.is_composite and t.source in parent_chain(sm, name)
            ]
            if leaves and all(_shadowed_at(sm, leaf, t) for leaf in leaves):
                subject = f"{t.source}--{t.event}-->{t.target}"
                violations.append(
                    Violation(
                        SHADOWED_TRANSITION,
                        SEVERITY_WARNING,
                        subject,
                        f"transition {subject} can never fire in a run: at every leaf beneath "
                        f"{t.source!r} a run has ended or an earlier transition has the same "
                        "event and no guard",
                    )
                )

    if len(top_starts) == 1:
        violations.extend(_reachability_warnings(sm, top_starts[0]))
    return ValidationReport(tuple(violations))
