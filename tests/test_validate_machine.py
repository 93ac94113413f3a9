"""``validate_machine`` walks the state tree once and passes over the
transitions once. These tests pin its reports against the per-rule checker it
replaced (kept in ``validation_reference.py``) on random machines that break
every rule, and count the walks and passes one call makes."""

import itertools
import random

import pytest

from machina import model
from machina.actions import builtin_registry
from machina.harness import builtin_machine
from machina.model import (
    GUARD_ACTION,
    GUARD_EXPRESSION,
    TAG_END,
    TAG_START,
    TRIGGERS,
    ActionSpec,
    Condition,
    State,
    StateMachine,
    Transition,
    validate_machine,
)
from test_machine_index import CountingTuple
from validation_reference import validate_machine as reference_validate_machine

KNOWN = frozenset({"fetch", "store", "judge"})
ACTION_NAMES = sorted(KNOWN) + ["ghost_action"]
VIOLATION_CLASSES = {
    model.DUPLICATE_STATE,
    model.MISSING_START,
    model.MULTIPLE_START,
    model.MISSING_END,
    model.DANGLING_TRANSITION,
    model.END_HAS_OUTGOING,
    model.COMPOSITE_WITHOUT_INITIAL,
    model.UNKNOWN_ACTION,
    model.BAD_GUARD,
    model.UNREACHABLE_STATE,
    model.SHADOWED_TRANSITION,
}


def random_machine(rnd: random.Random, index: int, reverse: bool) -> StateMachine:
    """Up to four levels of states whose names sometimes repeat, with stray
    ``start`` and ``end`` tags, ``initial`` links that are missing, name no
    child or sit on a simple state, known and unknown entry, exit and
    transition actions, dangling endpoints, every kind of guard, and events
    that repeat on one source with either trigger."""
    counter = itertools.count()
    names: list[str] = []

    def action() -> ActionSpec | None:
        return ActionSpec(rnd.choice(ACTION_NAMES)) if rnd.random() < 0.3 else None

    def build(depth: int) -> State:
        name = rnd.choice(names) if names and rnd.random() < 0.08 else f"s{next(counter)}"
        names.append(name)
        subs: tuple[State, ...] = ()
        if depth < 3 and rnd.random() < 0.35:
            subs = tuple(build(depth + 1) for _ in range(rnd.randint(1, 3)))
        initial = rnd.choice(subs).name if subs else None
        if rnd.random() < 0.12:
            initial = rnd.choice([None, "ghost", rnd.choice(names)])
        tags = {tag for tag in (TAG_START, TAG_END) if rnd.random() < 0.15}
        return State(
            name,
            tags=frozenset(tags),
            substates=subs,
            initial=initial,
            entry_action=action(),
            exit_action=action(),
        )

    tops = [build(0) for _ in range(rnd.randint(1, 5))]

    def endpoint() -> str:
        return "ghost" if rnd.random() < 0.08 else rnd.choice(names)

    def guard() -> Condition | None:
        roll = rnd.random()
        if roll < 0.5:
            return None
        if roll < 0.65:
            return Condition(GUARD_EXPRESSION, expression=rnd.choice(["x == 1", "x ==", "", "("]))
        if roll < 0.9:
            return Condition(GUARD_ACTION, action_name=rnd.choice(ACTION_NAMES + [None, ""]))
        return Condition("oracle")

    transitions = [
        Transition(
            endpoint(),
            endpoint(),
            f"e{rnd.randint(0, 2)}",
            guard=guard(),
            actions=tuple(ActionSpec(rnd.choice(ACTION_NAMES)) for _ in range(rnd.randint(0, 2))),
            trigger=rnd.choice(TRIGGERS),
        )
        for _ in range(rnd.randint(0, 2 * len(names)))
    ]
    if reverse:
        tops.reverse()
        transitions.reverse()
    return StateMachine(f"random{index}", tuple(tops), tuple(transitions))


def as_sorted(report) -> list:
    return sorted(report.violations, key=tuple)


@pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reverse"])
def test_reports_match_the_per_rule_reference(reverse):
    rnd = random.Random(17 + reverse)
    classes: set[str] = set()
    for index in range(1500):
        sm = random_machine(rnd, index, reverse)
        report = validate_machine(sm, KNOWN)
        assert as_sorted(report) == as_sorted(reference_validate_machine(sm, KNOWN)), sm
        classes.update(v.cls for v in report)
    assert classes == VIOLATION_CLASSES  # every rule is exercised


def test_one_walk_over_the_states_and_one_pass_over_the_transitions(monkeypatch):
    sm = builtin_machine("h3")
    sm = sm._replace(transitions=CountingTuple(sm.transitions))
    sm._index  # built once per machine, outside the check
    walks = []
    walk = model._walk_with_parents

    def counting_walk(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(model, "_walk_with_parents", counting_walk)
    passes_before = sm.transitions.passes
    assert validate_machine(sm, builtin_registry().names()).ok
    assert len(walks) == 1
    assert sm.transitions.passes - passes_before == 1
