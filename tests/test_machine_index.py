"""Everything structural about a machine comes from one index: states by
name, parents and the transitions leaving each state. These tests pin the
one-pass reachability check against the fixed-point check it replaced,
that validating and running a machine make a fixed number of passes over its
transitions, however many states it has, and that no depth of nesting makes
the structure work recurse."""

import itertools
import random
import sys

import pytest

from machina.actions import builtin_registry
from machina.engine import STATUS_COMPLETED, RunLimits, run
from machina.model import (
    TAG_END,
    TAG_START,
    UNREACHABLE_STATE,
    State,
    StateMachine,
    Transition,
    initial_entry_path,
    validate_machine,
)
from helpers import agent_for, linear_doc, machine_from
from reachability_reference import reference_reachability_warnings

BUILTINS = builtin_registry().names()
GHOST = "ghost"


def random_nested_machine(rnd: random.Random, index: int, reverse: bool) -> StateMachine:
    """Up to four levels of uniquely named states. A composite's ``initial``
    is usually one of its children, but sometimes itself, an ancestor, an
    unrelated state or no state at all; about one endpoint in ten dangles,
    and one machine in ten has no top-level start or two."""
    counter = itertools.count()
    names: list[str] = []

    def build(depth: int) -> State:
        name = f"s{next(counter)}"
        names.append(name)
        subs: tuple[State, ...] = ()
        if depth < 3 and rnd.random() < 0.35:
            subs = tuple(build(depth + 1) for _ in range(rnd.randint(1, 3)))
        initial = None
        if subs:
            initial = rnd.choice(subs).name
            if rnd.random() < 0.2:
                initial = rnd.choice(names + [GHOST])
        tags = frozenset([TAG_END]) if rnd.random() < 0.2 else frozenset()
        return State(name, tags=tags, substates=subs, initial=initial)

    tops = [build(0) for _ in range(rnd.randint(1, 5))]
    starts = rnd.choices([1, 0, 2], weights=[8, 1, 1])[0]
    for i in rnd.sample(range(len(tops)), min(starts, len(tops))):
        tops[i] = tops[i]._replace(tags=tops[i].tags | {TAG_START})

    def endpoint() -> str:
        return GHOST if rnd.random() < 0.1 else rnd.choice(names)

    transitions = [
        Transition(endpoint(), endpoint(), f"e{i}")
        for i in range(rnd.randint(0, 2 * len(names)))
    ]
    if reverse:
        transitions.reverse()
    return StateMachine(f"nested{index}", tuple(tops), tuple(transitions))


@pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reverse"])
def test_reachability_matches_the_fixed_point_reference(reverse):
    rnd = random.Random(16 + reverse)
    unreachable_seen = 0
    for index in range(400):
        sm = random_nested_machine(rnd, index, reverse)
        warnings = [v for v in validate_machine(sm, BUILTINS) if v.cls == UNREACHABLE_STATE]
        assert warnings == reference_reachability_warnings(sm), sm
        unreachable_seen += bool(warnings)
    assert unreachable_seen > 50  # the comparison is not vacuous


class CountingTuple(tuple):
    """A tuple that counts how often it is iterated."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self.passes = 0
        return self

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reverse"])
def test_transition_passes_do_not_grow_with_the_machine(reverse):
    """A chain of n states validates and runs to its end in n - 1 steps,
    with as many passes over its transitions at 20,000 states as at 100."""
    passes = {}
    for n in (100, 20_000):
        doc = linear_doc(n)
        if reverse:
            doc["transitions"].reverse()
        sm = machine_from(doc)
        counted = CountingTuple(sm.transitions)
        sm = sm._replace(transitions=counted)
        assert validate_machine(sm, BUILTINS).ok
        result = run(agent_for(sm, limits=RunLimits(max_transitions=n)))
        assert result.status == STATUS_COMPLETED
        assert result.belief_snapshot.current_state == f"s{n}"
        assert len(result.belief_snapshot.trajectory) == n - 1
        passes[n] = counted.passes
    assert passes[100] == passes[20_000]


def test_a_machine_nested_past_the_recursion_limit_validates_and_runs():
    """The walk over the state tree keeps its own stack, so a machine built
    in code deeper than the interpreter's recursion limit validates, and a
    run enters its whole initial path."""
    depth = sys.getrecursionlimit() + 1000
    inner = State(f"s{depth}", tags=frozenset([TAG_END]))
    for i in range(depth - 1, 0, -1):
        tags = frozenset([TAG_START]) if i == 1 else frozenset()
        inner = State(f"s{i}", tags=tags, substates=(inner,), initial=inner.name)
    sm = StateMachine("deep", (inner,), ())
    assert validate_machine(sm, BUILTINS).ok
    assert len(initial_entry_path(sm, "s1")) == depth
    result = run(agent_for(sm))
    assert result.status == STATUS_COMPLETED
    assert result.belief_snapshot.current_state == f"s{depth}"
