"""Each leaf is planned once per machine instance, end leaves included: its
state, its step table, and, when no step is guarded, its candidates and its
wait test. These tests count what runs instead of timing it: guards are
evaluated on every call and their outcomes never kept, planning happens once
per (leaf, transition), every call to ``candidate_transitions`` returns a new
list equal to a fresh computation, ``run`` lists candidates only in a turn
with no pending event and reads an unguarded leaf's from its plan, a
decision hands ``dispatch`` its own step while a pending event is resolved
lazily, and ``run`` still reaches the functions a tracer wraps through the
module."""

import random
from collections import Counter

import pytest

from machina import engine
from machina.belief import kv_set
from machina.engine import EventInstance, RunLimits, candidate_transitions, run
from machina.harness import builtin_machine
from machina.model import UnknownState, enabled_transitions
from machina.policy import CandidateTransition
from helpers import agent_for, linear_doc, state
from test_compile_once import (
    guarded_doc,
    reference_required,
    reference_step_action_specs,
    reference_step_plan,
)


def fresh_machine(name):
    """A bundled machine as a new instance, so its memo starts empty."""
    return builtin_machine(name)._replace()


def reference_candidates(sm, leaf):
    """The candidates at an unguarded leaf, built field by field."""
    expected = []
    for t in enabled_transitions(sm, leaf):
        assert t.guard is None
        specs = reference_step_action_specs(reference_step_plan(sm, leaf, t), t)
        expected.append(
            CandidateTransition(t, True, reference_required(specs), sm.state(t.target).description)
        )
    return expected


def counting(monkeypatch, name):
    """Replace ``engine.<name>`` by a wrapper that logs each call's arguments."""
    original = getattr(engine, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, name, wrapper)
    return calls


# ---------------------------------------------------------------------------
# Guard outcomes are never memoized


def fork_doc():
    """``go`` takes Left while ``flag`` is 'left' and Right otherwise; the
    internal ``tick`` leaves for Done once ``flag`` is 'done'."""
    return {
        "name": "fork",
        "states": [
            state("Wait", tags=["start"]),
            state("Left"),
            state("Right"),
            state("Done", tags=["end"]),
        ],
        "transitions": [
            {
                "source": "Wait",
                "target": "Left",
                "event": "go",
                "trigger": "external",
                "guard": {"expr": "flag == 'left'"},
            },
            {"source": "Wait", "target": "Right", "event": "go", "trigger": "external"},
            {"source": "Left", "target": "Wait", "event": "back", "trigger": "external"},
            {"source": "Right", "target": "Wait", "event": "back", "trigger": "external"},
            {
                "source": "Wait",
                "target": "Done",
                "event": "tick",
                "guard": {"expr": "flag == 'done'"},
            },
        ],
    }


def test_flipping_a_guard_value_changes_the_next_run(monkeypatch):
    guard_calls = counting(monkeypatch, "eval_guard")
    agent = agent_for(fork_doc())
    kv_set(agent.belief, "flag", "left")
    assert run(agent).status == engine.STATUS_WAITING
    result = run(agent, EventInstance("go"))
    assert (result.status, agent.belief.current_state) == (engine.STATUS_WAITING, "Left")
    assert run(agent, EventInstance("back")).status == engine.STATUS_WAITING

    kv_set(agent.belief, "flag", "right")
    result = run(agent, EventInstance("go"))
    assert (result.status, agent.belief.current_state) == (engine.STATUS_WAITING, "Right")
    assert run(agent, EventInstance("back")).status == engine.STATUS_WAITING

    kv_set(agent.belief, "flag", "done")
    result = run(agent)
    assert (result.status, agent.belief.current_state) == (engine.STATUS_COMPLETED, "Done")
    assert [(r.source, r.target) for r in agent.belief.trajectory] == [
        ("Wait", "Left"), ("Left", "Wait"), ("Wait", "Right"), ("Right", "Wait"), ("Wait", "Done"),
    ]
    # both guards at Wait in each of its four turns with no pending event;
    # each resumed go evaluates only its first step's guard, passing or not,
    # since the next go is unguarded; none elsewhere
    plan = agent.machine._memo["Wait"]
    left, tick = (s.transition.guard for s in plan.steps if s.transition.guard is not None)
    assert [call[0] for call in guard_calls] == [
        left, tick, left, left, tick, left, left, tick, left, tick,
    ]
    assert plan.candidates is None and plan.waits is None


@pytest.mark.parametrize("doc", [fork_doc(), guarded_doc()], ids=["fork", "guarded"])
def test_each_guarded_step_is_evaluated_once_per_call(monkeypatch, doc):
    guard_calls = counting(monkeypatch, "eval_guard")
    agent = agent_for(doc)
    engine.start(agent)
    kv_set(agent.belief, "flag", "left")
    kv_set(agent.belief, "x", 1)
    kv_set(agent.belief, "ids", ["o1"])
    leaf = agent.belief.current_state
    guards = [s.transition.guard for s in engine._leaf_plan(agent.machine, leaf).steps]
    guarded = [g for g in guards if g is not None]
    assert guarded
    for n in range(1, 4):
        candidate_transitions(agent)
        assert len(guard_calls) == n * len(guarded)
        assert [call[0] for call in guard_calls[-len(guarded):]] == guarded


def test_a_leaf_without_guards_evaluates_none(monkeypatch):
    guard_calls = counting(monkeypatch, "eval_guard")
    agent = agent_for(fork_doc())
    kv_set(agent.belief, "flag", "left")
    run(agent)
    run(agent, EventInstance("go"))
    before = len(guard_calls)
    for _ in range(3):
        candidate_transitions(agent)
    assert len(guard_calls) == before
    plan = agent.machine._memo["Left"]
    assert plan.candidates == tuple(candidate_transitions(agent)) and plan.waits is True


# ---------------------------------------------------------------------------
# Planning runs once per (leaf, transition)


def h3_script(rnd):
    return ["e1"] * 59 + [rnd.choice(("e2", "e3"))]


def class_name_script(rnd):
    return (
        ["classes_ready", "patterns_ready", "feedback_ready"]
        + ["revise_classes", "classes_ready", "patterns_ready", "feedback_ready"] * 2
        + ["revise_patterns", "patterns_ready", "feedback_ready"] * 3
        + ["accept"]
    )


@pytest.mark.parametrize(
    "name, script", [("h3", h3_script), ("class_name", class_name_script)]
)
def test_two_agents_share_one_plan_per_leaf(monkeypatch, name, script):
    planned = Counter()
    plan_step = engine._plan_step

    def count_plan_step(sm, leaf, transition):
        planned[leaf, transition] += 1
        return plan_step(sm, leaf, transition)

    monkeypatch.setattr(engine, "_plan_step", count_plan_step)
    returned = []

    def checked_candidates(agent):
        result = candidate_transitions(agent)
        assert type(result) is list
        assert all(result is not earlier for earlier in returned)
        assert result == reference_candidates(agent.machine, agent.belief.current_state)
        returned.append(result)

    machine = fresh_machine(name)
    events = script(random.Random(7))
    limits = RunLimits(max_transitions=len(events) + 5)
    agents = [agent_for(machine, limits=limits) for _ in range(2)]
    for agent in agents:
        assert run(agent).status == engine.STATUS_WAITING
        checked_candidates(agent)
        for k, event in enumerate(events):
            result = run(agent, EventInstance(event, {"lines": ["x"] * k}))
            last = k == len(events) - 1
            assert result.status == (engine.STATUS_COMPLETED if last else engine.STATUS_WAITING)
            if not last:
                checked_candidates(agent)
    # one list per waiting turn of each agent
    assert len(returned) == 2 * len(events)
    visited = {r.source for a in agents for r in a.belief.trajectory}
    assert set(planned) == {
        (leaf, t) for leaf in visited for t in enabled_transitions(machine, leaf)
    }
    assert set(planned.values()) == {1}

    # a caller's edits to a returned list never reach the next one
    agent = agent_for(machine)
    run(agent)
    first = candidate_transitions(agent)
    expected = list(first)
    first.clear()
    first.append("edited")
    assert candidate_transitions(agent) == expected
    assert set(planned.values()) == {1}


def tdd_script(rnd):
    return ["generate_tests", "generate_code"] + ["fail", "generate_code"] * 4 + ["pass"]


def agent_coder_script(rnd):
    return ["generate_code", "generate_tests"] + ["fail", "generate_code", "generate_tests"] * 3 + [
        "budget"
    ]


@pytest.mark.parametrize(
    "name, script",
    [
        ("h3", h3_script),
        ("class_name", class_name_script),
        ("test_driven", tdd_script),
        ("agent_coder", agent_coder_script),
    ],
)
def test_dispatch_with_the_run_loops_plan_matches_dispatch_without(name, script):
    machine = fresh_machine(name)
    looked_up, passed = agent_for(machine), agent_for(machine)
    engine.start(looked_up), engine.start(passed)
    for k, event_name in enumerate(script(random.Random(7))):
        event = EventInstance(event_name, {"lines": ["x"] * k})
        steps = engine._leaf_plan(machine, passed.belief.current_state).steps
        assert all(s.transition.guard is None for s in steps)
        # the plan's first step for the event, handed over as a decision is
        step = next(s for s in steps if s.transition.event == event_name)
        assert engine.dispatch(looked_up, event) == engine.dispatch(passed, event, step)
        assert looked_up.belief == passed.belief
    assert machine.state(passed.belief.current_state).is_end


def test_unknown_leaf_raises_and_is_not_memoized():
    agent = agent_for(fresh_machine("h3"))
    agent.belief.current_state = "Nowhere"
    with pytest.raises(UnknownState):
        candidate_transitions(agent)
    result = run(agent)
    assert result.status == engine.STATUS_FAILED and "Nowhere" in result.reason
    assert "Nowhere" not in agent.machine._memo


def test_an_end_leaf_is_planned_once_and_its_plan_ends_the_run(monkeypatch):
    planned = counting(monkeypatch, "_leaf_plan")
    machine = fresh_machine("h3")
    agent = agent_for(machine)
    agent.belief.current_state = "Done"
    assert run(agent).status == engine.STATUS_COMPLETED
    plan = machine._memo["Done"]
    assert plan.state is machine.state("Done") and plan.state.is_end
    # later runs, on this agent or another, read the memoized plan
    other = agent_for(machine)
    other.belief.current_state = "Done"
    assert run(agent).status == run(other).status == engine.STATUS_COMPLETED
    assert machine._memo["Done"] is plan
    assert [call[1] for call in planned] == ["Done"]
    # the end test is the plan's: a leaf whose plan holds an end state completes
    engine.start(other)
    leaf = other.belief.current_state
    machine._memo[leaf] = engine._leaf_plan(machine, leaf)._replace(state=plan.state)
    result = run(other)
    assert (result.status, other.belief.trajectory) == (engine.STATUS_COMPLETED, [])


# ---------------------------------------------------------------------------
# run reaches the traced functions through the module


def test_run_calls_the_module_functions(monkeypatch):
    candidates = counting(monkeypatch, "candidate_transitions")
    decided = counting(monkeypatch, "decide")
    dispatched = counting(monkeypatch, "dispatch")
    snapshots = counting(monkeypatch, "snapshot")

    # four fast-forwarded steps in one run; no leaf is guarded, so every turn
    # reads its plan's candidates and none calls candidate_transitions; each
    # decision hands dispatch the step of the candidate it chose
    agent = agent_for(linear_doc(5))
    assert run(agent).status == engine.STATUS_COMPLETED
    assert (len(candidates), len(decided), len(dispatched), len(snapshots)) == (0, 4, 4, 1)
    memo = agent.machine._memo
    assert all(call[2] is memo[call[1].name].candidates for call in decided)
    assert [call[2] for call in dispatched] == [memo[f"s{i}"].steps[0] for i in range(1, 5)]

    # resuming: the first run waits, each event then dispatches once and
    # waits again after a second turn, and the last event ends the run; no
    # h3 leaf is guarded, so no candidate list is built
    candidates.clear(), dispatched.clear(), snapshots.clear()
    agent = agent_for(fresh_machine("h3"))
    events = ["e1"] * 9 + ["e2"]
    assert run(agent).status == engine.STATUS_WAITING
    for event in events:
        run(agent, EventInstance(event))
    assert agent.belief.current_state == "Done"
    assert len(candidates) == 0
    assert [call[1:] for call in dispatched] == [(EventInstance(e),) for e in events]
    assert len(snapshots) == 1 + len(events)

    # a guarded leaf: one candidate call in the first run's turn there and
    # none in the resume's, whose event dispatch resolves alone; none at the
    # unguarded Left it moves to
    candidates.clear(), dispatched.clear()
    agent = agent_for(fork_doc())
    kv_set(agent.belief, "flag", "left")
    assert run(agent).status == engine.STATUS_WAITING
    assert run(agent, EventInstance("go")).status == engine.STATUS_WAITING
    assert agent.belief.current_state == "Left"
    assert len(candidates) == 1
    assert [call[1:] for call in dispatched] == [(EventInstance("go"),)]


# ---------------------------------------------------------------------------
# run lists candidates only at a guarded leaf


def test_resuming_h3_lists_no_candidates(monkeypatch):
    candidates = counting(monkeypatch, "candidate_transitions")
    dispatched = counting(monkeypatch, "dispatch")
    snapshots = counting(monkeypatch, "snapshot")
    events = h3_script(random.Random(7))
    assert len(events) == 60
    agent = agent_for(fresh_machine("h3"), limits=RunLimits(max_transitions=len(events) + 5))
    statuses = [run(agent).status]
    for k, event in enumerate(events):
        statuses.append(run(agent, EventInstance(event, {"lines": ["x"] * k})).status)
    assert statuses == [engine.STATUS_WAITING] * 60 + [engine.STATUS_COMPLETED]
    assert len(candidates) == 0
    # each event goes to dispatch alone, with no candidates or step
    assert [len(call) for call in dispatched] == [2] * len(events)
    assert [call[1].name for call in dispatched] == events
    assert len(snapshots) == len(statuses)


def test_a_guarded_leaf_evaluates_each_guard_once_per_turn(monkeypatch):
    """A turn at Wait with no pending event lists the candidates once, which
    evaluates each guard once, and the step it decides on fires with no
    guard evaluated again. A resumed event is resolved lazily: each guard at
    most once, up to the first ``go`` that may fire."""
    guard_calls = counting(monkeypatch, "eval_guard")
    candidates = counting(monkeypatch, "candidate_transitions")
    agent = agent_for(fork_doc())
    guarded = [s.transition.guard for s in engine._leaf_plan(agent.machine, "Wait").steps]
    left, tick = guarded = [g for g in guarded if g is not None]
    assert run(agent).status == engine.STATUS_WAITING
    assert [call[0] for call in guard_calls] == guarded
    for flag, target in [("left", "Left"), ("right", "Right"), ("left", "Left")]:
        kv_set(agent.belief, "flag", flag)
        before = len(guard_calls)
        # go's first step: its guard passes, or the unguarded second go fires;
        # the turn at the unguarded Left or Right evaluates nothing
        assert run(agent, EventInstance("go")).status == engine.STATUS_WAITING
        assert agent.belief.current_state == target
        assert [call[0] for call in guard_calls[before:]] == [left]
        # back at Wait, the turn with no pending event lists both
        assert run(agent, EventInstance("back")).status == engine.STATUS_WAITING
        assert [call[0] for call in guard_calls[before + 1:]] == guarded
    assert len(candidates) == 1 + 3
    # a decided turn: both guards once, then tick fires without another
    kv_set(agent.belief, "flag", "done")
    before = len(guard_calls)
    assert run(agent).status == engine.STATUS_COMPLETED
    assert [call[0] for call in guard_calls[before:]] == guarded
    assert len(candidates) == 1 + 3 + 1


def test_a_decision_at_an_unguarded_leaf_gets_the_plans_candidates(monkeypatch):
    decide = engine.decide
    received = []

    def recording_decide(stack, state, candidates, belief, provider):
        received.append((state.name, candidates))
        return decide(stack, state, candidates, belief, provider)

    monkeypatch.setattr(engine, "decide", recording_decide)
    agent = agent_for(linear_doc(5))
    assert run(agent).status == engine.STATUS_COMPLETED
    assert [name for name, _ in received] == ["s1", "s2", "s3", "s4"]
    for name, candidates in received:
        assert candidates is agent.machine._memo[name].candidates


def test_a_stage_at_an_unguarded_leaf_still_gets_a_new_list():
    """Two internal candidates: no fast-forward, so the stage selects. Its
    ``selectable`` is a new list each time, and emptying it changes nothing
    the next turn reads."""
    seen = []

    class FirstStage:
        def select(self, state, selectable, belief, provider):
            seen.append((selectable, list(selectable)))
            chosen = selectable[0].transition.event
            selectable.clear()
            return EventInstance(chosen)

    doc = {
        "name": "two",
        "states": [state("A", tags=["start"]), state("Done", tags=["end"])],
        "transitions": [
            {"source": "A", "target": "A", "event": "again"},
            {"source": "A", "target": "Done", "event": "stop"},
        ],
    }
    agent = agent_for(doc, policy=[FirstStage()], limits=RunLimits(max_transitions=3))
    assert run(agent).status == engine.STATUS_BUDGET_EXHAUSTED
    plan = agent.machine._memo["A"]
    assert len(seen) == 3 and len({id(lst) for lst, _ in seen}) == 3
    assert all(type(lst) is list and copy == list(plan.candidates) for lst, copy in seen)
    assert [c.transition.event for c in plan.candidates] == ["again", "stop"]
