import copy
import json
import random

import pytest

from machina.actions import builtin_registry
from machina.belief import StepOutOfOrder, belief_to_trace, kv_get, kv_set, new_belief, snapshot
from machina.engine import (
    ActionFailure,
    Agent,
    EventInstance,
    InvalidMachine,
    MissingExternalArgument,
    MissingInternalValue,
    RunLimits,
    UnhandledEvent,
    UnknownGuardAction,
    candidate_transitions,
    dispatch,
    eval_guard,
    execute_action,
    run,
    start,
)
from machina.errors import MachinaError
from machina.guards import GuardTypeError
from machina.harness import builtin_machine, make_qa_agent
from machina.model import (
    ActionSpec,
    Condition,
    ParameterSpec,
)
from machina.policy import LlmPolicy
from machina.providers import ScriptedProvider
from machina.scene import scene_to_json_value
from helpers import (
    FixedReplyProvider,
    agent_for,
    budget_cycle_doc,
    h3_agent,
    linear_doc,
    machine_from,
    random_flat_machine_doc,
    reference_trajectory,
    s1_scene,
    state,
)


def seeded_s1_belief():
    belief = new_belief()
    kv_set(belief, "scene", scene_to_json_value(s1_scene()))
    return belief


def scene_registry_with_guard():
    registry = builtin_registry()

    def has_metal(inputs, ctx):
        return any(o["material"] == "metal" for o in inputs["scene"]["objects"])

    registry.register(
        "has_metal",
        (ParameterSpec("scene", "internal", "json"),),
        has_metal,
        output_datatype="boolean",
    )
    return registry


class TestEvalGuard:
    def test_expression_true(self):
        belief = new_belief()
        kv_set(belief, "retries", 1)
        guard = Condition("expression", expression="retries < 2")
        assert eval_guard(guard, belief, builtin_registry(), ScriptedProvider.from_replies([]))

    def test_exists_missing_key(self):
        guard = Condition("expression", expression="exists answer")
        assert not eval_guard(
            guard, new_belief(), builtin_registry(), ScriptedProvider.from_replies([])
        )

    def test_action_guard_over_scene(self):
        guard = Condition("action", action_name="has_metal")
        assert eval_guard(
            guard,
            seeded_s1_belief(),
            scene_registry_with_guard(),
            ScriptedProvider.from_replies([]),
        )

    def test_unknown_guard_action(self):
        guard = Condition("action", action_name="missing")
        with pytest.raises(UnknownGuardAction):
            eval_guard(guard, new_belief(), builtin_registry(), ScriptedProvider.from_replies([]))

    def test_guard_type_error_passthrough(self):
        belief = new_belief()
        kv_set(belief, "name", "abc")
        guard = Condition("expression", expression="name < 3")
        with pytest.raises(GuardTypeError):
            eval_guard(guard, belief, builtin_registry(), ScriptedProvider.from_replies([]))

    def test_action_guard_not_logged(self):
        belief = seeded_s1_belief()
        guard = Condition("action", action_name="has_metal")
        eval_guard(belief=belief, guard=guard, registry=scene_registry_with_guard(),
                   provider=ScriptedProvider.from_replies([]))
        assert belief.execution_log == []


@pytest.mark.parametrize("raised", [MachinaError("boom"), ValueError("boom")], ids=["machina", "value"])
@pytest.mark.parametrize("place", ["guard", "transition"])
def test_a_raising_guard_fails_the_run_as_a_raising_action_does(raised, place):
    """Whatever a guard's action raises ends the run with an
    ``ActionFailure`` that names it, as for a transition action."""

    def explode(inputs, ctx):
        raise raised

    registry = builtin_registry()
    registry.register("explode", (), explode, output_datatype="boolean")
    go = {"source": "a", "target": "b", "event": "go"}
    if place == "guard":
        go["guard"] = {"action": "explode"}
    else:
        go["actions"] = [{"name": "explode"}]
    doc = {
        "name": "m",
        "states": [state("a", tags=["start"]), state("b", tags=["end"])],
        "transitions": [go],
    }
    agent = Agent(
        machine=machine_from(doc),
        belief=new_belief(),
        policy=(),
        registry=registry,
        provider=ScriptedProvider.from_replies([]),
    )
    result = run(agent)
    assert result.status == "failed"
    assert result.reason == "action 'explode' failed: boom"


class TestResolve:
    """Resolution through ``dispatch``: the first enabled transition for the
    event, own before inherited, whose guard passes."""

    def test_ancestor_transition(self):
        agent = h3_agent()
        start(agent)
        t = dispatch(agent, EventInstance("e2")).transition
        assert (t.source, t.target) == ("Mid", "Done")

    def test_own_before_ancestors(self):
        agent = h3_agent()
        start(agent)
        t = dispatch(agent, EventInstance("e1")).transition
        assert (t.source, t.target) == ("Leaf", "Leaf")

    def test_unhandled(self):
        agent = h3_agent()
        start(agent)
        with pytest.raises(UnhandledEvent):
            dispatch(agent, EventInstance("e9"))

    def test_guard_selects_among_same_event(self):
        doc = {
            "name": "m",
            "states": [state("a", tags=["start"]), state("b", tags=["end"]), state("c", tags=["end"])],
            "transitions": [
                {"source": "a", "target": "b", "event": "go", "guard": {"expr": "x == 1"}},
                {"source": "a", "target": "c", "event": "go"},
            ],
        }
        agent = agent_for(doc)
        start(agent)
        assert dispatch(agent, EventInstance("go")).transition.target == "c"
        agent = agent_for(doc)
        kv_set(agent.belief, "x", 1)
        start(agent)
        assert dispatch(agent, EventInstance("go")).transition.target == "b"


def same_event_agent(kv: dict, calls: list) -> Agent:
    """Four ``go`` transitions from ``a``: an expression guard, an action
    guard that logs its calls, a guard that raises ``GuardTypeError`` when
    evaluated (``name`` holds a string), and no guard."""

    def spy(inputs, ctx):
        calls.append(1)
        return inputs["flag"]

    registry = builtin_registry()
    registry.register("spy", (ParameterSpec("flag", "internal", "boolean"),), spy, output_datatype="boolean")
    doc = {
        "name": "m",
        "states": [state("a", tags=["start"])] + [state(n, tags=["end"]) for n in "bcde"],
        "transitions": [
            {"source": "a", "target": "b", "event": "go", "guard": {"expr": "x == 1"}, "trigger": "external"},
            {"source": "a", "target": "c", "event": "go", "guard": {"action": "spy"}, "trigger": "external"},
            {"source": "a", "target": "d", "event": "go", "guard": {"expr": "name < 3"}, "trigger": "external"},
            {"source": "a", "target": "e", "event": "go", "trigger": "external"},
        ],
    }
    belief = new_belief()
    kv_set(belief, "name", "abc")
    for key, value in kv.items():
        kv_set(belief, key, value)
    return Agent(
        machine=machine_from(doc),
        belief=belief,
        policy=(),
        registry=registry,
        provider=ScriptedProvider.from_replies([]),
    )


class TestDispatchLazyGuards:
    def test_first_passing_guard_stops_resolution(self):
        calls = []
        agent = same_event_agent({"x": 1, "flag": True}, calls)
        start(agent)
        assert dispatch(agent, EventInstance("go")).target_leaf == "b"
        assert calls == []

    def test_later_guards_not_evaluated_after_a_pass(self):
        calls = []
        agent = same_event_agent({"x": 0, "flag": True}, calls)
        start(agent)
        assert dispatch(agent, EventInstance("go")).target_leaf == "c"
        assert calls == [1]

    def test_failing_guards_evaluated_in_order(self):
        calls = []
        agent = same_event_agent({"x": 0, "flag": False}, calls)
        start(agent)
        with pytest.raises(GuardTypeError):
            dispatch(agent, EventInstance("go"))
        assert calls == [1]

    @pytest.mark.parametrize(
        "kv, target",
        [
            ({"x": 1, "flag": True, "name": 1}, "b"),
            ({"x": 0, "flag": True, "name": 1}, "c"),
            ({"x": 0, "flag": False, "name": 1}, "d"),
            ({"x": 0, "flag": False, "name": 5}, "e"),
            ({"x": 1, "flag": True}, "b"),
        ],
    )
    def test_run_and_dispatch_fire_the_same_step(self, kv, target):
        """A pending event resolves lazily in ``run`` as in ``dispatch``:
        where ``b``'s guard passes, the guard that would raise on ``name``
        is never evaluated."""
        direct = same_event_agent(kv, [])
        start(direct)
        outcome = dispatch(direct, EventInstance("go"))
        result = run(same_event_agent(kv, []), EventInstance("go"))
        assert result.status == "completed"
        assert result.belief_snapshot.trajectory == direct.belief.trajectory
        assert result.belief_snapshot.current_state == outcome.target_leaf == target


def shared_event_doc(on_parent: bool) -> dict:
    """``go`` leaves ``A`` for ``B`` with an external trigger (declared
    first) and for ``C`` with an internal one, declared on ``A`` or, with
    ``on_parent``, on ``A``'s parent ``P``."""
    return {
        "name": "shared",
        "states": [
            state("P", tags=["start"], initial="A", substates=[state("A")]),
            state("B", tags=["end"]),
            state("C", tags=["end"]),
        ],
        "transitions": [
            {"source": "A", "target": "B", "event": "go", "trigger": "external"},
            {"source": "P" if on_parent else "A", "target": "C", "event": "go"},
        ],
    }


class TestDecisionFiresItsStep:
    @pytest.mark.parametrize("on_parent", [False, True], ids=["same_state", "parent"])
    def test_a_decision_fires_the_step_it_chose(self, on_parent):
        agent = agent_for(shared_event_doc(on_parent))
        result = run(agent)
        assert (result.status, agent.belief.current_state) == ("completed", "C")
        assert [(r.source, r.target, r.event) for r in agent.belief.trajectory] == [("A", "C", "go")]

    @pytest.mark.parametrize("on_parent", [False, True], ids=["same_state", "parent"])
    def test_a_pending_event_fires_the_first_match(self, on_parent):
        agent = agent_for(shared_event_doc(on_parent))
        start(agent)
        result = run(agent, EventInstance("go"))
        assert (result.status, agent.belief.current_state) == ("completed", "B")

    def test_a_stage_naming_an_unselectable_step_fails_the_run(self):
        """The external ``out`` is a candidate but not selectable, so the
        run fails before any action runs or any step lands."""

        class Outward:
            def select(self, state, selectable, belief, provider):
                return EventInstance("out", {"text": "x"})

        doc = {
            "name": "outward",
            "states": [state("A", tags=["start"]), state("B", tags=["end"])],
            "transitions": [
                {
                    "source": "A", "target": "B", "event": "out", "trigger": "external",
                    "actions": [{"name": "note", "output_key": "noted"}],
                },
                {"source": "A", "target": "A", "event": "stay"},
                {"source": "A", "target": "B", "event": "stop"},
            ],
        }
        provider = FixedReplyProvider('{"event": "stop"}')
        agent = agent_for(doc, provider=provider, policy=[Outward(), LlmPolicy("t")])
        result = run(agent)
        assert result.status == "failed"
        assert result.reason == "event 'out' is not among the candidates"
        assert agent.belief.trajectory == [] and agent.belief.execution_log == []
        assert agent.belief.current_state == "A" and provider.calls == 0


class TestExecuteAction:
    def test_count_objects(self):
        belief = new_belief()
        kv_set(belief, "objects", ["o1"])
        spec = ActionSpec(
            "countObjects",
            output_key="count",
            params=(ParameterSpec("ids", "internal", "json", source_key="objects"),),
        )
        record = execute_action(
            builtin_registry(), spec, {}, belief, ScriptedProvider.from_replies([])
        )
        assert record.output == 1
        assert kv_get(belief, "count") == 1

    def test_missing_internal_value(self):
        spec = ActionSpec(
            "extractObjects",
            params=(
                ParameterSpec("question", "internal", "string"),
                ParameterSpec("scene", "internal", "json"),
            ),
        )
        belief = new_belief()
        kv_set(belief, "question", "how many?")
        with pytest.raises(MissingInternalValue) as err:
            execute_action(builtin_registry(), spec, {}, belief, ScriptedProvider.from_replies([]))
        assert err.value.key == "scene"

    def test_note_records_text(self):
        spec = ActionSpec("note", params=(ParameterSpec("text", "external", "string"),))
        record = execute_action(
            builtin_registry(), spec, {"text": "x"}, new_belief(), ScriptedProvider.from_replies([])
        )
        assert record.output == "x"
        assert record.inputs == {"text": "x"}

    def test_missing_external_argument(self):
        spec = ActionSpec("note", params=(ParameterSpec("text", "external", "string"),))
        with pytest.raises(MissingExternalArgument):
            execute_action(builtin_registry(), spec, {}, new_belief(), ScriptedProvider.from_replies([]))

    def test_impl_errors_become_action_failure(self):
        spec = ActionSpec("filter", params=(ParameterSpec("predicate", "external", "json"),
                                            ParameterSpec("scene", "internal", "json")))
        belief = new_belief()
        kv_set(belief, "scene", {"objects": "not a list"})
        with pytest.raises(ActionFailure):
            execute_action(builtin_registry(), spec, {"predicate": {}}, belief,
                           ScriptedProvider.from_replies([]))

    def test_count_objects_rejects_non_string_ids(self):
        belief = new_belief()
        kv_set(belief, "objects", ["o1", 2])
        spec = ActionSpec(
            "countObjects",
            params=(ParameterSpec("ids", "internal", "json", source_key="objects"),),
        )
        with pytest.raises(ActionFailure, match="ids must be an array of strings"):
            execute_action(builtin_registry(), spec, {}, belief, ScriptedProvider.from_replies([]))

    def test_external_argument_that_fails_coercion_names_it(self):
        spec = ActionSpec("note", params=(ParameterSpec("text", "external", "string"),))
        with pytest.raises(ActionFailure, match="argument 'text'"):
            execute_action(
                builtin_registry(), spec, {"text": 5}, new_belief(),
                ScriptedProvider.from_replies([]),
            )

    def test_unregistered_action(self):
        belief = new_belief()
        with pytest.raises(ActionFailure, match="not registered") as err:
            execute_action(
                builtin_registry(), ActionSpec("nowhere"), {}, belief,
                ScriptedProvider.from_replies([]),
            )
        assert err.value.action == "nowhere"
        assert belief.execution_log == [] and belief.kv == {}

    @pytest.mark.parametrize(
        "where, error, message",
        [
            ({"step": 99}, StepOutOfOrder, "action step 99 does not reference an existing step"),
            ({"step": -1}, StepOutOfOrder, "action step -1 does not reference an existing step"),
            ({"phase": "bogus"}, MachinaError, "action phase must be one of .* got 'bogus'"),
        ],
        ids=["step-past-the-step-in-flight", "negative-step", "unknown-phase"],
    )
    def test_a_refused_phase_or_step_runs_no_action(self, where, error, message):
        calls = []
        registry = builtin_registry().register(
            "marker", (), lambda inputs, ctx: calls.append(inputs) or "marker"
        )
        belief = new_belief()
        with pytest.raises(error, match=message):
            execute_action(
                registry, ActionSpec("marker"), {}, belief, ScriptedProvider.from_replies([]),
                **where,
            )
        assert calls == [] and belief.kv == {} and belief.execution_log == []

    def test_inputs_restricted_to_declared_params(self):
        spec = ActionSpec("note", params=(ParameterSpec("text", "external", "string"),))
        record = execute_action(
            builtin_registry(), spec, {"text": "x", "extra": 1}, new_belief(),
            ScriptedProvider.from_replies([]),
        )
        assert set(record.inputs) == {"text"}


def h3_marker_sequence(agent):
    return [(r.phase, r.output) for r in agent.belief.execution_log]


class TestDispatchH3:
    def test_initial_entry_action_order(self):
        agent = h3_agent()
        start(agent)
        assert agent.belief.current_state == "Leaf"
        assert h3_marker_sequence(agent) == [("entry", "enter_mid"), ("entry", "enter_leaf")]

    def test_e2_exits_up_to_done(self):
        agent = h3_agent()
        start(agent)
        agent.belief.execution_log.clear()
        outcome = dispatch(agent, EventInstance("e2"))
        assert outcome.target_leaf == "Done"
        assert h3_marker_sequence(agent) == [("exit", "exit_mid")]
        assert len(agent.belief.trajectory) == 1
        assert agent.belief.trajectory[0].source == "Leaf"
        assert agent.belief.trajectory[0].target == "Done"

    def test_e1_self_transition_exit_then_entry(self):
        agent = h3_agent()
        start(agent)
        agent.belief.execution_log.clear()
        dispatch(agent, EventInstance("e1"))
        assert h3_marker_sequence(agent) == [("entry", "enter_leaf")]
        assert agent.belief.current_state == "Leaf"

    def test_e3_ancestor_transition(self):
        agent = h3_agent()
        start(agent)
        agent.belief.execution_log.clear()
        dispatch(agent, EventInstance("e3"))
        assert h3_marker_sequence(agent) == [("exit", "exit_mid")]
        assert agent.belief.current_state == "Done"


DEEP_DOC = {
    "name": "deep",
    "states": [
        {
            **state("A", tags=["start"]),
            "entry": {"name": "note", "output_key": "enter_a"},
            "exit": {"name": "note", "output_key": "exit_a"},
            "substates": [
                {
                    **state("A1"),
                    "entry": {"name": "note", "output_key": "enter_a1"},
                    "exit": {"name": "note", "output_key": "exit_a1"},
                }
            ],
            "initial": "A1",
        },
        {
            **state("B", tags=["end"]),
            "entry": {"name": "note", "output_key": "enter_b"},
            "substates": [
                {**state("B1"), "entry": {"name": "note", "output_key": "enter_b1"}}
            ],
            "initial": "B1",
        },
    ],
    "transitions": [
        {
            "source": "A1",
            "target": "B1",
            "event": "jump",
            "trigger": "external",
            "actions": [{"name": "note", "output_key": "crossing"}],
        }
    ],
}


class TestDispatchOrdering:
    def test_exit_transition_entry_order(self):
        agent = agent_for(DEEP_DOC)
        start(agent)
        agent.belief.execution_log.clear()
        dispatch(agent, EventInstance("jump"))
        assert h3_marker_sequence(agent) == [
            ("exit", "exit_a1"),
            ("exit", "exit_a"),
            ("transition", "crossing"),
            ("entry", "enter_b"),
            ("entry", "enter_b1"),
        ]

    def test_phases_never_interleave(self):
        agent = agent_for(DEEP_DOC)
        start(agent)
        agent.belief.execution_log.clear()
        dispatch(agent, EventInstance("jump"))
        order = {"exit": 0, "transition": 1, "entry": 2}
        phases = [order[r.phase] for r in agent.belief.execution_log]
        assert phases == sorted(phases)

    def test_payload_offered_to_all_step_actions(self):
        doc = {
            "name": "m",
            "states": [
                {
                    **state("a", tags=["start"]),
                    "exit": {
                        "name": "note",
                        "output_key": "on_exit",
                        "params": [{"name": "text", "source": "external", "datatype": "string"}],
                    },
                },
                {
                    **state("b", tags=["end"]),
                    "entry": {
                        "name": "note",
                        "output_key": "on_entry",
                        "params": [{"name": "text", "source": "external", "datatype": "string"}],
                    },
                },
            ],
            "transitions": [
                {
                    "source": "a",
                    "target": "b",
                    "event": "go",
                    "trigger": "external",
                    "actions": [
                        {
                            "name": "note",
                            "output_key": "on_move",
                            "params": [
                                {"name": "text", "source": "external", "datatype": "string"}
                            ],
                        }
                    ],
                }
            ],
        }
        agent = agent_for(doc)
        start(agent)
        dispatch(agent, EventInstance("go", {"text": "shared"}))
        assert [r.output for r in agent.belief.execution_log] == ["shared"] * 3
        assert agent.belief.trajectory[0].event_payload == {"text": "shared"}

    def test_unhandled_event_error_and_ignore(self):
        agent = h3_agent()
        start(agent)
        with pytest.raises(UnhandledEvent):
            dispatch(agent, EventInstance("nope"))
        lax = h3_agent(limits=RunLimits(unhandled_event="ignore"))
        start(lax)
        assert dispatch(lax, EventInstance("nope")) is None
        assert lax.belief.trajectory == []


class TestDispatchMore:
    def test_self_transition_runs_exit_then_entry(self):
        doc = {
            "name": "m",
            "states": [
                {
                    **state("a", tags=["start"]),
                    "entry": {"name": "note", "output_key": "enter_a"},
                    "exit": {"name": "note", "output_key": "exit_a"},
                },
                state("b", tags=["end"]),
            ],
            "transitions": [
                {"source": "a", "target": "a", "event": "again", "trigger": "external"},
                {"source": "a", "target": "b", "event": "stop", "trigger": "external"},
            ],
        }
        agent = agent_for(doc)
        start(agent)
        agent.belief.execution_log.clear()
        dispatch(agent, EventInstance("again"))
        assert h3_marker_sequence(agent) == [("exit", "exit_a"), ("entry", "enter_a")]

    def test_transition_to_composite_descends_initial(self):
        doc = {
            "name": "m",
            "states": [
                state("a", tags=["start"]),
                {
                    **state("B", tags=["end"]),
                    "entry": {"name": "note", "output_key": "enter_b"},
                    "substates": [
                        {**state("B1"), "entry": {"name": "note", "output_key": "enter_b1"}}
                    ],
                    "initial": "B1",
                },
            ],
            "transitions": [
                {"source": "a", "target": "B", "event": "go", "trigger": "external"}
            ],
        }
        agent = agent_for(doc)
        start(agent)
        outcome = dispatch(agent, EventInstance("go"))
        assert outcome.target_leaf == "B1"
        assert agent.belief.current_state == "B1"
        assert h3_marker_sequence(agent) == [("entry", "enter_b"), ("entry", "enter_b1")]

    def test_routing_classify_dispatch_runs_entry_action(self):
        agent = make_qa_agent(
            "routing", "How many cubes?", s1_scene(), ScriptedProvider.from_replies(["counting"])
        )
        start(agent)
        dispatch(agent, EventInstance("classify"))
        assert agent.belief.current_state == "QuestionClassification"
        assert [r.action for r in agent.belief.execution_log] == ["classifyQuestion"]
        assert kv_get(agent.belief, "question_type") == "counting"


class TestProviderErrorPassthrough:
    def test_llm_policy_propagates_provider_errors(self):
        doc = {
            "name": "m",
            "states": [state("a", tags=["start"]), state("b", tags=["end"]), state("c", tags=["end"])],
            "transitions": [
                {"source": "a", "target": "b", "event": "left"},
                {"source": "a", "target": "c", "event": "right"},
            ],
        }
        agent = agent_for(
            doc,
            provider=ScriptedProvider.from_replies([]),
            policy=(LlmPolicy(task_description="pick"),),
        )
        result = run(agent)
        assert result.status == "failed"
        assert "replies" in result.reason


class TestCandidates:
    def test_required_params_from_step_plan(self):
        agent = make_qa_agent(
            "planning", "q", s1_scene(), ScriptedProvider.from_replies([])
        )
        start(agent)
        cands = candidate_transitions(agent)
        by_event = {c.transition.event: c for c in cands}
        assert [p.name for p in by_event["filter"].required_external_params] == ["predicate"]

    def test_guard_evaluated_once_per_candidate_pass(self):
        calls = []

        def spy(inputs, ctx):
            calls.append(1)
            return True

        registry = builtin_registry()
        registry.register("spy", (), spy, output_datatype="boolean")
        doc = {
            "name": "m",
            "states": [state("a", tags=["start"]), state("b", tags=["end"])],
            "transitions": [
                {"source": "a", "target": "b", "event": "go", "guard": {"action": "spy"}}
            ],
        }
        agent = Agent(
            machine=machine_from(doc),
            belief=new_belief(),
            policy=(),
            registry=registry,
            provider=ScriptedProvider.from_replies([]),
        )
        start(agent)
        candidate_transitions(agent)
        assert len(calls) == 1


class TestRun:
    def test_budget_exhausted_at_exactly_ten(self):
        agent = agent_for(budget_cycle_doc())
        result = run(agent)
        assert result.status == "budget_exhausted"
        assert len(result.belief_snapshot.trajectory) == 10

    def test_fast_forward_linear_run_zero_calls(self):
        agent = agent_for(linear_doc(5))
        result = run(agent)
        assert result.status == "completed"
        assert result.stats.calls == 0
        assert result.belief_snapshot.current_state == "s5"
        assert result.output is None

    def test_waiting_when_only_external(self):
        agent = h3_agent()
        result = run(agent)
        assert result.status == "waiting"
        assert len(result.belief_snapshot.trajectory) == 0

    def test_resume_from_waiting_preserves_belief(self):
        agent = h3_agent()
        first = run(agent)
        assert first.status == "waiting"
        second = run(agent, EventInstance("e2"))
        assert second.status == "completed"
        assert [r.event for r in second.belief_snapshot.trajectory] == ["e2"]
        # entry markers from initialization are still present
        assert ("entry", "enter_mid") in h3_marker_sequence(agent)

    def test_initial_event_applied_before_policy(self):
        agent = h3_agent()
        result = run(agent, EventInstance("e3"))
        assert result.status == "completed"
        assert agent.belief.current_state == "Done"

    def test_failed_action_aborts_with_snapshot(self):
        doc = {
            "name": "m",
            "states": [
                state("a", tags=["start"]),
                {**state("b", tags=["end"]),
                 "entry": {"name": "classifyQuestion",
                           "params": [{"name": "question", "source": "internal", "datatype": "string"}]}},
            ],
            "transitions": [{"source": "a", "target": "b", "event": "go"}],
        }
        agent = agent_for(doc)  # no question in kv -> MissingInternalValue
        result = run(agent)
        assert result.status == "failed"
        assert "question" in result.reason
        assert len(result.belief_snapshot.trajectory) == 1  # the step is still recorded

    def test_policy_exhausted_fails_run(self):
        doc = {
            "name": "m",
            "states": [state("a", tags=["start"]), state("b", tags=["end"]), state("c", tags=["end"])],
            "transitions": [
                {"source": "a", "target": "b", "event": "go"},
                {"source": "a", "target": "c", "event": "stop"},
            ],
        }
        agent = agent_for(doc)  # empty policy stack cannot choose between two
        result = run(agent)
        assert result.status == "failed"

    def test_completed_implies_end_state(self):
        agent = agent_for(linear_doc(3))
        result = run(agent)
        assert result.status == "completed"
        assert agent.machine.state(result.belief_snapshot.current_state).is_end

    def test_llm_policy_drives_choice(self):
        doc = {
            "name": "m",
            "states": [state("a", tags=["start"]), state("b", tags=["end"]), state("c", tags=["end"])],
            "transitions": [
                {"source": "a", "target": "b", "event": "left"},
                {"source": "a", "target": "c", "event": "right"},
            ],
        }
        provider = ScriptedProvider.from_replies(['{"event":"right"}'])
        agent = agent_for(doc, provider=provider,
                          policy=(LlmPolicy(task_description="pick"),))
        result = run(agent)
        assert result.status == "completed"
        assert result.belief_snapshot.current_state == "c"
        assert result.stats.calls == 1

    def test_invalid_machine_rejected_at_construction(self):
        doc = {
            "name": "m",
            "states": [state("a", tags=["start"])],
            "transitions": [],
        }
        with pytest.raises(InvalidMachine):
            agent_for(doc)


def frozen_view(result) -> str:
    return json.dumps(belief_to_trace(result.belief_snapshot))


def mutating_agent() -> Agent:
    """One state with two external self-loops: ``put`` keeps its external
    ``data`` argument under ``kept``, ``grow`` appends to ``kept`` in place."""

    def keep(inputs, ctx):
        return inputs["data"]

    def grow(inputs, ctx):
        inputs["items"].append("grown")
        return len(inputs["items"])

    registry = builtin_registry()
    registry.register("keep", (ParameterSpec("data", "external", "json"),), keep)
    registry.register(
        "grow", (ParameterSpec("items", "internal", "json", source_key="kept"),), grow
    )
    doc = {
        "name": "m",
        "states": [state("a", tags=["start"]), state("z", tags=["end"])],
        "transitions": [
            {
                "source": "a", "target": "a", "event": "put", "trigger": "external",
                "actions": [{
                    "name": "keep", "output_key": "kept",
                    "params": [{"name": "data", "source": "external", "datatype": "json"}],
                }],
            },
            {
                "source": "a", "target": "a", "event": "grow", "trigger": "external",
                "actions": [{
                    "name": "grow", "output_key": "size",
                    "params": [{"name": "items", "source": "internal", "datatype": "json",
                                "source_key": "kept"}],
                }],
            },
            {"source": "a", "target": "z", "event": "stop", "trigger": "external"},
        ],
    }
    return Agent(
        machine=machine_from(doc),
        belief=new_belief(),
        policy=(),
        registry=registry,
        provider=ScriptedProvider.from_replies([]),
    )


class TestSnapshotContract:
    def test_caller_payload_edit_reaches_neither_belief_nor_snapshot(self):
        agent = h3_agent()
        event = EventInstance("e1", {"lines": ["a"]})
        result = run(agent, event)
        event.payload["lines"].append("EDITED")
        assert agent.belief.trajectory[0].event_payload == {"lines": ["a"]}
        assert result.belief_snapshot.trajectory[0].event_payload == {"lines": ["a"]}

    def test_h3_snapshots_survive_later_runs(self):
        agent = h3_agent()
        results, views = [], []
        for k in range(4):
            results.append(run(agent, EventInstance("e1", {"k": k})))
            views.append(frozen_view(results[-1]))
        assert run(agent, EventInstance("e2")).status == "completed"
        for k, (result, view) in enumerate(zip(results, views)):
            assert result.status == "waiting"
            assert len(result.belief_snapshot.trajectory) == k + 1
            assert result.belief_snapshot.current_state == "Leaf"
            assert frozen_view(result) == view

    def test_mutating_action_does_not_reach_earlier_snapshots(self):
        agent = mutating_agent()
        first = run(agent, EventInstance("put", {"data": ["a"]}))
        view = frozen_view(first)
        second = run(agent, EventInstance("grow"))
        run(agent, EventInstance("grow"))
        assert agent.belief.kv["kept"] == ["a", "grown", "grown"]
        assert frozen_view(first) == view
        assert first.belief_snapshot.kv == {"kept": ["a"]}
        assert second.belief_snapshot.kv == {"kept": ["a", "grown"], "size": 2}
        assert [r.inputs for r in second.belief_snapshot.execution_log] == [
            {"data": ["a"]},
            {"items": ["a"]},
        ]
        # the kept value was the payload's; the trajectory keeps the original
        assert agent.belief.trajectory[0].event_payload == {"data": ["a"]}

    def test_snapshot_trace_matches_deep_copy_on_class_name(self):
        agent = agent_for(builtin_machine("class_name"), belief=seeded_s1_belief())
        assert run(agent).status == "waiting"
        events = ["classes_ready", "patterns_ready", "feedback_ready", "revise_patterns",
                  "patterns_ready", "feedback_ready", "accept"]
        for k, name in enumerate(events):
            result = run(agent, EventInstance(name, {"lines": [f"line {k}"] * k}))
            expected = json.dumps(belief_to_trace(copy.deepcopy(agent.belief)))
            assert json.dumps(belief_to_trace(snapshot(agent.belief))) == expected
            assert frozen_view(result) == expected
        assert result.status == "completed"


class TestFlatSemanticsOracle:
    def test_engine_matches_reference_interpreter(self):
        rnd = random.Random(1234)
        for index in range(5):
            doc = random_flat_machine_doc(rnd, index)
            for _ in range(10):
                agent = agent_for(doc, limits=RunLimits(unhandled_event="ignore"))
                start(agent)
                events = [f"e{rnd.randint(0, 3)}" for _ in range(rnd.randint(1, 20))]
                for event in events:
                    dispatch(agent, EventInstance(event))
                got = [(t.source, t.event, t.target) for t in agent.belief.trajectory]
                assert got == reference_trajectory(doc, events)


class TestNotStarted:
    def test_dispatch_requires_started_agent(self):
        from machina.engine import AgentNotStarted

        agent = h3_agent()
        with pytest.raises(AgentNotStarted):
            dispatch(agent, EventInstance("e1"))

    def test_candidates_require_started_agent(self):
        from machina.engine import AgentNotStarted

        with pytest.raises(AgentNotStarted):
            candidate_transitions(h3_agent())


class TestReactSceneActions:
    def test_relation_then_checking_on_s1(self):
        def selection(event, **arguments):
            return json.dumps({"event": event, "arguments": arguments})

        provider = ScriptedProvider.from_replies(
            [
                selection("relation", object="o3", relation="left"),
                selection("checking", object="o1", attribute="material"),
                selection("finish", text="o2"),
            ]
        )
        result = run(make_qa_agent("react", "Which is metal like o1?", s1_scene(), provider))
        assert result.status == "completed" and result.output == "o2"
        scene = "<input:scene>"
        log = [(r.action, r.inputs, r.output) for r in result.belief_snapshot.execution_log]
        assert log[:2] == [
            ("relation", {"object": "o3", "relation": "left", "scene": scene}, ["o1", "o2"]),
            ("checking", {"object": "o1", "attribute": "material", "scene": scene}, ["o2"]),
        ]
