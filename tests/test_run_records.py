"""The records, events and results the run loop builds on every step.

Those sites build their named tuples with ``machina.values.tuple_new``, which
checks nothing, so these tests check what each site hands out: the exact
class, every field present, and equality with the same values built through
the public constructor. A property over the bundled resume workflows then
drives ``run`` with random events, payloads and limits.
"""

import copy
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from machina.actions import ActionContext, builtin_registry
from machina.belief import ActionRecord, TransitionRecord, new_belief
from machina.engine import (
    STATUS_COMPLETED,
    UNHANDLED_ERROR,
    UNHANDLED_IGNORE,
    Agent,
    EventInstance,
    RunLimits,
    RunResult,
    StepOutcome,
    candidate_transitions,
    dispatch,
    execute_action,
    run,
    start,
)
from machina.harness import builtin_machine
from machina.model import ActionSpec
from machina.policy import (
    LlmPolicy,
    Rule,
    fast_forward,
    llm_decide,
    parse_policy_response,
    rule_decide,
)
from machina.providers import CompletionRequest, ScriptedProvider
from machina.scene import answer_question, classify_question, extract_objects
from machina.values import EMPTY_MAPPING
from helpers import RecordingProvider, machine_from, s1_scene, state


def assert_whole(value, cls):
    """``value`` is a complete ``cls``, as its constructor would build it."""
    assert type(value) is cls
    assert len(value) == len(cls._fields)
    assert value == cls(*value)
    assert tuple(value._asdict()) == cls._fields


def recording(replies):
    return RecordingProvider(ScriptedProvider.from_replies(replies))


def capturing_agent():
    """An agent whose one step runs a guard action and a transition action,
    each of which keeps the context it was given."""
    contexts = {}

    def keep(name, output):
        def impl(inputs, ctx):
            contexts[name] = ctx
            return output

        return impl

    registry = (
        builtin_registry()
        .register("check", (), keep("guard", True))
        .register("act", (), keep("action", "done"))
    )
    doc = {
        "name": "capture",
        "states": [state("a", tags=["start"]), state("b", tags=["end"])],
        "transitions": [
            {
                "source": "a",
                "target": "b",
                "event": "go",
                "trigger": "external",
                "guard": {"action": "check"},
                "actions": [{"name": "act"}],
            }
        ],
    }
    agent = Agent(
        machine=machine_from(doc),
        belief=new_belief(),
        policy=(),
        registry=registry,
        provider=ScriptedProvider.from_replies([]),
    )
    return agent, contexts


class TestRunLoopSites:
    def test_execute_action_builds_its_context_and_record(self):
        agent, contexts = capturing_agent()
        record = execute_action(
            agent.registry, ActionSpec("act"), {}, agent.belief, agent.provider, step=0
        )
        assert_whole(record, ActionRecord)
        assert record == ActionRecord(0, "act", {}, "done", "transition")
        assert_whole(contexts["action"], ActionContext)
        assert contexts["action"] == ActionContext(agent.provider, ActionSpec("act"))

    def test_dispatch_builds_its_transition_record_and_outcome(self):
        agent, contexts = capturing_agent()
        start(agent)
        event = EventInstance("go", {"n": 1})
        outcome = dispatch(agent, event)
        assert_whole(outcome, StepOutcome)
        assert (outcome.event, outcome.source_leaf, outcome.target_leaf) == (event, "a", "b")
        assert outcome.records == tuple(agent.belief.execution_log)
        record = agent.belief.trajectory[-1]
        assert_whole(record, TransitionRecord)
        assert record == TransitionRecord(1, "a", "b", "go", {"n": 1})
        assert_whole(contexts["guard"], ActionContext)
        assert contexts["guard"].spec == ActionSpec("check")
        assert_whole(contexts["action"], ActionContext)

    def test_run_builds_its_result(self):
        agent, _ = capturing_agent()
        waiting = run(agent)
        assert_whole(waiting, RunResult)
        assert (waiting.status, waiting.reason) == ("waiting", None)
        done = run(agent, EventInstance("go"))
        assert_whole(done, RunResult)
        assert (done.status, done.output, done.reason) == (STATUS_COMPLETED, "done", None)
        assert agent.belief.trajectory[-1].event_payload is None
        failed = run(capturing_agent()[0], EventInstance("nope"))
        assert_whole(failed, RunResult)
        assert failed.status == "failed" and "nope" in failed.reason


def linear_candidates():
    """A started two-state agent and its one internal, parameterless candidate."""
    agent = Agent(
        machine=machine_from(
            {
                "name": "line",
                "states": [state("s1", tags=["start"]), state("s2", tags=["end"])],
                "transitions": [{"source": "s1", "target": "s2", "event": "next"}],
            }
        ),
        belief=new_belief(),
        policy=(),
        registry=builtin_registry(),
        provider=ScriptedProvider.from_replies([]),
    )
    start(agent)
    return agent, candidate_transitions(agent)


class TestPolicySites:
    def test_fast_forward_passes_the_shared_empty_payload(self):
        _, candidates = linear_candidates()
        event = fast_forward(candidates)
        assert_whole(event, EventInstance)
        assert event == EventInstance("next")
        assert event.payload is EMPTY_MAPPING

    def test_rule_decide(self):
        agent, candidates = linear_candidates()
        rules = (Rule("next", when_state="s1", emit_arguments={"n": 2}),)
        event = rule_decide(rules, agent.machine.state("s1"), candidates, agent.belief)
        assert_whole(event, EventInstance)
        assert event == EventInstance("next", {"n": 2})

    def test_parse_policy_response(self):
        _, candidates = linear_candidates()
        event = parse_policy_response('{"event": "next", "arguments": {"k": "v"}}', candidates)
        assert_whole(event, EventInstance)
        assert event == EventInstance("next", {"k": "v"})

    def test_llm_decide_sends_whole_requests(self):
        agent, candidates = linear_candidates()
        provider = recording(["no json here", '{"event": "next"}'])
        event = llm_decide(
            LlmPolicy("go on"), provider, agent.machine.state("s1"), candidates, agent.belief
        )
        assert event == EventInstance("next", {})
        assert len(provider.requests) == 2
        for request in provider.requests:
            assert_whole(request, CompletionRequest)
            assert request.system is None
        assert provider.requests[1].prompt.startswith(provider.requests[0].prompt)


class TestSceneSites:
    def test_each_scene_prompt_is_a_whole_request(self):
        scene = s1_scene()
        first = scene.object_ids()[0]
        provider = recording(["counting", f'["{first}"]', "3"])
        assert classify_question(provider, "How many cubes?") == "counting"
        assert extract_objects(provider, scene, "Which cube?") == [first]
        assert answer_question(provider, scene, "How many cubes?") == "3"
        assert len(provider.requests) == 3
        for request in provider.requests:
            assert_whole(request, CompletionRequest)
            assert request.system is None


# ---------------------------------------------------------------------------
# Property: the run loop over the bundled resume workflows

WORKFLOWS = ("class_name", "h3", "test_driven", "agent_coder")
EVENT_NAMES = {name: sorted({t.event for t in builtin_machine(name).transitions}) for name in WORKFLOWS}

_keys = st.one_of(st.text(max_size=4), st.integers(-3, 3))
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(_keys, inner, max_size=3),
    ),
    max_leaves=12,
)
_payloads = st.one_of(
    st.just(EMPTY_MAPPING),
    st.dictionaries(st.text(max_size=6), _values, max_size=4),
    st.dictionaries(_keys, _values, max_size=3),
)


@st.composite
def scripts(draw):
    workflow = draw(st.sampled_from(WORKFLOWS))
    names = st.sampled_from(EVENT_NAMES[workflow] + ["no_such_event"])
    events = draw(st.lists(st.tuples(names, _payloads), max_size=12))
    limits = RunLimits(
        max_transitions=draw(st.integers(1, 15)),
        unhandled_event=draw(st.sampled_from((UNHANDLED_ERROR, UNHANDLED_IGNORE))),
    )
    return workflow, events, limits


@settings(max_examples=300, deadline=None)
@given(scripts())
@example(("h3", [("e1", {"x": math.nan}), ("e1", {"t": (1, 2)}), ("e1", {1: "a"})], RunLimits()))
@example(("test_driven", [("generate_tests", {"a": [{"b": [None, 1.5]}]})] * 4, RunLimits(3)))
def test_random_events_never_break_the_run_loop(script):
    workflow, events, limits = script
    machine = builtin_machine(workflow)
    agent = Agent(
        machine=machine,
        belief=new_belief(),
        policy=(),
        registry=builtin_registry(),
        provider=ScriptedProvider.from_replies([]),
        limits=limits,
    )
    kept = []
    for name, payload in [(None, None)] + events:
        result = run(agent) if name is None else run(agent, EventInstance(name, payload))
        assert len(result) == len(RunResult._fields) and result == RunResult(*result)
        belief = result.belief_snapshot
        assert [r.step for r in belief.trajectory] == list(range(1, len(belief.trajectory) + 1))
        assert (result.status == STATUS_COMPLETED) == machine.state(belief.current_state).is_end
        for record in [*belief.trajectory, *belief.execution_log]:
            assert len(record) == len(type(record)._fields) and record == type(record)(*record)
        kept.append((belief, copy.deepcopy(belief)))
    for belief, copied in kept:
        assert belief == copied
