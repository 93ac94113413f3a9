"""No model reply and no deeply nested or malformed payload makes ``run``
raise: each ends in a ``RunResult``, ``failed`` with a reason where the input
is unusable."""

import json
from types import MappingProxyType

import pytest

from machina.actions import builtin_registry
from machina.belief import (
    NestingTooDeep,
    NotJsonValue,
    belief_to_trace,
    copy_json,
    kv_get,
    kv_set,
    new_belief,
    render_history,
    snapshot,
)
from machina.engine import Agent, EventInstance, InvalidEventPayload, dispatch, execute_action, run, start
from machina.errors import MachinaError, UnencodableText, utf8
from machina.harness import make_qa_agent
from machina.keypath import ABSENT
from machina.model import ActionSpec, ParameterSpec
from machina.policy import PARSE_RETRIES, LlmPolicy, RulePolicy, rules_from_value
from machina.providers import ScriptedProvider
from helpers import agent_for, h3_agent, machine_from, s1_scene, state

DEEP_ARRAY_TEXT = "[" * 3000 + "]" * 3000
LONG_INTEGER_TEXT = "1" * 5000


def nested_list(depth: int):
    value = 0
    for _ in range(depth):
        value = [value]
    return value


def assert_usable(result):
    json.dumps(belief_to_trace(snapshot(result.belief_snapshot)))


class TestDeepPayload:
    def test_copy_json_raises_a_typed_error(self):
        with pytest.raises(NestingTooDeep) as info:
            copy_json({"deep": nested_list(5000)})
        assert isinstance(info.value, MachinaError)

    @pytest.mark.parametrize("depth", [900, 5000])
    def test_run_fails_and_the_agent_stays_usable(self, depth):
        agent = h3_agent()
        result = run(agent, EventInstance("e1", {"deep": nested_list(depth)}))
        assert result.status == "failed"
        assert "nested too deeply" in result.reason
        assert result.belief_snapshot.trajectory == []
        assert_usable(result)
        assert run(agent, EventInstance("e2")).status == "completed"

    def test_caller_store_too_deep_to_copy_fails_the_run(self):
        agent = h3_agent()
        kv_set(agent.belief, "x", nested_list(5000))
        result = run(agent)
        assert result.status == "failed"
        assert "nested too deeply" in result.reason
        assert result.belief_snapshot.kv == {}
        assert_usable(result)

    def test_too_deep_action_output_stays_out_of_the_store(self):
        registry = builtin_registry().register("deepen", (), lambda inputs, ctx: nested_list(5000))
        doc = {
            "name": "m",
            "states": [
                state("a", tags=["start"]),
                {**state("b", tags=["end"]), "entry": {"name": "deepen"}},
            ],
            "transitions": [{"source": "a", "target": "b", "event": "go"}],
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
        assert "nested too deeply" in result.reason
        assert "deepen" not in result.belief_snapshot.kv
        assert_usable(result)


class TestBadPayload:
    """A payload that is not a mapping of plain JSON values fails the run
    typed, before any action runs or any record lands, as a too-deep one
    does; nothing it holds reaches a later prompt or trace."""

    BAD = [
        pytest.param(["x"], id="list"),
        pytest.param("ab", id="str"),
        pytest.param(None, id="none"),
        pytest.param([("k", 1)], id="pairs"),
        pytest.param({"s": {1, 2}}, id="set"),
        pytest.param({"b": b"x"}, id="bytes"),
        pytest.param({"t": [(1, 2)]}, id="tuple"),
        pytest.param({"n": float("nan")}, id="nan"),
        pytest.param({"i": {"j": [float("-inf")]}}, id="inf"),
        pytest.param({1: "x"}, id="int-key"),
        pytest.param({"o": {None: 1}}, id="nested-none-key"),
    ]

    @pytest.mark.parametrize("payload", BAD)
    def test_run_fails_and_the_agent_stays_usable(self, payload):
        agent = h3_agent()
        result = run(agent, EventInstance("e1", payload))
        assert result.status == "failed"
        assert result.reason.startswith("event payload")
        assert result.belief_snapshot.trajectory == []
        assert all(r.step == 0 for r in result.belief_snapshot.execution_log)
        assert_usable(result)
        done = run(agent, EventInstance("e1", {"ok": [1.5, "x", None, True]}))
        assert done.status == "waiting"
        json.dumps(belief_to_trace(done.belief_snapshot), allow_nan=False)
        assert "payload=" in render_history(done.belief_snapshot, 100)

    @pytest.mark.parametrize("payload", BAD)
    def test_dispatch_raises_a_typed_error(self, payload):
        agent = h3_agent()
        start(agent)
        with pytest.raises(InvalidEventPayload) as info:
            dispatch(agent, EventInstance("e1", payload))
        assert isinstance(info.value, MachinaError)

    def test_any_mapping_is_copied_as_a_dict(self):
        agent = h3_agent()
        value = {"lines": ["a"]}
        result = run(agent, EventInstance("e1", MappingProxyType({"v": value})))
        value["lines"].append("b")
        payload = result.belief_snapshot.trajectory[0].event_payload
        assert type(payload) is dict and payload == {"v": {"lines": ["a"]}}


# TestBadPayload's values that are not JSON values (a list, a string and None
# are, as an action output or a task input), plus two that pickle cannot copy.
NOT_JSON = [p for p in TestBadPayload.BAD if p.id not in ("list", "str", "none")] + [
    pytest.param(MappingProxyType({"k": 1}), id="mappingproxy"),
    pytest.param((i for i in range(3)), id="generator"),
]


def emitting_agent(value) -> Agent:
    """An agent whose custom action ``emit`` returns ``value`` on entering
    ``b``, where the model then picks between two end states."""
    registry = builtin_registry().register("emit", (), lambda inputs, ctx: value)
    doc = {
        "name": "m",
        "states": [
            state("a", tags=["start"]),
            {**state("b"), "entry": {"name": "emit"}},
            state("c", tags=["end"]),
            state("d", tags=["end"]),
        ],
        "transitions": [
            {"source": "a", "target": "b", "event": "go"},
            {"source": "b", "target": "c", "event": "left"},
            {"source": "b", "target": "d", "event": "right"},
        ],
    }
    return Agent(
        machine=machine_from(doc),
        belief=new_belief(),
        policy=(LlmPolicy(task_description="pick"),),
        registry=registry,
        provider=ScriptedProvider.from_replies(['{"event": "right"}']),
    )


def assert_strict_trace(result):
    json.dumps(belief_to_trace(result.belief_snapshot), allow_nan=False)


class TestNotJsonValue:
    """A value that is not plain JSON never enters a belief: as an action's
    output it fails the step, as a task input it raises, and in the caller's
    key-value store it fails the run; no case raises out of ``run``."""

    @pytest.mark.parametrize("value", NOT_JSON)
    def test_action_output_fails_the_step(self, value):
        agent = emitting_agent(value)
        result = run(agent)
        assert result.status == "failed"
        assert result.reason.startswith("action 'emit' failed: output: ")
        assert "emit" not in result.belief_snapshot.kv
        assert result.belief_snapshot.execution_log == []
        assert result.stats.calls == 0
        assert_strict_trace(result)
        done = run(agent)
        assert done.status == "completed" and done.belief_snapshot.current_state == "d"
        assert_strict_trace(done)

    @pytest.mark.parametrize("value", NOT_JSON)
    def test_task_input_raises_a_typed_error(self, value):
        with pytest.raises(NotJsonValue) as info:
            new_belief(inputs={"doc": value})
        assert isinstance(info.value, MachinaError)

    @pytest.mark.parametrize("value", NOT_JSON)
    def test_caller_store_value_fails_the_run(self, value):
        agent = h3_agent()
        kv_set(agent.belief, "x", value)
        result = run(agent)
        assert result.status == "failed"
        assert result.reason.startswith("key-value store: ")
        assert result.belief_snapshot.kv == {}
        assert_strict_trace(result)
        del agent.belief.kv["x"]
        done = run(agent, EventInstance("e2"))
        assert done.status == "completed"
        assert_strict_trace(done)

    def test_caller_store_value_bound_to_a_parameter_fails_the_action(self):
        provider = ScriptedProvider.from_replies(["counting"])
        agent = make_qa_agent("routing", "How many red objects are there?", s1_scene(), provider)
        kv_set(agent.belief, "question", {"a set"})
        result = run(agent)
        assert result.status == "failed"
        assert result.reason.startswith(
            "action 'classifyQuestion' failed: parameter 'question': a set is not a JSON value;"
        )
        assert result.stats.calls == 0
        assert_strict_trace(result)


class TestBadOutputKey:
    def test_fails_before_the_action_runs(self):
        spec = ActionSpec(
            "classifyQuestion",
            output_key="bad key",
            params=(ParameterSpec("question", "internal", "string"),),
        )
        belief = new_belief()
        kv_set(belief, "question", "How many red objects are there?")
        provider = ScriptedProvider.from_replies(["counting"])
        with pytest.raises(MachinaError, match="must be an identifier"):
            execute_action(builtin_registry(), spec, {}, belief, provider)
        assert provider.snapshot_stats().calls == 0
        assert belief.execution_log == [] and "bad key" not in belief.kv


class TestCrashingReplies:
    @pytest.mark.parametrize(
        "value", [DEEP_ARRAY_TEXT, LONG_INTEGER_TEXT], ids=["deep-array", "long-integer"]
    )
    def test_react_policy_fails_after_its_retries(self, value):
        reply = '{"event": "filter", "arguments": {"predicate": %s}}' % value
        provider = ScriptedProvider.from_replies([reply] * 5)
        agent = make_qa_agent("react", "How many red objects are there?", s1_scene(), provider)
        result = run(agent)
        assert result.status == "failed"
        assert result.reason.startswith("reply contains no usable JSON object")
        assert result.stats.calls == PARSE_RETRIES + 1
        assert_usable(result)

    def test_routing_extract_objects_fails_the_action(self):
        provider = ScriptedProvider.from_replies(["counting", DEEP_ARRAY_TEXT])
        agent = make_qa_agent("routing", "How many red objects are there?", s1_scene(), provider)
        result = run(agent)
        assert result.status == "failed"
        assert result.reason.startswith("action 'extractObjects' failed")
        assert_usable(result)


def items_belief():
    belief = new_belief()
    kv_set(belief, "items", ["x"])
    return belief


class TestNumericSegmentsIntCannotRead:
    """A digit segment that ``int()`` rejects (``'²'``, or more digits than it
    converts) indexes no list: the path reads absent."""

    @pytest.mark.parametrize("segment", ["\u00b2", LONG_INTEGER_TEXT], ids=["superscript-two", "long-integer"])
    def test_kv_get_reads_absent(self, segment):
        assert kv_get(items_belief(), f"items.{segment}") is ABSENT

    def test_guard_reads_false(self):
        doc = {
            "name": "m",
            "states": [state("a", tags=["start"]), state("b", tags=["end"]), state("c", tags=["end"])],
            "transitions": [
                {"source": "a", "target": "b", "event": "go", "guard": {"expr": f"items.{LONG_INTEGER_TEXT} == 1"}},
                {"source": "a", "target": "c", "event": "skip"},
            ],
        }
        result = run(agent_for(doc, belief=items_belief()))
        assert result.status == "completed"
        assert result.belief_snapshot.current_state == "c"

    def test_rule_argument_fails_typed(self):
        doc = {
            "name": "m",
            "states": [state("a", tags=["start"]), state("b", tags=["end"]), state("c", tags=["end"])],
            "transitions": [
                {"source": "a", "target": "b", "event": "go"},
                {"source": "a", "target": "c", "event": "skip"},
            ],
        }
        rules = rules_from_value(
            [{"emit_event": "go", "when_state": "a", "emit_arguments": {"item": {"$ref": "items.\u00b2"}}}]
        )
        result = run(agent_for(doc, policy=[RulePolicy(rules)], belief=items_belief()))
        assert result.status == "failed"
        assert result.reason == "rule argument references absent belief path 'items.\u00b2'"
        assert_usable(result)


class TestLoneSurrogate:
    """A lone surrogate, which the Python API accepts but UTF-8 cannot
    encode, fails the run with a typed error at the next LLM decision."""

    def react(self, question, replies=()):
        provider = ScriptedProvider.from_replies(list(replies))
        return make_qa_agent("react", question, s1_scene(), provider)

    def test_in_an_event_payload(self):
        agent = self.react("How many red objects are there?")
        result = run(agent, EventInstance("filter", {"predicate": {"color": "\ud800"}}))
        assert result.status == "failed"
        assert "UTF-8 cannot encode" in result.reason
        assert result.stats.calls == 0
        assert_usable(result)

    def test_in_the_question(self):
        result = run(self.react("how many \ud800 objects?"))
        assert result.status == "failed"
        assert "UTF-8 cannot encode" in result.reason
        assert result.stats.calls == 0
        assert_usable(result)

    def test_in_a_reply(self):
        result = run(self.react("How many red objects are there?", ['{"event": "\ud800"}']))
        assert result.status == "failed"
        assert "UTF-8 cannot encode" in result.reason
        assert_usable(result)

    def test_utf8_raises_a_typed_error(self):
        with pytest.raises(UnencodableText) as info:
            utf8("ab\udfffc")
        assert isinstance(info.value, MachinaError)
        assert "at character 2" in str(info.value)
