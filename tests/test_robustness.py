"""No model reply and no deeply nested payload makes ``run`` raise: each ends
in a ``RunResult``, ``failed`` with a reason where the input is unusable."""

import json

import pytest

from machina.actions import builtin_registry
from machina.belief import NestingTooDeep, belief_to_trace, copy_json, kv_get, kv_set, new_belief, snapshot
from machina.engine import Agent, EventInstance, run
from machina.errors import MachinaError
from machina.harness import make_qa_agent
from machina.keypath import ABSENT
from machina.policy import PARSE_RETRIES, RulePolicy, rules_from_value
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
