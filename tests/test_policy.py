import json
import random

import pytest

from machina.belief import kv_set, new_belief, record_action, ActionRecord
from machina.guards import parse_guard
from machina.model import EventInstance, ParameterSpec, State, Transition
from machina.policy import (
    BadArgumentType,
    CandidateTransition,
    LlmPolicy,
    MissingArgument,
    NoCandidates,
    PathRef,
    PolicyExhausted,
    PolicyFailure,
    Rule,
    RulePolicy,
    UnknownEvent,
    Unparseable,
    build_policy_prompt,
    decide,
    fast_forward,
    llm_decide,
    parse_policy_response,
    rule_decide,
    rules_from_value,
)
from machina.providers import ScriptedProvider


def candidate(event, target="t", passed=True, params=(), trigger="internal", desc=""):
    return CandidateTransition(
        transition=Transition(source="s", target=target, event=event, trigger=trigger),
        guard_passed=passed,
        required_external_params=tuple(params),
        target_description=desc,
    )


STATE = State(name="s", description="the current stage")
POLICY = LlmPolicy(task_description="do the thing")
STRING_PARAM = ParameterSpec("text", "external", "string", "the answer")


class TestFastForward:
    def test_single_passing_no_params(self):
        sel = fast_forward([candidate("go")])
        assert sel == EventInstance("go", {})

    def test_two_passing(self):
        assert fast_forward([candidate("a"), candidate("b")]) is None

    def test_single_needing_param(self):
        assert fast_forward([candidate("go", params=[STRING_PARAM])]) is None

    def test_failed_guard_not_counted(self):
        sel = fast_forward([candidate("a", passed=False), candidate("b")])
        assert sel == EventInstance("b", {})

    def test_external_trigger_not_fast_forwarded(self):
        assert fast_forward([candidate("go", trigger="external")]) is None


class TestRuleDecide:
    def test_state_and_guard_match(self):
        belief = new_belief()
        kv_set(belief, "question_type", "counting")
        rules = (
            Rule(
                emit_event="count",
                when_state="QuestionClassification",
                when_guard=parse_guard("kv.question_type == 'counting'"),
            ),
        )
        state = State(name="QuestionClassification", description="")
        sel = rule_decide(rules, state, [candidate("count"), candidate("judge")], belief)
        assert sel == EventInstance("count", {})

    def test_no_rule_matches(self):
        belief = new_belief()
        rules = (Rule(emit_event="count", when_state="Elsewhere"),)
        assert rule_decide(rules, STATE, [candidate("count")], belief) is None

    def test_rule_with_non_candidate_event_skipped(self):
        belief = new_belief()
        rules = (
            Rule(emit_event="fly", when_state="s"),
            Rule(emit_event="go", when_state="s"),
        )
        sel = rule_decide(rules, STATE, [candidate("go")], belief)
        assert sel == EventInstance("go", {})

    def test_path_ref_arguments(self):
        belief = new_belief()
        kv_set(belief, "answer", "red")
        rules = (
            Rule(
                emit_event="go",
                when_state="s",
                emit_arguments={"text": PathRef("answer"), "fixed": 3},
            ),
        )
        sel = rule_decide(rules, STATE, [candidate("go", params=[STRING_PARAM])], belief)
        assert sel.payload == {"text": "red", "fixed": 3}

    def test_unresolvable_path_ref(self):
        from machina.policy import RuleArgumentUnresolvable

        rules = (
            Rule(emit_event="go", when_state="s", emit_arguments={"text": PathRef("gone")}),
        )
        with pytest.raises(RuleArgumentUnresolvable):
            rule_decide(rules, STATE, [candidate("go")], new_belief())

    def test_rule_not_covering_params_skipped(self):
        rules = (Rule(emit_event="go", when_state="s"),)
        sel = rule_decide(rules, STATE, [candidate("go", params=[STRING_PARAM])], new_belief())
        assert sel is None

    def test_rules_file_parsing(self):
        doc = [
            {
                "when_state": "s",
                "when_guard": "x == 1",
                "emit_event": "go",
                "emit_arguments": {"text": {"$ref": "answer"}, "n": 2},
            }
        ]
        (rule,) = rules_from_value(doc)
        assert rule.when_state == "s"
        assert rule.emit_arguments["text"] == PathRef("answer")
        assert rule.emit_arguments["n"] == 2


class TestPrompt:
    def qc_candidates(self):
        return [
            candidate("count", target="ObjectExtraction", desc="extract then count"),
            candidate("judge", target="DirectAnswer", desc="answer yes or no"),
            candidate("query", target="DirectAnswer", desc="answer the attribute"),
        ]

    def test_sections_and_events(self):
        prompt = build_policy_prompt(POLICY, STATE, self.qc_candidates(), new_belief())
        for header in (
            "# Task",
            "# Execution history",
            "# Current state",
            "# Available transitions",
            "# Output instruction",
        ):
            assert header in prompt
        assert "- count -> ObjectExtraction: extract then count | params: none" in prompt
        assert "- judge" in prompt and "- query" in prompt

    def test_history_section_nonempty_after_action(self):
        belief = new_belief()
        record_action(belief, ActionRecord(0, "note", {}, "boot", "entry"))
        prompt = build_policy_prompt(POLICY, STATE, self.qc_candidates(), belief)
        history = prompt.split("# Execution history\n")[1].split("\n# Current state")[0]
        assert "note" in history

    def test_no_candidates(self):
        with pytest.raises(NoCandidates):
            build_policy_prompt(POLICY, STATE, [candidate("go", passed=False)], new_belief())

    def test_deterministic(self):
        a = build_policy_prompt(POLICY, STATE, self.qc_candidates(), new_belief())
        b = build_policy_prompt(POLICY, STATE, self.qc_candidates(), new_belief())
        assert a == b

    def test_param_listing(self):
        cands = [candidate("finish", params=[STRING_PARAM])]
        prompt = build_policy_prompt(POLICY, STATE, cands, new_belief())
        assert "params: text: string (the answer)" in prompt


class TestParseResponse:
    def test_plain_object(self):
        sel = parse_policy_response('{"event":"count","arguments":{}}', [candidate("count")])
        assert sel == EventInstance("count", {})

    def test_chatty_reply(self):
        sel = parse_policy_response('Sure! {"event":"judge"}', [candidate("judge")])
        assert sel.name == "judge"

    def test_unknown_event(self):
        with pytest.raises(UnknownEvent):
            parse_policy_response('{"event":"fly"}', [candidate("go")])

    def test_unparseable(self):
        with pytest.raises(Unparseable):
            parse_policy_response("no json here", [candidate("go")])

    def test_missing_argument(self):
        with pytest.raises(MissingArgument):
            parse_policy_response('{"event":"go"}', [candidate("go", params=[STRING_PARAM])])

    def test_bad_argument_type(self):
        with pytest.raises(BadArgumentType):
            parse_policy_response(
                '{"event":"go","arguments":{"text": 5}}',
                [candidate("go", params=[STRING_PARAM])],
            )

    def test_number_coercion(self):
        param = ParameterSpec("n", "external", "number")
        sel = parse_policy_response(
            '{"event":"go","arguments":{"n":"4"}}', [candidate("go", params=[param])]
        )
        assert sel.payload["n"] == 4

    def test_first_json_object_wins(self):
        text = 'bad {not json} then {"event":"go"} and {"event":"other"}'
        sel = parse_policy_response(text, [candidate("go"), candidate("other")])
        assert sel.name == "go"


class TestLlmDecide:
    def test_valid_first_try(self):
        provider = ScriptedProvider.from_replies(['{"event":"go"}'])
        sel = llm_decide(POLICY, provider, STATE, [candidate("go")], new_belief())
        assert sel.name == "go"
        assert provider.snapshot_stats().calls == 1

    def test_retry_then_valid(self):
        provider = ScriptedProvider.from_replies(["garbage", '{"event":"go"}'])
        sel = llm_decide(POLICY, provider, STATE, [candidate("go")], new_belief())
        assert sel.name == "go"
        assert provider.snapshot_stats().calls == 2

    def test_retry_prompt_carries_error(self):
        from machina.providers import ScriptStep

        provider = ScriptedProvider(
            [
                ScriptStep(reply="garbage"),
                ScriptStep(reply='{"event":"go"}', match="# Correction"),
            ]
        )
        sel = llm_decide(POLICY, provider, STATE, [candidate("go")], new_belief())
        assert sel.name == "go"

    def test_failure_after_retries(self):
        provider = ScriptedProvider.from_replies(["junk", "junk"])
        with pytest.raises(PolicyFailure):
            llm_decide(POLICY, provider, STATE, [candidate("go")], new_belief())
        assert provider.snapshot_stats().calls == 2


class TestDecide:
    def test_fast_forward_consults_nothing(self):
        provider = ScriptedProvider.from_replies([])
        sel = decide((POLICY,), STATE, [candidate("go")], new_belief(), provider)
        assert sel.name == "go"
        assert provider.snapshot_stats().calls == 0

    def test_rules_miss_llm_hits(self):
        provider = ScriptedProvider.from_replies(['{"event":"b"}'])
        stack = (RulePolicy((Rule(emit_event="zz", when_state="s"),)), POLICY)
        sel = decide(stack, STATE, [candidate("a"), candidate("b")], new_belief(), provider)
        assert sel.name == "b"

    def test_exhausted(self):
        stack = (RulePolicy((Rule(emit_event="zz", when_state="s"),)),)
        with pytest.raises(PolicyExhausted):
            decide(stack, STATE, [candidate("a"), candidate("b")], new_belief(), ScriptedProvider.from_replies([]))

    def test_external_candidates_never_selected(self):
        provider = ScriptedProvider.from_replies(['{"event":"inner"}'])
        cands = [candidate("outer", trigger="external"), candidate("inner"), candidate("other")]
        sel = decide((POLICY,), STATE, cands, new_belief(), provider)
        assert sel.name == "inner"

    def test_never_returns_non_candidate(self):
        rnd = random.Random(5)
        events = ["a", "b", "c", "d"]
        for _ in range(100):
            cands = [
                candidate(e, passed=rnd.random() < 0.7)
                for e in rnd.sample(events, rnd.randint(1, 4))
            ]
            passing = {c.transition.event for c in cands if c.guard_passed}
            reply = json.dumps({"event": rnd.choice(events)})
            provider = ScriptedProvider.from_replies([reply, reply])
            try:
                sel = decide((POLICY,), STATE, cands, new_belief(), provider)
            except (PolicyFailure, PolicyExhausted, NoCandidates):
                continue
            assert sel.name in passing


class TestRuleFileEdges:
    def test_rule_without_condition_rejected(self):
        from machina.errors import SchemaError

        with pytest.raises(SchemaError):
            rules_from_value([{"emit_event": "go"}])

    def test_rule_unknown_key_rejected(self):
        from machina.errors import SchemaError

        with pytest.raises(SchemaError):
            rules_from_value([{"emit_event": "go", "when_state": "s", "bogus": 1}])

    def test_rule_bad_guard_text(self):
        from machina.guards import GuardSyntaxError

        with pytest.raises(GuardSyntaxError):
            rules_from_value([{"emit_event": "go", "when_guard": "a == "}])
