import json
import random

import pytest

from machina.belief import kv_set, new_belief, record_action, ActionRecord
from machina.errors import SchemaError
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
from machina.providers import ReplyNotText, ScriptedProvider
from helpers import FixedReplyProvider


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

    @pytest.mark.parametrize("ref", ["", "a..b", ".a", "a."])
    def test_bad_ref_path_is_rejected_at_load(self, ref):
        doc = [
            {"emit_event": "go", "when_state": "s"},
            {"emit_event": "go", "when_state": "A", "emit_arguments": {"n": {"$ref": ref}}},
        ]
        with pytest.raises(SchemaError) as info:
            rules_from_value(doc)
        assert info.value.pointer == "/1/emit_arguments/n/$ref"

    def test_ref_reads_the_store_as_a_guard_does(self):
        belief = new_belief(inputs={"scene": {"objects": ["o1", "o2"]}})
        kv_set(belief, "x", 5)
        kv_set(belief, "kv", {"x": "shadowed"})
        (rule,) = rules_from_value(
            [
                {
                    "emit_event": "go",
                    "when_state": "s",
                    "when_guard": "kv.x == 5",
                    "emit_arguments": {
                        "alias": {"$ref": "kv.x"},
                        "plain": {"$ref": "x"},
                        "input": {"$ref": "scene.objects.1"},
                        "whole": {"$ref": "kv"},
                    },
                }
            ]
        )
        sel = rule_decide((rule,), STATE, [candidate("go")], belief)
        assert sel.payload == {"alias": 5, "plain": 5, "input": "o2", "whole": {"x": "shadowed"}}


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

    def test_transition_line_is_formatted_once_per_candidate(self):
        cands = self.qc_candidates() + [candidate("finish", params=[STRING_PARAM])]
        first = build_policy_prompt(POLICY, STATE, cands, new_belief())
        kept = [vars(c)["prompt_line"] for c in cands]  # cached on the candidate
        assert build_policy_prompt(POLICY, STATE, cands, new_belief()) == first
        assert all(c.prompt_line is line for c, line in zip(cands, kept))
        assert "\n".join(kept) in first


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

    @pytest.mark.parametrize("arguments", ["[]", '"x"', "1", "null"])
    def test_arguments_that_are_not_an_object(self, arguments):
        with pytest.raises(Unparseable):
            parse_policy_response(f'{{"event":"go","arguments":{arguments}}}', [candidate("go")])

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

    @pytest.mark.parametrize("reply", [None, 7, b'{"event": "go"}'])
    def test_a_reply_that_is_not_text_fails_typed_without_a_retry(self, reply):
        provider = FixedReplyProvider(reply)
        with pytest.raises(ReplyNotText):
            llm_decide(POLICY, provider, STATE, [candidate("go"), candidate("stop")], new_belief())
        assert provider.calls == 1


class TestDecide:
    def test_fast_forward_consults_nothing(self):
        provider = ScriptedProvider.from_replies([])
        cands = [candidate("go")]
        chosen, sel = decide((POLICY,), STATE, cands, new_belief(), provider)
        assert chosen is cands[0] and sel == EventInstance("go", {})
        assert provider.snapshot_stats().calls == 0

    def test_rules_miss_llm_hits(self):
        provider = ScriptedProvider.from_replies(['{"event":"b"}'])
        stack = (RulePolicy((Rule(emit_event="zz", when_state="s"),)), POLICY)
        cands = [candidate("a"), candidate("b")]
        chosen, sel = decide(stack, STATE, cands, new_belief(), provider)
        assert chosen is cands[1] and sel.name == "b"

    def test_exhausted(self):
        stack = (RulePolicy((Rule(emit_event="zz", when_state="s"),)),)
        with pytest.raises(PolicyExhausted):
            decide(stack, STATE, [candidate("a"), candidate("b")], new_belief(), ScriptedProvider.from_replies([]))

    def test_external_candidates_never_selected(self):
        provider = ScriptedProvider.from_replies(['{"event":"inner"}'])
        cands = [candidate("outer", trigger="external"), candidate("inner"), candidate("other")]
        chosen, sel = decide((POLICY,), STATE, cands, new_belief(), provider)
        assert chosen is cands[1] and sel.name == "inner"

    def test_never_returns_non_candidate(self):
        rnd = random.Random(5)
        events = ["a", "b", "c", "d"]
        for _ in range(100):
            cands = [
                candidate(e, passed=rnd.random() < 0.7)
                for e in rnd.sample(events, rnd.randint(1, 4))
            ]
            reply = json.dumps({"event": rnd.choice(events)})
            provider = ScriptedProvider.from_replies([reply, reply])
            try:
                chosen, sel = decide((POLICY,), STATE, cands, new_belief(), provider)
            except (PolicyFailure, PolicyExhausted):
                continue
            assert chosen.guard_passed and chosen.transition.event == sel.name
            assert any(chosen is c for c in cands)

    def test_a_shared_event_maps_to_the_first_selectable_candidate(self):
        cands = [
            candidate("go", target="out", trigger="external"),
            candidate("go", target="blocked", passed=False),
            candidate("go", target="first"),
            candidate("go", target="second"),
        ]
        provider = ScriptedProvider.from_replies(['{"event":"go"}'])
        chosen, sel = decide((POLICY,), STATE, cands, new_belief(), provider)
        assert chosen is cands[2] and sel.name == "go"

    def test_the_candidate_comes_from_candidates_not_the_stages_list(self):
        class Clearing:
            def select(self, state, selectable, belief, provider):
                chosen = selectable[1].transition.event
                selectable.clear()
                return EventInstance(chosen)

        cands = [candidate("a"), candidate("b")]
        chosen, sel = decide((Clearing(),), STATE, cands, new_belief(), ScriptedProvider.from_replies([]))
        assert chosen is cands[1] and sel == EventInstance("b")

    @pytest.mark.parametrize("event", ["outer", "blocked", "absent"])
    def test_a_selection_of_no_selectable_candidate_raises(self, event):
        class Naming:
            def select(self, state, selectable, belief, provider):
                return EventInstance(event)

        cands = [
            candidate("outer", trigger="external"),
            candidate("blocked", passed=False),
            candidate("a"),
            candidate("b"),
        ]
        with pytest.raises(UnknownEvent) as err:
            decide((Naming(),), STATE, cands, new_belief(), ScriptedProvider.from_replies([]))
        assert err.value.event == event


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
