"""The policy-stage seam: a stage is any object with ``select``.

The stage classes here are defined only in this file; nothing in ``machina``
names them, so these tests show that an embedder can add a stage to a stack
and have ``run`` consult it.
"""

import pytest

from machina.belief import new_belief
from machina.engine import run
from machina.errors import MachinaError
from machina.model import EventInstance, State, Transition
from machina.policy import CandidateTransition, LlmPolicy, PolicyExhausted, Rule, RulePolicy, decide
from machina.providers import ScriptedProvider

from helpers import agent_for, state

# Two internal transitions out of the start state: fast-forward cannot choose.
FORK = {
    "name": "fork",
    "states": [state("a", tags=["start"]), state("left", tags=["end"]), state("right", tags=["end"])],
    "transitions": [
        {"source": "a", "target": "left", "event": "go_left"},
        {"source": "a", "target": "right", "event": "go_right"},
    ],
}


class Abstain:
    """Never selects; counts how often it is asked."""

    def __init__(self):
        self.asked = 0

    def select(self, state, selectable, belief, provider):
        self.asked += 1
        return None


class Pick:
    """Selects ``event`` whenever it is selectable."""

    def __init__(self, event):
        self.event = event
        self.seen = []

    def select(self, state, selectable, belief, provider):
        self.seen.append((state.name, sorted(c.transition.event for c in selectable)))
        if any(c.transition.event == self.event for c in selectable):
            return EventInstance(self.event)
        return None


def run_fork(stack, provider=None):
    return run(agent_for(FORK, provider=provider, policy=stack))


class TestStageThroughRun:
    def test_a_stage_that_returns_none_passes_to_the_next(self):
        abstain, pick = Abstain(), Pick("go_right")
        result = run_fork((abstain, pick))
        assert result.status == "completed"
        assert abstain.asked == 1
        assert pick.seen == [("a", ["go_left", "go_right"])]
        assert result.belief_snapshot.current_state == "right"

    def test_a_stages_event_is_dispatched(self):
        result = run_fork((Pick("go_left"), Pick("go_right")))
        assert result.status == "completed"
        assert [r.event for r in result.belief_snapshot.trajectory] == ["go_left"]
        assert result.belief_snapshot.current_state == "left"

    def test_a_stack_of_abstainers_fails_with_policy_exhausted(self):
        first, second = Abstain(), Abstain()
        result = run_fork((first, second))
        assert result.status == "failed"
        assert result.reason == str(PolicyExhausted())
        assert (first.asked, second.asked) == (1, 1)

    def test_a_custom_stage_sits_between_the_built_in_ones(self):
        provider = ScriptedProvider.from_replies([])
        stack = (RulePolicy((Rule("nowhere", when_state="a"),)), Pick("go_left"), LlmPolicy("unused"))
        result = run_fork(stack, provider)
        assert result.status == "completed"
        assert result.belief_snapshot.current_state == "left"
        assert provider.snapshot_stats().calls == 0


class TestStageCheckedWhenBuilt:
    @pytest.mark.parametrize(
        "stage",
        [object(), "rules", (Rule("go_left", when_state="a"),), type("Half", (), {"select": None})()],
        ids=["object", "str", "bare-rule-tuple", "select-not-callable"],
    )
    def test_an_entry_without_a_callable_select_is_refused(self, stage):
        with pytest.raises(MachinaError, match=r"^unknown policy stage: "):
            agent_for(FORK, policy=(Pick("go_left"), stage))

    def test_replace_checks_the_new_stack(self):
        agent = agent_for(FORK, policy=(Pick("go_left"),))
        with pytest.raises(MachinaError, match=r"^unknown policy stage: "):
            agent._replace(policy=(object(),))


class TestLlmStageSkipRule:
    """With no selectable candidate the LLM stage asks no model."""

    # a passing external candidate and a failed internal one: neither is
    # selectable, and fast-forward does not fire
    CANDIDATES = [
        CandidateTransition(Transition(source="s", target="t", event="outer", trigger="external"), True),
        CandidateTransition(Transition(source="s", target="t", event="inner"), False),
    ]
    STATE = State(name="s", description="")

    def test_it_passes_to_the_next_stage(self):
        provider = ScriptedProvider.from_replies([])
        after = Abstain()
        with pytest.raises(PolicyExhausted):
            decide((LlmPolicy("t"), after), self.STATE, self.CANDIDATES, new_belief(), provider)
        assert after.asked == 1
        assert provider.snapshot_stats().calls == 0

    def test_as_the_last_stage_it_exhausts_the_policy(self):
        provider = ScriptedProvider.from_replies([])
        with pytest.raises(PolicyExhausted):
            decide((LlmPolicy("t"),), self.STATE, self.CANDIDATES, new_belief(), provider)
        assert provider.snapshot_stats().calls == 0

    def test_select_returns_none_without_a_call(self):
        provider = ScriptedProvider.from_replies([])
        assert LlmPolicy("t").select(self.STATE, [], new_belief(), provider) is None
        assert provider.snapshot_stats().calls == 0
