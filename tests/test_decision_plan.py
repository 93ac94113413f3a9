"""A leaf's decision is planned once. The plan's candidates are one
read-only ``policy._Candidates`` sequence whose derived views (the
guard-passed and selectable candidates, the forced choice, the first
candidate for each event name and the prompt's transition lines) are memos.
These tests check that every policy function gives the same result, or
raises the same error, for a plain list as for the plan sequence; that two
agents on one machine read one plan sequence and its memos; and that a
bench item calls the traced policy functions as often as before the views
were kept."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from machina import engine, harness, policy
from machina.belief import kv_set, new_belief
from machina.engine import run
from machina.model import EventInstance, ParameterSpec, State, Transition
from machina.policy import (
    CandidateTransition,
    LlmPolicy,
    PathRef,
    Rule,
    RulePolicy,
    _Candidates,
    build_policy_prompt,
    decide,
    fast_forward,
    llm_decide,
    parse_policy_response,
    rule_decide,
)
from machina.providers import ScriptedProvider
from helpers import agent_for, state

EVENTS = ("a", "b", "c")
PARAMS = (
    ParameterSpec("text", "external", "string", "the answer"),
    ParameterSpec("n", "external", "integer"),
)
STATES = (State(name="s", description="here"), State(name="t"))
POLICY = LlmPolicy(task_description="choose", history_token_budget=50)

# Candidates that share event names across trigger kinds and guard outcomes.
CANDIDATES = st.lists(
    st.builds(
        lambda event, target, passed, trigger, params: CandidateTransition(
            Transition(source="s", target=target, event=event, trigger=trigger),
            passed,
            params,
            f"{target} state",
        ),
        st.sampled_from(EVENTS),
        st.sampled_from(("x", "y")),
        st.booleans(),
        st.sampled_from(("internal", "external")),
        st.sampled_from(((), PARAMS[:1], PARAMS)),
    ),
    max_size=6,
)
# A list name cannot be hashed; it names no candidate.
RULES = st.lists(
    st.builds(
        lambda event, when_state, arguments: Rule(event, when_state=when_state, emit_arguments=arguments),
        st.sampled_from(EVENTS + ("z",)) | st.just(["a"]),
        st.sampled_from(("s", "t")),
        st.sampled_from(({}, {"text": "hi"}, {"text": PathRef("answer")}, {"text": "hi", "n": 2})),
    ),
    max_size=3,
)
REPLIES = st.sampled_from(
    [
        '{"event": "a"}',
        '{"event": "b", "arguments": {"text": "hi"}}',
        '{"event": "c", "arguments": {"text": "hi", "n": 3}}',
        '{"event": "c", "arguments": {"text": "hi", "n": "3"}}',
        '{"event": "z"}',
        '{"event": 1}',
        '{"event": "a", "arguments": []}',
        "no json",
    ]
)


def outcome(call, replies):
    """What ``call(provider)`` returned, or the type and message of what it
    raised, with the stats of the scripted ``provider`` of ``replies``."""
    provider = ScriptedProvider.from_replies(replies)
    try:
        result = "returned", call(provider)
    except Exception as exc:
        result = "raised", type(exc), str(exc)
    return result, provider.snapshot_stats()


def belief_with(answer):
    belief = new_belief([("user", "which way?")])
    if answer:
        kv_set(belief, "answer", "left")
    return belief


@settings(deadline=None)
@given(
    CANDIDATES, RULES, st.lists(REPLIES, min_size=2, max_size=2), st.booleans(), st.sampled_from(STATES)
)
def test_a_plain_list_and_the_plan_sequence_decide_alike(candidates, rules, replies, answer, at):
    plan = _Candidates(candidates)
    # the views, against the rules the policy functions read them by
    passing = [c for c in candidates if c.guard_passed]
    selectable = [c for c in passing if c.transition.trigger == "internal"]
    assert list(plan.passing) == passing and list(plan.selectable) == selectable
    assert type(plan.passing) is type(plan.selectable) is _Candidates
    if len(selectable) == 1 and not selectable[0].required_external_params:
        assert plan.forced == EventInstance(selectable[0].transition.event)
    else:
        assert plan.forced is None
    for name in EVENTS + ("z",):
        assert plan.first(name) is next((c for c in passing if c.transition.event == name), None)
        assert plan.selectable.first(name) is next(
            (c for c in selectable if c.transition.event == name), None
        )
    assert plan.first(["a"]) is None
    assert plan.transition_lines == "\n".join(c.prompt_line for c in passing)

    # each of the six functions, on a new list and on the one plan sequence
    stack = (RulePolicy(tuple(rules)), POLICY)
    calls = [
        lambda c, p: fast_forward(c),
        lambda c, p: rule_decide(rules, at, c, belief_with(answer)),
        lambda c, p: build_policy_prompt(POLICY, at, c, belief_with(answer)),
        *(lambda c, p, reply=reply: parse_policy_response(reply, c) for reply in replies),
        lambda c, p: llm_decide(POLICY, p, at, c, belief_with(answer)),
        lambda c, p: decide(stack, at, c, belief_with(answer), p),
    ]
    # twice, so later calls read the memos earlier ones made
    for _ in range(2):
        for call in calls:
            listed = outcome(lambda p: call(list(candidates), p), replies)
            assert listed == outcome(lambda p: call(plan, p), replies)
    # decide returns the same candidate object, the first selectable one
    (listed, _), (planned, _) = (
        outcome(lambda p: decide(stack, at, c, belief_with(answer), p), replies)
        for c in (list(candidates), plan)
    )
    if listed[0] == "returned":
        assert listed[1][0] is planned[1][0]
    assert list(plan) == candidates


# ---------------------------------------------------------------------------
# One plan sequence per leaf, shared by every agent on the machine


def two_way_doc():
    return {
        "name": "two_way",
        "states": [state("A", tags=["start"]), state("B"), state("Done", tags=["end"])],
        "transitions": [
            {"source": "A", "target": "B", "event": "left"},
            {"source": "A", "target": "Done", "event": "right"},
            {"source": "B", "target": "Done", "event": "on"},
        ],
    }


def test_two_agents_on_one_machine_share_one_plan_sequence_and_its_memos():
    seen = []

    class Recording:
        def select(self, state, selectable, belief, provider):
            seen.append(selectable)
            return None

    first = agent_for(
        two_way_doc(),
        provider=ScriptedProvider.from_replies(['{"event": "left"}']),
        policy=[Recording(), POLICY],
    )
    assert run(first).status == engine.STATUS_COMPLETED
    plan = first.machine._memo["A"].candidates
    selectable = plan.selectable
    memos = {**plan.__dict__}, {**selectable.__dict__}
    assert {"passing", "selectable", "forced"} <= set(memos[0])
    assert {"passing", "by_event", "transition_lines"} <= set(memos[1])

    second = agent_for(
        first.machine,
        provider=ScriptedProvider.from_replies(['{"event": "left"}']),
        policy=[Recording(), POLICY],
    )
    assert run(second).status == engine.STATUS_COMPLETED
    assert second.machine._memo["A"].candidates is plan
    assert seen == [selectable, selectable] and all(s is selectable for s in seen)
    # the second agent's decision read every memo the first one made
    for sequence, before in zip((plan, selectable), memos):
        assert sequence.__dict__.keys() == before.keys()
        assert all(sequence.__dict__[name] is value for name, value in before.items())
    assert first.belief.trajectory == second.belief.trajectory
    # the forced choice at B is one event, shared too
    forced = first.machine._memo["B"].candidates.forced
    assert forced == EventInstance("on") and fast_forward(first.machine._memo["B"].candidates) is forced


# ---------------------------------------------------------------------------
# A bench item calls the traced policy functions as often as before

TRACED = (
    (engine, "decide"),
    (policy, "fast_forward"),
    (policy, "rule_decide"),
    (policy, "llm_decide"),
    (policy, "build_policy_prompt"),
    (policy, "parse_policy_response"),
    (policy, "render_history"),
)
VARIANTS = ("routing", "react", "planning")

# Calls per item, in ``TRACED`` order, of the first twelve question-answering
# bench items at seed 7 under the oracle provider, as counted before the
# decision views were kept.
ORACLE_MIX_CALLS = [
    ("routing", (3, 3, 1, 0, 0, 0, 0)),
    ("react", (2, 2, 0, 2, 2, 2, 2)),
    ("planning", (2, 2, 0, 2, 2, 2, 2)),
    ("react", (2, 2, 0, 2, 2, 2, 2)),
    ("planning", (2, 2, 0, 2, 2, 2, 2)),
    ("routing", (2, 2, 1, 0, 0, 0, 0)),
    ("planning", (2, 2, 0, 2, 2, 2, 2)),
    ("routing", (2, 2, 1, 0, 0, 0, 0)),
    ("react", (3, 3, 0, 3, 3, 3, 3)),
    ("routing", (3, 3, 1, 0, 0, 0, 0)),
    ("react", (2, 2, 0, 2, 2, 2, 2)),
    ("planning", (2, 2, 0, 2, 2, 2, 2)),
]


def test_an_oracle_item_calls_the_traced_policy_functions_as_before(monkeypatch):
    calls = Counter()
    for module, name in TRACED:
        original = getattr(module, name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    dataset = harness.generate_mini_clevr(7, 4, 3)
    counted = []
    for data in dataset.items:
        # the bench's variant for an item index
        variant = VARIANTS[(data.index + data.index // 3) % 3]
        calls.clear()
        result = run(harness.oracle_agent_factory(variant)(data))
        assert result.status == engine.STATUS_COMPLETED
        counted.append((variant, tuple(calls[name] for _, name in TRACED)))
    assert counted == ORACLE_MIX_CALLS
