"""``run`` against the reference interpreter in ``statechart_reference.py``
on random hierarchical machines.

Each machine has at least three levels, expression guards over the store,
internal and external triggers, and entry, exit and transition actions that
write the store. ``run`` and the reference get the same event scripts and
the same policy choices, from a stage defined here, and after every call
must agree on the status, the trajectory (so the leaf sequence), the
execution log's names, phases and outputs, the store and the output.

The example count comes from the Hypothesis profile: the default in
tier-1, ten times that under ``--hypothesis-profile=deep`` (``conftest.py``).
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

import statechart_reference as ref
from machina.actions import builtin_registry
from machina.belief import kv_set, new_belief
from machina.engine import UNHANDLED_ERROR, UNHANDLED_IGNORE, Agent, RunLimits, run
from machina.model import EventInstance
from machina.providers import ScriptedProvider
from helpers import machine_from

EVENTS = ("e0", "e1", "e2", "e3")
# store keys as guard paths (``kv.`` is the store root's alias); an output
# key drops the prefix
KEYS = ("x0", "x1", "kv.x2")

_COUNT = {"name": "n", "source": "internal", "datatype": "number", "source_key": "count"}
_TEXT = {"name": "text", "source": "external", "datatype": "string"}


def _boom(inputs):
    raise RuntimeError("boom")


# the fuzz's action library, as the reference runs it and as machina registers it
ACTIONS = {
    "put_a": lambda inputs: "a",
    "put_b": lambda inputs: "b",
    "inc": lambda inputs: inputs["n"] + 1,
    "echo": lambda inputs: inputs["text"],
    "boom": _boom,
}


def registry():
    reg = builtin_registry()
    for name, impl in ACTIONS.items():
        reg.register(name, (), lambda inputs, context, impl=impl: impl(inputs))
    return reg


# ---------------------------------------------------------------------------
# Random machines


def _key(draw):
    return draw(st.sampled_from(KEYS)).removeprefix("kv.")


@st.composite
def actions(draw, on_state=False):
    """A store-writing action. A state's entry or exit action rarely needs
    an external argument, which a fast-forwarded step cannot supply; one
    action in 32 fails."""
    kind = draw(st.integers(0, 31))
    if kind < 16:
        return {"name": "put_a" if kind % 2 else "put_b", "output_key": _key(draw)}
    if kind < 22 or (on_state and kind < 28):
        return {"name": "inc", "params": [dict(_COUNT)], "output_key": "count"}
    if kind < 31:
        return {"name": "echo", "params": [dict(_TEXT)], "output_key": _key(draw)}
    return {"name": "boom"}


@st.composite
def clauses(draw):
    kind = draw(st.integers(0, 3))
    key = draw(st.sampled_from(KEYS))
    if kind == 0:
        return f"exists {key}"
    if kind == 1:
        return f"not exists {key}"
    if kind == 2:
        return f"{key} {draw(st.sampled_from(('==', '!=')))} '{draw(st.sampled_from('ab'))}'"
    return f"count {draw(st.sampled_from(('<', '>=', '==')))} {draw(st.integers(0, 3))}"


@st.composite
def guards(draw):
    first = draw(clauses())
    joint = draw(st.sampled_from((None, "and", "or")))
    return first if joint is None else f"{first} {joint} {draw(clauses())}"


@st.composite
def machine_docs(draw):
    """A valid machine: the first top-level state nests three levels deep,
    every composite names an initial child, one top-level state starts, at
    least one leaf other than the start's ends and no end state has
    outgoing transitions."""
    fresh = (f"S{i}" for i in itertools.count())
    leaves, composites = [], []

    def node(level, depth_below):
        doc = {"name": next(fresh), "description": ""}
        for phase in ("entry", "exit"):
            if draw(st.booleans()):
                doc[phase] = draw(actions(on_state=True))
        if depth_below > 0 or (level < 4 and draw(st.integers(0, 2)) == 0):
            children = [node(level + 1, depth_below - 1)]
            children += [node(level + 1, 0) for _ in range(draw(st.integers(0, 2)))]
            doc["substates"] = children
            doc["initial"] = children[draw(st.integers(0, len(children) - 1))]["name"]
            composites.append(doc)
        else:
            leaves.append(doc)
        return doc

    top = [node(1, 2)] + [node(1, 0) for _ in range(draw(st.integers(1, 3)))]
    start = top[draw(st.integers(0, len(top) - 1))]
    start["tags"] = ["start"]
    parent = {c["name"]: d["name"] for d in composites for c in d["substates"]}
    by_name = {d["name"]: d for d in leaves + composites}

    def around(name):
        """``name``'s ancestors, itself and its initial path down to a leaf."""
        chain = [name]
        while chain[0] in parent:
            chain.insert(0, parent[chain[0]])
        while "initial" in by_name[chain[-1]]:
            chain.append(by_name[chain[-1]]["initial"])
        return chain

    reached = around(start["name"])
    ends = draw(
        st.lists(
            st.sampled_from([d for d in leaves if d["name"] != reached[-1]]),
            min_size=1, max_size=2, unique_by=id,
        )
    )
    for doc in ends:
        doc["tags"] = doc.get("tags", []) + ["end"]
    end_names = {doc["name"] for doc in ends}
    names = list(by_name)
    transitions = []
    # most sources are states a run can already reach, so most steps fire
    for _ in range(draw(st.integers(2, 12))):
        pool = reached if draw(st.integers(0, 3)) else names
        t = {
            "source": draw(st.sampled_from([n for n in pool if n not in end_names])),
            "target": draw(st.sampled_from(names)),
            "event": draw(st.sampled_from(EVENTS)),
            "trigger": draw(st.sampled_from(("internal", "external"))),
        }
        if draw(st.booleans()):
            t["guard"] = {"expr": draw(guards())}
        t["actions"] = draw(st.lists(actions(), max_size=2))
        transitions.append(t)
        reached += [n for n in around(t["target"]) if n not in reached]
    return {"name": "fuzz", "states": top, "transitions": transitions}


_payloads = st.one_of(st.just({}), st.builds(lambda k: {"text": f"t{k}"}, st.integers(0, 3)))


@st.composite
def scenarios(draw):
    """A machine, its run calls (``None`` resumes with no event, else
    ``(event, payload)``; mostly events the machine declares), the policy's
    choices, whether the store starts with ``count`` and the limits."""
    doc = draw(machine_docs())
    declared = sorted({t["event"] for t in doc["transitions"]})
    events = st.one_of(st.sampled_from(declared), st.sampled_from(declared), st.sampled_from(EVENTS))
    calls = st.one_of(st.none(), st.tuples(events, _payloads))
    return {
        "doc": doc,
        "calls": [None] + draw(st.lists(calls, max_size=8)),
        "choices": draw(st.lists(st.integers(0, 4), max_size=12)),
        "seed_count": draw(st.integers(0, 7)) > 0,
        "limits": (
            draw(st.integers(1, 12)),
            draw(st.sampled_from((UNHANDLED_ERROR, UNHANDLED_IGNORE))),
        ),
    }


# ---------------------------------------------------------------------------
# The policy choices both sides take


class Choices:
    """Replays scripted choices: ``k`` picks the ``k``-th selectable event
    (modulo their number) with a ``text`` argument for each required name;
    4, or no selectable event, passes. Past the script, it picks the first."""

    def __init__(self, script):
        self.script = iter(script)

    def __call__(self, selectable):
        k = next(self.script, 0)
        if k == 4 or not selectable:
            return None
        event, required = selectable[k % len(selectable)]
        return event, {name: f"chosen{k}" for name in required}


class ChoiceStage:
    """A policy stage that asks :class:`Choices` about ``selectable``."""

    def __init__(self, choices):
        self.choices = choices

    def select(self, state, selectable, belief, provider):
        choice = self.choices(
            [
                (c.transition.event, [p.name for p in c.required_external_params])
                for c in selectable
            ]
        )
        return None if choice is None else EventInstance(*choice)


# ---------------------------------------------------------------------------
# The fuzz


def depth(states):
    return 1 + max((depth(s.get("substates", ())) for s in states), default=0) if states else 0


def reference_for(scenario, kv):
    max_transitions, unhandled = scenario["limits"]
    return ref.Reference(
        scenario["doc"], ACTIONS, kv, Choices(scenario["choices"]), max_transitions, unhandled
    )


def check(scenario):
    """Make every run call of ``scenario`` on machina and on the reference,
    and compare them after each."""
    kv = {"count": 0} if scenario["seed_count"] else {}
    belief = new_belief()
    for key, value in kv.items():
        kv_set(belief, key, value)
    max_transitions, unhandled = scenario["limits"]
    agent = Agent(
        machine=machine_from(scenario["doc"]),
        belief=belief,
        policy=(ChoiceStage(Choices(scenario["choices"])),),
        registry=registry(),
        provider=ScriptedProvider.from_replies([]),
        limits=RunLimits(max_transitions, unhandled),
    )
    reference = reference_for(scenario, kv)
    for call in scenario["calls"]:
        result = run(agent) if call is None else run(agent, EventInstance(*call))
        expected = reference.run(call)
        b = agent.belief
        assert result.status == expected
        assert b.current_state == reference.leaf
        assert [tuple(r) for r in b.trajectory] == reference.trajectory
        assert [(r.step, r.action, r.phase, r.output) for r in b.execution_log] == reference.log
        assert b.kv == reference.kv
        assert result.output == reference.output
    return reference


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(scenarios())
def test_run_matches_the_reference(scenario):
    assert depth(scenario["doc"]["states"]) >= 3
    check(scenario)


def covers_everything(scenario):
    """Whether the reference's run of ``scenario`` fires guarded steps of
    both trigger kinds and runs all three action phases after the start,
    with one step running two different exit actions."""
    reference = reference_for(scenario, {"count": 0})
    for call in scenario["calls"]:
        reference.run(call)
    fired = reference.fired
    by_phase = {}
    for step, name, phase, output in reference.log:
        if step > 0:
            by_phase.setdefault((step, phase), set()).add((name, output))
    return (
        any("guard" in t for t in fired)
        and {t["trigger"] for t in fired} == {"internal", "external"}
        and {phase for _, phase in by_phase} == {"exit", "transition", "entry"}
        and any(phase == "exit" and len(runs) >= 2 for (_, phase), runs in by_phase.items())
    )


def test_the_generator_reaches_every_feature():
    found = find(
        scenarios(),
        lambda s: s["seed_count"] and covers_everything(s),
        settings=settings(
            max_examples=2000, phases=[Phase.generate], database=None, deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        ),
        random=random.Random(0),
    )
    check(found)


def shadowed_decisions(scenario):
    """The owners of each pair of transitions where the reference's run of
    ``scenario`` fired an internal transition while an unguarded external
    one with the same event comes before it at that leaf. A pending event
    would have fired the external one, so each such step was decided, and
    resolving the decision's event by name would have fired the wrong step."""
    reference = reference_for(scenario, {"count": 0})
    for call in scenario["calls"]:
        reference.run(call)
    pairs = set()
    for (_, leaf, _, _, _), fired in zip(reference.trajectory, reference.fired):
        if fired["trigger"] != "internal":
            continue
        for t in reference.enabled(leaf):
            if t is fired:
                break
            if t["event"] == fired["event"] and t["trigger"] == "external" and "guard" not in t:
                pairs.add((t["source"], fired["source"]))
    return pairs


@pytest.mark.parametrize("same_owner", [True, False], ids=["same_state", "ancestor"])
def test_the_generator_shadows_a_decided_step(same_owner):
    """The fuzz reaches decisions whose event an external step shares, on
    the same state or on a state below the decided step's: by-name firing
    of a decision fails ``check`` on what ``find`` returns."""
    found = find(
        scenarios(),
        lambda s: s["seed_count"]
        and any((inner == outer) == same_owner for inner, outer in shadowed_decisions(s)),
        settings=settings(
            max_examples=2000, phases=[Phase.generate], database=None, deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        ),
        random=random.Random(0),
    )
    check(found)
