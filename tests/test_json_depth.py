"""One nesting bound, ``MAX_JSON_DEPTH``, on every path where JSON enters,
with the same verdicts on every supported Python. A value nested exactly that
deep is taken, and one that enters a run goes on through the run, its
snapshot (``copy.deepcopy``, ``pickle``), its trace (``json.dumps``) and the
prompt history. A value one level deeper gets each path's typed error; a
model reply that deep is skipped for the first span that fits."""

import copy
import json
import pickle

import pytest

from machina import MAX_JSON_DEPTH
from machina.actions import builtin_registry
from machina.belief import NestingTooDeep, belief_to_trace, kv_set, new_belief, render_history
from machina.engine import Agent, EventInstance, run
from machina.json_extract import JsonSyntaxError, first_json_array, first_json_object, read_json
from machina.machine_io import parse_machine
from machina.providers import ScriptedProvider
from helpers import machine_from, nested_list, nesting, state


def nested_machine(depth: int) -> dict:
    """A machine document ``depth`` levels deep: states nested in
    ``substates``, two levels a state, the innermost given an empty
    ``tags`` list where ``depth`` is even."""
    states = (depth - 1) // 2
    inner = state(f"s{states}", **({"tags": []} if depth % 2 == 0 else {}))
    for i in range(states - 1, 0, -1):
        inner = state(f"s{i}", substates=[inner], initial=inner["name"])
    doc = {"name": "deep", "states": [inner], "transitions": []}
    assert nesting(doc) == depth
    return doc


def _read_json(depth):
    try:
        value = read_json("[" * depth + "]" * depth)
    except JsonSyntaxError as exc:
        return f"JsonSyntaxError: {exc}"
    assert nesting(value) == depth
    return "taken"


def _parse_machine(depth):
    try:
        parse_machine(json.dumps(nested_machine(depth)))
    except JsonSyntaxError as exc:
        return f"JsonSyntaxError: {exc}"
    return "taken"


def _finder(find, opener, innermost, closer):
    def enter(depth):
        reply = opener * (depth - 1) + innermost + closer * (depth - 1)
        found = find(f"the answer: {reply} done")
        return "taken" if nesting(found) == depth else f"skipped to a span {nesting(found)} deep"

    return enter


# The agent runs a -> b on ``go``; b's entry action ``emit`` returns the
# action output. Where the deep value sits in the snapshot, by entry path.
RUN_MACHINE = {
    "name": "m",
    "states": [state("a", tags=["start"]), {**state("b", tags=["end"]), "entry": {"name": "emit"}}],
    "transitions": [{"source": "a", "target": "b", "event": "go"}],
}
PLACED = {
    "task input": lambda snap: snap.inputs["deep"],
    "event payload": lambda snap: snap.trajectory[0].event_payload,
    "store": lambda snap: snap.kv["deep"],
    "action output": lambda snap: snap.kv["emit"],
}


def _run_with(path):
    def enter(depth):
        value = nested_list(depth)
        output = value if path == "action output" else None
        registry = builtin_registry().register("emit", (), lambda inputs, ctx: output)
        try:
            belief = new_belief(inputs={"deep": value} if path == "task input" else None)
        except NestingTooDeep as exc:
            return f"NestingTooDeep: {exc}"
        if path == "store":
            kv_set(belief, "deep", value)
        # the payload itself is one of the levels
        payload = {"deep": value[0]} if path == "event payload" else {}
        agent = Agent(
            machine=machine_from(RUN_MACHINE),
            belief=belief,
            policy=(),
            registry=registry,
            provider=ScriptedProvider.from_replies([]),
        )
        result = run(agent, EventInstance("go", payload))
        if result.status != "completed":
            return f"{result.status}: {result.reason}"
        snap = result.belief_snapshot
        assert nesting(PLACED[path](snap)) == depth
        for kept in (copy.deepcopy(snap), pickle.loads(pickle.dumps(snap))):
            assert nesting(PLACED[path](kept)) == depth
        trace = json.dumps(belief_to_trace(snap))
        assert json.loads(trace) == belief_to_trace(snap)
        render_history(snap, 10**6)
        return "taken"

    return enter


TOO_DEEP_TO_COPY = "value is nested too deeply to copy"
PATHS = {
    "read_json": (_read_json, "JsonSyntaxError: line 1, column 1: document nested too deeply"),
    "parse_machine": (
        _parse_machine,
        "JsonSyntaxError: line 1, column 1: document nested too deeply",
    ),
    "first_json_object": (
        _finder(first_json_object, '{"a":', "{}", "}"),
        f"skipped to a span {MAX_JSON_DEPTH} deep",
    ),
    "first_json_array": (
        _finder(first_json_array, "[", "[]", "]"),
        f"skipped to a span {MAX_JSON_DEPTH} deep",
    ),
    "task input": (_run_with("task input"), f"NestingTooDeep: {TOO_DEEP_TO_COPY}"),
    "event payload": (
        _run_with("event payload"),
        f"failed: event payload: {TOO_DEEP_TO_COPY}",
    ),
    "store": (_run_with("store"), f"failed: key-value store: {TOO_DEEP_TO_COPY}"),
    "action output": (
        _run_with("action output"),
        f"failed: action 'emit' failed: output: {TOO_DEEP_TO_COPY}",
    ),
}


@pytest.mark.parametrize(
    "depth", [MAX_JSON_DEPTH, MAX_JSON_DEPTH + 1], ids=["at-bound", "past-bound"]
)
@pytest.mark.parametrize("path", PATHS)
def test_one_nesting_bound_on_every_entry_path(path, depth):
    enter, past_bound = PATHS[path]
    assert enter(depth) == ("taken" if depth <= MAX_JSON_DEPTH else past_bound)
