"""Each bundled file is loaded once per process and everything static about a
machine (validation reports, step plans) is computed once per machine
instance. These tests pin that the shared results are the same objects, that
they equal a fresh computation, and that nothing a run does reaches them."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

from machina import engine
from machina.actions import builtin_registry
from machina.belief import PHASE_ENTRY, PHASE_EXIT, PHASE_TRANSITION, kv_set, new_belief
from machina.cli import main
from machina.engine import (
    Agent,
    EventInstance,
    InvalidMachine,
    candidate_transitions,
    eval_guard,
    run,
)
from machina.errors import MachinaError
from machina.harness import (
    BadSceneFile,
    builtin_machine,
    builtin_rules,
    generate_mini_clevr,
    oracle_agent_factory,
    read_dataset,
    run_eval,
)
from machina.json_extract import read_json
from machina.machine_io import parse_machine
from machina.model import (
    ParameterSpec,
    _walk_with_parents,
    enabled_transitions,
    initial_entry_path,
    parent_chain,
)
from machina.policy import CandidateTransition, RulePolicy, rules_from_value
from machina.providers import ScriptedProvider
from helpers import (
    MINIMAL_DOC,
    agent_for,
    budget_cycle_doc,
    linear_doc,
    machine_from,
    random_flat_machine_doc,
    state,
)

MACHINES = sorted(
    p.name.removesuffix(".sm.json")
    for p in resources.files("machina").joinpath("machines").iterdir()
    if p.name.endswith(".sm.json")
)
RULES = sorted(
    p.name.removesuffix(".rules.json")
    for p in resources.files("machina").joinpath("rules").iterdir()
    if p.name.endswith(".rules.json")
)
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "machina"


# ---------------------------------------------------------------------------
# Reference step planning: the per-step computation the step table replaced.


def reference_step_plan(sm, leaf, transition):
    source_chain = [leaf] + parent_chain(sm, leaf)
    target_ancestors = parent_chain(sm, transition.target)
    chain_set = set(source_chain)
    lca = next((a for a in target_ancestors if a in chain_set), None)

    exits = []
    for name in source_chain:
        if name == lca:
            break
        exits.append(sm.state(name))

    entry_names = []
    for name in target_ancestors:
        if name == lca:
            break
        entry_names.append(name)
    entry_names.reverse()
    entry_names.extend(initial_entry_path(sm, transition.target))
    entries = tuple(sm.state(n) for n in entry_names)
    return tuple(exits), entries, entry_names[-1]


def reference_step_action_specs(plan, transition):
    exit_states, entry_states, _ = plan
    specs = []
    for st in exit_states:
        if st.exit_action:
            specs.append((PHASE_EXIT, st.exit_action))
    for spec in transition.actions:
        specs.append((PHASE_TRANSITION, spec))
    for st in entry_states:
        if st.entry_action:
            specs.append((PHASE_ENTRY, st.entry_action))
    return specs


def reference_required(specs):
    required = {}
    for _, spec in specs:
        for param in spec.external_params():
            required.setdefault(param.name, param)
    return tuple(required.values())


def guarded_doc():
    """Own and inherited transitions, an expression guard that passes, one
    that fails, and an action guard."""
    return {
        "name": "guarded",
        "states": [
            state(
                "Top",
                tags=["start"],
                initial="Inner",
                exit={"name": "note", "output_key": "top_exit"},
                substates=[
                    state("Inner", entry={"name": "note", "output_key": "inner_in"}),
                    state("Other"),
                ],
            ),
            state("Done", tags=["end"], description="finished"),
        ],
        "transitions": [
            {"source": "Inner", "target": "Other", "event": "yes", "guard": {"expr": "x == 1"}},
            {"source": "Inner", "target": "Done", "event": "no", "guard": {"expr": "x == 2"}},
            {
                "source": "Inner",
                "target": "Inner",
                "event": "again",
                "guard": {"action": "countObjects"},
                "actions": [
                    {"name": "note", "params": [{"name": "text", "source": "external", "datatype": "string"}]}
                ],
            },
            {"source": "Top", "target": "Done", "event": "finish", "trigger": "external"},
            {"source": "Other", "target": "Done", "event": "finish"},
        ],
    }


def helper_docs():
    rnd = random.Random(5)
    return [
        MINIMAL_DOC,
        budget_cycle_doc(),
        linear_doc(),
        guarded_doc(),
        *(random_flat_machine_doc(rnd, i) for i in range(20)),
    ]


def all_machines():
    return [builtin_machine(name) for name in MACHINES] + [machine_from(d) for d in helper_docs()]


def leaves(sm):
    return [st.name for st, _ in _walk_with_parents(sm.states) if not st.is_composite]


# ---------------------------------------------------------------------------
# Bundled files


@pytest.mark.parametrize("name", MACHINES)
def test_builtin_machine_is_shared(name):
    assert builtin_machine(name) is builtin_machine(name)


@pytest.mark.parametrize("name", RULES)
def test_builtin_rules_are_shared(name):
    assert builtin_rules(name) is builtin_rules(name)


def test_builtin_registries_are_fresh_over_shared_entries():
    a, b = builtin_registry(), builtin_registry()
    a.register("extra", (), lambda inputs, ctx: None)
    assert "extra" not in b.names()
    assert all(a.lookup(n) is b.lookup(n) for n in b.names())


# ---------------------------------------------------------------------------
# Validation memo


def registry_without(name):
    registry = builtin_registry()
    del registry._actions[name]
    return registry


def make_agent(machine, registry):
    return Agent(
        machine=machine,
        belief=new_belief(),
        policy=(),
        registry=registry,
        provider=ScriptedProvider.from_replies([]),
    )


@pytest.mark.parametrize("full_first", [True, False], ids=["full-first", "lacking-first"])
def test_shared_machine_is_validated_per_registry(full_first):
    data = resources.files("machina").joinpath("machines/routing.sm.json").read_bytes()
    for machine in (parse_machine(data), builtin_machine("routing")):
        for full in (full_first, not full_first) * 2:
            if full:
                make_agent(machine, builtin_registry())
            else:
                with pytest.raises(InvalidMachine):
                    make_agent(machine, registry_without("classifyQuestion"))


def test_validation_runs_once_per_instance_and_registry(monkeypatch):
    calls = []
    validate = engine.validate_machine

    def counting(sm, names):
        calls.append(sm)
        return validate(sm, names)

    monkeypatch.setattr(engine, "validate_machine", counting)
    machine = machine_from(linear_doc())
    for _ in range(3):
        make_agent(machine, builtin_registry())
    assert len(calls) == 1
    make_agent(machine, registry_without("filter"))
    assert len(calls) == 2
    copy = dataclasses.replace(machine)
    assert copy == machine
    make_agent(copy, builtin_registry())
    assert len(calls) == 3 and calls[-1] is copy


def test_replaced_machine_is_validated_afresh():
    machine = machine_from(linear_doc())
    make_agent(machine, builtin_registry())
    broken = dataclasses.replace(machine, states=machine.states[:-1])
    with pytest.raises(InvalidMachine):
        make_agent(broken, builtin_registry())


# ---------------------------------------------------------------------------
# Step tables


@pytest.mark.parametrize("sm", all_machines(), ids=lambda sm: sm.name)
def test_step_table_matches_reference(sm):
    for leaf in leaves(sm):
        table = engine._step_table(sm, leaf)
        assert engine._step_table(sm, leaf) is table
        assert [s.transition for s in table] == enabled_transitions(sm, leaf)
        for step in table:
            t = step.transition
            plan = reference_step_plan(sm, leaf, t)
            specs = reference_step_action_specs(plan, t)
            assert step.target_leaf == plan[2]
            assert list(step.actions) == specs
            for candidate, passed in ((step.passed, True), (step.blocked, False)):
                assert candidate == CandidateTransition(
                    t, passed, reference_required(specs), sm.state(t.target).description
                )


@pytest.mark.parametrize("sm", all_machines(), ids=lambda sm: sm.name)
def test_candidates_match_reference(sm):
    """Candidates equal ones built field by field, and two agents on one
    machine get the same shared objects."""
    registry = builtin_registry()
    for leaf in leaves(sm):
        for x in (1, 2):
            agents = [make_agent(sm, registry) for _ in range(2)]
            for agent in agents:
                kv_set(agent.belief, "x", x)
                kv_set(agent.belief, "ids", ["o1"] * (x - 1))
                agent.belief.current_state = leaf
            expected = []
            for t in enabled_transitions(sm, leaf):
                specs = reference_step_action_specs(reference_step_plan(sm, leaf, t), t)
                passed = t.guard is None or eval_guard(
                    t.guard, agents[0].belief, registry, agents[0].provider
                )
                expected.append(
                    CandidateTransition(t, passed, reference_required(specs), sm.state(t.target).description)
                )
            first, second = (candidate_transitions(a) for a in agents)
            assert first == expected
            assert all(a is b for a, b in zip(first, second, strict=True))


def test_guarded_candidates_see_the_belief():
    agent = agent_for(guarded_doc())
    agent.belief.current_state = "Inner"
    kv_set(agent.belief, "x", 2)
    kv_set(agent.belief, "ids", ["o1"])
    by_event = {c.transition.event: c for c in candidate_transitions(agent)}
    assert [by_event[e].guard_passed for e in ("yes", "no", "again", "finish")] == [
        False, True, True, True,
    ]
    assert [p.name for p in by_event["again"].required_external_params] == ["text"]


def test_candidate_follows_its_guard_from_step_to_step():
    doc = {
        "name": "flip",
        "states": [state("Loop", tags=["start"]), state("Done", tags=["end"])],
        "transitions": [
            {
                "source": "Loop",
                "target": "Loop",
                "event": "set",
                "trigger": "external",
                "actions": [
                    {
                        "name": "note",
                        "output_key": "flag",
                        "params": [{"name": "text", "source": "external", "datatype": "string"}],
                    }
                ],
            },
            {
                "source": "Loop",
                "target": "Done",
                "event": "leave",
                "trigger": "external",
                "guard": {"expr": "flag == 'go'"},
            },
        ],
    }
    agent = agent_for(doc)
    kv_set(agent.belief, "flag", "stay")
    engine.start(agent)
    leave = engine._step_table(agent.machine, "Loop")[1]
    seen = []
    for text in ("go", "stay", "go"):
        before = candidate_transitions(agent)[1]
        engine.dispatch(agent, EventInstance("set", {"text": text}))
        after = candidate_transitions(agent)[1]
        seen.append((before.guard_passed, after.guard_passed))
        assert after is (leave.passed if text == "go" else leave.blocked)
    assert seen == [(False, True), (True, False), (False, True)]
    assert engine.dispatch(agent, EventInstance("leave")).target_leaf == "Done"


# ---------------------------------------------------------------------------
# Shared data stays unchanged by runs


def test_editing_action_leaves_rules_and_next_item_alone():
    literal = {"predicate": {"color": "red"}, "tags": ["a"]}
    rules = rules_from_value(
        [{"when_state": "a", "emit_event": "go", "emit_arguments": literal}]
    )
    rules_before = json.dumps(rules[0].emit_arguments, sort_keys=True)
    payload = {"predicate": {"color": "blue"}, "tags": ["b"]}
    payload_before = json.dumps(payload, sort_keys=True)

    def scribble(inputs, ctx):
        inputs["predicate"]["color"] = "green"
        inputs["tags"].append("edited")
        return inputs["tags"]

    registry = builtin_registry().register(
        "scribble",
        (ParameterSpec("predicate", "external", "json"), ParameterSpec("tags", "external", "json")),
        scribble,
    )
    machine = machine_from(
        {
            "name": "scribbler",
            "states": [state("a", tags=["start"]), state("w"), state("b", tags=["end"])],
            "transitions": [
                {"source": "a", "target": "w", "event": "go", "actions": [{"name": "scribble", "params": [
                    {"name": "predicate", "source": "external", "datatype": "json"},
                    {"name": "tags", "source": "external", "datatype": "json"},
                ]}]},
                {"source": "w", "target": "b", "event": "done", "trigger": "external",
                 "actions": [{"name": "scribble", "params": [
                    {"name": "predicate", "source": "external", "datatype": "json"},
                    {"name": "tags", "source": "external", "datatype": "json"},
                 ]}]},
            ],
        }
    )
    for _ in range(2):
        agent = Agent(
            machine=machine,
            belief=new_belief(),
            policy=(RulePolicy(rules),),
            registry=registry,
            provider=ScriptedProvider.from_replies([]),
        )
        first = run(agent)
        assert first.status == "waiting"
        assert first.output == ["a", "edited"]
        assert first.belief_snapshot.execution_log[0].inputs == literal
        last = run(agent, EventInstance("done", payload))
        assert last.status == "completed"
        assert last.output == ["b", "edited"]
        assert last.belief_snapshot.execution_log[1].inputs == payload
        assert json.dumps(rules[0].emit_arguments, sort_keys=True) == rules_before
        assert json.dumps(payload, sort_keys=True) == payload_before


def test_runs_leave_bundled_rules_and_machines_unchanged():
    rules = builtin_rules("routing")
    data = resources.files("machina").joinpath("rules/routing.rules.json").read_bytes()
    machines = {name: builtin_machine(name) for name in ("routing", "react", "planning")}
    dataset = generate_mini_clevr(3, 3, 3)
    for variant in machines:
        assert run_eval(oracle_agent_factory(variant), dataset).exact_match_accuracy == 1.0
    assert builtin_rules("routing") is rules
    assert rules == rules_from_value(read_json(data))
    for name, sm in machines.items():
        assert builtin_machine(name) is sm


# ---------------------------------------------------------------------------
# Satellite fixes


def test_broken_scene_file_names_the_file_and_dataset_line(tmp_path):
    (tmp_path / "bad.json").write_bytes(b'{"objects": [}')
    path = tmp_path / "d.jsonl"
    path.write_text(
        "\n" + json.dumps({"question": "How many red objects are there?", "scene_file": "bad.json"}) + "\n"
    )
    with pytest.raises(BadSceneFile) as info:
        read_dataset(path)
    assert isinstance(info.value, MachinaError)
    message = str(info.value)
    assert str(path) in message and "line 2" in message and "'bad.json'" in message
    assert "line 1, column 14" in message


def test_bench_prints_broken_scene_file(tmp_path):
    (tmp_path / "bad.json").write_bytes(b'{"objects": [}')
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps({"question": "How many red objects are there?", "scene_file": "bad.json"}))
    result = CliRunner().invoke(main, ["bench", "--dataset", str(path)])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ")
    assert "'bad.json'" in result.stderr and "line 1" in result.stderr


def test_repl_keeps_the_lines_around_undecodable_input(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"steps": []}))
    env = {**os.environ, "PYTHONIOENCODING": "utf-8:strict"}
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "machina.cli", "repl", "--machine", str(PACKAGE / "machines" / "h3.sm.json"),
         "--provider", f"scripted:{script}"],
        input=b"e1\nb \xff c\ne1\ne1\n:state\n",
        capture_output=True,
        env=env,
        timeout=60,
    )
    stderr = done.stderr.decode("utf-8", "replace")
    assert done.returncode == 0, stderr
    assert stderr.count("status: waiting") == 4
    assert stderr.count("error: input is not valid UTF-8") == 1
    assert done.stdout.decode().strip() == "Leaf"
