"""Read-only task inputs: copied once into the belief, shared by snapshots,
referenced (not copied) by records and the history, and parsed once per
belief for the scene actions, or not at all when the QA harness hands them
the SceneGraph."""

from __future__ import annotations

import copy
import json

import pytest
from click.testing import CliRunner

import machina.scene
from machina.actions import ActionRegistry, builtin_registry
from machina.belief import (
    Belief,
    NestingTooDeep,
    ReadOnlyInput,
    belief_to_trace,
    kv_get,
    kv_set,
    lookup_scope,
    new_belief,
    render_history,
    snapshot,
)
from machina.cli import main
from machina.engine import Agent, EventInstance, eval_guard, run
from machina.errors import MachinaError
from machina.harness import ORACLE_SCRIPTS, generate_mini_clevr, make_qa_agent, qa_belief
from machina.guards import parse_guard
from machina.model import GUARD_EXPRESSION, Condition, ParameterSpec, State, Transition
from machina.policy import CandidateTransition, PathRef, Rule, RulePolicy, rule_decide
from machina.providers import ScriptedProvider
from machina.scene import scene_to_json_value
from helpers import RecordingProvider, agent_for, machine_from, s1_scene, state

S1_JSON = "src/machina/scenes/s1.scene.json"
ROUTING_JSON = "src/machina/machines/routing.sm.json"
RULES_JSON = "src/machina/rules/routing.rules.json"


def qa_items(n_scenes=4):
    return generate_mini_clevr(seed=11, n_scenes=n_scenes, questions_per_scene=3).items


def json_scene_belief(question, scene):
    """A QA belief whose scene is only a JSON input, so the scene actions
    parse it."""
    belief = new_belief([("user", question)], inputs={"scene": scene_to_json_value(scene)})
    kv_set(belief, "question", question)
    return belief


class TestNewBelief:
    def test_inputs_are_copied_once(self):
        doc = {"items": [1]}
        belief = new_belief(inputs={"doc": doc})
        doc["items"].append(2)
        assert belief.inputs == {"doc": {"items": [1]}}

    def test_key_must_be_identifier(self):
        with pytest.raises(MachinaError):
            new_belief(inputs={"bad key": 1})
        with pytest.raises(MachinaError, match="must be an identifier"):
            new_belief(inputs={"scene\n": 1})

    def test_too_deep_input_is_typed(self):
        deep = []
        for _ in range(5000):
            deep = [deep]
        with pytest.raises(NestingTooDeep):
            new_belief(inputs={"deep": deep})

    def test_kv_set_on_input_key_raises(self):
        belief = new_belief(inputs={"scene": {"objects": []}})
        with pytest.raises(ReadOnlyInput) as err:
            kv_set(belief, "scene", {})
        assert isinstance(err.value, MachinaError)
        assert err.value.key == "scene"
        assert "scene" not in belief.kv

    def test_kv_get_resolves_inputs_and_store(self):
        belief = new_belief(inputs={"scene": scene_to_json_value(s1_scene())})
        kv_set(belief, "answer", 3)
        assert kv_get(belief, "scene.objects.0.color") == "gray"
        assert kv_get(belief, "answer") == 3

    def test_snapshot_shares_inputs_and_trace_writes_them_once(self):
        belief = new_belief(inputs={"doc": {"a": 1}})
        copy = snapshot(belief)
        assert copy.inputs is belief.inputs
        trace = belief_to_trace(copy)
        assert trace["inputs"] == {"doc": {"a": 1}}
        assert json.dumps(trace)


def guarded_doc(guard: str) -> dict:
    return {
        "name": "g",
        "states": [state("a", tags=["start"]), state("yes", tags=["end"]), state("no", tags=["end"])],
        "transitions": [
            {"source": "a", "target": "yes", "event": "y", "guard": {"expr": guard}},
            {"source": "a", "target": "no", "event": "n", "guard": {"expr": f"not ({guard})"}},
        ],
    }


class TestLookups:
    def test_an_input_wins_a_key_the_store_also_holds(self):
        """``kv_set`` refuses an input's key, so only a caller builds this
        belief; ``kv_get``, an expression guard and a rule's ``$ref`` all
        read the input."""
        belief = Belief(kv={"k": "store"}, inputs={"k": "input"})
        assert kv_get(belief, "k") == "input"
        guard = Condition(GUARD_EXPRESSION, expression="k == 'input'")
        assert eval_guard(guard, belief, builtin_registry(), ScriptedProvider.from_replies([])) is True
        rules = (Rule("go", when_guard=parse_guard("k == 'input'"), emit_arguments={"v": PathRef("k")}),)
        go = CandidateTransition(Transition("a", "a", "go"), True)
        assert rule_decide(rules, State("a"), [go], belief) == EventInstance("go", {"v": "input"})
        assert lookup_scope(belief) == {"k": "input"}

    def test_with_no_inputs_the_scope_is_the_store_itself(self):
        belief = Belief(kv={"k": "store"})
        assert lookup_scope(belief) is belief.kv

    def test_guard_expression_reads_an_input(self):
        belief = new_belief(inputs={"scene": scene_to_json_value(s1_scene())})
        agent = agent_for(guarded_doc("scene.objects.0.color == 'gray'"), belief=belief)
        assert run(agent).belief_snapshot.current_state == "yes"

    def test_kv_alias_reaches_inputs(self):
        belief = new_belief(inputs={"limit": 2})
        agent = agent_for(guarded_doc("kv.limit > 1"), belief=belief)
        assert run(agent).belief_snapshot.current_state == "yes"

    def test_rule_argument_reads_an_input_without_sharing_it(self):
        doc = {
            "name": "r",
            "states": [state("a", tags=["start"]), state("z", tags=["end"])],
            "transitions": [
                {"source": "a", "target": "z", "event": "go", "actions": [{
                    "name": "note",
                    "params": [{"name": "text", "source": "external", "datatype": "json"}],
                }]},
                {"source": "a", "target": "a", "event": "stay"},
            ],
        }
        belief = new_belief(inputs={"greeting": {"text": "hi"}})
        rules = (Rule("go", when_state="a", emit_arguments={"text": PathRef("greeting")}),)
        agent = agent_for(doc, belief=belief, policy=[RulePolicy(rules)])
        result = run(agent)
        assert result.status == "completed"
        payload = result.belief_snapshot.trajectory[0].event_payload
        assert payload == {"text": {"text": "hi"}}
        assert payload["text"] is not belief.inputs["greeting"]


def editing_agent(inputs: dict) -> Agent:
    """Each external ``next`` runs ``grab``, which appends to its ``doc``
    input in place and returns the list length it then sees."""

    def grab(inputs, ctx):
        inputs["doc"]["items"].append("EDITED")
        return len(inputs["doc"]["items"])

    registry = builtin_registry()
    registry.register("grab", (ParameterSpec("doc", "internal", "json"),), grab)
    grab_spec = {
        "name": "grab",
        "params": [{"name": "doc", "source": "internal", "datatype": "json"}],
    }
    doc = {
        "name": "edit",
        "states": [state("a", tags=["start"]), state("b"), state("c", tags=["end"])],
        "transitions": [
            {"source": "a", "target": "b", "event": "next", "trigger": "external",
             "actions": [grab_spec]},
            {"source": "b", "target": "c", "event": "next", "trigger": "external",
             "actions": [grab_spec]},
        ],
    }
    return Agent(
        machine=machine_from(doc),
        belief=new_belief(inputs=inputs),
        policy=(),
        registry=registry,
        provider=ScriptedProvider.from_replies([]),
    )


class TestUserActionOnInput:
    def test_in_place_edit_reaches_no_later_step_snapshot_or_caller(self):
        caller = {"doc": {"items": ["x"]}}
        agent = editing_agent(caller)
        first = run(agent)
        second = run(agent, EventInstance("next"))
        third = run(agent, EventInstance("next"))
        assert (first.status, second.status, third.status) == ("waiting", "waiting", "completed")
        # each step saw the input as given, not as the previous step left it
        assert [r.output for r in third.belief_snapshot.execution_log] == [2, 2]
        for result in (first, second, third):
            assert result.belief_snapshot.inputs == {"doc": {"items": ["x"]}}
        assert caller == {"doc": {"items": ["x"]}}

    def test_record_holds_a_reference(self):
        agent = editing_agent({"doc": {"items": []}})
        run(agent)
        result = run(agent, EventInstance("next"))
        record = result.belief_snapshot.execution_log[0]
        assert record.inputs == {"doc": "<input:doc>"}
        assert belief_to_trace(result.belief_snapshot)["execution_log"][0]["inputs"] == {
            "doc": "<input:doc>"
        }

    def test_output_key_naming_an_input_fails_typed(self):
        registry = builtin_registry()
        doc = {
            "name": "clash",
            "states": [state("a", tags=["start"]), state("z", tags=["end"])],
            "transitions": [{"source": "a", "target": "z", "event": "go", "actions": [{
                "name": "note", "output_key": "scene",
                "params": [{"name": "text", "source": "external", "datatype": "string"}],
            }]}],
        }
        agent = Agent(
            machine=machine_from(doc),
            belief=new_belief(inputs={"scene": {}}),
            policy=(RulePolicy((Rule("go", when_state="a", emit_arguments={"text": "t"}),)),),
            registry=registry,
            provider=ScriptedProvider.from_replies([]),
        )
        result = run(agent)
        assert result.status == "failed"
        assert "read-only task input" in result.reason
        assert result.belief_snapshot.inputs == {"scene": {}}

    def test_output_key_clash_fails_before_the_action_runs(self):
        doc = {
            "name": "clash",
            "states": [state("a", tags=["start"]), state("z", tags=["end"])],
            "transitions": [{"source": "a", "target": "z", "event": "go", "actions": [{
                "name": "classifyQuestion", "output_key": "scene",
                "params": [{"name": "question", "source": "internal", "datatype": "string"}],
            }]}],
        }
        belief = new_belief(inputs={"scene": {}})
        kv_set(belief, "question", "How many cubes are there?")
        agent = Agent(
            machine=machine_from(doc),
            belief=belief,
            policy=(),
            registry=builtin_registry(),
            provider=ScriptedProvider.from_replies(["counting"]),
        )
        result = run(agent)
        assert result.status == "failed"
        assert "read-only task input" in result.reason
        assert result.stats.calls == 0
        assert list(result.belief_snapshot.execution_log) == []


class TestSceneInput:
    def test_history_shows_the_reference_not_the_scene(self):
        item = next(i for i in qa_items() if i.qtype == "querying")
        agent = make_qa_agent("react", item.question, item.scene, ORACLE_SCRIPTS["react"](item))
        result = run(agent)
        assert result.status == "completed"
        history = render_history(result.belief_snapshot, 100_000)
        assert '"scene":"<input:scene>"' in history
        assert '"objects"' not in history
        assert all(
            r.inputs.get("scene") == "<input:scene>"
            for r in result.belief_snapshot.execution_log
            if "scene" in r.inputs
        )

    @pytest.fixture()
    def parse_calls(self, monkeypatch):
        calls = []
        original = machina.scene.scene_from_json_value

        def counting(value):
            calls.append(1)
            return original(value)

        monkeypatch.setattr(machina.scene, "scene_from_json_value", counting)
        return calls

    def test_qa_agents_never_parse_the_scene(self, parse_calls):
        for variant, script in ORACLE_SCRIPTS.items():
            for item in qa_items():
                result = run(make_qa_agent(variant, item.question, item.scene, script(item)))
                assert result.status == "completed"
                assert parse_calls == [], (variant, item.index)

    def test_scene_is_parsed_once_per_run(self, parse_calls):
        """A scene given only as a JSON input is parsed once per belief."""
        most_scene_actions = 0
        for variant, script in ORACLE_SCRIPTS.items():
            for item in qa_items():
                parse_calls.clear()
                agent = make_qa_agent(variant, item.question, item.scene, script(item))
                agent.belief = json_scene_belief(item.question, item.scene)
                result = run(agent)
                assert result.status == "completed"
                assert len(parse_calls) == 1, (variant, item.index)
                scene_actions = sum(
                    "scene" in r.inputs for r in result.belief_snapshot.execution_log
                )
                most_scene_actions = max(most_scene_actions, scene_actions)
        assert most_scene_actions >= 2  # the memo, not the path, kept it at one

    def test_snapshot_with_the_seeded_scene_deep_copies(self):
        item = qa_items()[0]
        agent = make_qa_agent("routing", item.question, item.scene, ORACLE_SCRIPTS["routing"](item))
        result = run(agent)
        copied = copy.deepcopy(result.belief_snapshot)
        assert belief_to_trace(copied) == belief_to_trace(result.belief_snapshot)

    @pytest.mark.parametrize("variant", sorted(ORACLE_SCRIPTS))
    def test_results_match_a_json_scene_input(self, variant):
        """Handing the scene actions the SceneGraph changes no result, record
        or prompt against parsing the scene from a JSON input."""
        for item in generate_mini_clevr(seed=7, n_scenes=20, questions_per_scene=3).items:
            runs = []
            for belief in (None, json_scene_belief(item.question, item.scene)):
                provider = RecordingProvider(ORACLE_SCRIPTS[variant](item))
                agent = make_qa_agent(variant, item.question, item.scene, provider)
                if belief is not None:
                    agent.belief = belief
                result = run(agent)
                snap = result.belief_snapshot
                runs.append(
                    (
                        result.status,
                        result.output,
                        snap.trajectory,
                        snap.execution_log,
                        json.dumps(belief_to_trace(snap)),
                        provider.prompts,
                    )
                )
            assert runs[0] == runs[1], (variant, item.index)
            assert runs[0][0] == "completed"

    def test_scene_actions_never_get_the_dict(self):
        seen = []
        builtin = builtin_registry()
        filter_action = builtin.lookup("filter")

        def spy(inputs, ctx):
            seen.append(type(inputs["scene"]))
            return filter_action.impl(inputs, ctx)

        actions = {name: builtin.lookup(name) for name in builtin.names()}
        actions["filter"] = filter_action._replace(impl=spy)
        registry = ActionRegistry(actions)
        item = next(i for i in qa_items() if i.qtype == "counting")
        agent = make_qa_agent("react", item.question, item.scene, ORACLE_SCRIPTS["react"](item))
        agent.registry = registry
        assert run(agent).status == "completed"
        assert seen == [machina.scene.SceneGraph]

    def test_bad_scene_input_fails_the_run_typed(self):
        belief = new_belief([("user", "Is there a cube?")], inputs={"scene": {"objects": "no"}})
        kv_set(belief, "question", "Is there a cube?")
        item = next(i for i in qa_items() if i.qtype == "judging")
        agent = make_qa_agent("routing", item.question, item.scene, ORACLE_SCRIPTS["routing"](item))
        agent.belief = belief
        result = run(agent)
        assert result.status == "failed"
        assert "answerQuestion" in result.reason

    @pytest.mark.parametrize(
        "question,replies",
        [
            ("Is there a metal cube?", ["judging", "yes"]),  # answerQuestion
            ("How many metal objects are there?", ["counting", '["o1"]']),  # extractObjects
        ],
    )
    def test_scene_prompt_is_one_line_json(self, question, replies):
        provider = RecordingProvider(ScriptedProvider.from_replies(replies))
        scene = s1_scene()
        assert run(make_qa_agent("routing", question, scene, provider)).status == "completed"
        scene_line = provider.prompts[1].split("\n")[1]
        assert json.loads(scene_line) == scene_to_json_value(scene)
        assert scene_line == json.dumps(scene_to_json_value(scene))


class TestSharedSceneJson:
    """Beliefs built from one SceneGraph share its cached JSON value, so
    nothing a run or a caller does may change it."""

    def test_runs_and_traces_leave_the_cached_value_alone(self):
        items = generate_mini_clevr(seed=7, n_scenes=20, questions_per_scene=3).items
        for variant, script in ORACLE_SCRIPTS.items():
            for item in items:
                result = run(make_qa_agent(variant, item.question, item.scene, script(item)))
                assert result.status == "completed"
                assert result.belief_snapshot.inputs["scene"] is item.scene.json_value
                json.dumps(belief_to_trace(result.belief_snapshot))
        for scene in {id(i.scene): i.scene for i in items}.values():
            assert scene.json_value == scene_to_json_value(scene)
            assert scene.json_text == json.dumps(scene_to_json_value(scene))

    def test_beliefs_on_one_scene_share_the_input(self):
        scene = s1_scene()
        a = qa_belief("How many cubes are there?", scene)
        b = qa_belief("Is there a red cube?", scene)
        assert a.inputs["scene"] is b.inputs["scene"] is scene.json_value

    def test_editing_a_returned_value_reaches_no_prompt_or_belief(self):
        scene = s1_scene()
        question, replies = "Is there a metal cube?", ["judging", "yes"]
        before = RecordingProvider(ScriptedProvider.from_replies(replies))
        first = run(make_qa_agent("routing", question, scene, before))
        trace = json.dumps(belief_to_trace(first.belief_snapshot))

        value = scene_to_json_value(scene)
        value["objects"].clear()
        value["relations"]["left"] = {"o1": ["nobody"]}

        after = RecordingProvider(ScriptedProvider.from_replies(replies))
        second = run(make_qa_agent("routing", question, scene, after))
        assert after.prompts == before.prompts
        assert json.dumps(belief_to_trace(second.belief_snapshot)) == trace
        assert qa_belief(question, scene).inputs["scene"] == scene_to_json_value(scene) != value


class TestPolicyPrompt:
    def test_first_react_prompt_contains_the_question(self):
        item = qa_items()[0]
        provider = RecordingProvider(ORACLE_SCRIPTS["react"](item))
        result = run(make_qa_agent("react", item.question, item.scene, provider))
        assert result.status == "completed"
        first = provider.prompts[0]
        task = first.split("# Task\n")[1].split("\n\n# Execution history")[0]
        assert task.endswith(f"user: {item.question}")
        history = first.split("# Execution history\n")[1].split("\n\n# Current state")[0]
        assert history == ""


class TestCli:
    def test_run_trace_holds_the_scene_once(self, tmp_path):
        script = tmp_path / "script.json"
        replies = ["counting", '["o1"]']
        script.write_text(json.dumps({"steps": [{"reply": r} for r in replies]}), encoding="utf-8")
        trace_path = tmp_path / "trace.json"
        result = CliRunner().invoke(main, [
            "run", "--machine", ROUTING_JSON, "--provider", f"scripted:{script}",
            "--rules", RULES_JSON, "--scene", S1_JSON,
            "--question", "How many metal objects are there?", "--trace", str(trace_path),
        ])
        assert result.exit_code == 0, result.output
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        assert trace["inputs"] == {"scene": scene_to_json_value(s1_scene())}
        assert "scene" not in trace["kv"]
        assert trace["kv"]["question"] == "How many metal objects are there?"
        extract = next(r for r in trace["execution_log"] if r["action"] == "extractObjects")
        assert extract["inputs"]["scene"] == "<input:scene>"

    def test_repl_belief_shows_inputs(self, tmp_path):
        doc = {
            "name": "wait",
            "states": [state("a", tags=["start"]), state("z", tags=["end"])],
            "transitions": [{"source": "a", "target": "z", "event": "go", "trigger": "external"}],
        }
        machine = tmp_path / "wait.sm.json"
        machine.write_text(json.dumps(doc), encoding="utf-8")
        script = tmp_path / "script.json"
        script.write_text('{"steps": []}', encoding="utf-8")
        result = CliRunner().invoke(
            main,
            ["repl", "--machine", str(machine), "--provider", f"scripted:{script}",
             "--scene", S1_JSON],
            input=":belief\n:quit\n",
        )
        assert result.exit_code == 0, result.output
        shown = json.loads(result.stdout)
        assert shown["inputs"]["scene"] == scene_to_json_value(s1_scene())
