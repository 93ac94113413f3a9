"""machina's value types are named tuples and slotted classes, not
dataclasses. These tests pin what their callers build and read: every
constructor's fields, order and defaults (as ``dataclasses.fields`` listed
them before the change), equality only within a class, immutability,
hashing, validation on every copy-with-change path and the memos that
``cached_property`` keeps."""

import copy
import inspect
import json
import pickle
import pytest

from machina import actions, belief, engine, guards, harness, model, policy, providers, scene
from machina.actions import builtin_registry
from machina.belief import new_belief
from machina.errors import MachinaError
from machina.harness import builtin_machine, generate_mini_clevr, oracle_agent_factory, run_eval
from machina.providers import ScriptedProvider
from machina.values import EMPTY_MAPPING, FrozenValue, Value

REQUIRED = "-"

# (class, [(field, default)]): a default is the ``repr`` of a plain default,
# ``REQUIRED``, or ``factory:<type>`` for a field whose default was a fresh
# empty container per instance.
FIELDS = [
    (model.ParameterSpec, [("name", REQUIRED), ("source", REQUIRED), ("datatype", REQUIRED),
                           ("description", "''"), ("source_key", "None")]),
    (model.ActionSpec, [("name", REQUIRED), ("output_key", "None"), ("params", "()")]),
    (model.Condition, [("kind", REQUIRED), ("expression", "None"), ("action_name", "None")]),
    (model.Transition, [("source", REQUIRED), ("target", REQUIRED), ("event", REQUIRED),
                        ("guard", "None"), ("actions", "()"), ("trigger", "'internal'")]),
    (model.EventInstance, [("name", REQUIRED), ("payload", "factory:dict")]),
    (model.State, [("name", REQUIRED), ("description", "''"), ("tags", "frozenset()"),
                   ("entry_action", "None"), ("exit_action", "None"), ("substates", "()"),
                   ("initial", "None")]),
    (model.StateMachine, [("name", REQUIRED), ("states", REQUIRED), ("transitions", REQUIRED)]),
    (model.Violation, [("cls", REQUIRED), ("severity", REQUIRED), ("subject", REQUIRED),
                       ("message", REQUIRED)]),
    (model.ValidationReport, [("violations", REQUIRED)]),
    (guards.Path, [("segments", REQUIRED)]),
    (guards.Literal, [("value", REQUIRED)]),
    (guards.Compare, [("lhs", REQUIRED), ("op", REQUIRED), ("rhs", REQUIRED)]),
    (guards.Exists, [("path", REQUIRED)]),
    (guards.Not, [("operand", REQUIRED)]),
    (guards.And, [("operands", REQUIRED)]),
    (guards.Or, [("operands", REQUIRED)]),
    (guards._Token, [("kind", REQUIRED), ("text", REQUIRED), ("pos", REQUIRED)]),
    (actions.RegisteredAction, [("name", REQUIRED), ("params", REQUIRED), ("impl", REQUIRED),
                                ("output_datatype", "'json'"), ("parsers", "factory:dict")]),
    (actions.ActionRegistry, [("_actions", "factory:dict")]),
    (providers.CompletionRequest, [("prompt", REQUIRED), ("system", "None")]),
    (providers.CallStats, [("calls", "0"), ("prompt_bytes", "0"), ("reply_bytes", "0")]),
    (providers.ScriptStep, [("reply", REQUIRED), ("match", "None")]),
    (harness.QuestionSpec, [("kind", REQUIRED), ("predicate", REQUIRED),
                            ("exclude_shape", "None"), ("query_attribute", "None")]),
    (harness.DatasetItem, [("index", REQUIRED), ("question", REQUIRED), ("scene", REQUIRED),
                           ("qtype", REQUIRED), ("answer", REQUIRED), ("spec", REQUIRED)]),
    (harness.Dataset, [("seed", REQUIRED), ("items", REQUIRED)]),
    (harness.ItemResult, [("index", REQUIRED), ("question", REQUIRED), ("expected", REQUIRED),
                          ("got", REQUIRED), ("calls", REQUIRED), ("status", REQUIRED)]),
    (harness.EvalReport, [("n", REQUIRED), ("exact_match_accuracy", REQUIRED),
                          ("avg_provider_calls", REQUIRED), ("per_item", REQUIRED)]),
    (engine.RunLimits, [("max_transitions", "10"), ("unhandled_event", "'error'")]),
    (engine.Agent, [("machine", REQUIRED), ("belief", REQUIRED), ("policy", REQUIRED),
                    ("registry", REQUIRED), ("provider", REQUIRED),
                    ("limits", "RunLimits(max_transitions=10, unhandled_event='error')")]),
    (scene.SceneObject, [("id", REQUIRED), ("color", REQUIRED), ("material", REQUIRED),
                         ("shape", REQUIRED), ("size", REQUIRED)]),
    (scene.SceneGraph, [("objects", REQUIRED), ("relations", REQUIRED)]),
    (policy.CandidateTransition, [("transition", REQUIRED), ("guard_passed", REQUIRED),
                                  ("required_external_params", "()"),
                                  ("target_description", "''"), ("target_leaf", "''"),
                                  ("actions", "()")]),
    (policy.PathRef, [("path", REQUIRED)]),
    (policy.Rule, [("emit_event", REQUIRED), ("when_state", "None"), ("when_guard", "None"),
                   ("emit_arguments", "factory:dict")]),
    (policy.RulePolicy, [("rules", REQUIRED)]),
    (policy.LlmPolicy, [("task_description", REQUIRED), ("history_token_budget", "3000")]),
    (belief.Belief, [("task_context", "factory:list"), ("trajectory", "factory:list"),
                     ("execution_log", "factory:list"), ("kv", "factory:dict"),
                     ("current_state", "None"), ("inputs", "factory:dict"),
                     ("_parsed", "factory:dict")]),
]

MUTABLE = {actions.ActionRegistry, engine.Agent, belief.Belief}
ids = [cls.__qualname__ for cls, _ in FIELDS]


def test_the_table_covers_every_former_dataclass():
    assert len(FIELDS) == 37 and len(set(ids)) == 37


@pytest.mark.parametrize("cls, fields", FIELDS, ids=ids)
def test_fields_order_and_defaults_are_the_former_dataclasses(cls, fields):
    params = inspect.signature(cls).parameters
    assert list(params) == [name for name, _ in fields]
    assert cls._fields == tuple(name for name, _ in fields)
    for name, recorded in fields:
        default = params[name].default
        if recorded == REQUIRED:
            assert default is inspect.Parameter.empty, name
        elif recorded.startswith("factory:"):
            empty = {"dict": {}, "list": []}[recorded.partition(":")[2]]
            if cls in MUTABLE:
                assert default is None, name  # a fresh container per instance
            else:
                assert default is EMPTY_MAPPING and default == empty, name  # read-only
        else:
            assert repr(default) == recorded, name


@pytest.mark.parametrize("cls", [cls for cls, _ in FIELDS], ids=ids)
def test_each_type_is_a_named_tuple_or_slotted(cls):
    if issubclass(cls, tuple):
        assert cls.__slots__ == () and not issubclass(cls, Value)
    else:
        assert issubclass(cls, FrozenValue) != (cls in MUTABLE)
        assert "__weakref__" not in dir(cls)


def test_the_shared_empty_default_refuses_changes_and_copies_to_itself():
    for change in (
        lambda m: m.__setitem__("k", 1),
        lambda m: m.update(k=1),
        lambda m: m.setdefault("k", 1),
        lambda m: m.pop("k"),
        lambda m: m.popitem(),
        lambda m: m.clear(),
        lambda m: m.__delitem__("k"),
        lambda m: m.__ior__({"k": 1}),
    ):
        with pytest.raises(TypeError):
            change(EMPTY_MAPPING)
    assert EMPTY_MAPPING == {} and json.dumps(EMPTY_MAPPING) == "{}"
    assert copy.copy(EMPTY_MAPPING) is EMPTY_MAPPING is copy.deepcopy(EMPTY_MAPPING)


def test_mutable_types_start_with_fresh_containers():
    first, second = belief.Belief(), belief.Belief()
    for name in ("task_context", "trajectory", "execution_log", "kv", "inputs", "_parsed"):
        assert getattr(first, name) == getattr(second, name)
        assert getattr(first, name) is not getattr(second, name)
    assert actions.ActionRegistry()._actions is not actions.ActionRegistry()._actions


# ---------------------------------------------------------------------------
# One instance of every type


def samples() -> dict:
    """One instance of each of the 37 types, built from real parts."""
    machine = builtin_machine("react")
    leaf = next(s for s in machine.states if "start" in s.tags).name
    step = engine._leaf_plan(machine, leaf).steps[0]
    report = run_eval(oracle_agent_factory("routing"), generate_mini_clevr(7, 1, 1))
    dataset = generate_mini_clevr(7, 1, 1)
    item = dataset.items[0]
    registered = builtin_registry().lookup("filter")
    path = guards.Path(("a", "b"))
    literal = guards.Literal(1)
    compare = guards.Compare(path, "==", literal)
    agent = engine.Agent(
        builtin_machine("h3"), new_belief(), (), builtin_registry(), ScriptedProvider.from_replies([])
    )
    spec = model.ActionSpec("note", "out", (model.ParameterSpec("p", "external", "string"),))
    return {
        model.ParameterSpec: spec.params[0],
        model.ActionSpec: spec,
        model.Condition: model.Condition("expression", "a.b == 1"),
        model.Transition: step.transition,
        model.EventInstance: model.EventInstance("go"),
        model.State: machine.state(leaf),
        model.StateMachine: machine,
        model.Violation: model.Violation("MissingEnd", "error", "m", "no end"),
        model.ValidationReport: model.validate_machine(machine, builtin_registry().names()),
        guards.Path: path,
        guards.Literal: literal,
        guards.Compare: compare,
        guards.Exists: guards.Exists(path),
        guards.Not: guards.Not(compare),
        guards.And: guards.And((compare, path)),
        guards.Or: guards.Or((compare, path)),
        guards._Token: guards._tokenize("a")[0],
        actions.RegisteredAction: registered,
        actions.ActionRegistry: builtin_registry(),
        providers.CompletionRequest: providers.CompletionRequest("prompt", "system"),
        providers.CallStats: providers.CallStats(1, 2, 3),
        providers.ScriptStep: providers.ScriptStep("reply", "match"),
        harness.QuestionSpec: item.spec,
        harness.DatasetItem: item,
        harness.Dataset: dataset,
        harness.ItemResult: report.per_item[0],
        harness.EvalReport: report,
        engine.RunLimits: engine.RunLimits(5, "ignore"),
        engine.Agent: agent,
        scene.SceneObject: item.scene.objects[0],
        scene.SceneGraph: item.scene,
        policy.CandidateTransition: step,
        policy.PathRef: policy.PathRef("a.b"),
        policy.Rule: policy.Rule("go", "s", None, {"x": policy.PathRef("a")}),
        policy.RulePolicy: policy.RulePolicy(harness.builtin_rules("routing")),
        policy.LlmPolicy: policy.LlmPolicy("task", 100),
        belief.Belief: new_belief([("user", "hi")], {"x": 1}),
    }


SAMPLES = samples()
FROZEN = [cls for cls, _ in FIELDS if cls not in MUTABLE]
# frozen types whose sample holds a mapping, and so cannot be hashed
UNHASHABLE = {
    model.EventInstance,
    harness.QuestionSpec,
    harness.DatasetItem,
    harness.Dataset,
    scene.SceneGraph,
    policy.Rule,
    policy.RulePolicy,
}


def test_samples_cover_the_table():
    assert set(SAMPLES) == {cls for cls, _ in FIELDS}
    assert all(type(value) is cls for cls, value in SAMPLES.items())


@pytest.mark.parametrize("cls", FROZEN, ids=[c.__qualname__ for c in FROZEN])
def test_frozen_types_reject_assignment(cls):
    value = SAMPLES[cls]
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls", FROZEN, ids=[c.__qualname__ for c in FROZEN])
def test_equal_instances_hash_equal(cls):
    value = SAMPLES[cls]
    for twin in (value._replace(), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and not twin != value
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(twin)
        else:
            assert hash(twin) == hash(value)


@pytest.mark.parametrize("cls", sorted(MUTABLE, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_mutable_types_compare_by_value_and_do_not_hash(cls):
    value = SAMPLES[cls]
    assert value._replace() == value
    with pytest.raises(TypeError):
        hash(value)


def test_mutable_types_accept_assignment():
    value = belief.Belief()
    value.current_state = "s"
    assert value == belief.Belief(current_state="s")
    with pytest.raises(AttributeError):
        value.extra = 1


# ---------------------------------------------------------------------------
# Equality stays within a class


SAME_SHAPE = [
    (guards.And((guards.Literal(1),)), guards.Or((guards.Literal(1),))),
    (guards.Not(guards.Path(("a",))), guards.Exists(guards.Path(("a",)))),
    (guards.Path("a"), guards.Literal("a")),
    (guards.Path("a"), policy.PathRef("a")),
    (guards.Literal("a"), policy.PathRef("a")),
    (providers.ScriptStep("a", None), providers.CompletionRequest("a", None)),
    (providers.CallStats(1, 2, 3), (1, 2, 3)),
    (model.EventInstance("a", {}), ("a", {})),
    (policy.PathRef("a"), ("a",)),
]


@pytest.mark.parametrize("left, right", SAME_SHAPE, ids=lambda v: type(v).__name__)
def test_same_shaped_types_never_compare_equal(left, right):
    assert tuple(left) == tuple(right)
    assert left != right and right != left
    assert not left == right and not right == left


def test_slotted_types_equal_only_their_own_class():
    limits = engine.RunLimits()
    assert limits == engine.RunLimits(10, "error")
    assert limits != engine.RunLimits(11)
    assert limits != (10, "error")


def test_memo_fields_stay_out_of_equality_and_repr():
    registered = SAMPLES[actions.RegisteredAction]
    assert registered.parsers
    assert registered == registered._replace(parsers={})
    assert "parsers" not in repr(registered)
    snapshot = new_belief()
    twin = snapshot._replace(_parsed={("x", len): 1})
    assert twin == snapshot and "_parsed" not in repr(twin)


# ---------------------------------------------------------------------------
# Validation on every path that builds a value


def _bad_scene_objects():
    good = SAMPLES[scene.SceneObject]
    return (good._replace(color="pink"),)


def _broken_machine():
    machine = builtin_machine("h3")
    return machine._replace(states=machine.states[:-1])


VALIDATED = [
    (engine.RunLimits(), {"max_transitions": 0}),
    (engine.RunLimits(), {"max_transitions": True}),
    (engine.RunLimits(), {"unhandled_event": "drop"}),
    (policy.LlmPolicy("task"), {"history_token_budget": 0}),
    (policy.LlmPolicy("task"), {"history_token_budget": 1.5}),
    (policy.Rule("go", when_state="s"), {"when_state": None}),
    (SAMPLES[scene.SceneGraph], {"objects": _bad_scene_objects()}),
    (SAMPLES[engine.Agent], {"machine": _broken_machine()}),
]


@pytest.mark.parametrize("value, change", VALIDATED, ids=lambda v: type(v).__name__)
def test_bad_values_are_rejected_when_built_and_when_copied(value, change):
    cls = type(value)
    fields = {name: getattr(value, name) for name in cls._fields}
    with pytest.raises(MachinaError):
        cls(**{**fields, **change})
    with pytest.raises(MachinaError):
        value._replace(**change)
    if hasattr(copy, "replace"):  # Python 3.13
        with pytest.raises(MachinaError):
            copy.replace(value, **change)


# ---------------------------------------------------------------------------
# cached_property memos


MEMOS = [
    (model.Condition("expression", "a == 1"), "parsed", {"expression": "b == 2"}),
    (builtin_machine("routing")._replace(), "_index", {"name": "copy"}),
    (builtin_machine("routing")._replace(), "_memo", {"name": "copy"}),
    (SAMPLES[policy.CandidateTransition]._replace(), "prompt_line", {"target_description": "x"}),
    (SAMPLES[scene.SceneGraph]._replace(), "json_value", {}),
    (SAMPLES[scene.SceneGraph]._replace(), "json_text", {}),
    (SAMPLES[model.ActionSpec]._replace(), "resolved_output_key", {"output_key": "other"}),
    (SAMPLES[model.ActionSpec]._replace(), "output_key_is_identifier", {"output_key": "other"}),
    (SAMPLES[model.State]._replace(), "is_end", {"tags": frozenset({"end"})}),
]
MEMO_IDS = [f"{type(v).__name__}.{memo}" for v, memo, _ in MEMOS]


@pytest.mark.parametrize("value, memo, change", MEMOS, ids=MEMO_IDS)
def test_memos_are_kept_and_a_changed_copy_starts_without_them(value, memo, change):
    assert memo not in vars(value)
    first = getattr(value, memo)
    assert vars(value)[memo] is first and getattr(value, memo) is first
    changed = value._replace(**change)
    assert memo not in vars(changed)
    assert memo not in vars(copy.copy(value))


@pytest.mark.parametrize("value, memo, change", MEMOS, ids=MEMO_IDS)
def test_a_filled_memo_changes_no_equality_hash_or_repr(value, memo, change):
    empty, filled = value._replace(), value._replace()
    getattr(filled, memo)
    assert memo in vars(filled) and memo not in vars(empty)
    assert filled == empty and repr(filled) == repr(empty)
    if type(value) not in UNHASHABLE:
        assert hash(filled) == hash(empty)


@pytest.mark.parametrize(
    "value, memo, change, derived",
    [
        (SAMPLES[model.ActionSpec], "resolved_output_key", {"output_key": "other"}, "other"),
        (SAMPLES[model.ActionSpec], "resolved_output_key", {"output_key": None}, "note"),
        (SAMPLES[model.ActionSpec], "output_key_is_identifier", {"output_key": "no key"}, False),
        (SAMPLES[model.State], "is_end", {"tags": frozenset({"end"})}, True),
    ],
    ids=[
        "ActionSpec.output_key",
        "ActionSpec.no_output_key",
        "ActionSpec.output_key_is_identifier",
        "State.tags",
    ],
)
def test_a_copied_model_value_derives_its_own_memo(value, memo, change, derived):
    value = value._replace()
    kept = getattr(value, memo)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), value._replace()):
        assert memo not in vars(twin) and twin == value
    changed = value._replace(**change)
    assert getattr(changed, memo) == derived != kept
    assert getattr(value, memo) == kept


def test_a_changed_condition_parses_its_own_expression():
    condition = model.Condition("expression", "a == 1")
    condition.parsed
    assert condition._replace(expression="b == 2").parsed == guards.parse_guard("b == 2")


# ---------------------------------------------------------------------------
# JSON views


def test_eval_report_json_writes_objects_not_arrays():
    report = SAMPLES[harness.EvalReport]
    doc = json.loads(json.dumps(report.to_json_value()))
    assert list(doc) == ["n", "exact_match_accuracy", "avg_provider_calls", "per_item"]
    assert doc["per_item"] == [dict(zip(harness.ItemResult._fields, r)) for r in report.per_item]
