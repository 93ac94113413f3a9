import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machina.engine import run
from machina.errors import MachinaError, SchemaError
from machina.harness import COUNTING, JUDGING, generate_mini_clevr, make_qa_agent
from machina.providers import CallStats, ReplyNotText, ScriptStep, ScriptedProvider
from machina.scene import (
    ATTRIBUTE_VALUES,
    ATTRIBUTES,
    InvalidScene,
    InverseConflict,
    SceneGraph,
    SceneObject,
    UnclassifiableReply,
    UnknownAttribute,
    UnknownObject,
    UnknownRelation,
    RELATIONS,
    UnparseableReply,
    answer_question,
    classify_question,
    count_objects,
    extract_objects,
    filter_objects,
    normalize_answer,
    parse_scene,
    query_attribute,
    related_objects,
    same_attribute,
    scene_from_json_value,
    scene_to_json_value,
)
from helpers import FixedReplyProvider, s1_scene


class TestParse:
    def test_s1_fixture(self):
        scene = s1_scene()
        assert scene.object_ids() == ("o1", "o2", "o3")
        assert scene.relations["left"]["o3"] == frozenset({"o1", "o2"})

    def test_empty_scene_is_valid(self):
        scene = parse_scene(json.dumps({"objects": []}))
        assert scene.objects == ()

    def test_relation_citing_unknown_object(self):
        doc = {
            "objects": [
                {"id": "o1", "color": "red", "material": "metal", "shape": "cube", "size": "small"}
            ],
            "relations": {"left": {"o1": ["o9"]}},
        }
        with pytest.raises(SchemaError):
            parse_scene(json.dumps(doc))

    def test_inverse_completed_from_one_side(self):
        doc = {
            "objects": [
                {"id": "a", "color": "red", "material": "metal", "shape": "cube", "size": "small"},
                {"id": "b", "color": "blue", "material": "metal", "shape": "cube", "size": "small"},
            ],
            "relations": {"left": {"b": ["a"]}},
        }
        scene = parse_scene(json.dumps(doc))
        assert scene.relations["right"]["a"] == frozenset({"b"})

    def test_inverse_conflict(self):
        doc = {
            "objects": [
                {"id": "a", "color": "red", "material": "metal", "shape": "cube", "size": "small"},
                {"id": "b", "color": "blue", "material": "metal", "shape": "cube", "size": "small"},
            ],
            "relations": {"left": {"b": ["a"]}, "right": {"b": ["a"]}},
        }
        with pytest.raises(InverseConflict):
            parse_scene(json.dumps(doc))

    def test_bad_attribute_value(self):
        doc = {
            "objects": [
                {"id": "a", "color": "pink", "material": "metal", "shape": "cube", "size": "small"}
            ]
        }
        with pytest.raises(SchemaError):
            parse_scene(json.dumps(doc))

    def test_duplicate_ids(self):
        obj = {"id": "a", "color": "red", "material": "metal", "shape": "cube", "size": "small"}
        with pytest.raises(SchemaError):
            parse_scene(json.dumps({"objects": [obj, obj]}))

    def test_self_relation_rejected(self):
        doc = {
            "objects": [
                {"id": "a", "color": "red", "material": "metal", "shape": "cube", "size": "small"}
            ],
            "relations": {"left": {"a": ["a"]}},
        }
        with pytest.raises(SchemaError):
            parse_scene(json.dumps(doc))

    def test_json_value_round_trip(self):
        scene = s1_scene()
        assert scene_from_json_value(scene_to_json_value(scene)) == scene


A = SceneObject("a", "red", "metal", "cube", "small")
B = SceneObject("b", "blue", "metal", "cube", "small")


class TestConstruction:
    @pytest.mark.parametrize(
        "objects,relations,error",
        [
            pytest.param((A, A), {}, InvalidScene, id="duplicate-id"),
            pytest.param(
                (A._replace(color="pink"),), {}, InvalidScene, id="bad-colour"
            ),
            pytest.param(
                (A, B), {"above": {"a": frozenset({"b"})}}, InvalidScene, id="unknown-relation"
            ),
            pytest.param(
                (A,),
                {"left": {"a": frozenset({"a"})}, "right": {"a": frozenset({"a"})}},
                InvalidScene,
                id="self-relation",
            ),
            pytest.param(
                (A, B),
                {"left": {"b": frozenset({"o9"})}, "right": {"o9": frozenset({"b"})}},
                InvalidScene,
                id="member-not-in-scene",
            ),
            pytest.param((A, B), {"left": {"b": frozenset()}}, InvalidScene, id="empty-entry"),
            pytest.param(
                (A, B), {"left": {"b": frozenset({"a"})}}, InverseConflict, id="one-sided"
            ),
            pytest.param(
                (A, B),
                {"left": {"b": frozenset({"a"})}, "right": {"b": frozenset({"a"})}},
                InverseConflict,
                id="inconsistent-inverse",
            ),
        ],
    )
    def test_invalid_scene_fails_when_built(self, objects, relations, error):
        with pytest.raises(error) as info:
            SceneGraph(objects, relations)
        assert isinstance(info.value, MachinaError)

    def test_error_points_into_the_json_form(self):
        with pytest.raises(InvalidScene) as info:
            SceneGraph((A, B, A), {})
        assert info.value.pointer == "/objects/2/id"
        doc = {
            "objects": scene_to_json_value(SceneGraph((A, B), {}))["objects"],
            "relations": {"right": {"a": ["b", "o9"]}},
        }
        with pytest.raises(InvalidScene) as info:
            scene_from_json_value(doc)
        assert info.value.pointer == "/relations/right/a"

    def test_empty_entry_in_a_file_must_name_an_object(self):
        doc = {
            "objects": scene_to_json_value(SceneGraph((A,), {}))["objects"],
            "relations": {"left": {"o9": []}},
        }
        with pytest.raises(SchemaError) as info:
            scene_from_json_value(doc)
        assert info.value.pointer == "/relations/left/o9"

    def test_unknown_member_is_named_before_a_conflict_with_an_empty_side(self):
        doc = {
            "objects": scene_to_json_value(SceneGraph((A, B), {}))["objects"],
            "relations": {"left": {"a": ["o9"]}, "right": {}},
        }
        with pytest.raises(InvalidScene) as info:
            scene_from_json_value(doc)
        assert info.value.pointer == "/relations/left/a"

    @pytest.mark.parametrize("member", [1, None, ["b"], {"id": "b"}])
    def test_non_string_member_in_a_file(self, member):
        doc = {
            "objects": scene_to_json_value(SceneGraph((A, B), {}))["objects"],
            "relations": {"left": {"a": ["b", member]}},
        }
        with pytest.raises(SchemaError) as info:
            scene_from_json_value(doc)
        assert info.value.pointer == "/relations/left/a"

    def test_relation_key_not_in_the_scene(self):
        with pytest.raises(InvalidScene) as info:
            SceneGraph((A, B), {"left": {"o9": frozenset({"a"})}})
        assert info.value.pointer == "/relations/left/o9"

    def test_relations_are_read_only(self):
        scene = s1_scene()
        with pytest.raises(TypeError):
            scene.relations["left"]["o1"] = frozenset({"o2"})
        with pytest.raises(TypeError):
            scene.relations["left"] = {}

    def test_missing_relations_read_as_empty(self):
        scene = SceneGraph((A, B), {})
        assert scene == SceneGraph([A, B], {"left": {}, "front": {}})
        assert related_objects(scene, "a", "behind") == []

    def test_json_round_trip_of_generated_scenes(self):
        scenes = {id(i.scene): i.scene for i in generate_mini_clevr(7, 200, 3).items}
        assert len(scenes) == 200
        for scene in [*scenes.values(), s1_scene()]:
            assert scene_from_json_value(scene_to_json_value(scene)) == scene


class TestOps:
    def test_filter_metal(self):
        assert filter_objects(s1_scene(), {"material": "metal"}) == ["o1", "o2"]

    def test_filter_empty_predicate_matches_all(self):
        assert filter_objects(s1_scene(), {}) == ["o1", "o2", "o3"]

    def test_filter_out_of_vocabulary_value(self):
        assert filter_objects(s1_scene(), {"shape": "cone"}) == []

    def test_filter_unknown_attribute(self):
        with pytest.raises(UnknownAttribute):
            filter_objects(s1_scene(), {"weight": "heavy"})

    def test_related(self):
        scene = s1_scene()
        assert related_objects(scene, "o3", "left") == ["o1", "o2"]
        assert related_objects(scene, "o1", "left") == []

    def test_related_unknown_object(self):
        with pytest.raises(UnknownObject):
            related_objects(s1_scene(), "o9", "left")

    def test_related_unknown_relation(self):
        with pytest.raises(UnknownRelation):
            related_objects(s1_scene(), "o1", "above")

    def test_same_attribute(self):
        scene = s1_scene()
        assert same_attribute(scene, "o1", "material") == ["o2"]
        assert same_attribute(scene, "o1", "color") == []
        assert same_attribute(scene, "o2", "size") == []

    def test_query(self):
        scene = s1_scene()
        assert query_attribute(scene, "o3", "color") == "red"
        assert query_attribute(scene, "o1", "shape") == "cube"

    def test_query_unknown_attribute(self):
        with pytest.raises(UnknownAttribute):
            query_attribute(s1_scene(), "o2", "weight")

    @pytest.mark.parametrize(
        "ids,expected", [([], 0), (["o1"], 1), (["o1", "o2", "o1"], 2)]
    )
    def test_count(self, ids, expected):
        assert count_objects(ids) == expected


def random_scene(rnd: random.Random):
    combos = [
        (c, m, sh, si)
        for c in ATTRIBUTE_VALUES["color"]
        for m in ATTRIBUTE_VALUES["material"]
        for sh in ATTRIBUTE_VALUES["shape"]
        for si in ATTRIBUTE_VALUES["size"]
    ]
    n = rnd.randint(1, 10)
    objects = [
        {"id": f"o{i}", "color": c, "material": m, "shape": sh, "size": si}
        for i, (c, m, sh, si) in enumerate(rnd.sample(combos, n))
    ]
    order = [o["id"] for o in objects]
    rnd.shuffle(order)
    left = {order[i]: order[:i] for i in range(1, len(order))}
    return scene_from_json_value({"objects": objects, "relations": {"left": left}})


class TestProperties:
    def test_filter_matches_brute_force_enumeration(self):
        rnd = random.Random(99)
        for _ in range(220):
            scene = random_scene(rnd)
            attrs = rnd.sample(ATTRIBUTES, rnd.randint(0, 2))
            predicate = {a: rnd.choice(ATTRIBUTE_VALUES[a]) for a in attrs}
            oracle = [
                o.id
                for o in scene.objects
                if all(getattr(o, a) == v for a, v in predicate.items())
            ]
            assert filter_objects(scene, predicate) == oracle
            assert count_objects(filter_objects(scene, predicate)) == len(oracle)

    def test_inverse_closure(self):
        rnd = random.Random(31)
        for _ in range(60):
            scene = random_scene(rnd)
            for forward, backward in (("left", "right"), ("front", "behind")):
                for anchor in scene.object_ids():
                    for other in related_objects(scene, anchor, forward):
                        assert anchor in related_objects(scene, other, backward)


class TestLlmOps:
    def test_classify_plain(self):
        provider = ScriptedProvider.from_replies(["counting"])
        assert classify_question(provider, "How many cubes?") == "counting"

    def test_classify_substring(self):
        provider = ScriptedProvider.from_replies(["This is a Judging question."])
        assert classify_question(provider, "Is there a cube?") == "judging"

    def test_classify_earliest_label_wins(self):
        provider = ScriptedProvider.from_replies(["querying, not counting"])
        assert classify_question(provider, "What color?") == "querying"

    def test_classify_unmappable(self):
        provider = ScriptedProvider.from_replies(["dunno"])
        with pytest.raises(UnclassifiableReply):
            classify_question(provider, "Hmm?")

    def test_extract_plain(self):
        provider = ScriptedProvider.from_replies(['["o1"]'])
        assert extract_objects(provider, s1_scene(), "q") == ["o1"]

    def test_extract_with_chatter(self):
        provider = ScriptedProvider.from_replies(['Objects: ["o1","o2"]'])
        assert extract_objects(provider, s1_scene(), "q") == ["o1", "o2"]

    def test_extract_unknown_id(self):
        provider = ScriptedProvider.from_replies(['["o9"]'])
        with pytest.raises(UnknownObject):
            extract_objects(provider, s1_scene(), "q")

    def test_extract_unparseable(self):
        provider = ScriptedProvider.from_replies(["no list here"])
        with pytest.raises(UnparseableReply):
            extract_objects(provider, s1_scene(), "q")

    def test_extract_prompt_contains_scene(self):
        step = ScriptStep(reply='["o2"]', match='"id": "o2"')
        provider = ScriptedProvider([step])
        assert extract_objects(provider, s1_scene(), "which sphere?") == ["o2"]

    def test_answer_normalized(self):
        provider = ScriptedProvider.from_replies(["  Yes. "])
        assert answer_question(provider, s1_scene(), "Is there a cube?") == "yes"


class RepliesProvider:
    """Returns its replies in order, text or not."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return self.replies.pop(0)

    def snapshot_stats(self):
        return CallStats(self.calls)


NOT_TEXT = [None, 7, b"yes"]


class TestReplyNotText:
    """A reply that is not a ``str`` raises ``ReplyNotText`` in each scene
    action, and a routing run that gets one ends ``failed``, never
    ``completed`` with an answer made from it."""

    @pytest.mark.parametrize("reply", NOT_TEXT)
    @pytest.mark.parametrize(
        "ask",
        [
            lambda p: classify_question(p, "Is there a cube?"),
            lambda p: extract_objects(p, s1_scene(), "q"),
            lambda p: answer_question(p, s1_scene(), "Is there a cube?"),
        ],
        ids=["classify", "extract", "answer"],
    )
    def test_each_action_raises(self, ask, reply):
        provider = FixedReplyProvider(reply)
        with pytest.raises(ReplyNotText, match=type(reply).__name__):
            ask(provider)
        assert provider.calls == 1

    @pytest.mark.parametrize("reply", NOT_TEXT)
    @pytest.mark.parametrize(
        "qtype, before, action",
        [
            (JUDGING, [], "classifyQuestion"),
            (COUNTING, ["counting"], "extractObjects"),
            (JUDGING, ["judging"], "answerQuestion"),
        ],
        ids=["classify", "extract", "answer"],
    )
    def test_a_routing_run_fails(self, qtype, before, action, reply):
        item = next(i for i in generate_mini_clevr(7, 2, 3).items if i.qtype == qtype)
        provider = RepliesProvider(before + [reply])
        result = run(make_qa_agent("routing", item.question, item.scene, provider))
        assert result.status == "failed"
        assert result.reason == f"action {action!r} failed: {ReplyNotText(reply)}"
        assert provider.calls == len(before) + 1


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Yes", "yes"),
            (" RED ", "red"),
            ("Three", "3"),
            ("2", "2"),
            ("two  words", "two words"),
        ],
    )
    def test_normalize(self, raw, expected):
        assert normalize_answer(raw) == expected


# Reference: relation completion as first written, with the inversion loop
# spelled out three times. Parsing a scene file must agree with it.
def _reference_complete_relations(
    given: dict[str, dict[str, set[str]]], ids: set[str]
) -> dict[str, dict[str, frozenset[str]]]:
    complete: dict[str, dict[str, set[str]]] = {r: {} for r in RELATIONS}
    for forward, backward in (("left", "right"), ("front", "behind")):
        has_fwd = forward in given
        has_bwd = backward in given
        fwd = given.get(forward, {})
        bwd = given.get(backward, {})
        if has_fwd and has_bwd:
            derived_bwd: dict[str, set[str]] = {}
            for key, others in fwd.items():
                for other in others:
                    derived_bwd.setdefault(other, set()).add(key)
            derived_fwd: dict[str, set[str]] = {}
            for key, others in bwd.items():
                for other in others:
                    derived_fwd.setdefault(other, set()).add(key)
            if {k: v for k, v in derived_bwd.items() if v} != {k: set(v) for k, v in bwd.items() if v} or {
                k: v for k, v in derived_fwd.items() if v
            } != {k: set(v) for k, v in fwd.items() if v}:
                raise InverseConflict(
                    f"relations {forward!r} and {backward!r} are not mutual inverses"
                )
            complete[forward] = {k: set(v) for k, v in fwd.items()}
            complete[backward] = {k: set(v) for k, v in bwd.items()}
        elif has_fwd or has_bwd:
            present, missing = (forward, backward) if has_fwd else (backward, forward)
            table = given[present]
            complete[present] = {k: set(v) for k, v in table.items()}
            derived: dict[str, set[str]] = {}
            for key, others in table.items():
                for other in others:
                    derived.setdefault(other, set()).add(key)
            complete[missing] = derived
    return {
        r: {k: frozenset(v) for k, v in table.items() if v}
        for r, table in complete.items()
    }


IDS = ("a", "b", "c", "d")
# id -> ids standing in the relation to it; empty entries are allowed, as in files
TABLES = st.dictionaries(st.sampled_from(IDS), st.frozensets(st.sampled_from(IDS))).map(
    lambda table: {key: set(others - {key}) for key, others in table.items()}
)


@st.composite
def relation_tables(draw):
    """Each inverse pair given on neither side, one side, both sides as true
    inverses (plus empty entries), or both sides drawn independently, which
    mostly conflict."""
    tables = {}
    for forward, backward in (("left", "right"), ("front", "behind")):
        shape = draw(st.sampled_from(["none", "forward", "backward", "inverse", "independent"]))
        if shape == "forward":
            tables[forward] = draw(TABLES)
        elif shape == "backward":
            tables[backward] = draw(TABLES)
        elif shape == "inverse":
            tables[forward] = draw(TABLES)
            inverse = {key: set() for key in draw(st.sets(st.sampled_from(IDS)))}
            for key, others in tables[forward].items():
                for other in others:
                    inverse.setdefault(other, set()).add(key)
            tables[backward] = inverse
        elif shape == "independent":
            tables[forward] = draw(TABLES)
            tables[backward] = draw(TABLES)
    return tables


def _completed(complete, tables):
    try:
        return complete(copy.deepcopy(tables))
    except InverseConflict as exc:
        return type(exc)


def _parsed_relations(tables):
    doc = {
        "objects": [
            {"id": i, "color": "red", "material": "metal", "shape": shape, "size": "small"}
            for i, shape in zip(IDS, ("cube", "sphere", "cylinder", "cube"))
        ],
        "relations": {r: {k: sorted(v) for k, v in t.items()} for r, t in tables.items()},
    }
    scene = scene_from_json_value(doc)
    return {r: dict(scene.relations[r]) for r in RELATIONS}


@settings(max_examples=500, deadline=None)
@given(relation_tables())
def test_complete_relations_agrees_with_reference(tables):
    expected = _completed(lambda t: _reference_complete_relations(t, set(IDS)), tables)
    assert _completed(_parsed_relations, tables) == expected
