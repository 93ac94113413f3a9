import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machina.harness import (
    ORACLE_SCRIPTS,
    QUERYING,
    Dataset,
    MinSize,
    QuestionSpec,
    UnrecognizedQuestion,
    generate_mini_clevr,
    oracle_agent_factory,
    oracle_answer,
    oracle_ids,
    parse_question,
    read_dataset,
    render_question,
    _output_text,
    _query_pairs,
    _query_spec,
    _random_scene,
    make_qa_agent,
    run_eval,
)
from machina.engine import run
from machina.providers import ScriptedProvider
from machina.scene import ATTRIBUTE_VALUES, ATTRIBUTES, SceneGraph, SceneObject, scene_to_json_value
import dataset_reference
import oracle_reference
from helpers import FixedReplyProvider, action_library_answer, s1_scene, write_dataset


def dataset_fingerprint(dataset):
    return json.dumps(
        [
            {
                "q": item.question,
                "a": item.answer,
                "t": item.qtype,
                "scene": scene_to_json_value(item.scene),
            }
            for item in dataset.items
        ],
        sort_keys=True,
    )


def spelled_out_item(item):
    """An item's fields, its spec's predicate with its key order and its
    scene as canonical JSON."""
    spec = item.spec
    return (
        item.index,
        item.question,
        item.answer,
        item.qtype,
        spec,
        list(spec.predicate.items()),
        scene_to_json_value(item.scene),
    )


class TestGenerator:
    def test_one_scene_three_questions_one_per_type(self):
        dataset = generate_mini_clevr(7, 1, 3)
        assert len(dataset.items) == 3
        assert [i.qtype for i in dataset.items] == ["counting", "judging", "querying"]

    def test_same_seed_identical(self):
        assert dataset_fingerprint(generate_mini_clevr(7, 4, 3)) == dataset_fingerprint(
            generate_mini_clevr(7, 4, 3)
        )

    def test_different_seed_differs(self):
        assert dataset_fingerprint(generate_mini_clevr(7, 4, 3)) != dataset_fingerprint(
            generate_mini_clevr(8, 4, 3)
        )

    def test_zero_scenes_rejected(self):
        with pytest.raises(MinSize):
            generate_mini_clevr(7, 0, 3)

    @pytest.mark.parametrize(
        "n_scenes, questions_per_scene",
        [(True, 3), (1, True), (False, 3), (1, 1.5), (2.0, 1), ("3", 1), (None, 1), (1, -1)],
    )
    def test_count_that_is_no_positive_int_rejected(self, n_scenes, questions_per_scene):
        with pytest.raises(MinSize, match="int"):
            generate_mini_clevr(7, n_scenes, questions_per_scene)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=5),
    )
    def test_matches_the_reference_generator(self, seed, n_scenes, questions_per_scene):
        expected = dataset_reference.generate_mini_clevr(seed, n_scenes, questions_per_scene)
        got = generate_mini_clevr(seed, n_scenes, questions_per_scene)
        assert got.seed == expected.seed
        assert [spelled_out_item(i) for i in got.items] == [
            spelled_out_item(i) for i in expected.items
        ]

    def test_scene_sizes_in_range(self):
        dataset = generate_mini_clevr(21, 10, 1)
        for item in dataset.items:
            assert 3 <= len(item.scene.objects) <= 10

    def test_questions_round_trip_through_parser(self):
        for item in generate_mini_clevr(5, 10, 3).items:
            assert parse_question(item.question) == item.spec
            assert render_question(item.spec) == item.question

    def test_unrecognized_question(self):
        with pytest.raises(UnrecognizedQuestion):
            parse_question("What is the meaning of life?")

    @pytest.mark.parametrize(
        "question",
        [
            "How many shiny objects are there?",
            "Is there a red blue object?",
            "How many metal objects would there be if you didn't include cones?",
        ],
        ids=["unknown-word", "repeated-attribute", "unknown-excluded-shape"],
    )
    def test_question_outside_the_templates(self, question):
        with pytest.raises(UnrecognizedQuestion):
            parse_question(question)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64))
    def test_every_random_scene_has_a_query_pair(self, seed):
        assert _query_pairs(_random_scene(random.Random(seed)))


@pytest.mark.parametrize(
    "output, text",
    [
        (None, ""),
        (True, "yes"),
        (False, "no"),
        (3, "3"),
        (2.5, "2.5"),
        ({"b": 1, "a": [2]}, '{"a": [2], "b": 1}'),
    ],
)
def test_output_text(output, text):
    assert _output_text(output) == text


def reference_query_pairs(scene):
    """The quadratic definition: rescan every object for every (object,
    attribute) choice."""
    pairs = []
    for obj in scene.objects:
        for attr in ATTRIBUTES:
            predicate = {a: getattr(obj, a) for a in ATTRIBUTES if a != attr}
            matches = [
                o
                for o in scene.objects
                if all(getattr(o, a) == v for a, v in predicate.items())
            ]
            if len(matches) == 1:
                pairs.append(QuestionSpec(QUERYING, predicate, query_attribute=attr))
    return pairs


def spelled_out(pairs):
    """Each pair as the querying spec it stands for, with its predicate key
    order, which dict equality ignores. ``_query_pairs`` gives (object,
    attribute) choices, spelled out as the generator does; the reference
    gives the specs themselves."""
    specs = [p if isinstance(p, QuestionSpec) else _query_spec(*p) for p in pairs]
    return [(s, list(s.predicate.items())) for s in specs]


# Two values per attribute, so identifying triples repeat often.
_few_values = st.tuples(
    *(st.sampled_from(ATTRIBUTE_VALUES[a][:2]) for a in ("color", "material", "shape", "size"))
)


class TestQueryPairs:
    @pytest.mark.parametrize("seed", [7, 90731])
    def test_match_reference_on_generated_scenes(self, seed):
        for item in generate_mini_clevr(seed, 200, 3).items[::3]:
            assert spelled_out(_query_pairs(item.scene)) == spelled_out(
                reference_query_pairs(item.scene)
            )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_few_values, min_size=1, max_size=12))
    def test_match_reference_when_triples_repeat(self, combos):
        scene = SceneGraph(
            tuple(SceneObject(f"o{i}", *combo) for i, combo in enumerate(combos)), {}
        )
        assert spelled_out(_query_pairs(scene)) == spelled_out(reference_query_pairs(scene))

    def test_dataset_digest_pinned(self):
        """sha256 over the canonical items of the seed-7 perfbench dataset, as
        the generator computed it when each scene's querying pairs were found
        by rescanning every object (``reference_query_pairs``)."""
        digest = hashlib.sha256()
        for item in generate_mini_clevr(7, 200, 3).items:
            spec = item.spec
            canonical = [
                item.index,
                item.question,
                item.qtype,
                item.answer,
                scene_to_json_value(item.scene),
                [spec.kind, list(spec.predicate.items()), spec.exclude_shape, spec.query_attribute],
            ]
            digest.update(json.dumps(canonical, sort_keys=True).encode("utf-8"))
            digest.update(b"\n")
        assert digest.hexdigest() == (
            "759a82430fc067d80d41643f65302ca008a95e6f1b99f4c9d5ee4da6aa73e8c1"
        )


class TestOracle:
    def test_counting_with_exclusion_on_s1(self):
        spec = parse_question(
            "How many metal objects would there be if you didn't include spheres?"
        )
        assert oracle_answer(s1_scene(), spec) == "1"
        assert oracle_ids(s1_scene(), spec) == ["o1"]

    def test_query_cylinder_color(self):
        spec = parse_question("What color is the cylinder object?")
        assert oracle_answer(s1_scene(), spec) == "red"

    def test_judging_large_rubber(self):
        spec = parse_question("Is there a large rubber object?")
        assert oracle_answer(s1_scene(), spec) == "yes"

    def test_judging_absent(self):
        spec = QuestionSpec("judging", {"color": "green"})
        assert oracle_answer(s1_scene(), spec) == "no"

    def test_oracle_agrees_with_action_library(self):
        for item in generate_mini_clevr(17, 25, 3).items:
            assert oracle_answer(item.scene, item.spec) == action_library_answer(
                item.scene, item.spec
            )

    @pytest.mark.parametrize("seed", [7, 90731])
    def test_scripts_match_the_reference_builders(self, seed):
        # the benchmark's question-answering inputs: 200 scenes of 3 questions
        for item in generate_mini_clevr(seed, 200, 3).items:
            for variant, build in ORACLE_SCRIPTS.items():
                steps = build(item).steps
                assert steps == oracle_reference.ORACLE_SCRIPTS[variant](item).steps
                assert all(type(step.reply) is str and step.match is None for step in steps)


@pytest.mark.parametrize("reply", [None, 7, b'{"event": "finish"}'])
def test_a_policy_reply_that_is_not_text_fails_the_run(reply):
    item = generate_mini_clevr(7, 1, 1).items[0]
    provider = FixedReplyProvider(reply)
    result = run(make_qa_agent("react", item.question, item.scene, provider))
    assert result.status == "failed"
    assert result.reason == f"a reply must be a string, got {type(reply).__name__}"
    assert provider.calls == 1


class TestRunEval:
    def test_oracle_faithful_routing_is_perfect(self):
        dataset = generate_mini_clevr(9, 10, 3)
        report = run_eval(oracle_agent_factory("routing"), dataset)
        assert report.n == 30
        assert report.exact_match_accuracy == 1.0
        assert report.avg_provider_calls == 2.0
        assert all(r.status == "completed" for r in report.per_item)

    def test_wrong_counting_answers_score_zero(self):
        dataset = generate_mini_clevr(9, 6, 1)  # counting questions only
        from machina.harness import make_qa_agent

        def stubborn_factory(item):
            provider = ScriptedProvider.from_replies(["counting", "[]"])
            return make_qa_agent("routing", item.question, item.scene, provider)

        report = run_eval(stubborn_factory, dataset)
        for row in report.per_item:
            if row.expected != "0":
                assert row.got == "0" and row.expected != row.got

    def test_failed_runs_flagged_not_raised(self):
        dataset = generate_mini_clevr(9, 2, 1)
        from machina.harness import make_qa_agent

        def broken_factory(item):
            provider = ScriptedProvider.from_replies(["dunno"])
            return make_qa_agent("routing", item.question, item.scene, provider)

        report = run_eval(broken_factory, dataset)
        assert all(r.status == "failed" and r.got == "" for r in report.per_item)
        assert report.exact_match_accuracy == 0.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(MinSize):
            run_eval(oracle_agent_factory("routing"), Dataset(0, ()))

    def test_per_item_sorted_by_index(self):
        dataset = generate_mini_clevr(9, 4, 3)
        shuffled = Dataset(dataset.seed, tuple(reversed(dataset.items)))
        report = run_eval(oracle_agent_factory("routing"), shuffled)
        assert [r.index for r in report.per_item] == sorted(r.index for r in report.per_item)

    def test_planning_calls_at_most_react(self):
        dataset = generate_mini_clevr(9, 12, 3)
        planning = run_eval(oracle_agent_factory("planning"), dataset)
        react = run_eval(oracle_agent_factory("react"), dataset)
        assert planning.avg_provider_calls <= react.avg_provider_calls


class TestDatasetFiles:
    def test_write_read_round_trip(self, tmp_path):
        dataset = generate_mini_clevr(13, 4, 3)
        path = write_dataset(dataset, tmp_path)
        loaded = read_dataset(path)
        assert len(loaded.items) == len(dataset.items)
        for original, again in zip(dataset.items, loaded.items):
            assert again.question == original.question
            assert again.answer == original.answer
            assert again.qtype == original.qtype
            assert again.spec == original.spec
            assert again.scene == original.scene

    def test_jsonl_line_schema(self, tmp_path):
        dataset = generate_mini_clevr(13, 1, 2)
        path = write_dataset(dataset, tmp_path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert all(set(l) == {"question", "scene_file", "answer", "type"} for l in lines)

    def test_eval_on_reloaded_dataset(self, tmp_path):
        dataset = generate_mini_clevr(13, 3, 3)
        loaded = read_dataset(write_dataset(dataset, tmp_path))
        report = run_eval(oracle_agent_factory("routing"), loaded)
        assert report.exact_match_accuracy == 1.0


class TestReadDatasetEdges:
    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        path.write_text('{"question": "How many red objects are there?"}\n')
        from machina.errors import SchemaError

        with pytest.raises(SchemaError):
            read_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        path.write_text("\n")
        with pytest.raises(MinSize):
            read_dataset(path)

    @pytest.mark.parametrize(
        "key, value",
        [("type", 3), ("type", "sorting"), ("type", ""), ("type", ["counting"]), ("answer", 2),
         ("answer", True), ("answer", {"text": "2"})],
    )
    def test_answer_and_type_are_typed(self, tmp_path, key, value):
        path = write_dataset(generate_mini_clevr(13, 1, 3), tmp_path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc[key] = value
        lines[1] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        from machina.errors import SchemaError

        with pytest.raises(SchemaError) as info:
            read_dataset(path)
        assert info.value.pointer == f"/1/{key}"

    def test_null_answer_and_type_fall_back_to_the_question(self, tmp_path):
        dataset = generate_mini_clevr(13, 1, 3)
        path = write_dataset(dataset, tmp_path)
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(json.dumps({**d, "answer": None, "type": None}) + "\n" for d in docs))
        loaded = read_dataset(path)
        assert [(i.answer, i.qtype) for i in loaded.items] == [
            (i.answer, i.qtype) for i in dataset.items
        ]
