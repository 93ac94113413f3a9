"""Batch evaluation at desk scale.

Generates a small deterministic question-answering dataset over synthetic
scenes, answers each item with an independent brute-force oracle, runs an
agent per item and scores exact-match accuracy plus the average number of
provider calls. Scripted "oracle-faithful" providers replay exactly the
replies a perfectly behaving model would give, keeping runs hermetic.
"""

from __future__ import annotations

import collections
import functools
import json
import math
import operator
import random
import re
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping

from .actions import builtin_registry, parse_scene_input
from .belief import Belief, kv_set, new_belief, seed_parsed_input
from .engine import Agent, RunLimits, run
from .errors import MachinaError, check_keys, require_object, require_string
from .json_extract import JsonSyntaxError, read_json
from .machine_io import parse_machine
from .model import StateMachine
from .policy import LlmPolicy, PolicyStage, RulePolicy, rules_from_value
from .providers import CompletionProvider, ScriptedProvider
from .scene import (
    ATTRIBUTE_VALUES,
    ATTRIBUTES,
    QUESTION_TYPES,
    SceneGraph,
    SceneObject,
    normalize_answer,
    parse_scene,
)

COUNTING, JUDGING, QUERYING = QUESTION_TYPES

_VALUE_TO_ATTRIBUTE = {
    value: attr for attr, values in ATTRIBUTE_VALUES.items() for value in values
}


class MinSize(MachinaError):
    """Dataset generation was asked for an empty dataset."""


class BadSceneFile(MachinaError):
    def __init__(self, dataset: Path, line: int, scene_file: str, cause: MachinaError):
        super().__init__(f"{dataset}, line {line}: scene file {scene_file!r}: {cause}")
        self.line = line
        self.scene_file = scene_file


class UnrecognizedQuestion(MachinaError):
    def __init__(self, question: str):
        super().__init__(f"question does not match a known template: {question!r}")


@dataclass(frozen=True)
class QuestionSpec:
    """Structured template instance behind a generated question."""

    kind: str
    predicate: Mapping[str, str]
    exclude_shape: str | None = None
    query_attribute: str | None = None


@dataclass(frozen=True)
class DatasetItem:
    index: int
    question: str
    scene: SceneGraph
    qtype: str
    answer: str
    spec: QuestionSpec


@dataclass(frozen=True)
class Dataset:
    seed: int
    items: tuple[DatasetItem, ...]


@dataclass(frozen=True)
class ItemResult:
    index: int
    question: str
    expected: str
    got: str
    calls: int
    status: str


@dataclass(frozen=True)
class EvalReport:
    n: int
    exact_match_accuracy: float
    avg_provider_calls: float
    per_item: tuple[ItemResult, ...]

    def to_json_value(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        failures = sum(1 for r in self.per_item if r.expected != r.got)
        return "\n".join(
            [
                f"items:                {self.n}",
                f"exact match accuracy: {self.exact_match_accuracy:.3f}",
                f"avg provider calls:   {self.avg_provider_calls:.3f}",
                f"mismatches:           {failures}",
            ]
        )


# ---------------------------------------------------------------------------
# Question templates


def _describe(predicate: Mapping[str, str]) -> str:
    return " ".join(predicate[attr] for attr in ATTRIBUTES if attr in predicate)


def render_question(spec: QuestionSpec) -> str:
    desc = _describe(spec.predicate)
    if spec.kind == COUNTING:
        if spec.exclude_shape:
            return (
                f"How many {desc} objects would there be if you didn't include "
                f"{spec.exclude_shape}s?"
            )
        return f"How many {desc} objects are there?"
    if spec.kind == JUDGING:
        return f"Is there a {desc} object?"
    return f"What {spec.query_attribute} is the {desc} object?"


_COUNT_EXCLUDE_RE = re.compile(
    r"^How many (.+) objects would there be if you didn't include (\w+)s\?$"
)
_COUNT_RE = re.compile(r"^How many (.+) objects are there\?$")
_JUDGE_RE = re.compile(r"^Is there an? (.+) object\?$")
_QUERY_RE = re.compile(r"^What (color|material|shape|size) is the (.+) object\?$")


def _predicate_from_words(desc: str, question: str) -> dict[str, str]:
    predicate: dict[str, str] = {}
    for word in desc.split():
        attr = _VALUE_TO_ATTRIBUTE.get(word)
        if attr is None or attr in predicate:
            raise UnrecognizedQuestion(question)
        predicate[attr] = word
    if not predicate:
        raise UnrecognizedQuestion(question)
    return predicate


def parse_question(question: str) -> QuestionSpec:
    """Recover the template instance from generated question text."""
    m = _COUNT_EXCLUDE_RE.match(question)
    if m:
        shape = m.group(2)
        if shape not in ATTRIBUTE_VALUES["shape"]:
            raise UnrecognizedQuestion(question)
        return QuestionSpec(
            COUNTING, _predicate_from_words(m.group(1), question), exclude_shape=shape
        )
    m = _COUNT_RE.match(question)
    if m:
        return QuestionSpec(COUNTING, _predicate_from_words(m.group(1), question))
    m = _JUDGE_RE.match(question)
    if m:
        return QuestionSpec(JUDGING, _predicate_from_words(m.group(1), question))
    m = _QUERY_RE.match(question)
    if m:
        return QuestionSpec(
            QUERYING,
            _predicate_from_words(m.group(2), question),
            query_attribute=m.group(1),
        )
    raise UnrecognizedQuestion(question)


# ---------------------------------------------------------------------------
# Brute-force oracle (independent of the action library)


def _oracle_matches(scene: SceneGraph, spec: QuestionSpec) -> list[SceneObject]:
    matched = []
    for obj in scene.objects:
        if any(getattr(obj, attr) != value for attr, value in spec.predicate.items()):
            continue
        if spec.exclude_shape is not None and obj.shape == spec.exclude_shape:
            continue
        matched.append(obj)
    return matched


def oracle_answer(scene: SceneGraph, spec: QuestionSpec) -> str:
    """Answer by direct enumeration over the scene's objects."""
    matches = _oracle_matches(scene, spec)
    if spec.kind == COUNTING:
        return str(len(matches))
    if spec.kind == JUDGING:
        return "yes" if matches else "no"
    if len(matches) != 1:
        raise MachinaError(
            f"querying predicate matched {len(matches)} objects, expected exactly 1"
        )
    return getattr(matches[0], spec.query_attribute or "")


def oracle_ids(scene: SceneGraph, spec: QuestionSpec) -> list[str]:
    return [o.id for o in _oracle_matches(scene, spec)]


# ---------------------------------------------------------------------------
# Mini dataset generation

_ALL_COMBOS = [
    (color, material, shape, size)
    for color in ATTRIBUTE_VALUES["color"]
    for material in ATTRIBUTE_VALUES["material"]
    for shape in ATTRIBUTE_VALUES["shape"]
    for size in ATTRIBUTE_VALUES["size"]
]


def _random_scene(rnd: random.Random) -> SceneGraph:
    n = rnd.randint(3, 10)
    combos = rnd.sample(_ALL_COMBOS, n)
    objects = tuple(
        SceneObject(f"o{i + 1}", color, material, shape, size)
        for i, (color, material, shape, size) in enumerate(combos)
    )
    ids = [o.id for o in objects]
    left_to_right = ids[:]
    rnd.shuffle(left_to_right)
    front_to_back = ids[:]
    rnd.shuffle(front_to_back)

    def ordering(sequence: list[str]) -> dict[str, dict[str, frozenset[str]]]:
        before: dict[str, frozenset[str]] = {}
        after: dict[str, frozenset[str]] = {}
        for pos, obj in enumerate(sequence):
            if pos:
                before[obj] = frozenset(sequence[:pos])
            if pos < len(sequence) - 1:
                after[obj] = frozenset(sequence[pos + 1 :])
        return {"before": before, "after": after}

    horizontal = ordering(left_to_right)
    depth = ordering(front_to_back)
    relations = {
        "left": horizontal["before"],
        "right": horizontal["after"],
        "front": depth["before"],
        "behind": depth["after"],
    }
    return SceneGraph(objects, relations)


def _query_pairs(scene: SceneGraph) -> list[QuestionSpec]:
    """Every (object, attribute) choice whose identifying predicate (the
    other three attributes) matches exactly one object."""
    others = {attr: tuple(a for a in ATTRIBUTES if a != attr) for attr in ATTRIBUTES}
    triples = {attr: operator.attrgetter(*others[attr]) for attr in ATTRIBUTES}
    counts = {
        attr: collections.Counter(map(triples[attr], scene.objects)) for attr in ATTRIBUTES
    }
    pairs = []
    for obj in scene.objects:
        for attr in ATTRIBUTES:
            triple = triples[attr](obj)
            if counts[attr][triple] == 1:
                predicate = dict(zip(others[attr], triple))
                pairs.append(QuestionSpec(QUERYING, predicate, query_attribute=attr))
    return pairs


def _random_counting(rnd: random.Random) -> QuestionSpec:
    attrs = rnd.sample(ATTRIBUTES, rnd.randint(1, 2))
    predicate = {a: rnd.choice(ATTRIBUTE_VALUES[a]) for a in attrs}
    exclude = None
    if "shape" not in predicate and rnd.random() < 0.3:
        exclude = rnd.choice(ATTRIBUTE_VALUES["shape"])
    return QuestionSpec(COUNTING, predicate, exclude_shape=exclude)


def _random_judging(rnd: random.Random) -> QuestionSpec:
    attrs = rnd.sample(ATTRIBUTES, rnd.randint(1, 2))
    return QuestionSpec(JUDGING, {a: rnd.choice(ATTRIBUTE_VALUES[a]) for a in attrs})


def generate_mini_clevr(seed: int, n_scenes: int, questions_per_scene: int) -> Dataset:
    """Deterministic synthetic dataset: same seed, same items, byte for byte.

    Scenes hold 3 to 10 objects with distinct attribute tuples and spatially
    consistent relations derived from random left-to-right and front-to-back
    orderings. Question types cycle counting, judging, querying.
    """
    if n_scenes < 1 or questions_per_scene < 1:
        raise MinSize("need at least one scene and one question per scene")
    rnd = random.Random(seed)
    items: list[DatasetItem] = []
    index = 0
    for _ in range(n_scenes):
        scene = _random_scene(rnd)
        query_pairs = _query_pairs(scene)
        while not query_pairs:  # pragma: no cover - distinct tuples make this rare
            scene = _random_scene(rnd)
            query_pairs = _query_pairs(scene)
        for qi in range(questions_per_scene):
            qtype = QUESTION_TYPES[qi % 3]
            if qtype == COUNTING:
                spec = _random_counting(rnd)
            elif qtype == JUDGING:
                spec = _random_judging(rnd)
            else:
                spec = rnd.choice(query_pairs)
            question = render_question(spec)
            items.append(
                DatasetItem(index, question, scene, qtype, oracle_answer(scene, spec), spec)
            )
            index += 1
    return Dataset(seed, tuple(items))


# ---------------------------------------------------------------------------
# Dataset files (JSONL plus one scene file per scene)


def read_dataset(jsonl_path: str | Path) -> Dataset:
    path = Path(jsonl_path)
    scenes: dict[str, SceneGraph] = {}
    items: list[DatasetItem] = []
    for index, line in enumerate(path.read_bytes().splitlines()):
        if not line.strip():
            continue
        pointer = f"/{index}"
        try:
            doc = require_object(read_json(line), pointer)
        except JsonSyntaxError as exc:
            raise JsonSyntaxError(index + 1, exc.column, exc.reason) from None
        keys = ("question", "scene_file", "answer", "type")
        check_keys(doc, keys, keys[:2], pointer)
        question = require_string(doc, "question", pointer)
        scene_file = require_string(doc, "scene_file", pointer)
        if scene_file not in scenes:
            try:
                scenes[scene_file] = parse_scene((path.parent / scene_file).read_bytes())
            except MachinaError as exc:
                raise BadSceneFile(path, index + 1, scene_file, exc) from None
        scene = scenes[scene_file]
        spec = parse_question(question)
        answer = doc.get("answer") or oracle_answer(scene, spec)
        qtype = doc.get("type") or spec.kind
        items.append(DatasetItem(index, question, scene, qtype, answer, spec))
    if not items:
        raise MinSize("dataset file contains no items")
    return Dataset(-1, tuple(items))


# ---------------------------------------------------------------------------
# Bundled machines and agent factories


@functools.cache
def builtin_machine(name: str) -> StateMachine:
    """The bundled machine ``name``, parsed on the first call and shared,
    frozen, by every later one."""
    data = resources.files("machina").joinpath(f"machines/{name}.sm.json").read_bytes()
    return parse_machine(data)


@functools.cache
def builtin_rules(name: str) -> tuple:
    """The bundled rules file ``name``, loaded on the first call and shared
    by every later one."""
    data = resources.files("machina").joinpath(f"rules/{name}.rules.json").read_bytes()
    return rules_from_value(read_json(data))


_QA_POLICY = LlmPolicy(
    task_description="Answer the user's question about the scene graph stored in the belief."
)


def qa_belief(question: str | None = None, scene: SceneGraph | None = None) -> Belief:
    """Belief for a question about a scene: the question is the task
    context's ``user`` message and ``kv["question"]``, and the scene is the
    read-only task input ``scene``. Either may be left out. The input is the
    scene's own ``json_value``, so beliefs built from one ``SceneGraph``
    share it, read-only, as snapshots share their inputs. The scene actions
    get ``scene`` itself, never a parse of its JSON."""
    belief = new_belief([("user", question)] if question else [])
    if scene is not None:
        # shared, not copied: nothing writes to a task input
        belief.inputs["scene"] = scene.json_value
        seed_parsed_input(belief, "scene", parse_scene_input, scene)
    if question:
        kv_set(belief, "question", question)
    return belief


def make_qa_agent(
    variant: str,
    question: str,
    scene: SceneGraph,
    provider: CompletionProvider,
) -> Agent:
    """Agent for one of the bundled question-answering machines.

    The routing variant decides the branch after classification with rules;
    the react and planning variants rely on the LLM policy.
    """
    machine = builtin_machine(variant)
    stack: tuple[PolicyStage, ...]
    if variant == "routing":
        stack = (RulePolicy(builtin_rules("routing")), _QA_POLICY)
    else:
        stack = (_QA_POLICY,)
    return Agent(
        machine=machine,
        belief=qa_belief(question, scene),
        policy=stack,
        registry=builtin_registry(),
        provider=provider,
    )


# ---------------------------------------------------------------------------
# Oracle-faithful scripted providers


def oracle_script_routing(item: DatasetItem) -> ScriptedProvider:
    """Replies a perfect model would give along the routing machine's path."""
    steps = [item.qtype]
    if item.qtype == COUNTING:
        steps.append(json.dumps(oracle_ids(item.scene, item.spec)))
    else:
        steps.append(item.answer)
    return ScriptedProvider.from_replies(steps)


def _selection(event: str, **arguments) -> str:
    return json.dumps({"event": event, "arguments": arguments})


def oracle_script_react(item: DatasetItem) -> ScriptedProvider:
    """Policy replies for the react machine: explore, then finish.

    Counting and judging filter once and answer; querying filters, reads the
    attribute, then answers.
    """
    replies = [_selection("filter", predicate=dict(item.spec.predicate))]
    if item.qtype == QUERYING:
        target = oracle_ids(item.scene, item.spec)[0]
        replies.append(
            _selection("query", object=target, attribute=item.spec.query_attribute)
        )
    replies.append(_selection("finish", text=item.answer))
    return ScriptedProvider.from_replies(replies)


def oracle_script_planning(item: DatasetItem) -> ScriptedProvider:
    """Policy replies for the planning machine's predefined sequence.

    After the filter step the machine can finish deterministically: plain
    counting uses the parameter-free count transition and querying pipes the
    attribute lookup straight to the end state, so only judging and
    exclusion counting need the model to phrase the answer itself.
    """
    replies = [_selection("filter", predicate=dict(item.spec.predicate))]
    if item.qtype == COUNTING and item.spec.exclude_shape is None:
        replies.append(_selection("count"))
    elif item.qtype == QUERYING:
        target = oracle_ids(item.scene, item.spec)[0]
        replies.append(
            _selection("lookup", object=target, attribute=item.spec.query_attribute)
        )
    else:
        replies.append(_selection("respond", text=item.answer))
    return ScriptedProvider.from_replies(replies)


ORACLE_SCRIPTS: dict[str, Callable[[DatasetItem], ScriptedProvider]] = {
    "routing": oracle_script_routing,
    "react": oracle_script_react,
    "planning": oracle_script_planning,
}


def qa_agent_factory(
    variant: str, provider_factory: Callable[[DatasetItem], CompletionProvider]
) -> Callable[[DatasetItem], Agent]:
    """Factory of fresh agents, one provider per item (call stats stay
    per-item that way)."""

    def factory(item: DatasetItem) -> Agent:
        return make_qa_agent(variant, item.question, item.scene, provider_factory(item))

    return factory


def oracle_agent_factory(variant: str) -> Callable[[DatasetItem], Agent]:
    return qa_agent_factory(variant, ORACLE_SCRIPTS[variant])


# ---------------------------------------------------------------------------
# Evaluation


def _output_text(output) -> str:
    if output is None:
        return ""
    if isinstance(output, str):
        return output
    if isinstance(output, bool):
        return "yes" if output else "no"
    if isinstance(output, (int, float)):
        return str(output)
    return json.dumps(output, sort_keys=True)


def run_eval(
    agent_factory: Callable[[DatasetItem], Agent],
    dataset: Dataset,
    limits: RunLimits | None = None,
) -> EvalReport:
    """Run a fresh agent per item; score exact match after normalization.

    Items that fail or end waiting score zero and keep their status in the
    per-item rows.
    """
    if not dataset.items:
        raise MinSize("dataset must not be empty")

    results = []
    for item in sorted(dataset.items, key=lambda i: i.index):
        agent = agent_factory(item)
        if limits is not None:
            agent.limits = limits
        outcome = run(agent)
        expected = normalize_answer(item.answer)
        got = normalize_answer(_output_text(outcome.output)) if outcome.status == "completed" else ""
        results.append(
            ItemResult(
                index=item.index,
                question=item.question,
                expected=expected,
                got=got,
                calls=outcome.stats.calls,
                status=outcome.status,
            )
        )
    return EvalReport(
        n=len(results),
        exact_match_accuracy=sum(r.expected == r.got for r in results) / len(results),
        avg_provider_calls=math.fsum(r.calls for r in results) / len(results),
        per_item=tuple(results),
    )
