"""The mini-CLEVR generator as it was before scene checks went to set
operations and querying pairs to (object, attribute) choices, kept as the
reference that ``machina.harness.generate_mini_clevr`` must match item for
item: the same random draws in the same order, the same questions, answers,
specs and scenes."""

import collections
import operator
import random

from machina.harness import (
    COUNTING,
    JUDGING,
    QUERYING,
    Dataset,
    DatasetItem,
    MinSize,
    QuestionSpec,
    _ALL_COMBOS,
    render_question,
)
from machina.scene import ATTRIBUTE_VALUES, ATTRIBUTES, QUESTION_TYPES, SceneGraph, SceneObject


def _oracle_matches(scene, spec):
    matched = []
    for obj in scene.objects:
        if any(getattr(obj, attr) != value for attr, value in spec.predicate.items()):
            continue
        if spec.exclude_shape is not None and obj.shape == spec.exclude_shape:
            continue
        matched.append(obj)
    return matched


def oracle_answer(scene, spec):
    matches = _oracle_matches(scene, spec)
    if spec.kind == COUNTING:
        return str(len(matches))
    if spec.kind == JUDGING:
        return "yes" if matches else "no"
    assert len(matches) == 1
    return getattr(matches[0], spec.query_attribute or "")


def _random_scene(rnd):
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

    def ordering(sequence):
        before = {}
        after = {}
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


def _query_pairs(scene):
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


def _random_counting(rnd):
    attrs = rnd.sample(ATTRIBUTES, rnd.randint(1, 2))
    predicate = {a: rnd.choice(ATTRIBUTE_VALUES[a]) for a in attrs}
    exclude = None
    if "shape" not in predicate and rnd.random() < 0.3:
        exclude = rnd.choice(ATTRIBUTE_VALUES["shape"])
    return QuestionSpec(COUNTING, predicate, exclude_shape=exclude)


def _random_judging(rnd):
    attrs = rnd.sample(ATTRIBUTES, rnd.randint(1, 2))
    return QuestionSpec(JUDGING, {a: rnd.choice(ATTRIBUTE_VALUES[a]) for a in attrs})


def generate_mini_clevr(seed, n_scenes, questions_per_scene):
    if n_scenes < 1 or questions_per_scene < 1:
        raise MinSize("need at least one scene and one question per scene")
    rnd = random.Random(seed)
    items = []
    index = 0
    for _ in range(n_scenes):
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
