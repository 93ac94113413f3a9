"""Scene graphs and the deterministic question-answering operations.

A scene is a list of objects, each carrying four attributes drawn from the
CLEVR vocabulary, plus directed spatial relations. ``relations[r][x]`` is the
set of objects standing in relation ``r`` to object ``x`` (so
``relations["left"][x]`` holds the objects left of ``x``). The left/right
and front/behind relations are mutual inverses; the parser completes a
missing side automatically and rejects contradictions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import MachinaError, SchemaError
from .json_extract import first_json_array
from .keypath import JsonValue
from .providers import CompletionProvider, CompletionRequest

COLORS = ("gray", "red", "blue", "green", "brown", "purple", "cyan", "yellow")
MATERIALS = ("metal", "rubber")
SHAPES = ("cube", "sphere", "cylinder")
SIZES = ("small", "large")

ATTRIBUTES = ("size", "color", "material", "shape")
ATTRIBUTE_VALUES: dict[str, tuple[str, ...]] = {
    "color": COLORS,
    "material": MATERIALS,
    "shape": SHAPES,
    "size": SIZES,
}

RELATIONS = ("left", "right", "front", "behind")

QUESTION_TYPES = ("counting", "judging", "querying")

_WORD_DIGITS = {
    "zero": "0",
    "one": "1",
    "two": "2",
    "three": "3",
    "four": "4",
    "five": "5",
    "six": "6",
    "seven": "7",
    "eight": "8",
    "nine": "9",
    "ten": "10",
}


class UnknownObject(MachinaError):
    def __init__(self, object_id: str):
        super().__init__(f"unknown object: {object_id}")
        self.object_id = object_id


class UnknownAttribute(MachinaError):
    def __init__(self, attribute: str):
        super().__init__(f"unknown attribute: {attribute} (expected one of {ATTRIBUTES})")
        self.attribute = attribute


class UnknownRelation(MachinaError):
    def __init__(self, relation: str):
        super().__init__(f"unknown relation: {relation} (expected one of {RELATIONS})")
        self.relation = relation


class InverseConflict(MachinaError):
    """Both sides of an inverse relation pair were given and disagree."""


class UnclassifiableReply(MachinaError):
    def __init__(self, reply: str):
        super().__init__(f"reply names no question type: {reply[:120]!r}")


class UnparseableReply(MachinaError):
    def __init__(self, reply: str):
        super().__init__(f"reply contains no JSON array of ids: {reply[:120]!r}")


@dataclass(frozen=True)
class SceneObject:
    id: str
    color: str
    material: str
    shape: str
    size: str

    def attribute(self, name: str) -> str:
        if name not in ATTRIBUTES:
            raise UnknownAttribute(name)
        return getattr(self, name)


@dataclass(frozen=True)
class SceneGraph:
    objects: tuple[SceneObject, ...]
    relations: Mapping[str, Mapping[str, frozenset[str]]]

    def object_ids(self) -> tuple[str, ...]:
        return tuple(o.id for o in self.objects)

    def get(self, object_id: str) -> SceneObject:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise UnknownObject(object_id)


def _scene_order(scene: SceneGraph, ids: Iterable[str]) -> list[str]:
    wanted = set(ids)
    return [o.id for o in scene.objects if o.id in wanted]


def _complete_relations(
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


def scene_from_json_value(doc: JsonValue) -> SceneGraph:
    """Build a scene from a decoded JSON value, checking every invariant."""
    if not isinstance(doc, dict):
        raise SchemaError("", "scene must be an object")
    unknown = set(doc) - {"objects", "relations"}
    if unknown:
        raise SchemaError("", f"unknown keys: {sorted(unknown)}")
    if "objects" not in doc or not isinstance(doc["objects"], list):
        raise SchemaError("/objects", "scene needs an 'objects' array")

    objects = []
    ids: set[str] = set()
    for i, raw in enumerate(doc["objects"]):
        pointer = f"/objects/{i}"
        if not isinstance(raw, dict):
            raise SchemaError(pointer, "object must be a JSON object")
        required = {"id", "color", "material", "shape", "size"}
        missing = required - set(raw)
        if missing:
            raise SchemaError(pointer, f"missing keys: {sorted(missing)}")
        extra = set(raw) - required
        if extra:
            raise SchemaError(pointer, f"unknown keys: {sorted(extra)}")
        for key in required:
            if not isinstance(raw[key], str):
                raise SchemaError(f"{pointer}/{key}", "expected a string")
        for attr in ATTRIBUTES:
            if raw[attr] not in ATTRIBUTE_VALUES[attr]:
                raise SchemaError(
                    f"{pointer}/{attr}",
                    f"{raw[attr]!r} is not a valid {attr}",
                )
        if raw["id"] in ids:
            raise SchemaError(f"{pointer}/id", f"duplicate object id {raw['id']!r}")
        ids.add(raw["id"])
        objects.append(
            SceneObject(raw["id"], raw["color"], raw["material"], raw["shape"], raw["size"])
        )

    given: dict[str, dict[str, set[str]]] = {}
    relations_doc = doc.get("relations", {})
    if not isinstance(relations_doc, dict):
        raise SchemaError("/relations", "relations must be an object")
    for rel, table in relations_doc.items():
        if rel not in RELATIONS:
            raise SchemaError(f"/relations/{rel}", f"unknown relation {rel!r}")
        if not isinstance(table, dict):
            raise SchemaError(f"/relations/{rel}", "expected an object of id -> [ids]")
        parsed: dict[str, set[str]] = {}
        for key, others in table.items():
            if key not in ids:
                raise SchemaError(f"/relations/{rel}/{key}", f"unknown object {key!r}")
            if not isinstance(others, list) or not all(isinstance(o, str) for o in others):
                raise SchemaError(f"/relations/{rel}/{key}", "expected an array of ids")
            for other in others:
                if other not in ids:
                    raise SchemaError(f"/relations/{rel}/{key}", f"unknown object {other!r}")
                if other == key:
                    raise SchemaError(f"/relations/{rel}/{key}", "object related to itself")
            parsed[key] = set(others)
        given[rel] = parsed

    relations = _complete_relations(given, ids)
    return SceneGraph(tuple(objects), relations)


def parse_scene(text: str | bytes) -> SceneGraph:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError("", f"not valid UTF-8: {exc.reason}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"not valid JSON: {exc.msg}") from None
    except RecursionError:
        raise SchemaError("", "document nested too deeply") from None
    return scene_from_json_value(doc)


def scene_to_json_value(scene: SceneGraph) -> dict:
    """Canonical JSON value for a scene (relations fully closed, ids sorted)."""
    return {
        "objects": [
            {"id": o.id, "color": o.color, "material": o.material, "shape": o.shape, "size": o.size}
            for o in scene.objects
        ],
        "relations": {
            rel: {k: sorted(v) for k, v in sorted(scene.relations.get(rel, {}).items())}
            for rel in RELATIONS
            if scene.relations.get(rel)
        },
    }


# ---------------------------------------------------------------------------
# Deterministic operations


def filter_objects(scene: SceneGraph, predicate: Mapping[str, str]) -> list[str]:
    """Ids of objects matching every attribute/value pair, in scene order.

    Values outside the attribute vocabulary simply match nothing; attribute
    names must be valid.
    """
    for attr in predicate:
        if attr not in ATTRIBUTES:
            raise UnknownAttribute(attr)
    return [
        o.id
        for o in scene.objects
        if all(getattr(o, attr) == value for attr, value in predicate.items())
    ]


def related_objects(scene: SceneGraph, object_id: str, relation: str) -> list[str]:
    """Objects standing in ``relation`` to the given object, in scene order."""
    scene.get(object_id)
    if relation not in RELATIONS:
        raise UnknownRelation(relation)
    return _scene_order(scene, scene.relations.get(relation, {}).get(object_id, frozenset()))


def same_attribute(scene: SceneGraph, object_id: str, attribute: str) -> list[str]:
    """Other objects sharing the attribute value with the given object."""
    anchor = scene.get(object_id)
    value = anchor.attribute(attribute)
    return [o.id for o in scene.objects if o.id != object_id and getattr(o, attribute) == value]


def query_attribute(scene: SceneGraph, object_id: str, attribute: str) -> str:
    return scene.get(object_id).attribute(attribute)


def count_objects(ids: Iterable[str]) -> int:
    """Number of distinct ids (extraction may repeat an object)."""
    return len(dict.fromkeys(ids))


# ---------------------------------------------------------------------------
# LLM-backed operations


def normalize_answer(text: str) -> str:
    """Lowercase, collapse whitespace, render number words as digits."""
    cleaned = " ".join(str(text).strip().lower().split()).rstrip(".")
    return _WORD_DIGITS.get(cleaned, cleaned)


def classify_question(provider: CompletionProvider, question: str) -> str:
    """Ask the provider for the question type; map the reply to a label.

    The reply is matched case-insensitively against the three labels; the
    label appearing earliest in the reply wins.
    """
    if not question.strip():
        raise MachinaError("question must be nonempty")
    prompt = (
        "Decide which type the question is. The types are: counting (asks how many),"
        " judging (asks whether something is true), querying (asks for an attribute"
        " value).\n"
        f"Question: {question}\n"
        "Reply with exactly one type name."
    )
    reply = provider.complete(CompletionRequest(prompt=prompt)).lower()
    hits = [(reply.find(label), label) for label in QUESTION_TYPES if label in reply]
    if not hits:
        raise UnclassifiableReply(reply)
    return min(hits)[1]


def extract_objects(provider: CompletionProvider, scene: SceneGraph, question: str) -> list[str]:
    """Ask the provider for the ids the question refers to.

    The first JSON array of strings in the reply is taken; every id must
    exist in the scene.
    """
    prompt = (
        "Scene graph:\n"
        f"{json.dumps(scene_to_json_value(scene), indent=2)}\n\n"
        f"Question: {question}\n"
        "List the ids of the objects the question refers to as a JSON array"
        ' of strings, for example ["o1", "o2"].'
    )
    reply = provider.complete(CompletionRequest(prompt=prompt))
    ids = first_json_array(reply)
    if ids is None or not all(isinstance(i, str) for i in ids):
        raise UnparseableReply(reply)
    known = set(scene.object_ids())
    for object_id in ids:
        if object_id not in known:
            raise UnknownObject(object_id)
    return list(ids)


def answer_question(provider: CompletionProvider, scene: SceneGraph, question: str) -> str:
    """Ask the provider to answer directly from the scene; normalized reply."""
    prompt = (
        "Scene graph:\n"
        f"{json.dumps(scene_to_json_value(scene), indent=2)}\n\n"
        f"Question: {question}\n"
        "Answer with a single word or number."
    )
    reply = provider.complete(CompletionRequest(prompt=prompt))
    return normalize_answer(reply)
