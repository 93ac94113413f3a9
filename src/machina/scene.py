"""Scene graphs and the deterministic question-answering operations.

A scene is a list of objects, each carrying four attributes drawn from the
CLEVR vocabulary, plus directed spatial relations. ``relations[r][x]`` is the
set of objects standing in relation ``r`` to object ``x`` (so
``relations["left"][x]`` holds the objects left of ``x``). The left/right
and front/behind relations are mutual inverses. A :class:`SceneGraph`
checks its invariants when it is built and cannot change afterwards; the
JSON parser completes a missing inverse side before it builds one.
"""

from __future__ import annotations

import json
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import MachinaError, SchemaError, check_keys, require_list, require_object, require_string
from .json_extract import first_json_array, read_json
from .keypath import JsonValue
from .providers import CompletionProvider, _reply_text
from .values import FrozenValue, distinct

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
_INVERSE_PAIRS = (("left", "right"), ("front", "behind"))

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
    """The two sides of an inverse relation pair are not mutual inverses."""


class InvalidScene(SchemaError):
    """A scene breaks one of its invariants. ``pointer`` names the offending
    element of the scene's JSON form (see :func:`scene_to_json_value`)."""


class UnclassifiableReply(MachinaError):
    def __init__(self, reply: str):
        super().__init__(f"reply names no question type: {reply[:120]!r}")


class UnparseableReply(MachinaError):
    def __init__(self, reply: str):
        super().__init__(f"reply contains no JSON array of ids: {reply[:120]!r}")


@distinct
class SceneObject(NamedTuple):
    id: str
    color: str
    material: str
    shape: str
    size: str

    def attribute(self, name: str) -> str:
        if name not in ATTRIBUTES:
            raise UnknownAttribute(name)
        return getattr(self, name)


class SceneGraph(FrozenValue):
    """A checked, read-only scene.

    Building one checks that object ids are unique strings, that attribute
    values come from ``ATTRIBUTE_VALUES``, that only ``RELATIONS`` appear,
    that every key and member of a relation is another object of the scene,
    that no entry is empty and that left/right and front/behind are mutual
    inverses; a failed check raises :class:`InvalidScene` or
    :class:`InverseConflict`. ``relations`` is then a read-only mapping that
    holds every relation, so a scene can be shared without copies.

    ``json_value`` and ``json_text`` are the scene's canonical JSON value and
    its one-line ``json.dumps`` text, built on first use and then kept. Every
    holder shares them, so they are read-only; :func:`scene_to_json_value`
    returns a value the caller owns.
    """

    __slots__ = ("objects", "relations", "__dict__")

    def __init__(
        self,
        objects: tuple[SceneObject, ...],
        relations: Mapping[str, Mapping[str, frozenset[str]]],
    ):
        objects = tuple(objects)
        ids: set[str] = set()
        for i, obj in enumerate(objects):
            if (
                isinstance(obj.id, str)
                and obj.size in SIZES
                and obj.color in COLORS
                and obj.material in MATERIALS
                and obj.shape in SHAPES
                and obj.id not in ids
            ):
                ids.add(obj.id)
                continue
            # a fault: report the first one the checks find, one at a time
            pointer = f"/objects/{i}"
            if not isinstance(obj.id, str):
                raise InvalidScene(f"{pointer}/id", f"{obj.id!r} is not a string")
            for attr in ATTRIBUTES:
                value = getattr(obj, attr)
                if value not in ATTRIBUTE_VALUES[attr]:
                    raise InvalidScene(f"{pointer}/{attr}", f"{value!r} is not a valid {attr}")
            raise InvalidScene(f"{pointer}/id", f"duplicate object id {obj.id!r}")

        tables: dict[str, dict[str, frozenset[str]]] = {r: {} for r in RELATIONS}
        for rel, table in relations.items():
            if rel not in RELATIONS:
                raise InvalidScene(f"/relations/{rel}", f"unknown relation {rel!r}")
            checked = tables[rel]
            for key, others in table.items():
                members = frozenset(others)
                if key in ids and members and members <= ids and key not in members:
                    checked[key] = members
                    continue
                # a fault: report the first one in the entry's own order, or in
                # the set's if the entry was an iterator that ``members`` used up
                pointer = f"/relations/{rel}/{key}"
                if key not in ids:
                    raise InvalidScene(pointer, f"unknown object {key!r}")
                if not members:
                    raise InvalidScene(pointer, "empty entry")
                for other in members if iter(others) is others else others:
                    if other not in ids or other == key:
                        raise InvalidScene(pointer, f"{other!r} is not another object of the scene")
        for forward, backward in _INVERSE_PAIRS:
            if not _mirrored(tables[forward], tables[backward]):
                raise InverseConflict(
                    f"relations {forward!r} and {backward!r} are not mutual inverses"
                )
        self._set(objects, MappingProxyType({r: MappingProxyType(tables[r]) for r in RELATIONS}))

    def __deepcopy__(self, memo) -> "SceneGraph":
        # read-only once built, so a copy may share it, as with a tuple
        return self

    @cached_property
    def json_value(self) -> dict:
        return scene_to_json_value(self)

    @cached_property
    def json_text(self) -> str:
        return json.dumps(self.json_value)

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


def _mirrored(ahead: Mapping[str, frozenset[str]], behind: Mapping[str, frozenset[str]]) -> bool:
    """Whether two relation tables without empty entries are mutual inverses:
    they hold as many (key, member) pairs, and each pair of ``ahead`` is in
    ``behind`` the other way round."""
    if sum(map(len, ahead.values())) != sum(map(len, behind.values())):
        return False
    try:
        for key, members in ahead.items():
            for other in members:
                if key not in behind[other]:
                    return False
    except KeyError:
        return False
    return True


def _inverse(table: Mapping[str, Iterable[str]]) -> dict[str, set[str]]:
    inverse: dict[str, set[str]] = {}
    for key, others in table.items():
        for other in others:
            inverse.setdefault(other, set()).add(key)
    return inverse


def _complete_relations(
    given: dict[str, dict[str, set[str]]]
) -> dict[str, dict[str, frozenset[str]]]:
    """Fill in the missing side of each inverse pair and drop empty entries.

    Relations the file gave come first and unknown ones pass through, so
    :class:`SceneGraph` reports a fault at an entry the file holds. Two given
    sides are left for :class:`SceneGraph` to check against each other.
    """
    complete = dict(given)
    for forward, backward in _INVERSE_PAIRS:
        if backward not in given and forward in given:
            complete[backward] = _inverse(given[forward])
        elif forward not in given and backward in given:
            complete[forward] = _inverse(given[backward])
    return {
        r: {k: frozenset(v) for k, v in complete.get(r, {}).items() if v}
        for r in (*complete, *RELATIONS)
    }


_OBJECT_KEYS = ("id", "color", "material", "shape", "size")


def scene_from_json_value(doc: JsonValue) -> SceneGraph:
    """Build a scene from a decoded JSON value. The JSON shape is checked
    here; :class:`SceneGraph` checks the scene itself."""
    obj = require_object(doc, "")
    check_keys(obj, ("objects", "relations"), ("objects",), "")

    objects = []
    for i, raw in enumerate(require_list(obj["objects"], "/objects")):
        pointer = f"/objects/{i}"
        item = require_object(raw, pointer)
        check_keys(item, _OBJECT_KEYS, _OBJECT_KEYS, pointer)
        objects.append(SceneObject(*(require_string(item, key, pointer) for key in _OBJECT_KEYS)))

    ids = {o.id for o in objects}
    given: dict[str, dict[str, set[str]]] = {}
    for rel, table in require_object(obj.get("relations", {}), "/relations").items():
        parsed: dict[str, set[str]] = {}
        for key, others in require_object(table, f"/relations/{rel}").items():
            pointer = f"/relations/{rel}/{key}"
            # an empty entry is dropped before the scene is built, so its key is checked here
            if key not in ids:
                raise SchemaError(pointer, f"unknown object {key!r}")
            for other in require_list(others, pointer):
                if not isinstance(other, str):
                    raise SchemaError(pointer, f"{other!r} is not another object of the scene")
            parsed[key] = set(others)
        given[rel] = parsed

    return SceneGraph(tuple(objects), _complete_relations(given))


def parse_scene(text: str | bytes) -> SceneGraph:
    return scene_from_json_value(read_json(text))


def scene_to_json_value(scene: SceneGraph) -> dict:
    """Canonical JSON value for a scene (relations fully closed, ids sorted),
    built afresh for the caller to own."""
    return {
        "objects": [
            {"id": o.id, "color": o.color, "material": o.material, "shape": o.shape, "size": o.size}
            for o in scene.objects
        ],
        "relations": {
            rel: {k: sorted(v) for k, v in sorted(scene.relations[rel].items())}
            for rel in RELATIONS
            if scene.relations[rel]
        },
    }


# ---------------------------------------------------------------------------
# Deterministic operations


def filter_objects(scene: SceneGraph, predicate: Mapping[str, str]) -> list[str]:
    """Ids of objects matching every attribute/value pair, in scene order.

    An object matches when each attribute the predicate names equals the
    value given for it, so an empty predicate matches every object. Values
    outside the attribute vocabulary, and values that are not ``str``,
    simply match nothing; attribute names must be valid, and the first
    invalid one raises :class:`UnknownAttribute`.
    """
    for attr in predicate:
        if attr not in ATTRIBUTES:
            raise UnknownAttribute(attr)
    if not predicate:
        return [o.id for o in scene.objects]
    # one fetch and one comparison per object: attrgetter of one name
    # returns the bare value, of several a tuple. Worth 1.1% of oracle-mix's
    # items/s over an all(getattr(...)) test per object (BENCH_ablation.json)
    fetch = attrgetter(*predicate)
    values = tuple(predicate.values())
    wanted = values if len(values) > 1 else values[0]
    return [o.id for o in scene.objects if fetch(o) == wanted]


def related_objects(scene: SceneGraph, object_id: str, relation: str) -> list[str]:
    """Objects standing in ``relation`` to the given object, in scene order."""
    scene.get(object_id)
    if relation not in RELATIONS:
        raise UnknownRelation(relation)
    return _scene_order(scene, scene.relations[relation].get(object_id, ()))


def same_attribute(scene: SceneGraph, object_id: str, attribute: str) -> list[str]:
    """Other objects sharing the attribute value with the given object."""
    anchor = scene.get(object_id)
    value = anchor.attribute(attribute)
    # one fetch per object, and its value tested before its id: most
    # objects differ in value, so they cost one comparison
    return [o.id for o in scene.objects if getattr(o, attribute) == value and o.id != object_id]


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
    label appearing earliest in the reply wins. As for every model reply, one
    that is not a ``str`` raises ``ReplyNotText`` (``providers._reply_text``).
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
    reply = _reply_text(provider, prompt).lower()
    hits = [(reply.find(label), label) for label in QUESTION_TYPES if label in reply]
    if not hits:
        raise UnclassifiableReply(reply)
    return min(hits)[1]


def extract_objects(provider: CompletionProvider, scene: SceneGraph, question: str) -> list[str]:
    """Ask the provider for the ids the question refers to.

    The first JSON array of strings in the reply is taken; every id must
    exist in the scene. A reply that is not a ``str`` raises
    ``ReplyNotText`` (``providers._reply_text``).
    """
    prompt = (
        "Scene graph:\n"
        f"{scene.json_text}\n\n"
        f"Question: {question}\n"
        "List the ids of the objects the question refers to as a JSON array"
        ' of strings, for example ["o1", "o2"].'
    )
    reply = _reply_text(provider, prompt)
    ids = first_json_array(reply)
    if ids is None or not all(isinstance(i, str) for i in ids):
        raise UnparseableReply(reply)
    known = set(scene.object_ids())
    for object_id in ids:
        if object_id not in known:
            raise UnknownObject(object_id)
    return list(ids)


def answer_question(provider: CompletionProvider, scene: SceneGraph, question: str) -> str:
    """Ask the provider to answer directly from the scene; normalized reply.
    A reply that is not a ``str`` raises ``ReplyNotText``
    (``providers._reply_text``)."""
    prompt = (
        "Scene graph:\n"
        f"{scene.json_text}\n\n"
        f"Question: {question}\n"
        "Answer with a single word or number."
    )
    reply = _reply_text(provider, prompt)
    return normalize_answer(reply)
