"""The checks ``SceneGraph.__init__`` made before they went to set operations,
kept as the reference the scene checker must match: every object attribute
and every relation member is tested one at a time, and each inverse pair is
compared by building the inverse of its forward side. A scene either fails
here and in ``SceneGraph`` with the same error class, pointer and message,
or passes both with the same relation tables.

``filter_objects`` and ``same_attribute`` are the scene operations as they
were before each object cost one attribute fetch: one generator per object,
testing the predicate's pairs one at a time. The operations must give the
same ids, or raise the same error class, for every scene and argument."""

from machina.scene import (
    ATTRIBUTE_VALUES,
    ATTRIBUTES,
    RELATIONS,
    InvalidScene,
    InverseConflict,
    UnknownAttribute,
)


def _inverse(table):
    inverse = {}
    for key, others in table.items():
        for other in others:
            inverse.setdefault(other, set()).add(key)
    return inverse


def checked_relations(objects, relations):
    """The relation tables a scene of ``objects`` and ``relations`` holds,
    each entry a frozenset, or the error its checks raise."""
    ids = set()
    for i, obj in enumerate(objects):
        pointer = f"/objects/{i}"
        if not isinstance(obj.id, str):
            raise InvalidScene(f"{pointer}/id", f"{obj.id!r} is not a string")
        for attr in ATTRIBUTES:
            value = getattr(obj, attr)
            if value not in ATTRIBUTE_VALUES[attr]:
                raise InvalidScene(f"{pointer}/{attr}", f"{value!r} is not a valid {attr}")
        if obj.id in ids:
            raise InvalidScene(f"{pointer}/id", f"duplicate object id {obj.id!r}")
        ids.add(obj.id)

    tables = {r: {} for r in RELATIONS}
    for rel, table in relations.items():
        if rel not in RELATIONS:
            raise InvalidScene(f"/relations/{rel}", f"unknown relation {rel!r}")
        for key, others in table.items():
            pointer = f"/relations/{rel}/{key}"
            if key not in ids:
                raise InvalidScene(pointer, f"unknown object {key!r}")
            members = frozenset(others)
            if not members:
                raise InvalidScene(pointer, "empty entry")
            for other in others:
                if other not in ids or other == key:
                    raise InvalidScene(pointer, f"{other!r} is not another object of the scene")
            tables[rel][key] = members
    for forward, backward in (("left", "right"), ("front", "behind")):
        if _inverse(tables[forward]) != tables[backward]:
            raise InverseConflict(
                f"relations {forward!r} and {backward!r} are not mutual inverses"
            )
    return tables


def filter_objects(scene, predicate):
    for attr in predicate:
        if attr not in ATTRIBUTES:
            raise UnknownAttribute(attr)
    return [
        o.id
        for o in scene.objects
        if all(getattr(o, attr) == value for attr, value in predicate.items())
    ]


def same_attribute(scene, object_id, attribute):
    anchor = scene.get(object_id)
    value = anchor.attribute(attribute)
    return [o.id for o in scene.objects if o.id != object_id and getattr(o, attribute) == value]
