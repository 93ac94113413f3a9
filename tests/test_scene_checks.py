"""``SceneGraph`` checks a scene with set operations and walks an object or a
relation entry one step at a time only once it holds a fault. These tests
hold it to the per-member checks it replaced (``scene_reference``): the same
error class, pointer and message for a faulty scene, the same relation
tables for a sound one."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machina.harness import generate_mini_clevr
from machina.scene import (
    ATTRIBUTE_VALUES,
    ATTRIBUTES,
    RELATIONS,
    InvalidScene,
    InverseConflict,
    SceneGraph,
    SceneObject,
)
from scene_reference import _inverse, checked_relations

IDS = ("a", "b", "c", "d")
# ids a relation may name: the scene's own, one it lacks and one that is no string
NAMES = (*IDS, "z", 7)

_combos = st.tuples(
    *(st.sampled_from(ATTRIBUTE_VALUES[a][:2]) for a in ("color", "material", "shape", "size"))
)
_bad_ids = st.sampled_from([7, None, ["a"]])
# some are valid for some attributes, so a "fault" may leave the object sound
_bad_values = st.sampled_from(["pink", "", "metal", "small", ["red"], None])


@st.composite
def scene_objects(draw):
    """Up to four objects with ids from ``IDS``, mostly all four; at most one
    of them has a non-string id, a value outside its attribute's vocabulary
    or the id of another object."""
    count = draw(st.sampled_from([4, 4, 4, 3, 1, 0]))
    objects = [SceneObject(i, *draw(_combos)) for i in IDS[:count]]
    fault = draw(st.sampled_from([None, None, None, "id", "value", "duplicate"]))
    if fault is not None and objects:
        i = draw(st.integers(0, len(objects) - 1))
        if fault == "id":
            objects[i] = objects[i]._replace(id=draw(_bad_ids))
        elif fault == "value":
            attr = draw(st.sampled_from(ATTRIBUTES))
            objects[i] = objects[i]._replace(**{attr: draw(_bad_values)})
        else:
            objects[i] = objects[i]._replace(id=objects[draw(st.integers(0, len(objects) - 1))].id)
    return objects


# An entry's members are a list, so the order in which they are tested shows.
_sound_table = st.dictionaries(
    st.sampled_from(IDS), st.lists(st.sampled_from(IDS), min_size=1, max_size=3)
).map(
    lambda table: {
        key: [m for m in others if m != key] or [k for k in IDS if k != key][:1]
        for key, others in table.items()
    }
)
# keys and members may be foreign ids or the entry's own key; entries may be empty
_any_table = st.dictionaries(
    st.sampled_from(NAMES), st.lists(st.sampled_from(NAMES), max_size=4), max_size=4
)
_tables = st.one_of(_sound_table, _sound_table, _any_table)


@st.composite
def relation_tables(draw):
    """Each inverse pair given on neither side, on the forward side only, as
    true inverses, with one or two pairs added to or dropped from the inverse
    side, or as two independent tables; now and then an unknown relation
    too."""
    relations = {}
    for forward, backward in (("left", "right"), ("front", "behind")):
        shape = draw(
            st.sampled_from(["none", "forward", "inverse", "inverse", "altered", "independent"])
        )
        if shape == "none":
            continue
        relations[forward] = draw(_tables)
        if shape == "forward":
            continue
        if shape == "independent":
            relations[backward] = draw(_tables)
            continue
        inverse = _inverse(relations[forward])
        # one pair added or dropped, or two, which may keep the pair count
        for _ in range(draw(st.integers(1, 2)) if shape == "altered" else 0):
            inverse.setdefault(draw(st.sampled_from(IDS)), set()).symmetric_difference_update(
                {draw(st.sampled_from(IDS))}
            )
        relations[backward] = inverse
        if draw(st.booleans()):
            relations = dict(reversed(relations.items()))
    if draw(st.integers(0, 7)) == 0:
        relations[draw(st.sampled_from(["above", "Left", ""]))] = draw(_tables)
    return relations


def outcome(build):
    try:
        return build()
    except (InvalidScene, InverseConflict) as exc:
        return type(exc), getattr(exc, "pointer", None), str(exc)


@settings(max_examples=600, deadline=None)
@given(scene_objects(), relation_tables())
def test_scene_checks_match_the_reference(objects, relations):
    expected = outcome(lambda: checked_relations(objects, relations))
    got = outcome(
        lambda: {r: dict(t) for r, t in SceneGraph(objects, relations).relations.items()}
    )
    assert got == expected


def test_generated_scenes_match_the_reference():
    for item in generate_mini_clevr(7, 40, 1).items:
        scene = item.scene
        given = {r: dict(scene.relations[r]) for r in RELATIONS}
        assert checked_relations(scene.objects, given) == {
            r: dict(t) for r, t in SceneGraph(scene.objects, given).relations.items()
        }


def test_entry_given_as_an_iterator_is_checked_member_by_member():
    a = SceneObject("a", "red", "metal", "cube", "small")
    b = SceneObject("b", "blue", "metal", "cube", "small")
    with pytest.raises(InvalidScene) as info:
        SceneGraph((a, b), {"left": {"b": iter(["a", "z"])}, "right": {"a": ["b"]}})
    assert info.value.pointer == "/relations/left/b"
    assert info.value.reason == "'z' is not another object of the scene"
