"""``filter_objects`` fetches a predicate's attributes with one ``attrgetter``
call per object, and ``same_attribute`` fetches one value per object. These
tests hold both to the generator forms they replaced (``scene_reference``):
the same ids in scene order, or the same error class, for random scenes and
arguments, unknown attribute names and values that cannot match included."""

from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machina import scene as scene_ops
from machina.scene import ATTRIBUTE_VALUES, ATTRIBUTES, SceneGraph, SceneObject
import scene_reference

_combos = st.tuples(
    *(st.sampled_from(ATTRIBUTE_VALUES[a]) for a in ("color", "material", "shape", "size"))
)
# names a predicate or a call may give: the four attributes, and some that are none
_UNKNOWN = ("weight", "id", "Color", "")
_names = st.sampled_from((*ATTRIBUTES, *ATTRIBUTES, *_UNKNOWN))
# every vocabulary word (so a value may belong to another attribute), words
# outside it, and values that are no str
_values = st.one_of(
    st.sampled_from(sorted({v for vs in ATTRIBUTE_VALUES.values() for v in vs})),
    st.sampled_from(["pink", "", "Red", "red "]),
    st.sampled_from([3, None, [], 1.0, ("red",), b"red"]),
)


@st.composite
def scenes(draw) -> SceneGraph:
    """Up to eight objects; a few attribute combinations, so that objects
    often share values and a predicate often matches more than one."""
    combos = draw(st.lists(_combos, min_size=1, max_size=3))
    count = draw(st.integers(0, 8))
    objects = tuple(SceneObject(f"o{i}", *draw(st.sampled_from(combos))) for i in range(count))
    return SceneGraph(objects, {})


@st.composite
def predicates(draw):
    """Zero to five distinct names in any order, an unknown one possibly at
    any position; values mostly taken from an object of the scene so that
    some objects match; a dict or a ``MappingProxyType``."""
    scene = draw(scenes())
    names = draw(st.lists(_names, max_size=5, unique=True))
    pairs = {}
    for name in names:
        if scene.objects and name in ATTRIBUTES and draw(st.booleans()):
            pairs[name] = getattr(draw(st.sampled_from(scene.objects)), name)
        else:
            pairs[name] = draw(_values)
    wrap = draw(st.sampled_from([dict, MappingProxyType]))
    return scene, wrap(pairs)


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the class is what must agree
        return type(exc)


@settings(deadline=None)
@given(predicates())
def test_filter_objects_matches_the_generator_form(case):
    scene, predicate = case
    assert outcome(scene_ops.filter_objects, scene, predicate) == outcome(
        scene_reference.filter_objects, scene, predicate
    )


@settings(deadline=None)
@given(scenes(), st.sampled_from(("o0", "o1", "o7", "zz")), _names)
def test_same_attribute_matches_the_generator_form(scene, object_id, attribute):
    assert outcome(scene_ops.same_attribute, scene, object_id, attribute) == outcome(
        scene_reference.same_attribute, scene, object_id, attribute
    )


@pytest.mark.parametrize(
    "predicate, expected",
    [
        ({}, ["o1", "o2", "o3"]),
        (MappingProxyType({}), ["o1", "o2", "o3"]),
        ({"material": "metal"}, ["o1", "o2"]),
        ({"material": "metal", "shape": "sphere"}, ["o2"]),
        ({"shape": "sphere", "material": "metal", "size": "large"}, ["o2"]),
        ({"material": "metal", "shape": "cone"}, []),
        ({"material": "metal", "shape": 3}, []),
        ({"material": None}, []),
        ({"material": []}, []),
        ({"material": ("metal",)}, []),
        ({"material": "metal", "shape": "rubber"}, []),
    ],
)
def test_filter_examples(predicate, expected):
    scene = SceneGraph(
        (
            SceneObject("o1", "gray", "metal", "cube", "large"),
            SceneObject("o2", "blue", "metal", "sphere", "large"),
            SceneObject("o3", "red", "rubber", "sphere", "small"),
        ),
        {},
    )
    assert scene_ops.filter_objects(scene, predicate) == expected


@pytest.mark.parametrize(
    "predicate, unknown",
    [
        ({"weight": "heavy", "color": "red"}, "weight"),
        ({"color": "red", "weight": "heavy"}, "weight"),
        ({"color": 3, "id": "o1", "weight": "heavy"}, "id"),
    ],
)
def test_the_first_unknown_attribute_is_reported(predicate, unknown):
    scene = SceneGraph((SceneObject("o1", "red", "metal", "cube", "large"),), {})
    with pytest.raises(scene_ops.UnknownAttribute) as caught:
        scene_ops.filter_objects(scene, predicate)
    assert caught.value.attribute == unknown
