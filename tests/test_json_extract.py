import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machina.json_extract import first_json_array, first_json_object


# Reference: a string-aware scanner for balanced spans, each tried with
# ``json.loads``. It is quadratic in the reply length, so only tests use it.
def _reference_spans(text, open_ch, close_ch):
    start = text.find(open_ch)
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == open_ch:
                depth += 1
            elif ch == close_ch:
                depth -= 1
                if depth == 0:
                    yield text[start : i + 1]
                    break
        start = text.find(open_ch, start + 1)


def _reference_first(text, open_ch, close_ch, kind):
    for span in _reference_spans(text, open_ch, close_ch):
        try:
            value = json.loads(span)
        except json.JSONDecodeError:
            continue
        if isinstance(value, kind):
            return value
    return None


REPLY_ALPHABET = '{}[]""\\:, 0a1.-e'


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=REPLY_ALPHABET, max_size=40))
def test_agrees_with_reference_scanner(text):
    for extract, open_ch, close_ch, kind in (
        (first_json_object, "{", "}", dict),
        (first_json_array, "[", "]", list),
    ):
        try:
            expected = _reference_first(text, open_ch, close_ch, kind)
        except (RecursionError, ValueError):
            continue  # the reference itself crashes; the new code must not
        assert extract(text) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ('Sure! {"event": "go"} and then {"event": "stop"}', {"event": "go"}),
        ('{not json} {"a": {"b": [1, "}"]}}', {"a": {"b": [1, "}"]}}),
        ('{"a": "unterminated', None),
        ('{"outer": {"inner": 1}', {"inner": 1}),
        ("no json at all", None),
    ],
)
def test_first_json_object_examples(text, expected):
    assert first_json_object(text) == expected


def test_first_json_array_examples():
    assert first_json_array('ids: ["o1", "o2"] or ["o3"]') == ["o1", "o2"]
    assert first_json_array('[oops] ["o1"]') == ["o1"]
    assert first_json_array("[[1, 2]") == [1, 2]


def test_too_deep_value_is_skipped_not_raised():
    deep = "[" * 3000 + "]" * 3000
    # the outer starts are too deep; the first inner start that fits decodes
    assert isinstance(first_json_array(deep), list)
    assert first_json_object('{"a": %s}' % deep) is None
    assert first_json_object('{"a": %s} {"b": 1}' % deep) == {"b": 1}


def test_overlong_integer_is_skipped_not_raised():
    digits = "1" * 5000
    assert first_json_object('{"n": %s}' % digits) is None
    assert first_json_array("[%s] [2]" % digits) == [2]


@pytest.mark.parametrize("text", ["{" * 16000, '{"' * 8000], ids=["braces", "brace-quotes"])
def test_adversarial_reply_is_fast(text):
    began = time.perf_counter()
    assert first_json_object(text) is None
    assert time.perf_counter() - began < 1.0
