import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import machina.json_extract as json_extract
from machina.json_extract import MAX_JSON_DEPTH, first_json_array, first_json_object, json_writer
from machina.providers import MAX_REPLY_BYTES
from helpers import nesting


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


@pytest.mark.parametrize(
    "find, text, expected",
    [
        (first_json_array, '[["\\ud800"], [1]]', [1]),
        (first_json_array, '["\\ud800", [["a"], ["\\udc00"]]]', ["a"]),
        (first_json_array, "[[1], [NaN]]", [1]),
        (first_json_array, '[[2], {"a": -Infinity}] [4]', [2]),
        (first_json_object, '{"a": "\\udc00", "b": {"c": 1}}', {"c": 1}),
        (first_json_object, '{"a": {"n": 1}, "b": 1e999}', {"n": 1}),
        # a raw lone surrogate, and an escaped one before a refused number
        (first_json_object, '{"a": {"b": "\ud800"}, "c": {"d": 1}}', {"d": 1}),
        (first_json_array, '[["a", "\\ud800"], [3], 1e999] [4]', [3]),
        # at the thresholds: 308 integer digits stay finite, 309 overflow; the
        # lowest digit limit ``int`` takes (set below) converts 640, not 641
        (first_json_array, "[[1, %s.5], 1e999]" % ("9" * 308), [1, float("9" * 308 + ".5")]),
        (first_json_array, "[[1, %s.5], [2]]" % ("9" * 309), [2]),
        (first_json_array, "[[1, %s], 1e999]" % ("1" * 640), [1, int("1" * 640)]),
        (first_json_array, "[[1, %s], [2]]" % ("1" * 641), [2]),
    ],
)
def test_a_value_inside_one_that_is_refused_is_found(find, text, expected):
    with _lowest_int_digit_limit():
        assert find(text) == expected


@contextmanager
def _lowest_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "digits", ["9" * 309 + ".5", "1" * 641], ids=["309-digit-decimal", "641-digit-int"]
)
def test_a_number_refused_at_the_threshold_rules_out_the_brackets_open_at_it(monkeypatch, digits):
    counter = _CountingDecoder()
    monkeypatch.setattr(json_extract, "_DECODER", counter)
    with _lowest_int_digit_limit():
        assert first_json_array("[[1, %s], [2]]" % digits) == [2]
    # the outer decoding fails at the number, where both brackets are open
    assert counter.calls == 2


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


# Reference: the finder as it was before failed decodings named the brackets
# that fail with them. It decodes at every opening bracket in turn, so a
# reply of deeply nested or never-closed brackets takes seconds. It uses the
# strict decoder's scanner without the decoder's own checks: a value holding
# a lone surrogate, which UTF-8 cannot write, or nested deeper than
# MAX_JSON_DEPTH, is skipped here.
def _reference_first_json(text, open_ch):
    start = text.find(open_ch)
    while start != -1:
        try:
            value = json.JSONDecoder.raw_decode(json_extract._DECODER, text, start)[0]
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except (ValueError, RecursionError):  # UnicodeEncodeError is a ValueError
            pass
        else:
            if nesting(value) <= MAX_JSON_DEPTH:
                return value
        start = text.find(open_ch, start + 1)
    return None


# Pieces that decide where a decoding fails: brackets, quotes, escapes,
# refused numbers and constants, lone surrogates (escaped and raw), non-ASCII
# text, nesting, and whole values that decode.
REPLY_PIECES = st.sampled_from(
    ["{", "}", "[", "]", '"', "\\", ":", ",", " ", "\n", "a", "1", "-", "0.5", "1e999", "NaN"]
    + ["-Infinity", "true", "\\u", "\\ud800", "\\udc00", "\\ud83d\\ude00", "\ud800", "é"]
    + ["[" * 40, "]" * 40, '{"a":', '"k": ', '"\\""', "9" * 4400, "[[1, 2], {}]"]
)
# Non-ASCII text, lone surrogates, non-finite floats, nesting and empty
# containers: dumped, a non-finite float is a constant the decoder refuses
# and a lone surrogate is written raw or, with ensure_ascii, escaped.
ANY_TEXT = st.text(st.characters(blacklist_categories=()), max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ANY_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ANY_TEXT, inner, max_size=3),
    max_leaves=8,
)
DUMPED_VALUES = st.builds(
    lambda value, ascii: json.dumps(value, ensure_ascii=ascii), JSON_VALUES, st.booleans()
)
REPLIES = st.lists(REPLY_PIECES | DUMPED_VALUES, max_size=25).map("".join)


@settings(max_examples=4 * settings.default.max_examples, deadline=None)
@given(REPLIES)
def test_finders_agree_with_decoding_at_every_bracket(text):
    assert first_json_object(text) == _reference_first_json(text, "{")
    assert first_json_array(text) == _reference_first_json(text, "[")


def _chain(last):
    """A reply of ``MAX_REPLY_BYTES`` characters: 900 nested arrays around a
    run of integers that ends in ``last``, so a decoding at every one of
    them reads the whole run before it reaches ``last``."""
    fill = MAX_REPLY_BYTES - 1800 - len(last)
    return "[" * 900 + "1," * (fill // 2) + " " * (fill % 2) + last + "]" * 900


ADVERSARIAL = {
    "open-brackets": "[" * MAX_REPLY_BYTES,
    "nested-keys": '{"a":[' * (MAX_REPLY_BYTES // 6),
    "deep-closed": "[" * (MAX_REPLY_BYTES // 2) + "]" * (MAX_REPLY_BYTES // 2),
    "quote-brackets": '"[' * (MAX_REPLY_BYTES // 2),
    "unfinished-pairs": "[1 " * (MAX_REPLY_BYTES // 3),
    "chain-syntax-error": _chain("x"),
    "chain-infinite-number": _chain("1e999"),
    "chain-lone-surrogate": _chain('"\\ud800"'),
    "surrogate-siblings": '["\\ud800"],' * (MAX_REPLY_BYTES // 11),
    "raw-surrogate-quotes": '"\ud800"[' * (MAX_REPLY_BYTES // 4),
    "chain-surrogate-then-infinite-number": _chain('"\\ud800", 1e999'),
}


@pytest.mark.parametrize("text", ADVERSARIAL.values(), ids=ADVERSARIAL.keys())
def test_adversarial_replies_take_bounded_time(text):
    for find in (first_json_object, first_json_array):
        began = time.perf_counter()
        find(text)
        assert time.perf_counter() - began < 1.0


class _CountingDecoder:
    def __init__(self):
        self.decoder = json_extract._DECODER
        self.calls = 0

    def raw_decode(self, text, start=0):
        self.calls += 1
        return self.decoder.raw_decode(text, start)


@pytest.mark.parametrize(
    "name",
    ["open-brackets", "nested-keys"]
    + ["chain-syntax-error", "chain-infinite-number", "chain-lone-surrogate"]
    + ["chain-surrogate-then-infinite-number"],
)
def test_nested_failures_decode_a_few_times_not_once_per_bracket(monkeypatch, name):
    text = ADVERSARIAL[name]
    counter = _CountingDecoder()
    monkeypatch.setattr(json_extract, "_DECODER", counter)
    assert first_json_array(text) is None
    # one failed decoding; where the decoder gives out before a chain's 900
    # levels, one more, at the outermost bracket within MAX_JSON_DEPTH
    assert counter.calls <= 2


def test_a_too_deep_start_is_skipped_up_to_the_first_that_fits(monkeypatch):
    text = "[" * 4000 + "]" * 4000
    found = first_json_array(text)
    assert nesting(found) == MAX_JSON_DEPTH
    assert found == _reference_first_json(text, "[")
    counter = _CountingDecoder()
    monkeypatch.setattr(json_extract, "_DECODER", counter)
    first_json_array(text)
    # the outermost bracket, too deep, then the outermost within the bound
    assert counter.calls <= 2


LAZY_SEARCH_PROBE = """
import sys
import machina, machina.cli, machina.engine, machina.harness
from machina.json_extract import first_json_array
assert first_json_array("[1]") == [1]
print("machina.json_search" in sys.modules, end=" ")
assert first_json_array("[x] [1]") == [1]
print("machina.json_search" in sys.modules)
"""


def test_the_search_loads_when_a_first_bracket_fails():
    src = Path(json_extract.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", LAZY_SEARCH_PROBE],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), *sys.path])},
        text=True,
    ).stdout
    assert out.split() == ["False", "True"]


# json.dumps's default style, and the sorted, compact, non-ASCII style of
# history lines
WRITER_STYLES = [{}, {"sort_keys": True, "separators": (",", ":"), "ensure_ascii": False}]


def _writer_without_c_encoder(style):
    saved = json_extract.c_make_encoder
    json_extract.c_make_encoder = None
    try:
        return json_writer(**style)
    finally:
        json_extract.c_make_encoder = saved


WRITERS = [(style, json_writer(**style)) for style in WRITER_STYLES] + [
    (style, _writer_without_c_encoder(style)) for style in WRITER_STYLES
]


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_writer_writes_what_json_dumps_writes(value):
    for style, write in WRITERS:
        assert write(value) == json.dumps(value, **style)
