"""The search for the first JSON value in a reply, after its first opening
bracket failed to decode, and the reading of brackets that the decoder uses
to measure a value's depth. Neither runs, so this module is not loaded,
while replies decode at once and no value holds more opening brackets than
:data:`~machina.json_extract.MAX_JSON_DEPTH`.

A failed decoding rules out, without decoding them, the brackets that must
fail with it, by one of two rules: the brackets still open at the first token
the decoder refuses (a syntax error, or a number, constant or string it will
not convert), and, for a value nested deeper than ``MAX_JSON_DEPTH``, the
brackets nested deeper than that.
"""

from __future__ import annotations

import json
import math
import re
import sys
from json.decoder import scanstring

from . import json_extract

# What fixes where a value ends, read on from an opening bracket: a whole
# string, a quote whose string has no end and a bracket; with ``_LEAF_TOKENS``
# also (group 1) a number or constant the decoder may refuse: a constant, a
# number with an exponent, or one with 309 or more integer digits. Any other
# number is below 1e308, so finite, and an integer of at most 308 digits,
# below the lowest digit limit ``int`` can be given (640), so it is converted.
_TOKEN = r'"[^"\\]*(?:\\.[^"\\]*)*"|[][{}"]'
_TOKENS = re.compile(_TOKEN, re.DOTALL)
_LEAF_TOKENS = re.compile(
    _TOKEN + r"|(NaN|-?Infinity|(?<![0-9.])-?"
    r"(?:[0-9]+(?:\.[0-9]+)?[eE][-+]?[0-9]+|[0-9]{309,}(?:\.[0-9]+)?))",
    re.DOTALL,
)
# An opening bracket after which a value can follow: JSON whitespace, then
# a closer, a quote or what can begin a value.
_CAN_START = {
    "{": re.compile(r'\{(?=[ \t\n\r]*["}])'),
    "[": re.compile(r'\[(?=[ \t\n\r]*[-\]\["{0-9tfnNI])'),
}
_OPENER = {"]": "[", "}": "{"}
# Python 3.10 converts an integer of any length
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _refused(leaf: str) -> bool:
    """Whether the decoder refuses this number or constant: it is not
    finite, or it is an integer with more digits than ``int`` converts."""
    if leaf[-1] == "N" or leaf[-1] == "y":  # NaN, Infinity, -Infinity
        return True
    if "." in leaf or "e" in leaf or "E" in leaf:
        return not math.isfinite(float(leaf))
    most = _int_max_str_digits()  # 0: no limit
    return 0 < most < len(leaf) - (leaf[0] == "-")


def _read(text: str, start: int, stop: int, refused: bool = False):
    """Read ``text[start:stop]`` as the decoder does from the opening bracket
    at ``start``, up to a string with no end or, with ``refused``, the first
    number, constant or string the decoder refuses (a string it refuses is
    one UTF-8 cannot encode: it holds a lone surrogate), and list the
    positions of brackets outside strings: ``deep``, each one that closes and
    nests deeper than ``MAX_JSON_DEPTH`` (its depth counts itself), and
    ``open``, each one still open where the reading stops.

    Where the text is JSON up to a point, this reading and the decoder's
    agree up to it, so a decoding at a bracket still open where a decoding
    failed fails there too. A closer of the other kind closes nothing."""
    deep: list[int] = []
    stack: list[list] = []  # [position, bracket, depth] of each open bracket
    for token in (_LEAF_TOKENS if refused else _TOKENS).finditer(text, start, stop):
        at = token.start()
        ch = text[at]
        if ch == '"':
            if token.end() - at == 1:  # a string with no end: the rest is in it
                break
            if refused:
                try:
                    scanstring(text, at + 1, True)[0].encode("utf-8")
                except UnicodeEncodeError:
                    break
        elif ch == "[" or ch == "{":
            stack.append([at, ch, 1])
        elif token.lastindex:  # a number or constant
            if _refused(token.group(1)):
                break
        elif stack and stack[-1][1] == _OPENER[ch]:
            position, _, depth = stack.pop()
            if depth > json_extract.MAX_JSON_DEPTH:
                deep.append(position)
            if stack and stack[-1][2] <= depth:
                stack[-1][2] = depth + 1
    return deep, [entry[0] for entry in stack]


def search(text: str, open_ch: str, start: int, failure: Exception):
    """Go on from a decoding at ``start`` that raised ``failure``: the value
    at the next ``open_ch`` that decodes, or ``None``.

    Each failed decoding names the brackets that must fail too, and those are
    never decoded. After a syntax error, or a ``ValueError`` for the first
    number, constant or string the decoder refuses, they are the ones still
    open at that point, read again from ``start`` with :func:`_read`; after a
    value nested deeper than ``MAX_JSON_DEPTH``, the ones that never close or
    nest deeper than that. So a reply of ``MAX_REPLY_BYTES`` decodes at few
    places however its brackets nest, and the value found is the one decoding
    every bracket in turn, and skipping what nests too deep, would find.
    """
    doomed: set[int] = set()
    can_start = _CAN_START[open_ch]
    while text.find(open_ch, start + 1) != -1:
        if isinstance(failure, json.JSONDecodeError):
            doomed.update(_read(text, start, failure.pos)[1])
        elif isinstance(failure, ValueError):  # a number, constant or string it refuses
            doomed.update(_read(text, start, len(text), refused=True)[1])
        else:  # nested deeper than MAX_JSON_DEPTH
            doomed.update(*_read(text, start, len(text)))
        for match in can_start.finditer(text, start + 1):
            if match.start() not in doomed:
                start = match.start()
                break
        else:
            return None
        try:
            return json_extract._DECODER.raw_decode(text, start)[0]
        except (ValueError, RecursionError) as exc:
            failure = exc
    return None
