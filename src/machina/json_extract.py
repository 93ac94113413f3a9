"""One strict JSON decoder for every value machina reads, and the JSON
writers it builds once.

The decoder rejects ``NaN``, ``Infinity``, numbers that overflow to an
infinite float, strings holding a lone surrogate and nesting deeper than
``MAX_JSON_DEPTH``, so what machina reads it can write back as strict UTF-8
JSON. :func:`read_json` decodes a whole document (a file, an HTTP body, a
REPL payload). :func:`first_json_object` and :func:`first_json_array` return
the first value that decodes at an opening brace or bracket of a chatty LLM
reply, and skip, never raise on, the rest. :func:`json_writer` builds a
``dumps`` for one encoder configuration.
"""

from __future__ import annotations

import json
import math
import re
from json.encoder import c_make_encoder, encode_basestring, encode_basestring_ascii
from typing import Callable

from .errors import MachinaError

# The deepest JSON machina accepts, on every supported Python: at most this
# many nested arrays and objects, the value's own level included (``[]`` is
# 1 deep). The decoder below and ``machina.belief.copy_json`` enforce it.
# From inside a run under pytest, the shallowest path a value then takes,
# ``copy.deepcopy`` of a snapshot, goes 473 levels on Python 3.10-3.13: a
# 2.3x margin, so a ``RecursionError`` is only a backstop.
MAX_JSON_DEPTH = 200


class JsonSyntaxError(MachinaError):
    """The input is not strict JSON (or not valid UTF-8)."""

    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text[:40]} is not a finite JSON number")
    return value


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


class _StrictDecoder(json.JSONDecoder):
    def raw_decode(self, s: str, idx: int = 0):
        value, end = super().raw_decode(s, idx)
        # A lone surrogate, raw or escaped, makes a string with no UTF-8 form;
        # an escaped pair is fine, so an escape is checked on the decoded value.
        try:
            if not s.isascii():
                s[idx:end].encode("utf-8")
            if _SURROGATE_ESCAPE.search(s, idx, end):
                json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("a string holds a lone surrogate") from None
        # only a span with more opening brackets than the bound can nest past it
        if s.count("[", idx, end) + s.count("{", idx, end) > MAX_JSON_DEPTH:
            from .json_search import _read

            if _read(s, idx, end)[0]:
                raise RecursionError("nested deeper than MAX_JSON_DEPTH")
        return value, end


_DECODER = _StrictDecoder(parse_constant=_finite, parse_float=_finite)


def read_json(text: str | bytes):
    """Decode one whole strict JSON document (bytes must be UTF-8). Every
    failure, including an integer too long to convert and nesting deeper
    than :data:`MAX_JSON_DEPTH`, raises :class:`JsonSyntaxError`."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = text.count(b"\n", 0, exc.start) + 1
            column = exc.start - text.rfind(b"\n", 0, exc.start)
            raise JsonSyntaxError(line, column, f"not valid UTF-8: {exc.reason}") from None
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise JsonSyntaxError(exc.lineno, exc.colno, exc.msg) from None
    except ValueError as exc:  # a non-finite number, a lone surrogate, a too-long integer
        raise JsonSyntaxError(1, 1, str(exc)) from None
    except RecursionError:
        raise JsonSyntaxError(1, 1, "document nested too deeply") from None


def _first_json(text: str, open_ch: str):
    """First value that decodes at an ``open_ch``; the search loads if the first fails."""
    start = text.find(open_ch)
    if start == -1:
        return None
    try:
        return _DECODER.raw_decode(text, start)[0]
    except (ValueError, RecursionError) as exc:
        failure = exc
    from .json_search import search

    return search(text, open_ch, start, failure)


def first_json_object(text: str):
    """First ``{...}`` span that is a JSON object."""
    return _first_json(text, "{")


def first_json_array(text: str):
    """First ``[...]`` span that is a JSON array."""
    return _first_json(text, "[")


def json_writer(**settings) -> Callable[[object], str]:
    """A ``dumps`` built once for one ``json.JSONEncoder`` configuration:
    ``json_writer(**settings)(value)`` is the text
    ``json.dumps(value, **settings)`` writes.

    ``JSONEncoder.encode`` builds a C encoder for every list or dict it
    dumps, which costs as much as dumping a small value; the writer builds
    one here, with the arguments ``JSONEncoder.iterencode`` gives it: worth
    11% of oracle-mix's items/s against ``json.dumps`` (BENCH_ablation.json).
    It does not look for cycles, so a value must hold none (a cyclic value
    raises ``RecursionError``, not ``ValueError``). Where ``json`` has no C
    accelerator, the writer is the encoder's own ``encode``.
    """
    encoder = json.JSONEncoder(check_circular=False, **settings)
    if c_make_encoder is None or encoder.indent is not None:
        return encoder.encode
    encode = c_make_encoder(
        None,
        encoder.default,
        encode_basestring_ascii if encoder.ensure_ascii else encode_basestring,
        None,
        encoder.key_separator,
        encoder.item_separator,
        encoder.sort_keys,
        encoder.skipkeys,
        encoder.allow_nan,
    )

    def dumps(value) -> str:
        return "".join(encode(value, 0))

    return dumps
