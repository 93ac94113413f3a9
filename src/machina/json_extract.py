"""Pull the first embedded JSON object or array out of free-form text.

LLM replies are often chatty; these helpers try to decode a JSON value at
each opening brace or bracket from left to right and return the first that
decodes. A value that is malformed, nested past the interpreter's recursion
limit or holds an integer too long to convert is skipped, never raised.
"""

from __future__ import annotations

import json

_DECODER = json.JSONDecoder()


def _first_json(text: str, open_ch: str):
    start = text.find(open_ch)
    while start != -1:
        try:
            return _DECODER.raw_decode(text, start)[0]
        except (ValueError, RecursionError):
            start = text.find(open_ch, start + 1)
    return None


def first_json_object(text: str) -> dict | None:
    """First ``{...}`` span that parses as a JSON object."""
    return _first_json(text, "{")


def first_json_array(text: str) -> list | None:
    """First ``[...]`` span that parses as a JSON array."""
    return _first_json(text, "[")
