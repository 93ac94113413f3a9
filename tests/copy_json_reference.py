"""The member-by-member JSON copier that ``machina.belief.copy_json``
replaced, kept as the reference the ``str``-first copier must match: the
same copy for every value it accepts, the same exception type for every
value it rejects, ``NestingTooDeep`` for one nested deeper than
``MAX_JSON_DEPTH``."""

import math
import sys

from machina.belief import NestingTooDeep, NotJsonValue
from machina.json_extract import MAX_JSON_DEPTH


def _is_scalar(value) -> bool:
    # types compared by identity: a class whose metaclass defines __eq__
    # cannot be hashed, so it cannot be looked up in a set
    kind = type(value)
    return kind is str or kind is bool or value is None


def _int_has_text(value: int) -> bool:
    try:
        str(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return False
    return True


def reference_copy_json(value: object, depth: int = 1):
    kind = type(value)
    if depth > MAX_JSON_DEPTH and (kind is dict or kind is list):
        raise NestingTooDeep("value is nested too deeply to copy")
    try:
        if kind is dict:
            copied = {
                k: v if _is_scalar(v) else reference_copy_json(v, depth + 1)
                for k, v in value.items()
                if type(k) is str
            }
            if len(copied) != len(value):
                key = next(k for k in value if type(k) is not str)
                raise NotJsonValue(f"key {key!r} is not a string")
            return copied
        if kind is list:
            return [v if _is_scalar(v) else reference_copy_json(v, depth + 1) for v in value]
        if (
            _is_scalar(value)
            or (kind is int and _int_has_text(value))
            or (kind is float and math.isfinite(value))
        ):
            return value
    except RecursionError:
        raise NestingTooDeep("value is nested too deeply to copy") from None
    if kind is int:
        limit = sys.get_int_max_str_digits()
        raise NotJsonValue(f"an int with more than {limit} digits has no JSON form")
    if kind is float:
        raise NotJsonValue(f"{value!r} has no strict JSON form")
    raise NotJsonValue(f"a {kind.__name__} is not a JSON value")
