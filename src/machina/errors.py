"""Shared exception types and the schema checks every JSON loader uses."""

from typing import Any


class MachinaError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(MachinaError):
    """A JSON document does not match its expected schema.

    ``pointer`` is a JSON-pointer-style path to the offending element
    (for example ``/states/0/name``).
    """

    def __init__(self, pointer: str, reason: str):
        super().__init__(f"{pointer or '/'}: {reason}")
        self.pointer = pointer
        self.reason = reason


def quoted(value: Any) -> str:
    """A reply's or payload's value as an error quotes it: the ``repr`` of a
    string's first 120 characters, else the first 120 of the ``repr``."""
    return repr(value[:120]) if isinstance(value, str) else repr(value)[:120]


def require_object(value: Any, pointer: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(pointer, f"expected an object, got {type(value).__name__}")
    return value


def require_list(value: Any, pointer: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(pointer, f"expected an array, got {type(value).__name__}")
    return value


def check_keys(
    obj: dict, allowed: tuple[str, ...], required: tuple[str, ...], pointer: str
) -> None:
    """Reject a key outside ``allowed`` and a missing ``required`` key."""
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{pointer}/{key}", f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise SchemaError(pointer, f"missing required key {key!r}")


def require_string(obj: dict, key: str, pointer: str) -> str:
    """``obj[key]``, which must be a string; the caller checks the key is present."""
    value = obj[key]
    if not isinstance(value, str):
        raise SchemaError(f"{pointer}/{key}", "expected a string")
    return value


class UnencodableText(MachinaError):
    """Text holds a lone surrogate, which has no UTF-8 encoding."""


def utf8(text: str) -> bytes:
    """``text`` encoded as UTF-8; a lone surrogate (which the Python API
    accepts in messages, payloads and outputs) raises
    :class:`UnencodableText`."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise UnencodableText(
            f"text holds {exc.object[exc.start:exc.end]!r} at character {exc.start},"
            " which UTF-8 cannot encode"
        ) from None
