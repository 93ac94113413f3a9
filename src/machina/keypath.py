"""Dotted-path lookup into JSON-like values.

A path is a dot-separated sequence of segments. A segment indexes a mapping
by key; a purely numeric segment additionally indexes a list by position.
Lookups never raise for missing data; they return the ``ABSENT`` sentinel so
callers can distinguish "missing" from a stored ``null``.
"""

from __future__ import annotations

from typing import Union

from .errors import MachinaError

JsonValue = Union[None, bool, int, float, str, list, dict]


class _Absent:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ABSENT"

    def __bool__(self) -> bool:
        return False


ABSENT = _Absent()


class BadPath(MachinaError):
    """A dotted path is empty or contains an empty segment."""


def split_path(path: str) -> tuple[str, ...]:
    """Split ``path`` on dots, rejecting empty paths and empty segments."""
    if not isinstance(path, str):
        raise BadPath(f"invalid path: {path!r}")
    segments = tuple(path.split("."))
    if "" in segments:  # an empty path, or an empty segment
        raise BadPath(f"invalid path: {path!r}")
    return segments


def resolve(value: JsonValue, segments: tuple[str, ...]):
    """Walk ``segments`` into ``value``; return ``ABSENT`` on any miss."""
    current = value
    for seg in segments:
        if isinstance(current, dict):
            if seg not in current:
                return ABSENT
            current = current[seg]
        elif isinstance(current, list) and seg.isdigit():
            try:
                index = int(seg)
            except ValueError:  # '²', or more digits than int() converts
                return ABSENT
            if index >= len(current):
                return ABSENT
            current = current[index]
        else:
            return ABSENT
    return current
