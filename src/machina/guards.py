"""Guard expression DSL: parsing and evaluation over a key-value store.

Grammar (``and`` binds tighter than ``or``)::

    or-expr    := and-expr ("or" and-expr)*
    and-expr   := unary ("and" unary)*
    unary      := "not" unary | "exists" path | comparison | "(" or-expr ")"
    comparison := operand (op operand)?          op: == != < <= > >= contains
    operand    := path | literal

Literals are single- or double-quoted strings, decimal numbers (optional
leading minus, no exponent), ``true``, ``false`` and ``null``. A bare path
evaluates by truthiness: anything except ``null``, ``false`` and the empty
string counts as true. Paths resolve into the belief's key-value store and
its read-only task inputs; a leading ``kv.`` segment is accepted as an
explicit alias for that root.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import MachinaError
from .keypath import ABSENT, JsonValue, resolve

class GuardSyntaxError(MachinaError):
    def __init__(self, position: int, expected: frozenset[str], found: str = ""):
        what = f"found {found!r}" if found else "found end of input"
        super().__init__(
            f"guard syntax error at offset {position}: expected "
            f"{', '.join(sorted(expected))}; {what}"
        )
        self.position = position
        self.expected = expected


class GuardTypeError(MachinaError):
    """Operand types do not support the requested comparison."""


@dataclass(frozen=True)
class Path:
    segments: tuple[str, ...]

    def dotted(self) -> str:
        return ".".join(self.segments)


@dataclass(frozen=True)
class Literal:
    value: JsonValue


Operand = Union[Path, Literal]


@dataclass(frozen=True)
class Compare:
    lhs: Operand
    op: str
    rhs: Operand


@dataclass(frozen=True)
class Exists:
    path: Path


@dataclass(frozen=True)
class Not:
    operand: "GuardExpr"


@dataclass(frozen=True)
class And:
    operands: tuple["GuardExpr", ...]


@dataclass(frozen=True)
class Or:
    operands: tuple["GuardExpr", ...]


GuardExpr = Union[Or, And, Not, Compare, Exists, Path, Literal]

_KEYWORDS = frozenset({"and", "or", "not", "exists", "contains", "true", "false", "null"})

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<op>==|!=|<=|>=|<|>)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
      | (?P<path>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*)
    """,
    re.VERBOSE,
)

_ESCAPES = {"n": "\n", "t": "\t"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise GuardSyntaxError(pos, frozenset({"token"}), text[pos])
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    return tokens


def _unescape(raw: str) -> str:
    body = raw[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            out.append(_ESCAPES.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _error(self, expected: set[str]) -> GuardSyntaxError:
        tok = self._peek()
        if tok is None:
            return GuardSyntaxError(len(self.text), frozenset(expected))
        return GuardSyntaxError(tok.pos, frozenset(expected), tok.text)

    def _at_keyword(self, word: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == "path" and tok.text == word

    def parse(self) -> GuardExpr:
        expr = self.parse_or()
        if self._peek() is not None:
            raise self._error({"end of input"})
        return expr

    def parse_or(self) -> GuardExpr:
        operands = [self.parse_and()]
        while self._at_keyword("or"):
            self.pos += 1
            operands.append(self.parse_and())
        return operands[0] if len(operands) == 1 else Or(tuple(operands))

    def parse_and(self) -> GuardExpr:
        operands = [self.parse_unary()]
        while self._at_keyword("and"):
            self.pos += 1
            operands.append(self.parse_unary())
        return operands[0] if len(operands) == 1 else And(tuple(operands))

    def parse_unary(self) -> GuardExpr:
        if self._at_keyword("not"):
            self.pos += 1
            return Not(self.parse_unary())
        if self._at_keyword("exists"):
            self.pos += 1
            tok = self._peek()
            if tok is None or tok.kind != "path" or tok.text in _KEYWORDS:
                raise self._error({"path"})
            self.pos += 1
            return Exists(Path(tuple(tok.text.split("."))))
        tok = self._peek()
        if tok is not None and tok.kind == "lparen":
            self.pos += 1
            expr = self.parse_or()
            closing = self._peek()
            if closing is None or closing.kind != "rparen":
                raise self._error({")"})
            self.pos += 1
            return expr
        return self.parse_comparison()

    def parse_comparison(self) -> GuardExpr:
        lhs = self.parse_operand()
        tok = self._peek()
        if tok is not None and (
            tok.kind == "op" or (tok.kind == "path" and tok.text == "contains")
        ):
            self.pos += 1
            rhs = self.parse_operand()
            return Compare(lhs, tok.text, rhs)
        return lhs

    def parse_operand(self) -> Operand:
        tok = self._peek()
        if tok is None:
            raise self._error({"operand"})
        if tok.kind == "number":
            value = _number(tok.text)
            if value is None:
                raise GuardSyntaxError(tok.pos, frozenset({"shorter number"}), tok.text[:20] + "...")
            self.pos += 1
            return Literal(value)
        if tok.kind == "string":
            self.pos += 1
            return Literal(_unescape(tok.text))
        if tok.kind == "path":
            if tok.text in ("true", "false", "null"):
                self.pos += 1
                return Literal({"true": True, "false": False, "null": None}[tok.text])
            if tok.text in _KEYWORDS:
                raise self._error({"operand"})
            self.pos += 1
            return Path(tuple(tok.text.split(".")))
        raise self._error({"operand"})


def _number(text: str) -> int | float | None:
    """A number token's value; ``None`` for an integer with more digits than
    ``int()`` converts or a decimal past the float range, whose ``inf``
    would render as the path ``inf``."""
    if "." in text:
        value = float(text)
        return value if math.isfinite(value) else None
    try:
        return int(text)
    except ValueError:
        return None


def parse_guard(text: str) -> GuardExpr:
    """Parse guard DSL text into an AST; total over arbitrary input."""
    if not isinstance(text, str):
        raise GuardSyntaxError(0, frozenset({"text"}), type(text).__name__)
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise GuardSyntaxError(0, frozenset({"shallower nesting"})) from None


# ---------------------------------------------------------------------------
# Rendering (inverse of parsing, up to AST equivalence)

_LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY, _LEVEL_ATOM = 1, 2, 3, 4


def _escape(value: str) -> str:
    out = value.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + out.replace("\n", "\\n").replace("\t", "\\t") + '"'


def _operand_text(op: Operand) -> str:
    if isinstance(op, Path):
        return op.dotted()
    v = op.value
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, float):
        return _float_text(v)
    if isinstance(v, int):
        return repr(v)
    return _escape(str(v))


def _float_text(v: float) -> str:
    """``repr``'s shortest round-trip digits in positional notation, since
    the grammar has no exponent: ``1e-07`` renders as ``0.0000001``."""
    if not math.isfinite(v):
        raise MachinaError(f"guard literal {v!r} has no DSL text")
    text = repr(v)
    if "e" in text:
        from decimal import Decimal  # here, not at import: it slows start-up

        text = format(Decimal(text), "f")
        if "." not in text:
            text += ".0"
    return text


def _render(expr: GuardExpr, minimum: int) -> str:
    if isinstance(expr, Or):
        text, level = " or ".join(_render(o, _LEVEL_AND) for o in expr.operands), _LEVEL_OR
    elif isinstance(expr, And):
        text, level = " and ".join(_render(o, _LEVEL_UNARY) for o in expr.operands), _LEVEL_AND
    elif isinstance(expr, Not):
        text, level = "not " + _render(expr.operand, _LEVEL_UNARY), _LEVEL_UNARY
    elif isinstance(expr, Exists):
        text, level = "exists " + expr.path.dotted(), _LEVEL_UNARY
    elif isinstance(expr, Compare):
        text = f"{_operand_text(expr.lhs)} {expr.op} {_operand_text(expr.rhs)}"
        level = _LEVEL_UNARY
    else:
        text, level = _operand_text(expr), _LEVEL_ATOM
    if level < minimum:
        return f"({text})"
    return text


def guard_to_text(expr: GuardExpr) -> str:
    """Render an AST back to DSL source that parses to an equivalent AST."""
    return _render(expr, _LEVEL_OR)


# ---------------------------------------------------------------------------
# Evaluation


def truthy(value: JsonValue) -> bool:
    """Guard truthiness: everything except null, false and "" is true."""
    return not (value is None or value is False or (isinstance(value, str) and value == ""))


def resolve_kv_path(kv: Mapping[str, JsonValue], segments: tuple[str, ...]):
    """Resolve a guard path against the key-value store.

    A leading ``kv`` segment (with more segments after it) is treated as an
    alias for the store root, so ``kv.question_type`` and ``question_type``
    name the same slot.
    """
    if len(segments) > 1 and segments[0] == "kv":
        segments = segments[1:]
    head = kv.get(segments[0], ABSENT)
    return head if head is ABSENT else resolve(head, segments[1:])


def _json_equal(a: JsonValue, b: JsonValue) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(_json_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    return a == b


def _is_number(v: JsonValue) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _compare(lhs: JsonValue, op: str, rhs: JsonValue) -> bool:
    if lhs is ABSENT or rhs is ABSENT:
        return op == "!="
    if op == "==":
        return _json_equal(lhs, rhs)
    if op == "!=":
        return not _json_equal(lhs, rhs)
    if op == "contains":
        if isinstance(lhs, str):
            if not isinstance(rhs, str):
                raise GuardTypeError(f"'contains' on a string needs a string, got {rhs!r}")
            return rhs in lhs
        if isinstance(lhs, list):
            return any(_json_equal(item, rhs) for item in lhs)
        if isinstance(lhs, dict):
            if not isinstance(rhs, str):
                raise GuardTypeError(f"'contains' on an object needs a string key, got {rhs!r}")
            return rhs in lhs
        raise GuardTypeError(f"'contains' needs a string, array or object, got {lhs!r}")
    # ordering operators
    if _is_number(lhs) and _is_number(rhs):
        pass
    elif isinstance(lhs, str) and isinstance(rhs, str):
        pass
    else:
        raise GuardTypeError(f"cannot order {lhs!r} and {rhs!r} with {op!r}")
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    return lhs >= rhs


def evaluate(expr: GuardExpr, kv: Mapping[str, JsonValue]) -> bool:
    """Evaluate an AST over the key-value store.

    Missing paths are never errors: ``exists`` is false, bare paths are
    false, and comparisons are false except ``!=``, which is true whenever
    at least one side is absent.
    """
    if isinstance(expr, Or):
        return any(evaluate(o, kv) for o in expr.operands)
    if isinstance(expr, And):
        return all(evaluate(o, kv) for o in expr.operands)
    if isinstance(expr, Not):
        return not evaluate(expr.operand, kv)
    if isinstance(expr, Exists):
        return resolve_kv_path(kv, expr.path.segments) is not ABSENT
    if isinstance(expr, Compare):
        lhs = _operand_value(expr.lhs, kv)
        rhs = _operand_value(expr.rhs, kv)
        return _compare(lhs, expr.op, rhs)
    if isinstance(expr, Path):
        value = resolve_kv_path(kv, expr.segments)
        return False if value is ABSENT else truthy(value)
    if isinstance(expr, Literal):
        return truthy(expr.value)
    raise GuardTypeError(f"not a guard expression: {expr!r}")


def _operand_value(op: Operand, kv: Mapping[str, JsonValue]):
    if isinstance(op, Literal):
        return op.value
    return resolve_kv_path(kv, op.segments)
