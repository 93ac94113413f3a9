"""The oldest-first history renderer that ``machina.belief.render_history``
replaced, kept as the reference the newest-first renderer must match byte
for byte: it formats every record, then keeps the newest lines that fit."""

import json
import math

from machina.belief import TRUNCATION_MARKER, Belief

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _dump(value) -> str:
    return _ENCODER.encode(value)


def _estimate_tokens(text: str) -> int:
    return math.ceil(len(text.encode("utf-8")) / 4)


def record_lines(belief: Belief) -> list[str]:
    """All records interleaved in step order, oldest first.

    Within a step the transition line leads and its action records follow;
    step 0 actions (initial entry) come before everything else.
    """
    by_step: dict[int, list[str]] = {}
    for rec in belief.execution_log:
        line = (
            f"[step {rec.step}] {rec.phase} action {rec.action}"
            f" inputs={_dump(rec.inputs)} output={_dump(rec.output)}"
        )
        by_step.setdefault(rec.step, []).append(line)

    lines = list(by_step.get(0, []))
    for rec in belief.trajectory:
        line = f"[step {rec.step}] transition {rec.source} --{rec.event}--> {rec.target}"
        if rec.event_payload:
            line += f" payload={_dump(rec.event_payload)}"
        lines.append(line)
        lines.extend(by_step.get(rec.step, []))
    max_step = len(belief.trajectory)
    for step in sorted(s for s in by_step if s > max_step):
        lines.extend(by_step[step])
    return lines


def _truncate_tail(line: str, budget: int) -> str:
    tail = line.encode("utf-8")[-budget * 4:]
    return TRUNCATION_MARKER + tail.decode("utf-8", errors="ignore")


def reference_render_history(belief: Belief, token_budget: int) -> str:
    lines = record_lines(belief)
    if not lines:
        return ""
    selected: list[str] = []
    total = 0
    for line in reversed(lines):
        cost = _estimate_tokens(line + "\n")
        if not selected and cost > token_budget:
            return _truncate_tail(line, token_budget)
        if total + cost > token_budget:
            break
        selected.append(line)
        total += cost
    return "\n".join(reversed(selected))
