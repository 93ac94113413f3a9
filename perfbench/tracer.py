"""Outside-in tracer for the benchmark's traced run.

The tracer replaces functions on machina's modules and classes with wrappers
that record a span per call, under the name the caller looks up: the engine
imports ``snapshot`` from ``machina.belief`` into its own namespace, so the
wrapped name is ``machina.engine.snapshot``. Nothing inside the program
changes. A span holds its name, start, end, parent span, item id, a measured
amount (bytes, or 1 for a hit) and whether the call raised. Spans stay in
memory and are written out when the run ends.

A layer's self time is its spans' duration minus the time their child spans
cover. A call that re-enters a layer already on the stack under the same
span name is folded into the outer span, so a provider wrapping another
provider counts as one call. A wrapped name missing from the program makes
every metric that needs it ``absent``, with the reason, instead of 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from time import perf_counter
from typing import Callable, Iterator

from latency import request_bytes


def _utf8_len(text) -> int:
    return len(text.encode("utf-8")) if isinstance(text, str) else 0


def _hit(args, kwargs, result) -> float:
    return 1.0 if result is not None else 0.0


def _result_bytes(args, kwargs, result) -> float:
    return float(_utf8_len(result))


def _first_arg_bytes(args, kwargs, result) -> float:
    return float(_utf8_len(args[0] if args else kwargs.get("text")))


def _provider_bytes(args, kwargs, result) -> tuple[float, float]:
    request = args[1] if len(args) > 1 else kwargs["request"]
    return (float(request_bytes(request)), float(_utf8_len(result)))


def _records(args, kwargs, result) -> float:
    belief = result.belief_snapshot
    return float(len(belief.trajectory) + len(belief.execution_log))


@dataclass(frozen=True)
class Target:
    """Wrap ``owner.attr`` (owner: a module path, or ``module:Class``) as
    spans named ``span``; ``measure(args, kwargs, result)`` gives the amount."""

    span: str
    owner: str
    attr: str
    measure: Callable | None = None


TARGETS = (
    Target("harness.make_agent", "machina.harness", "make_qa_agent"),
    Target("harness.make_agent", "workloads", "make_resume_agent"),
    Target("machine_io.parse", "machina.harness", "parse_machine"),
    Target("model.validate", "machina.engine", "validate_machine"),
    Target("policy.rules_load", "machina.harness", "builtin_rules"),
    Target("policy.decide", "machina.engine", "decide"),
    Target("policy.fast_forward", "machina.policy", "fast_forward", _hit),
    Target("policy.rule_decide", "machina.policy", "rule_decide", _hit),
    Target("policy.llm_decide", "machina.policy", "llm_decide"),
    Target("policy.prompt", "machina.policy", "build_policy_prompt", _result_bytes),
    Target("policy.parse", "machina.policy", "parse_policy_response"),
    Target("belief.history", "machina.policy", "render_history", _result_bytes),
    Target("belief.snapshot", "machina.engine", "snapshot"),
    Target("engine.run", "machina.engine", "run", _records),
    Target("engine.candidates", "machina.engine", "candidate_transitions"),
    Target("engine.dispatch", "machina.engine", "dispatch"),
    Target("guards.eval", "machina.engine", "eval_guard"),
    Target("guards.eval", "machina.policy", "evaluate"),
    Target("actions.execute", "machina.engine", "execute_action"),
    Target("scene.parse", "machina.scene", "scene_from_json_value"),
    Target("providers.complete", "machina.providers:ScriptedProvider", "complete", _provider_bytes),
    Target("providers.complete", "latency:LatencyProvider", "complete", _provider_bytes),
    Target("json_extract.scan", "machina.policy", "first_json_object", _first_arg_bytes),
    Target("json_extract.scan", "machina.scene", "first_json_array", _first_arg_bytes),
)

ROOT = "item"

# Span fields, kept as lists for cheap recording.
NAME, START, END, PARENT, ITEM, AMOUNT, FAILED = range(7)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.spans: list[list] | None = None
        self.stack: list[int] = []
        self.item = -1


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    def __init__(self) -> None:
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self._buffers: list[list[list]] = []
        self._installed: list[tuple[object, str, object]] = []
        self.absent: dict[str, str] = {}

    def _spans(self) -> list[list]:
        state = self._state
        if state.spans is None:
            state.spans = []
            with self._lock:
                self._buffers.append(state.spans)
        return state.spans

    def _open(self, name: str) -> int:
        spans = self._spans()
        stack = self._state.stack
        index = len(spans)
        spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self._state.item, 0.0, False])
        stack.append(index)
        return index

    def _close(self, index: int, failed: bool) -> list:
        span = self._state.spans[index]
        span[END] = perf_counter()
        span[FAILED] = failed
        self._state.stack.pop()
        return span

    def _wrap(self, name: str, fn: Callable, measure: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state
            if state.stack and state.spans[state.stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(index, True)
                raise
            span = tracer._close(index, False)
            if measure is not None:
                span[AMOUNT] = measure(args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the missing ones in ``absent``."""
        for target in targets:
            try:
                owner = _resolve_owner(target.owner)
                original = getattr(owner, target.attr)
            except (ImportError, AttributeError) as exc:
                self.absent.setdefault(target.span, f"{target.owner}.{target.attr} not found ({exc})")
                continue
            setattr(owner, target.attr, self._wrap(target.span, original, target.measure))
            self._installed.append((owner, target.attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def item(self, item_id: int) -> Iterator[None]:
        """Root span of one item; spans opened inside carry its id."""
        self._state.item = item_id
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index, False)
            self._state.item = -1

    def spans(self) -> list[list]:
        with self._lock:
            return [span for buffer in self._buffers for span in buffer]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans():
                out.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics


@dataclass
class _Layer:
    count: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    amount: float = 0.0
    amount2: float = 0.0
    failed: int = 0


def _aggregate(buffers: list[list[list]]) -> tuple[dict[str, _Layer], list[float], list[float], list[float]]:
    """Per-span-name totals, plus per-item durations, root self times and
    final record counts."""
    layers: dict[str, _Layer] = {}
    durations: list[float] = []
    unattributed: list[float] = []
    records: dict[tuple[int, int], float] = {}
    for b, buffer in enumerate(buffers):
        child_time = [0.0] * len(buffer)
        for span in buffer:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(buffer):
            duration = span[END] - span[START]
            if span[NAME] == ROOT:
                durations.append(duration)
                unattributed.append(duration - child_time[i])
                continue
            layer = layers.setdefault(span[NAME], _Layer())
            layer.count += 1
            layer.self_s += duration - child_time[i]
            layer.total_s += duration
            layer.failed += span[FAILED]
            amount = span[AMOUNT]
            if isinstance(amount, tuple):
                layer.amount += amount[0]
                layer.amount2 += amount[1]
            else:
                layer.amount += amount
            if span[NAME] == "engine.run":
                records[(b, span[ITEM])] = amount  # the item's last run wins
    return layers, durations, unattributed, list(records.values())


# (metric, unit, spans it needs, how to compute it from the layer totals)
def _metric_table():
    def per_item(fn):
        return lambda L, n, ctx: fn(L) / n

    def ms_self(*names):
        return per_item(lambda L: 1e3 * sum(L[x].self_s for x in names))

    def count(name):
        return per_item(lambda L: L[name].count)

    def share(num, den):
        return lambda L, n, ctx: num(L) / den(L) if den(L) else 0.0

    def mean_amount(name):
        return share(lambda L: L[name].amount, lambda L: L[name].count)

    decisions = lambda L: L["policy.decide"].count  # noqa: E731
    decide_spans = ("policy.decide", "policy.fast_forward", "policy.rule_decide", "policy.llm_decide")
    return [
        ("harness.make_agent_ms", "ms", ("harness.make_agent",), ms_self("harness.make_agent")),
        ("machine_io.parse_calls", "count", ("machine_io.parse",), count("machine_io.parse")),
        ("machine_io.parse_ms", "ms", ("machine_io.parse",), ms_self("machine_io.parse")),
        ("model.validate_calls", "count", ("model.validate",), count("model.validate")),
        ("model.validate_ms", "ms", ("model.validate",), ms_self("model.validate")),
        ("policy.rules_load_ms", "ms", ("policy.rules_load",), ms_self("policy.rules_load")),
        ("policy.decisions", "count", ("policy.decide",), count("policy.decide")),
        ("policy.fast_forward_frac", "fraction", ("policy.decide", "policy.fast_forward"),
         share(lambda L: L["policy.fast_forward"].amount, decisions)),
        ("policy.rule_frac", "fraction", ("policy.decide", "policy.rule_decide"),
         share(lambda L: L["policy.rule_decide"].amount, decisions)),
        ("policy.llm_frac", "fraction", ("policy.decide", "policy.llm_decide"),
         share(lambda L: L["policy.llm_decide"].count, decisions)),
        ("policy.prompt_ms", "ms", ("policy.prompt",), ms_self("policy.prompt")),
        ("policy.prompt_bytes", "bytes", ("policy.prompt",), mean_amount("policy.prompt")),
        ("policy.parse_ms", "ms", ("policy.parse",), ms_self("policy.parse")),
        ("policy.parse_retries", "count", ("policy.parse",), per_item(lambda L: L["policy.parse"].failed)),
        ("policy.decide_ms", "ms", decide_spans, ms_self(*decide_spans)),
        ("engine.run_calls", "count", ("engine.run",), count("engine.run")),
        ("engine.run_ms", "ms", ("engine.run",), ms_self("engine.run")),
        ("engine.steps", "count", ("engine.dispatch",), count("engine.dispatch")),
        ("engine.candidates_ms", "ms", ("engine.candidates",), ms_self("engine.candidates")),
        ("engine.dispatch_ms", "ms", ("engine.dispatch",), ms_self("engine.dispatch")),
        ("guards.evals", "count", ("guards.eval",), count("guards.eval")),
        ("guards.ms", "ms", ("guards.eval",), ms_self("guards.eval")),
        ("belief.history_ms", "ms", ("belief.history",), ms_self("belief.history")),
        ("belief.history_bytes", "bytes", ("belief.history",), mean_amount("belief.history")),
        ("belief.snapshot_calls", "count", ("belief.snapshot",), count("belief.snapshot")),
        ("belief.snapshot_ms", "ms", ("belief.snapshot",), ms_self("belief.snapshot")),
        ("belief.records", "count", ("engine.run",), lambda L, n, ctx: fmean(ctx["records"]) if ctx["records"] else 0.0),
        ("actions.calls", "count", ("actions.execute",), count("actions.execute")),
        ("actions.self_ms", "ms", ("actions.execute",), ms_self("actions.execute")),
        ("actions.failed", "count", ("actions.execute",), per_item(lambda L: L["actions.execute"].failed)),
        ("scene.parse_calls", "count", ("scene.parse",), count("scene.parse")),
        ("scene.parse_ms", "ms", ("scene.parse",), ms_self("scene.parse")),
        ("providers.calls", "count", ("providers.complete",), count("providers.complete")),
        ("providers.wait_ms", "ms", ("providers.complete",),
         per_item(lambda L: 1e3 * L["providers.complete"].total_s)),
        ("providers.wait_frac", "fraction", ("providers.complete",),
         lambda L, n, ctx: L["providers.complete"].total_s / ctx["item_s"] if ctx["item_s"] else 0.0),
        ("providers.prompt_bytes", "bytes", ("providers.complete",), mean_amount("providers.complete")),
        ("providers.reply_bytes", "bytes", ("providers.complete",),
         share(lambda L: L["providers.complete"].amount2, lambda L: L["providers.complete"].count)),
        ("json_extract.calls", "count", ("json_extract.scan",), count("json_extract.scan")),
        ("json_extract.ms", "ms", ("json_extract.scan",), ms_self("json_extract.scan")),
        ("json_extract.bytes_scanned", "bytes", ("json_extract.scan",),
         per_item(lambda L: L["json_extract.scan"].amount)),
        ("trace.unattributed_ms", "ms", (), lambda L, n, ctx: 1e3 * ctx["unattributed_s"] / n),
    ]


METRIC_TABLE = _metric_table()
LAYER_METRICS = [(name, unit) for name, unit, _, _ in METRIC_TABLE] + [("trace.overhead_frac", "fraction")]


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict[str, dict]:
    """Every per-layer metric, per traced item unless its name says otherwise.

    Self times are multiplied by ``scale``, the host factor of the traced
    phase (see hostspeed.py); provider wait is sleeping and stays as
    measured. A metric whose spans could not be wrapped is ``{"value": None,
    "absent": reason}``; a layer that was wrapped but never called reads 0.
    """
    with tracer._lock:
        buffers = list(tracer._buffers)
    totals, durations, unattributed, records = _aggregate(buffers)
    layers = defaultdict(_Layer, totals)  # a layer never called reads 0
    n = max(len(durations), 1)
    ctx = {"item_s": sum(durations), "unattributed_s": sum(unattributed), "records": records}
    out: dict[str, dict] = {}
    for name, unit, needs, compute in METRIC_TABLE:
        missing = [tracer.absent[s] for s in needs if s in tracer.absent]
        if missing:
            out[name] = {"value": None, "unit": unit, "absent": "; ".join(missing)}
            continue
        value = compute(layers, n, ctx)
        if unit == "ms" and name != "providers.wait_ms":
            value *= scale
        out[name] = {"value": value, "unit": unit}
    return out
