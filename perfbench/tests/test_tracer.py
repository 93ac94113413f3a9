import sys
import types

import pytest

from machina.providers import CompletionRequest, ScriptedProvider

import tracer as tracing
from latency import LatencyProvider
from tracer import TARGETS, Target, Tracer, layer_metrics


@pytest.fixture
def clock(monkeypatch):
    """perf_counter that advances one second per reading."""
    ticks = iter(range(10_000))
    monkeypatch.setattr(tracing, "perf_counter", lambda: float(next(ticks)))


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    return module


def test_self_time_excludes_children(clock, fake_module):
    tracer = Tracer()
    tracer.install([Target("layer.outer", "fake_layers", "outer"), Target("layer.inner", "fake_layers", "inner")])
    with tracer.item(7):
        assert fake_module.outer(1) == 4
    tracer.uninstall()
    spans = {s[tracing.NAME]: s for s in tracer.spans()}
    # readings: item open 0, outer open 1, inner open 2, inner close 3, outer close 4, item close 5
    assert [spans["item"][tracing.START], spans["item"][tracing.END]] == [0.0, 5.0]
    assert spans["layer.inner"][tracing.PARENT] == 1  # the outer span's index
    assert all(s[tracing.ITEM] == 7 for s in spans.values())
    layers, durations, unattributed, _ = tracing._aggregate(tracer._buffers)
    assert layers["layer.outer"].self_s == 3.0 - 1.0  # 3 s span, 1 s inside inner
    assert layers["layer.inner"].self_s == 1.0
    assert durations == [5.0] and unattributed == [5.0 - 3.0]


def test_uninstall_restores_the_original(fake_module):
    original = fake_module.outer
    tracer = Tracer()
    tracer.install([Target("layer.outer", "fake_layers", "outer")])
    assert fake_module.outer is not original
    tracer.uninstall()
    assert fake_module.outer is original


def test_missing_name_is_absent_not_zero(fake_module):
    tracer = Tracer()
    tracer.install([Target("belief.snapshot", "fake_layers", "no_such_function")] + list(TARGETS))
    try:
        with tracer.item(0):
            fake_module.outer(1)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    for name in ("belief.snapshot_calls", "belief.snapshot_ms"):
        assert metrics[name]["value"] is None
        assert "no_such_function" in metrics[name]["absent"]
    assert metrics["engine.run_calls"]["value"] == 0


def test_nested_providers_count_as_one_call():
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        provider = LatencyProvider(ScriptedProvider.from_replies(["abc"]), sleep=lambda s: None)
        with tracer.item(0):
            provider.complete(CompletionRequest(prompt="hello"))
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    assert metrics["providers.calls"]["value"] == 1
    assert metrics["providers.prompt_bytes"]["value"] == 5
    assert metrics["providers.reply_bytes"]["value"] == 3
