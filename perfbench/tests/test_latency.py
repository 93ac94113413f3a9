import json
import random

import pytest

from machina.providers import CompletionRequest, ScriptedProvider, ScriptExhausted

import workloads
from latency import RETRY_SHARE, LatencyModel, LatencyProvider, chatty_replies


def test_delay_formula():
    model = LatencyModel(a=0.003, b=0.12e-6, c=40e-6)
    assert model.delay(0, 0) == 0.003
    assert model.delay(2000, 50) == pytest.approx(0.003 + 2000 * 0.12e-6 + 50 * 40e-6)


def test_sleeps_by_request_and_reply_bytes():
    slept = []
    provider = LatencyProvider(
        ScriptedProvider.from_replies(["ok", "héllo"]), LatencyModel(a=1.0, b=0.5, c=0.25), slept.append
    )
    provider.complete(CompletionRequest(prompt="abcd", system="xy"))
    provider.complete(CompletionRequest(prompt="é"))
    # prompt bytes include the system text; "é" is two UTF-8 bytes
    assert slept == [1.0 + 0.5 * 6 + 0.25 * 2, 1.0 + 0.5 * 2 + 0.25 * 6]
    assert provider.slept == sum(slept)


def test_accounting_matches_scripted_provider_and_counts_every_attempt():
    requests = [CompletionRequest(prompt="p" * 10, system="s"), CompletionRequest(prompt="q")]
    plain = ScriptedProvider.from_replies(["one", "two"])
    wrapped = LatencyProvider(ScriptedProvider.from_replies(["one", "two"]), sleep=lambda s: None)
    for request in requests:
        assert wrapped.complete(request) == plain.complete(request)
    with pytest.raises(ScriptExhausted):
        plain.complete(requests[0])
    with pytest.raises(ScriptExhausted):
        wrapped.complete(requests[0])
    assert wrapped.snapshot_stats() == plain.snapshot_stats()
    assert wrapped.snapshot_stats().calls == 3


def test_chatty_replies_keep_payloads_and_add_retries():
    decision = json.dumps({"event": "filter", "arguments": {"predicate": {"color": "red"}}})
    rnd = random.Random(0)
    out = [chatty_replies(["counting", '["o1"]', decision, "yes"], rnd) for _ in range(2000)]
    assert all("counting" in o[0] for o in out)
    assert any(o[0] != "counting" for o in out)
    assert all('["o1"]' in o[1] and o[1] != '["o1"]' for o in out)
    assert all(o[-1] == "yes" for o in out)
    retried = sum(len(o) == 5 for o in out) / len(out)
    assert abs(retried - RETRY_SHARE) < 0.03


def test_every_chatty_item_reaches_the_oracle_answer():
    items = workloads.chatty_inputs(5)
    retried = 0
    for item in items:
        outcome = workloads.run_chatty_item(item, workloads.ZERO_LATENCY)
        assert outcome.correct, (item.index, item.variant, outcome.detail)
        oracle = workloads.run_oracle_item(item, workloads.ZERO_LATENCY)
        assert outcome.calls >= oracle.calls
        retried += outcome.calls > oracle.calls
    assert retried > 0
