import itertools
import time
from dataclasses import replace

import pytest

import hostspeed
import run
import workloads
from workloads import Outcome

GOOD = Outcome(completed=True, correct=True, calls=2, prompt_bytes=100, reply_bytes=10)


def test_checks_count_failures_and_count_drift():
    checks = run.Checks()
    checks.add(0, GOOD, 0.001)
    checks.add(0, replace(GOOD, calls=3), 0.001)  # same input, other counts
    checks.add(1, replace(GOOD, correct=False, detail="wrong"), 0.001)
    checks.add(2, GOOD, run.ITEM_TIMEOUT_S + 1)
    assert (checks.attempted, checks.correct, checks.failed, checks.problems) == (4, 3, 2, 3)
    assert checks.first[0].calls == 2
    assert any("differ" in e for e in checks.errors)


def test_checks_keep_a_bounded_error_list():
    checks = run.Checks()
    for position in range(50):
        checks.add(position, replace(GOOD, correct=False), 0.001)
    assert checks.problems == 50 and len(checks.errors) == run.ERRORS_SHOWN


def test_factor_scales_to_the_nominal_reference():
    assert hostspeed.factor(hostspeed.NOMINAL_S, hostspeed.NOMINAL_S) == 1.0
    assert hostspeed.factor(2 * hostspeed.NOMINAL_S, 2 * hostspeed.NOMINAL_S) == 0.5
    assert hostspeed.around(lambda: "done")[0] == "done"


def _phase(monkeypatch, run_item):
    monkeypatch.setattr(hostspeed, "reference_seconds", lambda: 2 * hostspeed.NOMINAL_S)
    workload = workloads.Workload("fake", 1, 0, lambda seed: [None], run_item)
    return run.timed_phase(workload, [None], 0.2, itertools.count(), run.Checks())


def test_simulated_delay_is_not_scaled(monkeypatch):
    def sleeping(item, latency):
        time.sleep(0.005)
        return replace(GOOD, waited_s=0.005)

    timings = _phase(monkeypatch, sleeping)
    assert len(timings.raw) > 5 and set(timings.scales) == {0.5}
    for scaled, raw in zip(timings.scaled, timings.raw):
        assert scaled == pytest.approx(0.005 + (raw - 0.005) * 0.5)

    def busy(item, latency):
        end = time.thread_time() + 0.003
        while time.thread_time() < end:
            pass
        return GOOD

    timings = _phase(monkeypatch, busy)
    for cpu, raw in zip(timings.scaled_cpu, timings.raw):
        assert cpu <= 0.5 * raw + 1e-6
