"""``tools/longrun.py``'s verdict: a change is called faster or slower only
when every run on one side beats every run on the other, over enough pairs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "longrun", Path(__file__).resolve().parents[1] / "tools" / "longrun.py"
)
longrun = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(longrun)


def runs(before, after):
    return {
        "before": [{"30": {"t": t}} for t in before],
        "after": [{"30": {"t": t}} for t in after],
    }


PAIRS = longrun.VERDICT_PAIRS


@pytest.mark.parametrize(
    "before, after, expected",
    [
        ([10.0] * PAIRS, [9.0] * PAIRS, "faster"),
        ([9.0] * PAIRS, [10.0] * PAIRS, "slower"),
        # one overlapping run on each side is enough to withhold a verdict
        ([10.0] * (PAIRS - 1) + [8.5], [9.0] * PAIRS, "unresolved"),
        ([9.0] * PAIRS, [10.0] * (PAIRS - 1) + [8.5], "unresolved"),
        ([10.0] * PAIRS, [10.0] * PAIRS, "unresolved"),
        # a clean split over too few pairs is still no verdict
        ([10.0] * (PAIRS - 1), [1.0] * (PAIRS - 1), "unresolved"),
        ([10.0], [20.0], "unresolved"),
    ],
    ids=["faster", "slower", "before-overlaps", "after-overlaps", "equal", "too-few-pairs", "one-pair"],
)
def test_verdict(before, after, expected):
    assert longrun.verdict(runs(before, after), "t") == {"30": expected}
