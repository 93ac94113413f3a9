"""Host-speed normalization of timings.

On a shared host the same code runs up to about 1.5 times slower for seconds
at a time, in CPU time as much as in wall time: another tenant is busy on
the same physical core. Raw timings of one commit then differ by a third
from run to run. So the benchmark times a fixed reference task in the same
thread right before and right after each stretch of work of about
``EVERY_S``. The reference is deep copies and JSON encoding, and it does not
use machina. The work in between is scaled by ``NOMINAL_S / reference
time``, except simulated provider delay, which does not depend on the host. A slower host slows the reference as much as
the work, and the two cancel. A slower machina slows only the work.
"""

from __future__ import annotations

import copy
import gc
import json
import time
from statistics import fmean
from typing import Callable, TypeVar

# The reference task's CPU time on an idle core of the host the baseline was
# taken on (2-core Intel Xeon at 2.0 GHz, Python 3.11), so scaled timings
# read as that host's.
NOMINAL_S = 0.0015
EVERY_S = 0.05
AROUND_REFERENCES = 5

_DOC = {
    "records": [
        {"step": i, "lines": [f"x{j}" for j in range(12)], "kv": {"k": i, "v": [i, str(i)]}}
        for i in range(40)
    ]
}

T = TypeVar("T")


def reference_seconds() -> float:
    """CPU time this thread spends on the reference task. Garbage collection
    is off meanwhile, so heap the program keeps alive does not slow it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        begin = time.thread_time()
        for _ in range(4):
            json.dumps(copy.deepcopy(_DOC), sort_keys=True)
        return time.thread_time() - begin
    finally:
        if collecting:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Scale for work done between two reference timings."""
    return NOMINAL_S / ((before + after) / 2)


def around(fn: Callable[[], T]) -> tuple[T, float, float]:
    """Run ``fn()`` between two reference timings, each the mean of
    ``AROUND_REFERENCES`` runs, as a single short call has few samples to
    average. Returns its result, its wall time and the host factor."""
    before = fmean(reference_seconds() for _ in range(AROUND_REFERENCES))
    begin = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - begin
    after = fmean(reference_seconds() for _ in range(AROUND_REFERENCES))
    return result, elapsed, factor(before, after)
