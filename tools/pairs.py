"""Alternating perfbench pairs between two checkouts, and what they show.

    python3 tools/pairs.py --before PARENT --after CHANGE --workload oracle-mix > pairs.json

Runs ``python3 perfbench/run.py --workload W --seed N --seconds 20`` once in
each checkout for each of 10 pairs, one run at a time, ``--before`` first in
even pairs and ``--after`` first in odd ones, so a drift in host load lands
on both sides. Before each run, its checkout's ``src/``, ``perfbench/`` and
``BENCHMARK.json`` are copied, without ``__pycache__``, into one scratch
directory that is emptied first, and the run starts there: both sides run
from the same absolute path, so a difference in path length or in cached
bytecode does not land on one side only.
A run that exits non-zero or prints no report counts as not correct and its
pair is left out of the summary; the exit code is then 1. Each run's
record keeps the host's one-minute load average read just before it
started (``load_1m``) and the median host factor the run printed
(``host_factor``, ``None`` if it printed none), both also on the progress
line: a batch that shared the host with other work shows in the first, and
the host-speed regime a run met, which the load alone does not tell, in
the second.

Per end-to-end metric of ``BENCHMARK.json`` the summary gives each side's
median and quartiles, how many pairs each side won (the better value of the
pair, in the metric's direction; a tie counts for neither), the median gap
as a fraction of the ``before`` median, and two readings of it against the
``before`` side's spread: ``gap_exceeds_iqr`` (the gap between the medians is
larger than ``before``'s interquartile range) and ``after_inside_iqr``
(``after``'s median lies between ``before``'s quartiles). Standard output is
one JSON object with every run and the summary; a table goes to standard
error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SECONDS = 20
SEED = 7
# perfbench/run.py's line "host factor median 1.0234; unscaled ..."
HOST_FACTOR = re.compile(r"host factor median ([0-9.]+);")


def end_to_end() -> dict[str, str]:
    """Each end-to-end metric's better direction, ``higher`` or ``lower``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return {m["name"]: m["better"] for m in declared}


def run_once(tree: Path, workload: str, seed: int, run_dir: Path) -> dict:
    """One run of ``tree``'s benchmark, copied into an emptied ``run_dir``
    and started there."""
    shutil.rmtree(run_dir, ignore_errors=True)
    for name in ("src", "perfbench"):
        shutil.copytree(tree / name, run_dir / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(tree / "BENCHMARK.json", run_dir / "BENCHMARK.json")
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)]
    done = subprocess.run(command, cwd=run_dir, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    inputs = [line for line in lines if line.startswith("inputs ")]
    factors = [float(m[1]) for m in map(HOST_FACTOR.match, lines) if m]
    run = {
        "exit": done.returncode,
        "correct": False,
        "inputs": inputs[0] if inputs else None,
        "host_factor": factors[0] if factors else None,
        "metrics": {},
    }
    try:
        report = json.loads(lines[-1]) if done.returncode == 0 else None
        metrics = {name: m["value"] for name, m in report["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return {**run, "error": done.stderr.strip().splitlines()[-5:]}
    return {**run, "correct": report.get("correct", False), "metrics": metrics}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric: medians, quartiles, pairs won and the gap against the
    ``before`` side's interquartile range. ``runs`` maps ``before`` and
    ``after`` to one ``{"metrics": {...}}`` per pair, in pair order. A pair
    in which either run lacks the metric (it failed) is left out; a metric
    no pair has is not summarized."""
    summary = {}
    for name, direction in better.items():
        kept = [
            (b["metrics"][name], a["metrics"][name])
            for b, a in zip(runs["before"], runs["after"])
            if name in b["metrics"] and name in a["metrics"]
        ]
        if not kept:
            continue
        before = [b for b, _ in kept]
        after = [a for _, a in kept]
        sign = 1 if direction == "higher" else -1
        after_wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        before_wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
        b_med, a_med = statistics.median(before), statistics.median(after)
        q1, q3 = quartiles(before)
        summary[name] = {
            "pairs": len(kept),
            "before_median": b_med,
            "after_median": a_med,
            "before_quartiles": [q1, q3],
            "after_quartiles": list(quartiles(after)),
            "median_change": (a_med - b_med) / b_med if b_med else None,
            "before_wins": before_wins,
            "after_wins": after_wins,
            "gap_exceeds_iqr": abs(a_med - b_med) > q3 - q1,
            "after_inside_iqr": q1 <= a_med <= q3,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--after", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)

    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    runs = {"before": [], "after": []}
    first = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        run_dir = Path(scratch) / "tree"
        for pair in range(PAIRS):
            order = ("before", "after") if pair % 2 == 0 else ("after", "before")
            first.append(order[0])
            for side in order:
                load = os.getloadavg()[0]
                run = {**run_once(sides[side], args.workload, args.seed, run_dir), "load_1m": load}
                runs[side].append(run)
                print(
                    f"pair {pair} {side}: {run['metrics'].get('items_per_s')} "
                    f"(load {load:.2f}, host factor {run['host_factor']})",
                    file=sys.stderr,
                )
    summary = summarize(runs, end_to_end())
    for name, s in summary.items():
        print(
            f"  {name:<16} {s['before_median']:>12.6g} -> {s['after_median']:<12.6g} "
            f"{s['median_change'] or 0:+.2%}  wins before/after {s['before_wins']}/{s['after_wins']}  "
            f"gap>IQR {s['gap_exceeds_iqr']}",
            file=sys.stderr,
        )
    report = {
        "command": f"perfbench/run.py --workload {args.workload} --seed {args.seed} --seconds {SECONDS}",
        "pairs": PAIRS,
        "first_in_pair": first,
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "inputs": sorted({r["inputs"] for side in runs.values() for r in side if r["inputs"]}),
        "summary": summary,
        "runs": runs,
    }
    print(json.dumps(report, indent=1))
    return 0 if report["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
