"""Cost of one history render and one resume event as a run grows long.

    python3 tools/longrun.py --before OLD/src --after src > BENCH_longrun.json

Drives the bundled ``h3`` machine with ``e1`` events, each carrying a
code-like payload of 0 to 2048 bytes (as perfbench's resume-loop does), up to
30 steps (about a median resume-loop script), 100, 1,000 and 5,000 steps. At
each length it times ``render_history`` at the LLM policy's default budget
(the fastest of a few renders) and each of the next ``run`` calls on its own;
``h3_event_us`` is the median of those calls, so a garbage collection that
lands in one call moves one sample, not the figure. Each side runs in a fresh
interpreter, the two sides alternating pair by pair; the report keeps the
minimum of each number over the pairs, ``same_text`` says whether every run
rendered the same history, and ``render_speedup`` and ``event_speedup`` divide
the before minimum by the after one. ``render_ratio_range`` and
``event_ratio_range`` give the lowest and highest before/after ratio of a
single pair: the noise floor, which for a tree compared with itself is the
spread around 1 that host load alone produces. ``render_verdict`` and
``event_verdict`` say per length whether the change is ``faster`` (every
after-run beat every before-run), ``slower`` (every before-run beat every
after-run) or ``unresolved`` (the runs overlap, or fewer than ``VERDICT_PAIRS``
pairs ran): on a shared host a single ratio moves by more than a 10% change.
``--worker SRC`` runs one side and prints its timings as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import subprocess
import sys
import time

LENGTHS = (30, 100, 1000, 5000)
# run() calls timed after reaching each length; fewer than the smallest gap
# between LENGTHS, so the next length is still ahead once they are done
EVENTS_TIMED = 20
RENDER_REPEATS = 5
# pairs needed before a verdict other than "unresolved" is given
VERDICT_PAIRS = 10
SEED = 7
MAX_PAYLOAD_BYTES = 2048
WORDS = ("def", "return", "assert", "class", "value", "result", "items", "self", "case", "None")


def payloads(count: int) -> list[dict]:
    rnd = random.Random(SEED)
    pool = [" ".join(rnd.choice(WORDS) for _ in range(rnd.randint(2, 8))) for _ in range(256)]
    out = []
    for _ in range(count):
        target, lines, size = rnd.randint(0, MAX_PAYLOAD_BYTES), [], 0
        while size < target:
            lines.append(rnd.choice(pool))
            size += len(lines[-1]) + 4
        out.append({"author": rnd.choice(("model", "user", "ci")), "lines": lines} if lines else {})
    return out


def worker(src: str) -> dict:
    sys.path.insert(0, src)
    from machina.actions import builtin_registry
    from machina.belief import new_belief, render_history
    from machina.engine import Agent, EventInstance, RunLimits, run
    from machina.harness import builtin_machine
    from machina.policy import DEFAULT_HISTORY_BUDGET
    from machina.providers import ScriptedProvider

    events = [EventInstance("e1", p) for p in payloads(max(LENGTHS) + EVENTS_TIMED)]
    agent = Agent(
        machine=builtin_machine("h3"),
        belief=new_belief(),
        policy=(),
        registry=builtin_registry(),
        provider=ScriptedProvider.from_replies([]),
        limits=RunLimits(max_transitions=len(events) + 1),
    )
    report: dict = {}
    done = 0
    for length in LENGTHS:
        while done < length:
            run(agent, events[done])
            done += 1
        renders = []
        for _ in range(RENDER_REPEATS):
            begin = time.perf_counter()
            text = render_history(agent.belief, DEFAULT_HISTORY_BUDGET)
            renders.append(time.perf_counter() - begin)
        per_event = []
        for event in events[done:done + EVENTS_TIMED]:
            begin = time.perf_counter()
            result = run(agent, event)
            per_event.append(time.perf_counter() - begin)
            assert result.status == "waiting", result.reason
        done += EVENTS_TIMED
        report[str(length)] = {
            "render_history_ms": round(min(renders) * 1e3, 4),
            "render_bytes": len(text.encode("utf-8")),
            "render_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "h3_event_us": round(statistics.median(per_event) * 1e6, 2),
        }
    return report


def ratio_range(runs: dict[str, list[dict]], key: str) -> dict[str, list[float]]:
    """Per length, the lowest and highest before/after ratio of ``key`` in
    one pair."""
    ranges = {}
    for length in runs["after"][0]:
        ratios = [
            before[length][key] / after[length][key]
            for before, after in zip(runs["before"], runs["after"])
        ]
        ranges[length] = [round(min(ratios), 2), round(max(ratios), 2)]
    return ranges


def verdict(runs: dict[str, list[dict]], key: str) -> dict[str, str]:
    """Per length, ``faster`` when every after-run's ``key`` is below every
    before-run's, ``slower`` for the reverse, else ``unresolved``."""
    verdicts = {}
    for length in runs["after"][0]:
        before = [r[length][key] for r in runs["before"]]
        after = [r[length][key] for r in runs["after"]]
        if len(after) < VERDICT_PAIRS:
            verdicts[length] = "unresolved"
        elif max(after) < min(before):
            verdicts[length] = "faster"
        elif min(after) > max(before):
            verdicts[length] = "slower"
        else:
            verdicts[length] = "unresolved"
    return verdicts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--worker", metavar="SRC", help="measure the machina package under SRC")
    parser.add_argument("--before", metavar="SRC", help="source tree of the parent commit")
    parser.add_argument("--after", metavar="SRC", default="src", help="source tree of the change")
    parser.add_argument("--pairs", type=int, default=VERDICT_PAIRS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.worker)))
        return
    if not args.before:
        parser.error("--before is required")
    runs: dict[str, list[dict]] = {"before": [], "after": []}
    for pair in range(args.pairs):
        order = ("before", "after") if pair % 2 == 0 else ("after", "before")
        for side in order:
            src = args.before if side == "before" else args.after
            done = subprocess.run(
                [sys.executable, __file__, "--worker", src], capture_output=True, text=True, check=True
            )
            runs[side].append(json.loads(done.stdout))
    # the minimum of each number; the text digest is compared by same_text
    best = {
        side: {
            length: {
                key: min(r[length][key] for r in reports)
                for key, value in reports[0][length].items()
                if not isinstance(value, str)
            }
            for length in reports[0]
        }
        for side, reports in runs.items()
    }
    same_text = all(
        len({r[length]["render_sha256"] for reports in runs.values() for r in reports}) == 1
        for length in best["after"]
    )
    speedup = {
        length: round(best["before"][length]["render_history_ms"] / best["after"][length]["render_history_ms"], 1)
        for length in best["after"]
    }
    event_speedup = {
        length: round(best["before"][length]["h3_event_us"] / best["after"][length]["h3_event_us"], 2)
        for length in best["after"]
    }
    report = {
        "pairs": args.pairs,
        "same_text": same_text,
        "min": best,
        "render_speedup": speedup,
        "event_speedup": event_speedup,
        "render_ratio_range": ratio_range(runs, "render_history_ms"),
        "event_ratio_range": ratio_range(runs, "h3_event_us"),
        "render_verdict": verdict(runs, "render_history_ms"),
        "event_verdict": verdict(runs, "h3_event_us"),
        "runs": runs,
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
