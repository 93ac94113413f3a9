"""``tools/pairs.py``'s summary: medians and quartiles per side, pairs won in
each metric's direction, and the gap read against the ``before`` side's
interquartile range; a failed run, which is not correct and leaves its pair
out of the summary; and the one directory both sides run from."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BETTER = {"items_per_s": "higher", "cpu_ms_per_item": "lower"}


def summary(before, after, metric="items_per_s"):
    runs = {
        "before": [{"metrics": {m: v for m in BETTER}} for v in before],
        "after": [{"metrics": {m: v for m in BETTER}} for v in after],
    }
    return pairs.summarize(runs, BETTER)[metric]


def test_every_declared_metric_is_summarized():
    assert set(pairs.end_to_end()) >= {"items_per_s", "cpu_ms_per_item", "exact_match"}
    assert pairs.end_to_end()["items_per_s"] == "higher"


def test_medians_quartiles_and_change():
    s = summary([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert (s["before_median"], s["after_median"]) == (3, 4)
    assert s["before_quartiles"] == [1.5, 4.5]
    assert s["median_change"] == pytest.approx(1 / 3)


@pytest.mark.parametrize(
    "metric, before_wins, after_wins",
    [("items_per_s", 1, 2), ("cpu_ms_per_item", 2, 1)],
    ids=["higher-is-better", "lower-is-better"],
)
def test_wins_follow_the_metric_direction_and_ties_count_for_neither(metric, before_wins, after_wins):
    s = summary([10, 10, 10, 10], [11, 12, 9, 10], metric)
    assert (s["before_wins"], s["after_wins"]) == (before_wins, after_wins)


@pytest.mark.parametrize(
    "before, after, exceeds, inside",
    [
        # the before side's IQR is 1.5 .. 4.5 (width 3)
        ([1, 2, 3, 4, 5], [4, 4, 4, 4, 4], False, True),
        ([1, 2, 3, 4, 5], [7, 7, 7, 7, 7], True, False),
        ([1, 2, 3, 4, 5], [1, 1, 1, 1, 1], False, False),
        ([3, 3, 3, 3, 3], [3, 3, 3, 3, 3], False, True),
        ([3, 3, 3, 3, 3], [3.1] * 5, True, False),
    ],
    ids=["inside", "far-above", "just-below", "equal", "no-spread"],
)
def test_gap_against_the_before_iqr(before, after, exceeds, inside):
    s = summary(before, after)
    assert (s["gap_exceeds_iqr"], s["after_inside_iqr"]) == (exceeds, inside)


def test_a_pair_with_a_failed_run_is_left_out():
    runs = {
        "before": [{"metrics": {"items_per_s": v}} for v in (1, 2, 3)] + [{"metrics": {}}],
        "after": [{"metrics": {"items_per_s": v}} for v in (2, 3, 4)] + [{"metrics": {"items_per_s": 99}}],
    }
    s = pairs.summarize(runs, {"items_per_s": "higher", "exact_match": "higher"})
    assert list(s) == ["items_per_s"]
    assert (s["items_per_s"]["pairs"], s["items_per_s"]["after_median"]) == (3, 3)


GOOD_RUN = """import json
print("inputs 3 items")
print("host factor median 1.0250; unscaled items_per_s 5.1, item_ms_p50 0.2")
print(json.dumps({"correct": True, "metrics": {"items_per_s": {"value": 5.0}}}))
"""


def fake_tree(root, script):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(script)
    (root / "src").mkdir()
    (root / "BENCHMARK.json").write_text("{}")
    return root


@pytest.mark.parametrize(
    "script",
    [
        "print('  items_per_s  5.0'); raise SystemExit(1)",
        "import json; print(json.dumps({'correct': True, 'metrics': {}})); raise SystemExit(2)",
        "",
        "print('not a report')",
    ],
    ids=["table-row-then-exit-1", "report-then-exit-2", "no-output", "no-report"],
)
def test_a_failed_run_is_not_correct_and_has_no_metrics(tmp_path, script):
    run = pairs.run_once(fake_tree(tmp_path / "tree", script), "w", 7, tmp_path / "run")
    assert (run["correct"], run["metrics"]) == (False, {})
    assert "error" in run


def test_a_good_run_reads_its_report(tmp_path):
    run = pairs.run_once(fake_tree(tmp_path / "tree", GOOD_RUN), "w", 7, tmp_path / "run")
    assert run == {
        "exit": 0,
        "correct": True,
        "inputs": "inputs 3 items",
        "host_factor": 1.025,
        "metrics": {"items_per_s": 5.0},
    }


def test_a_run_that_prints_no_host_factor_records_none(tmp_path):
    run = pairs.run_once(
        fake_tree(tmp_path / "tree", GOOD_RUN.replace("host factor", "no factor")), "w", 7, tmp_path / "run"
    )
    assert (run["correct"], run["host_factor"]) == (True, None)


def test_failed_runs_still_give_a_report_and_exit_1(tmp_path, capsys):
    before = fake_tree(tmp_path / "before", GOOD_RUN)
    after = fake_tree(tmp_path / "after", "raise SystemExit(1)")
    assert pairs.main(["--before", str(before), "--after", str(after), "--workload", "w"]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert (report["pairs"], report["all_correct"], report["summary"]) == (pairs.PAIRS, False, {})
    assert len(report["runs"]["before"]) == len(report["runs"]["after"]) == pairs.PAIRS
    assert {r["host_factor"] for r in report["runs"]["before"]} == {1.025}
    assert {r["host_factor"] for r in report["runs"]["after"]} == {None}
    assert all(isinstance(r["load_1m"], float) for side in report["runs"].values() for r in side)
    assert "host factor 1.025)" in err and "host factor None)" in err


# names the side it was copied from, the directory it runs in, and whether
# it found the staged BENCHMARK.json and src/ there and no bytecode cache
WHERE_RUN = """import json, os
print("inputs", open("perfbench/side.txt").read(), os.getcwd())
staged = os.path.isfile("BENCHMARK.json") and os.path.isdir("src")
cached = any("__pycache__" in dirs for _, dirs, _ in os.walk("."))
print(json.dumps({"correct": staged and not cached, "metrics": {"items_per_s": {"value": 1.0}}}))
"""


def test_both_sides_run_from_one_directory_holding_their_own_copy(tmp_path, capsys):
    for side in ("before", "after"):
        tree = fake_tree(tmp_path / side, WHERE_RUN)
        (tree / "perfbench" / "side.txt").write_text(side)
        (tree / "src" / "__pycache__").mkdir()
    argv = ["--before", str(tmp_path / "before"), "--after", str(tmp_path / "after"), "--workload", "w"]
    assert pairs.main(argv) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    seen = {side: {tuple(r["inputs"].split()[1:]) for r in runs[side]} for side in runs}
    (before_side, before_cwd), = seen["before"]
    (after_side, after_cwd), = seen["after"]
    assert (before_side, after_side) == ("before", "after")
    assert before_cwd == after_cwd and Path(before_cwd) not in (tmp_path / "before", tmp_path / "after")
