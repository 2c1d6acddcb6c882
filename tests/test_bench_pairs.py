"""tools/bench_pairs.py reads bench/run.py's result lines, alternates the
sides, refuses runs whose outputs differ or whose checks fail, and
summarizes each metric; here on canned result lines, with no process
started."""

import json

import pytest

import bench_pairs

BETTER = {"wall_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower"}


def result_lines(wall_s, sha="ab12", failed=0, problems=(), passes=40,
                 calls=41_560):
    """The stdout of one `bench/run.py --trace 0` run, as it prints it."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "setup_s": {"value": 0.1, "unit": "s"},
               "peak_rss_mb": {"value": 45.0, "unit": "MB"}}
    return "\n".join(
        [f"check failed: {problem}" for problem in problems]
        + ["context " + json.dumps({"workload": "baseline_admission",
                                    "output_sha256": sha}),
           f"samples: {passes} passes over 40 units, {calls} planner "
           "calls, 10 set-ups; unscaled wall_s 0.1 s"]
        + [f"{name} {m['value']:.6g} {m['unit']}"
           for name, m in metrics.items()]
        + [json.dumps({"correct": failed == 0, "attempted": 80,
                       "failed": failed, "metrics": metrics})])


def canned(values: dict):
    """A runner that hands out values[side] in order, recording the
    order of the sides it was asked for."""
    order, queues = [], {side: list(v) for side, v in values.items()}

    def run(side):
        order.append(side)
        value = queues[side].pop(0)
        return value if isinstance(value, str) else result_lines(value)
    return run, order


def test_parse_run_reads_every_field():
    run = bench_pairs.parse_run(result_lines(0.25, sha="cd34", calls=831,
                                             passes=20))
    assert run == {"sha": "cd34", "failed": 0, "problems": [],
                   "metrics": {"wall_s": 0.25, "setup_s": 0.1,
                               "peak_rss_mb": 45.0},
                   "passes": 20, "calls_per_pass": 831 / 20}


def test_pairs_alternate_which_side_runs_first():
    run, order = canned({"parent": [1.0] * 4, "change": [0.9] * 4})
    runs = bench_pairs.run_pairs(run, 4)
    assert order == ["parent", "change", "change", "parent"] * 2
    assert [r["metrics"]["wall_s"] for r in runs["change"]] == [0.9] * 4


@pytest.mark.parametrize("bad, message", [
    (result_lines(0.9, sha="ffff"), "output_sha256 ffff, not ab12"),
    (result_lines(0.9, failed=1), "1 failed checks"),
    (result_lines(0.9, problems=["kv=2 seed=0"]), "kv=2 seed=0"),
], ids=["sha", "failed", "problem"])
def test_a_differing_output_or_failed_check_stops_the_pairs(bad, message):
    run, order = canned({"parent": [1.0, 1.0], "change": [0.9, bad]})
    with pytest.raises(bench_pairs.PairError, match=message):
        bench_pairs.run_pairs(run, 2)
    assert order == ["parent", "change", "change"]


def test_summary_medians_quartiles_wins_and_iqr():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [0.95, 0.96, 0.94, 0.97, 0.95, 1.04, 0.93, 0.96, 0.95, 0.94]
    run, _ = canned({"parent": parent, "change": change})
    lines = bench_pairs.summarize(bench_pairs.run_pairs(run, 10), BETTER)
    assert lines[0] == ("10 pairs, output_sha256 ab12 on every run, 0 "
                        "failed checks")
    assert lines[1] == "planner calls per pass: parent [1039.0], " \
                       "change [1039.0]"
    assert lines[2] == "median passes per run: parent 40, change 40"
    rows = {line.split(" | ")[0][2:]: line.strip("| ").split(" | ")
            for line in lines[5:]}
    # parent median 1.0, quartiles 0.9825 and 1.0175 (inclusive);
    # the change wins every pair but the sixth
    assert rows["wall_s"] == ["wall_s", "1 [0.9825, 1.018]",
                              "0.95 [0.9425, 0.96]", "-5.0%", "9/10",
                              "0.035", "yes"]
    # equal values: no pair is won, and nothing moves past a zero IQR
    assert rows["setup_s"][3:] == ["+0.0%", "0/10", "0", "no"]
