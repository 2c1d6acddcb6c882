"""Run the benchmark in alternating parent/change pairs and summarize them.

Usage: python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
           --seed S --pairs N [--seconds 4]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (a `git
archive` export of each commit will do).  Each pair runs

    python3 bench/run.py --workload W --seed S --seconds SECONDS --trace 0

once in each checkout, the parent first in pairs 1, 3, 5, ... and the
change first in the others, so that a drift of the host's speed does not
favour one side.  Exits 1 if a run fails, reports a failed check, or
reports an output_sha256 other than the first run's: a speed-up counts
only where both sides produce the same output.

For every end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles (the inclusive method of `statistics.quantiles`),
the change's relative difference of the medians, the pairs the change
wins (ties count for neither side), the parent's IQR, whether the
medians differ by more than that IQR, and a verdict by the claim rule
(see `verdict`).  It also prints the planner calls
per pass of each side's runs, and their median number of passes, since
peak_rss_mb grows with the passes that fit in a run.  It edits nothing
under bench/ and only reads BENCHMARK.json.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SAMPLES = re.compile(r"samples: (\d+) passes over \d+ units, (\d+) planner "
                     r"calls")


class PairError(RuntimeError):
    pass


def parse_run(stdout: str) -> dict:
    """One `bench/run.py --trace 0` run, read from its stdout: its
    output_sha256, failed checks, metric values, passes and planner
    calls per pass."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = samples = None
    for line in lines:
        if line.startswith("context "):
            context = json.loads(line[len("context "):])
        elif line.startswith("samples: "):
            samples = SAMPLES.match(line)
    if context is None or samples is None:
        raise PairError("run printed no context or samples line")
    passes, calls = map(int, samples.groups())
    return {"sha": context["output_sha256"],
            "failed": result["failed"],
            "problems": [line for line in lines
                         if line.startswith("check failed: ")],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "passes": passes, "calls_per_pass": calls / passes}


def run_pairs(run, pairs: int) -> dict:
    """{side: [parsed run, ...]} of `pairs` alternating pairs, where
    run(side) returns one run's stdout; a PairError as soon as a run
    reports a failed check or another output_sha256 than the first."""
    runs, sha = {side: [] for side in SIDES}, None
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = parse_run(run(side))
            sha = sha or result["sha"]
            if result["failed"] or result["problems"]:
                raise PairError(f"{side} run {len(runs[side]) + 1}: "
                                f"{result['failed']} failed checks "
                                f"{result['problems']}")
            if result["sha"] != sha:
                raise PairError(f"{side} run {len(runs[side]) + 1}: "
                                f"output_sha256 {result['sha']}, not {sha}")
            runs[side].append(result)
    return runs


def verdict(m0: float, m1: float, iqr: float, wins: int, pairs: int,
            better: str, bound: float) -> str:
    """The claim rule on one metric, given the parent's and the change's
    medians m0 and m1: "gain" when the change wins at least 9 of 10
    pairs and m1 moves past the parent's IQR in the better direction,
    "regression" when m1 is worse than m0 by more than bound * m0, and
    "within bound" otherwise."""
    worse_by = m1 - m0 if better == "lower" else m0 - m1
    if 10 * wins >= 9 * pairs and -worse_by > iqr:
        return "gain"
    return "regression" if worse_by > bound * m0 else "within bound"


def summarize(runs: dict, metrics: dict) -> list[str]:
    """The summary of run_pairs' result: three lines and a markdown table
    with one row per metric; metrics maps each metric to its direction,
    "lower" or "higher", and its bound, as BENCHMARK.json gives them."""
    parent, change = runs["parent"], runs["change"]
    calls = {side: sorted({r["calls_per_pass"] for r in runs[side]})
             for side in SIDES}
    passes = {side: statistics.median(r["passes"] for r in runs[side])
              for side in SIDES}
    lines = [f"{len(parent)} pairs, output_sha256 {parent[0]['sha']} on "
             "every run, 0 failed checks",
             "planner calls per pass: " + ", ".join(
                 f"{side} {calls[side]}" for side in SIDES),
             "median passes per run: " + ", ".join(
                 f"{side} {passes[side]:g}" for side in SIDES),
             "| metric | parent median [Q1, Q3] | change median [Q1, Q3] "
             "| change | wins | parent IQR | beyond IQR | verdict |",
             "| --- | --- | --- | --- | --- | --- | --- | --- |"]
    for name, (direction, bound) in metrics.items():
        old = [r["metrics"][name] for r in parent]
        new = [r["metrics"][name] for r in change]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        (q1, m0, q3), (r1, m1, r3) = (
            statistics.quantiles(xs, n=4, method="inclusive")
            for xs in (old, new))
        lines.append(
            f"| {name} | {m0:.4g} [{q1:.4g}, {q3:.4g}] "
            f"| {m1:.4g} [{r1:.4g}, {r3:.4g}] | {(m1 - m0) / m0:+.1%} "
            f"| {wins}/{len(old)} | {q3 - q1:.4g} "
            f"| {'yes' if abs(m1 - m0) > q3 - q1 else 'no'} "
            f"| {verdict(m0, m1, q3 - q1, wins, len(old), direction, bound)} "
            "|")
    return lines


def _runner(dirs: dict, args):
    def run(side: str) -> str:
        cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=dirs[side], capture_output=True,
                              text=True, timeout=600)
        if proc.returncode != 0:
            raise PairError(f"{side} run exited with {proc.returncode}:\n"
                            f"{proc.stderr}")
        return proc.stdout
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=4)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = {m["name"]: (m["better"], m["bound"])
                   for m in json.load(fh)["end_to_end"]}
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    try:
        runs = run_pairs(_runner(dirs, args), args.pairs)
    except (PairError, subprocess.TimeoutExpired) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, "
          f"--seconds {args.seconds}")
    print("\n".join(summarize(runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
