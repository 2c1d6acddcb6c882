"""One benchmark process: set up a workload, time passes over it, check.

Started by `run.py` in a fresh interpreter with `src` on PYTHONPATH and
BLAS/OpenMP pinned to one thread.  Prints one JSON object on its last
stdout line.  `--setup-only` stops once the inputs are built, so the
harness can time interpreter start, import and input generation alone.

A pass runs every unit of the workload once; passes repeat until the
time is up.  Times are scaled by the host's speed as `hostclock` measures
it with the workload's kernel, and read as seconds on an undisturbed host.
wall_s is the sum over units of each unit's median scaled time over
passes.  Planner-call latencies pool the calls of every untraced pass,
each scaled by its unit's mean factor.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import prebuf
import hostclock
import tracing
import workloads


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _run_unit(workload, inputs, unit, out_root, traced):
    """One unit: (scale, wall seconds, planner call ms, output, tracer);
    multiply a time by scale to get host-normalised time."""
    tracer = tracing.Tracer(workload.plan_site, site_only=not traced)
    clock = hostclock.HostClock(workload.speed_kernel)
    tracer.probe = clock.probe
    with tempfile.TemporaryDirectory(dir=out_root) as out, tracer.install():
        clock.start()
        output = workload.run_unit(inputs, unit, Path(out), tracer.kept)
        clock.stop()
        tracer.written = sum(p.stat().st_size for p in Path(out).iterdir())
    tracer.scale = clock.scaled_s / clock.raw_s
    return (tracer.scale, clock.raw_s, [ms for ms, _ in tracer.kept],
            output, tracer)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out-root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed,
                            workloads.SIZES[workload.name][args.size])
    result = {"ready": time.monotonic(), "prebuf_file": prebuf.__file__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    units = inputs["units"]
    scaled = [[] for _ in units]          # per unit: scaled wall per pass
    raw = [[] for _ in units]
    traced_runs = [[] for _ in units]     # per unit: (scaled wall, tracer)
    plan_ms: list[float] = []
    outputs = [None] * len(units)
    digests = [None] * len(units)
    check = workloads.Check()
    passes = 0
    started = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes
        traced = bool(args.trace) and passes % 2 == 1
        for i, unit in enumerate(units):
            scale, wall, calls_ms, output, tracer = _run_unit(
                workload, inputs, unit, args.out_root, traced)
            if outputs[i] is None:
                outputs[i], digests[i] = output, workloads.digest(output)
            else:
                check.expect(workloads.digest(output) == digests[i],
                             f"unit {i}: pass {passes + 1} output differs "
                             "from the first")
            if traced:
                traced_runs[i].append((wall * scale, tracer))
            else:
                scaled[i].append(wall * scale)
                raw[i].append(wall)
                plan_ms.extend(ms * scale for ms in calls_ms)
        passes += 1
        elapsed = time.perf_counter() - started
        enough = passes >= (2 if args.trace else 1)
        if enough and elapsed * (1 + 1 / passes) > args.seconds:
            break

    outcome = workload.check(inputs, outputs)
    check.attempted += outcome.attempted
    check.failed += outcome.failed
    wall_s = sum(statistics.median(w) for w in scaled)
    result.update({
        "attempted": check.attempted,
        "failed": check.failed,
        "problems": (outcome.problems + check.problems)[:20],
        "output_sha256": workloads.digest(digests),
        "passes": passes,
        "units": len(units),
        "plan_calls": len(plan_ms),
        "wall_s": wall_s,
        "raw_wall_s": sum(statistics.median(w) for w in raw),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    })
    if args.trace:
        # per unit, the traced pass of median scaled wall
        chosen = [sorted(runs, key=lambda r: r[0])[(len(runs) - 1) // 2]
                  for runs in traced_runs]
        traced_wall = sum(w for w, _ in chosen)
        tracers = [t for _, t in chosen]
        result["layers"] = tracing.layer_metrics(
            tracers, sum(t.written for t in tracers))
        result["layers"].update({
            "planner.call.p50_ms": _percentile(plan_ms, 50),
            "planner.call.p90_ms": _percentile(plan_ms, 90),
            "trace.overhead_frac": (traced_wall - wall_s) / wall_s})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
