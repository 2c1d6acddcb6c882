"""Benchmark harness: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload buffer_sweep --seed 0 --seconds 30 \
        --trace 0

Run from the repository root.  The program is imported from `src/` of the
same checkout; nothing needs installing.  Each workload runs in a fresh
interpreter with BLAS/OpenMP pinned to one thread.  With `--trace 0` the
result carries the end-to-end metrics, measured with tracing off; with
`--trace 1` it carries the per-layer metrics of a traced run.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tomllib
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

WORKLOADS = ("service_curve", "buffer_sweep", "baseline_admission")
SETUP_SAMPLES = 10
# A bare interpreter start (`python3 -c pass`) on an undisturbed host;
# set-up times read as seconds on such a host.
BARE_START_REFERENCE_S = 0.05
DEADLINE_S = 170.0
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({name: "1" for name in THREAD_PINS})
    return env


def _run_worker(args, run_dir: Path, extra: list[str],
                deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-root", str(run_dir)] + extra
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish before the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err}")
    result = json.loads(out.strip().splitlines()[-1])
    if not Path(result["prebuf_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported prebuf from {result['prebuf_file']}, "
                         f"not from {SRC}")
    result["setup_s"] = result["ready"] - spawned
    return result


def _bare_start_s() -> float:
    """Seconds from spawning a bare interpreter to its exit."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT,
                   env=_worker_env(), check=True, timeout=60)
    return time.monotonic() - start


def _setup_s(args, run_dir: Path, deadline: float) -> float:
    """Set-up time of one fresh worker, scaled by the host's speed at
    starting processes: the mean time of a bare interpreter start just
    before and just after it.  Process start and import drift with the
    host's load far more than the kernels in hostclock do."""
    before = _bare_start_s()
    setup = _run_worker(args, run_dir, ["--setup-only"], deadline)["setup_s"]
    after = _bare_start_s()
    return setup * BARE_START_REFERENCE_S / ((before + after) / 2)


def _context(args, main: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    with open(ROOT / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "git_commit": commit, "prebuf_version": version,
            "python": main["python"], "numpy": main["numpy"],
            "nproc": os.cpu_count(),
            "thread_pins": {name: "1" for name in THREAD_PINS},
            "output_sha256": main["output_sha256"]}


def measure(args, units: dict, run_dir: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        # the first start compiles bytecode once; later starts reuse it
        setups = [_setup_s(args, run_dir, deadline)
                  for _ in range(SETUP_SAMPLES + 1)][1:]
    main = _run_worker(args, run_dir, [], deadline)

    for problem in main["problems"]:
        print(f"check failed: {problem}")
    print("context " + json.dumps(_context(args, main)))
    if args.trace:
        values = main["layers"]
    else:
        print(f"samples: {main['passes']} passes over {main['units']} "
              f"units, {main['plan_calls']} planner calls, "
              f"{len(setups)} set-ups; unscaled wall_s "
              f"{main['raw_wall_s']:.6g} s")
        values = {"wall_s": main["wall_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": main["peak_rss_mb"]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": main["failed"] == 0, "attempted": main["attempted"],
            "failed": main["failed"], "metrics": metrics}


def _units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for bench/selftest.py")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "prebuf" / "__init__.py").is_file():
        print(f"bench: no prebuf sources under {SRC}", file=sys.stderr)
        return 2
    OUT_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=OUT_ROOT))
    try:
        result = measure(args, _units(args.trace), run_dir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
