"""Run hand-written mutants of src/prebuf against the tier-1 tests.

Each mutant replaces one exact text in one module of src/prebuf.  The
harness copies src/, tests/, bench/, tools/, pyproject.toml and
README.md (tests/test_readme.py reads it) to a temporary directory,
runs tier-1 there once unmutated (it must pass), and then once per
mutant with that mutant alone applied.  Criterion 5 of
tests/test_acceptance.py is deselected, since it fails on the unmutated
code, and tests/test_mutants.py is left out, since it fails on every
mutant (it finds the original text gone).  A mutant is killed if the
run fails, or if it outlasts its timeout (a mutant may make a loop
endless): TIMEOUT_FACTOR times the unmutated run's time plus
TIMEOUT_MARGIN_S.  A run that times out is killed with its process
group and reaped.

Usage: python tools/mutants.py

Prints the timeout, then "killed", "killed (timeout)" or "survived" for
each mutant of MUTANTS.  Exits 1 if a mutant not marked equivalent
survives, 2 if the unmutated run fails, and 0 otherwise.  Each run takes
about as long as tier-1.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "tools", "pyproject.toml", "README.md")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
          "no:cacheprovider", "--ignore", "tests/test_mutants.py",
          "--deselect",
          "tests/test_acceptance.py::test_criterion_5_buffer_sweep_trend"]
# A mutant's run may take this many times the unmutated run, plus the
# margin, before it counts as killed.
TIMEOUT_FACTOR = 3.0
TIMEOUT_MARGIN_S = 10.0


class Mutant(NamedTuple):
    name: str
    path: str            # module under src/prebuf
    original: str        # occurs exactly once in the module
    mutated: str
    equivalent: str = ""   # why no input can tell it apart, if none can


MUTANTS = [
    # tolerances and tie rules
    Mutant("queue-tie", "planner.py",
           "while window and cs[window[-1]] <= cs[t]:",
           "while window and cs[window[-1]] < cs[t]:"),
    Mutant("need-tol", "planner.py", "while need > tol:",
           "while need > 0.0:"),
    Mutant("edge-scan", "planner.py",
           "while z_max - carry[edge] > tol:",
           "while z_max - carry[edge] >= tol:"),
    Mutant("carry-limit-slack", "playout.py",
           "limit = spec.max_carryover_bits + 1e-6 * v",
           "limit = spec.max_carryover_bits + 1e-3 * v"),
    Mutant("ledger-dust-clamp", "admission.py",
           "np.maximum(window, 0.0, out=window)", "pass"),
    Mutant("planner-tol", "planner.py", "tol = 1e-12 * V",
           "tol = 1e-6 * V"),
    Mutant("front-ran-out", "planner.py", "if supply[best] <= tol:",
           "if supply[best] <= 0.0:"),
    Mutant("zero-cap", "planner.py", "if z_max <= tol:",
           "if z_max < tol:"),
    # the carried peak: taken only at the last path's own front, and
    # raised by each path's amount
    Mutant("carried-peak-front", "planner.py",
           "last_top if best == last else", "last_top if best >= last else"),
    Mutant("carried-peak-update", "planner.py",
           "last, last_top = best, top + amount",
           "last, last_top = best, top"),
    Mutant("window-entry", "planner.py", "if supply[t] > tol:",
           "if supply[t] > 0.0:"),
    Mutant("outage-slack", "playout.py", "PLAYABLE_SHARE = 1.0 - 1e-9",
           "PLAYABLE_SHARE = 1.0 - 1e-6"),
    Mutant("baseline-first-slot-slack", "admission.py",
           "* float(window[0]) >= playable)",
           "* float(window[0]) >= playable * (1.0 - 1e-6))"),
    Mutant("baseline-skip-fold", "admission.py",
           'if kind == "baseline" and plan.feasible:',
           'if kind == "baseline":'),
    Mutant("carry-cap-entry", "playout.py", "max(carry) > limit",
           "max(carry) >= limit"),
    Mutant("carry-cap-final", "playout.py", "or z > limit",
           "or z >= limit"),
    Mutant("ledger-guard", "admission.py", "if low < -1e-7:",
           "if low < -1e-3:"),
    Mutant("ledger-dust-condition", "admission.py", "if low < 0.0:",
           "if low < -1e-8:"),
    Mutant("baseline-feasible-slack", "planner.py",
           "< spec.bits_per_slot * PLAYABLE_SHARE\n",
           "< spec.bits_per_slot\n"),
    Mutant("serving-tie", "link.py",
           "better = bs_gain[:, i] > gain",
           "better = bs_gain[:, i] >= gain",
           "Two BS gains tie exactly only at equal distances when "
           "unshadowed, where path loss takes one value for both, and with "
           "probability ~0 when shadowed, so the serving BS's gain, "
           "distance and capacity are the same either way."),
    # a sweep's cap specs: copies of the checked video with the cap set
    Mutant("cap-copy", "playout.py",
           "spec.__dict__.update(vars(self), max_carryover_bits=cap)",
           "spec.__dict__.update(vars(self))"),
    # one rule per input kind
    Mutant("residual-bound", "planner.py",
           "spec.num_slots, 0.0)", "spec.num_slots)"),
    Mutant("bool-arrays", "_checks.py",
           'if array.dtype.kind not in "bc":',
           'if array.dtype.kind not in "c":'),
    # array seeding: only single-shape blocks, one hash count per block
    Mutant("array-shape-clause", "link.py",
           "if count < _ARRAY_STREAMS or len(\n            "
           "{(ss.pool_size, _hash_count(ss)) for ss in seeds}) > 1:",
           "if count < _ARRAY_STREAMS:"),
    Mutant("block-hash-count", "link.py",
           "p, n = seeds[0].pool_size, _hash_count(seeds[0])",
           "p, n = seeds[0].pool_size, seeds[0].pool_size ** 2"),
    Mutant("seed-check-int", "link.py",
           "np.random.SeedSequence(check_int(seed, name, 0))",
           "np.random.SeedSequence(seed)"),
]


def apply(mutant: Mutant, source: str) -> str:
    """source with the mutant's original text replaced; a ValueError if
    the original does not occur exactly once."""
    count = source.count(mutant.original)
    if count != 1:
        raise ValueError(f"{mutant.name}: original text occurs {count} "
                         f"times in {mutant.path}")
    return source.replace(mutant.original, mutant.mutated)


def run_tier1(copy: Path, timeout: float | None = None,
              command: list = PYTEST) -> str:
    """"passed", "failed" or "timeout" of command (tier-1 by default) run
    in copy; after `timeout` seconds its process group is killed and the
    process reaped."""
    # No bytecode is cached: a mutant and its restored original have the
    # same size and may share an mtime second, and a stale .pyc of one
    # would run for the other.
    with subprocess.Popen(command, cwd=copy, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True,
                          env={**os.environ,
                               "PYTHONDONTWRITEBYTECODE": "1"}) as run:
        try:
            return "passed" if run.wait(timeout) == 0 else "failed"
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            run.wait()
            return "timeout"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="prebuf-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.
                                ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        start = time.monotonic()
        if run_tier1(copy) != "passed":
            print("tier-1 fails on the unmutated copy", file=sys.stderr)
            return 2
        timeout = (TIMEOUT_FACTOR * (time.monotonic() - start)
                   + TIMEOUT_MARGIN_S)
        print(f"timeout per mutant: {timeout:.1f} s", flush=True)
        survivors = []
        for mutant in MUTANTS:
            path = copy / "src" / "prebuf" / mutant.path
            source = path.read_text()
            path.write_text(apply(mutant, source))
            outcome = run_tier1(copy, timeout)
            path.write_text(source)
            killed = outcome != "passed"
            verdict = {"passed": "survived", "failed": "killed",
                       "timeout": "killed (timeout)"}[outcome]
            if not killed and mutant.equivalent:
                verdict += " (equivalent)"
            elif not killed:
                survivors.append(mutant.name)
            print(f"{verdict:23} {mutant.name}", flush=True)
    print(f"{len(MUTANTS)} mutants, {len(survivors)} not equivalent survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
