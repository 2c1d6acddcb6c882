"""Run the property tests over fresh Hypothesis seeds, outside tier-1.

Tier-1 loads the `derandomized` profile of tests/conftest.py, under which
every @given test draws the same examples whatever `--hypothesis-seed`
says.  This sweep runs the tests that Hypothesis' pytest plugin marks
`hypothesis` (every @given test) under

    python -m pytest -m hypothesis --hypothesis-profile default \
        --hypothesis-seed N tests

for N in SEEDS (1..30), one pytest process per seed, in order, and
prints one "seed N: passed|failed" line each.  A failed run's output
follows its line; Hypothesis prints the falsifying example there, which
belongs in its test as an @example.  A run that selects no test fails
too, since pytest then exits 5.  Exits 1 if a seed fails, and 0
otherwise.

Usage: python tools/seed_sweep.py

Each run takes about ten seconds.  Standard library only.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 31)


def commands(seeds) -> list:
    """One pytest command line per seed, running the tests marked
    `hypothesis` under the default profile with that seed."""
    return [[sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-m", "hypothesis", "--hypothesis-profile", "default",
             "--hypothesis-seed", str(seed), "tests"] for seed in seeds]


def main() -> int:
    failed = []
    for seed, command in zip(SEEDS, commands(SEEDS)):
        run = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True)
        verdict = "passed" if run.returncode == 0 else "failed"
        print(f"seed {seed}: {verdict}", flush=True)
        if run.returncode:
            failed.append(seed)
            print(run.stdout + run.stderr, flush=True)
    print(f"{len(SEEDS)} seeds, {len(failed)} failed"
          + (f": {failed}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
