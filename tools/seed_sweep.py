"""Run the property tests over fresh Hypothesis seeds, outside tier-1.

Tier-1 loads the `derandomized` profile of tests/conftest.py, under which
every @given test draws the same examples whatever `--hypothesis-seed`
says.  This sweep runs each @given test of tests/ under

    python -m pytest --hypothesis-profile default --hypothesis-seed N

for N in SEEDS (1..30), one pytest process per seed,
in order, and prints one "seed N: passed|failed" line each.  A failed
run's output follows its line; Hypothesis prints the falsifying example
there, which belongs in its test as an @example.  Exits 1 if a seed
fails, and 0 otherwise.

Usage: python tools/seed_sweep.py

Each run takes a few seconds.  Standard library only.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 31)


def _is_given(decorator: ast.expr) -> bool:
    func = getattr(decorator, "func", None)
    return getattr(func, "id", getattr(func, "attr", None)) == "given"


def given_tests(root: Path = ROOT) -> list:
    """The pytest ids, tests/<file>::[<Class>::]<name>, of every test
    function or method under a @given decorator in tests/test_*.py, in
    file and line order."""
    ids = []
    for path in sorted((root / "tests").glob("test_*.py")):
        module = ast.parse(path.read_text())
        prefix = path.relative_to(root).as_posix()
        for node in module.body:
            scope = [(node, prefix)]
            if isinstance(node, ast.ClassDef):
                scope = [(item, f"{prefix}::{node.name}")
                         for item in node.body]
            ids.extend(f"{where}::{item.name}" for item, where in scope
                       if isinstance(item, ast.FunctionDef)
                       and any(map(_is_given, item.decorator_list)))
    return ids


def commands(seeds, tests: list) -> list:
    """One pytest command line per seed, running `tests` under the
    default profile with that seed."""
    return [[sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--hypothesis-profile", "default", "--hypothesis-seed",
             str(seed), *tests] for seed in seeds]


def main() -> int:
    failed = []
    for seed, command in zip(SEEDS, commands(SEEDS, given_tests())):
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
