"""tools/seed_sweep.py names every @given test of the suite and builds one
command line per seed under the default profile.  The sweep itself runs
pytest once per seed and is not part of tier-1; these tests start no
process."""

import importlib
import importlib.util
import sys
from pathlib import Path

from hypothesis.internal.detection import is_hypothesis_test

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "seed_sweep", ROOT / "tools" / "seed_sweep.py")
seed_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_sweep)


def hypothesis_tests():
    """The ids of the @given tests, found by importing each test module
    and asking Hypothesis, not by reading the source."""
    found = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        module = importlib.import_module(path.stem)
        prefix = f"tests/{path.name}"
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, type):
                found.update(f"{prefix}::{name}::{attr}"
                             for attr, method in vars(value).items()
                             if is_hypothesis_test(method))
            elif name.startswith("test") and is_hypothesis_test(value):
                found.add(f"{prefix}::{name}")
    return found


def test_sweep_runs_every_given_test():
    tests = seed_sweep.given_tests()
    assert len(set(tests)) == len(tests)
    assert set(tests) == hypothesis_tests()
    assert "tests/test_planner.py::TestWindowSearchBytes::" \
           "test_falling_capacities_property" in tests


def test_one_command_per_seed_under_the_default_profile():
    tests = seed_sweep.given_tests()
    lines = seed_sweep.commands(range(1, 31), tests)
    assert len(lines) == 30
    for seed, line in enumerate(lines, start=1):
        assert line[:3] == [sys.executable, "-m", "pytest"]
        flags = line[3:len(line) - len(tests)]
        assert line[len(line) - len(tests):] == tests
        # the derandomized profile would draw the same examples for
        # every seed, so each run names the default one and its seed
        assert flags[flags.index("--hypothesis-profile") + 1] == "default"
        assert flags[flags.index("--hypothesis-seed") + 1] == str(seed)
        assert "derandomized" not in " ".join(line)


def test_sweeps_seeds_one_to_thirty(monkeypatch):
    # the seeds main runs, read from the lines it would run: no process starts
    ran = []

    def fake_run(command, **kwargs):
        ran.append(command)
        return type("Run", (), {"returncode": 0, "stdout": "",
                                "stderr": ""})()

    monkeypatch.setattr(seed_sweep.subprocess, "run", fake_run)
    assert seed_sweep.main() == 0
    assert seed_sweep.SEEDS == range(1, 31)
    assert ran == seed_sweep.commands(seed_sweep.SEEDS,
                                      seed_sweep.given_tests())
