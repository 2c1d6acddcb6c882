"""tools/seed_sweep.py builds one command line per seed, selecting the
tests Hypothesis' pytest plugin marks `hypothesis` under the default
profile.  The sweep itself runs pytest once per seed and is not part of
tier-1; these tests start no process."""

import sys

import seed_sweep


def test_one_command_per_seed_under_the_default_profile():
    lines = seed_sweep.commands(range(1, 31))
    assert len(lines) == 30
    for seed, line in enumerate(lines, start=1):
        assert line[:3] == [sys.executable, "-m", "pytest"]
        assert line[-1] == "tests"
        flags = line[3:-1]
        assert flags[flags.index("-m") + 1] == "hypothesis"
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
    assert ran == seed_sweep.commands(seed_sweep.SEEDS)
