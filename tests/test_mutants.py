"""The mutant list of tools/mutants.py stays in step with src/prebuf: each
mutant's original text occurs exactly once in its module, and the mutated
module still parses, so a mutant is killed by a test, not by a syntax
error.  The harness itself runs tier-1 once per mutant and is not part
of tier-1; its runner is tested here on one-line commands."""

import ast
import os
import time

import pytest

import mutants


def test_mutant_names_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS,
                         ids=[m.name for m in mutants.MUTANTS])
def test_mutant_applies_once_and_parses(mutant):
    source = (mutants.ROOT / "src" / "prebuf" / mutant.path).read_text()
    assert source.count(mutant.original) == 1
    mutated = mutants.apply(mutant, source)
    assert mutated != source
    ast.parse(mutated)


@pytest.mark.parametrize("code, timeout, outcome", [
    ("true", None, "passed"), ("exit 1", None, "failed"),
    ("exec sleep 60", 0.5, "timeout")])
def test_run_outcome_and_timeout_kills_and_reaps(tmp_path, code, timeout,
                                                 outcome):
    # an endless mutant counts as killed, and its process is gone: not
    # left running, nor a zombie, which os.kill(pid, 0) would still find
    pid_file = tmp_path / "pid"
    command = ["sh", "-c", f"echo $$ > {str(pid_file)!r}; {code}"]
    start = time.monotonic()
    assert mutants.run_tier1(tmp_path, timeout, command) == outcome
    assert time.monotonic() - start < 30.0
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)
