"""The mutant list of tools/mutants.py stays in step with src/prebuf: each
mutant's original text occurs exactly once in its module, and the mutated
module still parses, so a mutant is killed by a test, not by a syntax
error.  The harness itself runs tier-1 once per mutant and is not part
of tier-1."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutant_names_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS,
                         ids=[m.name for m in mutants.MUTANTS])
def test_mutant_applies_once_and_parses(mutant):
    source = (ROOT / "src" / "prebuf" / mutant.path).read_text()
    assert source.count(mutant.original) == 1
    mutated = mutants.apply(mutant, source)
    assert mutated != source
    ast.parse(mutated)

