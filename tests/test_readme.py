"""README.md states what the code does: its layout table, quoted
constants, CLI examples and exit codes match the code, and its INI and
Python examples run as written."""

import argparse
import configparser
import dataclasses
import importlib
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import oracles
import prebuf
from prebuf import cli, load_config

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prebuf"
README = (ROOT / "README.md").read_text()

# `NAME` = 256 or `NAME` = 2**20, and `NAME` (about 1.34e154)
QUOTED = re.compile(r"`([A-Z][A-Z0-9_]*)`\s*=\s*(\d+)(?:\*\*(\d+))?")
ABOUT = re.compile(r"`([A-Z][A-Z0-9_]*)`\s*\(about\s+(\d[\d.]*e\d+)\)")


def fenced(lang: str) -> list:
    """The bodies of README's ```lang blocks, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def section(heading: str) -> str:
    """The text of README's `## heading` section."""
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


# every module of the package but __init__, by name
MODULES = {p.stem: importlib.import_module(f"prebuf.{p.stem}")
           for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}


def code_value(name: str):
    """The one value that modules of the package bind to `name`."""
    values = {vars(m)[name] for m in MODULES.values() if name in vars(m)}
    assert len(values) == 1, f"{name} is bound to {values or 'nothing'}"
    return values.pop()


def cli_examples(text: str) -> list:
    """The argv of each line of `text` that runs `prebuf`, its comment
    stripped."""
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in map(str.strip, text.splitlines())
            if line.startswith("prebuf ")]


README_CLI = cli_examples("".join(fenced("sh")))
DOCSTRING_CLI = cli_examples(cli.__doc__)


def test_layout_table_rows_are_the_package_modules_and_existing_files():
    rows = re.findall(r"^\| `([^`]+)` \|", section("Layout"), re.M)
    modules = [r.removeprefix("prebuf.") for r in rows
               if r.startswith("prebuf.")]
    assert sorted(modules) == sorted(MODULES)
    files = [r for r in rows if not r.startswith("prebuf.")]
    assert files, "the table names no file outside the package"
    for path in files:
        assert (ROOT / path).is_file(), path


def test_checks_row_names_every_check():
    row, = re.findall(r"^\| `prebuf\._checks` \|(.*)$", section("Layout"),
                      re.M)
    named = set(re.findall(r"`(\w+)`", row))
    checks = MODULES["_checks"]
    functions = {name for name, value in vars(checks).items()
                 if callable(value) and value.__module__ == checks.__name__}
    assert functions <= named
    assert named - {"int", "float"} <= set(vars(checks))


def test_quoted_constants_equal_the_code():
    quoted = QUOTED.findall(README)
    assert {"TRACE_BLOCK", "MAX_COUNT", "MAX_LEDGER_SLOTS"} <= {
        name for name, _, _ in quoted}
    for name, base, exponent in quoted:
        value = int(base) ** int(exponent or 1)
        assert code_value(name) == value, f"README: `{name}` = {value}"
    about = ABOUT.findall(README)
    assert "MAX_SIGMA_DB" in {name for name, _ in about}
    for name, text in about:
        # "about" holds to the 3 significant digits README gives
        assert f"{code_value(name):.3g}" == f"{float(text):.3g}", name


@pytest.mark.parametrize("argv", README_CLI + DOCSTRING_CLI,
                         ids=" ".join)
def test_cli_example_parses(argv):
    cli.build_parser().parse_args(argv)


def test_cli_examples_cover_every_subcommand():
    subcommands, = (action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for examples in (README_CLI, DOCSTRING_CLI):
        assert {argv[0] for argv in examples} == set(subcommands)


def test_exit_codes_match_the_cli():
    codes = (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INFEASIBLE)
    for text in (README, cli.__doc__):
        match = re.search(r"Exit codes: (\d) success, (\d) config error, "
                          r"(\d) infeasible scenario", " ".join(text.split()))
        assert match, "no exit codes stated"
        assert tuple(map(int, match.groups())) == codes


def test_ini_example_loads_with_the_values_it_sets(tmp_path):
    ini, = fenced("ini")
    path = tmp_path / "scenario.ini"
    path.write_text(ini)
    config = load_config(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(ini)
    assert parser.sections()
    for name in parser.sections():
        owner = config if name == "scenario" else getattr(config, name)
        for key, raw in parser.items(name):
            want = [float(x) for x in raw.replace(",", " ").split()]
            got = np.ravel(getattr(owner, key)).tolist()
            assert got == want, f"[{name}] {key}"


def test_python_examples_run_in_order():
    blocks = fenced("python")
    assert blocks
    namespace = {}                    # a later block uses an earlier cfg
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_named_tests_exist():
    classes = set(re.findall(r"`(Test\w+)`", README))
    assert {"TestLinkContract", "TestPlanContract",
            "TestAdmissionContract"} <= classes
    defined = {name for path in (ROOT / "tests").glob("test_*.py")
               for name in re.findall(r"^class (Test\w+)", path.read_text(),
                                      re.M)}
    assert classes <= defined
    for path in re.findall(r"`(tests/[\w/]+\.py)`", README):
        assert (ROOT / path).is_file(), path


def test_fast_path_pointers_name_existing_code():
    paragraph, = (p for p in README.split("\n\n")
                  if p.startswith("How each fast path works"))
    names = re.findall(r"`(\w+)`", paragraph)
    assert "_ARRAY_STREAMS" in names
    modules = [*MODULES.values(), oracles]
    for name in names:
        assert any(hasattr(module, name) for module in modules), name


@pytest.mark.parametrize("cls", [prebuf.RequestRecord, prebuf.BufferTimeline,
                                 prebuf.AllocationPlan],
                         ids=lambda cls: cls.__name__)
def test_record_fields_are_the_dataclass_fields(cls):
    listed, = re.findall(rf"`{cls.__name__}\(([^)]*)\)`", README)
    assert re.split(r",\s*", listed) \
        == [f.name for f in dataclasses.fields(cls)]
