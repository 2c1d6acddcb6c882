"""Every float input of the config classes and the scalar link functions
is checked one way: NaN, out-of-range infinities, values out of range and
bools are rejected by a message that names the field, and what passes is
stored as a Python float or int."""

import ast
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import prebuf
from prebuf import (AdmissionConfig, ChannelTrace, LinkBudget,
                    ScenarioConfig, ShadowingConfig, VideoSpec,
                    default_video_spec, path_loss_db, per_prb_bits,
                    simulate_playback)
from prebuf._checks import MAX_COUNT
from prebuf.link import MAX_SIGMA_DB


def video(**kw):
    return replace(default_video_spec(), **kw)


def bs_position(index):
    """ScenarioConfig with its BS position `index` set to a value."""
    def build(value):
        positions = [0.0, 550.0]
        positions[index] = value
        return ScenarioConfig(bs_positions_m=tuple(positions))
    return build


def field_of(factory, name):
    return lambda value: factory(**{name: value})


# (field name in the message, build from one value, values out of range,
# inf is legal)
FLOAT_FIELDS = [
    ("bits_per_slot", field_of(video, "bits_per_slot"), [0.0, -1.0], False),
    ("slot_duration_s", field_of(video, "slot_duration_s"), [0.0, -1.0],
     False),
    ("max_carryover_bits", field_of(video, "max_carryover_bits"), [-1.0],
     True),
    ("total_power_dbm", field_of(LinkBudget, "total_power_dbm"), [], False),
    ("prb_bandwidth_hz", field_of(LinkBudget, "prb_bandwidth_hz"),
     [0.0, -1.0], False),
    ("noise_psd_dbm_hz", field_of(LinkBudget, "noise_psd_dbm_hz"), [],
     False),
    ("noise_figure_db", field_of(LinkBudget, "noise_figure_db"), [], False),
    ("interference_psd_dbm_hz", field_of(LinkBudget,
                                         "interference_psd_dbm_hz"),
     [], False),
    ("snr_gap_db", field_of(LinkBudget, "snr_gap_db"), [-1.0], False),
    ("min_bs_distance_m", field_of(LinkBudget, "min_bs_distance_m"),
     [0.0, -1.0], False),
    ("sigma_db", field_of(ShadowingConfig, "sigma_db"),
     [-1.0, math.nextafter(MAX_SIGMA_DB, math.inf)], False),
    ("decorrelation_m", field_of(ShadowingConfig, "decorrelation_m"),
     [-1.0], True),
    ("user_start_m", field_of(ScenarioConfig, "user_start_m"), [], False),
    ("user_speed_mps", field_of(ScenarioConfig, "user_speed_mps"),
     [0.0, -1.0], False),
    ("bs_positions_m[0]", bs_position(0), [], False),
    ("bs_positions_m[1]", bs_position(1), [], False),
    ("mean_interarrival_s",
     lambda v: AdmissionConfig(total_requests=1, mean_interarrival_s=v),
     [0.0, -1.0], False),
    ("available_prbs",
     lambda v: AdmissionConfig(total_requests=1, available_prbs=v),
     [-1.0, 2.0 * MAX_COUNT, 1e308], False),
]


def bad_values(out_of_range, inf_ok):
    return [math.nan, -math.inf, *([] if inf_ok else [math.inf]),
            *out_of_range, True, np.float64(math.nan)]


@pytest.mark.parametrize("name, build, bad", [
    pytest.param(name, build, bad, id=f"{name}-{bad!r}")
    for name, build, out_of_range, inf_ok in FLOAT_FIELDS
    for bad in bad_values(out_of_range, inf_ok)])
def test_bad_float_field_rejected(name, build, bad):
    with pytest.raises(ValueError) as exc:
        build(bad)
    # exactly ValueError: a library input error is not a ConfigError
    assert type(exc.value) is ValueError
    assert name in str(exc.value)


@pytest.mark.parametrize("name, build", [
    pytest.param(name, build, id=name)
    for name, build, _, inf_ok in FLOAT_FIELDS if inf_ok])
def test_inf_accepted_where_legal(name, build):
    assert getattr(build(math.inf), name) == math.inf


def test_narrow_numpy_float_compared_as_float():
    # cast to float32, the least positive float would round to 0 (with a
    # numpy warning) and 0 would pass as > 0
    with pytest.raises(ValueError, match="bits_per_slot"):
        video(bits_per_slot=np.float32(0.0))
    assert video(bits_per_slot=np.float32(1.0)).bits_per_slot == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scalar_link_functions_reject_nonfinite(bad):
    with pytest.raises(ValueError, match="distance_km"):
        path_loss_db(bad)
    with pytest.raises(ValueError, match="gain_db"):
        per_prb_bits(bad, LinkBudget(), 1 / 6)
    with pytest.raises(ValueError, match="slot_duration_s"):
        per_prb_bits(-80.0, LinkBudget(), bad)


# Every numeric field of each config, at a value that np.float32, np.int64
# and np.uint64 all hold exactly and that the field accepts.
NUMERIC_FIELDS = {
    VideoSpec: {"bits_per_slot": 250_000, "slot_duration_s": 1,
                "num_slots": 4, "max_carryover_bits": 500_000},
    LinkBudget: {"total_power_dbm": 46, "num_system_prbs": 50,
                 "prb_bandwidth_hz": 180_000, "noise_psd_dbm_hz": 0,
                 "noise_figure_db": 9, "interference_psd_dbm_hz": 0,
                 "snr_gap_db": 0, "min_bs_distance_m": 35},
    ShadowingConfig: {"sigma_db": 10, "decorrelation_m": 50},
    ScenarioConfig: {"user_start_m": 35, "user_speed_mps": 30, "seed": 0},
    AdmissionConfig: {"total_requests": 3, "mean_interarrival_s": 1,
                      "available_prbs": 15, "seed": 0},
}


@pytest.mark.parametrize("kind", [np.float32, np.int64, np.uint64])
@pytest.mark.parametrize("cls", NUMERIC_FIELDS, ids=lambda c: c.__name__)
def test_configs_store_python_numbers(cls, kind):
    values = NUMERIC_FIELDS[cls]
    ints = {f.name for f in fields(cls) if f.type == "int"}
    # an int field takes no float, so it gets np.int64 in the float32 case
    config = cls(**{name: (np.int64 if kind is np.float32 and name in ints
                           else kind)(value)
                    for name, value in values.items()})
    for name, value in values.items():
        stored = getattr(config, name)
        assert type(stored) is (int if name in ints else float), name
        assert stored == value, name


@pytest.mark.parametrize("kind", [np.float32, np.int64, np.uint64, float])
def test_array_positions_stored_as_a_tuple_of_floats(kind):
    config = ScenarioConfig(bs_positions_m=np.array([0, 550], dtype=kind))
    assert config.bs_positions_m == (0.0, 550.0)
    assert all(type(x) is float for x in config.bs_positions_m)
    assert config == ScenarioConfig()
    assert hash(config) == hash(ScenarioConfig())


def test_float32_video_plays_as_python_floats():
    plan = [500_000.01, 0.0, 250_000.0, 250_000.0]
    narrow = VideoSpec(np.float32(250_000.0), 1 / 6, 4,
                       np.float32(500_000.0))
    wide = VideoSpec(250_000.0, 1 / 6, 4, 500_000.0)
    assert simulate_playback(plan, narrow).carryover_bits.tobytes() \
        == simulate_playback(plan, wide).carryover_bits.tobytes()


@pytest.mark.parametrize("values", [
    np.array([3e5 + 0j] * 4), np.complex128(3e5), [np.complex64(3e5)] * 4,
    [3e5, 3e5, 3e5, 3e5 + 1j]], ids=["array", "scalar", "list", "mixed"])
def test_complex_arrays_rejected(values):
    spec = VideoSpec(250_000.0, 1 / 6, 4, 500_000.0)
    with pytest.raises(ValueError, match="plan_received must be real"):
        simulate_playback(values, spec)
    with pytest.raises(ValueError, match="bits_per_prb must be real"):
        ChannelTrace(np.full(4, 100.0), np.zeros(4), values)


# Handlers that catch OverflowError, by exception name; None is a bare
# except.
CATCHES_OVERFLOW = {None, "OverflowError", "ArithmeticError", "Exception",
                    "BaseException"}


def overflow_handlers(node, where):
    """(module, function) of every handler under node that catches
    OverflowError; where is node's enclosing function or class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            caught = child.type
            names = (caught.elts if isinstance(caught, ast.Tuple)
                     else [caught])
            if any(getattr(n, "id", n) in CATCHES_OVERFLOW for n in names):
                yield where
        inner = (where[:1] + (child.name,) if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else where)
        yield from overflow_handlers(child, inner)


def test_overflow_caught_only_at_conversion_and_in_linear_units():
    # an overflow in linear units becomes inf where it happens, and every
    # other layer reports it at its finiteness check
    package = Path(prebuf.__file__).parent
    found = {where for path in sorted(package.glob("*.py"))
             for where in overflow_handlers(ast.parse(path.read_text()),
                                            (path.stem, None))}
    assert found == {("_checks", "check_real"), ("_checks", "real_array"),
                     ("link", "db_to_linear"), ("link", "_capacities")}


def package_imports(tree):
    """The prebuf modules a module's AST imports, relatively or by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "prebuf" + ("." + module if module else "")
            if module == "prebuf":
                yield from ("prebuf." + alias.name for alias in node.names)
            else:
                yield module


# Each module's prebuf imports, in the pipeline's order: link model and
# play-out recursion, planner, admission ledger, drivers, command line.  No
# stage reads from a later one; the simplex is a stand-alone reference.
PIPELINE_IMPORTS = {
    "_checks": set(),
    "simplex": set(),
    "link": {"_checks"},
    "playout": {"_checks"},
    "planner": {"_checks", "link", "playout"},
    "admission": {"_checks", "link", "playout", "planner"},
    "scenario": {"_checks", "link", "playout", "planner", "admission"},
    "cli": {"_checks", "admission", "scenario"},
}


def test_pipeline_covers_the_package():
    package = Path(prebuf.__file__).parent
    assert {path.stem for path in package.glob("*.py")} \
        == set(PIPELINE_IMPORTS) | {"__init__"}


@pytest.mark.parametrize("stem", sorted(PIPELINE_IMPORTS))
def test_imports_follow_the_pipeline(stem):
    path = Path(prebuf.__file__).parent / f"{stem}.py"
    imported = {name for name in package_imports(ast.parse(path.read_text()))
                if name.split(".")[0] == "prebuf"}
    assert imported == {f"prebuf.{name}" for name in PIPELINE_IMPORTS[stem]}
