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
from prebuf._checks import MAX_COUNT, check_int, check_items, check_real
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
                     ("link", "db_to_linear")}


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


# Every 1-D array argument of the pipeline, as a function of that one
# argument with the others valid, and whether its length is fixed by the
# other arguments.  Positions take any length, and distances_m sets the
# trace's.
ARRAY_SLOTS = 4
ARRAY_SPEC = VideoSpec(250_000.0, 1 / 6, ARRAY_SLOTS, 500_000.0)
TRACE_COLUMNS = {"distances_m": np.full(ARRAY_SLOTS, 100.0),
                 "gain_db": np.zeros(ARRAY_SLOTS),
                 "bits_per_prb": np.full(ARRAY_SLOTS, 3e5)}


def trace_with(name):
    return lambda values: ChannelTrace(**{**TRACE_COLUMNS, name: values})


def planned_with(plan):
    return lambda values: plan(ARRAY_SPEC, ChannelTrace(**TRACE_COLUMNS),
                               values)


def positions_with(name):
    args = {"trajectory_m": [35.0, 40.0, 45.0, 50.0],
            "bs_positions_m": [0.0, 550.0]}
    return lambda values: prebuf.build_traces(
        **{**args, name: values}, budget=LinkBudget(),
        slot_duration_s=1 / 6, seeds=[0])


ARRAY_ARGS = [
    ("plan_received", lambda values: simulate_playback(values, ARRAY_SPEC),
     True),
    ("residual_prbs", planned_with(prebuf.plan_anticipatory), True),
    ("residual_prbs", planned_with(prebuf.plan_baseline), True),
    ("distances_m", trace_with("distances_m"), False),
    ("gain_db", trace_with("gain_db"), True),
    ("bits_per_prb", trace_with("bits_per_prb"), True),
    ("trajectory_m", positions_with("trajectory_m"), False),
    ("bs_positions_m", positions_with("bs_positions_m"), False),
]
ARRAY_IDS = ["simulate_playback", "plan_anticipatory", "plan_baseline",
             "distances_m", "gain_db", "bits_per_prb", "trajectory_m",
             "bs_positions_m"]


GOOD = np.full(ARRAY_SLOTS, 300_000.0)
# each bad shape, and whether it is bad only where the length is fixed
SHAPE_CASES = {"1xT": (GOOD.reshape(1, -1), False),
               "Tx1": (GOOD.reshape(-1, 1), False), "0-d": (GOOD[0], False),
               "empty": (GOOD[:0], False), "short": (GOOD[:-1], True),
               "long": (np.append(GOOD, GOOD[0]), True)}


@pytest.mark.parametrize("name, call, fixed_length, values", [
    pytest.param(name, call, fixed, values, id=f"{case_id}-{shape}")
    for (name, call, fixed), case_id in zip(ARRAY_ARGS, ARRAY_IDS)
    for shape, (values, length_only) in SHAPE_CASES.items()
    if fixed or not length_only])
def test_array_shape_rejected(name, call, fixed_length, values):
    want = (f"{ARRAY_SLOTS} elements" if fixed_length
            else "at least 1 element")
    with pytest.raises(ValueError) as exc:
        call(values)
    assert type(exc.value) is ValueError
    assert str(exc.value) == (f"{name} must be 1-D with {want}, got shape "
                              f"{values.shape}")


@pytest.mark.parametrize("name, call, fixed_length, values", [
    pytest.param(*arg, values, id=case_id + suffix)
    for arg, case_id in zip(ARRAY_ARGS, ARRAY_IDS)
    for suffix, values in [("", GOOD), ("-bool-and-floats",
                                         [True, *GOOD[1:]])]])
def test_array_of_right_shape_accepted(name, call, fixed_length, values):
    # the shape cases above fail on their shape alone; numpy reads a bool
    # among floats as a float
    call(values)


@pytest.mark.parametrize("values", [np.ones(ARRAY_SLOTS, dtype=bool),
                                    [True] * ARRAY_SLOTS],
                         ids=["array", "list"])
@pytest.mark.parametrize("name, call, fixed_length",
                         [pytest.param(*arg, id=case_id)
                          for arg, case_id in zip(ARRAY_ARGS, ARRAY_IDS)])
def test_bool_array_rejected(name, call, fixed_length, values):
    # bools are no real numbers, as check_real and check_int hold
    with pytest.raises(ValueError) as exc:
        call(values)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"{name} must be real numbers, got bool"


def test_row_plan_names_its_shape():
    # a (1, T) plan has T elements but is not 1-D
    spec = default_video_spec()
    with pytest.raises(ValueError, match=r"plan_received must be 1-D with 96 "
                                         r"elements, got shape \(1, 96\)"):
        simulate_playback(np.full((1, 96), spec.bits_per_slot), spec)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_trace_distances_finite_and_non_negative(bad):
    for slot in (0, 2, 3):                      # first, middle and last
        distances = np.full(ARRAY_SLOTS, 100.0)
        distances[slot] = bad
        with pytest.raises(ValueError, match="distances_m must be finite "
                                             "and non-negative"):
            trace_with("distances_m")(distances)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trace_gains_finite(bad):
    for slot in (0, 2, 3):
        gains = np.zeros(ARRAY_SLOTS)
        gains[slot] = bad
        with pytest.raises(ValueError, match="gain_db must be finite$"):
            trace_with("gain_db")(gains)


def test_nonfinite_trace_refused():
    with pytest.raises(ValueError, match="distances_m"):
        ChannelTrace([math.nan, -5.0], [math.inf, math.nan], [1e5, 2e5])
    # a zero distance is legal; so are negative and very large gains
    trace = ChannelTrace([0.0, 5.0], [-1e308, 1e308], [1e5, 2e5])
    assert trace.distances_m.tolist() == [0.0, 5.0]


def real_array_calls(node, where):
    """(module, enclosing function) of every real_array or check_shape
    call under node; a method is named Class.method."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and getattr(child.func, "id", None) \
                in ("real_array", "check_shape"):
            yield where
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = child.name if where[1] is None \
                else f"{where[1]}.{child.name}"
            inner = (where[0], name)
        yield from real_array_calls(child, inner)


def test_arrays_taken_only_through_check_array():
    # every array argument is taken by check_array, so one rule decides
    # what a valid vector is and how its error reads
    package = Path(prebuf.__file__).parent
    found = {where for path in sorted(package.glob("*.py"))
             if path.stem != "_checks"
             for where in real_array_calls(ast.parse(path.read_text()),
                                           (path.stem, None))}
    assert found == set()


@pytest.mark.parametrize("values", [
    5, 5.0, None, "ab", b"ab", np.float64(1.0), np.array(2.0), [], (),
    # an iterator's repr holds its address, so it gets a fixed id
    np.array([]), pytest.param(iter(()), id="tuple_iterator")], ids=repr)
def test_check_items_refuses_what_is_no_sequence(values):
    with pytest.raises(ValueError) as exc:
        check_items(values, "xs", check_int, 0)
    assert type(exc.value) is ValueError
    assert str(exc.value) == ("xs must be a non-empty iterable, not a "
                              f"string, got {values!r}")


def test_check_items_checks_each_item_by_index():
    assert check_items((1, np.int64(2)), "xs", check_int, 0) == [1, 2]
    checked = check_items((x for x in [0.5, 2]), "xs", check_real, 0.0)
    assert checked == [0.5, 2.0] and type(checked[1]) is float
    with pytest.raises(ValueError, match=r"^xs\[2\] must be an integer "
                                         r">= 0, got -1$"):
        check_items([0, 1, -1], "xs", check_int, 0)


def sweep_with(values, out):
    prebuf.run_buffer_sweep(ScenarioConfig(), values, out)


def curve_with(name):
    args = {"kv_values": [3], "planner_kinds": ("baseline",)}
    return lambda values, out: prebuf.service_curve(
        **{**args, name: values}, video=default_video_spec(),
        make_traces=ScenarioConfig().make_traces,
        base_config=AdmissionConfig(total_requests=1), num_seeds=1)


def multiuser_with(values, out):
    prebuf.run_multiuser(ScenarioConfig(), AdmissionConfig(total_requests=1),
                         values, out, num_seeds=1)


def traces_with(values, out):
    prebuf.build_traces([35.0, 40.0], [0.0, 550.0], LinkBudget(), 1 / 6,
                        seeds=values)


# Every sequence argument, as a call of that one argument (and an output
# directory) with the others valid, the name its error gives and values
# that are no non-empty sequence.  run_multiuser hands its kv_range to
# service_curve, which names it kv_values.
SEQUENCE_ARGS = {
    "run_buffer_sweep": (sweep_with, "z_values_bits", [5.0, None]),
    "service_curve-kv": (curve_with("kv_values"), "kv_values", [5]),
    "service_curve-kinds": (curve_with("planner_kinds"), "planner_kinds",
                            [5, "baseline"]),
    "run_multiuser": (multiuser_with, "kv_values", [5]),
    "make_traces": (lambda values, out: ScenarioConfig().make_traces(values),
                    "seeds", [3]),
    "build_traces": (traces_with, "seeds", [5]),
    "ScenarioConfig": (lambda values, out: ScenarioConfig(
        bs_positions_m=values), "bs_positions_m", [5.0]),
}


@pytest.mark.parametrize("call, name, values", [
    pytest.param(call, name, values, id=f"{case}-{values!r}")
    for case, (call, name, bad) in SEQUENCE_ARGS.items()
    for values in [*bad, []]])
def test_sequence_argument_refused_before_any_output(tmp_path, monkeypatch,
                                                     call, name, values):
    # no trace is built: every block's capacities pass through _capacities
    def unreachable(*args, **kwargs):
        pytest.fail("a trace was built for a bad sequence argument")

    monkeypatch.setattr(prebuf.link, "_capacities", unreachable)
    out = tmp_path / "out"
    with pytest.raises(ValueError) as exc:
        call(values, out)
    assert type(exc.value) is ValueError
    assert str(exc.value) == (f"{name} must be a non-empty iterable, not a "
                              f"string, got {values!r}")
    assert not out.exists()


def test_sequence_items_named_by_index():
    with pytest.raises(ValueError, match=r"^z_values_bits\[1\] must be"):
        sweep_with([0.0, -1.0], None)
    with pytest.raises(ValueError,
                       match=r"^unknown planner kind \(planner_kinds\[1\]\) "
                             r"'psychic'$"):
        curve_with("planner_kinds")(["baseline", "psychic"], None)
    with pytest.raises(ValueError,
                       match=r"^unknown planner kind \(planner_kind\) 'b'$"):
        prebuf.run_admission(AdmissionConfig(total_requests=1),
                             default_video_spec(),
                             ScenarioConfig().make_traces, "b")
    with pytest.raises(ValueError, match=r"^seeds\[1\] must be an int >= 0"):
        traces_with([0, -1], None)
    with pytest.raises(ValueError, match=r"^seed must be an int >= 0"):
        ScenarioConfig().make_trace(-1)


def build_trace_with(seed):
    return prebuf.build_trace([35.0, 40.0], [0.0, 550.0], LinkBudget(),
                              1 / 6, seed=seed)


# Every seed argument, as a call of one seed, and the name its error
# gives; a list given to make_trace is a list of seeds, so its items are
# the seeds there.
SEED_ARGS = {
    "build_trace": (build_trace_with, "seed"),
    "make_trace": (ScenarioConfig().make_trace, "seed"),
    "build_traces": (lambda seed: traces_with([seed], None), "seeds[0]"),
    "make_traces": (lambda seed: ScenarioConfig().make_traces([seed]),
                    "seeds[0]"),
}
# a bool, and sequences numpy would read as the entropy of one seed
NO_SEEDS = [True, (1, 2), [1, 2], np.array([1, 2])]


@pytest.mark.parametrize("call, name, seed", [
    pytest.param(call, name, seed, id=f"{case}-{seed!r}")
    for case, (call, name) in SEED_ARGS.items() for seed in NO_SEEDS
    if not (case == "make_trace" and isinstance(seed, list))])
def test_seed_is_an_int_or_a_seed_sequence(monkeypatch, call, name, seed):
    def unreachable(*args, **kwargs):
        pytest.fail("a trace was built for a bad seed")

    monkeypatch.setattr(prebuf.link, "_capacities", unreachable)
    with pytest.raises(ValueError) as exc:
        call(seed)
    assert type(exc.value) is ValueError
    assert str(exc.value) == (f"{name} must be an int >= 0 or a numpy "
                              f"SeedSequence, got {seed!r}")


def test_make_trace_reads_a_list_as_seeds():
    cfg = ScenarioConfig()
    traces = cfg.make_trace([1, 2])
    assert len(traces) == 2
    for built, batch in zip(traces, cfg.make_traces([1, 2])):
        for column in ("distances_m", "gain_db", "bits_per_prb"):
            assert getattr(built, column).tobytes() \
                == getattr(batch, column).tobytes()
    with pytest.raises(ValueError, match=r"^seeds\[0\] must be an int >= 0 "
                                         r"or a numpy SeedSequence, got "
                                         r"\[1, 2\]$"):
        cfg.make_trace([[1, 2]])


# The checks of one item; a loop or comprehension over an argument that
# calls one of them checks the argument's items itself.
ITEM_CHECKS = {"check_int", "check_real", "_seed_sequence", "_check_kind"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def is_argument(node, params):
    """True if node is a parameter, a field self.name, or enumerate of
    one of those."""
    if isinstance(node, ast.Call) and node.args \
            and getattr(node.func, "id", None) == "enumerate":
        node = node.args[0]
    if isinstance(node, ast.Attribute):
        return getattr(node.value, "id", None) == "self"
    return isinstance(node, ast.Name) and node.id in params


def item_check_loops(node, where, params=frozenset()):
    """(module, enclosing function) of every loop or comprehension under
    node that runs over an argument and calls an item check."""
    for child in ast.iter_child_nodes(node):
        inner, inner_params = where, params
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = child.name if where[1] is None \
                else f"{where[1]}.{child.name}"
            inner = (where[0], name)
        if isinstance(child, ast.FunctionDef):
            args = child.args
            inner_params = {arg.arg for arg in [
                *args.posonlyargs, *args.args, *args.kwonlyargs]}
        loops = (child.generators if isinstance(child, COMPREHENSIONS)
                 else [child] if isinstance(child, ast.For) else [])
        if any(is_argument(loop.iter, params) for loop in loops) and any(
                getattr(getattr(n, "func", None), "id", None) in ITEM_CHECKS
                for n in ast.walk(child)):
            yield where
        yield from item_check_loops(child, inner, inner_params)


def test_sequences_taken_only_through_check_items():
    # every sequence argument is taken by check_items, so one rule decides
    # what a valid sequence is and how its error reads
    package = Path(prebuf.__file__).parent
    found = {where for path in sorted(package.glob("*.py"))
             if path.stem != "_checks"
             for where in item_check_loops(ast.parse(path.read_text()),
                                           (path.stem, None))}
    assert found == set()
