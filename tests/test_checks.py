"""Every float input of the config classes and the scalar link functions
is checked one way: NaN, out-of-range infinities, values out of range and
bools are rejected by a message that names the field."""

import math
from dataclasses import replace

import numpy as np
import pytest

from prebuf import (AdmissionConfig, ConfigError, LinkBudget, ScenarioConfig,
                    ShadowingConfig, default_video_spec, path_loss_db,
                    per_prb_bits)
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


# (field name in the message, build from one value, error type, values out
# of range, inf is legal)
FLOAT_FIELDS = [
    ("bits_per_slot", field_of(video, "bits_per_slot"), ValueError,
     [0.0, -1.0], False),
    ("slot_duration_s", field_of(video, "slot_duration_s"), ValueError,
     [0.0, -1.0], False),
    ("max_carryover_bits", field_of(video, "max_carryover_bits"), ValueError,
     [-1.0], True),
    ("total_power_dbm", field_of(LinkBudget, "total_power_dbm"), ValueError,
     [], False),
    ("prb_bandwidth_hz", field_of(LinkBudget, "prb_bandwidth_hz"),
     ValueError, [0.0, -1.0], False),
    ("noise_psd_dbm_hz", field_of(LinkBudget, "noise_psd_dbm_hz"),
     ValueError, [], False),
    ("noise_figure_db", field_of(LinkBudget, "noise_figure_db"), ValueError,
     [], False),
    ("interference_psd_dbm_hz", field_of(LinkBudget,
                                         "interference_psd_dbm_hz"),
     ValueError, [], False),
    ("snr_gap_db", field_of(LinkBudget, "snr_gap_db"), ValueError, [-1.0],
     False),
    ("min_bs_distance_m", field_of(LinkBudget, "min_bs_distance_m"),
     ValueError, [0.0, -1.0], False),
    ("sigma_db", field_of(ShadowingConfig, "sigma_db"), ConfigError,
     [-1.0, math.nextafter(MAX_SIGMA_DB, math.inf)], False),
    ("decorrelation_m", field_of(ShadowingConfig, "decorrelation_m"),
     ConfigError, [-1.0], True),
    ("user_start_m", field_of(ScenarioConfig, "user_start_m"), ConfigError,
     [], False),
    ("user_speed_mps", field_of(ScenarioConfig, "user_speed_mps"),
     ConfigError, [0.0, -1.0], False),
    ("bs_positions_m[0]", bs_position(0), ConfigError, [], False),
    ("bs_positions_m[1]", bs_position(1), ConfigError, [], False),
    ("mean_interarrival_s",
     lambda v: AdmissionConfig(total_requests=1, mean_interarrival_s=v),
     ValueError, [0.0, -1.0], False),
    ("available_prbs",
     lambda v: AdmissionConfig(total_requests=1, available_prbs=v),
     ValueError, [-1.0, 2.0 * MAX_COUNT, 1e308], False),
]


def bad_values(out_of_range, inf_ok):
    return [math.nan, -math.inf, *([] if inf_ok else [math.inf]),
            *out_of_range, True, np.float64(math.nan)]


@pytest.mark.parametrize("name, build, error, bad", [
    pytest.param(name, build, error, bad, id=f"{name}-{bad!r}")
    for name, build, error, out_of_range, inf_ok in FLOAT_FIELDS
    for bad in bad_values(out_of_range, inf_ok)])
def test_bad_float_field_rejected(name, build, error, bad):
    with pytest.raises(error) as exc:
        build(bad)
    assert name in str(exc.value)


@pytest.mark.parametrize("name, build", [
    pytest.param(name, build, id=name)
    for name, build, _, _, inf_ok in FLOAT_FIELDS if inf_ok])
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
