"""Two-cell experiment harness: defaults, config files, drivers, CSV.

The default scenario is a straight road between two base stations: the
user starts at the minimum BS distance from BS1 and drives toward BS2 at
highway speed for the whole look-ahead window, handing over near the
midpoint.  An empty config file reproduces this setup; every field can be
overridden from an INI-style file with one section per sub-config.
"""

from __future__ import annotations

import configparser
import csv
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ._checks import POSITIVE, all_finite, check_int, check_real
from .admission import AdmissionConfig, service_curve, summarize_curve
from .link import (ChannelTrace, LinkBudget, build_trace, build_traces,
                   check_shadowing)
# plan_baseline is unused here but kept as a module attribute: the
# benchmark tracer patches prebuf.scenario.plan_baseline by name.
from .planner import plan_anticipatory, plan_baseline  # noqa: F401
from .playout import VideoSpec, simulate_playback

FLOAT_FMT = "%.9g"


class ConfigError(ValueError):
    """Bad or unknown key in a scenario config file."""


@dataclass(frozen=True)
class ShadowingConfig:
    sigma_db: float = 10.0
    decorrelation_m: float = 50.0

    def __post_init__(self) -> None:
        try:
            check_shadowing(self.sigma_db, self.decorrelation_m)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def default_video_spec() -> VideoSpec:
    # 1.5 Mbit/s video in 1/6 s slots over a 16 s window; buffer cap of
    # five slots of content.
    return VideoSpec(bits_per_slot=250_000.0, slot_duration_s=1.0 / 6.0,
                     num_slots=96, max_carryover_bits=1_250_000.0)


@dataclass(frozen=True)
class ScenarioConfig:
    bs_positions_m: tuple = (0.0, 550.0)
    user_start_m: float = 35.0
    user_speed_mps: float = 30.0
    video: VideoSpec = field(default_factory=default_video_spec)
    link: LinkBudget = field(default_factory=LinkBudget)
    shadowing: ShadowingConfig = field(default_factory=ShadowingConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        try:
            check_int(len(self.bs_positions_m), "len(bs_positions_m)", 1)
            for i, x in enumerate(self.bs_positions_m):
                check_real(x, f"bs_positions_m[{i}]")
            check_real(self.user_start_m, "user_start_m")
            check_real(self.user_speed_mps, "user_speed_mps", POSITIVE)
            check_int(self.seed, "seed", 0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # Every trace of this config shares one trajectory: computed once,
        # read-only, and not a field, so it is no config key.
        with np.errstate(over="ignore"):
            t = np.arange(self.video.num_slots) * self.video.slot_duration_s
            trajectory = self.user_start_m + self.user_speed_mps * t
        if not all_finite(trajectory):
            raise ConfigError(
                "trajectory positions overflow: user_start_m + "
                "user_speed_mps * slot_duration_s * slot must be finite "
                "in every slot")
        trajectory.setflags(write=False)
        object.__setattr__(self, "_trajectory", trajectory)

    def trajectory_m(self) -> np.ndarray:
        """User position at the start of each slot (a fresh array)."""
        return self._trajectory.copy()

    def make_trace(self, seed=None):
        """The trace of one seed (config.seed if None).

        A list of seeds gives their list of traces, as make_traces does,
        so a bound make_trace also serves as an admission TraceFactory
        (bench/workloads.py passes one).
        """
        if isinstance(seed, list):
            return self.make_traces(seed)
        return build_trace(self._trajectory, self.bs_positions_m,
                           self.link, self.video,
                           sigma_db=self.shadowing.sigma_db,
                           decorrelation_m=self.shadowing.decorrelation_m,
                           seed=self.seed if seed is None else seed)

    def make_traces(self, seeds) -> list[ChannelTrace]:
        """The traces of `seeds`, built in one batch (an admission
        TraceFactory)."""
        return build_traces(self._trajectory, self.bs_positions_m,
                            self.link, self.video,
                            sigma_db=self.shadowing.sigma_db,
                            decorrelation_m=self.shadowing.decorrelation_m,
                            seeds=seeds)


# INI value parser per field type; every config module uses postponed
# annotations, so a dataclass field's type is its name as a string.
_PARSERS = {
    "int": int,                 # "1.5" and "1e3" are errors, not rounded
    "float": float,
    "tuple": lambda raw: tuple(map(float, raw.replace(",", " ").split())),
}
_SUB_CONFIGS = ("video", "link", "shadowing")


def _load_section(parser, section, defaults, exclude=()):
    """`defaults` with each key of `section` parsed as its field's type."""
    types = {f.name: f.type for f in fields(defaults)
             if f.name not in exclude}
    items = parser.items(section) if parser.has_section(section) else []
    kwargs = {}
    for key, raw in items:
        if key not in types:
            raise ConfigError(f"[{section}] unknown key {key!r}")
        try:
            kwargs[key] = _PARSERS[types[key]](raw)
        except ValueError as exc:
            raise ConfigError(
                f"[{section}] {key}: cannot parse {raw!r}") from exc
    try:
        return replace(defaults, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    """Read a ScenarioConfig from an INI-style file; empty file = defaults.

    Values are literal (no % interpolation) and [DEFAULT] is an unknown
    section, not a fallback for the others.
    """
    # No header can name the empty section, so [DEFAULT] is an ordinary one.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(Path(path).read_text())
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    unknown = set(parser.sections()) - {"scenario", *_SUB_CONFIGS}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    base = ScenarioConfig()
    subs = {name: _load_section(parser, name, getattr(base, name))
            for name in _SUB_CONFIGS}
    return _load_section(parser, "scenario", replace(base, **subs),
                         exclude=subs)


def _write_csv(out_dir, name, header, rows):
    """Write out_dir/name, creating out_dir; a run that fails before it
    writes leaves no directory behind."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                FLOAT_FMT % v if isinstance(v, float) else v for v in row])


def run_single_user(config: ScenarioConfig, out_dir) -> dict:
    """Single-user proof of concept: anticipatory vs zero-buffer plan.

    Writes trace.csv with one row per (case, slot) and returns a summary
    with the total PRB-slots each case needs (inf if it has no
    zero-outage plan).
    """
    trace = config.make_trace()
    video = config.video
    residual = np.full(video.num_slots, float(config.link.num_system_prbs))

    cases = {
        "anticipatory": plan_anticipatory(video, trace, residual),
        "zero_buffer": plan_anticipatory(
            replace(video, max_carryover_bits=0.0), trace, residual),
    }

    rows = []
    summary = {"feasible": True}
    for name, plan in cases.items():
        timeline = simulate_playback(plan.received_bits, video)
        # an infeasible plan costs inf, as in run_buffer_sweep
        summary[f"{name}_total_prb_slots"] = (
            plan.total_prb_slots if plan.feasible else math.inf)
        summary[f"{name}_outages"] = timeline.num_outages
        summary["feasible"] &= plan.feasible
        for t in range(video.num_slots):
            rows.append([
                name, t, t * video.slot_duration_s,
                float(trace.distances_m[t]), float(trace.gain_db[t]),
                float(trace.bits_per_prb[t]),
                float(plan.received_bits[t]),
                float(plan.carryover_bits[t - 1]) if t > 0 else 0.0,
                float(plan.prbs[t]),
                float(timeline.carryover_bits[t]),
                int(timeline.outage_flags[t]),
            ])
    _write_csv(out_dir, "trace.csv",
               ["case", "slot", "time_s", "distance_m", "gain_db",
                "bits_per_prb", "r_bits", "z_bits", "w_prbs",
                "buffer_bits", "outage"],
               rows)
    return summary


def run_buffer_sweep(config: ScenarioConfig, z_values_bits, out_dir) -> dict:
    """Total required spectrum versus buffer cap; writes sweep.csv.

    Reports the total both raw and normalized by the system PRB budget;
    a cap with no zero-outage plan costs inf in both and in the returned
    totals.  The sweep schedules the whole budget, so
    frac_of_available_prbs repeats frac_of_system_prbs; it stays to keep
    the CSV layout.
    """
    z_values = list(z_values_bits)
    try:
        check_int(len(z_values), "len(z_values)", 1)
        for i, z in enumerate(z_values):
            check_real(z, f"z_values[{i}]", 0.0, math.inf)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    trace = config.make_trace()
    video = config.video
    residual = np.full(video.num_slots, float(config.link.num_system_prbs))
    T = video.num_slots

    rows = []
    totals = []
    for z in z_values:
        spec = replace(video, max_carryover_bits=float(z))
        plan = plan_anticipatory(spec, trace, residual)
        total = plan.total_prb_slots if plan.feasible else math.inf
        totals.append(total)
        frac = total / (T * config.link.num_system_prbs)
        rows.append([z / video.bits_per_slot, float(z), total, frac, frac])
    _write_csv(out_dir, "sweep.csv",
               ["z_over_v", "z_bits", "total_prb_slots",
                "frac_of_system_prbs", "frac_of_available_prbs"],
               rows)
    return {"z_values_bits": [float(z) for z in z_values],
            "total_prb_slots": totals}


def run_multiuser(config: ScenarioConfig, admission: AdmissionConfig,
                  kv_range, out_dir, num_seeds: int = 10) -> list[dict]:
    """Admission experiment over request volumes; writes service_curve.csv."""
    rows = service_curve(kv_range, config.video, config.make_traces,
                         admission, num_seeds=num_seeds)
    means = summarize_curve(rows)

    csv_rows = [[r["kv"], r["planner"], str(r["seed"]), r["admitted"],
                 r["served"], float(r["service_rate"])] for r in rows]
    csv_rows += [[r["kv"], r["planner"], "mean", "", r["mean_served"],
                  float(r["mean_service_rate"])] for r in means]
    _write_csv(out_dir, "service_curve.csv",
               ["kv", "planner", "seed", "admitted", "served",
                "service_rate"],
               csv_rows)
    return means
