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

from ._checks import (POSITIVE, check_fields, check_int, check_items,
                      check_real, finite_max)
from .admission import AdmissionConfig, service_curve, summarize_curve
from .link import (ChannelTrace, LinkBudget, ShadowingConfig, build_trace,
                   build_traces)
# plan_baseline is unused here but kept as a module attribute: the
# benchmark tracer patches prebuf.scenario.plan_baseline by name.
from .planner import plan_anticipatory, plan_baseline  # noqa: F401
from .playout import VideoSpec, simulate_playback

FLOAT_FMT = "%.9g"


class ConfigError(ValueError):
    """Bad INI config file or command-line flag.

    Only the INI loader and the CLI's argument parser raise it; a library
    call raises a plain ValueError that names the argument or field.
    """


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
        vars(self)["bs_positions_m"] = tuple(check_items(
            self.bs_positions_m, "bs_positions_m", check_real))
        check_fields(self, user_start_m=(check_real,),
                     user_speed_mps=(check_real, POSITIVE),
                     seed=(check_int, 0))
        # Every trace of this config shares one trajectory: computed once,
        # read-only, and not a field, so it is no config key.
        with np.errstate(over="ignore"):
            t = np.arange(self.video.num_slots) * self.video.slot_duration_s
            trajectory = self.user_start_m + self.user_speed_mps * t
        if finite_max(trajectory) == math.inf:
            raise ValueError(
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
        (bench/workloads.py passes one).  Any other seed is one seed,
        checked as build_trace checks it.
        """
        if isinstance(seed, list):
            return self.make_traces(seed)
        return build_trace(self._trajectory, self.bs_positions_m,
                           self.link, self.video.slot_duration_s,
                           shadowing=self.shadowing,
                           seed=self.seed if seed is None else seed)

    def make_traces(self, seeds) -> list[ChannelTrace]:
        """The traces of `seeds`, built in one batch (an admission
        TraceFactory)."""
        return build_traces(self._trajectory, self.bs_positions_m,
                            self.link, self.video.slot_duration_s,
                            shadowing=self.shadowing, seeds=seeds)


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
    # Path("") is the working directory, not a file
    if path == "":
        raise ConfigError("config path is empty")
    # No header can name the empty section, so [DEFAULT] is an ordinary one.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        # utf-8-sig also reads a file that starts with a byte-order mark
        parser.read_string(Path(path).read_text(encoding="utf-8-sig"),
                           source=str(path))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    unknown = set(parser.sections()) - {"scenario", *_SUB_CONFIGS}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    base = ScenarioConfig()
    subs = {name: _load_section(parser, name, getattr(base, name))
            for name in _SUB_CONFIGS}
    # The sub-configs can be valid alone and still overflow the
    # trajectory together, which no one section names.
    try:
        base = replace(base, **subs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return _load_section(parser, "scenario", base, exclude=subs)


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


def _plan_caps(config: ScenarioConfig, z_values):
    """The trace of `config` and, for each buffer cap in `z_values` in
    order, its plan on all num_system_prbs PRBs and its total PRB-slots
    (inf if the cap has no zero-outage plan).

    Each cap must be a Python float checked as VideoSpec checks
    max_carryover_bits, so each cap's spec is a copy of config.video
    with the cap replaced, not checked again.  plan_anticipatory is
    looked up at each call, so a wrapper set on this module's attribute
    sees every plan.
    """
    trace = config.make_trace()
    video = config.video
    residual = np.full(video.num_slots, float(config.link.num_system_prbs))
    plans = [plan_anticipatory(video._with_cap(z), trace, residual)
             for z in z_values]
    totals = [plan.total_prb_slots if plan.feasible else math.inf
              for plan in plans]
    return trace, plans, totals


def run_single_user(config: ScenarioConfig, out_dir) -> dict:
    """Single-user proof of concept: anticipatory vs zero-buffer plan.

    Writes trace.csv with one row per (case, slot) and returns a summary
    with the total PRB-slots each case needs (inf if it has no
    zero-outage plan).
    """
    video = config.video
    trace, plans, totals = _plan_caps(config,
                                      (video.max_carryover_bits, 0.0))

    rows = []
    summary = {"feasible": all(plan.feasible for plan in plans)}
    for name, plan, total in zip(("anticipatory", "zero_buffer"), plans,
                                 totals):
        timeline = simulate_playback(plan.received_bits, video)
        summary[f"{name}_total_prb_slots"] = total
        summary[f"{name}_outages"] = timeline.num_outages
        # one column per CSV field after case, slot and time_s
        columns = zip(trace.distances_m.tolist(), trace.gain_db.tolist(),
                      trace.bits_per_prb.tolist(),
                      plan.received_bits.tolist(),
                      [0.0, *plan.carryover_bits.tolist()],
                      plan.prbs.tolist(), timeline.carryover_bits.tolist(),
                      map(int, timeline.outage_flags.tolist()), strict=True)
        rows += ([name, t, t * video.slot_duration_s, *row]
                 for t, row in enumerate(columns))
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
    z_values = check_items(z_values_bits, "z_values_bits", check_real, 0.0,
                           math.inf)

    _, _, totals = _plan_caps(config, z_values)
    prb_slots = config.video.num_slots * config.link.num_system_prbs
    _write_csv(out_dir, "sweep.csv",
               ["z_over_v", "z_bits", "total_prb_slots",
                "frac_of_system_prbs", "frac_of_available_prbs"],
               [[z / config.video.bits_per_slot, z, total,
                 total / prb_slots, total / prb_slots]
                for z, total in zip(z_values, totals)])
    return {"z_values_bits": z_values, "total_prb_slots": totals}


def run_multiuser(config: ScenarioConfig, admission: AdmissionConfig,
                  kv_range, out_dir, num_seeds: int = 10) -> list[dict]:
    """Admission experiment over request volumes; writes service_curve.csv.

    service_curve checks kv_range, and names it kv_values.
    """
    rows = service_curve(kv_range, config.video, config.make_traces,
                         admission, num_seeds=num_seeds)
    means = summarize_curve(rows)

    csv_rows = [[r["kv"], r["planner"], r["seed"], r["admitted"],
                 r["served"], r["service_rate"]] for r in rows]
    csv_rows += [[r["kv"], r["planner"], "mean", "", r["mean_served"],
                  r["mean_service_rate"]] for r in means]
    _write_csv(out_dir, "service_curve.csv",
               ["kv", "planner", "seed", "admitted", "served",
                "service_rate"],
               csv_rows)
    return means
