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

from .admission import AdmissionConfig, service_curve, summarize_curve
from .link import ChannelTrace, LinkBudget, build_trace
from .planner import plan_anticipatory, plan_baseline
from .playout import VideoSpec, simulate_playback

FLOAT_FMT = "%.9g"


class ConfigError(ValueError):
    """Bad or unknown key in a scenario config file."""


@dataclass(frozen=True)
class ShadowingConfig:
    sigma_db: float = 10.0
    decorrelation_m: float = 50.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma_db) or self.sigma_db < 0:
            raise ConfigError("shadowing.sigma_db must be finite and >= 0")
        # an infinite decorrelation distance is a fully correlated field
        if math.isnan(self.decorrelation_m) or self.decorrelation_m < 0:
            raise ConfigError("shadowing.decorrelation_m must be >= 0")


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
        if not all(map(math.isfinite, (self.user_start_m, self.user_speed_mps,
                                       *self.bs_positions_m))):
            raise ConfigError("positions and speed must be finite")
        if self.user_speed_mps <= 0:
            raise ConfigError("user_speed_mps must be positive")
        if not self.bs_positions_m:
            raise ConfigError("bs_positions_m must list at least one BS")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def trajectory_m(self) -> np.ndarray:
        """User position at the start of each slot."""
        t = np.arange(self.video.num_slots) * self.video.slot_duration_s
        return self.user_start_m + self.user_speed_mps * t

    def make_trace(self, seed=None) -> ChannelTrace:
        if seed is None:
            seed = self.seed
        return build_trace(self.trajectory_m(), self.bs_positions_m,
                           self.link, self.video,
                           sigma_db=self.shadowing.sigma_db,
                           decorrelation_m=self.shadowing.decorrelation_m,
                           seed=seed)


def _coerce(raw: str, target_type, key: str):
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        if target_type is tuple:
            return tuple(float(v) for v in raw.replace(",", " ").split())
        return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r}") from exc


def _load_section(parser, section, cls, defaults, int_fields=()):
    if not parser.has_section(section):
        return defaults
    kwargs = {}
    valid = {f.name for f in fields(cls)}
    for key, raw in parser.items(section):
        if key not in valid:
            raise ConfigError(f"[{section}] unknown key {key!r}")
        target = int if key in int_fields else (
            tuple if key == "bs_positions_m" else float)
        kwargs[key] = _coerce(raw, target, f"[{section}] {key}")
    try:
        return replace(defaults, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    """Read a ScenarioConfig from an INI-style file; empty file = defaults."""
    parser = configparser.ConfigParser()
    text = Path(path).read_text()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    known = {"scenario", "video", "link", "shadowing"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    video = _load_section(parser, "video", VideoSpec, default_video_spec(),
                          int_fields=("num_slots",))
    link = _load_section(parser, "link", LinkBudget, LinkBudget(),
                         int_fields=("num_system_prbs",))
    shadowing = _load_section(parser, "shadowing", ShadowingConfig,
                              ShadowingConfig())

    kwargs = {"video": video, "link": link, "shadowing": shadowing}
    if parser.has_section("scenario"):
        valid = {f.name for f in fields(ScenarioConfig)} - set(kwargs)
        for key, raw in parser.items("scenario"):
            if key not in valid:
                raise ConfigError(f"[scenario] unknown key {key!r}")
            target = int if key == "seed" else (
                tuple if key == "bs_positions_m" else float)
            kwargs[key] = _coerce(raw, target, f"[scenario] {key}")
    return ScenarioConfig(**kwargs)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                FLOAT_FMT % v if isinstance(v, float) else v for v in row])


def run_single_user(config: ScenarioConfig, out_dir) -> dict:
    """Single-user proof of concept: anticipatory vs zero-buffer plan.

    Writes trace.csv with one row per (case, slot) and returns a summary
    with the total PRB-slots each case needs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        summary[f"{name}_total_prb_slots"] = plan.total_prb_slots
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
    _write_csv(out_dir / "trace.csv",
               ["case", "slot", "time_s", "distance_m", "gain_db",
                "bits_per_prb", "r_bits", "z_bits", "w_prbs",
                "buffer_bits", "outage"],
               rows)
    return summary


def run_buffer_sweep(config: ScenarioConfig, z_values_bits,
                     out_dir, available_prbs: float | None = None) -> dict:
    """Total required spectrum versus buffer cap; writes sweep.csv.

    Reports the total both raw and normalized by the system PRB budget
    and by the (possibly smaller) schedulable budget.
    """
    z_values = list(z_values_bits)
    if not z_values or any(not z >= 0 for z in z_values):   # NaN fails
        raise ConfigError("z_values must be non-empty and >= 0")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if available_prbs is None:
        available_prbs = config.link.num_system_prbs

    trace = config.make_trace()
    video = config.video
    residual = np.full(video.num_slots, float(config.link.num_system_prbs))
    T = video.num_slots

    rows = []
    totals = []
    for z in z_values:
        spec = replace(video, max_carryover_bits=float(z))
        plan = plan_anticipatory(spec, trace, residual)
        totals.append(plan.total_prb_slots)
        rows.append([
            z / video.bits_per_slot, float(z), plan.total_prb_slots,
            plan.total_prb_slots / (T * config.link.num_system_prbs),
            plan.total_prb_slots / (T * available_prbs),
        ])
    _write_csv(out_dir / "sweep.csv",
               ["z_over_v", "z_bits", "total_prb_slots",
                "frac_of_system_prbs", "frac_of_available_prbs"],
               rows)
    return {"z_values_bits": [float(z) for z in z_values],
            "total_prb_slots": totals}


def run_multiuser(config: ScenarioConfig, admission: AdmissionConfig,
                  kv_range, out_dir, num_seeds: int = 10) -> list[dict]:
    """Admission experiment over request volumes; writes service_curve.csv."""
    rows = service_curve(kv_range, config.video, config.make_trace,
                         admission, num_seeds=num_seeds)
    means = summarize_curve(rows)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    csv_rows = [[r["kv"], r["planner"], str(r["seed"]), r["admitted"],
                 r["served"], float(r["service_rate"])] for r in rows]
    csv_rows += [[r["kv"], r["planner"], "mean", "", r["mean_served"],
                  float(r["mean_service_rate"])] for r in means]
    _write_csv(out_dir / "service_curve.csv",
               ["kv", "planner", "seed", "admitted", "served",
                "service_rate"],
               csv_rows)
    return means
