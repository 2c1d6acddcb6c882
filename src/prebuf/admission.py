"""Multi-user admission control on a shared per-slot spectrum ledger.

Requests arrive as a Poisson-like stream; each one is planned against the
spectrum still unclaimed in its look-ahead window and admitted only if a
full-quality plan exists.  The anticipatory planner rejects at admission
time, so every admitted user is served; the no-look-ahead baseline admits
on the first slot only and pays for it with outages later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .link import ChannelTrace
from .planner import AllocationPlan, plan_anticipatory, plan_baseline
from .playout import VideoSpec, simulate_playback

TraceFactory = Callable[[np.random.SeedSequence], ChannelTrace]

PLANNER_KINDS = ("anticipatory", "baseline")

# Longest spectrum ledger a run may allocate: 2**20 slots of float64 is
# 8 MiB, about 48 hours of arrivals in 1/6 s slots.
MAX_LEDGER_SLOTS = 2 ** 20


class LedgerHorizonError(ValueError):
    """The arrival process reaches past MAX_LEDGER_SLOTS."""


@dataclass(frozen=True)
class AdmissionConfig:
    total_requests: int
    mean_interarrival_s: float = 0.58
    available_prbs: float = 15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_requests < 1:
            raise ValueError("total_requests must be >= 1")
        if not math.isfinite(self.mean_interarrival_s) \
                or self.mean_interarrival_s <= 0:
            raise ValueError("mean_interarrival_s must be positive and finite")
        if not math.isfinite(self.available_prbs) or self.available_prbs < 0:
            raise ValueError("available_prbs must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class RequestRecord:
    arrival_time_s: float
    arrival_slot: int
    admitted: bool
    plan: AllocationPlan | None
    outage_count: int

    @property
    def served(self) -> bool:
        return self.admitted and self.outage_count == 0


@dataclass
class AdmissionLog:
    records: list[RequestRecord] = field(default_factory=list)
    residual_prbs_timeline: np.ndarray | None = None

    @property
    def admitted_count(self) -> int:
        return sum(r.admitted for r in self.records)

    @property
    def served_count(self) -> int:
        return sum(r.served for r in self.records)


def run_admission(config: AdmissionConfig, video: VideoSpec,
                  make_trace: TraceFactory,
                  planner_kind: str = "anticipatory") -> AdmissionLog:
    """Process all requests in arrival order against one spectrum ledger.

    `make_trace` builds a fresh channel trace for each arriving user from
    a spawned seed, so shadowing streams are per-user independent while
    the whole run stays reproducible from config.seed.
    """
    if planner_kind not in PLANNER_KINDS:
        raise ValueError(f"unknown planner kind {planner_kind!r}")

    ss = np.random.SeedSequence(config.seed)
    arrival_ss, *user_seeds = ss.spawn(config.total_requests + 1)
    arrival_rng = np.random.default_rng(arrival_ss)
    interarrivals = arrival_rng.exponential(config.mean_interarrival_s,
                                            size=config.total_requests)
    arrival_times = np.cumsum(interarrivals)
    T = video.num_slots
    span = arrival_times[-1] / video.slot_duration_s + T
    if not span <= MAX_LEDGER_SLOTS:            # inf fails too
        raise LedgerHorizonError(
            f"arrivals span {span:.3g} slots, past the "
            f"{MAX_LEDGER_SLOTS}-slot ledger limit; lower "
            f"mean_interarrival_s or total_requests")
    arrival_slots = np.floor(arrival_times / video.slot_duration_s).astype(int)
    ledger = np.full(int(arrival_slots[-1]) + T, float(config.available_prbs))

    log = AdmissionLog()
    for k in range(config.total_requests):
        a = int(arrival_slots[k])
        trace = make_trace(user_seeds[k])
        window = ledger[a:a + T]
        if planner_kind == "anticipatory":
            plan = plan_anticipatory(video, trace, window)
            admitted = plan.feasible
        else:
            # first-slot test only: no knowledge of the window ahead
            needed_now = video.bits_per_slot / trace.bits_per_prb[0]
            admitted = needed_now <= window[0] + 1e-9
            plan = plan_baseline(video, trace, window) if admitted else None
        if not admitted:
            log.records.append(RequestRecord(float(arrival_times[k]), a,
                                             False, None, 0))
            continue
        window -= plan.prbs
        if np.any(window < -1e-7):
            raise RuntimeError("spectrum ledger driven negative")
        np.clip(window, 0.0, None, out=window)   # drop rounding dust
        timeline = simulate_playback(plan.received_bits, video)
        log.records.append(RequestRecord(float(arrival_times[k]), a, True,
                                         plan, timeline.num_outages))
    log.residual_prbs_timeline = ledger
    return log


def service_curve(kv_values, video: VideoSpec, make_trace: TraceFactory,
                  base_config: AdmissionConfig, num_seeds: int = 10,
                  planner_kinds=PLANNER_KINDS) -> list[dict]:
    """Served counts per request volume, planner and seed (paired seeds).

    Seeds are derived as base_config.seed + i so the two planners see
    identical arrival processes and shadowing per (kv, seed) pair.
    """
    kv_values = list(kv_values)
    if not kv_values:
        raise ValueError("kv_values must be non-empty")
    if num_seeds < 1:
        raise ValueError("num_seeds must be >= 1")
    rows = []
    for kv in kv_values:
        for kind in planner_kinds:
            for i in range(num_seeds):
                cfg = AdmissionConfig(
                    total_requests=kv,
                    mean_interarrival_s=base_config.mean_interarrival_s,
                    available_prbs=base_config.available_prbs,
                    seed=base_config.seed + i,
                )
                log = run_admission(cfg, video, make_trace, kind)
                rows.append({
                    "kv": kv,
                    "planner": kind,
                    "seed": cfg.seed,
                    "admitted": log.admitted_count,
                    "served": log.served_count,
                    "service_rate": log.served_count / kv,
                })
    return rows


def summarize_curve(rows: list[dict]) -> list[dict]:
    """Per-(kv, planner) means over seeds."""
    keys = sorted({(r["kv"], r["planner"]) for r in rows})
    out = []
    for kv, kind in keys:
        sel = [r for r in rows if r["kv"] == kv and r["planner"] == kind]
        out.append({
            "kv": kv,
            "planner": kind,
            "mean_served": math.fsum(r["served"] for r in sel) / len(sel),
            "mean_service_rate":
                math.fsum(r["service_rate"] for r in sel) / len(sel),
        })
    return out
