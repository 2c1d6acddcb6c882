"""Multi-user admission control on a shared per-slot spectrum ledger.

Requests arrive as a Poisson-like stream; each one is planned against the
spectrum still unclaimed in its look-ahead window and admitted only if a
full-quality plan exists.  The anticipatory planner rejects at admission
time, so every admitted user is served; the no-look-ahead baseline admits
on the first slot only and pays for it with outages later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ._checks import MAX_COUNT, POSITIVE, check_int, check_real
from .link import ChannelTrace
from .planner import AllocationPlan, plan_anticipatory, plan_baseline
from .playout import VideoSpec, simulate_playback

# Builds the channel traces of a block of user seeds, one per seed.
TraceFactory = Callable[[Sequence[np.random.SeedSequence]],
                        list[ChannelTrace]]

PLANNER_KINDS = ("anticipatory", "baseline")

# Most users whose traces one TraceFactory call builds; it bounds the
# traces held at once in a long run.
TRACE_BLOCK = 256

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
        check_int(self.total_requests, "total_requests", 1, MAX_COUNT)
        check_real(self.mean_interarrival_s, "mean_interarrival_s", POSITIVE)
        check_real(self.available_prbs, "available_prbs", 0.0)
        check_int(self.seed, "seed", 0)


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
                  make_traces: TraceFactory,
                  planner_kind: str = "anticipatory") -> AdmissionLog:
    """Process all requests in arrival order against one spectrum ledger.

    `make_traces` builds a fresh channel trace for each user from a
    spawned seed, so shadowing streams are per-user independent while the
    whole run stays reproducible from config.seed.  A trace does not
    depend on the ledger, so once the arrival horizon is checked the
    traces are built ahead of planning, in one call per block of at most
    TRACE_BLOCK users.
    """
    if planner_kind not in PLANNER_KINDS:
        raise ValueError(f"unknown planner kind {planner_kind!r}")

    ss = np.random.SeedSequence(config.seed)
    arrival_rng = np.random.default_rng(ss.spawn(1)[0])
    interarrivals = arrival_rng.exponential(config.mean_interarrival_s,
                                            size=config.total_requests)
    T = video.num_slots
    # A huge mean can overflow the sum or the span to inf, which the
    # horizon test below refuses; numpy need not warn about it first.
    with np.errstate(over="ignore"):
        arrival_times = np.cumsum(interarrivals)
        span = arrival_times[-1] / video.slot_duration_s + T
    if not span <= MAX_LEDGER_SLOTS:            # inf fails too
        raise LedgerHorizonError(
            f"arrivals span {span:.3g} slots, past the "
            f"{MAX_LEDGER_SLOTS}-slot ledger limit; lower "
            f"mean_interarrival_s or total_requests")
    # Spawned only once the horizon is legal; the keys continue from the
    # arrival child's, as one spawn(total_requests + 1) would give them.
    user_seeds = ss.spawn(config.total_requests)
    arrival_slots = np.floor(arrival_times / video.slot_duration_s).astype(
        int).tolist()
    arrival_times = arrival_times.tolist()
    ledger = np.full(arrival_slots[-1] + T, float(config.available_prbs))

    log = AdmissionLog()
    for k in range(config.total_requests):
        if k % TRACE_BLOCK == 0:
            block = user_seeds[k:k + TRACE_BLOCK]
            traces = make_traces(block)
            if len(traces) != len(block):
                raise ValueError(f"make_traces returned {len(traces)} "
                                 f"traces for {len(block)} seeds")
        trace = traces[k % TRACE_BLOCK]
        a = arrival_slots[k]
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
            log.records.append(RequestRecord(arrival_times[k], a, False,
                                             None, 0))
            continue
        window -= plan.prbs
        if window.min() < -1e-7:
            raise RuntimeError("spectrum ledger driven negative")
        np.maximum(window, 0.0, out=window)      # drop rounding dust
        timeline = simulate_playback(plan.received_bits, video)
        log.records.append(RequestRecord(arrival_times[k], a, True, plan,
                                         timeline.num_outages))
    log.residual_prbs_timeline = ledger
    return log


def _shared(make_traces: TraceFactory) -> TraceFactory:
    """`make_traces` memoized on the spawn keys of the block's seeds.

    Every run with one config.seed spawns the same user seeds in the same
    blocks, so runs of the two planners on one seed get the same
    (read-only) trace objects.
    """
    blocks = {}

    def traces(seeds) -> list[ChannelTrace]:
        key = tuple(seed.spawn_key for seed in seeds)
        if key not in blocks:
            blocks[key] = make_traces(seeds)
        return blocks[key]
    return traces


def check_kv_values(kv_values) -> list:
    """The request volumes as a list; each an integer in [1, MAX_COUNT]."""
    kv_values = list(kv_values)
    if not kv_values:
        raise ValueError("kv_values must be non-empty")
    for kv in kv_values:
        check_int(kv, "kv", 1, MAX_COUNT)
    return kv_values


def service_curve(kv_values, video: VideoSpec, make_traces: TraceFactory,
                  base_config: AdmissionConfig, num_seeds: int = 10,
                  planner_kinds=PLANNER_KINDS) -> list[dict]:
    """Served counts per request volume, planner and seed (paired seeds).

    Seeds are derived as base_config.seed + i so the two planners see
    identical arrival processes and shadowing per (kv, seed) pair.
    base_config.total_requests is ignored: each run has max(kv_values).

    Admission records are prefix-consistent: the first kv records of a
    run equal a run of kv requests with the same seed.  So each (seed,
    planner) pair runs once, at max(kv_values), and the row for each kv
    counts the first kv records of that run.  Each user's trace is built
    once per seed and shared by the planners.  Rows are ordered by kv (as
    given, duplicates kept), then planner, then seed.
    """
    kv_values = check_kv_values(kv_values)
    check_int(num_seeds, "num_seeds", 1, MAX_COUNT)
    seeds = [base_config.seed + i for i in range(num_seeds)]
    outcomes = {}                   # (planner, seed) -> [(admitted, served)]
    for seed in seeds:
        cfg = replace(base_config, total_requests=max(kv_values), seed=seed)
        shared_traces = _shared(make_traces)
        for kind in planner_kinds:
            log = run_admission(cfg, video, shared_traces, kind)
            outcomes[kind, seed] = [(r.admitted, r.served)
                                    for r in log.records]
    rows = []
    for kv in kv_values:
        for kind in planner_kinds:
            for seed in seeds:
                head = outcomes[kind, seed][:kv]
                served = sum(s for _, s in head)
                rows.append({
                    "kv": kv,
                    "planner": kind,
                    "seed": seed,
                    "admitted": sum(a for a, _ in head),
                    "served": served,
                    "service_rate": served / kv,
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
