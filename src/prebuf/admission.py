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

from ._checks import MAX_COUNT, POSITIVE, check_fields, check_int, check_real
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


@dataclass(frozen=True)
class AdmissionConfig:
    total_requests: int
    mean_interarrival_s: float = 0.58
    available_prbs: float = 15
    seed: int = 0

    def __post_init__(self) -> None:
        # available_prbs is a PRB count, bounded as
        # LinkBudget.num_system_prbs is
        check_fields(self, total_requests=(check_int, 1, MAX_COUNT),
                     mean_interarrival_s=(check_real, POSITIVE),
                     available_prbs=(check_real, 0.0, MAX_COUNT),
                     seed=(check_int, 0))


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
    return _run_admission(config, video, make_traces, (planner_kind,))[0]


def _run_admission(config: AdmissionConfig, video: VideoSpec,
                   make_traces: TraceFactory, planner_kinds) -> list:
    """run_admission for each planner kind in one pass, one log per kind.

    The arrivals are drawn and each block of traces is built once; every
    planner then runs over the block's users against its own ledger, and
    the block is dropped when the next one replaces it.  Every kind is
    checked before anything is drawn.
    """
    for kind in planner_kinds:
        if kind not in PLANNER_KINDS:
            raise ValueError(f"unknown planner kind (planner_kind) {kind!r}")

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
        raise ValueError(
            f"arrivals span {span:.3g} slots, past the "
            f"{MAX_LEDGER_SLOTS}-slot ledger limit; lower "
            f"mean_interarrival_s or total_requests")
    # Spawned only once the horizon is legal; the keys continue from the
    # arrival child's, as one spawn(total_requests + 1) would give them.
    user_seeds = ss.spawn(config.total_requests)
    arrival_slots = np.floor(arrival_times / video.slot_duration_s).astype(
        int).tolist()
    arrival_times = arrival_times.tolist()
    # each planner's ledger, filled in place
    logs = [AdmissionLog(residual_prbs_timeline=np.full(
                arrival_slots[-1] + T, config.available_prbs))
            for _ in planner_kinds]

    for start in range(0, config.total_requests, TRACE_BLOCK):
        block = user_seeds[start:start + TRACE_BLOCK]
        traces = make_traces(block)
        if len(traces) != len(block):
            raise ValueError(f"make_traces returned {len(traces)} "
                             f"traces for {len(block)} seeds")
        for kind, log in zip(planner_kinds, logs):
            ledger = log.residual_prbs_timeline
            for k, trace in enumerate(traces, start):
                a = arrival_slots[k]
                window = ledger[a:a + T]
                if kind == "anticipatory":
                    plan = plan_anticipatory(video, trace, window)
                    admitted = plan.feasible
                else:
                    # first-slot test only: no knowledge of the window ahead
                    needed_now = video.bits_per_slot / trace.bits_per_prb[0]
                    admitted = needed_now <= window[0] + 1e-9
                    plan = (plan_baseline(video, trace, window) if admitted
                            else None)
                if not admitted:
                    log.records.append(RequestRecord(arrival_times[k], a,
                                                     False, None, 0))
                    continue
                window -= plan.prbs
                if window.min() < -1e-7:
                    raise RuntimeError("spectrum ledger driven negative")
                np.maximum(window, 0.0, out=window)      # drop rounding dust
                timeline = simulate_playback(plan.received_bits, video)
                log.records.append(RequestRecord(arrival_times[k], a, True,
                                                 plan, timeline.num_outages))
    return logs


def check_kv_values(kv_values) -> list:
    """The request volumes as a list; each an integer in [1, MAX_COUNT]."""
    kv_values = [check_int(kv, "kv", 1, MAX_COUNT) for kv in kv_values]
    if not kv_values:
        raise ValueError("kv_values must be non-empty")
    return kv_values


def service_curve(kv_values, video: VideoSpec, make_traces: TraceFactory,
                  base_config: AdmissionConfig, num_seeds: int = 10,
                  planner_kinds=PLANNER_KINDS) -> list[dict]:
    """Served counts per request volume, planner and seed (paired seeds).

    Seeds are derived as base_config.seed + i, so the planners see
    identical arrival processes and shadowing per (kv, seed) pair.
    base_config.total_requests is ignored: each run has max(kv_values).

    Admission records are prefix-consistent: the first kv records of a
    run equal a run of kv requests with the same seed.  So each seed runs
    once, at max(kv_values), in one pass that builds each block of traces
    once and runs every planner over it, and the row for each kv counts
    the first kv records of that planner's run.  Rows are ordered by kv
    (as given, duplicates kept), then planner, then seed.
    """
    kv_values = check_kv_values(kv_values)
    check_int(num_seeds, "num_seeds", 1, MAX_COUNT)
    # read twice, by each seed's pass and by the rows loop
    planner_kinds = tuple(planner_kinds)
    if not planner_kinds:
        raise ValueError("planner_kinds must be non-empty")
    seeds = [base_config.seed + i for i in range(num_seeds)]
    outcomes = {}                   # (planner, seed) -> [(admitted, served)]
    for seed in seeds:
        cfg = replace(base_config, total_requests=max(kv_values), seed=seed)
        logs = _run_admission(cfg, video, make_traces, planner_kinds)
        for kind, log in zip(planner_kinds, logs):
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
