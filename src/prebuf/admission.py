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

from ._checks import (MAX_COUNT, POSITIVE, check_fields, check_int,
                      check_items, check_real)
from .link import ChannelTrace
from .planner import plan_anticipatory, plan_baseline
from .playout import PLAYABLE_SHARE, VideoSpec, _fold_playback
# simulate_playback is unused here but kept as a module attribute: the
# benchmark tracer patches prebuf.admission.simulate_playback by name.
from .playout import simulate_playback  # noqa: F401

# Builds the channel traces of a block of user seeds, one per seed.
TraceFactory = Callable[[Sequence[np.random.SeedSequence]],
                        list[ChannelTrace]]

PLANNER_KINDS = ("anticipatory", "baseline")

# Most users per block: one spawn of user seeds and one TraceFactory call.
# It bounds the seeds and traces held at once in a long run.
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


@dataclass(frozen=True, slots=True)
class RequestRecord:
    arrival_time_s: float
    arrival_slot: int
    admitted: bool
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


def _check_kind(kind, name: str) -> str:
    """kind if it is one of PLANNER_KINDS; else a ValueError naming
    `name`."""
    if kind not in PLANNER_KINDS:
        raise ValueError(f"unknown planner kind ({name}) {kind!r}")
    return kind


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
    return _run_admission(config, video, make_traces,
                          [_check_kind(planner_kind, "planner_kind")])[0]


def _run_admission(config: AdmissionConfig, video: VideoSpec,
                   make_traces: TraceFactory, planner_kinds) -> list:
    """run_admission for each planner kind in one pass, one log per kind.

    The arrivals are drawn and each block of traces is built once; every
    planner then runs over the block's users against its own ledger, and
    the block is dropped when the next one replaces it.  The callers
    check every kind (_check_kind) before anything is drawn.  Each
    admitted plan's outage count is the number of stalls that
    _fold_playback, the buffer recursion simulate_playback also runs,
    finds in it; only that count is kept.  A feasible baseline plan is
    not played: its count is 0.  A baseline user is admitted iff the
    first slot's supply, in Python floats, is at least the share of
    bits_per_slot that playback plays (PLAYABLE_SHARE).

    Each admit debits its plan's PRBs from the window and reads the
    window's minimum once, by np.minimum.reduce (what window.min() calls
    after a Python wrapper).  Below -1e-7 PRB the ledger is broken and
    the run raises; below 0 the window holds rounding dust and is
    clamped to 0.  Most admits leave no dust and skip the clamp.  A
    window with no negative entry is left as it is, and the clamp would
    have changed it only at a -0.0 entry (np.maximum(-0.0, 0.0) is
    +0.0).  A debit x - y is -0.0 only for x = -0.0, so only a ledger
    filled with available_prbs = -0.0 holds one, and there every slot
    supplies -0.0 bits and no user is admitted.  So every ledger keeps
    its bits.
    """
    ss = np.random.SeedSequence(config.seed)
    arrival_rng = np.random.default_rng(ss.spawn(1)[0])
    interarrivals = arrival_rng.exponential(config.mean_interarrival_s,
                                            size=config.total_requests)
    T = video.num_slots
    playable = video.bits_per_slot * PLAYABLE_SHARE
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
    arrival_slots = np.floor(arrival_times / video.slot_duration_s).astype(
        int).tolist()
    arrival_times = arrival_times.tolist()
    # each planner's ledger, filled in place
    logs = [AdmissionLog(residual_prbs_timeline=np.full(
                arrival_slots[-1] + T, config.available_prbs))
            for _ in planner_kinds]

    for start in range(0, config.total_requests, TRACE_BLOCK):
        # Spawned per block once the horizon is legal; successive spawns
        # continue the keys from the arrival child's, as one
        # spawn(total_requests + 1) would give them.
        block = ss.spawn(min(TRACE_BLOCK, config.total_requests - start))
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
                    # first-slot test only: no knowledge of the window
                    # ahead; Python floats, so a product that overflows is
                    # inf without a numpy warning
                    admitted = (float(trace.bits_per_prb[0])
                                * float(window[0]) >= playable)
                    plan = (plan_baseline(video, trace, window) if admitted
                            else None)
                if not admitted:
                    log.records.append(RequestRecord(arrival_times[k], a,
                                                     False, 0))
                    continue
                window -= plan.prbs
                low = np.minimum.reduce(window, axis=None)
                if low < 0.0:
                    if low < -1e-7:
                        raise RuntimeError("spectrum ledger driven negative")
                    np.maximum(window, 0.0, out=window)  # drop rounding dust
                if kind == "baseline" and plan.feasible:
                    # every slot receives at least the playable share and
                    # at most one slot of video, so the fold would leave
                    # the buffer empty after each slot and find no stall
                    outages = 0
                else:
                    # the planners' received bits are finite, >= 0 and T
                    # long, so they are played without simulate_playback's
                    # checks
                    outages = len(_fold_playback(plan.received_bits.tolist(),
                                                 video.bits_per_slot)[1])
                log.records.append(RequestRecord(arrival_times[k], a, True,
                                                 outages))
    return logs


def _head_counts(records, marks: set) -> dict:
    """{n: (admitted, served) over the first n records} for each n in
    marks, in one pass over the records."""
    heads, admitted, served = {}, 0, 0
    for n, record in enumerate(records, 1):
        admitted += record.admitted
        served += record.served
        if n in marks:
            heads[n] = admitted, served
    return heads


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
    the first kv records of that planner's run.  Each pass's records are
    reduced to those counts as soon as it ends, so one pass's records are
    held at a time.  Rows are ordered by kv (as given, duplicates kept),
    then planner, then seed.
    """
    kv_values = check_items(kv_values, "kv_values", check_int, 1, MAX_COUNT)
    check_int(num_seeds, "num_seeds", 1, MAX_COUNT)
    planner_kinds = check_items(planner_kinds, "planner_kinds", _check_kind)
    seeds = [base_config.seed + i for i in range(num_seeds)]
    marks = set(kv_values)
    counts = {}             # (planner, seed) -> {kv: (admitted, served)}
    for seed in seeds:
        cfg = replace(base_config, total_requests=max(kv_values), seed=seed)
        logs = _run_admission(cfg, video, make_traces, planner_kinds)
        for kind in planner_kinds:      # each log is dropped once counted
            counts[kind, seed] = _head_counts(logs.pop(0).records, marks)
    rows = []
    for kv in kv_values:
        for kind in planner_kinds:
            for seed in seeds:
                admitted, served = counts[kind, seed][kv]
                rows.append({
                    "kv": kv,
                    "planner": kind,
                    "seed": seed,
                    "admitted": admitted,
                    "served": served,
                    "service_rate": served / kv,
                })
    return rows


def summarize_curve(rows: list[dict]) -> list[dict]:
    """Per-(kv, planner) means over seeds, in (kv, planner) order; each
    mean sums its rows in their order in `rows`."""
    groups = {}
    for r in rows:
        groups.setdefault((r["kv"], r["planner"]), []).append(r)
    out = []
    for kv, kind in sorted(groups):
        sel = groups[kv, kind]
        out.append({
            "kv": kv,
            "planner": kind,
            "mean_served": math.fsum(r["served"] for r in sel) / len(sel),
            "mean_service_rate":
                math.fsum(r["service_rate"] for r in sel) / len(sel),
        })
    return out
