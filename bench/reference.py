"""Reference results the benchmark checks the program's outputs against.

Nothing here calls into `prebuf`: the functions take the scenario's
configuration objects as plain inputs and recompute what the seed version
of the program produced, by routes that share no code with it.

- `trace_bits_per_prb` rebuilds a channel trace.  For a user moving in one
  direction, the memoized conditional shadowing sampler reduces to an AR(1)
  recursion over the same normal draws, so the result is bit-identical.
- `min_prb_slots` solves the planner's LP as a min-cost flow on a line by
  successive shortest paths.  The optimal objective is unique even where
  optimal plans are not.
- `count_outages` replays the play-out buffer.
- `baseline_admission` reruns the no-look-ahead admission experiment.
"""

from __future__ import annotations

import math

import numpy as np

# Relative slack on the per-slot demand, as the play-out model defines it.
OUTAGE_SLACK = 1e-9


def trajectory_m(scenario) -> np.ndarray:
    video = scenario.video
    t = np.arange(video.num_slots) * video.slot_duration_s
    return scenario.user_start_m + scenario.user_speed_mps * t


def _shadowing(positions, sigma_db, decorrelation_m, rng) -> list:
    if sigma_db == 0.0:
        return [0.0] * len(positions)
    var = sigma_db ** 2
    draws = rng.standard_normal(len(positions))
    values = [math.sqrt(var) * draws[0]]
    for k in range(1, len(positions)):
        delta = positions[k] - positions[k - 1]
        if decorrelation_m == 0.0:
            rho = 1.0 if delta == 0.0 else 0.0
        else:
            rho = math.exp(-abs(delta) / decorrelation_m)
        cvar = var * (1.0 - rho * rho)
        values.append(rho * values[-1]
                      + math.sqrt(max(cvar, 0.0)) * draws[k])
    return values


def trace_bits_per_prb(scenario, seed) -> np.ndarray:
    """Bits one PRB carries in each slot for one user of `scenario`.

    `seed` is an int or a `numpy.random.SeedSequence`, as the program's
    trace factory takes it.  Positions must be strictly increasing.
    """
    x = [float(v) for v in trajectory_m(scenario)]
    if any(b <= a for a, b in zip(x, x[1:])):
        raise ValueError("reference trace needs a strictly increasing "
                         "trajectory")
    link, shadow = scenario.link, scenario.shadowing
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    bs = [float(b) for b in scenario.bs_positions_m]
    fields = [_shadowing(x, shadow.sigma_db, shadow.decorrelation_m,
                         np.random.default_rng(child))
              for child in ss.spawn(len(bs))]

    power_w = 10.0 ** (link.total_power_dbm / 10.0) * 1e-3 \
        / link.num_system_prbs
    noise_w = 10.0 ** ((link.noise_psd_dbm_hz + link.noise_figure_db)
                       / 10.0) * 1e-3
    interference_w = 10.0 ** (link.interference_psd_dbm_hz / 10.0) * 1e-3
    npi_w = (noise_w + interference_w) * link.prb_bandwidth_hz
    gap = 10.0 ** (link.snr_gap_db / 10.0)
    dt = scenario.video.slot_duration_s

    bits = np.empty(len(x))
    for t, pos in enumerate(x):
        best = -math.inf
        for b, bx in enumerate(bs):
            d_km = max(abs(pos - bx), link.min_bs_distance_m) / 1000.0
            g = -(128.1 + 37.6 * math.log10(d_km)) + fields[b][t]
            best = max(best, g)
        sinr = power_w * 10.0 ** (best / 10.0) / (gap * npi_w)
        bits[t] = dt * link.prb_bandwidth_hz * math.log2(1.0 + sinr)
    return bits


def min_prb_slots(bits_per_prb, residual_prbs, bits_per_slot: float,
                  max_carryover_bits: float) -> float | None:
    """Least PRB-slots that play the whole video without a stall.

    Slot s supplies up to c_s * w_s bits at 1/c_s PRB-slots per bit; the
    buffer carries at most Z bits from one slot to the next; each slot
    consumes V bits.  Demands are served in time order, each from the
    cheapest earlier slot whose supply and carry-over arcs have room.  No
    flow crosses a slot not yet served, so that path is the shortest
    augmenting path and the result is optimal.  Returns None when no plan
    exists.
    """
    c = np.asarray(bits_per_prb, dtype=float)
    supply = c * np.asarray(residual_prbs, dtype=float)
    T = c.size
    flow = np.zeros(max(T - 1, 0))
    tol = 1e-9 * bits_per_slot
    total = 0.0
    for t in range(T):
        need = bits_per_slot
        while need > tol:
            room = max_carryover_bits - flow[:t]
            headroom = np.append(np.minimum.accumulate(room[::-1])[::-1],
                                 np.inf)
            avail = np.minimum(supply[:t + 1], headroom)
            usable = np.flatnonzero(avail > tol)
            if usable.size == 0:
                return None
            s = int(usable[np.argmax(c[usable])])
            amount = min(need, avail[s])
            supply[s] -= amount
            flow[s:t] += amount
            need -= amount
            total += amount / c[s]
    return total


def count_outages(received_bits, bits_per_slot: float) -> tuple[int, float]:
    """Stalled slots and the bits left in the buffer after the last slot."""
    z = 0.0
    stalls = 0
    for r in received_bits:
        have = float(r) + z
        if have >= bits_per_slot * (1.0 - OUTAGE_SLACK):
            z = max(have - bits_per_slot, 0.0)
        else:
            z = have
            stalls += 1
    return stalls, z


def baseline_admission(scenario, total_requests: int, seed: int,
                       mean_interarrival_s: float,
                       available_prbs: float) -> tuple[int, int]:
    """(admitted, served) for one no-look-ahead admission run.

    A request is admitted when its first slot fits in the spectrum left;
    it then takes, slot by slot, what it needs or what is left, and is
    served when that plays without a stall.
    """
    video = scenario.video
    V, T = video.bits_per_slot, video.num_slots
    arrival_ss, *user_seeds = np.random.SeedSequence(seed).spawn(
        total_requests + 1)
    times = np.cumsum(np.random.default_rng(arrival_ss).exponential(
        mean_interarrival_s, size=total_requests))
    slots = np.floor(times / video.slot_duration_s).astype(int)
    ledger = np.full(int(slots[-1]) + T, float(available_prbs))
    admitted = served = 0
    for a, user_ss in zip(slots, user_seeds):
        c = trace_bits_per_prb(scenario, user_ss)
        window = ledger[a:a + T]
        if V / c[0] > window[0] + 1e-9:
            continue
        received = np.minimum(V, c * window)
        window -= received / c
        np.clip(window, 0.0, None, out=window)
        admitted += 1
        served += count_outages(received, V)[0] == 0
    return admitted, served
