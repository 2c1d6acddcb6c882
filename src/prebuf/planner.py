"""Per-user spectrum planning over the look-ahead window.

The buffer recursion plus channel capacities form a small LP: variables
x = [r_1..r_T, z_2..z_T], objective is the PRB-slots needed to deliver
the r's, equality rows force exactly one slot of video per slot, and box
bounds encode both the buffer cap and the residual spectrum left in each
slot.  `plan_anticipatory` solves it directly as a min-cost flow on a
line; the tests state it as a matrix and check the plans against LP
solvers.  The slot-local greedy with no look-ahead serves as the
comparison baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .link import ChannelTrace
from .playout import VideoSpec


@dataclass(frozen=True)
class AllocationPlan:
    """Planned per-slot delivery for one user (bits, bits, PRBs)."""

    received_bits: np.ndarray     # r_t, length T
    carryover_bits: np.ndarray    # z_2 .. z_T, length T-1
    prbs: np.ndarray              # w_t = r_t / c_t, length T
    total_prb_slots: float
    feasible: bool


def _check_inputs(spec: VideoSpec, trace: ChannelTrace, residual_prbs):
    residual = np.asarray(residual_prbs, dtype=float)
    if trace.num_slots != spec.num_slots:
        raise ValueError(
            f"trace covers {trace.num_slots} slots, video needs "
            f"{spec.num_slots}")
    if residual.shape != (spec.num_slots,):
        raise ValueError("residual_prbs length mismatch")
    if not (np.all(np.isfinite(residual)) and np.all(residual >= 0)):
        raise ValueError("residual_prbs must be finite and non-negative")
    return residual


def _infeasible_plan(T: int) -> AllocationPlan:
    z = np.zeros(T)
    return AllocationPlan(z, np.zeros(max(T - 1, 0)), z.copy(), 0.0, False)


def plan_anticipatory(spec: VideoSpec, trace: ChannelTrace,
                      residual_prbs) -> AllocationPlan:
    """Minimum-spectrum plan given predicted per-slot capacities.

    Serves slots in time order, each from the cheapest slot s <= t
    (highest c_s, latest on ties) with supply left and headroom on every
    carry-over arc in [s, t).  No flow yet crosses slot t, so this is the
    shortest augmenting path, and successive shortest paths are optimal
    (Ahuja, Magnanti and Orlin, Network Flows, ch. 9).

    Each augmentation is one backward scan from t over Python lists.  It
    tracks h, the least headroom on the carry-over arcs passed so far, so
    slot s can supply min(supply_s, h); slot t itself crosses no arc.  A
    strict > keeps the latest of tied slots.  The scan stops as soon as h
    is spent, since no earlier slot can then be reached, so the work per
    augmentation is O(t).  The float operations are those of the earlier
    numpy form, in the same order, so plans are byte-identical to it.
    """
    residual = _check_inputs(spec, trace, residual_prbs)
    T, V = spec.num_slots, spec.bits_per_slot
    z_max = spec.max_carryover_bits
    c = trace.bits_per_prb
    cs = c.tolist()
    supply = (c * residual).tolist()
    received = [0.0] * T
    carry = [0.0] * (T - 1)            # bits on the arc from slot s to s+1
    tol = 1e-12 * V       # rounding only, far inside playback's 1e-9 V
    for t in range(T):
        need = V
        while need > tol:
            best, best_c, best_avail = -1, 0.0, 0.0
            if supply[t] > tol:
                best, best_c, best_avail = t, cs[t], supply[t]
            h = inf
            for s in range(t - 1, -1, -1):
                headroom = z_max - carry[s]
                if headroom < h:
                    h = headroom
                    if h <= tol:
                        break
                if cs[s] > best_c:
                    avail = supply[s] if supply[s] < h else h
                    if avail > tol:
                        best, best_c, best_avail = s, cs[s], avail
            if best < 0:
                return _infeasible_plan(T)
            amount = min(need, best_avail)
            supply[best] -= amount
            for k in range(best, t):
                carry[k] += amount
            received[best] += amount
            need -= amount
    received = np.array(received)
    prbs = received / c
    return AllocationPlan(received, np.array(carry), prbs,
                          float(prbs.sum()), True)


def plan_baseline(spec: VideoSpec, trace: ChannelTrace,
                  residual_prbs) -> AllocationPlan:
    """Slot-local greedy: fetch this slot's bits now or fall short.

    Models a scheduler with no knowledge of future channel conditions and
    no pre-buffering: each slot requests exactly one slot of video,
    truncated to the spectrum still available.  Short slots surface as
    outages in simulation; the plan is marked infeasible if any occurred.
    """
    residual = _check_inputs(spec, trace, residual_prbs)
    cap_bits = trace.bits_per_prb * residual
    r = np.minimum(spec.bits_per_slot, cap_bits)
    short = np.any(r < spec.bits_per_slot)
    prbs = r / trace.bits_per_prb
    return AllocationPlan(r, np.zeros(spec.num_slots - 1), prbs,
                          float(prbs.sum()), not bool(short))
