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

from collections import deque
from dataclasses import dataclass
from math import inf

import numpy as np

from ._checks import check_array_max
from .link import ChannelTrace
from .playout import PLAYABLE_SHARE, VideoSpec


@dataclass(frozen=True)
class AllocationPlan:
    """Planned per-slot delivery for one user (bits, bits, PRBs)."""

    received_bits: np.ndarray     # r_t, length T
    carryover_bits: np.ndarray    # z_2 .. z_T, length T-1
    prbs: np.ndarray              # w_t = r_t / c_t, length T
    feasible: bool

    @property
    def total_prb_slots(self) -> float:
        return float(self.prbs.sum())


def _supply_bits(spec: VideoSpec, trace: ChannelTrace,
                 residual_prbs) -> np.ndarray:
    """Check the inputs; return each slot's supply bits_per_prb * residual."""
    if trace.num_slots != spec.num_slots:
        raise ValueError(
            f"trace covers {trace.num_slots} slots, video needs "
            f"{spec.num_slots}")
    residual, top = check_array_max(residual_prbs, "residual_prbs",
                                    spec.num_slots, 0.0)
    # Both factors are finite and >= 0, so no slot's product overflows if
    # the product of the maxima, in Python floats, is finite; otherwise
    # a product is inf only where it overflowed, which is reported here
    # rather than warned by numpy.  The residual's max is the one its
    # check reduced; the capacities' is the ufunc reduction that c.max()
    # wraps, as in finite_max.
    c = trace.bits_per_prb
    if float(np.maximum.reduce(c, axis=None)) * top < inf:
        return c * residual
    with np.errstate(over="ignore"):
        supply = c * residual
    if supply.max() == inf:
        raise ValueError("residual_prbs too large: its supply "
                         "residual_prbs * bits_per_prb overflows")
    return supply


def _infeasible_plan(T: int) -> AllocationPlan:
    z = np.zeros(T)
    return AllocationPlan(z, np.zeros(max(T - 1, 0)), z.copy(), False)


def plan_anticipatory(spec: VideoSpec, trace: ChannelTrace,
                      residual_prbs) -> AllocationPlan:
    """Minimum-spectrum plan given predicted per-slot capacities.

    Serves slots in time order, each from the cheapest slot s <= t
    (highest c_s, latest on ties) with supply left and headroom on every
    carry-over arc in [s, t).  No flow yet crosses slot t, so this is the
    shortest augmenting path, and successive shortest paths are optimal
    (Ahuja, Magnanti and Orlin, Network Flows, ch. 9).

    The search is a window queue over Python lists.  The window is the
    slots after the edge, the latest saturated carry-over arc (headroom
    z_max - carry <= tol); carries only grow, so the edge only moves
    right, and with Z <= tol the window is slot t alone.  In the window a
    slot can supply bits iff its supply > tol, so the best slot is the
    front of a queue of live slots with strictly falling c; a new slot
    pops the back while c[back] <= c[new], so the latest tie wins.  Float
    subtraction rounds monotonically, so z_max - top, with top the peak
    max(carry[best:t]), is exactly the least headroom on the path.
    The peak is carried forward, not rescanned, when a path starts at
    `last`, the front of the last path that moved carry: `last_top` is
    that path's peak after its update, the float sum of its peak and
    amount.  That is its arcs' new maximum exactly, since rounding is
    monotone: max_k fl(carry_k + a) = fl(max_k carry_k + a).  An arc
    that joins the range later still carries 0 <= last_top, a
    self-served slot moves no carry, and any other path replaces the
    pair, so top is always max(carry[best:t]), and z_max - last_top <= tol
    exactly tells that the update saturated an arc.  Only the front's
    supply changes, so only the front can run out; the queue is then
    rebuilt from the window's live slots.  amount, supply, carry and
    received take the float operations of plan_anticipatory_numpy in
    tests/oracles.py in the same order, so plans are byte-identical to it.
    """
    supply = _supply_bits(spec, trace, residual_prbs).tolist()
    T, V = spec.num_slots, spec.bits_per_slot
    z_max = spec.max_carryover_bits
    c = trace.bits_per_prb
    cs = c.tolist()
    received = [0.0] * T
    carry = [0.0] * (T - 1)            # bits on the arc from slot s to s+1
    tol = 1e-12 * V       # rounding only, far inside playback's 1e-9 V
    window = deque()      # live slots after the edge, c strictly falling
    edge = -1             # latest saturated carry-over arc
    last, last_top = -1, 0.0   # front of the last path that moved carry,
                               # and that path's peak carry after it
    for t in range(T):
        if z_max <= tol:               # every arc is saturated from the start
            window.clear()
            edge = t - 1
        if supply[t] > tol:
            while window and cs[window[-1]] <= cs[t]:
                window.pop()
            window.append(t)
        need = V
        while need > tol:
            if not window:
                return _infeasible_plan(T)
            best = window[0]
            if best < t:
                top = last_top if best == last else max(carry[best:t])
                h = z_max - top
                avail = supply[best] if supply[best] < h else h
            else:
                avail = supply[t]
            amount = need if need < avail else avail
            supply[best] -= amount
            for k in range(best, t):
                carry[k] += amount
            received[best] += amount
            need -= amount
            if best < t:
                last, last_top = best, top + amount
                if z_max - last_top <= tol:
                    edge = t - 1
                    while z_max - carry[edge] > tol:
                        edge -= 1
                    while window and window[0] <= edge:
                        window.popleft()
            if supply[best] <= tol:    # the front ran out: rebuild
                window.clear()
                for s in range(edge + 1, t + 1):
                    if supply[s] > tol:
                        while window and cs[window[-1]] <= cs[s]:
                            window.pop()
                        window.append(s)
    # the same float64 values np.array(received) holds, without its
    # inference of type and shape
    received = np.fromiter(received, float, T)
    return AllocationPlan(received, np.fromiter(carry, float, T - 1),
                          received / c, True)


def plan_baseline(spec: VideoSpec, trace: ChannelTrace,
                  residual_prbs) -> AllocationPlan:
    """Slot-local greedy: fetch this slot's bits now or fall short.

    Models a scheduler with no knowledge of future channel conditions and
    no pre-buffering: each slot requests exactly one slot of video,
    truncated to the spectrum still available.  Short slots surface as
    outages in simulation; the plan is marked infeasible if any occurred.
    No slot receives more than bits_per_slot, so nothing is buffered and
    the first stall is the first slot short of playback's playable share.
    """
    cap_bits = _supply_bits(spec, trace, residual_prbs)
    r = np.minimum(spec.bits_per_slot, cap_bits)
    short = np.minimum.reduce(r, axis=None) \
        < spec.bits_per_slot * PLAYABLE_SHARE
    return AllocationPlan(r, np.zeros(spec.num_slots - 1),
                          r / trace.bits_per_prb, not bool(short))
