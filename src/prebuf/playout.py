"""Client play-out buffer dynamics.

Each slot the player needs a fixed number of bits; whatever arrived on top
of that is carried over, bounded by the maximum buffer size.  A slot where
buffered plus received bits fall short is an outage: playback stalls for
that slot and the buffered bits are retained (HLS-style stop and refill,
no partial frames).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import all_finite, check_int


@dataclass(frozen=True)
class VideoSpec:
    """One constant-rate video stream sliced into fixed-duration slots."""

    bits_per_slot: float
    slot_duration_s: float
    num_slots: int
    max_carryover_bits: float

    def __post_init__(self) -> None:
        for name in ("bits_per_slot", "slot_duration_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive and finite")
        check_int(self.num_slots, "num_slots", 1)
        # an infinite cap is legal and means an unbounded buffer
        if math.isnan(self.max_carryover_bits) \
                or self.max_carryover_bits < 0:
            raise ValueError("max_carryover_bits must be >= 0")


@dataclass(frozen=True)
class BufferTimeline:
    """Slot-by-slot result of feeding a received-bits plan to the player."""

    received_bits: np.ndarray
    carryover_bits: np.ndarray   # buffer content entering each slot, z_1 = 0
    played_bits: np.ndarray
    outage_flags: np.ndarray
    carryover_limit_exceeded: bool = False

    @property
    def num_outages(self) -> int:
        return int(np.count_nonzero(self.outage_flags))

    @property
    def final_carryover_bits(self) -> float:
        t = self.received_bits
        return float(t[-1] + self.carryover_bits[-1] - self.played_bits[-1])


def step_buffer(z_t: float, r_t: float, v: float):
    """Advance the buffer one slot; returns (z_next, played, outage).

    The outage comparison carries a 1e-9 relative slack so that plans
    satisfying the no-outage equalities up to floating-point rounding do
    not stall on sub-microbit shortfalls.
    """
    if not (z_t >= 0 and r_t >= 0 and v >= 0):     # NaN fails too
        raise ValueError("buffer quantities must be non-negative")
    total = r_t + z_t
    if total >= v * (1.0 - 1e-9):
        return max(total - v, 0.0), v, False
    return total, 0.0, True


def simulate_playback(plan_received, spec: VideoSpec) -> BufferTimeline:
    """Fold the buffer recursion over a full received-bits plan.

    Ground truth for any allocation plan: a plan is good iff this reports
    zero outages.  Carry-over beyond spec.max_carryover_bits is flagged on
    the timeline (planner bug or hand-made plan), never clipped.
    """
    received = np.asarray(plan_received, dtype=float)
    if received.shape != (spec.num_slots,):
        raise ValueError(
            f"plan has {received.size} slots, expected {spec.num_slots}")
    if not all_finite(received, 0.0):
        raise ValueError("received bits must be finite and non-negative")

    # step_buffer's recursion, inlined; the inputs are checked above.  The
    # pass keeps only the carry and the stalled slots: a slot plays v
    # unless it stalls, so played bits and outage flags follow from those.
    v = spec.bits_per_slot
    need = v * (1.0 - 1e-9)
    carry = [0.0] * spec.num_slots
    stalls = []
    z = 0.0
    for t, r in enumerate(received.tolist()):
        carry[t] = z
        total = r + z
        if total >= need:
            # max(total - v, 0.0), without the cost of a builtin call
            z = total - v
            if z < 0.0:
                z = 0.0
        else:
            z = total
            stalls.append(t)
    carry = np.array(carry)
    outage = np.zeros(spec.num_slots, dtype=bool)
    outage[stalls] = True
    limit = spec.max_carryover_bits + 1e-6 * v
    exceeded = bool(carry.max() > limit) or z > limit
    return BufferTimeline(received, carry, np.where(outage, 0.0, v),
                          outage, exceeded)
