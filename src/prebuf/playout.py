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

from ._checks import (MAX_COUNT, POSITIVE, all_finite, check_fields,
                      check_int, check_real, real_array)


@dataclass(frozen=True)
class VideoSpec:
    """One constant-rate video stream sliced into fixed-duration slots."""

    bits_per_slot: float
    slot_duration_s: float
    num_slots: int
    max_carryover_bits: float

    def __post_init__(self) -> None:
        # an infinite cap is legal and means an unbounded buffer
        check_fields(self, bits_per_slot=(check_real, POSITIVE),
                     slot_duration_s=(check_real, POSITIVE),
                     num_slots=(check_int, 1, MAX_COUNT),
                     max_carryover_bits=(check_real, 0, math.inf))


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


def simulate_playback(plan_received, spec: VideoSpec) -> BufferTimeline:
    """Fold the buffer recursion over a full received-bits plan.

    Ground truth for any allocation plan: a plan is good iff this reports
    zero outages.  Carry-over beyond spec.max_carryover_bits is flagged on
    the timeline (planner bug or hand-made plan), never clipped.
    """
    received = real_array(plan_received, "plan_received")
    if received.shape != (spec.num_slots,):
        raise ValueError(
            f"plan (plan_received) has {received.size} slots, expected "
            f"{spec.num_slots}")
    if not all_finite(received, 0.0):
        raise ValueError("received bits (plan_received) must be finite and "
                         "non-negative")

    # One pass of the buffer recursion (kept slot by slot as step_buffer
    # in tests/oracles.py); the inputs are checked above.  The outage test
    # has a 1e-9 relative slack so that plans meeting the no-outage
    # equalities up to rounding do not stall on sub-microbit shortfalls.
    # The pass keeps only the carry and the stalled slots: a slot plays v
    # unless it stalls, so played bits and outage flags follow from those,
    # and the cap test from the carry list.
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
    limit = spec.max_carryover_bits + 1e-6 * v
    exceeded = bool(max(carry) > limit) or z > limit
    outage = np.zeros(spec.num_slots, dtype=bool)
    if stalls:
        outage[stalls] = True
    return BufferTimeline(received, np.array(carry),
                          np.where(outage, 0.0, v), outage, exceeded)
