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

from ._checks import (MAX_COUNT, POSITIVE, check_array, check_fields,
                      check_int, check_real)


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

    def _with_cap(self, cap: float) -> "VideoSpec":
        """This spec with max_carryover_bits = cap, a Python float the
        caller has checked as __post_init__ checks it, made without
        __post_init__."""
        spec = object.__new__(type(self))
        spec.__dict__.update(vars(self), max_carryover_bits=cap)
        return spec


@dataclass(frozen=True)
class BufferTimeline:
    """Slot-by-slot result of feeding a received-bits plan to the player."""

    carryover_bits: np.ndarray   # buffer content entering each slot, z_1 = 0
    outage_flags: np.ndarray     # a slot plays bits_per_slot unless flagged
    final_carryover_bits: float  # buffer content left after the last slot
    carryover_limit_exceeded: bool = False

    @property
    def num_outages(self) -> int:
        return int(np.count_nonzero(self.outage_flags))


# Least share of bits_per_slot that plays a slot.  The 1e-9 relative
# slack lets plans meeting the no-outage equalities up to rounding play
# through sub-microbit shortfalls; plan_baseline's feasible flag uses it
# too, so a plan is feasible iff it plays without a stall.
PLAYABLE_SHARE = 1.0 - 1e-9


def _fold_playback(received: list, v: float) -> tuple[list, list, float]:
    """One pass of the buffer recursion over a received-bits list: the
    carry entering each slot, the stalled slots and the final carry.

    The recursion is kept slot by slot as step_buffer in tests/oracles.py.
    It has two callers: simulate_playback, after its input checks, and
    admission, on the plans its own planners built.  It keeps only the
    carry and the stalls: the outage flags follow from the stalls, and
    the cap test from the carry list and the final carry.
    """
    need = v * PLAYABLE_SHARE
    carry = [0.0] * len(received)
    stalls = []
    z = 0.0
    for t, r in enumerate(received):
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
    return carry, stalls, z


def simulate_playback(plan_received, spec: VideoSpec) -> BufferTimeline:
    """Fold the buffer recursion over a full received-bits plan.

    Ground truth for any allocation plan: a plan is good iff this reports
    zero outages.  Carry-over beyond spec.max_carryover_bits is flagged on
    the timeline (planner bug or hand-made plan), never clipped.  The
    plan is checked here and then played by _fold_playback, the one
    buffer recursion, which admission also calls to count each admitted
    plan's stalls.
    """
    received = check_array(plan_received, "plan_received", spec.num_slots,
                           0.0)
    v = spec.bits_per_slot
    carry, stalls, z = _fold_playback(received.tolist(), v)
    limit = spec.max_carryover_bits + 1e-6 * v
    exceeded = bool(max(carry) > limit) or z > limit
    outage = np.zeros(spec.num_slots, dtype=bool)
    if stalls:
        outage[stalls] = True
    return BufferTimeline(np.array(carry), outage, z, exceeded)
