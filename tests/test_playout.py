import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from oracles import step_buffer

from prebuf import (LinkBudget, VideoSpec, build_trace, plan_anticipatory,
                    plan_baseline, simulate_playback)

V = 250_000.0


def spec_for(received, z_cap=10 * V):
    return VideoSpec(bits_per_slot=V, slot_duration_s=1 / 6,
                     num_slots=len(received), max_carryover_bits=z_cap)


class TestStepBuffer:
    def test_carryover_arithmetic(self):
        assert step_buffer(50_000, 300_000, V) == (100_000, V, False)

    def test_exact_rate_steady_state(self):
        assert step_buffer(0.0, V, V) == (0.0, V, False)

    def test_starvation_retains_bits(self):
        assert step_buffer(100_000, 0.0, V) == (100_000, 0.0, True)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            step_buffer(-1.0, 0.0, V)
        with pytest.raises(ValueError):
            step_buffer(0.0, -1.0, V)

    @pytest.mark.parametrize("args", [(np.nan, 0.0, V), (0.0, np.nan, V),
                                      (0.0, 0.0, np.nan)])
    def test_nan_input_rejected(self, args):
        with pytest.raises(ValueError):
            step_buffer(*args)

    @given(st.floats(min_value=0, max_value=1e7),
           st.floats(min_value=0, max_value=1e7),
           st.floats(min_value=1, max_value=1e7))
    def test_more_bits_never_create_outage(self, z, r, v):
        _, _, outage = step_buffer(z, r, v)
        _, _, outage_more = step_buffer(z, r + v, v)
        if not outage:
            assert not outage_more


class TestSimulatePlayback:
    def test_exact_rate_plan(self):
        timeline = simulate_playback([V] * 5, spec_for([V] * 5))
        assert timeline.num_outages == 0
        assert np.all(timeline.carryover_bits == 0)
        assert np.all(timeline.played_bits == V)

    def test_one_slot_preload(self):
        received = [2 * V, 0.0, V]
        timeline = simulate_playback(received, spec_for(received))
        assert timeline.num_outages == 0
        assert timeline.carryover_bits == pytest.approx([0.0, V, 0.0])
        assert timeline.final_carryover_bits == pytest.approx(0.0)

    def test_starvation_slot_flagged(self):
        received = [1.5 * V, 0.0, V]
        timeline = simulate_playback(received, spec_for(received))
        assert list(timeline.outage_flags) == [False, True, False]
        assert timeline.played_bits[1] == 0.0
        # stalled slot retains its buffered half-slot
        assert timeline.carryover_bits[2] == pytest.approx(0.5 * V)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate_playback([V, V], spec_for([V] * 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_nonfinite_or_negative_received_rejected(self, bad):
        for slot in (0, 2, 4):                  # first, middle and last
            received = [V] * 5
            received[slot] = bad
            with pytest.raises(ValueError, match="received bits"):
                simulate_playback(received, spec_for(received))

    def test_carryover_cap_violation_flagged_not_clipped(self):
        received = [3 * V, 0.0, 0.0]
        timeline = simulate_playback(received, spec_for(received, z_cap=V))
        assert timeline.carryover_limit_exceeded
        assert timeline.carryover_bits[1] == pytest.approx(2 * V)

    def test_deterministic(self):
        received = [1.7 * V, 0.3 * V, V]
        a = simulate_playback(received, spec_for(received))
        b = simulate_playback(received, spec_for(received))
        assert np.array_equal(a.carryover_bits, b.carryover_bits)
        assert np.array_equal(a.outage_flags, b.outage_flags)

    @given(st.lists(st.floats(min_value=0, max_value=4 * V),
                    min_size=1, max_size=12))
    def test_mass_balance(self, received):
        timeline = simulate_playback(received, spec_for(received))
        played = float(np.sum(timeline.played_bits))
        total_in = float(np.sum(received))
        assert played == pytest.approx(
            total_in - timeline.final_carryover_bits, abs=1e-3)

    @given(st.lists(st.floats(min_value=0, max_value=4 * V),
                    min_size=1, max_size=12))
    def test_played_bounded_by_v(self, received):
        timeline = simulate_playback(received, spec_for(received))
        assert np.all(timeline.played_bits >= 0)
        assert np.all(timeline.played_bits <= V)


def fold_step_buffer(received, spec):
    """The timeline as a plain fold of step_buffer over the plan."""
    carry, played, outage = [], [], []
    z = 0.0
    for r in received:
        carry.append(z)
        z, p, o = step_buffer(z, float(r), spec.bits_per_slot)
        played.append(p)
        outage.append(o)
    carry = np.array(carry)
    limit = spec.max_carryover_bits + 1e-6 * spec.bits_per_slot
    exceeded = bool(np.any(carry > limit)) or z > limit
    return carry, np.array(played), np.array(outage), exceeded


def assert_same_bytes(got, want):
    """Equal dtype and bytes: unlike np.array_equal, -0.0 != 0.0."""
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestPlaybackAgainstStepBuffer:
    def test_planned_timelines_bit_identical(self):
        rng = np.random.default_rng(5)
        outages = 0
        for k in range(30):
            spec = VideoSpec(bits_per_slot=V, slot_duration_s=1 / 6,
                             num_slots=96, max_carryover_bits=5 * V)
            traj = 35.0 + 5.0 * np.arange(96)
            trace = build_trace(traj, [0.0, 550.0], LinkBudget(),
                                spec.slot_duration_s, seed=k)
            residual = np.full(96, float(rng.choice([50.0, 15.0, 3.0])))
            residual[rng.choice(96, size=5, replace=False)] = 0.0
            for planner in (plan_anticipatory, plan_baseline):
                received = planner(spec, trace, residual).received_bits
                timeline = simulate_playback(received, spec)
                carry, played, outage, exceeded = fold_step_buffer(
                    received, spec)
                assert_same_bytes(timeline.received_bits, received)
                for got, want in ((timeline.carryover_bits, carry),
                                  (timeline.played_bits, played),
                                  (timeline.outage_flags, outage)):
                    assert_same_bytes(got, want)
                assert timeline.carryover_limit_exceeded == exceeded
                outages += timeline.num_outages
        assert outages > 0

    @given(st.lists(st.floats(min_value=0, max_value=4 * V),
                    min_size=1, max_size=12),
           st.sampled_from([0.0, V, np.inf]))
    @example([V * (1.0 - 1e-9), 0.0, 2.5 * V], V)   # exactly at the slack
    @example([4 * V, 4 * V, 0.0, 4 * V], np.inf)    # unbounded buffer
    @example([1.5 * V, 0.5 * V, 0.0], V)      # slot 2's total is exactly V
    # a 2.5V cap passed only by the final carry, or only mid-run; each
    # with and without a stall
    @example([V, V, 4.6 * V], 2.5 * V)
    @example([0.0, V, 4.6 * V], 2.5 * V)
    @example([4.6 * V, 0.0, 0.0, 0.0, V], 2.5 * V)
    @example([4.6 * V, 0.0, 0.0, 0.0, 0.0, V], 2.5 * V)
    def test_hand_made_plans_bit_identical(self, received, z_cap):
        spec = spec_for(received, z_cap=z_cap)
        timeline = simulate_playback(received, spec)
        carry, played, outage, exceeded = fold_step_buffer(received, spec)
        for got, want in ((timeline.carryover_bits, carry),
                          (timeline.played_bits, played),
                          (timeline.outage_flags, outage)):
            assert_same_bytes(got, want)
        assert timeline.carryover_limit_exceeded == exceeded


class TestVideoSpecValidation:
    def test_unbounded_buffer_accepted(self):
        spec = VideoSpec(bits_per_slot=V, slot_duration_s=1 / 6,
                         num_slots=96, max_carryover_bits=np.inf)
        assert spec.max_carryover_bits == np.inf

    def test_consistent_rate_accepted(self):
        spec = VideoSpec(bits_per_slot=V, slot_duration_s=1 / 6,
                         num_slots=96, max_carryover_bits=0.0)
        assert spec.bits_per_slot / spec.slot_duration_s \
            == pytest.approx(1.5e6)

    @pytest.mark.parametrize("kwargs", [
        {"bits_per_slot": 0.0},
        {"slot_duration_s": 0.0},
        {"num_slots": 0},
        {"max_carryover_bits": -1.0},
        {"bits_per_slot": np.nan},
        {"bits_per_slot": np.inf},
        {"slot_duration_s": np.nan},
        {"slot_duration_s": np.inf},
        {"max_carryover_bits": np.nan},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        base = dict(bits_per_slot=V, slot_duration_s=1 / 6, num_slots=96,
                    max_carryover_bits=0.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            VideoSpec(**base)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.5, True])
    def test_num_slots_must_be_int(self, bad):
        with pytest.raises(ValueError, match="num_slots"):
            VideoSpec(bits_per_slot=V, slot_duration_s=1 / 6,
                      num_slots=bad, max_carryover_bits=0.0)

    @pytest.mark.parametrize("huge", [2 ** 20 + 1, 10 ** 12])
    def test_num_slots_bounded(self, huge):
        # a slot count sizes every per-slot array, so it is checked first
        with pytest.raises(ValueError, match="num_slots must be an integer "
                                             "in"):
            VideoSpec(bits_per_slot=V, slot_duration_s=1 / 6,
                      num_slots=huge, max_carryover_bits=0.0)

    def test_numpy_int_num_slots_accepted(self):
        spec = VideoSpec(bits_per_slot=V, slot_duration_s=1 / 6,
                         num_slots=np.int64(96), max_carryover_bits=0.0)
        assert spec.num_slots == 96
