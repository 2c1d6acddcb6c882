import numpy as np
import pytest
from hypothesis import given, strategies as st

from prebuf import VideoSpec, simulate_playback, step_buffer

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
        received = [V, bad, V]
        with pytest.raises(ValueError):
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
