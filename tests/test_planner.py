import inspect
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import prebuf.planner
from prebuf import (ChannelTrace, LinkBudget, VideoSpec, build_trace,
                    plan_anticipatory, plan_baseline, simulate_playback)
from prebuf.simplex import LpProblem, solve

from oracles import (build_buffer_matrix, plan_anticipatory_numpy,
                     two_slot_plan_objective)
from test_link import (CONTRACT_SLOTS, LINK_EXTREMES, extreme_calls,
                       with_extreme)

V = 250_000.0


def make_spec(T, z_cap):
    return VideoSpec(bits_per_slot=V, slot_duration_s=1 / 6, num_slots=T,
                     max_carryover_bits=z_cap)


def trace_from_capacity(bits_per_prb):
    """Trace with prescribed per-PRB capacities (geometry irrelevant),
    given to ChannelTrace as they are."""
    T = len(bits_per_prb)
    return ChannelTrace(distances_m=np.full(T, 100.0),
                        gain_db=np.zeros(T),
                        bits_per_prb=bits_per_prb)


def random_trace(rng, T):
    spec = make_spec(T, 0.0)
    traj = 35.0 + 30.0 * spec.slot_duration_s * np.arange(T)
    return build_trace(traj, [0.0, 550.0], LinkBudget(), spec.slot_duration_s,
                       seed=int(rng.integers(1 << 31)))


class TestBufferMatrix:
    def test_t3_structure(self):
        A = build_buffer_matrix(3)
        expect = np.array([
            [1.0, 0.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0, -1.0],
            [0.0, 0.0, 1.0, 0.0, 1.0],
        ])
        assert np.array_equal(A, expect)

    def test_t1_has_no_carryover_block(self):
        assert np.array_equal(build_buffer_matrix(1), [[1.0]])

    @pytest.mark.parametrize("T", [2, 3, 5, 17])
    def test_carryover_columns_telescope(self, T):
        A = build_buffer_matrix(T)
        assert A.shape == (T, 2 * T - 1)
        assert np.allclose(A[:, T:].sum(axis=0), 0.0)

    def test_invalid_t_rejected(self):
        with pytest.raises(ValueError):
            build_buffer_matrix(0)


class TestPlanAnticipatory:
    def test_zero_buffer_forces_constant_rate(self):
        rng = np.random.default_rng(1)
        trace = random_trace(rng, 24)
        spec = make_spec(24, 0.0)
        residual = np.full(24, 50.0)
        plan = plan_anticipatory(spec, trace, residual)
        assert plan.feasible
        assert plan.received_bits == pytest.approx([V] * 24, rel=1e-9)
        assert plan.total_prb_slots == pytest.approx(
            float(np.sum(V / trace.bits_per_prb)), rel=1e-9)

    def test_two_slot_instance_matches_brute_force(self):
        trace = trace_from_capacity([2e6, 0.5e6])
        spec = VideoSpec(bits_per_slot=1e6, slot_duration_s=1 / 6,
                         num_slots=2, max_carryover_bits=1e6)
        plan = plan_anticipatory(spec, trace, [50.0, 50.0])
        assert plan.feasible
        assert plan.received_bits == pytest.approx([2e6, 0.0], abs=1e-3)
        assert plan.carryover_bits == pytest.approx([1e6], abs=1e-3)
        oracle = two_slot_plan_objective([2e6, 0.5e6], 1e6, 1e6)
        assert plan.total_prb_slots == pytest.approx(1.0, abs=1e-9)
        assert plan.total_prb_slots == pytest.approx(oracle, abs=1e-5)

    def test_constant_capacity_objective_independent_of_buffering(self):
        trace = trace_from_capacity([8e5] * 10)
        for z_cap in (0.0, V, 5 * V):
            plan = plan_anticipatory(make_spec(10, z_cap), trace,
                                     np.full(10, 50.0))
            assert plan.feasible
            assert plan.total_prb_slots == pytest.approx(10 * V / 8e5,
                                                         rel=1e-9)

    def test_infeasible_when_capacity_missing(self):
        trace = trace_from_capacity([8e5] * 4)
        residual = np.array([50.0, 0.0, 50.0, 50.0])
        plan = plan_anticipatory(make_spec(4, 0.0), trace, residual)
        assert not plan.feasible

    def test_buffering_routes_around_capacity_hole(self):
        trace = trace_from_capacity([8e5] * 4)
        residual = np.array([50.0, 0.0, 50.0, 50.0])
        plan = plan_anticipatory(make_spec(4, 2 * V), trace, residual)
        assert plan.feasible
        timeline = simulate_playback(plan.received_bits, make_spec(4, 2 * V))
        assert timeline.num_outages == 0
        assert plan.prbs[1] == pytest.approx(0.0, abs=1e-9)

    def test_prbs_consistent_with_received(self):
        rng = np.random.default_rng(5)
        trace = random_trace(rng, 24)
        plan = plan_anticipatory(make_spec(24, 5 * V), trace,
                                 np.full(24, 50.0))
        assert np.array_equal(plan.prbs,
                              plan.received_bits / trace.bits_per_prb)

    def test_mass_balance(self):
        rng = np.random.default_rng(8)
        trace = random_trace(rng, 48)
        plan = plan_anticipatory(make_spec(48, 5 * V), trace,
                                 np.full(48, 50.0))
        assert plan.feasible
        assert float(np.sum(plan.received_bits)) == pytest.approx(
            48 * V, rel=1e-6)

    def test_roundtrip_playback_no_outage(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            T = int(rng.integers(4, 40))
            trace = random_trace(rng, T)
            spec = make_spec(T, float(rng.integers(0, 6)) * V)
            plan = plan_anticipatory(spec, trace, np.full(T, 50.0))
            assert plan.feasible
            timeline = simulate_playback(plan.received_bits, spec)
            assert timeline.num_outages == 0
            assert timeline.final_carryover_bits == pytest.approx(0.0,
                                                                  abs=1e-3)
            assert not timeline.carryover_limit_exceeded

    def test_monotone_in_buffer_cap(self):
        rng = np.random.default_rng(21)
        trace = random_trace(rng, 48)
        totals = [plan_anticipatory(make_spec(48, k * V), trace,
                                    np.full(48, 50.0)).total_prb_slots
                  for k in range(6)]
        assert np.all(np.diff(totals) <= 1e-9)

    @pytest.mark.parametrize("plan", [plan_anticipatory, plan_baseline])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_nonfinite_or_negative_residual_rejected(self, plan, bad):
        trace = trace_from_capacity([8e5] * 5)
        for slot in (0, 2, 4):                  # first, middle and last
            residual = np.full(5, 50.0)
            residual[slot] = bad
            with pytest.raises(ValueError, match="residual_prbs"):
                plan(make_spec(5, V), trace, residual)

    @pytest.mark.parametrize("plan", [plan_anticipatory, plan_baseline])
    def test_overflowing_supply_rejected(self, plan):
        # finite residual and capacity whose product is not; rejected,
        # and the suite's warnings-as-errors shows numpy warns nothing
        trace = trace_from_capacity([8e5, 1e3, 8e5])
        with pytest.raises(ValueError, match="residual_prbs"):
            plan(make_spec(3, V), trace, [50.0, 1e308, 50.0])

    @pytest.mark.parametrize("plan", [plan_anticipatory, plan_baseline])
    def test_errstate_only_when_supply_may_overflow(self, plan, monkeypatch):
        # the product of the maxima is finite on the common path, so no
        # slot's product can overflow and numpy's errstate is not entered
        entered = []
        errstate = np.errstate

        def counted(**kwargs):
            entered.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counted)
        plan(make_spec(3, V), trace_from_capacity([8e5, 1e3, 8e5]),
             [50.0, 1e300, 50.0])
        assert entered == []
        plan(make_spec(2, 0.0), trace_from_capacity([1.0, 1e6]),
             [1e308, 1.0])
        assert entered == [{"over": "ignore"}]

    @pytest.mark.parametrize("plan", [plan_anticipatory, plan_baseline])
    def test_large_factors_in_different_slots_planned(self, plan):
        # max(residual) * max(capacity) overflows, yet every slot's own
        # supply (1e308 and 1e6 bits) is finite, so the plan goes ahead
        trace = trace_from_capacity([1.0, 1e6])
        p = plan(make_spec(2, 0.0), trace, [1e308, 1.0])
        assert p.feasible
        assert p.received_bits.tolist() == [V, V]

    def test_length_mismatch_rejected(self):
        trace = trace_from_capacity([8e5] * 4)
        with pytest.raises(ValueError, match="video needs"):
            plan_anticipatory(make_spec(5, 0.0), trace, np.full(5, 50.0))
        with pytest.raises(ValueError):
            plan_anticipatory(make_spec(4, 0.0), trace, np.full(5, 50.0))


def random_flow_instance(rng):
    """Small planning instance with tied capacities and empty slots.

    Capacities come from four levels so equal costs are common; about a
    fifth of the slots have no spectrum left; the buffer cap is one of
    0, V, 3V, 10V or unbounded.
    """
    T = int(rng.integers(1, 13))
    c = rng.choice([1e5, 2e5, 4e5, 8e5], size=T)
    residual = rng.uniform(0.0, 6.0, size=T).round(2)
    residual[rng.random(T) < 0.2] = 0.0
    z_cap = float(rng.choice([0.0, V, 3 * V, 10 * V, np.inf]))
    return trace_from_capacity(c), residual, make_spec(T, z_cap)


def lp_in_video_slots(trace, residual, spec):
    """The planner LP of `build_buffer_matrix` with bits in units of V."""
    T, c = spec.num_slots, trace.bits_per_prb
    z_cap = spec.max_carryover_bits / V
    return (np.concatenate([V / c, np.zeros(T - 1)]), build_buffer_matrix(T),
            np.ones(T), np.concatenate([c * residual / V,
                                        np.full(T - 1, z_cap)]))


@st.composite
def flow_instances(draw):
    """T in 1..8, free capacities and residuals, Z in {0, kV, inf}."""
    T = draw(st.integers(1, 8))
    caps = draw(st.lists(st.floats(5e4, 2e6), min_size=T, max_size=T))
    residual = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 6.0)),
                             min_size=T, max_size=T))
    z_cap = draw(st.one_of(st.just(0.0), st.just(np.inf),
                           st.integers(1, 10).map(lambda k: k * V)))
    return (trace_from_capacity(caps), np.array(residual),
            make_spec(T, z_cap))


class TestFlowAgainstLp:
    @settings(max_examples=200, deadline=None)
    @given(flow_instances())
    def test_flow_equals_simplex_property(self, instance):
        trace, residual, spec = instance
        cost, A, b, upper = lp_in_video_slots(trace, residual, spec)
        plan = plan_anticipatory(spec, trace, residual)
        ref = solve(LpProblem(objective=cost, eq_matrix=A, eq_rhs=b,
                              var_upper_bounds=upper))
        assert ref.status in ("optimal", "infeasible")
        assert plan.feasible == (ref.status == "optimal")
        if not plan.feasible:
            return
        assert plan.total_prb_slots == pytest.approx(ref.objective_value,
                                                     rel=1e-9)
        timeline = simulate_playback(plan.received_bits, spec)
        assert timeline.num_outages == 0
        assert timeline.final_carryover_bits == pytest.approx(
            0.0, abs=1e-9 * V)
        assert not timeline.carryover_limit_exceeded

    def test_matches_simplex_and_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(31)
        seen = {"infeasible": 0, "zero_cap": 0, "unbounded_cap": 0,
                "empty_slot": 0, "tie": 0}
        for k in range(300):
            trace, residual, spec = random_flow_instance(rng)
            cost, A, b, upper = lp_in_video_slots(trace, residual, spec)
            plan = plan_anticipatory(spec, trace, residual)
            ref = solve(LpProblem(objective=cost, eq_matrix=A, eq_rhs=b,
                                  var_upper_bounds=upper))
            highs = linprog(cost, A_eq=A, b_eq=b, method="highs",
                            bounds=[(0.0, None if np.isinf(u) else u)
                                    for u in upper])
            assert ref.status in ("optimal", "infeasible"), k
            assert highs.status in (0, 2), k
            assert plan.feasible == (ref.status == "optimal") \
                == (highs.status == 0), k
            seen["infeasible"] += not plan.feasible
            seen["zero_cap"] += spec.max_carryover_bits == 0.0
            seen["unbounded_cap"] += np.isinf(spec.max_carryover_bits)
            seen["empty_slot"] += bool(np.any(residual == 0.0))
            seen["tie"] += len(set(trace.bits_per_prb)) < spec.num_slots
            if not plan.feasible:
                continue
            total = plan.total_prb_slots
            assert total == pytest.approx(ref.objective_value, rel=1e-9), k
            assert total == pytest.approx(highs.fun, rel=1e-9), k
            timeline = simulate_playback(plan.received_bits, spec)
            assert timeline.num_outages == 0, k
            assert timeline.final_carryover_bits == pytest.approx(
                0.0, abs=1e-9 * V), k
            assert not timeline.carryover_limit_exceeded, k
        assert all(count >= 30 for count in seen.values()), seen
        assert seen["infeasible"] <= 270, seen


class TestPlanBytes:
    """The list scan reproduces the numpy augmentation loop bit for bit."""

    @staticmethod
    def assert_same_bytes(spec, trace, residual):
        plan = plan_anticipatory(spec, trace, residual)
        received, carry, prbs, total, feasible = plan_anticipatory_numpy(
            spec, trace, residual)
        assert np.array_equal(plan.received_bits, received)
        assert np.array_equal(plan.carryover_bits, carry)
        assert np.array_equal(plan.prbs, prbs)
        assert plan.total_prb_slots == total
        assert plan.feasible == feasible
        return feasible

    def test_trace_grid(self):
        rng = np.random.default_rng(7)
        feasible = 0
        for _ in range(40):
            trace = random_trace(rng, 96)
            zeroed = rng.choice(96, size=5, replace=False)
            for prbs in (50.0, 15.0, 3.0):
                residual = np.full(96, prbs)
                residual[zeroed] = 0.0
                for k in (0, 1, 5, 10, 40, np.inf):
                    feasible += self.assert_same_bytes(
                        make_spec(96, k * V), trace, residual)
        assert 0 < feasible < 40 * 3 * 6      # both outcomes covered

    @pytest.mark.parametrize("z_cap", [0.0, V, np.inf])
    @pytest.mark.parametrize("residual", [[50.0], [0.0], [0.5]])
    def test_single_slot(self, z_cap, residual):
        self.assert_same_bytes(make_spec(1, z_cap),
                               trace_from_capacity([8e5]), residual)

    @pytest.mark.parametrize("z_cap", [0.0, 3 * V, np.inf])
    def test_all_zero_residual(self, z_cap):
        assert not self.assert_same_bytes(
            make_spec(6, z_cap), trace_from_capacity([8e5] * 6), np.zeros(6))

    @pytest.mark.parametrize("z_cap", [0.0, V, 3 * V, np.inf])
    def test_tied_capacities(self, z_cap):
        caps = [4e5, 8e5, 8e5, 2e5, 8e5, 4e5, 4e5, 1e5]
        residual = [1.0, 0.2, 0.4, 3.0, 0.3, 1.5, 0.0, 6.0]
        self.assert_same_bytes(make_spec(8, z_cap),
                               trace_from_capacity(caps), residual)

    def test_random_small_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            trace, residual, spec = random_flow_instance(rng)
            self.assert_same_bytes(spec, trace, residual)



@st.composite
def tied_instances(draw):
    """T in 1..12 on four capacity levels, some residuals zeroed, and Z
    from 0 through a sliver at most the tolerance up to unbounded."""
    T = draw(st.integers(1, 12))
    caps = draw(st.lists(st.sampled_from([1e5, 2e5, 4e5, 8e5]),
                         min_size=T, max_size=T))
    residual = draw(st.lists(
        st.one_of(st.just(0.0), st.sampled_from([0.1, 0.3, 0.6, 1.0, 2.5]),
                  st.floats(0.0, 6.0)), min_size=T, max_size=T))
    z_cap = draw(st.sampled_from([0.0, 1e-13 * V, 1e-12 * V, 0.5 * V, V,
                                  1.5 * V, 3 * V, np.inf]))
    return trace_from_capacity(caps), np.array(residual), make_spec(T, z_cap)


@st.composite
def falling_instances(draw):
    """T in 1..16 with capacities that never rise, so that one front
    feeds run after run of slots, residuals from none to ample, and Z in
    {0, V, 3V, inf}."""
    T = draw(st.integers(1, 16))
    caps = draw(st.lists(st.one_of(st.sampled_from([1e5, 2e5, 4e5, 8e5]),
                                   st.floats(5e4, 2e6)),
                         min_size=T, max_size=T))
    residual = draw(st.lists(
        st.one_of(st.just(0.0), st.sampled_from([0.1, 0.3, 0.6, 1.0, 2.5]),
                  st.floats(0.0, 40.0)), min_size=T, max_size=T))
    z_cap = draw(st.sampled_from([0.0, V, 3 * V, np.inf]))
    return (trace_from_capacity(sorted(caps, reverse=True)),
            np.array(residual), make_spec(T, z_cap))


@pytest.fixture
def rescans(monkeypatch):
    """The calls plan_anticipatory makes to max, each a rescan of a path's
    peak carry, as a list that grows by one per call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return max(*args)

    monkeypatch.setattr(prebuf.planner, "max", counted, raising=False)
    return calls


class TestWindowSearchBytes:
    """Cases aimed at the window queue of `plan_anticipatory`, each against
    the numpy augmentation loop bit for bit."""

    assert_same_bytes = staticmethod(TestPlanBytes.assert_same_bytes)

    @pytest.mark.parametrize("z_cap", [11 * V, 20 * V, np.inf])
    def test_one_front_feeds_many_slots(self, z_cap, rescans):
        # slot 0 serves itself and the eleven slots after it; only its
        # first path scans its arcs, and each later one carries the peak
        # forward (at 11V the last path fills the arc out of slot 0)
        spec, trace = make_spec(12, z_cap), trace_from_capacity(
            [8e5] + [1e5] * 11)
        residual = [50.0] + [10.0] * 11
        assert self.assert_same_bytes(spec, trace, residual)
        assert len(rescans) == 1
        plan = plan_anticipatory(spec, trace, residual)
        assert plan.received_bits.tolist() == [12 * V] + [0.0] * 11
        assert plan.carryover_bits.tolist() == [(11 - k) * V
                                                for k in range(11)]

    @pytest.mark.parametrize("z_cap", [1.5 * V, 2.5 * V])
    def test_saturation_after_a_carried_peak(self, z_cap):
        # slot 0 feeds slots 1, 2, ... from a carried peak until the peak
        # plus the amount fills the arc out of slot 0; the rest comes
        # from the latest of the tied slots
        spec, trace = make_spec(5, z_cap), trace_from_capacity(
            [8e5, 1e5, 1e5, 1e5, 1e5])
        assert self.assert_same_bytes(spec, trace, [50.0] + [10.0] * 4)
        received = plan_anticipatory(spec, trace, [50.0] + [10.0] * 4) \
            .received_bits
        assert received[0] == V + z_cap
        assert received.sum() == 5 * V

    @pytest.mark.parametrize("z_cap", [1.5 * V, 2 * V, np.inf])
    def test_self_served_slots_between_paths_from_one_front(self, z_cap,
                                                            rescans):
        # slots 2 and 3 outrank slot 0, hold one slot of video each and
        # serve themselves, moving no carry; once each runs out the queue
        # is rebuilt with slot 0 in front, and slot 0's path to slot 4
        # takes the peak its path to slot 1 left
        spec, trace = make_spec(5, z_cap), trace_from_capacity(
            [8e5, 1e5, 1e6, 1e6, 1e5])
        residual = [50.0, 10.0, 0.25, 0.25, 10.0]
        assert self.assert_same_bytes(spec, trace, residual)
        assert len(rescans) == 1
        received = plan_anticipatory(spec, trace, residual).received_bits
        assert received[2] == received[3] == V
        assert received[0] == V + min(z_cap, 2 * V)

    @pytest.mark.parametrize("z_cap", [1.5 * V, 2 * V, np.inf])
    def test_rebuild_returns_to_the_carried_front(self, z_cap, rescans):
        # slot 0 feeds slot 1; slot 2 outranks it, serves itself and half
        # of slot 3 and runs out.  Its path replaced the carried pair, so
        # the rebuilt queue's front, slot 0, rescans before it serves the
        # rest of slot 3, and then carries its new peak to slot 4
        spec, trace = make_spec(5, z_cap), trace_from_capacity(
            [8e5, 1e5, 1e6, 1e5, 1e5])
        residual = [50.0, 10.0, 0.375, 10.0, 10.0]
        assert self.assert_same_bytes(spec, trace, residual)
        assert len(rescans) == 3       # slot 0 to 1, 2 to 3 and 0 to 3
        received = plan_anticipatory(spec, trace, residual).received_bits
        assert received[2] == 1.5 * V
        assert received[0] == V + min(z_cap, 2.5 * V)

    @settings(max_examples=300, deadline=None)
    @given(falling_instances())
    def test_falling_capacities_property(self, instance):
        trace, residual, spec = instance
        self.assert_same_bytes(spec, trace, residual)

    @pytest.mark.parametrize("z_cap", [V, 2 * V, np.inf])
    def test_self_served_front_runs_out(self, z_cap, rescans):
        # slot 1 outranks slot 0 and serves itself, keeping 1e-13 V, which
        # is within the tolerance: it has run out after a self-served
        # augmentation, so the queue is rebuilt with slot 0 in front, and
        # slot 0 serves slot 2 across both arcs in one rescanned path
        spec, trace = make_spec(3, z_cap), trace_from_capacity(
            [4e5, 8e5, 2e5])
        residual = [10.0, V * (1.0 + 1e-13) / 8e5, 10.0]
        assert 0.0 < 8e5 * residual[1] - V <= 1e-12 * V
        assert self.assert_same_bytes(spec, trace, residual)
        assert len(rescans) == 1
        assert plan_anticipatory(spec, trace, residual).received_bits \
            .tolist() == [2 * V, V, 0.0]

    def test_front_slot_runs_out(self):
        # slot 1 outranks slot 0 but holds under one slot of video; once
        # it is spent, slot 0 (popped when slot 1 arrived) must serve
        assert self.assert_same_bytes(
            make_spec(3, 3 * V), trace_from_capacity([2e5, 8e5, 4e5]),
            [10.0, 0.2, 10.0])

    @pytest.mark.parametrize("z_cap", [1e-13 * V, 1e-12 * V,
                                       math.nextafter(1e-12 * V, math.inf)])
    def test_cap_within_tolerance(self, z_cap, rescans):
        # up to the 1e-12 V tolerance every carry-over arc is saturated
        # from the start, so each slot is served from itself, not from
        # the cheaper slot before it.  One ulp above it, slots 1 and 3
        # each take the cap from the slot before, which saturates its arc.
        assert self.assert_same_bytes(
            make_spec(4, z_cap), trace_from_capacity([8e5, 4e5, 8e5, 2e5]),
            [10.0, 10.0, 10.0, 10.0])
        assert len(rescans) == (0 if z_cap <= 1e-12 * V else 2)
        received = plan_anticipatory(
            make_spec(4, z_cap), trace_from_capacity([8e5, 4e5, 8e5, 2e5]),
            [10.0, 10.0, 10.0, 10.0]).received_bits
        assert received.tolist() == ([V] * 4 if z_cap <= 1e-12 * V else
                                     [V + z_cap, V - z_cap] * 2)

    def test_saturation_moves_the_edge(self):
        # slot 0 serves slots 0 and 1 and half of slot 2, which fills the
        # arc out of slot 0; the rest of slot 2 comes from the latest of
        # the tied slots after it
        assert self.assert_same_bytes(
            make_spec(4, 1.5 * V), trace_from_capacity([8e5, 2e5, 2e5, 2e5]),
            [10.0, 10.0, 10.0, 10.0])

    def test_headroom_equal_to_tolerance_is_saturated(self):
        # with V = 2**-40 / 1e-12 the tolerance is 2**-40 exactly, so
        # carrying one slot of video under Z = V + tol leaves exactly tol
        v = 2.0 ** -40 / 1e-12
        tol = 1e-12 * v
        spec = VideoSpec(bits_per_slot=v, slot_duration_s=1 / 6,
                         num_slots=3, max_carryover_bits=v + tol)
        assert spec.max_carryover_bits - v == tol == 2.0 ** -40
        assert self.assert_same_bytes(spec, trace_from_capacity([2.0, 1.0,
                                                                 1.0]),
                                      [10.0, 10.0, 10.0])

    @pytest.mark.parametrize("z_cap", [V, np.inf])
    def test_tie_with_dead_later_twin(self, z_cap):
        # slot 2 ties slot 0 but has no spectrum, so it never enters the
        # window and cannot displace slot 0
        assert self.assert_same_bytes(
            make_spec(4, z_cap), trace_from_capacity([8e5, 4e5, 8e5, 1e5]),
            [5.0, 1.0, 0.0, 3.0])

    @pytest.mark.parametrize("z_cap", [V, np.inf])
    @pytest.mark.parametrize("excess, live", [(1e-9, True), (1e-13, False)])
    def test_leftover_supply_at_tolerance(self, z_cap, excess, live):
        # slot 0, cheaper than slot 1, serves itself and keeps excess * V.
        # Above the 1e-12 V tolerance it stays live and serves that sliver
        # of slot 1 (a 1e-6 V tolerance would drop it); within it, slot 0
        # has run out although its supply is not 0.
        spec, trace = make_spec(2, z_cap), trace_from_capacity([8e5, 4e5])
        residual = [V * (1.0 + excess) / 8e5, 10.0]
        supply = 8e5 * residual[0]
        assert (1e-12 * V < supply - V <= 1e-6 * V if live
                else 0.0 < supply - V <= 1e-12 * V)
        assert self.assert_same_bytes(spec, trace, residual)
        assert plan_anticipatory(spec, trace, residual).received_bits[0] \
            == (supply if live else V)

    @pytest.mark.parametrize("z_cap", [V, np.inf])
    def test_sliver_of_supply_stays_out_of_the_window(self, z_cap):
        # slot 1 is the cheapest slot but holds 1e-13 V, within the
        # 1e-12 V tolerance: it never joins the window, so slot 0 serves
        # all of slot 1 and slot 1 receives nothing
        spec, trace = make_spec(2, z_cap), trace_from_capacity([2e5, 8e5])
        residual = [10.0, 1e-13 * V / 8e5]
        assert 0.0 < 8e5 * residual[1] <= 1e-12 * V
        assert self.assert_same_bytes(spec, trace, residual)
        assert plan_anticipatory(spec, trace, residual).received_bits \
            .tolist() == [2 * V, 0.0]

    @settings(max_examples=300, deadline=None)
    @given(tied_instances())
    def test_tied_levels_property(self, instance):
        trace, residual, spec = instance
        self.assert_same_bytes(spec, trace, residual)

class TestPlanBaseline:
    def test_matches_zero_buffer_plan_with_ample_capacity(self):
        rng = np.random.default_rng(2)
        trace = random_trace(rng, 24)
        residual = np.full(24, 50.0)
        base = plan_baseline(make_spec(24, 5 * V), trace, residual)
        anticip = plan_anticipatory(make_spec(24, 0.0), trace, residual)
        assert base.feasible
        assert base.received_bits == pytest.approx(anticip.received_bits,
                                                   rel=1e-9)
        assert base.total_prb_slots == pytest.approx(
            anticip.total_prb_slots, rel=1e-9)

    def test_starved_slot_marks_infeasible(self):
        trace = trace_from_capacity([8e5] * 4)
        residual = np.array([50.0, 0.0, 50.0, 50.0])
        plan = plan_baseline(make_spec(4, 5 * V), trace, residual)
        assert not plan.feasible
        timeline = simulate_playback(plan.received_bits, make_spec(4, 5 * V))
        assert timeline.num_outages == 1

    @pytest.mark.parametrize("short, feasible", [(1e-10, True),
                                                 (1e-8, False)])
    def test_feasible_iff_playback_finds_no_stall(self, short, feasible):
        # a slot short by less than playback's 1e-9 V slack plays, so the
        # plan is feasible; a larger shortfall stalls
        trace = trace_from_capacity([1.0] * 4)
        spec = make_spec(4, 0.0)
        plan = plan_baseline(spec, trace, [V * (1 - short)] * 4)
        assert plan.feasible == feasible
        timeline = simulate_playback(plan.received_bits, spec)
        assert (timeline.num_outages == 0) == feasible

    def test_two_slot_instance_total(self):
        trace = trace_from_capacity([2e6, 0.5e6])
        spec = VideoSpec(bits_per_slot=1e6, slot_duration_s=1 / 6,
                         num_slots=2, max_carryover_bits=0.0)
        plan = plan_baseline(spec, trace, [50.0, 50.0])
        assert plan.total_prb_slots == pytest.approx(2.5, abs=1e-9)

    def test_anticipatory_never_worse(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            T = int(rng.integers(4, 32))
            trace = random_trace(rng, T)
            residual = np.full(T, 50.0)
            spec = make_spec(T, 5 * V)
            base = plan_baseline(spec, trace, residual)
            anticip = plan_anticipatory(spec, trace, residual)
            if base.feasible and anticip.feasible:
                assert anticip.total_prb_slots \
                    <= base.total_prb_slots + 1e-9


CONTRACT_VIDEO = {"bits_per_slot": V, "slot_duration_s": 1 / 6,
                  "num_slots": CONTRACT_SLOTS, "max_carryover_bits": 2 * V}


def plan_contract_cases():
    """VideoSpec, both planners and simulate_playback with arguments they
    accept, by name; the VideoSpec fields and the trace's capacities
    count as arguments of the callables built on them."""
    yield VideoSpec, dict(CONTRACT_VIDEO)
    for planner in (plan_anticipatory, plan_baseline):
        yield planner, {**CONTRACT_VIDEO,
                        "bits_per_prb": [3e5, 1e5, 6e5, 2e5],
                        "residual_prbs": [15.0] * CONTRACT_SLOTS}
    yield simulate_playback, {**CONTRACT_VIDEO,
                              "plan_received": [2 * V, 0.0, V, V]}


def check_plan_contract(fn, args):
    """The call returns or raises a ValueError naming an argument or a
    parameter of fn; any other error or a warning fails.  A planner's
    received bits are float64, finite, >= 0 and num_slots long, which
    admission relies on when it plays them without simulate_playback's
    checks."""
    names = [*args, *inspect.signature(fn).parameters]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if fn is VideoSpec:
                fn(**args)
                return
            spec = VideoSpec(**{name: args[name] for name in CONTRACT_VIDEO})
            if fn is simulate_playback:
                fn(args["plan_received"], spec)
                return
            plan = fn(spec, trace_from_capacity(args["bits_per_prb"]),
                      args["residual_prbs"])
        except ValueError as e:
            assert any(name in str(e) for name in names), (fn, args, str(e))
            return
    received = plan.received_bits
    assert received.dtype == np.float64, (fn, args)
    assert received.shape == (spec.num_slots,), (fn, args)
    assert np.all(np.isfinite(received)) and received.min() >= 0.0, \
        (fn, args)


# Planner calls with float32 maxima in a field and in a capacity: in float32
# arithmetic they overflow in a cast, with a numpy warning.
F32_MAX = np.finfo(np.float32).max
F32_PLAN = {**CONTRACT_VIDEO, "bits_per_prb": [F32_MAX, 1e5, 6e5, 2e5],
            "residual_prbs": [15.0] * CONTRACT_SLOTS}


class TestPlanContract:
    """Whatever the values, a video, planner or playback call returns or
    raises a ValueError that names an argument; no other error, no
    warning."""

    def test_each_extreme_alone(self):
        for fn, args in plan_contract_cases():
            for name, value, slot in itertools.product(
                    args, LINK_EXTREMES, (0, -1)):
                check_plan_contract(fn, with_extreme(args, name, value, slot))

    @settings(max_examples=200, deadline=None)
    @given(call=extreme_calls(list(plan_contract_cases())))
    @example(call=(plan_anticipatory,
                   {**F32_PLAN, "max_carryover_bits": F32_MAX}))
    @example(call=(plan_anticipatory, {**F32_PLAN, "bits_per_slot": F32_MAX}))
    def test_extreme_arguments(self, call):
        check_plan_contract(*call)
