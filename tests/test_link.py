import itertools
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import build_trace_loop
from test_scenario import EXTREME_FLOATS, EXTREME_INTS

from prebuf import (ChannelTrace, LinkBudget, ScenarioConfig, ShadowingConfig,
                    ShadowingField, admission, build_trace, build_traces,
                    link, path_loss_db, per_prb_bits, scenario)
from prebuf._checks import MAX_COUNT


SLOT_S = 1 / 6
# the argument each kind of position is checked as
POSITION_ARG = {"trajectory": "trajectory_m", "BS": "bs_positions_m"}
UNSHADOWED = ShadowingConfig(sigma_db=0.0)


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss_db(1.0) == pytest.approx(128.1, abs=1e-12)

    def test_one_decade_below(self):
        assert path_loss_db(0.1) == pytest.approx(128.1 - 37.6, abs=1e-12)

    def test_min_bs_distance(self):
        # 128.1 + 37.6*log10(0.035), evaluated independently
        assert path_loss_db(0.035) == pytest.approx(73.356958, abs=1e-5)

    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_nonpositive_distance_rejected(self, bad):
        with pytest.raises(ValueError):
            path_loss_db(bad)

    @given(st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=1.001, max_value=3.0))
    def test_strictly_increasing(self, d, factor):
        assert path_loss_db(d * factor) > path_loss_db(d)


class TestShadowing:
    def test_zero_sigma_is_zero(self):
        rng = np.random.default_rng(3)
        f = ShadowingField(rng, shadowing=UNSHADOWED)
        assert f.sample([123.4]).tolist() == [0.0]
        assert f.sample([0.0]).tolist() == [0.0]
        assert np.array_equal(f.sample([1.0, 2.0]), np.zeros(2))
        # and draws nothing from the generator
        assert rng.standard_normal() \
            == np.random.default_rng(3).standard_normal()

    def test_same_position_same_value(self):
        f = ShadowingField(np.random.default_rng(7))
        values = f.sample([42.0, 10.0, 99.0, 42.0])
        assert values[3] == values[0]

    def test_permuted_positions_permute_values(self):
        positions = np.array([300.0, 5.0, 105.0, 55.0, 0.5, 220.0])
        perm = np.random.default_rng(1).permutation(positions.size)
        a = ShadowingField(np.random.default_rng(11))
        b = ShadowingField(np.random.default_rng(11))
        assert np.array_equal(b.sample(positions[perm]),
                              a.sample(positions)[perm])

    @pytest.mark.parametrize("sigma_db, decorrelation_m", [
        (-1.0, 50.0), (math.nan, 50.0), (math.inf, 50.0), (1e200, 50.0),
        (math.nextafter(link.MAX_SIGMA_DB, math.inf), 50.0),
        (10.0, -1.0), (10.0, math.nan),
    ])
    def test_bad_parameters_rejected(self, sigma_db, decorrelation_m):
        with pytest.raises(ValueError):
            ShadowingField(np.random.default_rng(0), shadowing=ShadowingConfig(
                sigma_db, decorrelation_m))

    def test_largest_sigma_has_finite_variance(self):
        # the square of MAX_SIGMA_DB is finite; one ulp more overflows
        f = ShadowingField(np.random.default_rng(0),
                           shadowing=ShadowingConfig(link.MAX_SIGMA_DB))
        assert np.all(np.isfinite(f.sample([0.0, 10.0, 20.0])))

    @pytest.mark.parametrize("sigma_db", [10.0, 0.0])
    @pytest.mark.parametrize("positions", [
        [0.0, math.nan, 5.0], [0.0, math.inf], [-math.inf, 0.0]])
    def test_nonfinite_positions_rejected(self, positions, sigma_db):
        f = ShadowingField(np.random.default_rng(0),
                           shadowing=ShadowingConfig(sigma_db))
        for _ in range(2):          # a failed call leaves nothing cached
            with pytest.raises(ValueError, match="positions"):
                f.sample(positions)

    def test_empty_positions(self):
        # positions are taken by check_array: non-empty and 1-D
        for sigma_db in (10.0, 0.0):
            f = ShadowingField(np.random.default_rng(2),
                               shadowing=ShadowingConfig(sigma_db))
            for positions in ([], 5.0, [[0.0, 1.0]]):
                with pytest.raises(ValueError, match=r"positions_m must be "
                                   r"1-D with at least 1 element"):
                    f.sample(positions)

    def test_same_seed_same_stream(self):
        positions = [5.0, 105.0, 55.0, 300.0]
        a = ShadowingField(np.random.default_rng(11))
        b = ShadowingField(np.random.default_rng(11))
        assert [a.sample([p]).tolist() for p in positions] \
            == [b.sample([p]).tolist() for p in positions]

    def test_monte_carlo_std(self):
        # widely separated positions are near-independent draws
        f = ShadowingField(np.random.default_rng(0))
        samples = [f.sample([i * 10_000.0])[0] for i in range(10_000)]
        assert 9.0 <= np.std(samples) <= 11.0

    def test_nearby_positions_strongly_correlated(self):
        deltas = []
        for k in range(500):
            f = ShadowingField(np.random.default_rng(k))
            at_0, at_1 = f.sample([0.0, 1.0])
            deltas.append(at_0 - at_1)
        # corr exp(-1/50) => std of difference ~ 10*sqrt(2*(1-rho)) ~ 2
        assert np.std(deltas) < 4.0

    def test_correlation_at_decorrelation_distance(self):
        pairs = np.array([
            ShadowingField(np.random.default_rng(k))
            .sample([0.0, 50.0]) for k in range(1000)])
        # standard error of the sample correlation ~ 0.027 at n = 1000
        corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert corr == pytest.approx(math.exp(-1.0), abs=0.08)

    def test_zero_decorrelation_is_independent(self):
        f = ShadowingField(np.random.default_rng(4),
                           shadowing=ShadowingConfig(decorrelation_m=0.0))
        values = f.sample(np.arange(2000) * 1e-3)
        assert abs(np.corrcoef(values[:-1], values[1:])[0, 1]) < 0.1
        assert 9.0 <= np.std(values) <= 11.0

    def test_infinite_decorrelation_is_constant(self):
        f = ShadowingField(np.random.default_rng(4),
                           shadowing=ShadowingConfig(decorrelation_m=math.inf))
        values = f.sample([0.0, 1e3, 1e6])
        assert values[0] != 0.0
        assert np.all(values == values[0])


class TestPerPrbBits:
    def test_table_budget_spot_value(self):
        # independent dB chain: 46-10log10(50) dBm per PRB, noise
        # -174+9+10log10(180e3) dBm, interference -149+10log10(180e3) dBm
        budget = LinkBudget()
        got = per_prb_bits(-90.5, budget, 1 / 6)
        p_dbm = 46 - 10 * math.log10(50)
        noise_mw = 10 ** ((-174 + 9 + 10 * math.log10(180e3)) / 10)
        intf_mw = 10 ** ((-149 + 10 * math.log10(180e3)) / 10)
        sinr = 10 ** ((p_dbm - 90.5) / 10) / (noise_mw + intf_mw)
        expect = (1 / 6) * 180e3 * math.log2(1 + sinr)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(3.47e5, rel=0.01)

    def test_monotone_in_gain(self):
        budget = LinkBudget()
        gains = np.linspace(-130.0, -60.0, 40)
        vals = [per_prb_bits(g, budget, 1 / 6) for g in gains]
        assert np.all(np.diff(vals) > 0)

    def test_decreasing_in_gap(self):
        vals = [per_prb_bits(-90.5, LinkBudget(snr_gap_db=g), 1 / 6)
                for g in (0.0, 3.0, 6.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_vanishes_at_deep_fade(self):
        assert per_prb_bits(-400.0, LinkBudget(), 1 / 6) \
            == pytest.approx(0.0, abs=1e-3)

    def test_linear_in_slot_duration(self):
        budget = LinkBudget()
        one = per_prb_bits(-95.0, budget, 1 / 6)
        assert per_prb_bits(-95.0, budget, 2 / 6) == pytest.approx(
            2 * one, rel=1e-14)

    @pytest.mark.parametrize("gain_db", [1e4, 3000.0, 1e308])
    def test_overflowing_capacity_names_gain(self, gain_db):
        # 1e4 overflows 10 ** (gain / 10); 3000 overflows the SINR to inf
        with pytest.raises(ValueError, match="gain_db"):
            per_prb_bits(gain_db, LinkBudget(), 1 / 6)

    def test_overflowing_linear_gain_is_inf(self):
        # 10 ** (1e4 / 10) is past math.pow's range: every capacity of the
        # call is inf, and per_prb_bits reports it by its usual message
        bits = link._capacities(np.array([-90.0, 1e4]), LinkBudget(), 1 / 6)
        assert np.array_equal(bits, [math.inf, math.inf])
        with pytest.raises(ValueError) as exc:
            per_prb_bits(1e4, LinkBudget(), 1 / 6)
        assert str(exc.value) == (
            "gain_db 10000.0 dB with slot_duration_s 0.16666666666666666 s "
            "gives a per-PRB capacity that overflows or is not a number")

    def test_nan_capacity_rejected(self):
        # an inf slot bandwidth (1e308 s at 180 kHz) times a zero rate
        with pytest.raises(ValueError, match="slot_duration_s"):
            per_prb_bits(-1e308, LinkBudget(), 1e308)


class TestBuildTrace:
    def test_receding_user_single_bs(self):
        traj = 40.0 + 25.0 * np.arange(10)
        trace = build_trace(traj, [0.0], LinkBudget(), SLOT_S,
                            shadowing=UNSHADOWED, seed=0)
        assert np.all(np.diff(trace.gain_db) < 0)
        assert np.array_equal(trace.distances_m, traj)
        assert np.all(np.diff(trace.bits_per_prb) < 0)

    def test_symmetric_crossing_handover(self):
        T = 9
        traj = np.linspace(50.0, 450.0, T)   # midpoint slot sits at 250 m
        budget = LinkBudget()
        trace = build_trace(traj, [0.0, 500.0], budget, SLOT_S,
                            shadowing=UNSHADOWED, seed=0)
        # the nearer BS serves: BS1 up to the midpoint, BS2 after it
        nearest = [max(min(x, 500.0 - x), budget.min_bs_distance_m)
                   for x in traj]
        assert np.array_equal(trace.distances_m, nearest)
        worst = int(np.argmin(trace.gain_db))
        assert worst == T // 2
        assert np.all(np.diff(trace.gain_db[:worst + 1]) < 0)
        assert np.all(np.diff(trace.gain_db[worst:]) > 0)

    def test_deterministic_under_seed(self):
        traj = 35.0 + 30.0 * np.arange(12)
        a = build_trace(traj, [0.0, 550.0], LinkBudget(), SLOT_S, seed=0)
        b = build_trace(traj, [0.0, 550.0], LinkBudget(), SLOT_S, seed=0)
        assert np.array_equal(a.gain_db, b.gain_db)
        assert np.array_equal(a.bits_per_prb, b.bits_per_prb)

    def test_seed_sequence_reused_gives_same_trace(self):
        ss = np.random.SeedSequence(5)
        a = ScenarioConfig().make_trace(ss)
        b = ScenarioConfig().make_trace(ss)
        assert ss.n_children_spawned == 0
        for name in TRACE_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_seed_sequence_matches_fresh_copy(self):
        user = np.random.SeedSequence(5).spawn(3)[2]
        user.spawn(2)                          # the caller spawned before
        fresh = np.random.SeedSequence(user.entropy,
                                       spawn_key=user.spawn_key)
        a = ScenarioConfig().make_trace(user)
        b = ScenarioConfig().make_trace(fresh)
        assert user.n_children_spawned == 2
        assert np.array_equal(a.gain_db, b.gain_db)
        assert np.array_equal(a.bits_per_prb, b.bits_per_prb)

    def test_gain_is_strongest_bs_when_unshadowed(self):
        traj = np.linspace(10.0, 700.0, 16)
        bss = [0.0, 300.0, 650.0]
        budget = LinkBudget()
        trace = build_trace(traj, bss, budget, SLOT_S, shadowing=UNSHADOWED,
                            seed=0)
        for t, x in enumerate(traj):
            gains = [-path_loss_db(max(abs(x - b), 35.0) / 1000.0)
                     for b in bss]
            assert trace.gain_db[t] == pytest.approx(max(gains), abs=1e-12)

    def test_capacity_recomputable_from_gain(self):
        traj = 35.0 + 30.0 * np.arange(12)
        budget = LinkBudget()
        trace = build_trace(traj, [0.0, 550.0], budget, SLOT_S, seed=4)
        redo = [per_prb_bits(g, budget, SLOT_S)
                for g in trace.gain_db]
        assert np.array_equal(np.array(redo), trace.bits_per_prb)

    def test_one_joint_draw_per_bs(self, monkeypatch):
        # one standard_normal over every position per (seed, BS) stream,
        # below the array crossover and at it
        sizes = []

        class Counted(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                z = super().standard_normal(*args, **kwargs)
                sizes.append(z.size)
                return z

        monkeypatch.setattr(np.random, "Generator", Counted)
        for n in (1, link._ARRAY_STREAMS):
            sizes.clear()
            build_traces(35.0 + 30.0 * np.arange(12), [0.0, 550.0, 900.0],
                         LinkBudget(), SLOT_S, seeds=range(n))
            assert sizes == [12] * (3 * n)

    def test_turnaround_revisits_same_shadowing(self):
        traj = np.array([40.0, 60.0, 80.0, 100.0, 80.0, 60.0, 40.0])
        trace = build_trace(traj, [0.0], LinkBudget(), SLOT_S,
                            seed=3)
        assert np.array_equal(trace.gain_db, trace.gain_db[::-1])

    def test_default_trace_pinned(self):
        gain = ScenarioConfig().make_trace().gain_db
        assert gain[0] == -58.92004892058911
        assert gain[47] == -94.9623534711147
        assert gain[95] == -74.5240530147613

    @pytest.mark.parametrize("traj, bss, name", [
        ([10.0, math.nan, 30.0], [0.0, 200.0, 550.0], "trajectory"),
        ([10.0, 20.0, math.inf], [0.0, 200.0, 550.0], "trajectory"),
        ([10.0, 20.0, 30.0], [0.0, 200.0, math.inf], "BS"),
        ([10.0, 20.0, 30.0], [math.nan, 200.0, 550.0], "BS"),
        ([10.0, 20.0, 30.0], [0.0, 200.0, -math.inf], "BS"),
        ([-math.inf, 20.0, 30.0], [0.0, 200.0, 550.0], "trajectory"),
    ])
    def test_nonfinite_positions_rejected(self, traj, bss, name):
        # each rotation puts the bad value first, in the middle and last
        for shift in range(3):
            with pytest.raises(ValueError,
                               match=f"{POSITION_ARG[name]} must be finite"):
                build_trace(np.roll(traj, shift), np.roll(bss, shift),
                            LinkBudget(), SLOT_S, seed=0)

    def test_overflowing_distance_rejected(self):
        # finite positions whose difference overflows to an inf distance
        with pytest.raises(ValueError, match="bs_positions_m"):
            build_trace([1e308] * 3, [0.0, -1e308], LinkBudget(),
                        SLOT_S, seed=0)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            build_trace([], [0.0], LinkBudget(), SLOT_S, seed=0)

    def test_no_bs_position_rejected(self):
        with pytest.raises(ValueError, match="bs_positions_m"):
            build_trace([10.0, 20.0], [], LinkBudget(), SLOT_S, seed=0)

    @pytest.mark.parametrize("traj, bss, name", [
        (np.arange(96.0).reshape(48, 2), [0.0, 550.0], "trajectory_m"),
        ([[10.0]], [0.0, 550.0], "trajectory_m"),
        ([10.0, 20.0], [[0.0], [550.0]], "bs_positions_m"),
    ])
    def test_positions_of_more_than_one_dimension_rejected(self, traj, bss,
                                                           name):
        with pytest.raises(ValueError, match=f"{name} must be 1-D"):
            build_trace(traj, bss, LinkBudget(), SLOT_S, seed=0)


def scalar_trace(traj, bss, budget):
    """Unshadowed trace rebuilt slot by slot from the public scalars."""
    distances, gains, bits = [], [], []
    for x in traj:
        best = (-math.inf, 0.0)
        for bx in bss:
            d_m = max(abs(x - bx), budget.min_bs_distance_m)
            g = -path_loss_db(d_m / 1000.0) + 0.0
            if g > best[0]:                   # the first of equals wins
                best = (g, d_m)
        gains.append(best[0])
        distances.append(best[1])
        bits.append(per_prb_bits(best[0], budget, SLOT_S))
    return np.array(distances), np.array(gains), np.array(bits)


class TestBuildTraceAgainstScalars:
    @pytest.mark.parametrize("bss", [
        [0.0],
        [0.0, 550.0],
        [0.0, 300.0, 650.0],
        [200.0, 550.0],            # BS on the trajectory: distance clamped
        [100.0, 300.0],            # equidistant from x = 200 m
    ])
    @pytest.mark.parametrize("budget", [
        LinkBudget(), LinkBudget(snr_gap_db=3.0, num_system_prbs=25)])
    def test_bit_identical(self, bss, budget):
        traj = np.linspace(-50.0, 640.0, 24)
        traj[5] = 200.0
        trace = build_trace(traj, bss, budget, SLOT_S, shadowing=UNSHADOWED,
                            seed=0)
        for name, want in zip(TRACE_FIELDS,
                              scalar_trace(traj, bss, budget)):
            got = getattr(trace, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    def test_bs_on_trajectory_clamped(self):
        budget = LinkBudget()
        trace = build_trace([200.0], [200.0], budget, SLOT_S,
                            shadowing=UNSHADOWED, seed=0)
        assert trace.distances_m[0] == budget.min_bs_distance_m


TRACE_FIELDS = ("distances_m", "gain_db", "bits_per_prb")


def assert_matches_loop(trace, traj, bss, budget, **kwargs):
    want = build_trace_loop(traj, bss, budget, SLOT_S, **kwargs)
    for name, expect in zip(TRACE_FIELDS, want):
        got = getattr(trace, name)
        assert got.dtype == expect.dtype, name
        assert np.array_equal(got, expect), name


class TestBuildTraceAgainstLoop:
    """Byte contract with the slot-by-slot loop build_trace replaced."""

    def test_bit_identical_interleaved(self):
        T = 24
        sweep = np.linspace(-50.0, 640.0, T)
        sweep[5] = 200.0                    # on the BS at 200 m: clamped
        turnaround = np.concatenate([np.linspace(40.0, 400.0, T // 2),
                                     np.linspace(400.0, 40.0, T // 2)])
        unsorted = np.random.default_rng(5).choice(
            [10.0, 95.5, 180.0, 260.0, 333.0, 480.0, 610.0], T)
        trajectories = [sweep, turnaround, unsorted]
        layouts = [[0.0], [0.0, 550.0], [200.0, 550.0], [0.0, 300.0, 650.0],
                   [250.0, 250.0],          # co-located: the first wins
                   [-100.0, 150.0, 400.0, 900.0]]
        budgets = [LinkBudget(),
                   LinkBudget(snr_gap_db=3.0, num_system_prbs=25,
                              min_bs_distance_m=50.0)]
        shadowings = [ShadowingConfig(), UNSHADOWED, ShadowingConfig(8.0, 0.0),
                      ShadowingConfig(6.0, math.inf)]
        before = link._geometry.cache_info()
        # Layouts vary fastest and each pass runs twice, so consecutive
        # builds change the memo keys and the second pass hits every one.
        # A SeedSequence counts its spawns, so each build gets a fresh one.
        seeds = (lambda: 3, lambda: np.random.SeedSequence(11))
        for _ in range(2):
            for make_seed in seeds:
                for traj in trajectories:
                    for shadowing in shadowings:
                        for budget in budgets:
                            for bss in layouts:
                                trace = build_trace(traj, bss, budget, SLOT_S,
                                                    shadowing=shadowing,
                                                    seed=make_seed())
                                assert_matches_loop(trace, traj, bss, budget,
                                                    shadowing=shadowing,
                                                    seed=make_seed())
        after = link._geometry.cache_info()
        assert after.hits > before.hits and after.misses > before.misses

    def test_memo_arrays_read_only(self):
        traj = 35.0 + 30.0 * np.arange(12)
        trace = build_trace(traj, [0.0, 550.0], LinkBudget(), SLOT_S,
                            seed=0)
        for name in TRACE_FIELDS:
            assert not getattr(trace, name).flags.writeable, name
        distances, path = link._geometry(traj.tobytes(),
                                         np.array([0.0, 550.0]).tobytes(),
                                         35.0)
        inverse, _, _ = link._ar1_steps(traj.tobytes(), 50.0, 10.0)
        for memo in (distances, path, inverse):
            with pytest.raises(ValueError, match="read-only"):
                memo[0] = 1.0

    def test_mutated_trajectory_rebuilds(self):
        traj = 35.0 + 30.0 * np.arange(12)
        budget = LinkBudget()
        build_trace(traj, [0.0, 550.0], budget, SLOT_S, seed=2)
        traj[4:] += 100.0                   # the caller's array, in place
        trace = build_trace(traj, [0.0, 550.0], budget, SLOT_S, seed=2)
        assert_matches_loop(trace, traj, [0.0, 550.0], budget, seed=2)

    def test_memo_bounded(self):
        for k in range(200):
            build_trace(k + 10.0 * np.arange(8), [0.0, 550.0], LinkBudget(),
                        SLOT_S, seed=k)
        for memo in (link._geometry, link._ar1_steps):
            info = memo.cache_info()
            assert info.maxsize == link._MEMO_SIZE
            assert info.currsize <= info.maxsize


def mixed_seeds(n):
    """n fresh seeds, ints and SeedSequences alternating."""
    return [k if k % 2 == 0 else np.random.SeedSequence(100 + k)
            for k in range(n)]


class TestBuildTraces:
    """A batch gives, per seed, the trace of the slot-by-slot loop and of
    a block of one."""

    # turns around, so positions repeat and are unsorted
    TRAJ = np.concatenate([np.linspace(40.0, 400.0, 12),
                           np.linspace(400.0, 40.0, 12)])

    @pytest.mark.parametrize("bss", [
        [0.0, 550.0],
        [0.0, 300.0, 650.0],
        [250.0, 250.0, 600.0],      # co-located: at sigma 0 the first wins
    ], ids=["2-bs", "3-bs", "tied"])
    @pytest.mark.parametrize("shadowing", [
        ShadowingConfig(), UNSHADOWED, ShadowingConfig(8.0, 0.0),
        ShadowingConfig(6.0, math.inf),
    ], ids=["default", "sigma-0", "uncorrelated", "constant"])
    @pytest.mark.parametrize("n", [1, 2, 40, admission.TRACE_BLOCK + 1])
    def test_matches_loop_and_block_of_one(self, n, shadowing, bss):
        budget = LinkBudget()
        traces = build_traces(self.TRAJ, bss, budget, SLOT_S,
                              shadowing=shadowing, seeds=mixed_seeds(n))
        assert len(traces) == n
        for trace, seed, again in zip(traces, mixed_seeds(n),
                                      mixed_seeds(n), strict=True):
            assert_matches_loop(trace, self.TRAJ, bss, budget,
                                shadowing=shadowing, seed=seed)
            (one,) = build_traces(self.TRAJ, bss, budget, SLOT_S,
                                  shadowing=shadowing, seeds=[again])
            for name, a, b in zip(TRACE_FIELDS, trace_fields(trace),
                                  trace_fields(one)):
                assert a.dtype == b.dtype, name
                assert a.tobytes() == b.tobytes(), name
                assert not a.flags.writeable, name

    def test_seed_sequence_twice_unchanged(self):
        ss = np.random.SeedSequence(9).spawn(3)[2]
        key, state = ss.spawn_key, ss.generate_state(4)
        first, _, again = build_traces(self.TRAJ, [0.0, 300.0, 650.0],
                                       LinkBudget(), SLOT_S,
                                       seeds=[ss, 4, ss])
        for name, a, b in zip(TRACE_FIELDS, trace_fields(first),
                              trace_fields(again)):
            assert a.tobytes() == b.tobytes(), name
        assert ss.n_children_spawned == 0 and ss.spawn_key == key
        assert np.array_equal(ss.generate_state(4), state)

    def test_no_seeds_still_checked(self):
        # an empty block is refused, after the arguments before it
        args = (self.TRAJ, [0.0, 550.0], LinkBudget(), SLOT_S)
        with pytest.raises(ValueError, match="^seeds must be a non-empty"):
            build_traces(*args, seeds=[])
        with pytest.raises(ValueError, match="slot_duration_s"):
            build_traces(*args[:3], 0.0, seeds=[])


# build_traces' error for a block with a capacity that overflows, rounds
# to 0 or is not finite, given the block's least and largest gain.
CAPACITY_ERROR = (
    "gain_db in [{:.6g}, {:.6g}] dB gives a per-PRB capacity that "
    "overflows, rounds to 0 or is not finite; it is set by [link] "
    "total_power_dbm, num_system_prbs, prb_bandwidth_hz, "
    "noise_psd_dbm_hz, noise_figure_db, interference_psd_dbm_hz, "
    "snr_gap_db and min_bs_distance_m, [video] slot_duration_s, "
    "[shadowing] sigma_db and [scenario] bs_positions_m, user_start_m "
    "and user_speed_mps")


def capacity_fails(gain_db, budget, slot_duration_s):
    """True iff the capacity at gain_db overflows or rounds to 0."""
    try:
        return per_prb_bits(gain_db, budget, slot_duration_s) == 0.0
    except ValueError:
        return True


def budget_on_edge(gain_db, slot_duration_s, good_dbm, bad_dbm, **fields):
    """A LinkBudget with the given fields whose total_power_dbm, bisected
    between good_dbm and bad_dbm, is the float next to the edge on
    bad_dbm's side: there the capacity at gain_db just fails."""
    def budget(dbm):
        return LinkBudget(total_power_dbm=dbm, **fields)

    assert not capacity_fails(gain_db, budget(good_dbm), slot_duration_s)
    assert capacity_fails(gain_db, budget(bad_dbm), slot_duration_s)
    while (mid := (good_dbm + bad_dbm) / 2) not in (good_dbm, bad_dbm):
        if capacity_fails(gain_db, budget(mid), slot_duration_s):
            bad_dbm = mid
        else:
            good_dbm = mid
    return budget(bad_dbm)


class TestBlockCheck:
    """build_traces checks a block's capacities once, as one array, and
    gives out read-only rows without ChannelTrace's checks."""

    TRAJ = TestBuildTraces.TRAJ
    BSS = [0.0, 550.0]

    def test_capacities_checked_once(self, monkeypatch):
        budget = LinkBudget()
        build_traces(self.TRAJ, self.BSS, budget, SLOT_S, seeds=[0])
        shapes = []
        check = link.all_finite

        def counted(x, *args):
            shapes.append(x.shape)
            return check(x, *args)

        monkeypatch.setattr(link, "all_finite", counted)
        traces = build_traces(self.TRAJ, self.BSS, budget, SLOT_S,
                              seeds=range(40))
        assert shapes == [(40, self.TRAJ.size)]
        for trace in traces:
            for name, a in zip(TRACE_FIELDS, trace_fields(trace)):
                assert not a.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = a[-1]

    @pytest.mark.parametrize("where", [0, 4, 8], ids=["first", "middle",
                                                      "last"])
    @pytest.mark.parametrize("failure", ["overflow", "zero"])
    def test_one_failing_trace_fails_the_block(self, failure, where):
        seeds = list(range(9))
        assert len(seeds) * len(self.BSS) >= link._ARRAY_STREAMS
        # Gains do not depend on power or noise: the trace with the most
        # extreme one fails alone once the power puts the capacity's
        # edge halfway to the next trace's extreme gain.
        gains = [t.gain_db for t in build_traces(
            self.TRAJ, self.BSS, LinkBudget(), SLOT_S, seeds=seeds)]
        if failure == "overflow":
            extreme = [float(g.max()) for g in gains]
            order = sorted(seeds, key=lambda k: -extreme[k])
            fields = {"noise_psd_dbm_hz": -600.0,
                      "interference_psd_dbm_hz": -600.0}
            good_dbm, bad_dbm = 46.0, 3000.0
        else:
            extreme = [float(g.min()) for g in gains]
            order = sorted(seeds, key=lambda k: extreme[k])
            fields = {}
            good_dbm, bad_dbm = 46.0, -3000.0
        target, runner_up = order[:2]
        budget = budget_on_edge(
            (extreme[target] + extreme[runner_up]) / 2, SLOT_S, good_dbm,
            bad_dbm, **fields)
        assert capacity_fails(extreme[target], budget, SLOT_S)
        assert not capacity_fails(extreme[runner_up], budget, SLOT_S)

        rest = [k for k in seeds if k != target]
        assert len(build_traces(self.TRAJ, self.BSS, budget, SLOT_S,
                                seeds=rest)) == len(rest)
        block = rest[:where] + [target] + rest[where:]
        with pytest.raises(ValueError) as error:
            build_traces(self.TRAJ, self.BSS, budget, SLOT_S, seeds=block)
        every = np.concatenate(gains)
        assert str(error.value) == CAPACITY_ERROR.format(every.min(),
                                                         every.max())


def numpy_stream_state(ss, i):
    """PCG64 (state, inc) of child i of a first spawn of ss, by numpy."""
    child = np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,),
                                   pool_size=ss.pool_size)
    state = np.random.PCG64(child).state["state"]
    return state["state"], state["inc"]


class TestStreamSeeding:
    """The array seeding gives numpy's own PCG64 state for every stream,
    so a change to numpy's SeedSequence fails here before any trace
    moves."""

    @pytest.mark.parametrize("entropy", [
        0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 127 + 5, None,
        [1, 2 ** 40, 0], [], np.array([3, 2 ** 32 - 1], dtype=np.uint32),
        ["0x1f", "12"], np.int64(9),
    ], ids=["0", "small", "2**32-1", "2**32", "2**64+3", "128-bit",
            "fresh", "list", "empty-list", "uint32-array", "strings",
            "int64"])
    @pytest.mark.parametrize("pool_size", [4, 8])
    @pytest.mark.parametrize("spawn_key", [(), (3,), (2 ** 32, 5), (2 ** 70,)],
                             ids=["unspawned", "spawned", "2**32", "2**70"])
    def test_matches_numpy(self, entropy, pool_size, spawn_key):
        ss = np.random.SeedSequence(entropy, spawn_key=spawn_key,
                                    pool_size=pool_size)
        assert link._stream_states([ss], 3) \
            == [numpy_stream_state(ss, i) for i in range(3)]

    def test_mixed_block_matches_numpy(self):
        # pool sizes and entropy lengths differ within the block
        seeds = [np.random.SeedSequence(e, spawn_key=key, pool_size=pool)
                 for e in (0, 2 ** 33, [5, 6, 7, 8, 9])
                 for key in ((), (1,), (2 ** 40, 2))
                 for pool in (4, 8)]
        want = [numpy_stream_state(ss, i) for ss in seeds for i in range(2)]
        assert link._stream_states(seeds, 2) == want

    @settings(max_examples=60, deadline=None)
    @given(entropy=st.one_of(
               st.integers(0, 2 ** 140),
               st.lists(st.integers(0, 2 ** 70), max_size=9)),
           spawn_key=st.lists(st.integers(0, 2 ** 70), max_size=4),
           pool_size=st.sampled_from([4, 5, 8]),
           num_bs=st.integers(1, 3))
    def test_property_matches_numpy(self, entropy, spawn_key, pool_size,
                                    num_bs):
        ss = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key),
                                    pool_size=pool_size)
        assert link._stream_states([ss, ss], num_bs) \
            == [numpy_stream_state(ss, i) for i in range(num_bs)] * 2


def varied_seeds(n):
    """n fresh seeds whose entropy word counts differ: ints, unspawned
    and spawned SeedSequences, a wide entropy and a larger pool."""
    kinds = (lambda k: k,
             lambda k: np.random.SeedSequence(100 + k),
             lambda k: np.random.SeedSequence(7).spawn(k + 1)[k],
             lambda k: np.random.SeedSequence(2 ** 64 + k),
             lambda k: np.random.SeedSequence([k, 1, 2, 3, 4, 5]),
             lambda k: np.random.SeedSequence(k, spawn_key=(2 ** 40,),
                                              pool_size=8))
    return [kinds[k % len(kinds)](k) for k in range(n)]


class TestArrayCrossover:
    """Blocks on either side of _ARRAY_STREAMS give, per seed, the trace
    of the slot-by-slot loop and of a block of one."""

    TRAJ = TestBuildTraces.TRAJ

    @pytest.mark.parametrize("offset", [-1, 0, 1],
                             ids=["below", "at", "above"])
    @pytest.mark.parametrize("bss", [[0.0], [0.0, 550.0], [0.0, 300.0, 650.0]],
                             ids=["1-bs", "2-bs", "3-bs"])
    @pytest.mark.parametrize("make_seeds", [mixed_seeds, varied_seeds],
                             ids=["mixed", "varied"])
    def test_matches_loop_and_block_of_one(self, monkeypatch, make_seeds,
                                           bss, offset):
        n = -(-link._ARRAY_STREAMS // len(bss)) + offset
        budget = LinkBudget()
        per_stream = []
        draw = link._ar1_path

        def counted(rho, scale, rng):
            per_stream.append(len(rho))
            return draw(rho, scale, rng)

        monkeypatch.setattr(link, "_ar1_path", counted)
        traces = build_traces(self.TRAJ, bss, budget, SLOT_S,
                              seeds=make_seeds(n))
        streams = n * len(bss)
        assert len(per_stream) \
            == (streams if streams < link._ARRAY_STREAMS else 0)
        for trace, seed, again in zip(traces, make_seeds(n), make_seeds(n),
                                      strict=True):
            assert_matches_loop(trace, self.TRAJ, bss, budget, seed=seed)
            (one,) = build_traces(self.TRAJ, bss, budget, SLOT_S,
                                  seeds=[again])
            for name, a, b in zip(TRACE_FIELDS, trace_fields(trace),
                                  trace_fields(one)):
                assert a.dtype == b.dtype, name
                assert a.tobytes() == b.tobytes(), name


with np.errstate(over="ignore"):
    LINK_EXTREMES = [
        *EXTREME_INTS, 10 ** 400, *EXTREME_FLOATS, True, False,
        *map(np.float32, EXTREME_FLOATS), np.finfo(np.float32).max,
        *(np.int64(v) for v in EXTREME_INTS if v < 2 ** 63),
        np.iinfo(np.int64).max, np.complex128(1 + 1j)]


LAYOUTS = [[0.0], [0.0, 550.0], [0.0, 300.0, 650.0]]
CONTRACT_SLOTS = 4


def contract_cases():
    """Each link-layer callable with arguments it accepts, by parameter
    name: the trace builders on 1, 2 and 3 BSs, and build_traces on
    blocks on both sides of the array crossover."""
    yield path_loss_db, {"distance_km": 0.5}
    yield per_prb_bits, {"gain_db": -90.0, "slot_duration_s": 1 / 6}
    yield LinkBudget, {f.name: getattr(LinkBudget(), f.name)
                       for f in fields(LinkBudget)}
    yield ShadowingConfig, {"sigma_db": 10.0, "decorrelation_m": 50.0}
    for bss in LAYOUTS:
        args = {"trajectory_m": [35.0 + 30.0 * t
                                 for t in range(CONTRACT_SLOTS)],
                "bs_positions_m": bss, "slot_duration_s": SLOT_S,
                "sigma_db": 10.0, "decorrelation_m": 50.0}
        yield build_trace, {**args, "seed": 0}
        for n in (1, -(-link._ARRAY_STREAMS // len(bss))):
            yield build_traces, {**args, "seeds": list(range(n))}


def with_extreme(args, name, value, slot=0):
    """args with one parameter, or one element of a list, set to value."""
    args = dict(args)
    if isinstance(args[name], list):
        args[name] = list(args[name])
        args[name][slot % len(args[name])] = value
    else:
        args[name] = value
    return args


def check_link_contract(fn, args):
    """The call returns or raises a ValueError naming a parameter; any
    other error or a warning fails."""
    kwargs = dict(args)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if fn is per_prb_bits:
                fn(args["gain_db"], LinkBudget(), args["slot_duration_s"])
            elif fn in (build_trace, build_traces):
                shadowing = ShadowingConfig(kwargs.pop("sigma_db"),
                                            kwargs.pop("decorrelation_m"))
                fn(kwargs.pop("trajectory_m"), kwargs.pop("bs_positions_m"),
                   LinkBudget(), shadowing=shadowing, **kwargs)
            else:
                fn(**args)
        except ValueError as e:
            assert any(name in str(e) for name in args), (fn, args, str(e))


@st.composite
def extreme_calls(draw, cases):
    """One of the contract cases with one to three of its arguments (or
    of their elements) extreme."""
    fn, args = draw(st.sampled_from(cases))
    for name in draw(st.lists(st.sampled_from(sorted(args)), min_size=1,
                              max_size=3, unique=True)):
        args = with_extreme(args, name, draw(st.sampled_from(LINK_EXTREMES)),
                            draw(st.integers(0, CONTRACT_SLOTS - 1)))
    return fn, args


class TestLinkContract:
    """Whatever the values, a link-layer call returns or raises a
    ValueError that names a parameter; no other error, no warning."""

    def test_each_extreme_alone(self):
        for fn, args in contract_cases():
            for name, value, slot in itertools.product(
                    args, LINK_EXTREMES, (0, -1)):
                check_link_contract(fn, with_extreme(args, name, value, slot))

    @settings(max_examples=200, deadline=None)
    @given(call=extreme_calls(list(contract_cases())))
    def test_extreme_arguments(self, call):
        check_link_contract(*call)


class TestChannelTraceValidation:
    @pytest.mark.parametrize("name", TRACE_FIELDS)
    def test_arrays_read_only(self, name):
        trace = build_trace([35.0, 40.0], [0.0, 550.0], LinkBudget(),
                            SLOT_S, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            getattr(trace, name)[0] = 1.0

    def test_callers_arrays_stay_writable(self):
        bits = np.array([3e5, 3e5])
        trace = ChannelTrace(distances_m=np.full(2, 100.0),
                             gain_db=np.zeros(2), bits_per_prb=bits)
        bits[0] = 1e5
        assert not trace.bits_per_prb.flags.writeable

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_capacity_rejected(self, bad):
        for slot in (0, 1, 2):                  # first, middle and last
            bits = np.full(3, 3e5)
            bits[slot] = bad
            with pytest.raises(ValueError, match="bits_per_prb"):
                ChannelTrace(distances_m=np.full(3, 100.0),
                             gain_db=np.zeros(3), bits_per_prb=bits)

    def test_empty_trace_names_distances_m(self):
        with pytest.raises(ValueError, match=r"distances_m must be 1-D with "
                                             r"at least 1 element, got shape "
                                             r"\(0,\)"):
            ChannelTrace([], [], [])

    @pytest.mark.parametrize("name", TRACE_FIELDS[1:])
    def test_length_mismatch_named(self, name):
        arrays = dict(distances_m=np.full(3, 100.0),
                      gain_db=np.zeros(3), bits_per_prb=np.full(3, 3e5))
        arrays[name] = arrays[name][:2]
        with pytest.raises(ValueError, match=rf"{name} must be 1-D with 3 "
                                             r"elements, got shape \(2,\)"):
            ChannelTrace(**arrays)

    @pytest.mark.parametrize("name", TRACE_FIELDS)
    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), ()])
    def test_array_not_1d_rejected(self, name, shape):
        arrays = dict(distances_m=np.full(3, 100.0),
                      gain_db=np.zeros(3), bits_per_prb=np.full(3, 3e5))
        arrays[name] = (arrays[name][0] if shape == ()
                        else arrays[name].reshape(shape))
        with pytest.raises(ValueError, match=f"{name} must be 1-D"):
            ChannelTrace(**arrays)


class TestLinkBudgetValidation:
    def test_rejects_zero_prbs(self):
        with pytest.raises(ValueError):
            LinkBudget(num_system_prbs=0)

    @pytest.mark.parametrize("bad", [MAX_COUNT + 1, 10 ** 400],
                             ids=["max-count-plus-1", "1e400"])
    def test_num_system_prbs_bounded(self, bad):
        with pytest.raises(ValueError, match=r"num_system_prbs must be an "
                                             r"integer in \[1, 1048576\]"):
            LinkBudget(num_system_prbs=bad)
        LinkBudget(num_system_prbs=MAX_COUNT)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, True])
    def test_num_system_prbs_must_be_int(self, bad):
        with pytest.raises(ValueError, match="num_system_prbs"):
            LinkBudget(num_system_prbs=bad)

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            LinkBudget(snr_gap_db=-1.0)

    def test_rejects_nonfinite_power(self):
        with pytest.raises(ValueError):
            LinkBudget(total_power_dbm=float("inf"))

    @pytest.mark.parametrize("kwargs", [
        {"prb_bandwidth_hz": math.nan},
        {"prb_bandwidth_hz": math.inf},
        {"snr_gap_db": math.nan},
        {"noise_figure_db": math.nan},
        {"min_bs_distance_m": math.nan},
        {"min_bs_distance_m": 0.0},
    ])
    def test_rejects_nonfinite_or_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            LinkBudget(**kwargs)


def trace_fields(trace):
    return [getattr(trace, name) for name in TRACE_FIELDS]


class TestSharedTrajectory:
    """make_trace reuses one read-only trajectory per config; build_trace
    checks positions once per geometry, in its memo."""

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(),
        ScenarioConfig(bs_positions_m=(0.0, 300.0, 650.0)),
        ScenarioConfig(shadowing=ShadowingConfig(sigma_db=0.0)),
        replace(ScenarioConfig(), user_start_m=-20.0, user_speed_mps=12.5,
                seed=4),
    ], ids=["default", "3-bs", "sigma-0", "replaced"])
    def test_make_trace_matches_build_trace(self, cfg):
        for seed in (None, 7, np.random.SeedSequence(3).spawn(2)[1]):
            got = cfg.make_trace(seed)
            want = build_trace(
                cfg.trajectory_m(), cfg.bs_positions_m, cfg.link,
                cfg.video.slot_duration_s, shadowing=cfg.shadowing,
                seed=cfg.seed if seed is None else seed)
            for name, a, b in zip(TRACE_FIELDS, trace_fields(got),
                                  trace_fields(want)):
                assert a.dtype == b.dtype, name
                assert a.tobytes() == b.tobytes(), name

    def test_make_trace_of_a_list_is_make_traces(self):
        cfg = ScenarioConfig(bs_positions_m=(0.0, 300.0, 650.0))
        seeds = np.random.SeedSequence(4).spawn(3)
        for got, want in zip(cfg.make_trace(seeds), cfg.make_traces(seeds),
                             strict=True):
            for name, a, b in zip(TRACE_FIELDS, trace_fields(got),
                                  trace_fields(want)):
                assert a.tobytes() == b.tobytes(), name

    def test_cached_trajectory_read_only(self, monkeypatch):
        cfg = ScenarioConfig()
        passed = []

        def spy(trajectory_m, *args, **kwargs):
            passed.append(trajectory_m)
            return build_trace(trajectory_m, *args, **kwargs)

        monkeypatch.setattr(scenario, "build_trace", spy)
        first = cfg.make_trace()
        cfg.make_trace()
        assert passed[0] is passed[1]
        with pytest.raises(ValueError, match="read-only"):
            passed[0][0] = 1.0
        fresh = cfg.trajectory_m()
        assert fresh.flags.writeable and fresh is not cfg.trajectory_m()
        fresh[:] = 0.0
        assert cfg.trajectory_m()[0] == cfg.user_start_m
        assert np.array_equal(cfg.make_trace().gain_db, first.gain_db)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["trajectory", "BS"])
    def test_nonfinite_positions_rejected_after_good_call(self, where, bad):
        budget = LinkBudget()
        traj = 35.0 + 30.0 * np.arange(4)
        bss = np.array([0.0, 200.0, 550.0])
        build_trace(traj, bss, budget, SLOT_S, seed=0)    # fills the memo
        # the caller's own arrays, changed in place after the good call
        (traj if where == "trajectory" else bss)[1] = bad
        for _ in range(2):
            with pytest.raises(ValueError,
                               match=f"{POSITION_ARG[where]} must be finite"):
                build_trace(traj, bss, budget, SLOT_S, seed=0)
