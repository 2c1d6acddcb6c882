import hashlib
import itertools
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

import prebuf.admission
from prebuf import (AdmissionConfig, AllocationPlan, ChannelTrace,
                    LinkBudget, ScenarioConfig, ShadowingConfig, VideoSpec,
                    build_traces, plan_anticipatory, plan_baseline,
                    run_admission, service_curve, simulate_playback,
                    summarize_curve)
from prebuf.admission import MAX_COUNT, MAX_LEDGER_SLOTS, PLANNER_KINDS
from prebuf.cli import main
from prebuf.playout import PLAYABLE_SHARE

from oracles import step_buffer
from test_link import (CONTRACT_SLOTS, LINK_EXTREMES, counted_draws,
                       extreme_calls, with_extreme)
from test_planner import V, lp_in_video_slots

# sha256 of `prebuf multi-user` with every default: service_curve.csv and
# stdout, as written when each kv was a separate run
DEFAULT_CURVE_CSV_SHA256 = \
    "bf8164bb00a5069b33d45c470c77c17568b6584517f9e83bdab41e9dd80289f3"
DEFAULT_CURVE_STDOUT_SHA256 = \
    "140e1a02f90b37f6cbe0e0d64013dee36533e4077180e076b66224006db56319"
# sha256 of `prebuf single-user` (trace.csv, which holds the trace, the
# plans and the playback timeline) and of `prebuf buffer-sweep`
# (sweep.csv), each with its stdout, with every default
DEFAULT_SINGLE_USER_CSV_SHA256 = \
    "d5d01d9b00b6486824d0f2c8da0870eefb94ad2bbd87b2653d42faf656a14b5e"
DEFAULT_SINGLE_USER_STDOUT_SHA256 = \
    "2f4cf7b0066bfed125a555abccd760d19bc44d55751578cd13b18715fd2c3dbf"
DEFAULT_SWEEP_CSV_SHA256 = \
    "3ad504551e9d3e23f2408ec333040fd49e47cacaf8cafabedecceef6e1d4e816"
DEFAULT_SWEEP_STDOUT_SHA256 = \
    "1d0a6e4519a2787b30fb8d1de2069b5187d795477235b7cb3af7ecb85bec5527"
# sha256 of two unshadowed runs where a buffer cap has no zero-outage
# plan and costs inf, each with [video] bits_per_slot = 1e7: `prebuf
# buffer-sweep --z-max-multiple 2` (sweep.csv; Z = 0 has no plan, exit 0)
# and `prebuf single-user` with max_carryover_bits = 5e7 (trace.csv; only
# zero_buffer has none, exit 2), each with its stdout
INF_SWEEP_CSV_SHA256 = \
    "51fa50341d2d6cc62ed04383630a39f14d12e51de7bcf67dc0867889ea305e59"
INF_SWEEP_STDOUT_SHA256 = \
    "ca945542b03f01a8128594972d043e0007328a1c69021f1e197611035002e0af"
INF_SINGLE_USER_CSV_SHA256 = \
    "9f5c54af7a286fab27b607b9daada0b5f2436edd3463491520d9cd70715f3e08"
INF_SINGLE_USER_STDOUT_SHA256 = \
    "8bf1ddfd7797f070eb9abe11307f3b351e484f470756074d6ca89f9e8762005b"
BAD_COUNTS = [0, -1, 2.5, 3.0, True, "3", None]


def capture_plans(monkeypatch):
    """The plans admission's planner calls return, in call order."""
    plans = []
    for name in ("plan_anticipatory", "plan_baseline"):
        def recording(*args, planner=getattr(prebuf.admission, name)):
            plans.append(planner(*args))
            return plans[-1]
        monkeypatch.setattr(prebuf.admission, name, recording)
    return plans


@pytest.fixture(scope="module")
def scenario():
    return ScenarioConfig(shadowing=ShadowingConfig(sigma_db=0.0))


@pytest.fixture(scope="module")
def shadowed_scenario():
    return ScenarioConfig()


class TestRunAdmission:
    def test_zero_capacity_admits_nobody(self, scenario):
        cfg = AdmissionConfig(total_requests=5, available_prbs=0, seed=0)
        log = run_admission(cfg, scenario.video, scenario.make_traces)
        assert log.admitted_count == 0
        assert log.served_count == 0

    def test_single_request_bookkeeping(self, scenario, monkeypatch):
        plans = capture_plans(monkeypatch)
        cfg = AdmissionConfig(total_requests=1, available_prbs=50, seed=0)
        log = run_admission(cfg, scenario.video, scenario.make_traces)
        rec, = log.records
        plan, = plans
        assert rec.admitted and rec.served
        ledger = log.residual_prbs_timeline
        a = rec.arrival_slot
        T = scenario.video.num_slots
        assert ledger[a:a + T] == pytest.approx(50.0 - plan.prbs, abs=1e-9)
        assert np.all(ledger[:a] == 50.0)
        assert np.all(ledger >= -1e-7)

    def test_every_admitted_anticipatory_user_served(self, shadowed_scenario):
        video = shadowed_scenario.video
        for seed in range(4):
            cfg = AdmissionConfig(total_requests=25, available_prbs=15,
                                  seed=seed)
            log = run_admission(cfg, video, shadowed_scenario.make_traces,
                                "anticipatory")
            assert log.served_count == log.admitted_count

    def test_capacity_conservation(self, shadowed_scenario, monkeypatch):
        plans = capture_plans(monkeypatch)
        video = shadowed_scenario.video
        cfg = AdmissionConfig(total_requests=25, available_prbs=15, seed=1)
        for kind in ("anticipatory", "baseline"):
            plans.clear()
            log = run_admission(cfg, video, shadowed_scenario.make_traces,
                                kind)
            admitted = [rec for rec in log.records if rec.admitted]
            kept = plans
            if kind == "anticipatory":
                # every request is planned, and admitted iff feasible
                assert [p.feasible for p in plans] \
                    == [rec.admitted for rec in log.records]
                kept = [p for p in plans if p.feasible]
            assert len(kept) == len(admitted) > 0
            total = np.zeros(log.residual_prbs_timeline.size)
            for rec, plan in zip(admitted, kept):
                a = rec.arrival_slot
                total[a:a + video.num_slots] += plan.prbs
            assert np.all(total <= 15.0 + 1e-7)
            assert log.residual_prbs_timeline \
                == pytest.approx(15.0 - total, abs=1e-6)

    @pytest.mark.parametrize("excess, admitted", [(1e-10, True),
                                                  (1e-6, False)])
    def test_baseline_first_slot_slack_boundary(self, scenario, excess,
                                                admitted):
        # The first-slot test forgives 1e-9 PRB of rounding and no more:
        # a first slot needing 1e-6 PRB more than is left is refused.
        video = scenario.video
        T = video.num_slots
        trace = ChannelTrace(np.ones(T), np.zeros(T),
                             np.full(T, video.bits_per_slot / (2.0 + excess)))
        log = run_admission(AdmissionConfig(total_requests=1,
                                            available_prbs=2.0),
                            video, lambda seeds: [trace] * len(seeds),
                            "baseline")
        assert [(r.admitted, r.served) for r in log.records] \
            == [(admitted, admitted)]

    @pytest.mark.parametrize("kind", PLANNER_KINDS)
    def test_outage_counts_match_simulate_playback(self, shadowed_scenario,
                                                   monkeypatch, kind):
        # admission plays its planners' plans without simulate_playback's
        # checks; each admitted record's count is still its timeline's
        plans = capture_plans(monkeypatch)
        video = shadowed_scenario.video
        cfg = AdmissionConfig(total_requests=25, available_prbs=15, seed=1)
        log = run_admission(cfg, video, shadowed_scenario.make_traces, kind)
        admitted = [rec for rec in log.records if rec.admitted]
        kept = [p for p in plans if kind == "baseline" or p.feasible]
        assert len(kept) == len(admitted) > 0
        counts = [simulate_playback(plan.received_bits, video).num_outages
                  for plan in kept]
        assert [rec.outage_count for rec in admitted] == counts
        assert (sum(counts) > 0) == (kind == "baseline")
        if kind == "baseline":
            # plans that play through, counted without the fold, and plans
            # that stall, counted by it
            assert 0 in counts and [p.feasible for p in kept] \
                == [n == 0 for n in counts]

    @pytest.mark.parametrize("short, admitted", [(5e-10, False),
                                                 (5e-12, True)])
    def test_baseline_first_slot_playback_boundary(self, short, admitted):
        # A baseline user is admitted iff its first slot carries what
        # playback plays, V less a 1e-9 relative slack: 0.25 PRB less
        # 5e-10 at 1e6 bits per PRB is 5e-4 bits short of V = 250,000
        # bits, past the 2.5e-4 bits slack, and would stall in slot 0.
        video = VideoSpec(bits_per_slot=250_000.0, slot_duration_s=1 / 6,
                          num_slots=4, max_carryover_bits=0.0)
        trace = ChannelTrace(np.ones(4), np.zeros(4), np.full(4, 1e6))
        cfg = AdmissionConfig(total_requests=1, available_prbs=0.25 - short)
        log = run_admission(cfg, video, lambda seeds: [trace] * len(seeds),
                            "baseline")
        assert [(r.admitted, r.outage_count) for r in log.records] \
            == [(admitted, 0)]

    @pytest.mark.parametrize("overdraw, raises", [(1e-5, True),
                                                  (1e-9, False)])
    def test_broken_ledger_guard_boundary(self, scenario, monkeypatch,
                                          overdraw, raises):
        # A planner that claims more than the window holds breaks the
        # ledger; past 1e-7 PRB that raises, within it is rounding dust
        # clamped to 0.
        video = scenario.video
        T = video.num_slots

        def overdrawing(spec, trace, residual):
            prbs = np.array(residual)
            prbs[0] += overdraw
            return AllocationPlan(np.full(T, video.bits_per_slot),
                                  np.zeros(T - 1), prbs, True)

        monkeypatch.setattr(prebuf.admission, "plan_baseline", overdrawing)
        cfg = AdmissionConfig(total_requests=1, available_prbs=15)
        if raises:
            with pytest.raises(RuntimeError,
                               match="spectrum ledger driven negative"):
                run_admission(cfg, video, scenario.make_traces, "baseline")
            return
        log = run_admission(cfg, video, scenario.make_traces, "baseline")
        rec, = log.records
        assert rec.served
        a = rec.arrival_slot
        assert np.all(log.residual_prbs_timeline[a:a + T] == 0.0)

    def test_anticipatory_dominates_baseline(self, shadowed_scenario):
        video = shadowed_scenario.video
        strict = 0
        for kv in (5, 10, 20):
            for seed in range(3):
                cfg = AdmissionConfig(total_requests=kv, available_prbs=15,
                                      seed=seed)
                a = run_admission(cfg, video, shadowed_scenario.make_traces,
                                  "anticipatory")
                b = run_admission(cfg, video, shadowed_scenario.make_traces,
                                  "baseline")
                assert a.served_count >= b.served_count
                strict += a.served_count > b.served_count
        assert strict >= 1

    def test_deterministic_per_seed(self, shadowed_scenario):
        video = shadowed_scenario.video
        cfg = AdmissionConfig(total_requests=12, available_prbs=15, seed=9)
        a = run_admission(cfg, video, shadowed_scenario.make_traces)
        b = run_admission(cfg, video, shadowed_scenario.make_traces)
        assert [r.admitted for r in a.records] \
            == [r.admitted for r in b.records]
        assert np.array_equal(a.residual_prbs_timeline,
                              b.residual_prbs_timeline)

    def test_different_seeds_change_arrivals_only_legally(
            self, shadowed_scenario):
        video = shadowed_scenario.video
        t1 = run_admission(AdmissionConfig(total_requests=6, seed=1),
                           video, shadowed_scenario.make_traces)
        t2 = run_admission(AdmissionConfig(total_requests=6, seed=2),
                           video, shadowed_scenario.make_traces)
        assert [r.arrival_time_s for r in t1.records] \
            != [r.arrival_time_s for r in t2.records]

    def test_unknown_planner_rejected(self, scenario):
        with pytest.raises(ValueError, match="planner_kind"):
            run_admission(AdmissionConfig(total_requests=1),
                          scenario.video, scenario.make_traces, "psychic")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(total_requests=0)
        with pytest.raises(ValueError):
            AdmissionConfig(total_requests=1, mean_interarrival_s=0.0)

    @pytest.mark.parametrize("total", BAD_COUNTS)
    def test_total_requests_must_be_positive_int(self, total):
        with pytest.raises(ValueError, match="total_requests"):
            AdmissionConfig(total_requests=total)

    @pytest.mark.parametrize("total", [MAX_COUNT + 1, 10 ** 20])
    def test_total_requests_bounded(self, total):
        with pytest.raises(ValueError, match="total_requests must be an "
                                             "integer in"):
            AdmissionConfig(total_requests=total)
        AdmissionConfig(total_requests=MAX_COUNT)

    @pytest.mark.parametrize("seed", [math.nan, math.inf, 2.5, True, -1])
    def test_seed_must_be_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            AdmissionConfig(total_requests=1, seed=seed)

    @pytest.mark.parametrize("kwargs", [
        {"mean_interarrival_s": math.nan},
        {"mean_interarrival_s": math.inf},
        {"available_prbs": math.nan},
        {"available_prbs": math.inf},
        {"available_prbs": -1.0},
        {"seed": -1},
    ])
    def test_nonfinite_or_negative_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionConfig(total_requests=1, **kwargs)

    @pytest.mark.parametrize("mean_s", [1e6, 1e300, 1e308])
    def test_arrival_horizon_checked_before_planning(self, scenario, mean_s):
        def no_trace(seed):
            pytest.fail("a trace was built past the ledger limit")

        cfg = AdmissionConfig(total_requests=2, mean_interarrival_s=mean_s)
        with pytest.raises(ValueError, match="ledger limit") as exc:
            run_admission(cfg, scenario.video, no_trace)
        assert type(exc.value) is ValueError

    @pytest.mark.parametrize("seed", [2 ** 63, 10 ** 20])
    def test_overflowing_arrivals_rejected_without_warning(self, scenario,
                                                           seed):
        # these seeds draw arrivals whose sum or span overflows at 1e308
        cfg = AdmissionConfig(total_requests=2, mean_interarrival_s=1e308,
                              seed=seed)
        with pytest.raises(ValueError, match="inf slots") as exc:
            run_admission(cfg, scenario.video, lambda seed: None)
        assert type(exc.value) is ValueError

    def test_rejected_horizon_spawns_no_user_seed(self, scenario,
                                                  monkeypatch):
        spawned = []

        class Recording(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "SeedSequence", Recording)
        cfg = AdmissionConfig(total_requests=1000, mean_interarrival_s=1e6)
        with pytest.raises(ValueError) as exc:
            run_admission(cfg, scenario.video, scenario.make_traces)
        assert type(exc.value) is ValueError
        assert spawned == [1]

    def test_long_horizon_within_limit_runs(self, scenario):
        # one request arriving tens of thousands of slots in: the ledger is
        # large but legal, and the request meets an empty spectrum
        mean_s = MAX_LEDGER_SLOTS * scenario.video.slot_duration_s / 16
        cfg = AdmissionConfig(total_requests=1, mean_interarrival_s=mean_s,
                              available_prbs=50, seed=0)
        log = run_admission(cfg, scenario.video, scenario.make_traces)
        assert log.records[0].arrival_slot > 10_000
        assert log.served_count == 1
        assert log.residual_prbs_timeline.size <= MAX_LEDGER_SLOTS

    @pytest.mark.parametrize("planner_kind", PLANNER_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_records_are_prefix_consistent(self, shadowed_scenario,
                                           planner_kind, seed):
        # The first k requests of a run see the same arrivals, traces and
        # ledger as a run of k requests, so their records agree.
        video = shadowed_scenario.video

        def records(total):
            cfg = AdmissionConfig(total_requests=total, available_prbs=15,
                                  seed=seed)
            log = run_admission(cfg, video, shadowed_scenario.make_traces,
                                planner_kind)
            return [(r.arrival_slot, r.admitted, r.outage_count)
                    for r in log.records]

        full = records(40)
        for k in (5, 10, 20, 30):
            assert records(k) == full[:k]


class TestDecisionsAgainstHighs:
    """Every anticipatory decision of the service_curve experiment (10
    seeds of 40 requests on 15 PRBs) against HiGHS, and the ledger each
    admit leaves."""

    def test_decisions_and_ledger(self, shadowed_scenario, monkeypatch):
        linprog = pytest.importorskip("scipy.optimize").linprog
        video = shadowed_scenario.video
        assert video.bits_per_slot == V     # lp_in_video_slots' unit
        calls = []

        def recording(spec, trace, window):
            plan = plan_anticipatory(spec, trace, window)
            calls.append((spec, trace, window.copy(), plan))
            return plan

        monkeypatch.setattr(prebuf.admission, "plan_anticipatory", recording)
        T, decisions, admits = video.num_slots, 0, 0
        for seed in range(10):
            calls.clear()
            cfg = AdmissionConfig(total_requests=40, available_prbs=15.0,
                                  seed=seed)
            log = run_admission(cfg, video, shadowed_scenario.make_traces)
            assert len(calls) == len(log.records) == 40
            ledger = np.full(log.residual_prbs_timeline.size, 15.0)
            for rec, (spec, trace, window, plan) in zip(log.records, calls):
                a = rec.arrival_slot
                assert spec == video
                assert np.array_equal(window, ledger[a:a + T])
                cost, A, b, upper = lp_in_video_slots(trace, window, spec)
                highs = linprog(cost, A_eq=A, b_eq=b, method="highs",
                                bounds=[(0.0, None if np.isinf(u) else u)
                                        for u in upper])
                assert highs.status in (0, 2), (seed, a)
                assert rec.admitted == plan.feasible == (highs.status == 0), \
                    (seed, a)
                decisions += 1
                if not rec.admitted:
                    continue
                admits += 1
                assert plan.total_prb_slots == pytest.approx(highs.fun,
                                                             rel=1e-9)
                ledger[a:a + T] = np.maximum(window - plan.prbs, 0.0)
            assert np.array_equal(ledger, log.residual_prbs_timeline)
        assert decisions == 400 and 0 < admits < 400


class TestBaselineDecisions:
    """Every baseline decision of the same 10 seeds of 40 requests on 15
    PRBs, restated slot by slot in Python floats: the first-slot rule, the
    ledger each admit leaves and each admit's outage count."""

    def test_decisions_ledger_and_outages(self, shadowed_scenario,
                                          monkeypatch):
        video = shadowed_scenario.video
        T, v = video.num_slots, video.bits_per_slot
        traces, windows = [], []

        def recording_traces(seeds):
            block = shadowed_scenario.make_traces(seeds)
            traces.extend(block)
            return block

        def recording_planner(spec, trace, window):
            windows.append(window.copy())
            return plan_baseline(spec, trace, window)

        monkeypatch.setattr(prebuf.admission, "plan_baseline",
                            recording_planner)
        admits = dusty = stalled = 0
        for seed in range(10):
            traces.clear()
            windows.clear()
            cfg = AdmissionConfig(total_requests=40, available_prbs=15.0,
                                  seed=seed)
            log = run_admission(cfg, video, recording_traces, "baseline")
            assert len(traces) == len(log.records) == 40
            ledger = [15.0] * log.residual_prbs_timeline.size
            planned = iter(windows)
            for rec, trace in zip(log.records, traces):
                a = rec.arrival_slot
                c, w = trace.bits_per_prb.tolist(), ledger[a:a + T]
                admitted = c[0] * w[0] >= v * PLAYABLE_SHARE
                assert rec.admitted == admitted, (seed, a)
                if not admitted:
                    assert rec.outage_count == 0
                    continue
                admits += 1
                assert next(planned).tolist() == w
                received = [min(v, c_t * w_t) for c_t, w_t in zip(c, w)]
                debited = [w_t - r_t / c_t
                           for w_t, r_t, c_t in zip(w, received, c)]
                dusty += min(debited) < 0.0
                ledger[a:a + T] = [max(x, 0.0) for x in debited]
                z, outages = 0.0, 0
                for r_t in received:
                    z, _, outage = step_buffer(z, r_t, v)
                    outages += outage
                assert rec.outage_count == outages, (seed, a)
                stalled += outages > 0
            assert next(planned, None) is None
            assert log.residual_prbs_timeline.tolist() == ledger
        # the clamp and the fold both act on this experiment
        assert 0 < dusty < admits and 0 < stalled < admits < 400


class TestTraceFactory:
    """run_admission builds its traces ahead of planning, one factory call
    per block of at most TRACE_BLOCK users, with unchanged records."""

    @staticmethod
    def run(cfg, video, make_traces, kind):
        log = run_admission(cfg, video, make_traces, kind)
        return ([(r.arrival_slot, r.admitted, r.outage_count)
                 for r in log.records], log.residual_prbs_timeline)

    @pytest.mark.parametrize("kind", PLANNER_KINDS)
    @pytest.mark.parametrize("block", [1, 3, 4])
    def test_one_call_per_block(self, shadowed_scenario, monkeypatch, kind,
                                block):
        video = shadowed_scenario.video
        cfg = AdmissionConfig(total_requests=10, available_prbs=15, seed=2)
        want_records, want_ledger = self.run(
            cfg, video, shadowed_scenario.make_traces, kind)
        calls = []

        def recording_traces(seeds):
            calls.append([seed.spawn_key for seed in seeds])
            return shadowed_scenario.make_traces(seeds)

        monkeypatch.setattr(prebuf.admission, "TRACE_BLOCK", block)
        records, ledger = self.run(cfg, video, recording_traces, kind)
        keys = [(k,) for k in range(1, 11)]   # spawn(1) went to arrivals
        assert calls == [keys[i:i + block] for i in range(0, 10, block)]
        assert records == want_records
        assert np.array_equal(ledger, want_ledger)

    def test_crosses_default_block(self, scenario, monkeypatch):
        calls = []
        spawned = []

        def recording_traces(seeds):
            calls.append(len(seeds))
            return scenario.make_traces(seeds)

        class Recording(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        # the user seeds are spawned a block at a time, never all at once
        monkeypatch.setattr(np.random, "SeedSequence", Recording)
        block = prebuf.admission.TRACE_BLOCK
        cfg = AdmissionConfig(total_requests=block + 2, available_prbs=15)
        log = run_admission(cfg, scenario.video, recording_traces,
                            "baseline")
        assert calls == [block, 2]
        assert spawned == [1, block, 2]
        assert len(log.records) == block + 2

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_count_rejected(self, scenario, extra):
        def wrong_count(seeds):
            return scenario.make_traces(seeds + seeds[:1])[:len(seeds)
                                                           + extra]

        with pytest.raises(ValueError, match="make_traces returned"):
            run_admission(AdmissionConfig(total_requests=3), scenario.video,
                          wrong_count)


class TestServiceCurve:
    def test_uncontended_single_user(self, scenario):
        rows = service_curve([1], scenario.video, scenario.make_traces,
                             AdmissionConfig(total_requests=1,
                                             available_prbs=50),
                             num_seeds=2)
        assert all(r["service_rate"] == 1.0 for r in rows)

    def test_served_monotone_in_capacity(self, shadowed_scenario):
        video = shadowed_scenario.video
        served = []
        for prbs in (5, 15, 50):
            cfg = AdmissionConfig(total_requests=15, available_prbs=prbs,
                                  seed=3)
            log = run_admission(cfg, video, shadowed_scenario.make_traces)
            served.append(log.served_count)
        assert served == sorted(served)

    def test_pointwise_dominance_per_seed(self, shadowed_scenario):
        rows = service_curve([5, 10], shadowed_scenario.video,
                             shadowed_scenario.make_traces,
                             AdmissionConfig(total_requests=5,
                                             available_prbs=15),
                             num_seeds=3)
        by_key = {(r["kv"], r["planner"], r["seed"]): r["served"]
                  for r in rows}
        for kv in (5, 10):
            for seed in range(3):
                assert by_key[(kv, "anticipatory", seed)] \
                    >= by_key[(kv, "baseline", seed)]

    def test_summary_means(self):
        rows = [
            {"kv": 5, "planner": "anticipatory", "seed": 0,
             "served": 4, "service_rate": 0.8},
            {"kv": 5, "planner": "anticipatory", "seed": 1,
             "served": 5, "service_rate": 1.0},
        ]
        means = summarize_curve(rows)
        assert means == [{"kv": 5, "planner": "anticipatory",
                          "mean_served": 4.5, "mean_service_rate": 0.9}]

    def test_empty_range_rejected(self, scenario):
        with pytest.raises(ValueError):
            service_curve([], scenario.video, scenario.make_traces,
                          AdmissionConfig(total_requests=1))

    def test_no_seeds_rejected(self, scenario):
        with pytest.raises(ValueError):
            service_curve([1], scenario.video, scenario.make_traces,
                          AdmissionConfig(total_requests=1), num_seeds=0)

    def test_too_many_seeds_rejected_before_any_run(self, scenario,
                                                    monkeypatch):
        def unreachable(*args, **kwargs):
            pytest.fail("a run started with num_seeds past MAX_COUNT")

        monkeypatch.setattr(prebuf.admission, "run_admission", unreachable)
        with pytest.raises(ValueError, match="num_seeds"):
            service_curve([1], scenario.video, unreachable,
                          AdmissionConfig(total_requests=1),
                          num_seeds=MAX_COUNT + 1)

    def test_unknown_planner_rejected_before_any_trace(self, scenario):
        def no_trace(seeds):
            pytest.fail("a trace was built for an unknown planner kind")

        with pytest.raises(ValueError, match="planner_kind"):
            service_curve([3], scenario.video, no_trace,
                          AdmissionConfig(total_requests=1),
                          planner_kinds=("anticipatory", "psychic"))

    @pytest.mark.parametrize("kinds", [PLANNER_KINDS, ("baseline",)])
    def test_planner_kinds_iterator_gives_tuple_rows(self, shadowed_scenario,
                                                     kinds):
        args = ([5, 10], shadowed_scenario.video,
                shadowed_scenario.make_traces,
                AdmissionConfig(total_requests=1, available_prbs=15))
        rows = service_curve(*args, num_seeds=2, planner_kinds=kinds)
        assert len(rows) == 2 * len(kinds) * 2
        assert service_curve(*args, num_seeds=2,
                             planner_kinds=iter(kinds)) == rows

    def test_no_planner_kinds_rejected_before_any_trace(self, scenario):
        def no_trace(seeds):
            pytest.fail("a trace was built with no planner to run")

        with pytest.raises(ValueError, match="planner_kinds") as exc:
            service_curve([5, 10], scenario.video, no_trace,
                          AdmissionConfig(total_requests=1), num_seeds=2,
                          planner_kinds=())
        assert type(exc.value) is ValueError

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [np.uint64(2 ** 64 - 1),
                                      np.int64(2 ** 63 - 1)],
                             ids=["uint64", "int64"])
    def test_numpy_integer_seeds_do_not_wrap(self, scenario, seed):
        # The seeds after a numpy integer base are Python ints, so they
        # neither wrap to 0 nor overflow.
        s = int(seed)
        rows = service_curve([3], scenario.video, scenario.make_traces,
                             AdmissionConfig(total_requests=1, seed=seed,
                                             available_prbs=5),
                             num_seeds=2)
        assert [(r["planner"], r["seed"]) for r in rows] \
            == [(kind, t) for kind in PLANNER_KINDS for t in (s, s + 1)]
        for row in rows:
            assert type(row["seed"]) is int
            cfg = AdmissionConfig(total_requests=3, seed=row["seed"],
                                  available_prbs=5)
            log = run_admission(cfg, scenario.video, scenario.make_traces,
                                row["planner"])
            assert (row["admitted"], row["served"]) \
                == (log.admitted_count, log.served_count)

    @pytest.mark.parametrize("kv_values", [[5, 0], [2.5], [5, 5.0], [True],
                                           [-3], ["4"], [None],
                                           [MAX_COUNT + 1]])
    def test_bad_kv_rejected_before_any_trace(self, scenario, kv_values):
        def no_trace(seed):
            pytest.fail("a trace was built for a bad kv list")

        with pytest.raises(ValueError, match="kv"):
            service_curve(kv_values, scenario.video, no_trace,
                          AdmissionConfig(total_requests=1))

    def test_rows_equal_one_run_per_kv(self, shadowed_scenario):
        # The oracle is the direct definition: a separate admission run for
        # every (kv, planner, seed), rows in kv, planner, seed order.
        video = shadowed_scenario.video
        kv_values = [10, 5, 10, 1]
        want = []
        for kv in kv_values:
            for kind in PLANNER_KINDS:
                for seed in range(3):
                    cfg = AdmissionConfig(total_requests=kv,
                                          available_prbs=15, seed=seed)
                    log = run_admission(cfg, video,
                                        shadowed_scenario.make_traces, kind)
                    want.append({"kv": kv, "planner": kind, "seed": seed,
                                 "admitted": log.admitted_count,
                                 "served": log.served_count,
                                 "service_rate": log.served_count / kv})
        rows = service_curve(kv_values, video, shadowed_scenario.make_traces,
                             AdmissionConfig(total_requests=1,
                                             available_prbs=15),
                             num_seeds=3)
        assert rows == want

    def test_each_trace_built_once_per_seed(self, shadowed_scenario):
        calls = []

        def counting_traces(seeds):
            calls.extend(seed.spawn_key for seed in seeds)
            return shadowed_scenario.make_traces(seeds)

        service_curve([3, 7, 5], shadowed_scenario.video, counting_traces,
                      AdmissionConfig(total_requests=1, available_prbs=15),
                      num_seeds=2)
        assert len(calls) == 7 * 2

    def test_each_block_dropped_before_the_next_but_one(
            self, shadowed_scenario, monkeypatch):
        # One pass runs both planners over each block of traces, so no
        # block is held past the next one's build.
        monkeypatch.setattr(prebuf.admission, "TRACE_BLOCK", 3)
        blocks = []                     # per factory call, its traces

        def tracked_traces(seeds):
            for b, refs in enumerate(blocks[:-1]):
                assert all(ref() is None for ref in refs), \
                    f"block {b} alive when block {len(blocks)} is built"
            traces = shadowed_scenario.make_traces(seeds)
            blocks.append([weakref.ref(trace) for trace in traces])
            return traces

        service_curve([10], shadowed_scenario.video, tracked_traces,
                      AdmissionConfig(total_requests=1, available_prbs=15),
                      num_seeds=1)
        assert [len(refs) for refs in blocks] == [3, 3, 3, 1]

    def test_each_pass_dropped_before_the_next(self, shadowed_scenario,
                                               monkeypatch):
        # each seed's logs are reduced to counts when its pass ends, so no
        # record outlives its pass; records are slotted, with no __dict__
        run = prebuf.admission._run_admission
        passes = []                     # per seed, its logs

        def tracked(*args):
            assert all(ref() is None for refs in passes for ref in refs)
            logs = run(*args)
            assert not hasattr(logs[0].records[0], "__dict__")
            passes.append([weakref.ref(log) for log in logs])
            return logs

        monkeypatch.setattr(prebuf.admission, "_run_admission", tracked)
        service_curve([5, 10], shadowed_scenario.video,
                      shadowed_scenario.make_traces,
                      AdmissionConfig(total_requests=1, available_prbs=15),
                      num_seeds=3)
        assert [len(refs) for refs in passes] == [2, 2, 2]

    def test_default_multi_user_output_pinned(self, tmp_path, capsys):
        assert main(["multi-user", "--out", str(tmp_path)]) == 0
        csv_bytes = (tmp_path / "service_curve.csv").read_bytes()
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(csv_bytes).hexdigest() \
            == DEFAULT_CURVE_CSV_SHA256
        assert hashlib.sha256(stdout).hexdigest() \
            == DEFAULT_CURVE_STDOUT_SHA256

    def test_default_blocks_seeded_as_arrays(self, shadowed_scenario,
                                             monkeypatch):
        # Each seed's one block, 40 users from one spawn on two BSs, has
        # one pool size and hash count, so its 80 streams are seeded as
        # arrays and none is drawn on its own.
        blocks = []
        derive = prebuf.link._stream_states

        def counted(seeds, num_bs):
            blocks.append((len(seeds), num_bs))
            return derive(seeds, num_bs)

        monkeypatch.setattr(prebuf.link, "_stream_states", counted)
        per_stream = counted_draws(monkeypatch)
        service_curve([5, 10, 20, 30, 40], shadowed_scenario.video,
                      shadowed_scenario.make_traces,
                      AdmissionConfig(total_requests=40, seed=0))
        assert blocks == [(40, 2)] * 10 and per_stream == []

    @pytest.mark.parametrize("command, csv_name, csv_sha256, stdout_sha256", [
        ("single-user", "trace.csv", DEFAULT_SINGLE_USER_CSV_SHA256,
         DEFAULT_SINGLE_USER_STDOUT_SHA256),
        ("buffer-sweep", "sweep.csv", DEFAULT_SWEEP_CSV_SHA256,
         DEFAULT_SWEEP_STDOUT_SHA256),
    ], ids=["single-user", "buffer-sweep"])
    def test_default_single_user_commands_pinned(self, tmp_path, capsys,
                                                 command, csv_name,
                                                 csv_sha256, stdout_sha256):
        assert main([command, "--out", str(tmp_path)]) == 0
        csv_bytes = (tmp_path / csv_name).read_bytes()
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(csv_bytes).hexdigest() == csv_sha256
        assert hashlib.sha256(stdout).hexdigest() == stdout_sha256

    @pytest.mark.parametrize(
        "argv, ini, rc, csv_name, csv_sha256, stdout_sha256", [
            (["buffer-sweep", "--z-max-multiple", "2"], "", 0, "sweep.csv",
             INF_SWEEP_CSV_SHA256, INF_SWEEP_STDOUT_SHA256),
            (["single-user"], "max_carryover_bits = 5e7\n", 2, "trace.csv",
             INF_SINGLE_USER_CSV_SHA256, INF_SINGLE_USER_STDOUT_SHA256),
        ], ids=["buffer-sweep", "single-user"])
    def test_infeasible_cap_outputs_pinned(self, tmp_path, capsys, argv, ini,
                                           rc, csv_name, csv_sha256,
                                           stdout_sha256):
        config = tmp_path / "heavy.ini"
        config.write_text("[video]\nbits_per_slot = 1e7\n" + ini)
        out = tmp_path / "out"
        assert main(argv + ["--sigma-db", "0", "--config", str(config),
                            "--out", str(out)]) == rc
        csv_bytes = (out / csv_name).read_bytes()
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(csv_bytes).hexdigest() == csv_sha256
        assert hashlib.sha256(stdout).hexdigest() == stdout_sha256


CONTRACT_CONFIG = {"total_requests": 3, "mean_interarrival_s": 0.58,
                   "available_prbs": 15.0, "seed": 0}
CONTRACT_VIDEO = VideoSpec(bits_per_slot=250_000.0, slot_duration_s=1 / 6,
                           num_slots=CONTRACT_SLOTS,
                           max_carryover_bits=500_000.0)


def contract_traces(seeds):
    return build_traces([35.0 + 5.0 * t for t in range(CONTRACT_SLOTS)],
                        [0.0, 550.0], LinkBudget(),
                        CONTRACT_VIDEO.slot_duration_s, seeds=seeds)


def admission_contract_cases():
    """AdmissionConfig and run_admission, for each planner kind, with
    arguments they accept, by name; the config's fields count as
    arguments of run_admission.

    The base run has 3 requests, and no value of LINK_EXTREMES is a legal
    total_requests above 2, so every legal run stays that short.  A count
    near MAX_COUNT with a tiny mean_interarrival_s would be a legal run of
    a million requests, far past the test's budget, so none is drawn.
    """
    yield AdmissionConfig, dict(CONTRACT_CONFIG)
    for kind in PLANNER_KINDS:
        yield run_admission, {**CONTRACT_CONFIG, "planner_kind": kind}


def check_admission_contract(fn, args):
    """The call returns or raises a ValueError naming an argument; any
    other error or a warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = AdmissionConfig(**{name: args[name]
                                        for name in CONTRACT_CONFIG})
            if fn is run_admission:
                fn(config, CONTRACT_VIDEO, contract_traces,
                   args["planner_kind"])
        except ValueError as e:
            assert any(name in str(e) for name in args), (fn, args, str(e))


class TestAdmissionContract:
    """Whatever the values, an admission config or run returns or raises
    a ValueError that names an argument; no other error, no warning."""

    def test_each_extreme_alone(self):
        for fn, args in admission_contract_cases():
            for name, value in itertools.product(args, LINK_EXTREMES):
                check_admission_contract(fn, with_extreme(args, name, value))

    @settings(max_examples=200, deadline=None)
    @given(call=extreme_calls(list(admission_contract_cases())))
    def test_extreme_arguments(self, call):
        check_admission_contract(*call)
