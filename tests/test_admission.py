import math

import numpy as np
import pytest

from prebuf import (AdmissionConfig, ScenarioConfig, ShadowingConfig,
                    run_admission, service_curve, summarize_curve)
from prebuf.admission import (MAX_LEDGER_SLOTS, PLANNER_KINDS,
                              LedgerHorizonError)


@pytest.fixture(scope="module")
def scenario():
    return ScenarioConfig(shadowing=ShadowingConfig(sigma_db=0.0))


@pytest.fixture(scope="module")
def shadowed_scenario():
    return ScenarioConfig()


class TestRunAdmission:
    def test_zero_capacity_admits_nobody(self, scenario):
        cfg = AdmissionConfig(total_requests=5, available_prbs=0, seed=0)
        log = run_admission(cfg, scenario.video, scenario.make_trace)
        assert log.admitted_count == 0
        assert log.served_count == 0

    def test_single_request_bookkeeping(self, scenario):
        cfg = AdmissionConfig(total_requests=1, available_prbs=50, seed=0)
        log = run_admission(cfg, scenario.video, scenario.make_trace)
        rec = log.records[0]
        assert rec.admitted and rec.served
        ledger = log.residual_prbs_timeline
        a = rec.arrival_slot
        T = scenario.video.num_slots
        assert ledger[a:a + T] == pytest.approx(50.0 - rec.plan.prbs,
                                                abs=1e-9)
        assert np.all(ledger[:a] == 50.0)
        assert np.all(ledger >= -1e-7)

    def test_every_admitted_anticipatory_user_served(self, shadowed_scenario):
        video = shadowed_scenario.video
        for seed in range(4):
            cfg = AdmissionConfig(total_requests=25, available_prbs=15,
                                  seed=seed)
            log = run_admission(cfg, video, shadowed_scenario.make_trace,
                                "anticipatory")
            assert log.served_count == log.admitted_count

    def test_capacity_conservation(self, shadowed_scenario):
        video = shadowed_scenario.video
        cfg = AdmissionConfig(total_requests=25, available_prbs=15, seed=1)
        for kind in ("anticipatory", "baseline"):
            log = run_admission(cfg, video, shadowed_scenario.make_trace,
                                kind)
            total = np.zeros(log.residual_prbs_timeline.size)
            for rec in log.records:
                if rec.admitted:
                    a = rec.arrival_slot
                    total[a:a + video.num_slots] += rec.plan.prbs
            assert np.all(total <= 15.0 + 1e-7)

    def test_anticipatory_dominates_baseline(self, shadowed_scenario):
        video = shadowed_scenario.video
        strict = 0
        for kv in (5, 10, 20):
            for seed in range(3):
                cfg = AdmissionConfig(total_requests=kv, available_prbs=15,
                                      seed=seed)
                a = run_admission(cfg, video, shadowed_scenario.make_trace,
                                  "anticipatory")
                b = run_admission(cfg, video, shadowed_scenario.make_trace,
                                  "baseline")
                assert a.served_count >= b.served_count
                strict += a.served_count > b.served_count
        assert strict >= 1

    def test_deterministic_per_seed(self, shadowed_scenario):
        video = shadowed_scenario.video
        cfg = AdmissionConfig(total_requests=12, available_prbs=15, seed=9)
        a = run_admission(cfg, video, shadowed_scenario.make_trace)
        b = run_admission(cfg, video, shadowed_scenario.make_trace)
        assert [r.admitted for r in a.records] \
            == [r.admitted for r in b.records]
        assert np.array_equal(a.residual_prbs_timeline,
                              b.residual_prbs_timeline)

    def test_different_seeds_change_arrivals_only_legally(
            self, shadowed_scenario):
        video = shadowed_scenario.video
        t1 = run_admission(AdmissionConfig(total_requests=6, seed=1),
                           video, shadowed_scenario.make_trace)
        t2 = run_admission(AdmissionConfig(total_requests=6, seed=2),
                           video, shadowed_scenario.make_trace)
        assert [r.arrival_time_s for r in t1.records] \
            != [r.arrival_time_s for r in t2.records]

    def test_unknown_planner_rejected(self, scenario):
        with pytest.raises(ValueError):
            run_admission(AdmissionConfig(total_requests=1),
                          scenario.video, scenario.make_trace, "psychic")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(total_requests=0)
        with pytest.raises(ValueError):
            AdmissionConfig(total_requests=1, mean_interarrival_s=0.0)

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
        with pytest.raises(LedgerHorizonError, match="ledger limit"):
            run_admission(cfg, scenario.video, no_trace)

    def test_long_horizon_within_limit_runs(self, scenario):
        # one request arriving tens of thousands of slots in: the ledger is
        # large but legal, and the request meets an empty spectrum
        mean_s = MAX_LEDGER_SLOTS * scenario.video.slot_duration_s / 16
        cfg = AdmissionConfig(total_requests=1, mean_interarrival_s=mean_s,
                              available_prbs=50, seed=0)
        log = run_admission(cfg, scenario.video, scenario.make_trace)
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
            log = run_admission(cfg, video, shadowed_scenario.make_trace,
                                planner_kind)
            return [(r.arrival_slot, r.admitted, r.outage_count)
                    for r in log.records]

        full = records(40)
        for k in (5, 10, 20, 30):
            assert records(k) == full[:k]


class TestServiceCurve:
    def test_uncontended_single_user(self, scenario):
        rows = service_curve([1], scenario.video, scenario.make_trace,
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
            log = run_admission(cfg, video, shadowed_scenario.make_trace)
            served.append(log.served_count)
        assert served == sorted(served)

    def test_pointwise_dominance_per_seed(self, shadowed_scenario):
        rows = service_curve([5, 10], shadowed_scenario.video,
                             shadowed_scenario.make_trace,
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
            service_curve([], scenario.video, scenario.make_trace,
                          AdmissionConfig(total_requests=1))

    def test_no_seeds_rejected(self, scenario):
        with pytest.raises(ValueError):
            service_curve([1], scenario.video, scenario.make_trace,
                          AdmissionConfig(total_requests=1), num_seeds=0)
