"""End-to-end acceptance gate.

One test per criterion; each prints a PASS/FAIL line so the gate can be
read off a verbose run directly.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from prebuf import (AdmissionConfig, LinkBudget, ScenarioConfig,
                    ShadowingConfig, build_trace, per_prb_bits,
                    plan_anticipatory, run_single_user, service_curve,
                    simulate_playback, summarize_curve)
from prebuf.scenario import default_video_spec
from prebuf.simplex import solve

from oracles import vertex_enum_objective
from test_simplex import random_bounded_lp

V = 250_000.0


def report(number, ok, detail=""):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_lp_oracle_equivalence():
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        problem = random_bounded_lp(rng)
        expect = vertex_enum_objective(problem)
        sol = solve(problem)
        if expect is None:
            assert sol.status == "infeasible"
            continue
        assert sol.status == "optimal"
        gap = abs(sol.objective_value - expect)
        worst = max(worst, gap)
        assert gap <= 1e-8
    elapsed = time.perf_counter() - start
    report(1, elapsed < 5.0,
           f"(500 LPs, max gap {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_zero_buffer_closed_form():
    worst = 0.0
    for seed in range(20):
        cfg = ScenarioConfig(seed=seed)
        trace = cfg.make_trace()
        spec = replace(cfg.video, max_carryover_bits=0.0)
        plan = plan_anticipatory(spec, trace, np.full(96, 50.0))
        assert plan.feasible
        assert plan.received_bits == pytest.approx(np.full(96, V), rel=1e-9)
        closed = float(np.sum(V / trace.bits_per_prb))
        rel = abs(plan.total_prb_slots - closed) / closed
        worst = max(worst, rel)
        assert rel <= 1e-9
    report(2, True, f"(20 seeds, max rel err {worst:.2e})")


def test_criterion_3_telescoping_mass_balance():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(30):
        cfg = ScenarioConfig(seed=int(rng.integers(1 << 31)))
        z_cap = float(rng.integers(0, 11)) * V
        spec = replace(cfg.video, max_carryover_bits=z_cap)
        plan = plan_anticipatory(spec, cfg.make_trace(), np.full(96, 50.0))
        assert plan.feasible
        rel = abs(float(np.sum(plan.received_bits)) - 96 * V) / (96 * V)
        worst = max(worst, rel)
        assert rel <= 1e-6
    report(3, True, f"(30 plans, max rel err {worst:.2e})")


def test_criterion_4_zero_outage_guarantee():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(100):
        spec = replace(default_video_spec(),
                       max_carryover_bits=float(rng.integers(0, 11)) * V)
        speed = float(rng.uniform(15.0, 40.0))
        traj = 35.0 + speed * spec.slot_duration_s * np.arange(96)
        trace = build_trace(traj, [0.0, 550.0], LinkBudget(),
                            spec.slot_duration_s,
                            shadowing=ShadowingConfig(
                                sigma_db=float(rng.uniform(0.0, 12.0))),
                            seed=int(rng.integers(1 << 31)))
        residual = np.full(96, float(rng.uniform(10.0, 50.0)))
        plan = plan_anticipatory(spec, trace, residual)
        if not plan.feasible:
            continue
        checked += 1
        timeline = simulate_playback(plan.received_bits, spec)
        assert timeline.num_outages == 0
        assert timeline.final_carryover_bits == pytest.approx(0.0, abs=1e-3)
    report(4, checked >= 90, f"({checked}/100 feasible, all zero-outage)")


def test_criterion_5_buffer_sweep_trend():
    cfg = ScenarioConfig(seed=0)
    trace = cfg.make_trace()
    totals = []
    for k in range(11):
        spec = replace(cfg.video, max_carryover_bits=k * V)
        totals.append(plan_anticipatory(spec, trace,
                                        np.full(96, 50.0)).total_prb_slots)
    totals = np.array(totals)
    non_increasing = bool(np.all(np.diff(totals) <= 1e-9))
    strict_gain = totals[0] > totals[5] + 1e-9
    # saturation onset: first index whose tail is constant (1e-9 relative),
    # required to leave a non-trivial tail within the sweep
    z_star = None
    for i in range(len(totals) - 1):
        tail = totals[i:]
        if (tail.max() - tail.min()) <= 1e-9 * tail.max():
            z_star = i
            break
    saturated = z_star is not None
    report(5, non_increasing and strict_gain and saturated,
           f"(non-increasing={non_increasing}, Z0>Z5V={strict_gain}, "
           f"saturation Z*={'none' if z_star is None else f'{z_star}V'}, "
           f"totals {totals.round(3).tolist()})")


def test_criterion_6_four_phase_structure():
    cfg = ScenarioConfig(shadowing=ShadowingConfig(sigma_db=0.0))
    trace = cfg.make_trace()
    plan = plan_anticipatory(cfg.video, trace, np.full(96, 50.0))
    assert plan.feasible
    z_cap = cfg.video.max_carryover_bits
    z = plan.carryover_bits          # z_2 .. z_T
    r = plan.received_bits
    tol = 1e-6 * V

    phase1 = abs(z[0] - z_cap) <= tol                      # full pre-load
    full = np.flatnonzero(np.abs(z - z_cap) <= tol)
    phase2 = full.size > 1 and np.array_equal(
        full, np.arange(full[0], full[-1] + 1))            # contiguous
    drain = np.flatnonzero(r < V - tol)
    worst = int(np.argmin(trace.gain_db))
    phase3 = drain.size > 0 and drain[0] <= worst <= drain[-1] \
        and np.array_equal(drain, np.arange(drain[0], drain[-1] + 1))
    tail = slice(drain[-1] + 1, 96)
    phase4 = np.allclose(r[tail], V, atol=tol) \
        and np.all(z[drain[-1]:] <= tol)                   # z_t = 0 after
    report(6, phase1 and phase2 and phase3 and phase4,
           f"(preload={phase1}, plateau={phase2}, drain={phase3}, "
           f"tail={phase4})")


def test_criterion_7_service_dominance():
    start = time.perf_counter()
    cfg = ScenarioConfig()
    base = AdmissionConfig(total_requests=5, available_prbs=15,
                           mean_interarrival_s=0.58, seed=0)
    rows = service_curve([5, 10, 20, 30, 40], cfg.video, cfg.make_traces,
                         base, num_seeds=10)
    means = {(r["kv"], r["planner"]): r["mean_served"]
             for r in summarize_curve(rows)}
    dominance = all(means[(kv, "anticipatory")] >= means[(kv, "baseline")]
                    for kv in (5, 10, 20, 30, 40))
    strict = any(means[(kv, "anticipatory")] > means[(kv, "baseline")]
                 for kv in (5, 10, 20, 30, 40))
    elapsed = time.perf_counter() - start
    detail = {kv: (round(means[(kv, 'anticipatory')], 1),
                   round(means[(kv, 'baseline')], 1))
              for kv in (5, 10, 20, 30, 40)}
    report(7, dominance and strict and elapsed < 60.0,
           f"(anticipatory vs baseline {detail}, {elapsed:.1f}s)")


def test_criterion_8_link_budget_spot_check():
    got = per_prb_bits(-90.5, LinkBudget(), 1 / 6)
    # independent dB chain: 29.01 dBm per PRB, -112.45 dBm noise,
    # -96.45 dBm interference -> SINR 34.85 dB
    p_dbm = 46.0 - 10 * np.log10(50)
    noise_dbm = -174.0 + 9.0 + 10 * np.log10(180e3)
    intf_dbm = -149.0 + 10 * np.log10(180e3)
    denom_mw = 10 ** (noise_dbm / 10) + 10 ** (intf_dbm / 10)
    sinr_db = p_dbm - 90.5 - 10 * np.log10(denom_mw)
    oracle = (1 / 6) * 180e3 * np.log2(1 + 10 ** (sinr_db / 10))
    ok = abs(got - oracle) / oracle <= 0.01 and abs(got - 3.47e5) / 3.47e5 <= 0.01
    report(8, ok, f"(got {got:.4g}, oracle {oracle:.4g})")


def test_criterion_9_byte_identical_reruns(tmp_path):
    cfg = ScenarioConfig(seed=17)
    run_single_user(cfg, tmp_path / "a")
    run_single_user(cfg, tmp_path / "b")
    same = (tmp_path / "a" / "trace.csv").read_bytes() \
        == (tmp_path / "b" / "trace.csv").read_bytes()
    report(9, same, "(trace.csv byte-identical across reruns)")
