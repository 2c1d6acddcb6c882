"""Self-test of the benchmark: metric names, references and output checks.

    python3 bench/selftest.py

Runs the harness at tiny sizes on every workload in both modes, checks the
references against the program on inputs where the program is trusted,
and feeds each output check a deliberately corrupted output.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import prebuf  # noqa: E402
from prebuf import (AdmissionConfig, ScenarioConfig,  # noqa: E402
                    ShadowingConfig)

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
V = ScenarioConfig().video.bits_per_slot


def _outputs(workload, inputs):
    outputs = []
    for unit in inputs["units"]:
        tracer = tracing.Tracer(workload.plan_site, site_only=True)
        with tempfile.TemporaryDirectory() as out, tracer.install():
            outputs.append(workload.run_unit(inputs, unit, Path(out),
                                             tracer.kept))
    return outputs


def _tiny(workload):
    inputs = workload.setup(3, workloads.SIZES[workload.name]["tiny"])
    return inputs, _outputs(workload, inputs)


class HarnessTest(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(BENCH / "run.py"),
                         "--workload", workload, "--seed", "1",
                         "--seconds", "1", "--trace", str(trace),
                         "--size", "tiny"],
                        cwd=ROOT, capture_output=True, text=True, timeout=170)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


class ReferenceTest(unittest.TestCase):
    def test_trace_is_bit_identical(self):
        for sigma in (0.0, 10.0):
            cfg = ScenarioConfig(shadowing=ShadowingConfig(sigma_db=sigma))
            for seed in (0, 7, np.random.SeedSequence(5).spawn(2)[1]):
                want = cfg.make_trace(copy.deepcopy(seed)).bits_per_prb
                got = reference.trace_bits_per_prb(cfg, copy.deepcopy(seed))
                self.assertTrue(np.array_equal(got, want), (sigma, seed))

    def test_flow_optimum_matches_simplex(self):
        rng = np.random.default_rng(11)
        cfg = ScenarioConfig()
        infeasible = 0
        for k in range(40):
            trace = cfg.make_trace(k)
            residual = rng.uniform(0.0, 4.0, cfg.video.num_slots)
            spec = replace(cfg.video,
                           max_carryover_bits=float(rng.integers(0, 12)) * V)
            plan = prebuf.plan_anticipatory(spec, trace, residual)
            best = reference.min_prb_slots(trace.bits_per_prb, residual, V,
                                           spec.max_carryover_bits)
            self.assertEqual(best is not None, plan.feasible, k)
            if best is None:
                infeasible += 1
            else:
                self.assertLessEqual(abs(plan.total_prb_slots - best),
                                     1e-9 * best, k)
        self.assertGreater(infeasible, 0)
        self.assertLess(infeasible, 40)

    def test_playback_matches_program(self):
        rng = np.random.default_rng(4)
        spec = ScenarioConfig().video
        for _ in range(50):
            received = rng.uniform(0.0, 2.0 * V, spec.num_slots)
            timeline = prebuf.simulate_playback(received, spec)
            stalls, left = reference.count_outages(received, V)
            self.assertEqual(stalls, timeline.num_outages)
            self.assertEqual(left, timeline.final_carryover_bits)

    def test_baseline_admission_matches_program(self):
        cfg = ScenarioConfig()
        for seed in (0, 1):
            admission = AdmissionConfig(total_requests=12,
                                        available_prbs=15, seed=seed)
            log = prebuf.run_admission(admission, cfg.video, cfg.make_trace,
                                       "baseline")
            self.assertEqual(
                reference.baseline_admission(cfg, 12, seed, 0.58, 15.0),
                (log.admitted_count, log.served_count))


class CheckTest(unittest.TestCase):
    """Every output check passes on real output and trips on a bad one."""

    def corrupt(self, workload, inputs, outputs, edit):
        self.assertEqual(workload.check(inputs, outputs).failed, 0)
        bad = copy.deepcopy(outputs)
        edit(bad)
        self.assertGreater(workload.check(inputs, bad).failed, 0,
                           f"{edit.__name__} went unnoticed")

    def test_buffer_sweep(self):
        wl = workloads.BufferSweep
        inputs, outputs = _tiny(wl)

        def short_slot(units):
            units[0]["plans"][1]["received_bits"][10] *= 0.99

        def bits_left_over(units):
            units[1]["plans"][1]["received_bits"][-1] += V / 2

        def more_spectrum(units):
            units[1]["plans"][2]["total_prb_slots"] *= 1 + 1e-7

        def infeasible(units):
            units[0]["plans"][0]["feasible"] = False

        def missing_plan(units):
            units[1]["plans"].pop()

        def csv_total(units):
            units[0]["csv"] = units[0]["csv"].replace(
                f"{units[0]['plans'][2]['total_prb_slots']:.9g}", "1")

        for edit in (short_slot, bits_left_over, more_spectrum, infeasible,
                     missing_plan, csv_total):
            self.corrupt(wl, inputs, outputs, edit)

        # totals that grow with Z, each one optimal for its own Z
        growing = dict(inputs, z_bits=inputs["z_bits"][::-1])
        self.assertGreater(
            wl.check(growing, _outputs(wl, growing)).failed, 0)

    def test_service_curve(self):
        wl = workloads.ServiceCurve
        inputs, outputs = _tiny(wl)

        def edit_rows(units, index, edit):
            """Apply `edit` to the per-seed rows (not the mean rows)."""
            header, *rows = list(csv.reader(io.StringIO(units[index])))
            for row in rows:
                if row[2] != "mean":
                    edit(row)
            text = io.StringIO()
            csv.writer(text, lineterminator="\n").writerows([header] + rows)
            units[index] = text.getvalue()

        def stalled(units):
            def edit(row):
                if row[1] == "anticipatory":
                    row[4] = str(int(row[3]) - 1)
            edit_rows(units, 0, edit)

        def served_unadmitted(units):
            def edit(row):
                if row[1] == "baseline":
                    row[4] = str(int(row[3]) + 1)
            edit_rows(units, 0, edit)

        def dominated(units):
            def edit(row):
                if row[1] == "anticipatory":
                    row[3] = row[4] = "0"
            edit_rows(units, 0, edit)

        def missing_row(units):
            units[0] = "\n".join(line for line in units[0].splitlines()
                                 if ",baseline," not in line)

        for edit in (stalled, served_unadmitted, dominated, missing_row):
            self.corrupt(wl, inputs, outputs, edit)

    def test_baseline_admission(self):
        wl = workloads.BaselineAdmission
        inputs, outputs = _tiny(wl)

        def served_one_less(units):
            units[-1][-1][2] -= 1

        def admitted_one_more(units):
            units[0][0][1] += 1

        def missing_volume(units):
            units[0].pop()

        for edit in (served_one_less, admitted_one_more, missing_volume):
            self.corrupt(wl, inputs, outputs, edit)


if __name__ == "__main__":
    unittest.main()
