"""The benchmark's workloads: inputs from a seed, units of work, checks.

Each workload builds its inputs from the workload seed alone and splits
its work into units: one admission experiment for one arrival seed over
every request volume, or one buffer sweep over one channel trace.  A unit
runs through the program's public API and returns a plain value; the
outputs of all units are checked against `reference`.  The planner is
wrapped at the import site the unit calls it through (`plan_site`), so
each call is timed and its result kept.

Trace and admission seeds are `1000 * seed + i`, so distinct workload
seeds never share an arrival process or a shadowing stream.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import prebuf.admission
import prebuf.scenario
from prebuf import AdmissionConfig, ScenarioConfig, ShadowingConfig

import reference

KV = (5, 10, 20, 30, 40)
AVAILABLE_PRBS = 15.0
MEAN_INTERARRIVAL_S = 0.58
SEED_STRIDE = 1000

# Units per size: request volumes and arrival seeds (one unit per seed,
# over every volume), or shadowed traces (plus one unshadowed) and the
# largest buffer cap in slots of video.
SIZES = {
    "service_curve": {"full": {"kv": KV, "num_seeds": 10},
                      "tiny": {"kv": (2, 4), "num_seeds": 1}},
    "buffer_sweep": {"full": {"shadowed_traces": 20, "z_max_slots": 20},
                     "tiny": {"shadowed_traces": 1, "z_max_slots": 2}},
    "baseline_admission": {"full": {"kv": KV, "num_seeds": 40},
                           "tiny": {"kv": (2, 4), "num_seeds": 2}},
}


@dataclass
class Check:
    """Operations checked and the ones that failed, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def expect(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def digest(output) -> str:
    return hashlib.sha256(json.dumps(output).encode()).hexdigest()


def _admission(seed: int, kv: list) -> AdmissionConfig:
    """Arrivals from `seed`; the drivers set total_requests per volume."""
    return AdmissionConfig(total_requests=max(kv),
                           mean_interarrival_s=MEAN_INTERARRIVAL_S,
                           available_prbs=AVAILABLE_PRBS, seed=seed)


def _admission_setup(seed: int, size: dict) -> dict:
    return {"scenario": ScenarioConfig(), "kv": list(size["kv"]),
            "units": [SEED_STRIDE * seed + i
                      for i in range(size["num_seeds"])]}


class ServiceCurve:
    """`scenario.run_multiuser` (`prebuf multi-user`): both planners, one
    unit per arrival seed over every request volume, CSV written."""

    name = "service_curve"
    speed_kernel = "tableau"            # see hostclock
    plan_site = (prebuf.admission, "plan_anticipatory")
    setup = staticmethod(_admission_setup)

    @staticmethod
    def run_unit(inputs, seed, out_dir: Path, calls: list) -> str:
        prebuf.scenario.run_multiuser(inputs["scenario"],
                                      _admission(seed, inputs["kv"]),
                                      inputs["kv"], out_dir, num_seeds=1)
        return (out_dir / "service_curve.csv").read_text()

    @staticmethod
    def check(inputs, outputs: list) -> Check:
        """Admitted anticipatory users all play without a stall, and over
        the seeds the anticipatory planner serves at least as many users
        as the baseline at every request volume."""
        check = Check()
        served = {}
        for seed, output in zip(inputs["units"], outputs, strict=True):
            rows = {(r["kv"], r["planner"], r["seed"]): r
                    for r in csv.DictReader(io.StringIO(output))}
            for kv in inputs["kv"]:
                for planner in ("anticipatory", "baseline"):
                    row = rows.get((str(kv), planner, str(seed)))
                    ok = row is not None and (
                        row["served"] == row["admitted"]
                        if planner == "anticipatory"
                        else int(row["served"]) <= int(row["admitted"]))
                    check.expect(ok,
                                 f"kv={kv} seed={seed}: {planner} row {row}")
                    if row is not None:
                        served.setdefault((kv, planner), []).append(
                            int(row["served"]))
        for kv in inputs["kv"]:
            ant = served.get((kv, "anticipatory"), [])
            base = served.get((kv, "baseline"), [])
            check.expect(sum(ant) >= sum(base),
                         f"kv={kv}: anticipatory serves {sum(ant)}, "
                         f"baseline {sum(base)}")
        return check


class BufferSweep:
    """`scenario.run_buffer_sweep` over Z = 0 .. z_max V on all 50 PRBs,
    one unit per channel trace: one unshadowed, the rest at 10 dB."""

    name = "buffer_sweep"
    speed_kernel = "tableau"            # see hostclock
    plan_site = (prebuf.scenario, "plan_anticipatory")

    @staticmethod
    def setup(seed: int, size: dict) -> dict:
        plain = ScenarioConfig()
        units = [replace(plain, shadowing=ShadowingConfig(sigma_db=0.0))]
        units += [replace(plain, seed=SEED_STRIDE * seed + i)
                  for i in range(size["shadowed_traces"])]
        V = plain.video.bits_per_slot
        return {"units": units,
                "z_bits": [k * V for k in range(size["z_max_slots"] + 1)]}

    @staticmethod
    def run_unit(inputs, scenario, out_dir: Path, calls: list) -> dict:
        prebuf.scenario.run_buffer_sweep(scenario, inputs["z_bits"], out_dir)
        return {"csv": (out_dir / "sweep.csv").read_text(),
                "plans": [{"feasible": plan.feasible,
                           "total_prb_slots": plan.total_prb_slots,
                           "received_bits": plan.received_bits.tolist()}
                          for _, plan in calls]}

    @staticmethod
    def check(inputs, outputs: list) -> Check:
        """Each plan plays without a stall, ends with an empty buffer and
        has the least PRB-slots; totals do not grow with Z; sweep.csv
        lists the planned totals."""
        check = Check()
        for scenario, output in zip(inputs["units"], outputs, strict=True):
            bits = reference.trace_bits_per_prb(scenario, scenario.seed)
            residual = np.full(bits.size,
                               float(scenario.link.num_system_prbs))
            V = scenario.video.bits_per_slot
            rows = list(csv.DictReader(io.StringIO(output["csv"])))
            previous = np.inf
            for k, z in enumerate(inputs["z_bits"]):
                where = (f"sigma={scenario.shadowing.sigma_db} "
                         f"seed={scenario.seed} Z={z / V:g}V")
                if k >= min(len(output["plans"]), len(rows)):
                    check.expect(False, f"{where}: no plan or CSV row")
                    continue
                plan = output["plans"][k]
                best = reference.min_prb_slots(bits, residual, V, z)
                if best is None or not plan["feasible"]:
                    check.expect(best is None and not plan["feasible"],
                                 f"{where}: feasible={plan['feasible']}, "
                                 f"reference optimum {best}")
                    continue
                stalls, left = reference.count_outages(
                    plan["received_bits"], V)
                total = plan["total_prb_slots"]
                listed = float(rows[k]["total_prb_slots"])
                check.expect(
                    stalls == 0 and abs(left) <= 1e-6 * V
                    and abs(total - best) <= 1e-9 * best
                    and total <= previous * (1 + 1e-9)
                    and abs(listed - total) <= 1e-8 * total,
                    f"{where}: {stalls} stalls, {left} bits left, total "
                    f"{total!r} (CSV {listed!r}) vs reference {best!r}, "
                    f"previous {previous}")
                previous = total
        return check


class BaselineAdmission:
    """`admission.service_curve` with the no-look-ahead planner only, one
    unit per arrival seed over every request volume."""

    name = "baseline_admission"
    speed_kernel = "shadowing"          # see hostclock
    plan_site = (prebuf.admission, "plan_baseline")

    setup = staticmethod(_admission_setup)

    @staticmethod
    def run_unit(inputs, seed, out_dir: Path, calls: list) -> list:
        scenario = inputs["scenario"]
        rows = prebuf.admission.service_curve(
            inputs["kv"], scenario.video, scenario.make_trace,
            _admission(seed, inputs["kv"]), num_seeds=1,
            planner_kinds=("baseline",))
        return [[row["kv"], row["admitted"], row["served"]] for row in rows]

    @staticmethod
    def check(inputs, outputs: list) -> Check:
        """Admitted and served counts equal the reference exactly."""
        check = Check()
        for seed, output in zip(inputs["units"], outputs, strict=True):
            got = {kv: counts for kv, *counts in output}
            for kv in inputs["kv"]:
                want = list(reference.baseline_admission(
                    inputs["scenario"], kv, seed, MEAN_INTERARRIVAL_S,
                    AVAILABLE_PRBS))
                check.expect(got.get(kv) == want, f"kv={kv} seed={seed}: "
                             f"admitted/served {got.get(kv)}, "
                             f"reference {want}")
        return check


WORKLOADS = {w.name: w for w in (ServiceCurve, BufferSweep,
                                 BaselineAdmission)}
