"""Spans and counters recorded from outside `prebuf`, around its public calls.

`Tracer.install()` replaces each traced function at every module attribute
the program looks it up through, and puts the originals back on exit.  A
function imported by name (`from .planner import plan_anticipatory`) is a
separate attribute of the importing module, so each import site is patched.

Spans are kept in memory as (name, parent, start, end); a layer's self time
is its spans' durations minus those of their direct children.  A tracer
also keeps (ms, result) for every call through one given attribute, the
workload's planner site; with `site_only` it wraps that site alone, which
is how untraced passes time planner calls and collect plans.  After each
such call it runs `probe`, if set, in a span of its own, so that the
probe's time is no part of any layer's self time.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import numpy as np

import prebuf.admission
import prebuf.link
import prebuf.planner
import prebuf.playout
import prebuf.scenario
import prebuf.simplex


def _on_solve(counts, args, kwargs, sol):
    counts["simplex.iterations"] += sol.iterations
    counts["simplex.hinted"] += kwargs.get("basis_hint") is not None
    counts["simplex.infeasible"] += sol.status == "infeasible"


def _on_plan(counts, args, kwargs, plan):
    counts["planner.feasible"] += plan.feasible


def _on_playback(counts, args, kwargs, timeline):
    counts["playout.outages"] += timeline.num_outages


def _on_admission(counts, args, kwargs, log):
    counts["admission.requests"] += len(log.records)
    counts["admission.admitted"] += log.admitted_count


# span name -> (modules whose attributes are patched, attributes, on_result)
SPANS = {
    "simplex.solve": ((prebuf.simplex,), ("solve",), _on_solve),
    "planner.plan_anticipatory": (
        (prebuf.planner, prebuf.admission, prebuf.scenario),
        ("plan_anticipatory",), _on_plan),
    "planner.plan_baseline": (
        (prebuf.planner, prebuf.admission, prebuf.scenario),
        ("plan_baseline",), None),
    "link.build_trace": ((prebuf.link, prebuf.scenario), ("build_trace",),
                         None),
    "playout.simulate_playback": (
        (prebuf.playout, prebuf.admission, prebuf.scenario),
        ("simulate_playback",), _on_playback),
    "admission.run_admission": ((prebuf.admission,), ("run_admission",),
                                _on_admission),
    "admission.service_curve": ((prebuf.admission, prebuf.scenario),
                                ("service_curve",), None),
    "scenario.driver": ((prebuf.scenario,),
                        ("run_buffer_sweep", "run_multiuser"), None),
}


class Tracer:
    def __init__(self, keep: tuple, site_only: bool = False):
        self.keep = keep                # (module, attr) whose calls are kept
        self.site_only = site_only
        self.kept: list[tuple] = []     # (duration in ms, result) per call
        self.spans: list[list] = []     # [name, parent index, start, end]
        self.counts: Counter = Counter()
        self.scale = 1.0                # host-speed factor for durations
        self.written = 0                # bytes of output files
        self.probe = None               # run after each kept call
        self._stack: list[int] = []

    def _span(self, name, fn, *args, **kwargs):
        """(span, result) of one call to `fn` inside a span."""
        index = len(self.spans)
        span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(index)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        return span, result

    def _wrap(self, name, fn, on_result, keep: bool):
        def traced(*args, **kwargs):
            span, result = self._span(name, fn, *args, **kwargs)
            if keep:
                self.kept.append(((span[3] - span[2]) * 1e3, result))
                if self.probe is not None:
                    self._span("probe", self.probe)
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def install(self):
        site_module, site_attr = self.keep
        spans = ({"site": ((site_module,), (site_attr,), None)}
                 if self.site_only else SPANS)
        if not any(site_module in mods and site_attr in attrs
                   for mods, attrs, _ in spans.values()):
            raise ValueError(f"{site_module.__name__}.{site_attr} is not "
                             "traced")
        saved = []
        sample = prebuf.link.ShadowingField.sample
        try:
            for name, (modules, attrs, on_result) in spans.items():
                for module in modules:
                    for attr in attrs:
                        fn = getattr(module, attr)
                        saved.append((module, attr, fn))
                        setattr(module, attr, self._wrap(
                            name, fn, on_result, (module, attr) == self.keep))

            def counted_sample(field, position_m):
                self.counts["link.shadowing.samples"] += 1
                return sample(field, position_m)
            if not self.site_only:
                prebuf.link.ShadowingField.sample = counted_sample
            yield self
        finally:
            prebuf.link.ShadowingField.sample = sample
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_totals(tracers: list[Tracer]) -> dict:
    """Per span name: calls, busy seconds, self seconds, durations."""
    durations = defaultdict(list)
    self_s = defaultdict(float)
    for tracer in tracers:
        child_s = defaultdict(float)
        for name, parent, start, end in tracer.spans:
            durations[name].append((end - start) * tracer.scale)
            if parent is not None:
                child_s[parent] += (end - start) * tracer.scale
        for index, (name, _, start, end) in enumerate(tracer.spans):
            self_s[name] += (end - start) * tracer.scale - child_s[index]
    return {name: {"calls": len(d), "busy_s": float(np.sum(d)),
                   "self_s": self_s[name], "durations_s": d}
            for name, d in durations.items()}


def layer_metrics(tracers: list[Tracer], csv_bytes: int) -> dict:
    """The per-layer metrics over the spans and counts of `tracers`, with
    durations scaled by each tracer's host-speed factor."""
    spans = _layer_totals(tracers)
    counts = sum((t.counts for t in tracers), Counter())

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def p50_ms(name):
        d = spans.get(name, {}).get("durations_s")
        return float(np.median(d)) * 1e3 if d else 0.0

    solves = get("simplex.solve", "calls")
    plans = get("planner.plan_anticipatory", "calls")
    builds = get("link.build_trace", "calls")
    requests = counts["admission.requests"]
    return {
        "simplex.solve.calls": solves,
        "simplex.solve.busy_s": get("simplex.solve", "busy_s"),
        "simplex.iterations": counts["simplex.iterations"],
        "simplex.hint_ratio": _ratio(counts["simplex.hinted"], solves),
        "simplex.infeasible_ratio": _ratio(counts["simplex.infeasible"],
                                           solves),
        "planner.plan_anticipatory.calls": plans,
        "planner.plan_anticipatory.busy_s":
            get("planner.plan_anticipatory", "busy_s"),
        "planner.plan_anticipatory.self_s":
            get("planner.plan_anticipatory", "self_s"),
        "planner.plan_anticipatory.p50_ms":
            p50_ms("planner.plan_anticipatory"),
        "planner.feasible_ratio": _ratio(counts["planner.feasible"], plans),
        "planner.plan_baseline.busy_s":
            get("planner.plan_baseline", "busy_s"),
        "link.build_trace.calls": builds,
        "link.build_trace.busy_s": get("link.build_trace", "busy_s"),
        "link.build_trace.p50_ms": p50_ms("link.build_trace"),
        "link.shadowing.samples": counts["link.shadowing.samples"],
        "link.builds_per_request": _ratio(builds, requests),
        "admission.run_admission.calls":
            get("admission.run_admission", "calls"),
        "admission.requests": requests,
        "admission.self_s": get("admission.run_admission", "self_s")
            + get("admission.service_curve", "self_s"),
        "admission.admit_ratio": _ratio(counts["admission.admitted"],
                                        requests),
        "playout.simulate_playback.calls":
            get("playout.simulate_playback", "calls"),
        "playout.simulate_playback.busy_s":
            get("playout.simulate_playback", "busy_s"),
        "playout.outages": counts["playout.outages"],
        "scenario.driver.self_s": get("scenario.driver", "self_s"),
        "scenario.csv_bytes": csv_bytes,
    }
