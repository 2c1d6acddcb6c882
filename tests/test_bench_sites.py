"""The benchmark patches program attributes by name; keep them resolvable.

`bench/tracing.py` wraps functions at every module attribute the program
looks them up through, and each workload times its planner at one such
site.  A simplification that deletes one of those names (an import kept
only for the tracer, say) would break the benchmark, not the program, so
these tests import the harness as it is and check every site.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import prebuf  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPAN_SITES = [(module, attr)
              for modules, attrs, _ in tracing.SPANS.values()
              for module in modules for attr in attrs]
PLAN_SITES = {name: w.plan_site for name, w in workloads.WORKLOADS.items()}


def _snapshot():
    return {(module.__name__, attr): getattr(module, attr)
            for module, attr in SPAN_SITES} | {
        ("ShadowingField", "sample"): prebuf.link.ShadowingField.sample}


@pytest.mark.parametrize("module, attr", SPAN_SITES,
                         ids=[f"{m.__name__}.{a}" for m, a in SPAN_SITES])
def test_span_site_resolves(module, attr):
    assert module.__name__.startswith("prebuf.")
    assert callable(getattr(module, attr))


@pytest.mark.parametrize("name", sorted(PLAN_SITES))
def test_plan_site_is_traced(name):
    module, attr = PLAN_SITES[name]
    assert (module, attr) in SPAN_SITES
    assert callable(getattr(module, attr))


@pytest.mark.parametrize("site_only", [False, True])
@pytest.mark.parametrize("name", sorted(PLAN_SITES))
def test_install_restores_every_attribute(name, site_only):
    before = _snapshot()
    tracer = tracing.Tracer(PLAN_SITES[name], site_only=site_only)
    with tracer.install():
        during = _snapshot()
    assert _snapshot() == before
    patched = {key for key in before if during[key] is not before[key]}
    module, attr = PLAN_SITES[name]
    assert (module.__name__, attr) in patched
    assert len(patched) == (1 if site_only else len(before))


@pytest.mark.parametrize("name", sorted(PLAN_SITES))
def test_tiny_unit_calls_its_plan_site(name, tmp_path):
    # A unit that no longer looks its planner up through the traced
    # attribute (a captured reference, say) keeps no calls, and
    # buffer_sweep's output check reads the kept plans.
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(0, workloads.SIZES[name]["tiny"])
    tracer = tracing.Tracer(workload.plan_site, site_only=True)
    with tracer.install():
        workload.run_unit(inputs, inputs["units"][0], tmp_path, tracer.kept)
    assert tracer.kept
