"""The benchmark tracer's targets exist in the package, and its counters
read them.

`bench/tracing.py` wraps package functions by name; a renamed or deleted
target would break `bench/run.py --trace 1` only when it runs, and a
renamed argument would silently zero a per-layer counter.  The module is
loaded from its path, as the benchmark loads it, and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from stabletori import cli, geometry, stability, systole
from stabletori.lattice import CoverSpec
from stabletori.scenarios import EllipticScenario, LensScenario

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name, mod_name, attr, count", tracing.TRACED,
                         ids=[f"{t[1]}.{t[2]}" for t in tracing.TRACED])
def test_traced_target_resolves(name, mod_name, attr, count):
    mod = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
    if "." in attr:
        # methods are wrapped in their class's own namespace, not inherited
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth))
    else:
        assert callable(getattr(mod, attr, None))


def test_kappa_counter_reads_the_samples():
    tracer = tracing.Tracer()
    tracer.begin_pass(0)
    amb = geometry.AmbientSpace(kind="product_circle_sphere", n_sphere=4)
    with tracer.installed():
        geometry.kappa_pic_estimate(amb, samples=3000)
    out = tracer.pass_summary(0, wall=1.0)
    assert out["geometry.kappa_pic_estimate.samples"] == 3000
    assert out["geometry.kappa_pic_estimate.samples_per_s"] > 0
    # the wrapper is gone once the block exits
    assert "__wrapped__" not in vars(geometry.kappa_pic_estimate)


def test_form_counters_read_a_stencil_form():
    # the counters read Q and M, which a stencil form assembles on request
    tracer = tracing.Tracer()
    tracer.begin_pass(0)
    with tracer.installed():
        form = stability.flat_twisted_form((1.0, 1.3), (0.7, -1.9), 12)
        stability.min_eigenvalue(form)
    out = tracer.pass_summary(0, wall=1.0)
    assert out["stability.flat_twisted_form.calls"] == 1
    assert out["stability.flat_twisted_form.nnz"] == 5 * 12 ** 2
    assert out["stability.min_eigenvalue.calls"] == 1
    assert out["stability.min_eigenvalue.dof"] == 12 ** 2
    assert out["stability.min_eigenvalue.unique_ratio"] == 1.0


def test_graph_systole_counter_reads_the_sources():
    # the counter reads the torus's n and the stride: a 32 x 32 grid sampled
    # every 16 nodes has 2 x 2 sources
    tracer = tracing.Tracer()
    tracer.begin_pass(0)
    torus = LensScenario(n=32).torus
    with tracer.installed():
        systole.induced_systole(torus, window=1, stride=16)
    out = tracer.pass_summary(0, wall=1.0)
    assert out["systole.induced_systole.calls"] == 1
    assert out["systole.induced_systole.sources"] == 4


def test_level_spans_see_the_cover_form():
    # a level builds its cover's form through `cover_form`, once
    tracer = tracing.Tracer()
    tracer.begin_pass(0)
    scenario = LensScenario(n=16)
    with tracer.installed():
        scenario.level(CoverSpec.scaling(2))
    names = [span[0] for span in tracer.spans]
    assert names.count("scenarios.cover_form") == 1
    out = tracer.pass_summary(0, wall=1.0)
    assert out["stability.flat_twisted_form.calls"] == 1


def test_elliptic_audit_evaluates_the_curve_once_on_a_cover():
    # the extent-2 audit builds its cover from one immersion: wp runs on
    # the 16 x 16 base grid only, and the immersion is built once, inside
    # the audit; its frames once, inside the audit's one index form
    tracer = tracing.Tracer()
    tracer.begin_pass(0)
    with tracer.installed():
        EllipticScenario(n=16).stability_audit(count=10, extent=2)
    spans = tracer.spans

    def parents(name):
        return [s[3] for s in spans if s[0] == name]

    audit, = (i for i, s in enumerate(spans)
              if s[0] == "scenarios.stability_audit")
    form, = (i for i, s in enumerate(spans)
             if s[0] == "stability.euclidean_index_form")
    assert parents("scenarios.stability_audit") == [-1]
    assert parents("geometry.elliptic_curve_immersion") == [audit]
    assert parents("stability.euclidean_index_form") == [audit]
    assert parents("geometry.surface_quantities") == [form]
    out = tracer.pass_summary(0, wall=1.0)
    assert out["weierstrass.wp.points"] == 16 * 16


def test_traced_subcommands_run_and_count(tmp_path):
    # `systole` and `cutoff` at their defaults, through the wrappers: the
    # traced functions still take the arguments the subcommands pass, the
    # trial span sees the Rayleigh check, and the five epsilons each call
    # the cutoff once
    tracer = tracing.Tracer()
    tracer.begin_pass(0)
    with tracer.installed():
        codes = [cli.main([sub, "--out", str(tmp_path / sub)])
                 for sub in ("systole", "cutoff")]
    assert codes == [cli.EXIT_PASS] * 2
    out = tracer.pass_summary(0, wall=1.0)
    assert out["systole.trial.self_s"] > 0
    assert out["stability.log_cutoff.calls"] == 5
