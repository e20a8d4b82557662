"""Command line driver: exit codes, outputs, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stabletori.cli
from stabletori.bundles import DecompositionReport, LineHolonomy, Summand
from stabletori.cli import main
from stabletori.errors import ConvergenceError
from stabletori.geometry import AmbientSpace
from stabletori.lattice import Lattice
from stabletori.stability import StencilForm, log_cutoff

from conftest import cutoff_phi

SRC = Path(__file__).resolve().parents[1] / "src"


def _cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_sections_pass_and_outputs(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {"k_max": 4, "grid": 64})
    out = tmp_path / "out"
    rc = main(["sections", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert (out / "sections.csv").exists()
    data = json.loads((out / "sections.json").read_text())
    assert data["rows"] == 4 and data["failures"] == []


def test_sections_prints_trivial_lifts_as_the_bound(tmp_path):
    # (pi, pi) lifts to the trivial class on even k: those rows print the
    # bound the rounding noise meets, and every field still parses as a float
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, "c.json", {"k_max": 4, "grid": 64})
    assert main(["sections", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sections.csv").read_text().splitlines()
    assert lines[0].startswith("# verifies:") and "1e-10" in lines[0]
    rows = [[float(x) for x in ln.split(",")] for ln in lines[2:]]
    for k, sup, exact, ratio in rows:
        if k % 2:
            assert exact > 0 and 0.99 <= ratio <= 1.01
        else:
            assert (sup, exact) == (stabletori.cli.FLAT_SUP_TOL, 0.0)
            assert np.isnan(ratio)


def test_sections_fails_a_trivial_lift_above_the_bound(tmp_path, monkeypatch,
                                                       capsys):
    # a zero closed form no longer passes whatever sup|dbar s| reads
    from stabletori.sections import ProductSection
    monkeypatch.setattr(ProductSection, "sup_dbar", lambda self: 1e-9)
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, "c.json", {"k_max": 2, "grid": 64})
    assert main(["sections", "--config", cfg, "--out", str(out)]) == 2
    assert "k=2: sup dbar 1.00e-09 > 1e-10" in capsys.readouterr().err
    assert (out / "sections.csv").read_text().splitlines()[3] == "2,1e-09,0,nan"


def test_decompose_pass(tmp_path):
    out = tmp_path / "out"
    rc = main(["decompose", "--out", str(out), "--seed", "0"])
    assert rc == 0
    data = json.loads((out / "decompose.json").read_text())
    assert data["failures"] == []
    assert all(r["residual"] <= 1e-8 for r in data["reports"])


def _decompose_passes(tmp_path, rank, seed):
    cfg = _cfg(tmp_path, "c.json", {"rank": rank, "count": 40, "seed": seed})
    out = tmp_path / "out"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "decompose.json").read_text())
    assert data["failures"] == []
    assert len(data["reports"]) == 40


@pytest.mark.parametrize("seed", [0, 69, 84, 106, 147, 209, 254, 257, 268, 273])
def test_decompose_rank_6_passes_on_seeds_that_used_to_fail(tmp_path, seed):
    _decompose_passes(tmp_path, 6, seed)


def test_decompose_rank_10_passes_on_a_seed_that_used_to_fail(tmp_path):
    # trial 20 is one 10-block under a similarity of condition about 3e12
    _decompose_passes(tmp_path, 10, 0)


def test_decompose_keeps_a_jordan_block_whole_without_a_warning(tmp_path):
    # Trial 0 of this seed is one 3-block: its eigenvalues split by about
    # eps**(1/3), and the Schur form's split keeps them in one block.
    cfg = _cfg(tmp_path, "c.json", {"rank": 3, "count": 1, "seed": 0})
    out = tmp_path / "out"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    report, = json.loads((out / "decompose.json").read_text())["reports"]
    assert report["ranks"] == [3]
    assert report["warnings"] == []


def test_decompose_records_a_trial_that_raises(tmp_path, monkeypatch):
    def failing(bundle):
        r = bundle.rank
        best = DecompositionReport(
            summands=[Summand(rank=1, line_class=LineHolonomy(0.0, 0.0))] * r,
            residual=1.5e-3, warnings=["block residual above tolerance"])
        raise ConvergenceError("no block decomposition", best=best)

    monkeypatch.setattr(stabletori.cli, "decompose_commuting_pair", failing)
    cfg = _cfg(tmp_path, "c.json", {"rank": 2, "count": 1, "seed": 0})
    out = tmp_path / "out"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 2
    data = json.loads((out / "decompose.json").read_text())
    report, = data["reports"]
    assert report["residual"] == 1.5e-3
    assert report["warnings"] == ["block residual above tolerance"]
    assert "trial 0: residual 1.50e-03" in data["failures"]


def test_decompose_records_a_refused_trial_and_goes_on(tmp_path, monkeypatch):
    # a refusal carries no report (best is None); its trial is recorded and
    # the other trials still run and write theirs
    real = stabletori.cli.decompose_commuting_pair
    calls = []

    def refusing(bundle):
        calls.append(bundle)
        if len(calls) == 2:
            raise ConvergenceError("Jordan chains do not span a joint block")
        return real(bundle)

    monkeypatch.setattr(stabletori.cli, "decompose_commuting_pair", refusing)
    cfg = _cfg(tmp_path, "c.json", {"rank": 3, "count": 3, "seed": 0})
    out = tmp_path / "out"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 2
    data = json.loads((out / "decompose.json").read_text())
    assert [r["trial"] for r in data["reports"]] == [0, 1, 2]
    refused = data["reports"][1]
    assert refused["ranks"] == [] and refused["residual"] is None
    assert refused["warnings"] == ["Jordan chains do not span a joint block"]
    assert data["failures"] == [
        "trial 1: refused: Jordan chains do not span a joint block"]
    assert all(r["residual"] <= 1e-8 for i, r in enumerate(data["reports"])
               if i != 1)


def test_cutoff_pass(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {"epsilons": [0.1], "grid": 512})
    out = tmp_path / "out"
    assert main(["cutoff", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "cutoff.csv").exists()


def test_cutoff_svg_renders_log_cutoff_per_epsilon(tmp_path, monkeypatch):
    # --svg is the only branch that builds the full n x n cutoff: it writes
    # one heatmap per epsilon, of log_cutoff's phi bit for bit
    rendered = []
    svg_heatmap = stabletori.cli.serialize.svg_heatmap

    def recording(path, field, **kwargs):
        rendered.append((path.name, field.copy()))
        svg_heatmap(path, field, **kwargs)

    monkeypatch.setattr(stabletori.cli.serialize, "svg_heatmap", recording)
    n, epsilons = 512, [0.085, 0.1]
    cfg = _cfg(tmp_path, "c.json", {"epsilons": epsilons, "grid": n})
    out = tmp_path / "out"
    assert main(["cutoff", "--config", cfg, "--out", str(out), "--svg"]) == 0
    names = [f"cutoff_{eps}.svg" for eps in epsilons]
    assert sorted(p.name for p in out.glob("*.svg")) == names
    assert [name for name, _ in rendered] == names
    center = (0.5 + 0.5 / n, 0.5 + 0.5 / n)
    for (_, field), eps in zip(rendered, epsilons):
        *window, _ = log_cutoff(eps, center, Lattice(0.0, 1.0), n)
        assert np.array_equal(field, cutoff_phi(n, *window)[::8, ::8])


def test_cutoff_unresolved_grid_fails(tmp_path):
    out = tmp_path / "out"
    rc = main(["cutoff", "--grid", "64", "--out", str(out)])
    assert rc == 2


@pytest.mark.parametrize("sub, payload, args", [
    ("cutoff", {"epsilons": "abc"}, []),
    ("cutoff", {"epsilons": 0.05}, []),
    ("cutoff", {"epsilons": []}, []),
    ("cutoff", {"epsilons": [True]}, []),
    ("cutoff", {"grid": 0}, []),
    ("cutoff", {}, ["--grid", "0"]),
    ("cutoff", {"grid": -8}, []),
    ("cutoff", {"grid": 2.5}, []),
    ("sections", {"k_max": 0}, []),
    ("abelian", {"k_max": 0}, []),
    ("abelian", {"k_max": "x"}, []),
    ("decompose", {"grid": 0}, []),
])
def test_bad_grid_epsilons_or_k_max_is_a_config_error(tmp_path, capsys, sub,
                                                      payload, args):
    cfg = _cfg(tmp_path, "c.json", payload)
    rc = main([sub, "--config", cfg, "--out", str(tmp_path), *args])
    assert rc == 3
    assert "config error" in capsys.readouterr().err


def test_cutoff_epsilon_outside_unit_interval_is_a_domain_error(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {"epsilons": [1.5]})
    assert main(["cutoff", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_stability_pass(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {"k_max": 2, "grid": 48})
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "stability.json").read_text())
    assert data["rows"][0]["stable"]
    assert not data["rows"][1]["stable"]


def test_stability_tower_with_unnested_covers_passes(tmp_path):
    # the covers 3*Lambda and 4*Lambda are not nested, so lambda_min may
    # rise from k=3 to k=4
    cfg = _cfg(tmp_path, "c.json", {"k_max": 4})
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "stability.json").read_text())
    lams = [r["lambda_min"] for r in data["rows"]]
    assert lams[3] > lams[2]
    assert lams[3] <= lams[1] <= lams[0]


@pytest.mark.parametrize("grid", ["0", "1"])
def test_stability_tiny_grid_trips_resource_guard(tmp_path, grid):
    # the lens torus, the flat torus and the systole run each refuse a grid
    # below 2 x 2 as a resolution guard, not with a raw exception
    flat = _cfg(tmp_path, "flat.json", {"scenario": "flat"})
    for argv in (["stability"], ["stability", "--config", flat], ["systole"]):
        rc = main([*argv, "--grid", grid, "--out", str(tmp_path / "out")])
        assert rc == 4


@pytest.mark.parametrize("grid", ["2", "3"])
def test_stability_tiny_grid_decides_from_the_continuum(tmp_path, grid):
    # the discrete zero mode at k = 1 lies 0.04-0.09 below zero here; the
    # stable flags come from the exact continuum bottoms 0, -0.75 and -1
    assert main(["stability", "--grid", grid, "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "stability.json").read_text())["rows"]
    assert [r["stable"] for r in rows] == [True, False, False]


def test_systole_pass(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {"grid": 64})
    out = tmp_path / "out"
    assert main(["systole", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "systole.json").read_text())
    assert data["verdict"]
    assert data["R"] <= data["bound"]
    assert data["seam_residual"] <= 1e-9


def test_systole_default_reports_rayleigh_chain(tmp_path):
    # the default lens zero mode discretizes below -1e-6, so the chain
    # kappa Mass <= energy, which needs stability, is reported, not judged
    assert main(["systole", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "systole.json").read_text())
    assert data["rayleigh_chain_holds"] is False
    assert data["rayleigh_lhs"] > data["rayleigh_energy"]
    assert data["lambda_min"] < -1e-6
    # the bound uses the closed-form kappa; the certificate matches it
    assert data["kappa"] == 0.5
    assert data["kappa_hat"] == pytest.approx(0.5, rel=1e-12)
    assert data["bound"] == data["C"] / np.sqrt(0.5)
    assert data["verdict"] is True
    # the continuum bottom is 0, so the bound applies
    assert data["applicable"] is True


def test_systole_svg_draws_the_flat_default_phase_in_one_colour(tmp_path):
    # the default trial phase is zero up to rounding; on the fixed (-pi, pi]
    # scale that noise must not show as a colour ramp
    assert main(["systole", "--out", str(tmp_path), "--svg"]) == 0
    svg = (tmp_path / "trial_phase.svg").read_text()
    fills = re.findall(r'fill="(rgb\([0-9,]+\))"', svg)
    assert len(fills) == 96 * 96
    assert set(fills) == {"rgb(127,0,128)"}


def test_systole_kappa_follows_the_sphere_radius(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {"rho": 1.02})
    out = tmp_path / "out"
    assert main(["systole", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "systole.json").read_text())
    assert data["kappa"] == 1 / (2 * 1.02 ** 2)
    assert data["kappa_hat"] == pytest.approx(data["kappa"], rel=1e-12)


@pytest.mark.parametrize("payload, args", [
    ({"samples": 20000}, []),
    ({"seed": 0}, []),
    ({"samples": 20000, "seed": 0}, []),
    ({"samples": "many"}, []),
    ({"seed": -1}, []),
    ({"seed": 0}, ["--seed", "7"]),
])
def test_systole_bad_samples_or_seed_is_a_config_error(tmp_path, capsys,
                                                       payload, args):
    # kappa is certified, not sampled: the sampler's keys are unknown,
    # whatever their values and whatever --seed says
    cfg = _cfg(tmp_path, "c.json", payload)
    rc = main(["systole", "--config", cfg, "--out", str(tmp_path), *args])
    assert rc == 3
    assert (f"unknown config keys: {sorted(payload)}"
            in capsys.readouterr().err)


def test_systole_ignores_the_seed_flag(tmp_path):
    outs = []
    for seed in ("0", "7"):
        out = tmp_path / seed
        assert main(["systole", "--seed", seed, "--out", str(out)]) == 0
        outs.append((out / "systole.json").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("closed_form", [0.6, 0.4])
def test_systole_rejects_a_closed_form_kappa_off_the_certificate(
        tmp_path, capsys, monkeypatch, closed_form):
    monkeypatch.setattr(AmbientSpace, "kappa_pic",
                        property(lambda self: closed_form))
    assert main(["systole", "--out", str(tmp_path)]) == 2
    assert "does not match the closed-form kappa" in capsys.readouterr().err


def test_abelian_pass(tmp_path):
    out = tmp_path / "out"
    assert main(["abelian", "--out", str(out)]) == 0
    assert (out / "abelian.csv").exists()


def test_abelian_reports_the_systole_of_an_unreduced_lattice(tmp_path):
    # Z + Z tau at tau = 2.5 + 0.05i has its shortest vector 2 tau - 5, of
    # length 0.1: the table reads the lattice as given, not rescaled
    cfg = _cfg(tmp_path, "c.json", {"tau": [2.5, 0.05], "k_max": 3})
    assert main(["abelian", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "abelian.csv").read_text().splitlines()[2:]
    assert [r.split(",")[2] for r in rows] == ["0.1", "0.2", "0.3"]


# a small config and the flags of one run of each subcommand; a subcommand
# missing here fails its case
DETERMINISM_RUNS = {
    "sections": ({"k_max": 3, "grid": 64}, []),
    "decompose": ({}, ["--seed", "5"]),
    "cutoff": ({}, []),
    "stability": ({"k_max": 1}, []),
    "systole": ({}, []),
    "abelian": ({}, []),
}


@pytest.mark.parametrize("sub", sorted(stabletori.cli.COMMANDS))
def test_output_is_deterministic(tmp_path, sub):
    # two runs in one process write the same files, byte for byte
    payload, args = DETERMINISM_RUNS[sub]
    cfg = _cfg(tmp_path, "c.json", payload)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main([sub, "--config", cfg, "--out", str(out), *args]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] and outs[0] == outs[1]


@pytest.mark.parametrize("grid", ["5000", "-3"])
@pytest.mark.parametrize("sub", ["abelian", "decompose"])
def test_grid_flag_is_ignored_without_a_grid_key(tmp_path, sub, grid):
    # abelian and decompose have no grid key, so --grid is ignored, as
    # --seed is where a subcommand has no seed key
    outs = []
    for argv in ([], ["--grid", grid]):
        out = tmp_path / str(len(argv))
        assert main([sub, *argv, "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] and outs[0] == outs[1]


def test_missing_config_is_a_config_error(tmp_path):
    rc = main(["abelian", "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path)])
    assert rc == 3


@pytest.mark.parametrize("payload", [5, [["grid", 5]], "grid"])
def test_config_that_is_not_an_object_is_a_config_error(tmp_path, capsys,
                                                        payload):
    cfg = _cfg(tmp_path, "c.json", payload)
    rc = main(["abelian", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "config error: config must be a JSON object" in (
        capsys.readouterr().err)


def test_sections_grid_below_eight_trips_resolution_guard(tmp_path, capsys):
    rc = main(["sections", "--grid", "4", "--out", str(tmp_path)])
    assert rc == 4
    assert "resolution guard" in capsys.readouterr().err


def test_unknown_config_key_is_a_config_error(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {"bogus_key": 1})
    rc = main(["sections", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3


def test_unknown_scenario_is_a_config_error(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {"scenario": "saddle", "k_max": 1,
                                    "grid": 32})
    rc = main(["stability", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3


def test_oversized_grid_trips_resource_guard(tmp_path):
    rc = main(["cutoff", "--grid", "9999", "--out", str(tmp_path)])
    assert rc == 4


def test_subprocess_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "stabletori.cli", "abelian",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("sub, payload", [
    ("stability", {"p": 0}),
    ("stability", {"k_max": 0}),
    ("decompose", {"rank": 0}),
    ("decompose", {"count": 0}),
    ("decompose", {"count": "x"}),
    ("abelian", {"tau": "x"}),
    ("sections", {"tau": [0, 1, 2]}),
    # non-finite entries: sections would check nothing, abelian would crash
    ("sections", {"tau": [np.nan, 1.0]}),
    ("sections", {"tau": [0.0, np.inf]}),
    ("abelian", {"tau": [np.nan, 1.0]}),
    ("abelian", {"tau": [np.inf, 1.0]}),
    ("abelian", {"tau": [10 ** 400, 1.0]}),     # no float holds it
    ("cutoff", {"epsilons": [0.05, np.nan]}),
])
def test_bad_lens_decompose_or_tau_config_is_a_config_error(tmp_path, capsys,
                                                            sub, payload):
    cfg = _cfg(tmp_path, "c.json", payload)
    rc = main([sub, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("sub, payload, key", [
    ("stability", {"q": "x"}, "q"),
    ("systole", {"q": "x"}, "q"),
    ("sections", {"phi": "x"}, "phi"),
    ("sections", {"theta": "x"}, "theta"),
    ("stability", {"rho": 0}, "rho"),
    ("stability", {"L": -1}, "L"),
    ("sections", {"phi": 10 ** 400}, "phi"),
    # a tau off the upper half-plane names no lattice
    ("sections", {"tau": [0, 0]}, "tau"),
    ("sections", {"tau": [0, -1]}, "tau"),
    ("abelian", {"tau": [0, 0]}, "tau"),
    ("abelian", {"tau": [0, -1]}, "tau"),
])
def test_bad_lens_or_line_value_is_a_config_error_naming_its_key(
        tmp_path, capsys, sub, payload, key):
    cfg = _cfg(tmp_path, "c.json", payload)
    rc = main([sub, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert f"config error: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["stability", "systole"])
def test_non_coprime_lens_is_a_config_error_naming_p_and_q(tmp_path, capsys,
                                                           sub):
    cfg = _cfg(tmp_path, "c.json", {"p": 2, "q": 2})
    rc = main([sub, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert ("config error: p=2 and q=2 must be coprime when p > 1"
            in capsys.readouterr().err)


_SCIPY_GUARD = """
import json, sys
from stabletori.cli import main

tmp = sys.argv[1]

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(sub, cfg):
    path = f"{tmp}/{sub}.json"
    with open(path, "w") as f:
        json.dump(cfg, f)
    return main([sub, "--config", path, "--out", f"{tmp}/out", "--svg"])

print(json.dumps(scipy_modules()))
for sub, cfg in [("stability", {"grid": 32}), ("systole", {}),
                 ("sections", {"k_max": 4, "grid": 32}),
                 ("cutoff", {"epsilons": [0.3], "grid": 128}),
                 ("abelian", {})]:
    print(json.dumps([sub, run(sub, cfg), scipy_modules()]))
from stabletori.scenarios import EllipticScenario
EllipticScenario().stability_audit(count=10)
print(json.dumps(["audit", scipy_modules()]))
print(json.dumps(["decompose", run("decompose", {"rank": 2, "count": 2}),
                  "scipy.linalg" in sys.modules]))
"""


def test_only_decompose_loads_scipy(tmp_path):
    """Importing the CLI, running the five other subcommands (`systole`
    at its default) and the elliptic stability audit loads no scipy
    module; `decompose` then loads scipy.linalg.

    A fresh interpreter is needed: this one already holds scipy.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_GUARD, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(x) for x in proc.stdout.splitlines()]
    assert lines == [[]] + [[sub, 0, []] for sub in (
        "stability", "systole", "sections", "cutoff", "abelian")] + [
        ["audit", []], ["decompose", 0, True]]


def test_stability_and_systole_assemble_no_matrix(tmp_path, monkeypatch):
    # every level is solved on its stencil; Q and M are for oracles only
    def no_matrix(form):
        raise AssertionError("a stencil form assembled its matrix")

    monkeypatch.setattr(StencilForm, "Q", property(no_matrix))
    monkeypatch.setattr(StencilForm, "M", property(no_matrix))
    for i, argv in enumerate([["stability"], ["stability", "--grid", "64"],
                              ["systole"]]):
        assert main([*argv, "--out", str(tmp_path / str(i))]) == 0


_PEAK_RSS = """
import resource, sys
from stabletori.cli import main

code = main([sys.argv[1], "--grid", "2000", "--out", sys.argv[2]])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# Starts the script in argv[1] with the rest of argv as its arguments.
_LAUNCH = """
import subprocess, sys
sys.exit(subprocess.run([sys.executable, "-c", *sys.argv[1:]]).returncode)
"""


def test_lens_subcommands_at_grid_2000_stay_small(tmp_path):
    """`systole --grid 2000` and then `stability --grid 2000`, each in a
    fresh interpreter, peak below 60 MiB: one n x n complex array alone
    would be 61 MiB.  ru_maxrss is in KiB on Linux.

    Linux carries the peak of the address space a process was exec'd from
    into its ru_maxrss, so each child is started from a bare interpreter:
    started from this process, it would read the test run's own peak.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for sub in ("systole", "stability"):
        proc = subprocess.run(
            [sys.executable, "-c", _LAUNCH, _PEAK_RSS, sub,
             str(tmp_path / sub)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, kib = map(int, proc.stdout.split())
        assert code == 0
        assert kib < 60 * 1024, f"{sub} peaked at {kib / 1024:.1f} MiB"
