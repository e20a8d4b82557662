"""The four benchmark workloads: generated inputs, in-process passes and
output checks against references computed here, independently of the
package.

A pass runs the CLI subcommands of one workload through
``stabletori.cli.main`` with a JSON config and a temporary ``--out``
directory, then checks what they wrote. Each subcommand call, and the
elliptic audit API call, is one operation; it fails on a nonzero exit code,
an exception, or a miss against a check.

Pass 0 of every run uses the shipped defaults, with the benchmark seed
where a subcommand takes one. Later passes draw their inputs from
``(seed, pass)``, so that a cache kept across passes cannot stand in for
work a CLI user pays on every invocation. One operation is the exception:
``decompose`` runs the same input on every pass (see ``DECOMPOSE``), so a
cache of ``decompose_commuting_pair`` results kept across calls would hit
on every pass after the first.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Worst-direction overestimate of the 8-neighbor grid metric.
GRID_METRIC_MARGIN = 0.0824

LENS = {"L": 2.0, "rho": 1.0, "p": 3, "q": 1, "k_max": 3, "grid": 96}
CUTOFF_EPSILONS = [0.05, 0.06, 0.07, 0.085, 0.1]
SECTIONS_K_MAX = 16
ABELIAN_K_MAX = 40
# decompose keeps the CLI's default seed on every pass instead of a seed
# drawn from the benchmark seed: with rank 6 and 40 trials, 8 of the seeds
# 0..299 meet the defect that `probes` reports for seeds 69 and 254.
DECOMPOSE = {"rank": 6, "count": 40, "seed": 0}
AUDIT_COUNT = 100


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""


class Cli:
    """Runs one subcommand in-process and returns its exit code and outputs."""

    def __init__(self, main, workdir: Path):
        self.main = main
        self.workdir = workdir

    def __call__(self, sub: str, config: dict | None = None,
                 flags: tuple = ()) -> tuple[int, dict[str, str]]:
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            out = os.path.join(tmp, "out")
            argv = [sub, "--out", out, *flags]
            if config:
                path = os.path.join(tmp, "config.json")
                Path(path).write_text(json.dumps(config))
                argv += ["--config", path]
            code = self.main(argv)
            # A config error exits before the output directory is made.
            outputs = {p.name: p.read_text() for p in Path(out).glob("*")}
        return code, outputs


def run_op(name: str, fn) -> Op:
    """Run one operation; `fn` returns the list of problems it found."""
    try:
        problems = fn()
    except Exception as exc:  # a raw exception is a failed operation
        problems = [f"{type(exc).__name__}: {exc}"]
    return Op(name, not problems, "; ".join(problems))


def exit_problems(sub: str, code: int) -> list[str]:
    return [] if code == 0 else [f"{sub} exited {code}"]


# ---------------------------------------------------------------------------
# references


def lens_lambda_min(L: float, rho: float, p: int, q: int, k: int,
                    n: int) -> float:
    """Bottom eigenvalue of the discrete lens form on the cover kΛ.

    The form is the forward-difference covariant Laplacian on an n x n grid
    of the (k·2πL, k·2πρ/p) chart, twisted by (0, k·2πq/p), plus the
    constant potential -1/ρ². Grid plane waves diagonalize it; the symbol
    of one axis is 4 sin²((2πm - twist) h / 2) / h² over period², and the
    two axes separate, so the minimum is the sum of the two axis minima.
    """
    h = 1.0 / n
    m = np.arange(n)

    def axis_min(period: float, twist: float) -> float:
        s = np.sin((2 * np.pi * m - twist) * h / 2)
        return float(np.min(4 * s * s / h ** 2)) / period ** 2

    alpha = 2 * np.pi * q / p if p > 1 else 0.0
    return (axis_min(k * 2 * np.pi * L, 0.0)
            + axis_min(k * 2 * np.pi * rho / p, k * alpha) - 1.0 / rho ** 2)


def systole_bracket(rho: float, p: int, k: int) -> tuple[float, float]:
    """The grid systole of the cover kΛ lies between the exact short period
    and the short period widened by the grid metric's margin."""
    short = k * 2 * np.pi * rho / p
    return short * (1 - 1e-12), short * (1 + GRID_METRIC_MARGIN)


def check_lens(got_lambda: float, got_R: float, cfg: dict, k: int,
               grid: int) -> list[str]:
    problems = []
    want = lens_lambda_min(cfg["L"], cfg["rho"], cfg["p"], cfg["q"], k, grid)
    if not abs(got_lambda - want) <= 1e-8:
        problems.append(f"k={k}: lambda_min {got_lambda!r} != {want!r}")
    lo, hi = systole_bracket(cfg["rho"], cfg["p"], k)
    if not lo <= got_R <= hi:
        problems.append(f"k={k}: R {got_R!r} outside [{lo!r}, {hi!r}]")
    return problems


def csv_rows(text: str) -> list[list[float]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [[float(x) for x in ln.split(",")] for ln in lines[1:]]


# ---------------------------------------------------------------------------
# workloads


def jitter(rng) -> float:
    return 1.0 + rng.uniform(-0.02, 0.02)


class LensTower:
    """`stabletori stability`: the lens covering sweep over k = 1..3."""

    def __init__(self, grid: int | None):
        self.grid = grid

    def inputs(self, seed: int, index: int) -> dict:
        if index == 0:
            return {}
        rng = np.random.default_rng([seed, index])
        return {"L": LENS["L"] * jitter(rng), "rho": LENS["rho"] * jitter(rng)}

    def run(self, cli: Cli, inputs: dict) -> list[Op]:
        cfg = {**LENS, **inputs}
        grid = self.grid or cfg["grid"]
        flags = ("--grid", str(self.grid)) if self.grid else ()

        def stability():
            code, out = cli("stability", inputs, flags)
            if code != 0:
                return exit_problems("stability", code)
            rows = json.loads(out["stability.json"])["rows"]
            if len(rows) != cfg["k_max"]:
                return [f"{len(rows)} rows for k_max {cfg['k_max']}"]
            problems = []
            for k, row in enumerate(rows, 1):
                if row["degree"] != k * k:
                    problems.append(f"k={k}: degree {row['degree']}")
                problems += check_lens(row["lambda_min"], row["R"], cfg, k,
                                       grid)
            return problems

        return [run_op("stability", stability)]


class SystoleVerdict:
    """`stabletori systole`: eigensolve, systole, kappa sampling, trial
    section and verdict on the lens scenario."""

    def inputs(self, seed: int, index: int) -> dict:
        if index == 0:
            return {"seed": seed}
        rng = np.random.default_rng([seed, index])
        return {"L": LENS["L"] * jitter(rng), "rho": LENS["rho"] * jitter(rng),
                "seed": int(rng.integers(2 ** 31))}

    def run(self, cli: Cli, inputs: dict) -> list[Op]:
        cfg = {**LENS, **inputs}

        def systole():
            code, out = cli("systole", {k: v for k, v in inputs.items()
                                        if k != "seed"},
                            ("--seed", str(inputs["seed"])))
            if code != 0:
                return exit_problems("systole", code)
            s = json.loads(out["systole.json"])
            problems = check_lens(s["lambda_min"], s["R"], cfg, 1,
                                  cfg["grid"])
            want = 1.0 / (2 * cfg["rho"] ** 2)
            if not abs(s["kappa_hat"] - want) <= 1e-6:
                problems.append(f"kappa_hat {s['kappa_hat']!r} != {want!r}")
            if not s["seam_residual"] <= 1e-9:
                problems.append(f"seam residual {s['seam_residual']!r}")
            return problems

        return [run_op("systole", systole)]


class SectionsElliptic:
    """`sections`, `cutoff`, `abelian` and `decompose`, and the elliptic
    stability audit through the public scenarios API."""

    def __init__(self, scenarios):
        self.scenarios = scenarios

    def inputs(self, seed: int, index: int) -> dict:
        if index == 0:
            return {"sections": {}, "cutoff": {},
                    "abelian": {"k_max": ABELIAN_K_MAX}, "audit_seed": seed}
        rng = np.random.default_rng([seed, index])
        return {
            "sections": {"phi": math.pi * jitter(rng),
                         "theta": math.pi * jitter(rng)},
            "cutoff": {"epsilons": [e * jitter(rng) for e in CUTOFF_EPSILONS]},
            # Any real part in [-1/2, 1/2] keeps the base systole at 1.
            "abelian": {"k_max": ABELIAN_K_MAX,
                        "tau": [rng.uniform(-0.1, 0.1), 1.0]},
            "audit_seed": int(rng.integers(2 ** 31)),
        }

    def run(self, cli: Cli, inputs: dict) -> list[Op]:
        def sections():
            code, out = cli("sections", inputs["sections"])
            if code != 0:
                return exit_problems("sections", code)
            rows = csv_rows(out["sections.csv"])
            if len(rows) != SECTIONS_K_MAX:
                return [f"{len(rows)} section rows"]
            return [f"k={int(r[0])}: ratio {r[3]!r}" for r in rows
                    if r[2] > 0 and not 0.99 <= r[3] <= 1.01]

        def cutoff():
            code, out = cli("cutoff", inputs["cutoff"])
            if code != 0:
                return exit_problems("cutoff", code)
            rows = csv_rows(out["cutoff.csv"])
            epsilons = inputs["cutoff"].get("epsilons", CUTOFF_EPSILONS)
            if len(rows) != len(epsilons) or not all(
                    math.isclose(r[0], e, rel_tol=1e-11)
                    for r, e in zip(rows, epsilons)):
                return ["cutoff rows do not match the epsilons"]
            return [f"eps={eps}: energy {energy!r}" for eps, energy, *_ in rows
                    if not abs(energy * abs(math.log(eps)) / (2 * math.pi) - 1)
                    <= 0.03]

        def abelian():
            code, out = cli("abelian", inputs["abelian"])
            if code != 0:
                return exit_problems("abelian", code)
            rows = csv_rows(out["abelian.csv"])
            if len(rows) != ABELIAN_K_MAX:
                return [f"{len(rows)} abelian rows"]
            # The square lattice has systole 1, so kΛ has systole k.
            return [f"k={k}: row {r}" for k, r in enumerate(rows, 1)
                    if r[1] != k * k or not abs(r[2] - k) <= 1e-10 * k]

        def decompose():
            code, out = cli("decompose", DECOMPOSE)
            if code != 0:
                return exit_problems("decompose", code)
            reports = json.loads(out["decompose.json"])["reports"]
            if len(reports) != DECOMPOSE["count"]:
                return [f"{len(reports)} decomposition reports"]
            return [f"trial {r['trial']}: residual {r['residual']!r}"
                    for r in reports if not r["residual"] <= 1e-8
                    or sum(r["ranks"]) != DECOMPOSE["rank"]]

        def audit():
            worst, _ = self.scenarios.EllipticScenario().stability_audit(
                count=AUDIT_COUNT, seed=inputs["audit_seed"])
            return [] if math.isfinite(worst) else [f"worst quotient {worst}"]

        return [run_op("sections", sections), run_op("cutoff", cutoff),
                run_op("abelian", abelian), run_op("decompose", decompose),
                run_op("elliptic_audit", audit)]


def make(name: str, scenarios):
    if name == "lens_tower":
        return LensTower(None)
    if name == "lens_tower_coarse":
        return LensTower(64)
    if name == "systole_verdict":
        return SystoleVerdict()
    if name == "sections_elliptic":
        return SectionsElliptic(scenarios)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# known-defect probes: reported by name, untimed, outside the failure count


def probes(cli: Cli) -> dict[str, float]:
    """Outcomes of inputs on which the program is known to go wrong.

    stability_kmax4_exit: the default sweep with k_max 4 compares the covers
    3Λ and 4Λ, which are not nested, and exits 2.
    systole_default_applicable: 1 when the default systole verdict applies,
    i.e. lambda_min >= -1e-6; the discrete lens zero mode sits below that,
    so the verdict passes vacuously.
    decompose_seed69_exit: decompose with rank 6, 40 trials and seed 69
    meets a [5, 1] pair whose rho1 phases lie 0.013 apart and splits it into
    six lines, so it exits 2.
    decompose_seed254_exit: the same with seed 254 gets the ranks right but
    leaves a residual of 6.2e-8 above the 1e-8 tolerance, so it exits 2.
    """
    code_a, _ = cli("stability", {"k_max": 4})
    code_b, out = cli("systole")
    applicable = (code_b == 0
                  and json.loads(out["systole.json"])["lambda_min"] >= -1e-6)
    return {"probe.stability_kmax4_exit": code_a,
            "probe.systole_default_applicable": int(applicable),
            **{f"probe.decompose_seed{seed}_exit":
               cli("decompose", {**DECOMPOSE, "seed": seed})[0]
               for seed in (69, 254)}}
