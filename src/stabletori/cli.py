"""Command line front end.

Subcommands
-----------
sections    line-section decay table over a covering tower
decompose   commuting-pair decomposition report
cutoff      logarithmic cutoff energies against the analytic value
stability   covering sweep: degree, systole, bottom eigenvalue, verdict
systole     the full systole-bound pipeline on the lens scenario
abelian     sublattice systole growth table

Exit codes: 0 pass, 2 assertion failure, 3 config error, 4 resource guard.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .bundles import (DECOMPOSE_TOL, AtiyahData, FlatBundle, LineHolonomy,
                      decompose_commuting_pair, line_section)
from .errors import (ConfigError, ConvergenceError, DomainError,
                     ResolutionError, ResourceGuard, StableToriError)
from .lattice import CoverSpec, Lattice
from .scenarios import FlatTorusScenario, LensScenario, sublattice_growth_table
from .stability import covering_sweep, log_cutoff
from .systole import (axis_truncated_distances, phase_trial_section,
                      rayleigh_bound_check, systole_bound_verdict)
from .geometry import pic_kappa

EXIT_PASS = 0
EXIT_ASSERT = 2
EXIT_CONFIG = 3
EXIT_RESOURCE = 4

MAX_GRID_DOF = 4_000_000
FLAT_SUP_TOL = 1e-10   # sup|dbar s| allowed where the closed form is 0

DEFAULTS = {
    "sections": {"tau": [0.0, 1.0], "phi": np.pi, "theta": np.pi,
                 "k_max": 16, "grid": 256},
    "decompose": {"rank": 4, "count": 5, "seed": 0},
    "cutoff": {"epsilons": [0.05, 0.06, 0.07, 0.085, 0.1], "grid": 1024},
    "stability": {"scenario": "lens", "L": 2.0, "rho": 1.0, "p": 3, "q": 1,
                  "k_max": 3, "grid": 96},
    "systole": {"L": 2.0, "rho": 1.0, "p": 3, "q": 1, "grid": 96},
    "abelian": {"tau": [0.0, 1.0], "k_max": 10},
}


def _config_int(cfg, key: str, low: int | None = None) -> int:
    value = cfg[key]
    if (isinstance(value, bool) or not isinstance(value, int)
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(f"{key} must be an integer{bound}, got {value!r}")
    return value


def _finite_number(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:       # an integer beyond the float range
        return False


def _config_number(cfg, key: str, positive: bool = False) -> float:
    value = cfg[key]
    if not _finite_number(value) or (positive and value <= 0):
        what = "a positive" if positive else "a finite"
        raise ConfigError(f"{key} must be {what} number, got {value!r}")
    return value


def _config_numbers(cfg, key: str, length: int = 0) -> list:
    value = cfg[key]
    if (not isinstance(value, list) or not value
            or (length and len(value) != length)
            or not all(map(_finite_number, value))):
        what = f"a list of {length}" if length else "a non-empty list of"
        raise ConfigError(f"{key} must be {what} finite numbers, "
                          f"got {value!r}")
    return value


def _config_lattice(cfg) -> Lattice:
    tau = _config_numbers(cfg, "tau", 2)
    if not tau[1] > 0:
        raise ConfigError(f"tau must be in the upper half-plane, got {tau!r}")
    return Lattice(*tau)


def _lens_scenario(cfg) -> LensScenario:
    p, q = _config_int(cfg, "p", 1), _config_int(cfg, "q")
    if p > 1 and math.gcd(p, q) != 1:
        raise ConfigError(f"p={p} and q={q} must be coprime when p > 1")
    return LensScenario(L=_config_number(cfg, "L", positive=True),
                        rho=_config_number(cfg, "rho", positive=True),
                        p=p, q=q, n=cfg["grid"])


def load_config(sub: str, args) -> dict:
    cfg = dict(DEFAULTS[sub])
    if args.config:
        try:
            user = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}")
        if not isinstance(user, dict):
            raise ConfigError(f"config must be a JSON object, got {user!r}")
        unknown = set(user) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(user)
    if args.grid is not None and "grid" in cfg:
        cfg["grid"] = args.grid
    if args.seed is not None and "seed" in cfg:
        cfg["seed"] = args.seed
    if "grid" in cfg and _config_int(cfg, "grid", 0) ** 2 > MAX_GRID_DOF:
        raise ResourceGuard(f"grid {cfg['grid']} exceeds the dof cap")
    return cfg


def cmd_sections(cfg, out: Path, svg: bool):
    k_max = _config_int(cfg, "k_max", 1)
    grid = _config_int(cfg, "grid", 1)
    lat = _config_lattice(cfg)
    L = LineHolonomy(_config_number(cfg, "phi"), _config_number(cfg, "theta"))
    rows = []
    failures = []
    for k in range(1, k_max + 1):
        sec = line_section(L, k, lat, grid)
        sup, exact = sec.sup_dbar(), sec.sup_dbar_exact
        ratio = sup / exact if exact > 0 else math.nan
        if exact > 0 and not 0.99 <= ratio <= 1.01:
            failures.append(f"k={k}: sup dbar off by {abs(ratio - 1):.2%}")
        elif exact == 0 and sup > FLAT_SUP_TOL:
            failures.append(f"k={k}: sup dbar {sup:.2e} > {FLAT_SUP_TOL:g}")
        elif exact == 0:    # rounding noise: print the bound it meets
            sup = FLAT_SUP_TOL
        rows.append((k, sup, exact, ratio))
    serialize.write_csv(out / "sections.csv",
                        ["k", "sup_dbar", "closed_form", "ratio"], rows,
                        comment="verifies: sup|dbar s| matches the closed-form "
                                "constant and decays like 1/k; a 0 closed form "
                                f"prints the bound {FLAT_SUP_TOL:g} that "
                                "sup_dbar meets and ratio nan")
    serialize.write_json(out / "sections.json",
                         {"rows": len(rows), "failures": failures})
    return failures


def cmd_decompose(cfg, out: Path, svg: bool):
    r = _config_int(cfg, "rank", 1)
    count = _config_int(cfg, "count", 1)
    rng = np.random.default_rng(_config_int(cfg, "seed", 0))
    failures = []
    reports = []
    lat = Lattice(0.0, 1.0)
    for trial in range(count):
        # Random block structure conjugated by a random matrix.
        blocks = []
        left = r
        while left > 0:
            b = int(rng.integers(1, left + 1))
            blocks.append(b)
            left -= b
        A, C = np.zeros((2, r, r), dtype=complex)
        for off, b in zip(np.cumsum([0, *blocks]), blocks):
            phi, theta = rng.uniform(-np.pi, np.pi, 2)
            block = slice(off, off + b)
            A[block, block] = np.exp(1j * phi) * np.eye(b)
            C[block, block] = np.exp(1j * theta) * AtiyahData(b, 0.3).A
        S = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        Si = np.linalg.inv(S)
        bundle = FlatBundle(S @ A @ Si, S @ C @ Si, lat, commute_tol=1e-8)
        try:
            rep = decompose_commuting_pair(bundle)[0]
        except ConvergenceError as exc:
            rep = exc.best  # fails the residual check below
            if rep is None:     # refused without a report
                reports.append({"trial": trial, "ranks": [], "residual": None,
                                "warnings": [str(exc)]})
                failures.append(f"trial {trial}: refused: {exc}")
                continue
        reports.append({"trial": trial,
                        "ranks": list(rep.rank_multiset()),
                        "residual": rep.residual,
                        "warnings": rep.warnings})
        if rep.rank_multiset() != tuple(sorted(blocks)):
            failures.append(f"trial {trial}: rank multiset mismatch")
        if rep.residual > DECOMPOSE_TOL:
            failures.append(f"trial {trial}: residual {rep.residual:.2e}")
    serialize.write_json(out / "decompose.json",
                         {"reports": reports, "failures": failures})
    return failures


def cmd_cutoff(cfg, out: Path, svg: bool):
    n = _config_int(cfg, "grid", 1)
    epsilons = _config_numbers(cfg, "epsilons")
    lat = Lattice(0.0, 1.0)
    center = (0.5 + 0.5 / n, 0.5 + 0.5 / n)
    rows = []
    failures = []
    for eps in epsilons:
        try:
            ix, iy, win, energy = log_cutoff(eps, center, lat, n)
        except ResolutionError as exc:
            failures.append(f"eps={eps}: {exc}")
            continue
        exact = 2 * np.pi / abs(np.log(eps))
        prod = energy * abs(np.log(eps))
        rows.append((eps, energy, exact, prod, abs(energy / exact - 1)))
        if abs(energy / exact - 1) > 0.03:
            failures.append(f"eps={eps}: energy off by {abs(energy/exact-1):.2%}")
        if svg:
            phi = np.ones((n, n))
            phi[np.ix_(ix, iy)] = win
            serialize.svg_heatmap(out / f"cutoff_{eps}.svg", phi[::8, ::8],
                                  bounds=(0.0, 1.0), title="log cutoff")
    serialize.write_csv(out / "cutoff.csv",
                        ["epsilon", "energy", "exact", "energy_times_logeps",
                         "rel_err"], rows,
                        comment="verifies: cutoff Dirichlet energy matches "
                                "2*pi/|log eps| on the flat metric")
    serialize.write_json(out / "cutoff.json", {"failures": failures})
    return failures


def cmd_stability(cfg, out: Path, svg: bool):
    failures = []
    k_max = _config_int(cfg, "k_max", 1)
    if cfg["scenario"] == "lens":
        scen = _lens_scenario(cfg)
    elif cfg["scenario"] == "flat":
        scen = FlatTorusScenario(n=cfg["grid"])
    else:
        raise ConfigError(f"unknown scenario {cfg['scenario']!r}")
    covers = [CoverSpec.scaling(k) for k in range(1, k_max + 1)]
    rows = covering_sweep(scen, covers)
    serialize.write_csv(out / "stability.csv",
                        ["degree", "R_k", "lambda_min", "stable"],
                        [(r.degree, r.systole, r.lambda_min, r.stable)
                         for r in rows],
                        comment="verifies: covering sweep of the bottom "
                                "eigenvalue against the exact flat systole "
                                "of each cover")
    serialize.write_json(out / "stability.json", {
        "rows": [{"degree": r.degree, "R": r.systole,
                  "lambda_min": r.lambda_min, "stable": r.stable}
                 for r in rows],
        "failures": failures,
    })
    return failures


def cmd_systole(cfg, out: Path, svg: bool):
    failures = []
    scen = _lens_scenario(cfg)
    _, R, lambda_min, continuum = scen.level(CoverSpec.scaling(1))
    imm = scen.torus
    kappa = imm.ambient.kappa_pic
    # the curvature operator certifies the closed form from both sides
    kappa_hat = pic_kappa(imm.ambient.curvature_operator())
    if not abs(kappa_hat - kappa) <= 1e-12 * kappa:
        raise DomainError(f"certified kappa {kappa_hat!r} does not match the "
                          f"closed-form kappa {kappa!r}")
    deltas = axis_truncated_distances(imm, R)
    trial = phase_trial_section(imm.normal_lines[0][0], deltas, imm.lattice)
    ray = rayleigh_bound_check(trial, kappa)
    verdict = systole_bound_verdict(continuum, R, kappa, case="general")
    summary = {
        "R": R, "kappa": kappa, "kappa_hat": kappa_hat,
        "C": verdict.constant, "bound": verdict.bound,
        "lambda_min": lambda_min,
        "seam_residual": trial.seam_residual,
        "rayleigh_lhs": ray.lhs, "rayleigh_energy": ray.rhs,
        "rayleigh_chain_holds": ray.chain_holds,
        "applicable": verdict.applicable,
        "verdict": verdict.passed,
    }
    if not verdict.passed:
        failures.append("systole bound verdict failed")
    if trial.seam_residual > 1e-9:
        failures.append("trial section seam residual too large")
    summary["failures"] = failures
    serialize.write_json(out / "systole.json", summary)
    if svg:
        serialize.svg_heatmap(out / "trial_phase.svg",
                              np.angle(trial.grid().values[:, :, 0]),
                              bounds=(-np.pi, np.pi),
                              title="trial section phase")
    return failures


def cmd_abelian(cfg, out: Path, svg: bool):
    k_max = _config_int(cfg, "k_max", 1)
    rows = sublattice_growth_table(_config_lattice(cfg).tau, k_max)
    failures = []
    for (k, deg, got, want) in rows:
        if abs(got - want) > 1e-10 * max(1.0, want):
            failures.append(f"k={k}: systole {got} != {want}")
    serialize.write_csv(out / "abelian.csv",
                        ["k", "degree", "systole", "k_times_base"], rows,
                        comment="verifies: systole of the k-fold sublattice "
                                "grows exactly linearly in k")
    serialize.write_json(out / "abelian.json", {"failures": failures})
    return failures


COMMANDS = {
    "sections": cmd_sections,
    "decompose": cmd_decompose,
    "cutoff": cmd_cutoff,
    "stability": cmd_stability,
    "systole": cmd_systole,
    "abelian": cmd_abelian,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stabletori", description=__doc__)
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default=".")
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--svg", action="store_true")
    args = parser.parse_args(argv)

    # ConfigError and ResourceGuard are StableToriErrors too: they must be
    # caught before the catch-all that maps to the assertion exit code.
    try:
        cfg = load_config(args.subcommand, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        failures = COMMANDS[args.subcommand](cfg, out, args.svg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResourceGuard, MemoryError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ResolutionError as exc:
        print(f"resolution guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except StableToriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERT
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
