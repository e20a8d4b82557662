"""Pre-wired scenarios used by the sweeps, the CLI, and the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import LineHolonomy, principal_angle
from .errors import DomainError
from .geometry import (AmbientSpace, Immersion, SurfaceQuantities,
                       elliptic_curve_immersion, product_geodesic_torus,
                       surface_quantities)
from .lattice import CoverSpec, Lattice, cover_lattice, flat_systole
from .stability import (DiscreteForm, euclidean_index_form, flat_twisted_form,
                        min_eigenvalue)


def flat_chart_immersion(a_len: float, b_len: float, n: int,
                         ambient: AmbientSpace | None = None) -> Immersion:
    """Flat isometric chart torus with unit conformal factor.

    Used as the chart of trial sections and graph-distance cross-checks,
    and as the totally geodesic torus inside a flat 4-torus.
    """
    if ambient is None:
        ambient = AmbientSpace(kind="flat_torus", dim=4)
    lat = Lattice(0.0, b_len / a_len)
    F = np.zeros((n, n, ambient.dim))
    h = 1.0 / n
    xi = np.arange(n) * h
    X, Y = np.meshgrid(xi, xi, indexing="ij")
    F[:, :, 0] = a_len * X
    F[:, :, 1] = b_len * Y
    Fz = np.zeros((n, n, ambient.dim), dtype=complex)
    Fz[:, :, 0] = 0.5
    Fz[:, :, 1] = -0.5j
    return Immersion(lattice=lat, scale=a_len, ambient=ambient, F=F, Fz=Fz,
                     lam2=np.ones((n, n)), mask=np.ones((n, n), dtype=bool),
                     flat=True, second_ff_zero=True, periods=(a_len, b_len))


def _diagonal_cover(spec: CoverSpec) -> tuple[int, int]:
    (a, b), (c, d) = spec.basis
    if b != 0 or c != 0:
        raise DomainError("scenario sweeps support diagonal covers only")
    return a, d


@dataclass
class LensScenario:
    """S^1(L) x lens(p, q) on S^3(rho), with the short geodesic torus."""

    L: float = 2.0
    rho: float = 1.0
    p: int = 3
    q: int = 1
    n: int = 96
    n_sphere: int = 3

    def base_immersion(self, n: int | None = None) -> Immersion:
        return product_geodesic_torus(self.L, self.rho, self.n_sphere,
                                      (self.p, self.q), n or self.n)

    @property
    def periods(self) -> tuple[float, float]:
        return (2 * np.pi * self.L, 2 * np.pi * self.rho / self.p)

    def line_holonomies(self) -> list[LineHolonomy]:
        alpha = 2 * np.pi * self.q / self.p if self.p > 1 else 0.0
        return [LineHolonomy(0.0, alpha), LineHolonomy(0.0, -alpha)]

    def cover_form(self, kx: int, ky: int, n: int,
                   line: int = 0) -> DiscreteForm:
        a, b = self.periods
        hol = self.line_holonomies()[line]
        twist = (principal_angle(kx * hol.phi), principal_angle(ky * hol.theta))
        return flat_twisted_form((kx * a, ky * b), twist, n,
                                 potential=-1.0 / self.rho ** 2)

    def cover_immersion(self, kx: int, ky: int, n: int) -> Immersion:
        a, b = self.periods
        return flat_chart_immersion(kx * a, ky * b, n)

    def level(self, spec: CoverSpec):
        kx, ky = _diagonal_cover(spec)
        a, b = self.periods
        R = flat_systole(Lattice(0.0, ky * b / (kx * a)), kx * a)
        res = min_eigenvalue(self.cover_form(kx, ky, self.n))
        return spec.degree, R, res.lambda_min, res.continuum


@dataclass
class EllipticScenario:
    """Elliptic curve (wp, wp') in R^4, punctured at the origin."""

    lat: Lattice = Lattice(0.0, 1.0)
    puncture: float = 0.1
    n: int = 64

    def immersion(self) -> Immersion:
        return elliptic_curve_immersion(self.lat, self.puncture, self.n)

    def form(self, extent: int = 1) -> DiscreteForm:
        return euclidean_index_form(self.immersion(), extent=extent)

    def random_normal_sections(self, count: int, extent: int = 1,
                               seed: int = 0, modes: int = 4,
                               imm: Immersion | None = None,
                               quants: SurfaceQuantities | None = None):
        """Band-limited normal-projected sections supported off the puncture.

        `imm` and its `surface_quantities` are built here unless given.
        """
        imm = imm or self.immersion()
        quants = quants or surface_quantities(imm)
        n = imm.n
        N = extent * n
        PN = np.tile(quants.normal_proj, (extent, extent, 1, 1))
        h = 1.0 / n
        xi = np.arange(N) * h
        X, Y = np.meshgrid(xi, xi, indexing="ij")
        red = (X - np.round(X)) + (Y - np.round(Y)) * imm.lattice.tau
        dist = np.abs(red)
        t = np.clip((dist - 1.3 * self.puncture) / (0.7 * self.puncture), 0, 1)
        bump = t * t * (3 - 2 * t)
        rng = np.random.default_rng(seed)
        for _ in range(count):
            vals = np.zeros((N, N, 4), dtype=complex)
            for _m in range(modes):
                kx = rng.integers(-3, 4)
                ky = rng.integers(-3, 4)
                amp = (rng.standard_normal(4) + 1j * rng.standard_normal(4))
                wave = np.exp(2j * np.pi * (kx * X + ky * Y) / extent)
                vals += wave[:, :, None] * amp[None, None, :]
            vals *= bump[:, :, None]
            yield np.einsum("xyij,xyj->xyi", PN, vals)

    def stability_audit(self, count: int = 200, extent: int = 1,
                        seed: int = 0) -> tuple[float, bool]:
        """Worst Q(s)/Mass(s) over random sections; True when stable."""
        imm = self.immersion()
        quants = surface_quantities(imm)
        form = euclidean_index_form(imm, extent=extent, quants=quants)
        worst = np.inf
        for vals in self.random_normal_sections(count, extent, seed,
                                                imm=imm, quants=quants):
            q = form.q_value(vals)
            m = form.m_value(vals)
            if m > 1e-14:
                worst = min(worst, q / m)
        return float(worst), bool(worst >= -1e-6)


@dataclass
class FlatTorusScenario:
    """Totally geodesic flat torus inside a flat 4-torus."""

    a_len: float = 1.0
    b_len: float = 1.0
    n: int = 64

    def level(self, spec: CoverSpec):
        kx, ky = _diagonal_cover(spec)
        a, b = kx * self.a_len, ky * self.b_len
        form = flat_twisted_form((a, b), (0.0, 0.0), self.n, potential=0.0)
        R = flat_systole(Lattice(0.0, b / a), a)
        res = min_eigenvalue(form)
        return spec.degree, R, res.lambda_min, res.continuum


def sublattice_growth_table(tau: complex, kmax: int = 10):
    """flat_systole along the tower k*Lambda, with the exact scaling law."""
    from .lattice import normalize_lattice
    lat, _ = normalize_lattice(tau)
    base = flat_systole(lat)
    rows = []
    for k in range(1, kmax + 1):
        lat_k, scale_k, deg = cover_lattice(lat, CoverSpec.scaling(k))
        rows.append((k, deg, flat_systole(lat_k, scale_k), k * base))
    return rows
