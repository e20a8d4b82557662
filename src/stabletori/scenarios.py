"""Pre-wired scenarios used by the sweeps, the CLI, and the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import LineHolonomy
from .errors import ConfigError, DomainError, WrongFormError
from .geometry import (AmbientSpace, FlatTorus, Immersion,
                       elliptic_curve_immersion, product_geodesic_torus,
                       surface_quantities)
from .lattice import CoverSpec, Lattice, cover_lattice, flat_systole
from .stability import (DiscreteForm, StencilForm, _wave_pencil,
                        euclidean_index_form, flat_twisted_form,
                        min_eigenvalue)

AUDIT_MODES = 4     # waves per audit section
AUDIT_BAND = 3      # |kx|, |ky| <= AUDIT_BAND for each wave e_k


def flat_chart_immersion(a_len: float, b_len: float, n: int) -> FlatTorus:
    """Flat isometric chart torus with unit conformal factor.

    The totally geodesic torus of `FlatTorusScenario` inside a flat 4-torus,
    along the first two axes, with no normal lines: the chart on which the
    exceptional cutoffs and the `induced_systole` check of the exact flat
    systole are tested.  Trial sections do not use it: the lens ones live
    on the lens torus.
    """
    return FlatTorus((a_len, b_len), AmbientSpace(kind="flat_torus", dim=4),
                     n, np.eye(4)[:2])


def _audit_draws(count: int, seed: int) -> np.ndarray:
    """Amplitudes a[s, kx + B, ky + B] in C^4, B = AUDIT_BAND, of `count`
    audit sections: from default_rng(seed), per wave (AUDIT_MODES a section)
    kx, ky in [-B, B] and its amplitude, real parts first; repeats add."""
    rng = np.random.default_rng(seed)
    draws = [(rng.integers(-AUDIT_BAND, AUDIT_BAND + 1),
              rng.integers(-AUDIT_BAND, AUDIT_BAND + 1), *rng.standard_normal(8))
             for _ in range(count * AUDIT_MODES)]
    z = np.array(draws).reshape(count, AUDIT_MODES, 10)
    k = z[..., :2].astype(int) + AUDIT_BAND
    a = np.zeros((count, 2 * AUDIT_BAND + 1, 2 * AUDIT_BAND + 1, 4), complex)
    np.add.at(a, (np.arange(count)[:, None], k[..., 0], k[..., 1]),
              z[..., 2:6] + 1j * z[..., 6:])
    return a


def second_variation_form(imm: FlatTorus) -> StencilForm:
    """Second variation of a flat totally geodesic torus, on its n x n grid.

    The complexified normal bundle splits into the flat lines of
    `imm.normal_lines`; on the first of them the form is the scalar twisted
    Laplacian over `imm.periods` with the line's holonomy as the twist, plus
    the constant potential -sum_i R(t_i, e, t_i, e) at the ambient's base
    point, for the tangent frame t_i of `imm.frame` and the real unit
    normal e along the line (the model geometries are homogeneous).  The
    lines of a lens torus are dual, so their spectra coincide.  A cover's
    form is the form of `FlatTorus.cover`.  A torus with no normal lines in
    a flat ambient gets the untwisted form with no potential; anything but
    a `FlatTorus` raises WrongFormError.
    """
    if not isinstance(imm, FlatTorus):
        raise WrongFormError("the second variation form needs a flat torus")
    hol, e = LineHolonomy(0.0, 0.0), np.zeros(imm.dim)
    if imm.normal_lines:
        hol, eps = imm.normal_lines[0]
        e = eps.real / np.linalg.norm(eps.real)
    elif not imm.ambient.is_flat:
        raise WrongFormError("a torus in a curved ambient needs normal lines")
    curv = imm.ambient.curvature(imm.frame, e, imm.frame, e)
    return flat_twisted_form(imm.periods, (hol.phi, hol.theta), imm.n,
                             potential=-float(np.sum(curv.real)))


@dataclass
class LensScenario:
    """S^1(L) x lens(p, q) on S^3(rho), with the short geodesic torus: the
    sphere is S^3, the only one `product_geodesic_torus` twists.

    `torus` is the `product_geodesic_torus` for an n x n grid, built once
    and held in closed form; every form of the sweep is the
    `second_variation_form` of one of its covers, `torus.cover(spec)`.
    """

    L: float = 2.0
    rho: float = 1.0
    p: int = 3
    q: int = 1
    n: int = 96

    def __post_init__(self):
        self.torus = product_geodesic_torus(self.L, self.rho, 3,
                                            (self.p, self.q), self.n)

    def cover_form(self, spec: CoverSpec) -> StencilForm:
        return second_variation_form(self.torus.cover(spec))

    def level(self, spec: CoverSpec):
        cover = self.torus.cover(spec)
        res = min_eigenvalue(self.cover_form(spec))
        return (spec.degree, flat_systole(cover.lattice),
                res.lambda_min, res.continuum)


@dataclass
class EllipticScenario:
    """Elliptic curve (wp, wp') in R^4, punctured at the origin."""

    lat: Lattice = Lattice(0.0, 1.0)
    puncture: float = 0.1
    n: int = 64

    def immersion(self) -> Immersion:
        return elliptic_curve_immersion(self.lat, self.puncture, self.n)

    def form(self, extent: int = 1) -> DiscreteForm:
        return euclidean_index_form(self.immersion().cover(CoverSpec.scaling(extent)))

    def _bump(self, imm: Immersion) -> np.ndarray:
        """0 within 1.3 puncture radii, so on masked nodes, 1 beyond 2."""
        t = np.clip((imm.puncture_dist / self.puncture - 1.3) / 0.7, 0, 1)
        return t * t * (3 - 2 * t)

    def random_normal_sections(self, count: int, extent: int = 1,
                               seed: int = 0):
        """Band-limited normal-projected sections supported off the puncture.

        Each of the `count` sections, (N, N, 4) on the chart of the scaling
        cover of `extent`, N = extent * n, sums the waves of `_audit_draws(
        count, seed)` as separable products e_kx(xi) e_ky(eta) times their
        amplitudes, times `_bump`, projected node by node as Fn^T Fn v in the
        orthonormal normal frame Fn.  `stability_audit` reads the same draws
        and builds no grid.
        """
        imm = self.immersion().cover(CoverSpec.scaling(extent))
        Fn = surface_quantities(imm).normal_frame
        PN = np.swapaxes(Fn, -1, -2) @ (Fn * self._bump(imm)[..., None, None])
        waves = np.exp(2j * np.pi * np.outer(np.arange(-AUDIT_BAND, AUDIT_BAND + 1),
                                             np.arange(imm.n) * (1.0 / imm.n)))
        for a in _audit_draws(count, seed):
            # sum a[kx, ky] e_kx(xi) e_ky(eta), per component (N, 7) (7, 7) (7, N)
            vals = waves.T @ np.moveaxis(a, -1, 0) @ waves
            yield np.einsum("xyij,jxy->xyi", PN, vals)

    def stability_audit(self, count: int = 200, extent: int = 1,
                        seed: int = 0) -> tuple[float, bool]:
        """Worst Q(s)/Mass(s) over random normal sections; True when stable.

        The sections are `random_normal_sections(count, extent, seed)`; Q is
        the `euclidean_index_form` of the scaling cover of `extent`, M the
        mass lam2 |s|^2 on its unmasked cells.  A section is a vector a of 49
        wave modes x 4 amplitudes, repeats added: Q(s) = a^H Kq a and M(s) =
        a^H Km a on the cover's `_wave_pencil`, with no grid built, to 1e-12
        of the sparse form.  Stable means a worst quotient >= -1e-6 over the
        sections of mass above 1e-14.  count < 1 or extent < 1 raises
        ConfigError; no section of mass above 1e-14 raises DomainError.
        """
        if count < 1 or extent < 1:
            raise ConfigError("the audit needs count >= 1 and extent >= 1")
        imm = self.immersion().cover(CoverSpec.scaling(extent))
        Kq, Km = _wave_pencil(imm, self._bump(imm), AUDIT_BAND)
        a = _audit_draws(count, seed).reshape(count, -1)
        q, m = (np.sum((a.conj() @ K) * a, axis=1).real for K in (Kq, Km))
        massive = m > 1e-14
        if not massive.any():
            raise DomainError("no audit section has mass above 1e-14")
        worst = float(np.min(q[massive] / m[massive]))
        return worst, bool(worst >= -1e-6)


@dataclass
class FlatTorusScenario:
    """Totally geodesic flat torus inside a flat 4-torus: the lens sweep's
    `cover_form` and `level` read off `torus.cover(spec)` of the
    `flat_chart_immersion`, which has no twist and no potential."""

    a_len: float = 1.0
    b_len: float = 1.0
    n: int = 64

    def __post_init__(self):
        self.torus = flat_chart_immersion(self.a_len, self.b_len, self.n)

    cover_form = LensScenario.cover_form
    level = LensScenario.level


def sublattice_growth_table(lat: Lattice, kmax: int = 10):
    """flat_systole along the tower k*Lambda, with the exact scaling law."""
    base = flat_systole(lat)
    rows = []
    for k in range(1, kmax + 1):
        spec = CoverSpec.scaling(k)
        rows.append((k, spec.degree, flat_systole(cover_lattice(lat, spec)),
                     k * base))
    return rows
