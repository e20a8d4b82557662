"""Pre-wired scenarios used by the sweeps, the CLI, and the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import LineHolonomy
from .errors import ConfigError, DomainError, WrongFormError
from .geometry import (AmbientSpace, FlatTorus, Immersion, SurfaceQuantities,
                       elliptic_curve_immersion, product_geodesic_torus,
                       surface_quantities)
from .lattice import (CoverSpec, Lattice, cover_lattice, flat_systole,
                      normalize_lattice)
from .stability import (DiscreteForm, StencilForm, _index_densities,
                        _node_norm2, euclidean_index_form,
                        flat_twisted_form, min_eigenvalue)

# Sections per batch of the elliptic audit: one (N, N, 4, batch) array is
# about 2.6 MB at N = 64, so a batch costs little memory while its numpy
# calls still cover many sections each.  Each section sums AUDIT_MODES waves.
AUDIT_BATCH = 10
AUDIT_MODES = 4


def flat_chart_immersion(a_len: float, b_len: float, n: int,
                         ambient: AmbientSpace | None = None) -> FlatTorus:
    """Flat isometric chart torus with unit conformal factor.

    The totally geodesic torus of `FlatTorusScenario` inside a flat 4-torus,
    along the first two axes, with no normal lines: the chart on which the
    exceptional cutoffs and the `induced_systole` check of the exact flat
    systole are tested.  Trial sections do not use it: the lens ones live
    on the lens torus.
    """
    if ambient is None:
        ambient = AmbientSpace(kind="flat_torus", dim=4)
    return FlatTorus((a_len, b_len), ambient, n, np.eye(ambient.dim)[:2])


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
    """S^1(L) x lens(p, q) on S^3(rho), with the short geodesic torus.

    `torus` is the `product_geodesic_torus` for an n x n grid, built once
    and held in closed form; every form of the sweep is the
    `second_variation_form` of one of its covers, `torus.cover(spec)`.
    """

    L: float = 2.0
    rho: float = 1.0
    p: int = 3
    q: int = 1
    n: int = 96
    n_sphere: int = 3

    def __post_init__(self):
        self.torus = product_geodesic_torus(self.L, self.rho, self.n_sphere,
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

    def random_normal_sections(self, count: int, extent: int = 1,
                               seed: int = 0):
        """Band-limited normal-projected sections supported off the puncture.

        Each of the `count` sections, (N, N, 4) on the chart of the scaling
        cover of `extent`, N = extent * n, is AUDIT_MODES plane waves
        e^{2 pi i (kx xi + ky eta)}, |kx|, |ky| <= 3, with complex Gaussian
        amplitudes in R^4, summed as separable products e_kx(xi) e_ky(eta),
        times a bump of `puncture_dist` that vanishes within 1.3 puncture
        radii of each lattice point, so on every masked node, then projected
        onto the normal plane node by node, as Fn^T Fn v in its orthonormal
        frame Fn.  The stream depends on `seed` alone; `stability_audit`
        reads the same sections in batches.
        """
        imm = self.immersion().cover(CoverSpec.scaling(extent))
        quants = surface_quantities(imm)
        for batch in self._section_batches(imm, quants, count, seed):
            yield from np.moveaxis(batch, -1, 0)

    def _section_batches(self, imm: Immersion, quants: SurfaceQuantities,
                         count: int, seed: int):
        """random_normal_sections on `imm` and its frames `quants`, as
        (N, N, 4, S) batches of AUDIT_BATCH."""
        N = imm.n
        xi = np.arange(N) * (1.0 / N)
        t = np.clip((imm.puncture_dist - 1.3 * self.puncture)
                    / (0.7 * self.puncture), 0, 1)
        bump = t * t * (3 - 2 * t)
        # the normal projector Fn^T Fn of the normal frame, times the bump
        Fn = quants.normal_frame
        PN = np.swapaxes(Fn, -1, -2) @ (Fn * bump[..., None, None])
        # the 1D waves e_k(xi) for k = -3..3; a 2D wave is e_kx(xi) e_ky(eta)
        waves = np.exp(2j * np.pi * np.arange(-3, 4)[:, None] * xi)
        rng = np.random.default_rng(seed)
        for start in range(0, count, AUDIT_BATCH):
            S = min(AUDIT_BATCH, count - start)
            k = np.empty((S, AUDIT_MODES, 2), dtype=int)
            amp = np.empty((S, AUDIT_MODES, 4), dtype=complex)
            for s in range(S):
                for m in range(AUDIT_MODES):
                    k[s, m] = rng.integers(-3, 4), rng.integers(-3, 4)
                    amp[s, m] = (rng.standard_normal(4)
                                 + 1j * rng.standard_normal(4))
            # section s: (4 N, M) @ (M, N) of a_m e_kx(xi), e_ky(eta), M modes
            left = np.einsum("smc,smx->scxm", amp, waves[k[..., 0] + 3])
            vals = left.reshape(S, 4 * N, AUDIT_MODES) @ waves[k[..., 1] + 3]
            vals = vals.reshape(S, 4, N, N).transpose(2, 3, 1, 0).copy()
            yield (PN @ vals.view(float)).view(complex)

    def stability_audit(self, count: int = 200, extent: int = 1,
                        seed: int = 0) -> tuple[float, bool]:
        """Worst Q(s)/Mass(s) over random normal sections; True when stable.

        The immersion of the scaling cover of `extent` and its frames are
        built once.  The sections are `random_normal_sections(count, extent,
        seed)`, and Q(s) is the cover's `euclidean_index_form`, evaluated on
        the grid by its array form `_index_densities`, AUDIT_BATCH sections
        at a time, with the mass sum lam2 |s|^2 over the unmasked cells.
        Stable means the worst quotient is >= -1e-6 over the sections of mass
        above 1e-14.  count < 1 or extent < 1 raises ConfigError; a run with
        no section of mass above 1e-14 raises DomainError, as it has nothing
        to decide on.
        """
        if count < 1 or extent < 1:
            raise ConfigError("the audit needs count >= 1 and extent >= 1")
        imm = self.immersion().cover(CoverSpec.scaling(extent))
        quants = surface_quantities(imm)
        densities = _index_densities(imm, quants)
        w = np.where(imm.mask, imm.dxdy_weight(), 0.0)
        da = imm.da_field()
        worst = np.inf
        for batch in self._section_batches(imm, quants, count, seed):
            plus, minus = densities(batch)
            q = np.tensordot(w, plus - minus, 2)
            m = np.tensordot(da, _node_norm2(batch), 2)
            massive = m > 1e-14
            if massive.any():
                worst = min(worst, float(np.min(q[massive] / m[massive])))
        if worst == np.inf:
            raise DomainError("no audit section has mass above 1e-14")
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


def sublattice_growth_table(tau: complex, kmax: int = 10):
    """flat_systole along the tower k*Lambda, with the exact scaling law."""
    lat, _ = normalize_lattice(tau)
    base = flat_systole(lat)
    rows = []
    for k in range(1, kmax + 1):
        spec = CoverSpec.scaling(k)
        rows.append((k, spec.degree, flat_systole(cover_lattice(lat, spec)),
                     k * base))
    return rows
