"""Section grids over a torus and the discrete twisted dbar operator.

Sections of a flat bundle are stored in a periodic gauge: a section is a
plain periodic array c(xi, eta) on the fundamental domain, and the flat
connection appears as a constant potential,

    nabla = d - i*phi*dxi - i*theta*deta - B*deta,

where (phi, theta) are the holonomy angles per unit period and B is the
nilpotent log of the unipotent part of the vertical holonomy.  The parallel
(flat) frame is recovered by multiplying with

    T(xi, eta) = exp(i*(phi*xi + theta*eta)) * expm(eta*B),

so twisted periodicity across seams reduces to plain periodicity of c.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ShapeError
from .lattice import Lattice, wirtinger_factors


@dataclass
class SectionGrid:
    """Periodic-gauge samples of a bundle section on the unit cell of the
    chart of its lattice, z = scale*(xi + eta*tau).

    values[i, j, :] = c(i/nx, j/ny).  A section over the cover C/(k*Lambda)
    carries that lattice, `cover_lattice(lat, CoverSpec.scaling(k))`.
    """

    lattice: Lattice
    values: np.ndarray            # (nx, ny, r) complex
    phi: float = 0.0              # connection phase per unit xi-period
    theta: float = 0.0            # connection phase per unit eta-period
    bmat: np.ndarray | None = None  # (r, r), nilpotent part of the potential
    seam_residual: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim == 2:
            self.values = self.values[:, :, None]
        if self.values.ndim != 3:
            raise ShapeError("values must be (nx, ny, r)")

    @property
    def hx(self) -> float:
        return 1.0 / self.values.shape[0]

    @property
    def hy(self) -> float:
        return 1.0 / self.values.shape[1]


def _axis_diff(v: np.ndarray, axis: int, step: float,
               angle: float) -> np.ndarray:
    """Central covariant difference of a periodic grid field along one axis.

    (v[+1] e^{-i angle} - v[-1] e^{i angle}) / 2 step, with the connection
    phase `angle` = twist * step; exact on covariantly constant fields.
    """
    n = v.shape[axis]
    out = np.empty(v.shape, dtype=np.result_type(v, 1j))
    # (row, next, previous): the interior, then the two rows whose
    # neighbour wraps, as length-1 slices, so that a 1-D field still gives
    # arrays to write into; on one or two nodes both neighbours coincide
    p = (n - 2) % n
    for rows in ((slice(1, -1), slice(2, None), slice(None, -2)),
                 (slice(0, 1), slice(1 % n, 1 % n + 1), slice(n - 1, n)),
                 (slice(n - 1, n), slice(0, 1), slice(p, p + 1))):
        o, nxt, prv = ((slice(None),) * axis + (r,) for r in rows)
        if angle:
            np.multiply(v[nxt], np.exp(-1j * angle), out=out[o])
            np.subtract(out[o], v[prv] * np.exp(1j * angle), out=out[o])
        else:
            np.subtract(v[nxt], v[prv], out=out[o])
    # numpy divides a complex by a real d as a product with 1 / d, so
    # scaling both float parts by it gives the same bits, several times
    # faster
    flt = out.view(float)
    np.multiply(flt, 1.0 / (2 * step), out=flt)
    return out


def wirtinger_diff(v: np.ndarray, factors, steps: tuple[float, float],
                   twist: tuple[float, float] = (0.0, 0.0),
                   bmat: np.ndarray | None = None) -> np.ndarray:
    """f_xi D_xi v + f_eta D_eta v for a periodic grid field v, (nx, ny, ...).

    D is the central covariant difference `_axis_diff` along each axis,
    with the step h from `steps` and the phase twist * h.  `bmat` adds
    -bmat v to D_eta (the nilpotent part of the potential, acting on axis 2,
    the fibre axis; a trailing axis may stack sections).  Pass the
    Wirtinger factors for d/dzbar and their conjugates for d/dz.
    """
    def diff(axis):
        return _axis_diff(v, axis, steps[axis], twist[axis] * steps[axis])

    d_eta = diff(1)
    if bmat is not None and np.any(bmat):
        d_eta -= np.einsum("ij,xyj...->xyi...", bmat, v)
    # One expression, as written: numpy reuses the unnamed diff(0) in place
    # when it is large, which swaps the operands of its complex product and
    # so its rounding; rewriting this line changes the last bits.
    return factors[0] * diff(0) + factors[1] * d_eta


def dbar(sec: SectionGrid) -> SectionGrid:
    """Discrete nabla_zbar of a section, as a section of the same bundle."""
    d = wirtinger_diff(sec.values, wirtinger_factors(sec.lattice),
                       (sec.hx, sec.hy), (sec.phi, sec.theta), sec.bmat)
    return replace(sec, values=d, seam_residual=0.0)


@dataclass
class ProductSection:
    """A line-bundle section c = f(xi) g(eta) on the unit cell of the chart
    of its own lattice, z = scale*(xi + eta*tau), kept as its factors at
    xi = i/len(f), eta = j/len(g) in the periodic gauge of (phi, theta), the
    connection phases per unit period of that chart.  `mass` and
    `dbar_energy` are grid sums against that chart's cell measure.  A line
    section carries its cover `k` and closed form `sup_dbar_exact`, a trial
    section the systole `R` its phase is cut at (positive, else
    DomainError).  `grid()`, the n x n section, is for `--svg` and the
    tests' oracles only."""

    lattice: Lattice
    f: np.ndarray
    g: np.ndarray
    phi: float
    theta: float
    seam_residual: float
    k: int | None = None
    sup_dbar_exact: float | None = None
    R: float | None = None

    def __post_init__(self):
        if self.R is not None and not self.R > 0:
            raise DomainError("R must be positive")

    @property
    def hx(self) -> float:
        return 1.0 / self.f.size

    @property
    def hy(self) -> float:
        return 1.0 / self.g.size

    @property
    def grad_bound(self) -> float:
        """The pointwise bound 2 pi / (sqrt 3 R) of |dbar c| / |c| of a
        trial section; a section with no R raises DomainError."""
        if self.R is None:
            raise DomainError("the gradient bound needs the systole R of a "
                              "trial section")
        return 2 * np.pi / (np.sqrt(3.0) * self.R)

    def grid(self) -> SectionGrid:
        return SectionGrid(self.lattice, self.f[:, None] * self.g[None, :],
                           self.phi, self.theta,
                           seam_residual=self.seam_residual)

    def diffs(self) -> tuple[np.ndarray, np.ndarray]:
        """(Df, Dg) by `_axis_diff`, so that dbar c = f_xi (Df) g
        + f_eta f (Dg) on the grid (the product rule)."""
        return (_axis_diff(self.f, 0, self.hx, self.phi * self.hx),
                _axis_diff(self.g, 0, self.hy, self.theta * self.hy))

    def _cell(self) -> float:
        """The chart measure dxdy of one grid cell."""
        return self.lattice.scale ** 2 * self.lattice.tau2 * self.hx * self.hy

    def mass(self) -> float:
        """sum |c|^2 dxdy over the grid, in O(n): |f|^2 |g|^2 dxdy."""
        return float(np.vdot(self.f, self.f).real
                     * np.vdot(self.g, self.g).real * self._cell())

    def dbar_energy(self) -> float:
        """2 sum |dbar c|^2 dxdy over the grid, in O(n): with dbar c =
        f_xi (Df) g + f_eta f (Dg), sum |dbar c|^2 is |f_xi|^2 |Df|^2 |g|^2
        + |f_eta|^2 |f|^2 |Dg|^2 + 2 Re(f_xi conj(f_eta) <f, Df> <Dg, g>)."""
        Df, Dg = self.diffs()
        nf, ng, nDf, nDg = (np.vdot(v, v).real
                            for v in (self.f, self.g, Df, Dg))
        fxi, feta = wirtinger_factors(self.lattice)
        cross = fxi * np.conj(feta) * np.vdot(self.f, Df) * np.vdot(Dg, self.g)
        norm2 = (abs(fxi) ** 2 * nDf * ng + abs(feta) ** 2 * nf * nDg
                 + 2 * cross.real)
        return float(2.0 * norm2 * self._cell())

    def sup_dbar(self) -> float:
        """max |dbar(self.grid()).values| up to rounding, from one matrix
        product: [f_xi Df, f_eta f] (n x 2) times [g; Dg] (2 x m)."""
        fxi, feta = wirtinger_factors(self.lattice)
        Df, Dg = self.diffs()
        d = np.stack((fxi * Df, feta * self.f), 1) @ np.stack((self.g, Dg))
        return float(np.max(np.abs(d)))


def gram_matrix(sections: list[SectionGrid],
                metric: np.ndarray | None = None) -> tuple[np.ndarray, tuple[float, float]]:
    """Pointwise Gram matrices of a family of sections.

    metric: None for the orthonormal-frame metric, or a constant (r, r)
    Hermitian matrix.  Returns the Gram field G[x, y, i, j] = <s_i, s_j>
    and the (min, max) of its eigenvalues over the grid.
    """
    if not sections:
        raise ShapeError("need at least one section")
    shape = sections[0].values.shape
    for s in sections[1:]:
        if s.values.shape != shape:
            raise ShapeError("sections must share a grid")
    stack = np.stack([s.values for s in sections], axis=-1)  # (nx,ny,r,m)
    if metric is None:
        gstack = stack
    else:
        gstack = np.einsum("ij,xyjm->xyim", np.asarray(metric, dtype=complex),
                           stack)
    gram = np.einsum("xyrm,xyrl->xyml", np.conj(stack), gstack)
    evals = np.linalg.eigvalsh(gram)
    return gram, (float(evals.min()), float(evals.max()))
