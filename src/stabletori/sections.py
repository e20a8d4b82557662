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

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ShapeError
from .lattice import Lattice, wirtinger_factors


@dataclass
class SectionGrid:
    """Periodic-gauge samples of a bundle section on [0,a) x [0,b).

    values[i, j, :] = c(xi_i, eta_j) with xi_i = a*i/nx, eta_j = b*j/ny.
    (a, b) are the domain extents in lattice units, so (a, b) = (k, k) for
    the cover torus C/(k*Lambda).
    """

    lattice: Lattice
    a: float
    b: float
    values: np.ndarray            # (nx, ny, r) complex
    phi: float = 0.0              # connection phase per unit xi-period
    theta: float = 0.0            # connection phase per unit eta-period
    bmat: np.ndarray | None = None  # (r, r), nilpotent part of the potential
    pairing: np.ndarray | None = None  # constant symmetric pairing in frame
    seam_residual: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim == 2:
            self.values = self.values[:, :, None]
        if self.values.ndim != 3:
            raise ShapeError("values must be (nx, ny, r)")

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    @property
    def rank(self) -> int:
        return self.values.shape[2]

    @property
    def hx(self) -> float:
        return self.a / self.nx

    @property
    def hy(self) -> float:
        return self.b / self.ny

    def grids(self) -> tuple[np.ndarray, np.ndarray]:
        xi = np.arange(self.nx) * self.hx
        eta = np.arange(self.ny) * self.hy
        return np.meshgrid(xi, eta, indexing="ij")

    def flat_frame_values(self) -> np.ndarray:
        """Representative in the flat trivialization, T(xi,eta) * c."""
        xi, eta = self.grids()
        phase = np.exp(1j * (self.phi * xi + self.theta * eta))
        out = self.values * phase[:, :, None]
        if self.bmat is not None and np.any(self.bmat):
            from scipy.linalg import expm
            eta1 = np.arange(self.ny) * self.hy
            for j, e in enumerate(eta1):
                out[:, j, :] = out[:, j, :] @ expm(e * self.bmat).T
        return out


def _shift(vals: np.ndarray, axis: int, steps: int) -> np.ndarray:
    """values at (index + steps) with periodic wrap."""
    return np.roll(vals, -steps, axis=axis)


def covariant_diff(sec: SectionGrid, axis: int, scheme: str = "central") -> np.ndarray:
    """Covariant derivative of the section values along xi (axis 0) or eta.

    Uses the constant potential of the periodic gauge; the phase factors
    make the stencil exact on covariantly-constant sections.
    """
    h = sec.hx if axis == 0 else sec.hy
    angle = (sec.phi if axis == 0 else sec.theta) * h
    fwd = _shift(sec.values, axis, 1) * np.exp(-1j * angle)
    bwd = _shift(sec.values, axis, -1) * np.exp(1j * angle)
    if scheme == "central":
        d = (fwd - bwd) / (2 * h)
    elif scheme == "forward":
        d = (fwd - sec.values) / h
    else:
        raise ValueError("scheme must be 'central' or 'forward'")
    if axis == 1 and sec.bmat is not None and np.any(sec.bmat):
        d = d - np.einsum("ij,xyj->xyi", sec.bmat, sec.values)
    return d


def dbar(sec: SectionGrid, scheme: str = "central") -> SectionGrid:
    """Discrete nabla_zbar of a section, as a section of the same bundle."""
    fxi, feta = wirtinger_factors(sec.lattice)
    d = fxi * covariant_diff(sec, 0, scheme) + feta * covariant_diff(sec, 1, scheme)
    return replace(sec, values=d, seam_residual=0.0)


def ddz(sec: SectionGrid, scheme: str = "central") -> SectionGrid:
    """Discrete nabla_z, the conjugate-coordinate companion of dbar."""
    fxi, feta = wirtinger_factors(sec.lattice)
    d = (np.conj(fxi) * covariant_diff(sec, 0, scheme)
         + np.conj(feta) * covariant_diff(sec, 1, scheme))
    return replace(sec, values=d, seam_residual=0.0)


def dbar_spectral(sec: SectionGrid) -> SectionGrid:
    """Fourier-differentiation variant of dbar.

    Exact for band-limited data; only valid with a scalar potential
    (bmat absent or zero), which covers all line-bundle cases.
    """
    if sec.bmat is not None and np.any(sec.bmat):
        raise ShapeError("spectral dbar requires a scalar connection")
    fxi, feta = wirtinger_factors(sec.lattice)
    kx = 2j * np.pi * np.fft.fftfreq(sec.nx, d=sec.hx)
    ky = 2j * np.pi * np.fft.fftfreq(sec.ny, d=sec.hy)
    vhat = np.fft.fft2(sec.values, axes=(0, 1))
    dx = np.fft.ifft2(vhat * kx[:, None, None], axes=(0, 1))
    dy = np.fft.ifft2(vhat * ky[None, :, None], axes=(0, 1))
    d = (fxi * (dx - 1j * sec.phi * sec.values)
         + feta * (dy - 1j * sec.theta * sec.values))
    return replace(sec, values=d, seam_residual=0.0)


def gram_matrix(sections: list[SectionGrid],
                metric: np.ndarray | None = None) -> tuple[np.ndarray, tuple[float, float]]:
    """Pointwise Gram matrices of a family of sections.

    metric: None for the orthonormal-frame metric, a constant (r, r)
    Hermitian matrix, or a (nx, ny, r, r) field.  Returns the Gram field
    G[x, y, i, j] = <s_i, s_j> and the (min, max) of its eigenvalues over
    the grid.
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
        metric = np.asarray(metric, dtype=complex)
        if metric.ndim == 2:
            gstack = np.einsum("ij,xyjm->xyim", metric, stack)
        else:
            gstack = np.einsum("xyij,xyjm->xyim", metric, stack)
    gram = np.einsum("xyrm,xyrl->xyml", np.conj(stack), gstack)
    evals = np.linalg.eigvalsh(gram)
    return gram, (float(evals.min()), float(evals.max()))


def tensor_sections(s: SectionGrid, w: SectionGrid) -> SectionGrid:
    """Tensor a rank-1 section over a cover with a base section, s (x) w.

    w lives on the base torus [0, w.a) x [0, w.b); its values are tiled
    periodically over the domain of s.  The grids must have equal per-unit
    resolution and integer extent ratios.
    """
    if s.rank != 1:
        raise ShapeError("first factor must have rank 1")
    if s.lattice != w.lattice:
        raise ShapeError("lattice mismatch")
    ratio_x = s.a / w.a
    ratio_y = s.b / w.b
    if abs(ratio_x - round(ratio_x)) > 1e-12 or abs(ratio_y - round(ratio_y)) > 1e-12:
        raise ShapeError("cover extents must be integer multiples of the base")
    if abs(s.nx / s.a - w.nx / w.a) > 1e-9 or abs(s.ny / s.b - w.ny / w.b) > 1e-9:
        raise ShapeError("per-unit grid resolutions must match")
    tiled = np.tile(w.values, (int(round(ratio_x)), int(round(ratio_y)), 1))
    vals = s.values[:, :, 0:1] * tiled
    return SectionGrid(
        lattice=s.lattice, a=s.a, b=s.b, values=vals,
        phi=s.phi + w.phi, theta=s.theta + w.theta,
        bmat=w.bmat,
        seam_residual=max(s.seam_residual, w.seam_residual),
    )


def mass(sec: SectionGrid, weight: np.ndarray | None = None) -> float:
    """Squared L2 mass of a section.

    Without a weight this is the chart integral of |c|^2 in dxi deta units.
    When a weight field is supplied it is taken to be the complete per-cell
    measure (for instance Immersion.da_field()), so no extra cell factor is
    applied.
    """
    w = np.sum(np.abs(sec.values) ** 2, axis=2)
    if weight is None:
        return float(np.sum(w) * sec.hx * sec.hy)
    return float(np.sum(w * weight))
