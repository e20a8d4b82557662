"""Model ambient spaces, complex sectional curvature, and test immersions.

Supported ambient kinds are flat Euclidean space, a flat torus, and the
product of a circle with a round sphere (optionally quotiented by a lens
action, which is represented on the sphere cover through holonomy twist
data rather than by meshing the quotient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bundles import FlatBundle, LineHolonomy, decompose_commuting_pair
from .errors import DomainError, ResolutionError
from .lattice import Lattice
from .weierstrass import eisenstein_invariants, wp


# ---------------------------------------------------------------------------
# ambient spaces


@dataclass(frozen=True)
class AmbientSpace:
    """One of the homogeneous model geometries.

    kind: 'euclidean', 'flat_torus' or 'product_circle_sphere'.
    For the product kind, `circle_radius` (L) and `sphere_radius` (rho) fix
    the metric, `n_sphere` the sphere dimension, and `lens` = (p, q) the
    cyclic quotient acting on the sphere factor.
    """

    kind: str
    dim: int = 4
    circle_radius: float = 1.0
    sphere_radius: float = 1.0
    n_sphere: int = 3
    lens: tuple[int, int] = (1, 0)

    def __post_init__(self):
        if self.kind not in ("euclidean", "flat_torus", "product_circle_sphere"):
            raise DomainError(f"unknown ambient kind {self.kind!r}")
        if self.kind == "product_circle_sphere":
            p, q = self.lens
            if p < 1 or (p > 1 and math.gcd(p, q) != 1):
                raise DomainError("lens parameters must be coprime with p >= 1")
            if self.n_sphere < 3:
                raise DomainError("sphere dimension must be >= 3")
            object.__setattr__(self, "dim", 1 + self.n_sphere + 1)

    @property
    def is_flat(self) -> bool:
        return self.kind in ("euclidean", "flat_torus")

    @property
    def kappa_pic(self) -> float:
        """Exact kappa = min K(Pi) over isotropic planes: 0 if flat, else
        1 / (2 rho^2) on S^1(L) x S^m(rho), m >= 3, and its lens quotients.

        Proof: only sphere parts carry curvature, and the sphere directions
        have complex codimension 1, so an isotropic plane holds some Y = y
        with no circle part.  Take X = a e0 + x in it with <X, Y> = 0.
        Isotropy gives a^2 = -(x,x), (y,y) = (x,y) = 0, and <x,y> = 0, so
        K = |x|^2 / (rho^2 (|a|^2 + |x|^2)).  As |a|^2 = |(x,x)| <= |x|^2,
        K >= 1 / (2 rho^2), attained at X = e0 + i e1, Y = e2 + i e3 (m >= 3).
        """
        return 0.0 if self.is_flat else 0.5 / self.sphere_radius ** 2

    @property
    def tangent_dim(self) -> int:
        if self.kind == "product_circle_sphere":
            return 1 + self.n_sphere
        return self.dim

    def base_point(self) -> np.ndarray:
        p = np.zeros(self.dim)
        if self.kind == "product_circle_sphere":
            p[1] = self.sphere_radius
        return p

    def tangent_basis(self, point: np.ndarray | None = None) -> np.ndarray:
        """Columns: orthonormal tangent vectors in ambient coordinates."""
        if point is None:
            point = self.base_point()
        if self.kind != "product_circle_sphere":
            return np.eye(self.dim)
        u = point[1:]
        uhat = u / np.linalg.norm(u)
        # Orthonormal complement of uhat inside the sphere coordinates.
        A = np.eye(len(u)) - np.outer(uhat, uhat)
        w, v = np.linalg.eigh(A)
        comp = v[:, w > 0.5]
        basis = np.zeros((self.dim, 1 + comp.shape[1]))
        basis[0, 0] = 1.0
        basis[1:, 1:] = comp
        return basis

    def curvature(self, X, Y, Z, W, point: np.ndarray | None = None):
        """(0,4) curvature tensor, extended complex multilinearly.

        Vectors are in ambient coordinates, stacked alike as (..., dim)
        arrays; the result has the stacked shape (...).  For the
        product kind only their projections onto the sphere's tangent space
        enter.
        """
        if self.is_flat:
            return np.zeros(np.shape(X)[:-1], dtype=complex)[()]
        sph = self._sphere_projection(point)
        return self._sphere_curvature(sph(X), sph(Y), sph(Z), sph(W))

    def _sphere_projection(self, point: np.ndarray | None):
        """v -> its projection onto the sphere's tangent space at point."""
        u = (self.base_point() if point is None else point)[1:]
        uhat = u / np.linalg.norm(u)

        def sph(v):
            vs = np.asarray(v, dtype=complex)[..., 1:]
            return vs - (vs @ uhat)[..., None] * uhat
        return sph

    def _sphere_curvature(self, xs, ys, zs, ws):
        """The curvature tensor of the round sphere on projected vectors."""
        k = 1.0 / self.sphere_radius ** 2
        return k * (_dot(xs, zs) * _dot(ys, ws) - _dot(xs, ws) * _dot(ys, zs))


def _dot(a, b):
    """Complex bilinear pairing of stacked (..., d) vectors."""
    return np.einsum("...i,...i->...", a, b)


# ---------------------------------------------------------------------------
# isotropic planes and kappa-PIC

# Raw frames drawn per block in `kappa_pic_estimate`: large enough that the
# per-block numpy calls cost little, small enough to keep peak memory flat.
KAPPA_BLOCK = 2048


def _isotropy_residuals(X: np.ndarray, Y: np.ndarray):
    """Residuals |(X,X)|, |(Y,Y)|, |(X,Y)| of stacked (..., dim) pairs,
    relative to the larger squared norm, and the squared norms themselves."""
    nx = _dot(np.conj(X), X).real
    ny = _dot(np.conj(Y), Y).real
    s = np.maximum(np.maximum(nx, ny), 1e-30)
    return (np.abs(_dot(X, X)) / s, np.abs(_dot(Y, Y)) / s,
            np.abs(_dot(X, Y)) / s), nx, ny


def _plane_checks(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """|X wedge Y|^2 of stacked (..., dim) pairs, each checked.

    Raises DomainError unless every pair spans an isotropic plane (all three
    residuals <= 1e-10) and is nondegenerate (|X wedge Y|^2 > 1e-12); a
    non-finite pair fails both.
    """
    # a non-finite entry makes a NaN (inf / inf), which fails both tests
    with np.errstate(invalid="ignore"):
        residuals, nx, ny = _isotropy_residuals(X, Y)
        den = nx * ny - np.abs(_dot(np.conj(X), Y)) ** 2
    if not all(np.all(r <= 1e-10) for r in residuals):
        raise DomainError("plane is not isotropic")
    if not np.all(den > 1e-12):
        raise DomainError("plane is degenerate")
    return den


def complex_sectional_curvatures(N: AmbientSpace, X, Y,
                                 at: np.ndarray | None = None) -> np.ndarray:
    """K(Pi) = R(X, Y, conj X, conj Y) / |X wedge Y|^2 for stacked planes.

    X and Y are (..., dim) arrays, one plane per stacked index; every plane
    passes the isotropy and degeneracy checks of `_plane_checks`, and every
    curvature value must be real to 1e-10 relative to max(|R|, 1), else
    DomainError.
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    den = _plane_checks(X, Y)
    if N.is_flat:
        num = np.zeros(X.shape[:-1], dtype=complex)[()]
    else:
        # The projection is real-linear with a real normal, so it commutes
        # with conjugation to the bit: X and Y are projected once.
        sph = N._sphere_projection(at)
        xs, ys = sph(X), sph(Y)
        num = N._sphere_curvature(xs, ys, np.conj(xs), np.conj(ys))
    if not np.all(np.abs(num.imag) <= 1e-10 * np.maximum(np.abs(num), 1.0)):
        raise DomainError("curvature value is not numerically real")
    return num.real / den


@dataclass
class IsotropicPlane:
    """Complex 2-plane with (X,X) = (Y,Y) = (X,Y) = 0."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=complex)
        self.Y = np.asarray(self.Y, dtype=complex)
        _plane_checks(self.X, self.Y)

    def residuals(self) -> tuple[float, float, float]:
        return tuple(float(r) for r in _isotropy_residuals(self.X, self.Y)[0])


def _orthonormal_frames(A: np.ndarray) -> np.ndarray:
    """Q of A = QR with diag R > 0, for stacked raw (..., n, 4) frames A.

    Classical Gram-Schmidt with one reorthogonalization pass, which gives
    this Q to working precision ("twice is enough"), vectorized over the
    stack: component i of column j is one contiguous array over the stack.
    A column whose distance from the span of the earlier ones is at most
    1e-12 of its norm (a zero or repeated column) comes out NaN, which
    `_plane_checks` rejects.  The result is a (..., n, 4) view.
    """
    cols = np.moveaxis(np.asarray(A, dtype=float), (-1, -2), (0, 1)).copy()
    for j, v in enumerate(cols):
        size = np.sqrt(np.einsum("i...,i...->...", v, v))
        for _ in range(2):
            v -= np.einsum("ki...,k...->i...", cols[:j],
                           np.einsum("ki...,i...->k...", cols[:j], v))
        r = np.sqrt(np.einsum("i...,i...->...", v, v))
        v /= np.where(r > 1e-12 * size, r, np.nan)
    return np.moveaxis(cols, (0, 1), (-1, -2))


def _frame_pair(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X = e1 + i e2, Y = e3 + i e4 from stacked (..., dim, 4) frames."""
    return E[..., 0] + 1j * E[..., 1], E[..., 2] + 1j * E[..., 3]


def plane_from_frame(E: np.ndarray) -> IsotropicPlane:
    """Isotropic plane X = e1 + i e2, Y = e3 + i e4 from an orthonormal 4-frame."""
    return IsotropicPlane(*_frame_pair(E))


def random_isotropic_plane(n: int, rng) -> IsotropicPlane:
    """Random isotropic plane in C^n from a Haar-distributed orthonormal
    4-frame (the Q of a Gaussian frame with diag R > 0)."""
    if n < 4:
        raise DomainError("no isotropic 2-planes below real dimension 4")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    return plane_from_frame(_orthonormal_frames(rng.standard_normal((n, 4))))


@dataclass
class KappaReport:
    kappa_hat: float
    plane: IsotropicPlane | None
    pic: bool
    samples: int


def kappa_pic_estimate(N: AmbientSpace, samples: int = 2000,
                       seed: int = 0) -> KappaReport:
    """Audit the closed form `N.kappa_pic` by sampling isotropic planes.

    Sampling happens in the tangent space at the base point (the model
    geometries are homogeneous).  The raw frames come from one seeded
    stream in blocks of KAPPA_BLOCK, each block checked and evaluated as one
    batch; the reported minimum is the earliest draw attaining it.  A
    sampled minimum below `N.kappa_pic * (1 - 1e-12)` contradicts the closed
    form and raises DomainError.  Deterministic for a fixed seed.
    """
    if samples < 1000:
        raise DomainError("need at least 10^3 samples")
    nt = N.tangent_dim
    if nt < 4:
        raise DomainError("tangent dimension too small for isotropic planes")
    if N.is_flat:
        return KappaReport(0.0, None, False, samples)
    basis = N.tangent_basis()
    point = N.base_point()
    rng = np.random.default_rng(seed)

    best_val = np.inf
    best_plane = None
    for start in range(0, samples, KAPPA_BLOCK):
        A = rng.standard_normal((min(KAPPA_BLOCK, samples - start), nt, 4))
        # one product maps the whole block to ambient coordinates
        E = np.tensordot(basis, _orthonormal_frames(A), (1, 1))
        X, Y = _frame_pair(E.transpose(1, 0, 2))
        vals = complex_sectional_curvatures(N, X, Y, point)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_plane = float(vals[i]), (X[i], Y[i])

    if best_val < N.kappa_pic * (1 - 1e-12):
        raise DomainError(f"sampled curvature {best_val!r} lies below the "
                          f"closed-form kappa {N.kappa_pic!r}")
    return KappaReport(best_val, IsotropicPlane(*best_plane),
                       best_val > 1e-9, samples)


# ---------------------------------------------------------------------------
# immersions


@dataclass
class Immersion:
    """Sampled conformal immersion of a torus chart into a model ambient.

    The chart is z = scale * (xi + eta * tau) over (xi, eta) in [0,1)^2;
    lam2 is the conformal factor with da = lam2 * dxdy.  Fzz = d_z F_z is
    stored exactly for Euclidean immersions with a second fundamental form;
    without it (and without `second_ff_zero`) `second_ff_norm2` is None.
    """

    lattice: Lattice
    scale: float
    ambient: AmbientSpace
    F: np.ndarray                     # (n, n, dim)
    Fz: np.ndarray                    # (n, n, dim) complex
    lam2: np.ndarray                  # (n, n)
    mask: np.ndarray                  # (n, n) bool, True where active
    flat: bool
    normal_lines: list[tuple[LineHolonomy, np.ndarray]] = field(default_factory=list)
    second_ff_zero: bool = False
    periods: tuple[float, float] | None = None
    Fzz: np.ndarray | None = None     # (n, n, dim) complex

    @property
    def n(self) -> int:
        return self.F.shape[0]

    @property
    def dim(self) -> int:
        return self.F.shape[2]

    def dxdy_weight(self) -> float:
        """Chart measure of one grid cell."""
        return self.scale ** 2 * self.lattice.tau2 / self.n ** 2

    def da_field(self) -> np.ndarray:
        """Induced area of each grid cell (zero on masked cells)."""
        out = self.lam2 * self.dxdy_weight()
        return np.where(self.mask, out, 0.0)

    def area(self) -> float:
        return float(np.sum(self.da_field()))


def elliptic_curve_immersion(lat: Lattice, puncture_radius: float,
                             n: int) -> Immersion:
    """The elliptic curve (wp, wp') in R^4, punctured at the lattice point.

    Holomorphic, hence conformal and minimal.  F_z and F_zz are stored
    analytically from wp'' = 6 wp^2 - g2/2 and wp''' = 12 wp wp', so the
    conformality residual is exact and no derivative crosses the puncture.
    """
    if not (0 < puncture_radius < 0.3):
        raise DomainError("puncture radius must lie in (0, 0.3)")
    if n < 16:
        raise DomainError("grid too coarse")
    h = 1.0 / n
    xi = np.arange(n) * h
    eta = np.arange(n) * h
    X, Y = np.meshgrid(xi, eta, indexing="ij")
    Z = X + Y * lat.tau
    # Distance to the nearest lattice point, measured in oblique units.
    red = (X - np.round(X)) + (Y - np.round(Y)) * lat.tau
    dist = np.abs(red)
    mask = dist > puncture_radius

    Zs = np.where(mask, Z, 0.37 + 0.41j)  # dummy value off the pole
    p, pp = wp(Zs, lat)
    g2, _ = eisenstein_invariants(lat)
    ppp = 6.0 * p ** 2 - g2 / 2.0
    pppp = 12.0 * p * pp

    F = np.stack([p.real, p.imag, pp.real, pp.imag], axis=-1)
    Fz = np.stack([pp / 2, -1j * pp / 2, ppp / 2, -1j * ppp / 2], axis=-1)
    Fzz = np.stack([ppp / 2, -1j * ppp / 2, pppp / 2, -1j * pppp / 2], axis=-1)
    lam2 = np.abs(pp) ** 2 + np.abs(ppp) ** 2
    amb = AmbientSpace(kind="euclidean", dim=4)
    return Immersion(
        lattice=lat, scale=1.0, ambient=amb, F=F, Fz=Fz, lam2=lam2,
        mask=mask, flat=False, Fzz=Fzz,
    )


def product_geodesic_torus(L: float, rho: float, n_sphere: int,
                           lens: tuple[int, int], n: int) -> Immersion:
    """Totally geodesic flat torus in S^1(L) x (S^{n_sphere}(rho)/lens).

    The image is the circle factor times the short closed geodesic of the
    lens quotient; periods are (2 pi L, 2 pi rho / p).  Parallel transport
    of the normal plane (e3, e4) is trivial around the circle period and
    the lens rotation by 2 pi q / p around the geodesic one.
    `decompose_commuting_pair` splits that pair into the complexified
    normal lines.  Each line vector is scaled so that its e3 component (its
    e4 component on the line e4) is real and positive, and N^{1,0} comes
    first: the line on which the quarter turn e3 -> e4 acts by +i.  For
    p >= 3 the two lines are isotropic and dual; for p <= 2 the transport
    is +-1 and the decomposition returns e3 and e4.
    """
    p, q = lens
    amb = AmbientSpace(kind="product_circle_sphere", circle_radius=L,
                       sphere_radius=rho, n_sphere=n_sphere, lens=(p, q))
    if p > 1 and n_sphere != 3:
        raise DomainError("twisted lens quotients are supported on S^3 only")
    if n < 2:
        raise ResolutionError("a torus grid needs at least 2 x 2 nodes")
    a_len = 2 * np.pi * L
    b_len = 2 * np.pi * rho / p
    lat = Lattice(0.0, b_len / a_len)
    dim = amb.dim
    xi = np.arange(n) * (1.0 / n)
    # Node (i, j) sits at arc length a_len xi_i on S^1 and s_j = b_len xi_j
    # along the geodesic; the sphere coordinates depend on j alone.
    s = b_len * xi
    cos_s, sin_s = np.cos(s / rho), np.sin(s / rho)
    F = np.zeros((n, n, dim))
    F[:, :, 0] = a_len * xi[:, None]
    F[:, :, 1] = rho * cos_s
    F[:, :, 2] = rho * sin_s
    # Tangents in arc-length chart coordinates (z = x + i y, x along S^1).
    Fz = np.zeros((n, n, dim), dtype=complex)
    Fz[:, :, 0] = 0.5
    Fz[:, :, 1] = -0.5j * (-sin_s)
    Fz[:, :, 2] = -0.5j * cos_s
    lam2 = np.ones((n, n))
    mask = np.ones((n, n), dtype=bool)

    alpha = 2 * np.pi * q / p if p > 1 else 0.0
    rotation = np.array([[np.cos(alpha), -np.sin(alpha)],
                         [np.sin(alpha), np.cos(alpha)]])
    report, _, basis = decompose_commuting_pair(
        FlatBundle(np.eye(2), rotation, lat))
    lines = []
    for summand, v in zip(report.summands, basis.T):
        j = int(abs(v[0]) < 0.5)    # a unit vector has a component >= 1/sqrt2
        lines.append((summand.line_class, v * np.conj(v[j]) / abs(v[j])))
    # conj(v3) v4 is -i/2 on N^{1,0}, +i/2 on its dual and 0 on e3 and e4
    lines.sort(key=lambda line: np.imag(np.conj(line[1][0]) * line[1][1]))
    plane = np.eye(dim)[:, 3:5]
    return Immersion(
        lattice=lat, scale=a_len, ambient=amb, F=F, Fz=Fz, lam2=lam2,
        mask=mask, flat=True, second_ff_zero=True, periods=(a_len, b_len),
        normal_lines=[(hol, plane @ v) for hol, v in lines],
    )


# ---------------------------------------------------------------------------
# derived surface quantities


@dataclass
class SurfaceQuantities:
    tangent_proj: np.ndarray       # (n, n, dim, dim)
    normal_proj: np.ndarray
    branch_mask: np.ndarray


def surface_quantities(imm: Immersion) -> SurfaceQuantities:
    """Pointwise tangent and normal projections, and the branch points."""
    Fx = 2 * np.real(imm.Fz)
    Fy = -2 * np.imag(imm.Fz)
    nrm_x = np.linalg.norm(Fx, axis=2)
    nrm_y = np.linalg.norm(Fy, axis=2)
    branch = (nrm_x < 1e-8) | (nrm_y < 1e-8)
    safe_x = np.where(branch, 1.0, nrm_x)
    safe_y = np.where(branch, 1.0, nrm_y)
    t1 = Fx / safe_x[:, :, None]
    t2 = Fy / safe_y[:, :, None]
    PT = (np.einsum("xyi,xyj->xyij", t1, t1)
          + np.einsum("xyi,xyj->xyij", t2, t2))
    PN = np.eye(imm.dim)[None, None] - PT
    return SurfaceQuantities(tangent_proj=PT, normal_proj=PN,
                             branch_mask=branch)


def second_ff_norm2(imm: Immersion) -> np.ndarray | None:
    """|(F_zz)^perp|^2 per node: zero where `second_ff_zero`, else from the
    stored exact `Fzz`, and None without it."""
    if imm.second_ff_zero:
        return np.zeros((imm.n, imm.n))
    if imm.Fzz is None:
        return None
    perp = np.einsum("xyij,xyj->xyi", surface_quantities(imm).normal_proj,
                     imm.Fzz)
    return np.sum(np.abs(perp) ** 2, axis=2)
