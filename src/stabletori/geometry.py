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

from .bundles import LineHolonomy, principal_angle
from .errors import DomainError, ResolutionError, ShapeError, WrongFormError
from .lattice import CoverSpec, Lattice, cover_lattice
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

    def tangent_basis(self) -> np.ndarray:
        """Columns: orthonormal tangent vectors at the base point, in ambient
        coordinates.  For the product kind the base point is
        (0, rho, 0, ..., 0), so they are the axes e_0, e_2, ..., e_{dim-1}."""
        axes = np.eye(self.dim)
        if self.kind == "product_circle_sphere":
            return np.delete(axes, 1, axis=1)
        return axes

    def curvature_operator(self) -> np.ndarray:
        """The curvature operator <R(e_i ^ e_j), e_k ^ e_l> on Lambda^2 of the
        4-dimensional tangent space at the base point (the model geometries
        are homogeneous, so one point stands for all).

        Rows and columns run over e_01, e_02, e_03, e_12, e_13, e_23 for the
        `tangent_basis` columns e_0..e_3, so the diagonal holds the
        sectional curvatures K_ij = R(e_i, e_j, e_i, e_j).  The 36 entries
        come from one stacked `curvature` call.  Raises WrongFormError
        unless tangent_dim == 4.
        """
        if self.tangent_dim != 4:
            raise WrongFormError("the curvature operator needs a "
                                 "4-dimensional tangent space, got "
                                 f"{self.tangent_dim}")
        E = self.tangent_basis().T
        i, j = np.array(_WEDGE_PAIRS).T
        shape = (len(i), len(i), self.dim)
        X, Y = (np.broadcast_to(E[a][:, None], shape) for a in (i, j))
        Z, W = (np.broadcast_to(E[a][None], shape) for a in (i, j))
        return self.curvature(X, Y, Z, W).real

    def curvature(self, X, Y, Z, W):
        """(0,4) curvature tensor at the base point, extended complex
        multilinearly (the model geometries are homogeneous, so one point
        stands for all).

        Vectors are in ambient coordinates, stacked alike as (..., dim)
        arrays; the result has the stacked shape (...).  For the
        product kind only their projections onto the sphere's tangent space
        enter.
        """
        if self.is_flat:
            return np.zeros(np.shape(X)[:-1], dtype=complex)[()]
        return self._sphere_curvature(*map(_sphere_part, (X, Y, Z, W)))

    def _sphere_curvature(self, xs, ys, zs, ws):
        """The curvature tensor of the round sphere on projected vectors."""
        k = 1.0 / self.sphere_radius ** 2
        return k * (_dot(xs, zs) * _dot(ys, ws) - _dot(xs, ws) * _dot(ys, zs))


def _sphere_part(v):
    """Projection of stacked (..., dim) vectors onto the sphere's tangent
    space at the base point (0, rho, 0, ..., 0): coordinates 2 and up."""
    return np.asarray(v, dtype=complex)[..., 2:]


def _dot(a, b):
    """Complex bilinear pairing of stacked (..., d) vectors."""
    return np.einsum("...i,...i->...", a, b)


# ---------------------------------------------------------------------------
# kappa-PIC from the curvature operator

# Index pairs (i, j) of the basis e_i ^ e_j of Lambda^2 R^4.
_WEDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# Orthogonal basis of Lambda^2 R^4 in the coordinates of _WEDGE_PAIRS, each
# row of norm sqrt 2: rows 0-2 span the self-dual forms Lambda^+ for the
# volume form e_0123, rows 3-5 the anti-self-dual forms Lambda^-.  Integer
# entries and one exact halving keep an exact operator's blocks exact.
_SELF_DUAL_BASIS = np.array([
    [1, 0, 0, 0, 0, 1], [0, 1, 0, 0, -1, 0], [0, 0, 1, 1, 0, 0],
    [1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0], [0, 0, 1, -1, 0, 0],
], dtype=float)


def pic_kappa(operator) -> float:
    """kappa = min K(Pi) over isotropic planes, read off a curvature
    operator on Lambda^2 R^4 (as `AmbientSpace.curvature_operator` gives).

    With A and C its Lambda^+ and Lambda^- diagonal blocks in the
    orthonormal basis `_SELF_DUAL_BASIS / sqrt 2`, and a_1 <= a_2,
    c_1 <= c_2 their two lowest eigenvalues, kappa = min(a_1 + a_2,
    c_1 + c_2) / 2: Hamilton's PIC criterion (Comm. Anal. Geom. 5, 1997) in
    the normalization K(Pi) = R(X, Y, conj X, conj Y) / |X ^ Y|^2 of
    Micallef-Moore (Ann. Math. 127, 1988).

    Proof: every isotropic plane is spanned by X = e_0 + i e_1 and
    Y = e_2 + i e_3 for an orthonormal frame e, and X ^ Y = u + i v with
    u = e_02 - e_13 and v = e_03 + e_12, orthogonal of equal norm, in
    Lambda^+ for a positive frame and in Lambda^- for a negative one.  SO(4)
    moves (u, v) to every orthogonal pair of equal norm in its factor, and
    K = (<Au, u> + <Av, v>) / (|u|^2 + |v|^2) is half the trace of A on
    span(u, v), whose minimum is (a_1 + a_2) / 2; the block between
    Lambda^+ and Lambda^- never enters.

    Raises ShapeError unless the operator is 6 x 6, and DomainError unless
    it is finite and symmetric to 1e-12 of its largest entry (a non-finite
    entry fails the comparison).
    """
    op = np.asarray(operator, dtype=float)
    if op.shape != (6, 6):
        raise ShapeError(f"curvature operator must be 6 x 6, got {op.shape}")
    if not np.abs(op - op.T).max() <= 1e-12 * np.abs(op).max():
        raise DomainError("curvature operator is not finite and symmetric")
    T = _SELF_DUAL_BASIS @ op @ _SELF_DUAL_BASIS.T / 2
    a = np.linalg.eigvalsh(T[:3, :3])
    c = np.linalg.eigvalsh(T[3:, 3:])
    return float(min(a[0] + a[1], c[0] + c[1]) / 2)


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


def complex_sectional_curvatures(N: AmbientSpace, X, Y) -> np.ndarray:
    """K(Pi) = R(X, Y, conj X, conj Y) / |X wedge Y|^2 for stacked planes at
    the base point.

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
        # the projection is a coordinate slice, so it commutes with
        # conjugation: X and Y are projected once
        xs, ys = _sphere_part(X), _sphere_part(Y)
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
    rng = np.random.default_rng(seed)

    best_val = np.inf
    best_plane = None
    for start in range(0, samples, KAPPA_BLOCK):
        A = rng.standard_normal((min(KAPPA_BLOCK, samples - start), nt, 4))
        # one product maps the whole block to ambient coordinates
        E = np.tensordot(basis, _orthonormal_frames(A), (1, 1))
        E = E.transpose(1, 0, 2)
        X, Y = E[..., 0] + 1j * E[..., 1], E[..., 2] + 1j * E[..., 3]
        vals = complex_sectional_curvatures(N, X, Y)
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

    The chart is its lattice's, z = scale * (xi + eta * tau) over [0,1)^2;
    lam2 is the conformal factor with da = lam2 * dxdy.
    """

    lattice: Lattice
    ambient: AmbientSpace
    Fz: np.ndarray                    # (n, n, dim) complex
    lam2: np.ndarray                  # (n, n)
    mask: np.ndarray                  # (n, n) bool, True where active
    puncture_dist: np.ndarray         # (n, n), base-chart |xi + eta tau|

    @property
    def n(self) -> int:
        return self.Fz.shape[0]

    @property
    def dim(self) -> int:
        return self.Fz.shape[2]

    def dxdy_weight(self) -> float:
        """Chart measure of one grid cell."""
        return self.lattice.scale ** 2 * self.lattice.tau2 / self.n ** 2

    def da_field(self) -> np.ndarray:
        """Induced area of each grid cell (zero on masked cells)."""
        out = self.lam2 * self.dxdy_weight()
        return np.where(self.mask, out, 0.0)

    def cover(self, spec: CoverSpec) -> "Immersion":
        """The immersion of the scaling cover ((k, 0), (0, k)), k >= 1: on
        `cover_lattice`, of scale k * scale, every node field tiled k x k
        onto its kn x kn grid.  Any other spec raises DomainError."""
        (k, shear_x), (shear_y, ky) = spec.basis
        if (shear_x, shear_y, ky) != (0, 0, k) or k < 1:
            raise DomainError(f"{spec.basis} is no scaling cover, k >= 1")
        tiled = (np.tile(a, (k, k) + (1,) * (a.ndim - 2))
                 for a in (self.Fz, self.lam2, self.mask, self.puncture_dist))
        return Immersion(cover_lattice(self.lattice, spec), self.ambient,
                         *tiled)


@dataclass
class FlatTorus:
    """Flat totally geodesic torus with periods (a, b), held in closed form.

    Its `lattice` is a (Z + Z i b / a), whose chart z = a (xi + i eta b / a)
    over (xi, eta) in [0,1)^2 is an isometry with unit conformal factor.
    `frame` holds the real unit tangents along xi and eta, (2, dim), in
    ambient coordinates at the base point: the ambient is homogeneous and
    the torus totally geodesic, so one point stands for all.
    `normal_lines` are the flat lines of its complexified normal bundle,
    each with its holonomy.  `n` is the side of the n x n grid that its
    forms and trial sections are sampled on; nothing of size n^2 is stored.
    """

    periods: tuple[float, float]
    ambient: AmbientSpace
    n: int
    frame: np.ndarray
    normal_lines: list[tuple[LineHolonomy, np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        if self.n < 2:
            raise ResolutionError("a torus grid needs at least 2 x 2 nodes")

    @property
    def lattice(self) -> Lattice:
        a, b = self.periods
        return Lattice(0.0, b / a, a)

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def cover(self, spec: CoverSpec) -> "FlatTorus":
        """The torus of the diagonal cover ((kx, 0), (0, ky)): periods
        (kx a, ky b), on the same ambient, frame and grid, with each normal
        line's holonomy lifted by `LineHolonomy.lift`.  A sheared spec, or a
        diagonal entry below 1 (negative periods), raises DomainError."""
        (kx, shear_x), (shear_y, ky) = spec.basis
        if shear_x != 0 or shear_y != 0 or min(kx, ky) < 1:
            raise DomainError(f"{spec.basis} is no diagonal cover, kx, ky >= 1")
        lines = [(LineHolonomy(*hol.lift(spec)), e)
                 for hol, e in self.normal_lines]
        a, b = self.periods
        return FlatTorus((kx * a, ky * b), self.ambient, self.n, self.frame,
                         lines)


def elliptic_curve_immersion(lat: Lattice, puncture_radius: float,
                             n: int) -> Immersion:
    """The elliptic curve (wp, wp') in R^4, punctured at the lattice point.

    Holomorphic, hence conformal and minimal.  F_z is stored analytically
    from wp'' = 6 wp^2 - g2/2, so the conformality residual is exact and no
    derivative crosses the puncture.
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

    Fz = np.stack([pp / 2, -1j * pp / 2, ppp / 2, -1j * ppp / 2], axis=-1)
    lam2 = np.abs(pp) ** 2 + np.abs(ppp) ** 2
    amb = AmbientSpace(kind="euclidean", dim=4)
    return Immersion(lattice=lat, ambient=amb, Fz=Fz, lam2=lam2, mask=mask,
                     puncture_dist=dist)


def product_geodesic_torus(L: float, rho: float, n_sphere: int,
                           lens: tuple[int, int], n: int) -> FlatTorus:
    """Totally geodesic flat torus in S^1(L) x (S^{n_sphere}(rho)/lens).

    The image is the circle factor times the short closed geodesic of the
    lens quotient; periods are (2 pi L, 2 pi rho / p).  At the base point
    (0, rho, 0, ..., 0) the circle runs along e0 and the geodesic along e2,
    (rho cos(s / rho), rho sin(s / rho)) in the (e1, e2) plane.  Parallel
    transport of the normal plane (e3, e4) is trivial around the circle
    period and the rotation by alpha = 2 pi q / p around the geodesic one,
    so the complexified normal lines are written down: for p >= 3 they are
    (e3 -+ i e4) / sqrt 2 with holonomy (0, +-alpha), N^{1,0} first (the
    line on which the quarter turn e3 -> e4 acts by +i), isotropic and
    dual; for p <= 2 the transport is +-1 and they are e3 and e4.
    """
    p, q = lens
    amb = AmbientSpace(kind="product_circle_sphere", circle_radius=L,
                       sphere_radius=rho, n_sphere=n_sphere, lens=(p, q))
    if p > 1 and n_sphere != 3:
        raise DomainError("twisted lens quotients are supported on S^3 only")
    alpha = principal_angle(2 * np.pi * q / p) if p > 1 else 0.0
    e3, e4 = np.eye(amb.dim, dtype=complex)[3:5]
    hol = LineHolonomy(0.0, alpha)
    if p <= 2:
        lines = [(hol, e3), (hol, e4)]
    else:
        lines = [(hol, (e3 - 1j * e4) / np.sqrt(2)),
                 (LineHolonomy(0.0, -alpha), (e3 + 1j * e4) / np.sqrt(2))]
    return FlatTorus((2 * np.pi * L, 2 * np.pi * rho / p), amb, n,
                     np.eye(amb.dim)[[0, 2]], lines)


# ---------------------------------------------------------------------------
# derived surface quantities


@dataclass
class SurfaceQuantities:
    """Orthonormal real 2-frames of the tangent and the normal plane at
    every node, (n, n, 2, dim): rows F with F F^T = I, and F^T F the
    plane's orthogonal projector."""

    tangent_frame: np.ndarray
    normal_frame: np.ndarray


def surface_quantities(imm: Immersion) -> SurfaceQuantities:
    """The tangent and normal frames of a holomorphic curve in C^2 = R^4,
    in closed form.

    F_z = (u, -i u, v, -i v) makes the tangent plane the complex line of
    w = 2 (u, v), with |w|^2 = lam2, and the normal plane its Hermitian
    complement, spanned by nu = (-conj w_2, conj w_1) of the same length.
    The frames are the real forms (Re, Im per complex coordinate) of
    (w, i w) / |w| and (nu, i nu) / |w|.  An F_z not of that form to 1e-12
    relative at every node raises WrongFormError; a node with |w|^2 <= 0 (a
    branch point, where the tangent plane degenerates) raises DomainError
    with the count of such nodes.
    """
    Fz = imm.Fz
    if Fz.shape[2:] != (4,) or not np.all(
            np.abs(Fz[..., 1::2] + 1j * Fz[..., 0::2])
            <= 1e-12 * np.linalg.norm(Fz, axis=2)[..., None]):
        raise WrongFormError("not a holomorphic curve in C^2")
    w = 2 * Fz[..., 0::2]
    lam2 = np.sum(np.abs(w) ** 2, axis=2)
    if bad := np.count_nonzero(~(lam2 > 0)):     # a NaN counts as bad
        raise DomainError(f"branch point: no tangent frame at {bad} nodes")
    w /= np.sqrt(lam2)[..., None]
    nu = np.stack([-np.conj(w[..., 1]), np.conj(w[..., 0])], axis=-1)
    # a complex (n, n, 2, 2) stack viewed as floats is its real form
    return SurfaceQuantities(*(np.stack([c, 1j * c], axis=2).view(float)
                               for c in (w, nu)))
