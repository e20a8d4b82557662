"""Flat line and Atiyah bundles over a torus via holonomy representations.

A flat rank-r bundle is a commuting pair of invertible matrices
(rho(1), rho(tau)).  Degree-zero line bundles are the pairs
(e^{i phi}, e^{i theta}); the indecomposable Atiyah bundle is realized by
rho(1) = e^{i phi} I, rho(tau) = e^{i theta} A_delta with A_delta unipotent
upper triangular.

scipy is imported only inside the decomposition's functions, so importing
this module (and the CLI) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, DomainError, ResolutionError,
                     ShapeError)
from .lattice import CoverSpec, Lattice, cover_lattice, wirtinger_factors
from .sections import ProductSection, SectionGrid

# `nilpotent_log` takes A as unipotent when ||(A - I)^r|| <= NILPOTENT_TOL
# max(||A||, 1); `two_torsion_classify` reads an angle within TORSION_TOL of
# 0 or pi as that sign; `decompose_commuting_pair` accepts a relative
# residual up to DECOMPOSE_TOL.
NILPOTENT_TOL = 1e-10
TORSION_TOL = 1e-9
DECOMPOSE_TOL = 1e-8


def principal_angle(x: float) -> float:
    """Wrap an angle into the principal range (-pi, pi]."""
    a = math.remainder(x, 2 * math.pi)
    if a <= -math.pi + 1e-300 or a == -math.pi:
        a = math.pi
    return a


@dataclass(frozen=True)
class LineHolonomy:
    """Holonomy angles of a flat unitary line bundle around (1, tau)."""

    phi: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "phi", principal_angle(self.phi))
        object.__setattr__(self, "theta", principal_angle(self.theta))

    def dual(self) -> "LineHolonomy":
        return LineHolonomy(-self.phi, -self.theta)


def line_section(L: LineHolonomy, k: int, lat: Lattice,
                 n: int) -> ProductSection:
    """Unit almost-holomorphic section of the line bundle over C/(k*Lambda).

    It lives on the cover's lattice Lattice(tau1, tau2, k*scale), whose
    chart carries the pulled-back connection phases (k*phi, k*theta), as the
    pure phase exp(i*(omega_x*x + omega_y*y)) of (x, y) = k*(xi, eta), with
    omega chosen so that the residual connection frequency is the principal
    lift divided by k, kept as its two 1-D waves on the n x n cover grid.
    sup |dbar s| = |phi_k*dxi_dzbar + theta_k*deta_dzbar| in the cover's
    Wirtinger factors is its closed form, `sup_dbar_exact`.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    lifted = LineHolonomy(k * L.phi, k * L.theta)   # the pullback's holonomy
    if n < 8:
        raise ResolutionError("grid must be at least 8")
    omega_x = L.phi - lifted.phi / k   # = 2*pi*(integer)/k
    omega_y = L.theta - lifted.theta / k
    t = np.arange(n) * (k / n)
    f, g = np.exp(1j * omega_x * t), np.exp(1j * omega_y * t)
    # seam audit: over a full period of the cover each wave comes back
    seam = max(abs(np.exp(1j * omega * k) - 1.0) for omega in (omega_x, omega_y))
    cover = Lattice(lat.tau1, lat.tau2, k * lat.scale)
    fxi, feta = wirtinger_factors(cover)
    return ProductSection(
        lattice=cover, f=f, g=g, phi=k * L.phi, theta=k * L.theta,
        seam_residual=float(seam), k=k,
        sup_dbar_exact=abs(lifted.phi * fxi + lifted.theta * feta))


def nilpotent_log(A: np.ndarray) -> np.ndarray:
    """log(A) for unipotent A via the terminating Mercator series."""
    A = np.asarray(A, dtype=complex)
    r = A.shape[0]
    if A.shape != (r, r):
        raise ShapeError("square matrix required")
    N = A - np.eye(r)
    scale = max(np.linalg.norm(A), 1.0)
    if np.linalg.norm(np.linalg.matrix_power(N, r)) > NILPOTENT_TOL * scale:
        raise DomainError("A - I is not nilpotent")
    B = np.zeros_like(N)
    P = np.eye(r, dtype=complex)
    for j in range(1, r):
        P = P @ N
        B += ((-1) ** (j + 1)) * P / j
    return B


@dataclass(frozen=True)
class AtiyahData:
    """The rank-r indecomposable degree-zero bundle with a unipotent twist."""

    r: int
    delta: float

    def __post_init__(self):
        if self.r < 1:
            raise DomainError("rank must be >= 1")
        if not (self.delta > 0):
            raise DomainError("delta must be positive")

    @property
    def A(self) -> np.ndarray:
        out = np.eye(self.r, dtype=complex)
        idx = np.arange(self.r - 1)
        out[idx, idx + 1] = self.delta
        return out

    @property
    def B(self) -> np.ndarray:
        return nilpotent_log(self.A)


@dataclass
class FlatBundle:
    """Commuting holonomy pair over a fixed lattice."""

    rho1: np.ndarray
    rhotau: np.ndarray
    lattice: Lattice
    commute_tol: float = 1e-10

    def __post_init__(self):
        self.rho1 = np.asarray(self.rho1, dtype=complex)
        self.rhotau = np.asarray(self.rhotau, dtype=complex)
        r = self.rho1.shape[0]
        if self.rho1.shape != (r, r) or self.rhotau.shape != (r, r):
            raise ShapeError("holonomy matrices must be square of equal size")
        comm = self.rho1 @ self.rhotau - self.rhotau @ self.rho1
        scale = max(np.linalg.norm(self.rho1) * np.linalg.norm(self.rhotau), 1.0)
        if np.linalg.norm(comm) > self.commute_tol * scale:
            raise DomainError("holonomy matrices do not commute")
        for M, name in ((self.rho1, "rho1"), (self.rhotau, "rhotau")):
            if abs(np.linalg.det(M)) < 1e-12:
                raise DomainError(f"{name} is singular")

    @property
    def rank(self) -> int:
        return self.rho1.shape[0]


def atiyah_sections(data: AtiyahData, lat: Lattice, n: int) -> list[SectionGrid]:
    """The frame w_1..w_r of almost-holomorphic sections.

    In the periodic gauge with the orthonormal metric each w_j is the
    constant coordinate vector, and dbar w_j = -(i/(2*scale*tau2)) B w_j
    holds as a pointwise algebraic identity.
    """
    if n < 8:
        raise ResolutionError("grid must be at least 8")
    B = data.B
    return [SectionGrid(lat, np.tile(w, (n, n, 1)), bmat=B)
            for w in np.eye(data.r)]


# ---------------------------------------------------------------------------
# decomposition of commuting pairs


@dataclass(frozen=True)
class Summand:
    rank: int
    line_class: LineHolonomy


@dataclass
class DecompositionReport:
    summands: list[Summand]
    residual: float
    warnings: list[str] = field(default_factory=list)

    def rank_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(s.rank for s in self.summands))


# A fixed generic weight: distinct joint eigenvalue pairs (a, c) of a
# commuting pair give distinct eigenvalues a + PAIR_MIX * c of A + PAIR_MIX * C.
PAIR_MIX = 0.5772156649 + 1.2020569032j

# Largest ||X||_F of an accepted split T11 X - X T22 = T12 of the Schur form:
# the separating similarity [[I, X], [0, I]] has condition about ||X||^2, so
# 1e4 ~ sqrt(DECOMPOSE_TOL / eps) keeps rounding below DECOMPOSE_TOL.
SPLIT_BOUND = 1e4


def _split_schur(T: np.ndarray, Z: np.ndarray):
    """Reorder the Schur form (T, Z) into well-separated diagonal blocks
    (Bavely-Stewart) and label each eigenvalue by its block's first index.

    A block grows, by moving the nearest remaining eigenvalue next to it,
    until T11 X - X T22 = T12 splits it off the trailing part with
    ||X||_F <= SPLIT_BOUND."""
    from scipy.linalg.lapack import ztrexc, ztrsyl
    n = T.shape[0]
    labels = np.empty(n, dtype=int)
    start = 0
    while start < n:
        end = start + 1
        while end < n:
            X, scale, info = ztrsyl(T[start:end, start:end], T[end:, end:],
                                    T[start:end, end:], isgn=-1)
            if info == 0 and np.linalg.norm(X) <= SPLIT_BOUND * scale:
                break
            ev = np.diag(T)
            gap = np.abs(ev[end:, None] - ev[None, start:end]).min(axis=1)
            nearest = end + int(np.argmin(gap))
            T, Z, info = ztrexc(T, Z, nearest + 1, end + 1)
            if info != 0:
                raise ConvergenceError("Schur reordering failed")
            end += 1
        labels[start:end] = start
        start = end
    return T, Z, labels


def _joint_bases(T: np.ndarray, Z: np.ndarray,
                 labels: np.ndarray) -> list[np.ndarray]:
    """Orthonormal bases of the invariant subspaces of the labelled clusters.

    Each cluster is moved to the front of the Schur form (T, Z) by ztrsen,
    so the leading columns of the reordered Z span its invariant subspace.
    """
    from scipy.linalg.lapack import ztrsen
    bases = []
    for c in np.unique(labels):
        _, Zc, _, m, _, _, info = ztrsen((labels == c).astype(np.int32), T, Z,
                                         job="N")
        if info != 0:
            raise ConvergenceError("Schur reordering failed")
        bases.append(Zc[:, :m])
    return bases


def _jordan_chains(N: np.ndarray, tol: float) -> list[np.ndarray]:
    """Chain bases [N^{p-1}v, ..., Nv, v] of a numerically nilpotent N.

    One SVD of each power N^p, p = 1, 2, ... until its rank is 0 (at most
    p = d), gives both its numerical rank, counting singular values above
    tol * max(||N||_F, 1), and its kernel, spanned by the right singular
    vectors past those above tol * max(s_0, 1).  ConvergenceError when N^d
    still has rank, or when the chains do not span the d dimensions.
    """
    import scipy.linalg
    d = N.shape[0]
    if d == 1:
        return [np.eye(1, dtype=complex)]
    cut = tol * max(np.linalg.norm(N), 1.0)
    powers, ranks = [np.eye(d, dtype=complex)], [d]
    kernels = [np.zeros((d, 0), dtype=complex)]
    while ranks[-1] and len(powers) <= d:
        powers.append(powers[-1] @ N)
        _, s, vh = np.linalg.svd(powers[-1])
        ranks.append(int(np.sum(s > cut)))
        kernels.append(vh[int(np.sum(s > tol * max(s[0], 1.0))):].conj().T)
    if ranks[-1]:
        raise ConvergenceError(f"a joint block of size {d} is not nilpotent "
                               f"to tolerance {tol:g}")
    ranks.append(0)
    chains: list[np.ndarray] = []
    tops: list[tuple[int, np.ndarray]] = []  # (length, top vector)
    for p in range(len(ranks) - 2, 0, -1):
        # chains of length p: (blocks of size >= p) - (blocks of size > p)
        new = ranks[p - 1] - 2 * ranks[p] + ranks[p + 1]
        if new <= 0:
            continue
        # Candidates live in ker(N^p); project them away from ker(N^{p-1})
        # and the level-p images of already-chosen longer chains.
        Q = np.linalg.qr(np.hstack([kernels[p - 1]] + [
            (powers[length - p] @ v)[:, None] for length, v in tops
            if length > p]))[0]
        K = kernels[p]
        u = scipy.linalg.svd(K - Q @ (Q.conj().T @ K), full_matrices=False)[0]
        for v in u[:, :new].T:
            tops.append((p, v))
            chains.append(np.stack([powers[p - 1 - q] @ v for q in range(p)],
                                   axis=1))
    if sum(c.shape[1] for c in chains) != d:
        raise ConvergenceError(f"Jordan chains do not span a joint block of "
                               f"size {d}")
    return chains


def decompose_commuting_pair(bundle: FlatBundle):
    """Split a commuting pair into scalar-times-unipotent blocks.

    Returns (DecompositionReport, filtrations, change_of_basis).  In the
    returned basis both matrices are block diagonal; each block is a scalar
    multiple of a unipotent upper triangular matrix, in an orthonormal basis
    of one Jordan chain ordered along its flag.  The filtration of a summand
    is the nested family spanned by the leading columns of its block.

    When one factor is scalar on each joint block, both matrices are
    polynomials in the generic combination A + PAIR_MIX * C, so one complex
    Schur form of it triangularizes both.  A size-b Jordan block splits its
    eigenvalues by roughly eps**(1/b), so the form is split once, where the
    separating similarity is well conditioned (`_split_schur`), and the
    Jordan chains of each block give its summands.  The residual is the
    relative distance of both matrices from that shape; above DECOMPOSE_TOL,
    ConvergenceError carries the report as `best`.  A block that no chains
    span raises ConvergenceError without one.
    """
    import scipy.linalg
    A, C = bundle.rho1, bundle.rhotau
    T, Z = scipy.linalg.schur(A + PAIR_MIX * C, output="complex")
    out = _decompose_attempt(A, C, _joint_bases(*_split_schur(T, Z)))
    report = out[0]
    if report.residual > DECOMPOSE_TOL:
        report.warnings.append("block residual above tolerance")
        raise ConvergenceError(
            f"no block decomposition within tolerance {DECOMPOSE_TOL:g} "
            f"(residual {report.residual:.2e})", best=report)
    return out


def _angle(lam: complex) -> float:
    """Angle of an eigenvalue, exactly 0 or pi when within DECOMPOSE_TOL of
    either: a trivial or sign factor must not read as a rounding angle."""
    a = float(np.angle(lam))
    if abs(a) <= DECOMPOSE_TOL:
        return 0.0
    return math.pi if math.pi - abs(a) <= DECOMPOSE_TOL else a


def _decompose_attempt(A: np.ndarray, C: np.ndarray,
                       blocks: list[np.ndarray]):
    warnings: list[str] = []
    cols: list[np.ndarray] = []
    summands: list[Summand] = []
    filtrations: list[list[np.ndarray]] = []
    scalars: list[tuple[complex, complex]] = []  # (lamA, lamC) per column
    for Q in blocks:
        A_b, C_b = (Q.conj().T @ M @ Q for M in (A, C))
        lamA, lamC = np.trace(A_b) / len(A_b), np.trace(C_b) / len(C_b)
        NA, NC = A_b - lamA * np.eye(len(A_b)), C_b - lamC * np.eye(len(C_b))
        nA, nC = np.linalg.norm(NA), np.linalg.norm(NC)
        if nA > DECOMPOSE_TOL and nC > DECOMPOSE_TOL:
            N = NA + NC
            warnings.append("joint block has nilpotent parts in both factors")
        elif nC >= nA:
            N = NC
        else:
            N = NA
        line = LineHolonomy(_angle(lamA), _angle(lamC))
        for ch in _jordan_chains(N, DECOMPOSE_TOL):
            # An orthonormal basis of the chain's flag keeps the change of
            # basis well conditioned; the chain vectors can differ in length
            # by orders of magnitude.
            basis = Q @ np.linalg.qr(ch)[0]
            cols.append(basis)
            summands.append(Summand(rank=ch.shape[1], line_class=line))
            filtrations.append([basis[:, :j + 1] for j in range(ch.shape[1])])
            scalars += [(lamA, lamC)] * ch.shape[1]

    T = np.hstack(cols)
    if np.linalg.cond(T) > 1e8:
        warnings.append("ill-conditioned change of basis")
    Tinv = np.linalg.inv(T)
    owner = np.repeat(np.arange(len(summands)), [s.rank for s in summands])
    # the target shape: each block its scalar plus a strictly upper part
    upper = np.triu(owner[:, None] == owner[None], 1)
    residual = 0.0
    for M, lam in zip((A, C), np.transpose(scalars)):
        shaped = np.where(upper, Tinv @ M @ T, 0.0) + np.diag(lam)
        residual = max(residual,
                       float(np.linalg.norm(T @ shaped @ Tinv - M)
                             / max(np.linalg.norm(M), 1.0)))
    return DecompositionReport(summands, residual, warnings), filtrations, T


def pullback_bundle(bundle: FlatBundle, spec: CoverSpec) -> FlatBundle:
    """Holonomy of the pullback to the sublattice cover.

    The lifted generators are the words rho(1)^a rho(tau)^b and
    rho(1)^c rho(tau)^d read off the sublattice basis rows.
    """
    def power(M, e):
        if e >= 0:
            return np.linalg.matrix_power(M, e)
        return np.linalg.matrix_power(np.linalg.inv(M), -e)

    (a, b), (c, d) = spec.basis
    r1 = power(bundle.rho1, a) @ power(bundle.rhotau, b)
    r2 = power(bundle.rho1, c) @ power(bundle.rhotau, d)
    return FlatBundle(r1, r2, cover_lattice(bundle.lattice, spec))


TWO_TORSION_LABELS = ("0", "1/2", "tau/2", "(1+tau)/2")


def two_torsion_classify(L: LineHolonomy) -> str | None:
    """Which of the four self-dual points the line bundle represents."""
    def sign_of(angle):
        if abs(principal_angle(angle)) <= TORSION_TOL:
            return 1
        if abs(abs(principal_angle(angle)) - math.pi) <= TORSION_TOL:
            return -1
        return 0

    su, sv = sign_of(L.phi), sign_of(L.theta)
    table = {(1, 1): "0", (-1, 1): "1/2", (1, -1): "tau/2", (-1, -1): "(1+tau)/2"}
    return table.get((su, sv))
