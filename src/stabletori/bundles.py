"""Flat line and Atiyah bundles over a torus via holonomy representations.

A flat rank-r bundle is a commuting pair of invertible matrices
(rho(1), rho(tau)).  Degree-zero line bundles are the pairs
(e^{i phi}, e^{i theta}); the indecomposable Atiyah bundle is realized by
rho(1) = e^{i phi} I, rho(tau) = e^{i theta} A_delta with A_delta unipotent
upper triangular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrsen

from .errors import (ConvergenceError, DomainError, InvalidCoverError,
                     ShapeError)
from .lattice import CoverSpec, Lattice, cover_lattice, wirtinger_factors
from .sections import SectionGrid


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


def lift_line_holonomy(L: LineHolonomy, k: int) -> LineHolonomy:
    """Holonomy of the pullback to the cover C/(k*Lambda)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return LineHolonomy(principal_angle(k * L.phi), principal_angle(k * L.theta))


def line_section(L: LineHolonomy, k: int, lat: Lattice, n: int) -> SectionGrid:
    """Unit almost-holomorphic section of the line bundle over C/(k*Lambda).

    In the periodic gauge the section is the pure phase
    c(xi, eta) = exp(i*(omega_x*xi + omega_y*eta)) with omega chosen so that
    the residual connection frequency is the principal lift divided by k.
    sup |dbar s| then equals (1/k)|phi_k*dxi_dzbar + theta_k*deta_dzbar|
    in closed form; that value is attached to the metadata.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if n < 8:
        raise DomainError("grid must be at least 8")
    lifted = lift_line_holonomy(L, k)
    omega_x = L.phi - lifted.phi / k   # = 2*pi*(integer)/k
    omega_y = L.theta - lifted.theta / k
    h = k / n
    xi = np.arange(n) * h
    eta = np.arange(n) * h
    X, Y = np.meshgrid(xi, eta, indexing="ij")
    vals = np.exp(1j * (omega_x * X + omega_y * Y))[:, :, None]
    # Seam audit in the flat trivialization: over a full horizontal period
    # the representative must come back through the lifted holonomy.
    left = np.exp(1j * omega_x * k) * vals[0, :, 0]
    res_x = float(np.max(np.abs(left - vals[0, :, 0] * 1.0)))
    top = np.exp(1j * omega_y * k) * vals[:, 0, 0]
    res_y = float(np.max(np.abs(top - vals[:, 0, 0] * 1.0)))
    fxi, feta = wirtinger_factors(lat)
    sup_dbar = abs(lifted.phi * fxi + lifted.theta * feta) / k
    return SectionGrid(
        lattice=lat, a=float(k), b=float(k), values=vals,
        phi=L.phi, theta=L.theta,
        seam_residual=max(res_x, res_y),
        meta={"sup_dbar_exact": sup_dbar, "k": k, "holonomy": L},
    )


def nilpotent_log(A: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """log(A) for unipotent A via the terminating Mercator series."""
    A = np.asarray(A, dtype=complex)
    r = A.shape[0]
    if A.shape != (r, r):
        raise ShapeError("square matrix required")
    N = A - np.eye(r)
    scale = max(np.linalg.norm(A), 1.0)
    if np.linalg.norm(np.linalg.matrix_power(N, r)) > tol * scale:
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
    constant coordinate vector, and dbar w_j = -(i/(2*tau2)) B w_j holds as
    a pointwise algebraic identity.
    """
    if n < 8:
        raise DomainError("grid must be at least 8")
    B = data.B
    out = []
    for j in range(data.r):
        vals = np.zeros((n, n, data.r), dtype=complex)
        vals[:, :, j] = 1.0
        out.append(SectionGrid(
            lattice=lat, a=1.0, b=1.0, values=vals,
            phi=0.0, theta=0.0, bmat=B,
            seam_residual=0.0,
            meta={"atiyah": data, "index": j},
        ))
    return out


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


def _joint_clusters(pairs: np.ndarray, tol: float) -> np.ndarray:
    """Cluster label of each pair: the first index of its chain of pairs
    linked by max-norm distance <= tol * scale (single linkage)."""
    scale = max(np.max(np.abs(pairs)), 1.0)
    reach = np.max(np.abs(pairs[:, None] - pairs[None]), axis=2) <= tol * scale
    for _ in range(len(pairs).bit_length()):  # transitive closure
        reach = reach @ reach
    return np.argmax(reach, axis=1)


def _joint_bases(T: np.ndarray, Z: np.ndarray,
                 labels: np.ndarray) -> list[np.ndarray]:
    """Orthonormal bases of the invariant subspaces of the labelled clusters.

    Each cluster is moved to the front of the Schur form (T, Z) by ztrsen,
    so the leading columns of the reordered Z span its invariant subspace.
    """
    bases = []
    for c in np.unique(labels):
        _, Zc, _, m, _, _, info = ztrsen((labels == c).astype(np.int32), T, Z,
                                         job="N")
        if info != 0:
            raise np.linalg.LinAlgError("Schur reordering failed")
        bases.append(Zc[:, :m])
    return bases


def _jordan_chains(N: np.ndarray, tol: float) -> list[np.ndarray]:
    """Chain bases [N^{p-1}v, ..., Nv, v] of a numerically nilpotent N.

    One SVD of each power N^p, p = 1, 2, ... until its rank is 0 (at most
    p = d), gives both its numerical rank, counting singular values above
    tol * max(||N||_F, 1), and its kernel, spanned by the right singular
    vectors past those above tol * max(s_0, 1).
    """
    d = N.shape[0]
    if d == 1:
        return [np.eye(1, dtype=complex)]
    cut = tol * max(np.linalg.norm(N), 1.0)
    powers = [np.eye(d, dtype=complex)]
    ranks = [d]
    kernels = [np.zeros((d, 0), dtype=complex)]
    while ranks[-1] and len(powers) <= d:
        powers.append(powers[-1] @ N)
        _, s, vh = np.linalg.svd(powers[-1])
        ranks.append(int(np.sum(s > cut)))
        kernels.append(vh[int(np.sum(s > tol * max(s[0], 1.0))):].conj().T)
    pmax = len(ranks) - 1  # nilpotency index
    chains: list[list[np.ndarray]] = []
    tops: list[tuple[int, np.ndarray]] = []  # (length, top vector)
    for p in range(pmax, 0, -1):
        blocks_ge_p = ranks[p - 1] - ranks[p]
        blocks_ge_p1 = ranks[p] - ranks[p + 1] if p + 1 < len(ranks) else 0
        new = blocks_ge_p - blocks_ge_p1
        if new <= 0:
            continue
        # Candidates live in ker(N^p); exclude ker(N^{p-1}) and the level-p
        # images of already-chosen longer chains.
        K = kernels[p]
        excl = [kernels[p - 1]]
        for (length, v) in tops:
            if length > p:
                excl.append((powers[length - p] @ v)[:, None])
        E = np.hstack(excl) if excl else np.zeros((d, 0))
        # Project the candidate space away from the excluded span.
        Q, _ = np.linalg.qr(E) if E.shape[1] else (np.zeros((d, 0)), None)
        C = K - Q @ (Q.conj().T @ K)
        u, s, vh = scipy.linalg.svd(C, full_matrices=False)
        picks = u[:, :new]
        for i in range(new):
            v = picks[:, i]
            tops.append((p, v))
            chain = [powers[p - 1 - q] @ v for q in range(p)]
            chains.append(chain)
    return [np.stack(c, axis=1) for c in chains]


def decompose_commuting_pair(bundle: FlatBundle, tol: float = 1e-8):
    """Split a commuting pair into scalar-times-unipotent blocks.

    Returns (DecompositionReport, filtrations, change_of_basis).  In the
    returned basis both matrices are block diagonal; each block is a scalar
    multiple of a unipotent upper triangular matrix, in an orthonormal basis
    of one Jordan chain ordered along its flag.  The filtration of a summand
    is the nested family spanned by the leading columns of its block.

    When one factor is scalar on each joint block, both matrices are
    polynomials in the generic combination A + PAIR_MIX * C, so one complex
    Schur form Z of it triangularizes both and gives every joint eigenvalue
    pair on the diagonals of Z^H A Z and Z^H C Z.
    The pairs of a defective Jordan block of size b split numerically by
    roughly eps**(1/b), so the pairs are clustered along a ladder of
    tolerances, every rung reusing the same Schur form and skipping a
    partition already tried; the first rung whose block-diagonalization
    residual meets `tol` wins.  If none does, ConvergenceError carries the
    report of the best rung as `best`.
    """
    A, C = bundle.rho1, bundle.rhotau
    T, Z = scipy.linalg.schur(A + PAIR_MIX * C, output="complex")
    pairs = np.stack([np.diag(Z.conj().T @ M @ Z) for M in (A, C)], axis=1)
    rungs = [max(tol, 1e-7)]
    while rungs[-1] * 10.0 <= 1e-2:
        rungs.append(rungs[-1] * 10.0)
    best = labels = None
    for ctol in rungs:
        prev, labels = labels, _joint_clusters(pairs, ctol)
        if prev is not None and np.array_equal(labels, prev):
            continue
        try:
            out = _decompose_attempt(A, C, _joint_bases(T, Z, labels), tol)
        except np.linalg.LinAlgError:
            continue
        if out[0].residual <= max(tol, 1e-9):
            if ctol > rungs[0]:
                out[0].warnings.append(
                    f"eigenvalue clusters merged at tolerance {ctol:g}")
            return out
        if best is None or out[0].residual < best.residual:
            best = out[0]
    if best is None:
        raise ConvergenceError("no consistent block decomposition found")
    best.warnings.append("block residual above tolerance at every "
                         "clustering level")
    raise ConvergenceError(
        f"no block decomposition within tolerance {tol:g} "
        f"(best residual {best.residual:.2e})", best=best)


def _decompose_attempt(A: np.ndarray, C: np.ndarray,
                       blocks: list[np.ndarray], tol: float):
    warnings: list[str] = []
    cols: list[np.ndarray] = []
    summands: list[Summand] = []
    filtrations: list[list[np.ndarray]] = []
    for Q in blocks:
        A_b = Q.conj().T @ A @ Q
        C_b = Q.conj().T @ C @ Q
        d = Q.shape[1]
        lamA = np.trace(A_b) / d
        lamC = np.trace(C_b) / d
        NA = A_b - lamA * np.eye(d)
        NC = C_b - lamC * np.eye(d)
        nA, nC = np.linalg.norm(NA), np.linalg.norm(NC)
        if nA > tol and nC > tol:
            N = NA + NC
            warnings.append("joint block has nilpotent parts in both factors")
        elif nC >= nA:
            N = NC
        else:
            N = NA
        line = LineHolonomy(float(np.angle(lamA)), float(np.angle(lamC)))
        for ch in _jordan_chains(N, tol):
            # An orthonormal basis of the chain's flag keeps the change of
            # basis well conditioned; the chain vectors can differ in length
            # by orders of magnitude.
            basis = Q @ np.linalg.qr(ch)[0]
            cols.append(basis)
            summands.append(Summand(rank=ch.shape[1], line_class=line))
            filtrations.append([basis[:, :j + 1] for j in range(ch.shape[1])])

    T = np.hstack(cols)
    if np.linalg.cond(T) > 1e8:
        warnings.append("ill-conditioned change of basis")
    Tinv = np.linalg.inv(T)
    owner = np.repeat(np.arange(len(summands)), [s.rank for s in summands])
    in_block = owner[:, None] == owner[None]
    residual = 0.0
    for M in (A, C):
        Mblk = np.where(in_block, Tinv @ M @ T, 0.0)
        residual = max(residual,
                       float(np.linalg.norm(T @ Mblk @ Tinv - M)
                             / max(np.linalg.norm(M), 1.0)))
    report = DecompositionReport(summands=summands, residual=residual,
                                 warnings=warnings)
    return report, filtrations, T


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
    new_lat, _, _ = cover_lattice(bundle.lattice, spec)
    return FlatBundle(r1, r2, new_lat)


def stabilization_scan(bundle: FlatBundle, tower: list[CoverSpec]) -> int:
    """First level after which summand rank multisets stop changing.

    Level 1 is the base torus; level j+1 is tower[j-1].  Returns the
    smallest K such that the multiset is constant from level K onward.
    """
    multisets = [decompose_commuting_pair(bundle)[0].rank_multiset()]
    for spec in tower:
        lifted = pullback_bundle(bundle, spec)
        multisets.append(decompose_commuting_pair(lifted)[0].rank_multiset())
    K = len(multisets)
    for i in range(len(multisets) - 1, -1, -1):
        if multisets[i] == multisets[-1]:
            K = i + 1
        else:
            break
    return K


TWO_TORSION_LABELS = ("0", "1/2", "tau/2", "(1+tau)/2")


def two_torsion_classify(L: LineHolonomy, tol: float = 1e-9) -> str | None:
    """Which of the four self-dual points the line bundle represents."""
    def sign_of(angle):
        if abs(principal_angle(angle)) <= tol:
            return 1
        if abs(abs(principal_angle(angle)) - math.pi) <= tol:
            return -1
        return 0

    su, sv = sign_of(L.phi), sign_of(L.theta)
    table = {(1, 1): "0", (-1, 1): "1/2", (1, -1): "tau/2", (-1, -1): "(1+tau)/2"}
    return table.get((su, sv))


@dataclass
class PairingReport:
    forced_zero: list[tuple[int, int]]
    unconstrained: list[tuple[int, int]]
    max_violation: float
    notes: list[str]


def pairing_orthogonality(lines: list[LineHolonomy],
                          pairing: np.ndarray,
                          tol: float = 1e-9) -> PairingReport:
    """Check which pairing entries the holonomy invariance forces to zero.

    The pairing is a constant complex symmetric matrix in the flat
    trivialization of the direct sum of the given line bundles; invariance
    under both holonomy generators multiplies entry (i, j) by
    e^{i(phi_i + phi_j)} and e^{i(theta_i + theta_j)}.  Entries with a
    nontrivial multiplier must vanish; diagonal self-dual entries are free.
    """
    S = np.asarray(pairing, dtype=complex)
    m = len(lines)
    if S.shape != (m, m):
        raise ShapeError("pairing size mismatch")
    if np.linalg.norm(S - S.T) > tol * max(np.linalg.norm(S), 1.0):
        raise DomainError("pairing must be symmetric")
    D1 = np.diag([np.exp(1j * L.phi) for L in lines])
    D2 = np.diag([np.exp(1j * L.theta) for L in lines])
    scale = max(np.linalg.norm(S), 1.0)
    for D in (D1, D2):
        if np.linalg.norm(D.T @ S @ D - S) > tol * scale:
            raise DomainError("pairing is not invariant under the holonomy")

    forced, free = [], []
    violation = 0.0
    notes = []
    for i in range(m):
        for j in range(i, m):
            dual = (abs(principal_angle(lines[i].phi + lines[j].phi)) <= tol
                    and abs(principal_angle(lines[i].theta + lines[j].theta)) <= tol)
            if dual:
                free.append((i, j))
                if i == j:
                    notes.append(f"entry ({i},{i}): self-dual, nondegenerate allowed")
            else:
                forced.append((i, j))
                violation = max(violation, float(abs(S[i, j])))
    return PairingReport(forced_zero=forced, unconstrained=free,
                         max_violation=violation, notes=notes)


def lift_degree(d: int, covering_degree: int) -> int:
    """First Chern number of the pullback under a covering of given degree."""
    if covering_degree < 1:
        raise InvalidCoverError("covering degree must be >= 1")
    return covering_degree * d


def h0_indecomposable(d: int, r: int):
    """Dimension of the space of holomorphic sections over a genus-1 base.

    Positive degree gives d; degree zero gives 0 or 1 depending on the
    (unspecified here) line class, so both possibilities are reported.
    """
    if r < 1:
        raise DomainError("rank must be >= 1")
    if d > 0:
        return d
    if d == 0:
        return (0, 1)
    return 0


def global_generation_hypothesis(d: int, r: int) -> bool:
    """Degree threshold under which global generation is guaranteed."""
    if r < 1:
        raise DomainError("rank must be >= 1")
    return d > r + 2
