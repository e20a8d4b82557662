"""Discrete second-variation forms, twisted eigenproblems, and cutoffs.

Every `DiscreteForm` is assembled as a sparse Hermitian matrix over grid
degrees of freedom.  Its Hermitian symmetry is checked where that is
cheapest: `flat_twisted_form` checks its stencil coefficients, and every
other form, including one a caller builds directly, is checked on the
assembled matrix.  Each form records its measure convention ("dxdy" or
"da") because the two appear side by side in the inequalities being
verified; mixing them silently is the classic error this tag prevents.
The elliptic stability audit builds no matrix: like the cutoff audit, it
evaluates the Euclidean index form matrix-free, as grid densities
(`_index_densities`) summed against the cell measure.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bundles import principal_angle
from .errors import (ConvergenceError, DomainError, IsotropyViolationError,
                     ResolutionError, ShapeError, WrongFormError)
from .geometry import (AmbientSpace, Immersion, SurfaceQuantities,
                       surface_quantities)
from .lattice import Lattice, wirtinger_factors
from .sections import SectionGrid, dbar, wirtinger_diff

SYMBOL_TOL = 1e-9   # relative residual and probe bound of min_eigenvalue
STABLE_TOL = 1e-12  # stable means a continuum bottom >= -STABLE_TOL (rounding)


# ---------------------------------------------------------------------------
# forms


@dataclass
class DiscreteForm:
    """Hermitian quadratic form Q and mass form M over section dofs.

    meta["symbol"], when present, is the n x n array of the generalized
    eigenvalues of (Q, M), indexed by the FFT mode (mx, my) whose grid plane
    wave is the eigenvector; min_eigenvalue needs it.  meta["continuum"] is
    (c, gap, size): the exact continuum bottom, how far below it the discrete
    bottom may lie, and the size of c's terms, which sets its rounding.

    Q must be Hermitian: ||Q - Q^H||_F <= 1e-12 max(||Q||_F, 1), else
    DomainError.  Both norms come from the matrix, unless the builder passes
    them as `_norms`, computed from the stencil it assembled Q from.
    """

    Q: sp.spmatrix
    M: sp.spmatrix
    convention: str                 # measure convention of Q ("dxdy" or "da")
    shape: tuple                    # logical dof layout, e.g. (n, n) or (n, n, dim)
    meta: dict = field(default_factory=dict)
    _norms: InitVar[tuple[float, float] | None] = None

    def __post_init__(self, _norms):
        self.Q = self.Q.tocsr()
        self.M = self.M.tocsr()
        herm, norm = _hermitian_norms(self.Q) if _norms is None else _norms
        if not herm <= 1e-12 * max(norm, 1.0):     # also rejects NaN entries
            raise DomainError("form is not Hermitian")

    @property
    def dof(self) -> int:
        return self.Q.shape[0]

    def pack(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=complex).reshape(-1)
        sel = self.meta.get("active")
        return v[sel] if sel is not None else v

    def q_value(self, values: np.ndarray) -> float:
        v = self.pack(values)
        return float(np.real(np.vdot(v, self.Q @ v)))

    def m_value(self, values: np.ndarray) -> float:
        v = self.pack(values)
        return float(np.real(np.vdot(v, self.M @ v)))


def _hermitian_norms(Q: sp.csr_matrix) -> tuple[float, float]:
    """||Q - Q^H||_F and ||Q||_F of an assembled matrix."""
    return spla.norm(Q - Q.getH()), spla.norm(Q)


@dataclass
class SpectrumResult:
    lambda_min: float
    eigensection: np.ndarray
    residual: float     # relative to max(1, max|symbol|) |M v|
    iterations: int     # 0: read off the closed-form symbol
    continuum: float | None = None  # meta["continuum"] bottom, when recorded


def _cov_diff_1d(n: int, h: float, step_angle: float) -> sp.spmatrix:
    """1D periodic central covariant difference with a constant connection phase."""
    shift_fwd = sp.diags([np.ones(n - 1), [1.0]], [1, -(n - 1)], format="csr")
    shift_bwd = shift_fwd.T.tocsr()
    return (shift_fwd * np.exp(-1j * step_angle)
            - shift_bwd * np.exp(1j * step_angle)) / (2 * h)


def chart_metric(periods: tuple[float, float], shear: float = 0.0):
    """Inverse metric entries and area element of the (xi, eta) chart.

    Period vectors are p1 = (a, 0) and p2 = (shear, b) in the flat plane.
    A metric with no finite inverse raises DomainError.
    """
    a, b = periods
    G = np.array([[a * a, a * shear], [a * shear, shear * shear + b * b]])
    try:
        ginv = np.linalg.inv(G)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"periods {periods} give a singular metric") from exc
    if not np.isfinite(ginv).all():
        raise DomainError(f"periods {periods} give no finite inverse metric")
    return ginv, a * b


def _stencil_hermitian_norms(gen: np.ndarray,
                             diag: np.ndarray) -> tuple[float, float]:
    """||Q - Q^H||_F and ||Q||_F of the n x n grid operator Q with diagonal
    `diag` and the coefficient gen[o] at every other offset o.

    Off the diagonal Q = sum_{o != 0} gen[o] S_o, with S_o the shift of the
    grid by o (mod n): S_o^H = S_{-o}, and each coefficient fills n^2
    entries.  The diagonal enters entry by entry, so an inf there still
    makes a NaN.
    """
    n = gen.shape[0]
    off = gen.copy()
    off[0, 0] = 0.0
    flip = -np.arange(n) % n
    skew = off - np.conj(off[np.ix_(flip, flip)])
    with np.errstate(invalid="ignore"):     # inf - inf is the NaN wanted
        dskew = diag - np.conj(diag)
    herm = n * n * np.vdot(skew, skew).real + np.vdot(dskew, dskew).real
    norm = n * n * np.vdot(off, off).real + np.vdot(diag, diag).real
    return float(np.sqrt(herm)), float(np.sqrt(norm))


def flat_twisted_form(periods: tuple[float, float], twist: tuple[float, float],
                      n: int, potential=0.0, shear: float = 0.0,
                      convention: str = "da") -> DiscreteForm:
    """Covariant Dirichlet form + potential on a flat torus chart.

    Q(c) = sum g^{ab} (D_a c)* (D_b c) sqrt(g) h^2 + sum V |c|^2 sqrt(g) h^2
    over the unit (xi, eta) cell, with the holonomy phases (phi, theta)
    entering as constant connection potentials in the difference stencils.
    The mass form is the flat area measure, so generalized eigenvalues are
    physical frequencies squared plus the potential.  A constant potential
    makes the form diagonal in grid plane waves; its symbol is recorded,
    and without shear also the continuum bottom with its bracket.
    """
    if n < 2:
        raise ResolutionError("twisted form needs a grid of at least 2 x 2")
    phi, theta = twist
    try:
        V = np.broadcast_to(np.asarray(potential, dtype=float), (n, n))
    except ValueError as exc:
        raise ShapeError(f"potential does not broadcast to {n} x {n}") from exc
    if not (np.isfinite([*periods, *twist, shear]).all() and np.isfinite(V).all()
            and np.prod(periods)):
        raise DomainError("form inputs must be finite, the periods nonzero")
    h = 1.0 / n
    ginv, sqrtg = chart_metric(periods, shear)
    w = sqrtg * h * h

    # Q / w = g^00 Fx^H Fx + g^11 Fy^H Fy + g^01 (Cx^H Cy + Cy^H Cx) + V for
    # F = (e^{-i a} S - 1) / h and C = (e^{-i a} S - e^{i a} S^T) / 2h = -C^H,
    # a the step phase and S the shift to the next node.  gen[ox, oy] couples
    # a node to the one (ox, oy) on, mod n; n = 2 folds the two neighbours.
    ex, ey = np.exp(-1j * phi * h), np.exp(-1j * theta * h)
    one, fwd, bwd = np.eye(n)[[0, 1, -1]]   # 1D stencils of 1, S and S^T
    lx, ly = (2 * one - e * fwd - np.conj(e) * bwd for e in (ex, ey))
    cx, cy = (e * fwd - np.conj(e) * bwd for e in (ex, ey))
    gen = w / h ** 2 * (ginv[0, 0] * np.outer(lx, one)
                        + ginv[1, 1] * np.outer(one, ly)
                        - 0.5 * ginv[0, 1] * np.outer(cx, cy))
    ox, oy = np.nonzero(gen)      # (0, 0) first
    cols = (np.arange(n)[:, None, None] + ox) % n * n + (np.arange(n)[:, None] + oy) % n
    data = gen[ox, oy] + np.zeros((n, n, 1))
    data[..., 0] += w * V
    # before Q takes data: sorting Q's indices reorders data in place
    norms = _stencil_hermitian_norms(gen, data[..., 0])
    Q = sp.csr_matrix((data.reshape(-1), cols.reshape(-1),
                       np.arange(0, data.size + 1, len(ox))), shape=(n * n, n * n))
    Q.sort_indices()    # canonical CSR, which the matvecs run fastest on
    M = sp.diags(np.full(n * n, w))
    meta = {}
    if V.min() == V.max():
        # The grid plane wave of mode m has step phase theta = (2 pi m - phi) h
        # under the connection; F has symbol (e^{i theta} - 1) / h and C has
        # i sin(theta) / h.  Signed modes keep theta small.
        m = (np.arange(n) + n // 2) % n - n // 2
        tx, ty = ((2 * np.pi * m - t) * h for t in (phi, theta))
        meta["symbol"] = (ginv[0, 0] * (4 * np.sin(tx / 2) ** 2)[:, None]
                          + ginv[1, 1] * (4 * np.sin(ty / 2) ** 2)[None, :]
                          + 2 * ginv[0, 1] * np.outer(np.sin(tx), np.sin(ty))
                          ) / h ** 2 + V[0, 0]
        if shear == 0:
            # Each axis's continuum bottom is the mode nearest its twist, at
            # distance d; the grid scales its term by 4 sin^2(x/2) / x^2 in
            # [1 - x^2/12, 1] (x = d h) and puts no other mode lower.
            d = [abs(principal_angle(t)) for t in twist]
            terms = [(di / ai) ** 2 for di, ai in zip(d, periods)]
            gap = sum(t * (di * h) ** 2 / 12 for t, di in zip(terms, d))
            meta["continuum"] = (sum(terms) + float(V[0, 0]), gap,
                                 max(sum(terms), abs(float(V[0, 0]))))
    return DiscreteForm(Q, M, convention, (n, n), meta=meta, _norms=norms)


def min_eigenvalue(form: DiscreteForm) -> SpectrumResult:
    """Smallest generalized eigenvalue of (Q, M), read off the form's symbol.

    The bottom of meta["symbol"] (first FFT index on ties) and its grid plane
    wave are the answer.  Two checks tie them to the assembled matrices: the
    eigenpair residual, and one seeded probe Q z = M ifft2(symbol fft2(z)),
    which shows that the whole spectrum, so the minimality, matches Q.  Both
    are relative to max(1, max|symbol|) |M x|; either above SYMBOL_TOL, or
    not finite, raises ConvergenceError.  A form that records its continuum
    bottom c must have its discrete bottom in [c - gap, c], up to a rounding
    slack of 1e-12 times the size of c's terms, else ConvergenceError; c is
    returned as `continuum`.  A form without a symbol (a masked form or a
    non-constant potential) raises WrongFormError.
    """
    symbol = form.meta.get("symbol")
    if symbol is None:
        raise WrongFormError("form records no Fourier symbol")
    Q, M = form.Q, form.M
    if np.any(M.diagonal() <= 0):
        raise DomainError("mass form must be positive definite")
    n = symbol.shape[0]
    mx, my = np.unravel_index(np.argmin(symbol), symbol.shape)
    lam = float(symbol[mx, my])
    j = np.arange(n)
    wave = np.exp(2j * np.pi * ((mx * j[:, None] + my * j) % n) / n).reshape(-1)
    v = wave / np.sqrt(np.real(np.vdot(wave, M @ wave)))
    scale = max(1.0, float(np.abs(symbol).max()))
    Mv = M @ v
    res = float(np.linalg.norm(Q @ v - lam * Mv) / (scale * np.linalg.norm(Mv)))
    rng = np.random.default_rng(0)
    z = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
    lifted = np.fft.ifft2(symbol * np.fft.fft2(z.reshape(n, n))).reshape(-1)
    probe = float(np.linalg.norm(Q @ z - M @ lifted)
                  / (scale * np.linalg.norm(M @ z)))
    if not (np.isfinite(lam) and res <= SYMBOL_TOL and probe <= SYMBOL_TOL):
        raise ConvergenceError(
            f"symbol does not match the assembled form: residual {res:.1e}, "
            f"probe {probe:.1e}", best=lam)
    c, gap, size = form.meta.get("continuum", (None, 0.0, 0.0))
    slack = 1e-12 * max(1.0, size)
    if c is not None and not c - gap - slack <= lam <= c + slack:
        raise ConvergenceError(f"bottom {lam!r} lies outside its continuum "
                               f"bracket [{c - gap!r}, {c!r}]", best=lam)
    return SpectrumResult(lam, v.reshape(form.shape), res, 0, c)


# ---------------------------------------------------------------------------
# ambient-valued sections (shared by the index forms and audits)


def _chart_factors(imm: Immersion) -> tuple[complex, complex]:
    fxi, feta = wirtinger_factors(imm.lattice)
    return fxi / imm.scale, feta / imm.scale


def _tile(fld: np.ndarray, extent: int) -> np.ndarray:
    """Repeat a per-node field periodically over the [0, extent)^2 cover."""
    return np.tile(fld, (extent, extent) + (1,) * (fld.ndim - 2))


def _node_norm2(v: np.ndarray, P: np.ndarray | None = None) -> np.ndarray:
    """sum_i |(P v)_i|^2 per node and section of a batch v, (N, N, dim, S).

    The real node projections P, (N, N, dim, dim), act on the float view of
    v, real and imaginary parts side by side, which is one real matmul and
    gives the same numbers as the complex P @ v.
    """
    f = v.view(float) if P is None else P @ v.view(float)
    sq = np.einsum("xyij,xyij->xyj", f, f)
    return sq[..., 0::2] + sq[..., 1::2]


def _index_densities(imm: Immersion, quants: SurfaceQuantities,
                     extent: int = 1, twist: tuple[float, float] = (0.0, 0.0)):
    """The array form of the Euclidean index form on the [0, extent)^2 cover.

    Returns a function of a batch of ambient-valued fields v, (N, N, dim, S),
    that gives |(d_zbar v)^perp|^2 and |(d_z v)^top|^2 per node and section;
    Q(v) is the sum of their difference against the masked cell measure.
    Both derivatives are `wirtinger_diff`, the stencil `euclidean_index_form`
    writes as a matrix.
    """
    PT = _tile(quants.tangent_proj, extent)
    PN = _tile(quants.normal_proj, extent)
    fac = _chart_factors(imm)
    steps = (1.0 / imm.n,) * 2

    def densities(v):
        return (_node_norm2(wirtinger_diff(v, fac, steps, twist), PN),
                _node_norm2(wirtinger_diff(v, np.conj(fac), steps, twist), PT))
    return densities


def euclidean_index_form(imm: Immersion,
                         twist: tuple[float, float] = (0.0, 0.0),
                         extent: int = 1,
                         quants: SurfaceQuantities | None = None) -> DiscreteForm:
    """Complexified stability form for an immersion into Euclidean space.

    Q(s) = sum ( |(d_zbar s)^perp|^2 - |(d_z s)^top|^2 ) dxdy over the grid,
    restricted to dofs on unmasked nodes; mass form uses the induced area.
    `extent` builds the form on the [0, extent)^2 cover with the immersion
    data repeated periodically.  `quants` are the immersion's
    `surface_quantities`, computed here unless the caller has them.
    """
    if imm.ambient.kind != "euclidean":
        raise WrongFormError("euclidean index form needs a euclidean ambient")
    quants = quants or surface_quantities(imm)
    n, dim = imm.n, imm.dim
    N = extent * n

    PT = _tile(quants.tangent_proj, extent)
    PN = _tile(quants.normal_proj, extent)
    mask = _tile(imm.mask, extent)
    lam2 = _tile(imm.lam2, extent)

    h = extent / N
    phi, theta = twist
    fxi, feta = _chart_factors(imm)
    Cx = _cov_diff_1d(N, h, phi * h)
    Cy = _cov_diff_1d(N, h, theta * h)
    I = sp.eye(N, format="csr")
    Id = sp.eye(dim, format="csr")
    Dx = sp.kron(sp.kron(Cx, I), Id, format="csr")
    Dy = sp.kron(sp.kron(I, Cy), Id, format="csr")
    Dzb = fxi * Dx + feta * Dy
    Dz = np.conj(fxi) * Dx + np.conj(feta) * Dy

    def block_diag_field(P):
        rows = np.repeat(np.arange(N * N) * dim, dim * dim)
        rows = rows + np.tile(np.repeat(np.arange(dim), dim), N * N)
        cols = np.repeat(np.arange(N * N) * dim, dim * dim)
        cols = cols + np.tile(np.tile(np.arange(dim), dim), N * N)
        data = P.reshape(-1)
        return sp.csr_matrix((data, (rows, cols)), shape=(N * N * dim, N * N * dim))

    PNs = block_diag_field(PN.astype(complex))
    PTs = block_diag_field(PT.astype(complex))

    w0 = imm.dxdy_weight() * 1.0   # cell measure is the same on the cover grid
    wcell = np.where(mask, w0, 0.0).reshape(-1)
    W = sp.diags(np.repeat(wcell, dim))

    An = PNs @ Dzb
    At = PTs @ Dz
    Qplus = (An.getH() @ W @ An).tocsr()
    Qminus = (At.getH() @ W @ At).tocsr()
    Q = Qplus - Qminus
    da = (lam2 * np.where(mask, w0, 0.0)).reshape(-1)
    M = sp.diags(np.repeat(da, dim))

    active = np.repeat(mask.reshape(-1), dim)
    idx = np.flatnonzero(active)
    Q = Q[idx][:, idx]
    Qplus = Qplus[idx][:, idx]
    Qminus = Qminus[idx][:, idx]
    M = M.tocsr()[idx][:, idx]
    return DiscreteForm(Q, M, "dxdy", (N, N, dim), meta={
        "active": idx, "immersion": imm, "extent": extent,
        "Qplus": Qplus, "Qminus": Qminus, "twist": twist,
    })


def pic_index_form(imm: Immersion, N: AmbientSpace, n: int) -> DiscreteForm:
    """Form of the isotropic-section inequality on a flat normal line.

    Q(c) = sum |nabla_zbar c|^2 dxdy - sum R(eps, f_z, conj eps, conj f_z)
    |c|^2 dxdy for the first normal line eps, isotropic unless its holonomy
    is real; the tangential term vanishes for totally geodesic immersions.
    Mass form carries da.
    """
    if not imm.flat or not imm.normal_lines:
        raise WrongFormError("pic index form needs a flat twisted scenario")
    hol, eps = imm.normal_lines[0]
    point = imm.F[0, 0]
    fz = imm.Fz[0, 0]
    rterm = np.real(N.curvature(eps, fz, np.conj(eps), np.conj(fz), point=point))
    form = flat_twisted_form(imm.periods, (hol.phi, hol.theta), n)
    # |dbar c|^2 is a quarter of the covariant Dirichlet density mode by
    # mode, so the assembled Laplacian form is scaled down before the
    # curvature potential (which is already in dbar normalization) enters.
    c, gap, size = form.meta["continuum"]
    return DiscreteForm(0.25 * form.Q - rterm * form.M, form.M, "dxdy",
                        form.shape, meta={
                            "rterm": rterm,
                            "symbol": 0.25 * form.meta["symbol"] - rterm,
                            "continuum": (0.25 * c - rterm, 0.25 * gap,
                                          max(0.25 * size, abs(rterm)))})


def chart_norm2(sec: SectionGrid, imm: Immersion, values: np.ndarray) -> float:
    """sum |values|^2 dxdy over the grid of sec in the flat chart of imm.

    With the section's own values this is its da mass (lam2 = 1 on a flat
    chart).
    """
    w = imm.scale ** 2 * imm.lattice.tau2 * sec.hx * sec.hy
    return float(np.sum(np.abs(values) ** 2) * w)


def dbar_energy_chart(sec: SectionGrid, imm: Immersion) -> float:
    """sum |nabla_zbar c|^2 dxdy for a scalar section in the chart of imm."""
    return chart_norm2(sec, imm, dbar(sec).values / imm.scale)


def reduced_pic_gap(s: SectionGrid, kappa: float, imm: Immersion,
                    isotropy_tol: float = 1e-8) -> float:
    """Slack of the reduced isotropic inequality,
    2 * int |nabla_zbar s|^2 dxdy - kappa * int |s|^2 da.

    The leading 2 converts the dxdy energy to the da normalization of the
    right-hand side; the lens zero mode saturates the inequality exactly.
    """
    self_pairing = s.meta.get("self_pairing")
    if self_pairing is None or abs(self_pairing) > isotropy_tol:
        raise IsotropyViolationError("section is not registered isotropic")
    if not imm.flat:
        raise WrongFormError("reduced gap implemented for flat scenarios")
    return 2.0 * dbar_energy_chart(s, imm) - kappa * chart_norm2(s, imm, s.values)


# ---------------------------------------------------------------------------
# logarithmic cutoff


def _disc_window(center: float, half: float, n: int) -> np.ndarray:
    """Grid indices mod n covering `center` +- `half` on a grid of step 1/n.

    Two cells of margin on each side and one extra index for the forward
    difference; all n + 1 indices (0, ..., n - 1, 0) when that would cover
    the grid, which is the wrap pair np.roll gives.
    """
    lo = int(np.floor((center - half) * n)) - 2
    hi = int(np.ceil((center + half) * n)) + 2
    if hi - lo + 1 >= n:
        return np.arange(n + 1) % n
    return np.arange(lo, hi + 2) % n


def log_cutoff(epsilon: float, center: tuple[float, float], lattice: Lattice,
               n: int, scale: float = 1.0):
    """Logarithmic cutoff around a chart point and its Dirichlet energy.

    phi = clip(log(r / eps^2) / |log eps|, 0, 1) with r the distance to
    `center` in the chart z = scale * (xi + eta * tau) sampled on an n x n
    grid.  The energy is the conformally invariant chart Dirichlet integral,
    which equals the induced-metric energy for any conformal immersion; for
    the flat metric it converges to 2 pi / |log eps|.

    phi is exactly 1 outside the disc r < eps, so phi and its forward
    differences are evaluated only on the disc's bounding index window.
    """
    if not (0 < epsilon < 1):
        raise DomainError("epsilon must be in (0, 1)")
    h_phys = scale * max(1.0, abs(lattice.tau)) / n
    if (epsilon - epsilon ** 2) / h_phys < 8:
        raise ResolutionError("annulus resolved by fewer than 8 cells")
    if epsilon ** 2 / h_phys < 2:
        raise ResolutionError("inner radius under-resolved")
    hx = 1.0 / n
    # |z| < eps bounds |eta| by eps / (scale tau2) and then |xi| by
    # eps / scale + |tau1| |eta|.
    half_eta = epsilon / (scale * lattice.tau2)
    half_xi = epsilon / scale + abs(lattice.tau1) * half_eta
    ix = _disc_window(center[0], half_xi, n)
    iy = _disc_window(center[1], half_eta, n)
    dxi = ix * hx - center[0]
    deta = iy * hx - center[1]
    dxi -= np.round(dxi)
    deta -= np.round(deta)
    r = np.abs(scale * (dxi[:, None] + deta[None, :] * lattice.tau))
    with np.errstate(divide="ignore"):
        win = np.log(r / epsilon ** 2) / (-np.log(epsilon))
    win = np.clip(win, 0.0, 1.0)
    win[r == 0] = 0.0

    ginv, sqrtg = chart_metric((scale, scale * lattice.tau2),
                               shear=scale * lattice.tau1)
    px = (win[1:, :-1] - win[:-1, :-1]) / hx
    py = (win[:-1, 1:] - win[:-1, :-1]) / hx
    dens = (ginv[0, 0] * px ** 2 + ginv[1, 1] * py ** 2
            + 2 * ginv[0, 1] * px * py)
    energy = float(np.sum(dens) * sqrtg * hx * hx)
    phi = np.ones((n, n))
    phi[np.ix_(ix, iy)] = win
    return phi, energy


@dataclass
class CutoffAuditReport:
    lhs_top: float          # int |(d (phi s))^top|^2
    rhs_perp: float         # int |(d_zbar (phi s))^perp|^2
    term_phi2_perp: float   # int phi^2 |(d_zbar s)^perp|^2
    term_grad: float        # int |grad phi|^2 |s|^2
    term_cross: float       # 2 sqrt(int |grad phi|^2) sqrt(int |s|^2 |(d_zbar s)^perp|^2)
    chain_holds: bool
    stability_holds: bool


def cutoff_inequality_audit(values: np.ndarray, phi: np.ndarray,
                            form: DiscreteForm,
                            tol: float = 1e-9) -> CutoffAuditReport:
    """Evaluate the three-term cutoff inequality chain for phi * s.

    `values` is the ambient-valued section on the full grid of the form's
    immersion; `phi` a scalar cutoff on the same grid.
    """
    imm: Immersion = form.meta["immersion"]
    extent = form.meta.get("extent", 1)
    twist = form.meta.get("twist", (0.0, 0.0))
    densities = _index_densities(imm, surface_quantities(imm), extent, twist)
    w = np.where(_tile(imm.mask, extent), imm.dxdy_weight(), 0.0)

    def integ(density):
        return float(np.sum(density * w))

    # |grad phi|^2 = 4 |d_zbar phi|^2 for a real function.
    grad2 = 4.0 * np.abs(wirtinger_diff(phi, _chart_factors(imm),
                                        (1.0 / imm.n,) * 2)) ** 2

    # the section and phi * section as one batch of two
    perp2, top2 = densities(np.stack([values, phi[:, :, None] * values], -1))
    ns2 = np.sum(np.abs(values) ** 2, axis=2)
    perp_dzb_s2 = perp2[..., 0]

    lhs_top = integ(top2[..., 1])
    rhs_perp = integ(perp2[..., 1])
    t_phi2 = integ(phi ** 2 * perp_dzb_s2)
    t_grad = integ(grad2 * ns2)
    t_cross = 2.0 * np.sqrt(integ(grad2)) * np.sqrt(integ(ns2 * perp_dzb_s2))

    chain = rhs_perp <= t_phi2 + t_grad + t_cross + tol * max(1.0, rhs_perp)
    stab = lhs_top <= rhs_perp + tol * max(1.0, rhs_perp)
    return CutoffAuditReport(lhs_top, rhs_perp, t_phi2, t_grad, t_cross,
                             bool(chain), bool(stab))


# ---------------------------------------------------------------------------
# sweeps and energies


@dataclass
class SweepRow:
    degree: int
    systole: float
    lambda_min: float
    stable: bool


def covering_sweep(scenario, covers) -> list[SweepRow]:
    """Systole / bottom-eigenvalue table over a tower of covers.

    `scenario` provides level(spec) -> (degree, systole, lambda_min,
    continuum), the discrete and the exact continuum bottom of the level's
    form; the level is stable when continuum >= -STABLE_TOL.  An
    eigenfunction on a cover lifts to every cover of it, so the continuum
    bottom may not increase from a cover to any later cover it contains;
    covers that are not nested are not compared.
    """
    rows = []
    seen = []
    for spec in covers:
        degree, systole, lam, cont = scenario.level(spec)
        for prev_spec, prev in seen:
            if prev_spec.contains(spec) and cont > prev + STABLE_TOL:
                raise DomainError("continuum bottom increased along the tower")
        seen.append((spec, cont))
        rows.append(SweepRow(degree, systole, lam, cont >= -STABLE_TOL))
    return rows


def second_ff_energy(values: np.ndarray, imm: Immersion,
                     extent: int = 1) -> float:
    """int |(d_z s)^top|^2 da for an ambient-valued section over a cover."""
    densities = _index_densities(imm, surface_quantities(imm), extent)
    _, top2 = densities(values[..., None])
    return float(np.sum(top2[..., 0] * _tile(imm.da_field(), extent)))
