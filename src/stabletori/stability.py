"""Discrete second-variation forms, twisted eigenproblems, and cutoffs.

A flat twisted form is a `StencilForm`: the separable 5-point stencil
Q = A_xi (x) I + I (x) A_eta + w V I on the n x n grid, held per axis as
two length-n stencils and two symbol terms, with the diagonal shift w V
and the node mass w.  Its Hermitian symmetry is checked on each axis
stencil, and `min_eigenvalue` checks each stencil's 1-D DFT against its
symbol term.  Its sparse matrices are assembled on request, for test
oracles and tracing.  The masked Euclidean index form is a `DiscreteForm`,
an assembled sparse matrix checked as one.  The elliptic stability audit
evaluates it matrix-free, as grid densities (`_index_densities`) summed
against the cell measure.  Matrix and densities measure the derivatives in
the same orthonormal node 2-frames, written in closed form by
`geometry.surface_quantities`.

The sparse matrices are the only use of scipy here, so it is imported
inside the functions that build them: the CLI's subcommands never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .bundles import principal_angle
from .errors import (ConvergenceError, DomainError, ResolutionError,
                     ShapeError, WrongFormError)
from .geometry import Immersion, SurfaceQuantities, surface_quantities
from .lattice import Lattice, wirtinger_factors
from .sections import _axis_diff

if TYPE_CHECKING:
    import scipy.sparse as sp

SYMBOL_TOL = 1e-9   # relative spectrum bound of min_eigenvalue
STABLE_TOL = 1e-12  # stable means a continuum bottom >= -STABLE_TOL (rounding)


# ---------------------------------------------------------------------------
# forms


def _check_hermitian(herm: float, norm: float):
    """||Q - Q^H||_F <= 1e-12 max(||Q||_F, 1) with ||Q||_F finite, else
    DomainError."""
    # a NaN fails the first comparison, an inf entry the second
    if not herm <= 1e-12 * max(norm, 1.0) < np.inf:
        raise DomainError("form is not Hermitian")


@dataclass
class StencilForm:
    """Separable periodic stencil form Q with mass form M = w I on an n x n
    grid: Q = A_xi (x) I + I (x) A_eta + shift I.

    `stencils` holds the two length-n axis stencils: A couples a node to the
    node o on along its axis, mod n, with the coefficient s[o].  `shift` is
    the constant w V on the diagonal.  The generalized eigenvalue of (Q, M)
    at the FFT mode (mx, my), whose grid plane wave is the eigenvector, is
    (symbols[0][mx] + symbols[1][my]) / h^2 + potential for h = 1/n.
    `continuum` is (c, gap, size): the exact continuum bottom, how far
    below it the discrete bottom may lie, and the size of c's terms.

    Q must be Hermitian: the constructor checks each axis stencil against
    s[o] = conj(s[-o]) (`_stencil_hermitian_norms`) and that the shift is
    finite.  `Q` and `M` assemble the sparse matrices from the current
    stencils on every access.
    """

    stencils: tuple[np.ndarray, np.ndarray]
    shift: float
    w: float
    symbols: tuple[np.ndarray, np.ndarray]  # g^aa 4 sin^2(theta_m / 2)
    potential: float
    continuum: tuple[float, float, float]

    def __post_init__(self):
        for s in self.stencils:
            _check_hermitian(*_stencil_hermitian_norms(s))
        if not np.isfinite(self.shift):
            raise DomainError("form is not Hermitian: its diagonal shift "
                              f"{self.shift!r} is not finite")

    @property
    def dof(self) -> int:
        return self.stencils[0].size ** 2

    @property
    def Q(self) -> sp.csr_matrix:
        """Q as a canonical CSR matrix: the Kronecker sum written out, so
        row (i, j) stores the diagonal, (i + o, j) for each nonzero
        s_xi[o] and (i, j + o) for each nonzero s_eta[o], o != 0, mod n."""
        import scipy.sparse as sp
        sx, sy = self.stencils
        n = sx.size
        ox, oy = (np.flatnonzero(s[1:]) + 1 for s in (sx, sy))
        i, j = np.arange(n)[:, None, None], np.arange(n)[:, None]
        cols = np.concatenate(
            [i * n + j, (i + ox) % n * n + j, i * n + (j + oy) % n], axis=-1)
        data = np.concatenate([[sx[0] + sy[0] + self.shift], sx[ox], sy[oy]])
        Q = sp.csr_matrix((np.broadcast_to(data, cols.shape).reshape(-1),
                           cols.reshape(-1),
                           np.arange(0, cols.size + 1, data.size)),
                          shape=(n * n, n * n))
        Q.sort_indices()    # canonical CSR, which the matvecs run fastest on
        return Q

    @property
    def M(self) -> sp.csr_matrix:
        import scipy.sparse as sp
        return sp.diags(np.full(self.dof, self.w), format="csr")


@dataclass
class DiscreteForm:
    """Assembled Hermitian form Q and mass form M over section dofs.

    The masked Euclidean index form: meta["active"] lists the grid dofs
    that Q and M act on, and `pack` selects them from a grid field.

    Q must be Hermitian (`_check_hermitian`), checked on the matrix.
    """

    Q: sp.spmatrix
    M: sp.spmatrix
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.Q = self.Q.tocsr()
        self.M = self.M.tocsr()
        _check_hermitian(*_hermitian_norms(self.Q))

    @property
    def dof(self) -> int:
        return self.Q.shape[0]

    def pack(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=complex).reshape(-1)
        sel = self.meta.get("active")
        return v[sel] if sel is not None else v


def _hermitian_norms(Q: sp.csr_matrix) -> tuple[float, float]:
    """||Q - Q^H||_F and ||Q||_F of an assembled matrix."""
    import scipy.sparse.linalg as spla
    return spla.norm(Q - Q.getH()), spla.norm(Q)


@dataclass
class SpectrumResult:
    lambda_min: float
    residual: float     # relative to max(1, max|symbol|) |M v|
    iterations: int     # 0: read off the closed-form symbol
    continuum: float    # the exact continuum bottom, form.continuum


def _cov_diff_1d(n: int, h: float, step_angle: float) -> sp.spmatrix:
    """1D periodic central covariant difference with a constant connection phase."""
    import scipy.sparse as sp
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


def _stencil_hermitian_norms(s: np.ndarray) -> tuple[float, float]:
    """||A - A^H||_F and ||A||_F of an axis term A (x) I or I (x) A of Q on
    the n x n grid, for the circulant A of the axis stencil s.

    A = sum_o s[o] S_o with S_o the shift by o (mod n), S_o^H = S_{-o}, and
    each coefficient fills n^2 entries of the axis term.  An inf centre
    s[0] makes a NaN.
    """
    n = s.size
    with np.errstate(invalid="ignore"):     # inf - inf is the NaN wanted
        skew = s - np.conj(s[-np.arange(n) % n])
    return (float(n * np.sqrt(np.vdot(skew, skew).real)),
            float(n * np.sqrt(np.vdot(s, s).real)))


def flat_twisted_form(periods: tuple[float, float], twist: tuple[float, float],
                      n: int, potential: float = 0.0) -> StencilForm:
    """Covariant Dirichlet form + constant potential on a flat torus chart.

    Q(c) = sum g^{ab} (D_a c)* (D_b c) sqrt(g) h^2 + sum V |c|^2 sqrt(g) h^2
    over the unit (xi, eta) cell of the rectangle with sides `periods`, with
    the holonomy phases (phi, theta) entering as constant connection
    potentials in the difference stencils.  The mass form is the flat area
    measure, so generalized eigenvalues are physical frequencies squared plus
    the potential.  The form is its 5-point stencil, diagonal in grid plane
    waves; it keeps its symbol per axis and its continuum bottom and gap.
    A potential that is not a scalar raises ShapeError.
    """
    if n < 2:
        raise ResolutionError("twisted form needs a grid of at least 2 x 2")
    if np.ndim(potential):
        raise ShapeError(f"potential must be a scalar, got shape "
                         f"{np.shape(potential)}")
    V = float(potential)
    phi, theta = twist
    if not (np.isfinite([*periods, *twist, V]).all() and np.prod(periods)):
        raise DomainError("form inputs must be finite, the periods nonzero")
    h = 1.0 / n
    ginv, sqrtg = chart_metric(periods)
    w = sqrtg * h * h

    # Q / w = g^00 Fx^H Fx + g^11 Fy^H Fy + V for F = (e^{-i a} S - 1) / h,
    # a the step phase and S the shift to the next node.  An axis stencil
    # couples a node to the one o on along its axis, mod n; n = 2 folds the
    # two neighbours.
    one, fwd, bwd = np.zeros((3, n))        # 1D stencils of 1, S and S^T
    one[0] = fwd[1] = bwd[-1] = 1.0
    stencils = tuple(
        w / h ** 2 * (g * (2 * one - e * fwd - np.conj(e) * bwd))
        for g, e in ((ginv[0, 0], np.exp(-1j * phi * h)),
                     (ginv[1, 1], np.exp(-1j * theta * h))))
    # The grid plane wave of mode m has step phase theta = (2 pi m - phi) h
    # under the connection, and F has symbol (e^{i theta} - 1) / h.  Signed
    # modes keep theta small.
    m = (np.arange(n) + n // 2) % n - n // 2
    symbols = tuple(g * (4 * np.sin((2 * np.pi * m - t) * h / 2) ** 2)
                    for g, t in ((ginv[0, 0], phi), (ginv[1, 1], theta)))
    # Each axis's continuum bottom is the mode nearest its twist, at
    # distance d; the grid scales its term by 4 sin^2(x/2) / x^2 in
    # [1 - x^2/12, 1] (x = d h) and puts no other mode lower.
    d = [abs(principal_angle(t)) for t in twist]
    terms = [(di / ai) ** 2 for di, ai in zip(d, periods)]
    gap = sum(t * (di * h) ** 2 / 12 for t, di in zip(terms, d))
    continuum = (sum(terms) + V, gap, max(sum(terms), abs(V)))
    return StencilForm(stencils, w * V, w, symbols, V, continuum)


def min_eigenvalue(form: StencilForm) -> SpectrumResult:
    """Smallest generalized eigenvalue of (Q, M), read off the form's symbol.

    The symbol is separable with axis terms >= 0: its bottom is the mode
    (mx, my) of the two axis minima (first index on ties), and its largest
    modulus lies there or at the two axis maxima.  A circulant's spectrum is
    the DFT of its stencil, so mode (mx, my) of Q is F(s_xi)[mx] +
    F(s_eta)[my] + shift, F(s)[m] = sum_o s[o] e^{2 pi i m o / n}.  Each
    F(s) must match w / h^2 times its axis term, and the shift w V: the sum
    of the three largest differences, which bounds every mode's, must lie
    within SYMBOL_TOL relative to max(1, max|symbol|) w.  That bounds the
    residual of every probe, so the minimality holds; the bottom mode's
    difference is the eigenpair residual, returned as `residual`.  A failed
    check, a bottom that is not finite, or one outside the bracket
    [c - gap, c] of the continuum bottom c (with a rounding slack of 1e-12
    times the size of c's terms) raises ConvergenceError; c is returned as
    `continuum`.  A form that is no `StencilForm` (the masked Euclidean
    form) raises WrongFormError.
    """
    if not isinstance(form, StencilForm):
        raise WrongFormError("form is no stencil with a Fourier symbol")
    w, V = form.w, form.potential
    if not w > 0:
        raise DomainError("mass form must be positive definite")
    t_xi, t_eta = form.symbols
    h2 = (1.0 / t_xi.size) ** 2
    mx, my = np.argmin(t_xi), np.argmin(t_eta)
    lam = float((t_xi[mx] + t_eta[my]) / h2 + V)
    top = float((t_xi.max() + t_eta.max()) / h2 + V)
    scale = max(1.0, abs(lam), abs(top))
    ex, ey = (t_xi.size * np.fft.ifft(s) for s in form.stencils)
    spectrum = (sum(float(np.abs(e - w * (t / h2)).max())
                    for e, t in ((ex, t_xi), (ey, t_eta)))
                + abs(form.shift - w * V)) / (w * scale)
    res = float(abs(ex[mx] + ey[my] + form.shift - w * lam) / (w * scale))
    if not (np.isfinite(lam) and spectrum <= SYMBOL_TOL):
        raise ConvergenceError(f"symbol does not match the stencil: "
                               f"spectrum {spectrum:.1e}", best=lam)
    c, gap, size = form.continuum
    slack = 1e-12 * max(1.0, size)
    if not c - gap - slack <= lam <= c + slack:
        raise ConvergenceError(f"bottom {lam!r} lies outside its continuum "
                               f"bracket [{c - gap!r}, {c!r}]", best=lam)
    return SpectrumResult(lam, res, 0, c)


# ---------------------------------------------------------------------------
# ambient-valued sections (shared by the index forms and audits)


def _node_norm2(v: np.ndarray) -> np.ndarray:
    """sum_i |v_i|^2 per node and section of a batch v, (N, N, dim, S)."""
    sq = np.einsum("xyij,xyij->xyj", v.view(float), v.view(float))
    return sq[..., 0::2] + sq[..., 1::2]


def _index_densities(imm: Immersion, quants: SurfaceQuantities,
                     twist: tuple[float, float] = (0.0, 0.0)):
    """The array form of the Euclidean index form of `imm`.

    Returns a function of a batch of ambient-valued fields v, (n, n, dim, S),
    that gives |(d_zbar v)^perp|^2 and |(d_z v)^top|^2 per node and section;
    Q(v) is the sum of their difference against the masked cell measure.
    Both derivatives are `wirtinger_diff`'s, the stencil that
    `euclidean_index_form` writes as a matrix, from one pair of axis
    differences, with the connection phases `twist` per unit period of the
    chart of `imm.lattice`, and both norms are frame norms |F w| in the
    `surface_quantities` frames `quants`, as in the matrix.
    """
    fx, fy = wirtinger_factors(imm.lattice)
    r = fy / fx     # |fx a + fy b| = |fx| |a + r b|, conjugated for d_z
    Fn, Ft = (abs(fx) * F for F in (quants.normal_frame, quants.tangent_frame))
    h = 1.0 / imm.n

    def densities(v):
        dx = _axis_diff(v, 0, h, twist[0] * h)
        nx, tx = ((F @ dx.view(float)).view(complex) for F in (Fn, Ft))
        dy = _axis_diff(v, 1, h, twist[1] * h).view(float)
        ny, ty = dx.reshape(2, *nx.shape)   # D_xi v is spent by now
        np.matmul(Fn, dy, out=ny.view(float))
        np.matmul(Ft, dy, out=ty.view(float))
        ny *= r
        nx += ny
        ty *= np.conj(r)
        tx += ty
        return _node_norm2(nx), _node_norm2(tx)
    return densities


def euclidean_index_form(imm: Immersion,
                         twist: tuple[float, float] = (0.0, 0.0)) -> DiscreteForm:
    """Complexified stability form for an immersion into Euclidean space.

    Q(s) = sum ( |(d_zbar s)^perp|^2 - |(d_z s)^top|^2 ) dxdy over the grid,
    restricted to dofs on unmasked nodes; mass form uses the induced area
    `imm.da_field()`.  Both norms are taken in the node frames of
    `surface_quantities`.  `twist` is the connection phase per unit period
    of the chart of `imm.lattice`; a cover's form is the form of
    `imm.cover(spec)`.
    """
    if not isinstance(imm, Immersion) or imm.ambient.kind != "euclidean":
        raise WrongFormError("euclidean index form needs a euclidean ambient")
    import scipy.sparse as sp
    quants = surface_quantities(imm)
    n, dim = imm.n, imm.dim
    h = 1.0 / n
    phi, theta = twist
    fxi, feta = wirtinger_factors(imm.lattice)
    Cx = _cov_diff_1d(n, h, phi * h)
    Cy = _cov_diff_1d(n, h, theta * h)
    I = sp.eye(n, format="csr")
    Id = sp.eye(dim, format="csr")
    Dx = sp.kron(sp.kron(Cx, I), Id, format="csr")
    Dy = sp.kron(sp.kron(I, Cy), Id, format="csr")
    Dzb = fxi * Dx + feta * Dy
    Dz = np.conj(fxi) * Dx + np.conj(feta) * Dy

    # the node frames as block-diagonal (2 x dim)-block matrices
    Fn, Ft = (sp.bsr_matrix((F.reshape(-1, 2, dim), np.arange(n * n),
                             np.arange(n * n + 1)),
                            shape=(2 * n * n, dim * n * n)).tocsr()
              for F in (quants.normal_frame, quants.tangent_frame))

    wcell = np.where(imm.mask, imm.dxdy_weight(), 0.0).reshape(-1)
    W = sp.diags(np.repeat(wcell, 2))

    An = Fn @ Dzb
    At = Ft @ Dz
    Qplus = (An.getH() @ W @ An).tocsr()
    Qminus = (At.getH() @ W @ At).tocsr()
    Q = Qplus - Qminus
    M = sp.diags(np.repeat(imm.da_field().reshape(-1), dim))

    active = np.repeat(imm.mask.reshape(-1), dim)
    idx = np.flatnonzero(active)
    Q = Q[idx][:, idx]
    Qplus = Qplus[idx][:, idx]
    Qminus = Qminus[idx][:, idx]
    M = M.tocsr()[idx][:, idx]
    return DiscreteForm(Q, M, meta={
        "active": idx, "immersion": imm,
        "Qplus": Qplus, "Qminus": Qminus, "twist": twist,
    })


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
               n: int):
    """Logarithmic cutoff around a chart point and its Dirichlet energy.

    phi = clip(log(r / eps^2) / |log eps|, 0, 1) with r the distance to
    `center` in the lattice's chart z = scale * (xi + eta * tau) sampled on
    an n x n grid.  The energy is the conformally invariant chart Dirichlet
    integral, which equals the induced-metric energy for any conformal
    immersion; for the flat metric it converges to 2 pi / |log eps|.

    phi is exactly 1 outside the disc r < eps, so phi and its forward
    differences are evaluated only on the disc's bounding index window:
    the result is (ix, iy, window, energy) with phi[np.ix_(ix, iy)] =
    window and phi = 1 elsewhere, and no n x n array is built.
    """
    if not (0 < epsilon < 1):
        raise DomainError("epsilon must be in (0, 1)")
    scale = lattice.scale
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
    return ix, iy, win, float(np.sum(dens) * sqrtg * hx * hx)


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

