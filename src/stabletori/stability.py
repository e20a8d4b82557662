"""Discrete second-variation forms, twisted eigenproblems, and cutoffs.

A flat twisted form is a `StencilForm`: the separable 5-point stencil
Q = A_xi (x) I + I (x) A_eta + w V I on the n x n grid, held per axis as
two length-n stencils and two symbol terms, with the diagonal shift w V
and the node mass w.  Its Hermitian symmetry is checked on each axis
stencil, and `min_eigenvalue` checks each stencil's 1-D DFT against its
symbol term.  Its sparse matrices are assembled on request, for test
oracles and tracing.  The Euclidean index form of a holomorphic curve is
no stencil: `euclidean_index_form` returns it, with its mass, as a dense
pencil on the wave amplitudes of band-limited normal sections (196 x 196
at the audit's band), measured in the node frames of `surface_quantities`.

The sparse matrices are the only use of scipy here, so it is imported
inside the properties that build them: the CLI's subcommands and the
elliptic audit never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bundles import principal_angle
from .errors import (ConvergenceError, DomainError, ResolutionError,
                     ShapeError, WrongFormError)
from .geometry import Immersion, surface_quantities
from .lattice import Lattice, wirtinger_factors

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
class SpectrumResult:
    lambda_min: float
    residual: float     # relative to max(1, max|symbol|) |M v|
    iterations: int     # 0: read off the closed-form symbol
    continuum: float    # the exact continuum bottom, form.continuum


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
    if not (np.isfinite([*periods, *twist, V]).all() and np.prod(periods)):
        raise DomainError("form inputs must be finite, the periods nonzero")
    h = 1.0 / n
    # the chart's metric is diag(a^2, b^2), whose inverse must be finite
    with np.errstate(divide="ignore", over="ignore"):
        ginv = 1.0 / np.square(periods)
    if not np.isfinite(ginv).all():
        raise DomainError(f"periods {periods} give no finite inverse metric")
    w = periods[0] * periods[1] * h * h

    # Q / w = g^00 Fx^H Fx + g^11 Fy^H Fy + V for F = (e^{-i a} S - 1) / h,
    # a the step phase and S the shift to the next node.  An axis stencil
    # couples a node to the one o on along its axis, mod n; n = 2 folds the
    # two neighbours.
    one, fwd, bwd = np.zeros((3, n))        # 1D stencils of 1, S and S^T
    one[0] = fwd[1] = bwd[-1] = 1.0
    stencils = tuple(
        w / h ** 2 * (g * (2 * one - e * fwd - np.conj(e) * bwd))
        for g, e in zip(ginv, np.exp(-1j * np.multiply(twist, h))))
    # The grid plane wave of mode m has step phase theta = (2 pi m - phi) h
    # under the connection, and F has symbol (e^{i theta} - 1) / h.  Signed
    # modes keep theta small.
    m = (np.arange(n) + n // 2) % n - n // 2
    symbols = tuple(g * (4 * np.sin((2 * np.pi * m - t) * h / 2) ** 2)
                    for g, t in zip(ginv, twist))
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
    `continuum`.  Anything but a `StencilForm` (such as the pencil of
    `euclidean_index_form`) raises WrongFormError.
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
# the Euclidean index form on band-limited sections


def euclidean_index_form(imm: Immersion, bump: np.ndarray,
                         band: int) -> tuple[np.ndarray, np.ndarray]:
    """The complexified stability form of a holomorphic curve in R^4 and
    its mass, as the pencil (Kq, Km) on band-limited normal sections.

    Q(s) = sum ( |(d_zbar s)^perp|^2 - |(d_z s)^top|^2 ) dxdy over the
    unmasked cells of `imm`, each derivative f_xi D_xi s + f_eta D_eta s
    (conjugated factors for d_z) with the central difference D = (s[+1] -
    s[-1]) / 2h, and both norms taken in the node frames of
    `surface_quantities`; M(s) = sum |s|^2 `imm.da_field()`.  On the
    sections s = bump Fn^T Fn sum_k a_k e_k, |kx|, |ky| <= band, with a_k
    in C^4 at block (kx + band) (2 band + 1) + ky + band of a, Q(s) = a^H
    Kq a and M(s) = a^H Km a; `bump` must vanish on the masked nodes.

    e_k(x + o) = e_k(x) omega^{k . o}, omega = e^{2 pi i / n}, so a term of
    Q or M is the DFT at k' - k of a node field, by two small matmuls.  The
    frames of `surface_quantities` are complex lines of C^2 = R^4, so the
    fields are rank-1 2 x 2 complex matrices on the +i block of the complex
    structure, conjugate on the -i block, put back into real coordinates.
    An immersion into anything but Euclidean space raises WrongFormError.
    """
    if not isinstance(imm, Immersion) or imm.ambient.kind != "euclidean":
        raise WrongFormError("euclidean index form needs a euclidean ambient")
    n, d = imm.n, np.arange(-2 * band, 2 * band + 1)
    fx, fy = wirtinger_factors(imm.lattice)
    quants = surface_quantities(imm)
    nu, tau = (F[..., 0, 0::2] + 1j * F[..., 0, 1::2]
               for F in (quants.normal_frame, quants.tangent_frame))
    # the cell measure times the squared |fx| / 2h of the differences
    w = np.where(imm.mask, imm.dxdy_weight() * (abs(fx) * n / 2) ** 2, 0.0)
    offsets = np.array(((1, 0), (-1, 0), (0, 1), (0, -1)))
    turn = 2j * np.pi / n      # omega^t = e^{turn t}
    E = np.exp(turn * (np.outer(d, np.arange(n)) % n))

    def dft(g):     # sum_x e_delta(x) g(x), and of conj(g) for the -i block
        out = E @ (E @ g.reshape(n, -1)).reshape(d.size, n, -1)
        out = out.reshape(d.size, d.size, *g.shape[2:])
        return np.stack([out, np.conj(out[::-1, ::-1])])

    # frame^H s(x + o_j) = beta_j^H f(x + o_j), beta_j = bump_j (nu_j^H
    # frame) nu_j from the neighbours' unit normals nu_j and bumps bump_j
    nbr, bnb = (np.stack([np.roll(f, tuple(-o), (0, 1)) for o in offsets], 2)
                for f in (nu, bump))
    X = 0   # |fx a + fy b| = |fx| |a + rho b|, rho conjugated for d_z
    for frame, rho, sign in ((nu, fy / fx, 1), (tau, np.conj(fy / fx), -1)):
        c = np.array([1, -1, rho, -rho])
        beta = (bnb * np.sum(np.conj(nbr) * frame[..., None, :], -1))[..., None] * nbr
        # one neighbour i at a time, so the node fields are (n, n, 2, 4, 2)
        g = np.stack([dft(w[..., None, None, None] * beta[..., i, :, None, None]
                          * np.conj(beta[..., None, :, :])) for i in range(4)], 3)
        X = X + sign * np.multiply.outer(np.conj(c), c)[:, None, :, None] * g
    # c_i(k)^* c_j(k') also carries omega^{(k' - k) . o_j - k . (o_i - o_j)}
    kx, ky = np.indices((2 * band + 1,) * 2).reshape(2, -1) - band
    delta = np.indices((d.size,) * 2) - 2 * band
    pj = np.exp(turn * np.tensordot(offsets, delta, 1))
    pij = np.exp(-turn * (offsets[:, None] - offsets) @ (kx, ky))
    Xk = np.einsum("bxyipjq,jxy,ijm->bxympq", X, pj, pij, optimize=True)
    dx, dy = kx - kx[:, None] + 2 * band, ky - ky[:, None] + 2 * band
    gm = dft((imm.da_field() * bump ** 2)[..., None, None]
             * nu[..., :, None] * np.conj(nu[..., None, :]))

    def real(K):    # the blocks (K+, K-) on real and imaginary parts
        re, im = (K[0] + K[1]) / 2, 0.5j * (K[0] - K[1])
        return (np.array([[re, im], [-im, re]]).transpose(2, 4, 0, 3, 5, 1)
                .reshape(4 * kx.size, 4 * kx.size))

    return real(Xk[:, dx, dy, np.arange(kx.size)[:, None]]), real(gm[:, dx, dy])


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

    # |grad phi|^2 = 4 |f_xi px + f_eta py|^2 for a real phi, expanded in
    # the real coefficients g_ab = 4 Re(f_a conj(f_b))
    f = wirtinger_factors(lattice)
    gxx, gyy, gxy = (4 * (f[a] * np.conj(f[b])).real
                     for a, b in ((0, 0), (1, 1), (0, 1)))
    px = (win[1:, :-1] - win[:-1, :-1]) / hx
    py = (win[:-1, 1:] - win[:-1, :-1]) / hx
    dens = gxx * px ** 2 + gyy * py ** 2 + 2 * gxy * px * py
    area = scale * (scale * lattice.tau2)
    return ix, iy, win, float(np.sum(dens) * area * hx * hx)


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

