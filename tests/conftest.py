"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately written from scratch (brute force where
possible) so they do not share code paths with the package internals.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from stabletori.sections import dbar


# ---------------------------------------------------------------------------
# acceptance reporting: one visible pass/fail line per criterion


ACCEPTANCE_LINES = []


def record_acceptance(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {num}: {name}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# oracles


def brute_force_reduced_tau(tau, bound=12):
    """Best fundamental-domain representative by exhaustive unimodular search.

    Tries every integer matrix [[a, b], [c, d]] with |entries| <= bound and
    determinant one, keeping the image with maximal imaginary part (ties
    broken toward the standard fundamental domain).
    """
    best = None
    rng = range(-bound, bound + 1)
    for a, b, c, d in itertools.product(rng, repeat=4):
        if a * d - b * c != 1:
            continue
        den = c * tau + d
        if den == 0:
            continue
        im = ((a * tau + b) / den).imag
        if best is None or im > best + 1e-13:
            best = im
    return best


def fourier_lambda_min(periods, twist, potential=0.0, shear=0.0, mmax=8):
    """Exact bottom eigenvalue of the twisted flat Laplacian plus constant.

    Plane waves e^{i(phi + 2 pi m) xi + i(theta + 2 pi n) eta} diagonalize
    the operator; the physical frequency accounts for the sheared chart.
    """
    a, b = periods
    phi, theta = twist
    best = np.inf
    for m in range(-mmax, mmax + 1):
        for n in range(-mmax, mmax + 1):
            kx = (phi + 2 * np.pi * m) / a
            ky = ((theta + 2 * np.pi * n) - shear / a * (phi + 2 * np.pi * m)) / b
            best = min(best, kx * kx + ky * ky)
    return best + potential


def discrete_fourier_lambda_min(periods, twist, n, potential=0.0, mmax=8):
    """Bottom eigenvalue of the discrete form on a rectangular chart.

    Grid plane waves e^{2 pi i m j / n} diagonalize the forward covariant
    difference with symbol magnitude (2 - 2 cos((2 pi m - phi) h)) / h^2.
    """
    a, b = periods
    phi, theta = twist
    h = 1.0 / n
    best = np.inf
    for m in range(-mmax, mmax + 1):
        for k in range(-mmax, mmax + 1):
            sx = (2 - 2 * np.cos((2 * np.pi * m - phi) * h)) / h ** 2
            sy = (2 - 2 * np.cos((2 * np.pi * k - theta) * h)) / h ** 2
            best = min(best, sx / a ** 2 + sy / b ** 2)
    return best + potential


def kron_twisted_form_q(periods, twist, n, potential=0.0, shear=0.0):
    """Q of the flat twisted form built from sparse Kronecker products.

    Forward covariant differences F = (e^{-i a} S - 1) / h carry the
    diagonal metric terms and central ones C = (e^{-i a} S - e^{i a} S^T) / 2h
    the shear term, with a the connection phase of one step and S the
    periodic shift to the next node; every product is formed explicitly.
    """
    a, b = periods
    phi, theta = twist
    h = 1.0 / n
    G = np.array([[a * a, a * shear], [a * shear, shear * shear + b * b]])
    ginv = np.linalg.inv(G)
    w = a * b * h * h
    S = sp.csr_matrix((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)),
                      shape=(n, n))
    eye = sp.identity(n, format="csr")

    def forward(step):
        return (S * np.exp(-1j * step) - eye) / h

    def central(step):
        return (S * np.exp(-1j * step) - S.T * np.exp(1j * step)) / (2 * h)

    Fx = sp.kron(forward(phi * h), eye, format="csr")
    Fy = sp.kron(eye, forward(theta * h), format="csr")
    Cx = sp.kron(central(phi * h), eye, format="csr")
    Cy = sp.kron(eye, central(theta * h), format="csr")
    Q = w * (ginv[0, 0] * (Fx.getH() @ Fx) + ginv[1, 1] * (Fy.getH() @ Fy)
             + ginv[0, 1] * (Cx.getH() @ Cy + Cy.getH() @ Cx))
    V = np.broadcast_to(np.asarray(potential, dtype=float), (n, n))
    return (Q + sp.diags(w * V.reshape(-1))).tocsr()


def stencil_spectrum_mismatch(form):
    """The whole-grid spectrum check of a stencil form, mode by mode.

    The plane wave of mode (mx, my) is an eigenvector of the Kronecker sum
    of the two axis circulants plus the shift, with the eigenvalue
    sum_o s_xi[o] e^{2 pi i mx o / n} + sum_o s_eta[o] e^{2 pi i my o / n}
    + shift, each DFT written out as a matrix.  Returns the largest of its
    n^2 differences from w times the claimed eigenvalue
    (t_xi[mx] + t_eta[my]) / h^2 + V, relative to max(1, max|symbol|) w.
    """
    sx, sy = form.stencils
    n = sx.size
    j = np.arange(n)
    dft = np.exp(2j * np.pi * (np.outer(j, j) % n) / n)
    t_xi, t_eta = form.symbols
    symbol = (t_xi[:, None] + t_eta[None, :]) * n ** 2 + form.potential
    eig = (dft @ sx)[:, None] + (dft @ sy)[None, :] + form.shift
    scale = max(1.0, float(np.abs(symbol).max()))
    return float(np.abs(eig - form.w * symbol).max()) / (form.w * scale)


def wp_lattice_sum(z, lat, radius=60.0):
    """(wp, wp') of the lattice Z + Z tau by direct summation over the
    lattice points omega with 0 < |omega| <= radius, for a 1-D array z.

    Each z is first moved by a lattice vector into the cell |xi|, |eta| <=
    1/2 of z = xi + eta tau, where the truncated sum is most accurate; its
    tail is O(1/radius) before cancellation.  Slow: the oracle of `wp`.
    """
    z = np.asarray(z, dtype=complex)
    eta = z.imag / lat.tau2
    z = z - np.round(z.real - eta * lat.tau1) - np.round(eta) * lat.tau
    M = int(np.ceil(radius / min(1.0, lat.tau2))) + 2
    m, n = np.meshgrid(np.arange(-M, M + 1), np.arange(-M, M + 1))
    omega = (m + n * lat.tau).ravel()
    omega = omega[(np.abs(omega) <= radius) & (omega != 0)]
    p = [1 / w ** 2 + np.sum(1 / (w - omega) ** 2 - 1 / omega ** 2) for w in z]
    pp = [-2 / w ** 3 - 2 * np.sum(1 / (w - omega) ** 3) for w in z]
    return np.array(p), np.array(pp)


def isotropic_curvature(operator, X, Y):
    """R(X, Y, conj X, conj Y) / |X wedge Y|^2 for a curvature operator.

    operator is a 6 x 6 matrix on the 2-vectors e_i ^ e_j, i < j, of R^4 in
    lexicographic order; X and Y are stacked (..., 4) complex vectors.  The
    wedge coordinates w_ij = X_i Y_j - X_j Y_i are contracted with the
    operator directly, and |X wedge Y|^2 is the sum of |w_ij|^2.
    """
    pairs = list(itertools.combinations(range(4), 2))
    w = np.stack([X[..., i] * Y[..., j] - X[..., j] * Y[..., i]
                  for i, j in pairs], axis=-1)
    num = np.einsum("...a,ab,...b->...", w, operator, np.conj(w))
    return num.real / np.sum(np.abs(w) ** 2, axis=-1)


def cutoff_phi(n, ix, iy, window):
    """The full n x n cutoff of a `log_cutoff` result: its window pasted
    into ones."""
    phi = np.ones((n, n))
    phi[np.ix_(ix, iy)] = window
    return phi


def chart_norm2(sec, values):
    """sum |values|^2 dxdy over the n x n grid of the `SectionGrid` sec in
    the flat chart of its lattice, z = scale (xi + eta tau); with the
    section's own values this is its da mass (lam2 = 1 on a flat chart)."""
    lat = sec.lattice
    w = lat.scale ** 2 * lat.tau2 * sec.hx * sec.hy
    return float(np.sum(np.abs(values) ** 2) * w)


def dbar_energy_chart(sec):
    """sum |nabla_zbar c|^2 dxdy of a scalar `SectionGrid` in the flat chart
    of its lattice, from `dbar` of the whole grid."""
    return chart_norm2(sec, dbar(sec).values)


def surface_projectors(Fz):
    """Tangent and normal projectors, (n, n, 4, 4) each, of a conformal
    immersion with stored F_z: P_T = t1 t1^T + t2 t2^T for the unit
    vectors t1, t2 along F_x = 2 Re F_z and F_y = -2 Im F_z, and
    P_N = I - P_T."""
    t1, t2 = (v / np.linalg.norm(v, axis=2, keepdims=True)
              for v in (2 * Fz.real, -2 * Fz.imag))
    PT = (np.einsum("xyi,xyj->xyij", t1, t1)
          + np.einsum("xyi,xyj->xyij", t2, t2))
    return PT, np.eye(Fz.shape[2]) - PT


def plane_wave_sections(normal_proj, tau, puncture, count, extent=1,
                        seed=0, modes=4):
    """Random normal sections, (count, N, N, 4) with N = extent * n, built
    one plane wave at a time.

    Replays the draws of `EllipticScenario.random_normal_sections` from
    `default_rng(seed)`: per section and mode the integers kx, ky in
    [-3, 3] and the real and imaginary parts of the amplitude in R^4.  Each
    mode is the full grid wave e^{2 pi i (kx i + ky j) / N}, its phase
    reduced mod N in integers, times its amplitude; their sum is cut off
    by the smoothstep bump of the distance to the lattice (0 within 1.3
    puncture radii, 1 beyond 2) and then projected by the normal
    projectors `normal_proj`, (n, n, 4, 4), repeated over the cover.
    """
    n = normal_proj.shape[0]
    N = extent * n
    I, J = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    X, Y = I / n, J / n
    dist = np.abs((X - np.round(X)) + (Y - np.round(Y)) * tau)
    t = np.clip((dist - 1.3 * puncture) / (0.7 * puncture), 0.0, 1.0)
    bump = t * t * (3 - 2 * t)
    PN = np.tile(normal_proj, (extent, extent, 1, 1))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = np.zeros((N, N, 4), dtype=complex)
        for _ in range(modes):
            kx, ky = rng.integers(-3, 4), rng.integers(-3, 4)
            a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            wave = np.exp(2j * np.pi * ((kx * I + ky * J) % N) / N)
            v += wave[:, :, None] * a
        out.append(np.einsum("xyij,xyj->xyi", PN, v * bump[:, :, None]))
    return np.array(out)


def index_densities(imm, quants, twist=(0.0, 0.0)):
    """The array stencil of the Euclidean index form of `imm`.

    Returns a function of a batch of ambient fields v, (n, n, dim, S), that
    gives |(d_zbar v)^perp|^2 and |(d_z v)^top|^2 per node and section; Q(v)
    is the sum of their difference against the masked cell measure.  Each
    derivative is f_xi D_xi v + f_eta D_eta v with the central covariant
    difference D = (v[+1] e^{-ia} - v[-1] e^{ia}) / 2h taken by np.roll,
    a = twist * h per axis, and the Wirtinger factors of the chart z =
    scale (xi + eta tau) written out (conjugated for d_z); the norms are
    those of the node frames `quants`, |F w| for the 2 x dim rows F.
    """
    lat = imm.lattice
    f_xi = 0.5 * (1 - 1j * lat.tau1 / lat.tau2) / lat.scale
    f_eta = 0.5j / (lat.tau2 * lat.scale)
    h = 1.0 / imm.n

    def diff(v, axis):
        a = twist[axis] * h
        return (np.roll(v, -1, axis) * np.exp(-1j * a)
                - np.roll(v, 1, axis) * np.exp(1j * a)) / (2 * h)

    def densities(v):
        dx, dy = diff(v, 0), diff(v, 1)
        return tuple(
            np.sum(np.abs(np.einsum("xyai,xyis->xyas", F, fa * dx + fb * dy))
                   ** 2, axis=2)
            for F, fa, fb in ((quants.normal_frame, f_xi, f_eta),
                              (quants.tangent_frame, np.conj(f_xi),
                               np.conj(f_eta))))
    return densities


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
