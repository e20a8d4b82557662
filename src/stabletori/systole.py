"""Systoles, phase trial sections, and the systole-bound verdict
R <= C / sqrt(kappa).

Every systole the package computes is a flat one, exact from the period
lattice (`lattice.flat_systole`), and the truncated distances of the trial
sections are read off the flat chart; anything but a `FlatTorus` raises
`WrongFormError`.  `induced_systole` is a graph distance on a patch of the
universal cover, an 8-neighbor weighted grid graph (Dijkstra), kept as the
tests' independent check of the exact flat systole.  The 8-neighbor metric
overestimates lengths by at most ~8.24% in the worst direction.  The graph
is the module's only use of scipy, imported when `induced_systole` runs.
The trial section is kept as its two 1-D factors, so the Rayleigh check
costs O(n) on an n x n grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bundles import LineHolonomy
from .errors import DomainError, ResolutionError, WrongFormError
from .geometry import FlatTorus
from .lattice import CoverSpec, Lattice, wirtinger_factors
from .sections import ProductSection, _axis_diff
from .stability import STABLE_TOL

EIGHT_NEIGHBOR_ANISOTROPY = 0.0824

GENERAL_CONSTANT = 2 * np.pi / np.sqrt(3.0)
EXCEPTIONAL_CONSTANT = 2 * (18 + np.pi) / np.sqrt(3.0)


# ---------------------------------------------------------------------------
# graph systole


def induced_systole(imm: FlatTorus, window: int = 2, stride: int = 8) -> float:
    """Shortest nontrivial closed curve length from grid distances.

    R = min over deck translates gamma = (m, n), |m|, |n| <= window, of
    min over sampled base points z of d(z, z + gamma), for the graph
    distance d of the 8-neighbor graph over the cover patch of the
    imm.n x imm.n grid, each edge weighing its chord (lam2 = 1).
    """
    if not isinstance(imm, FlatTorus):
        raise WrongFormError("the graph systole needs a flat torus")
    import scipy.sparse as sp
    from scipy.sparse.csgraph import dijkstra
    n = imm.n
    W = (2 * window + 1) * n
    h = 1.0 / n
    node = np.arange(W * W).reshape(W, W)
    rows, cols, data = [], [], []
    for dx, dy in [(1, 0), (0, 1), (1, 1), (1, -1)]:
        # every step has dx >= 0; a step down starts one column in
        src = node[: W - dx, max(0, -dy): W - max(0, dy)]
        rows.append(src.reshape(-1))
        cols.append((src + dx * W + dy).reshape(-1))
        chord = abs(imm.lattice.scale * (dx * h + dy * h * imm.lattice.tau))
        data.append(np.full(src.size, chord))
    G = sp.csr_matrix((np.concatenate(data),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(W * W, W * W))
    G = G + G.T
    srcs = [(i, j) for i in range(0, n, stride) for j in range(0, n, stride)]
    best = np.inf
    off = window * n
    batch = 32
    for k0 in range(0, len(srcs), batch):
        chunk = srcs[k0:k0 + batch]
        idx = [(off + i) * W + (off + j) for (i, j) in chunk]
        d = dijkstra(G, indices=idx, directed=False)
        d = d.reshape(len(chunk), W, W)
        for s, (i, j) in enumerate(chunk):
            for m in range(-window, window + 1):
                for nn in range(-window, window + 1):
                    if m == 0 and nn == 0:
                        continue
                    best = min(best, d[s, off + i + m * n, off + j + nn * n])
    return float(best)


# ---------------------------------------------------------------------------
# trial sections


@dataclass
class TruncatedDistance:
    """Axis truncated distances delta((0,0),(xi,0)) and delta((0,0),(0,eta)).

    Straight-line lengths in the flat chart, capped at the systole R, so
    delta reaches exactly R after one full period.
    """

    delta_xi: np.ndarray     # values at xi = i/n, i = 0..n
    delta_eta: np.ndarray    # values at eta = j/n, j = 0..n
    R: float


def axis_truncated_distances(imm: FlatTorus, R: float) -> TruncatedDistance:
    if not (R > 0):
        raise DomainError("systole must be positive")
    if not isinstance(imm, FlatTorus):
        raise WrongFormError("truncated distances need a flat chart")
    ts = np.linspace(0.0, 1.0, imm.n + 1)
    a_len, b_len = imm.periods
    dxi = np.minimum(R, a_len * ts)
    deta = np.minimum(R, b_len * ts)
    if abs(dxi[-1] - R) > 1e-9 * max(R, 1.0) or abs(deta[-1] - R) > 1e-9 * max(R, 1.0):
        raise DomainError("truncated distance does not reach R at the period")
    return TruncatedDistance(dxi, deta, R)


def phase_trial_section(L: LineHolonomy, deltas: TruncatedDistance,
                        lattice: Lattice) -> ProductSection:
    """The Lipschitz isotropic trial section with truncated-distance phase.

    Periodic-gauge representative
    c(xi, eta) = exp(-i*(delta_xi(xi)*phi + delta_eta(eta)*theta)/R)
                 * exp(i*(phi*xi + theta*eta)),
    which is exactly periodic because delta reaches R at the period; both
    phase ramps carry the minus sign, which is the choice that closes both
    seams simultaneously.  It is the product of the xi and the eta factor,
    on the grid and with the systole R of `deltas`, measured in the chart of
    `lattice` (the torus's, which carries its scale).
    """
    R = deltas.R
    dx, dy = deltas.delta_xi[:-1], deltas.delta_eta[:-1]
    n = len(dx)
    if len(dy) != n:
        raise DomainError("delta fields must be sampled on the same grid")
    t = np.arange(n) / n
    f, g = (np.exp(-1j * (d * a) / R) * np.exp(1j * (a * t))
            for d, a in ((dx, L.phi), (dy, L.theta)))
    # Seam residual from the closing identities at xi = 1 and eta = 1.
    seam = max(abs(np.exp(-1j * d[-1] * a / R) * np.exp(1j * a) - 1.0)
               for d, a in ((deltas.delta_xi, L.phi),
                            (deltas.delta_eta, L.theta)))
    return ProductSection(lattice, f, g, L.phi, L.theta, float(seam), R=R)


@dataclass
class RayleighReport:
    lhs: float
    rhs: float
    energy_bound: float
    chain_holds: bool


def rayleigh_bound_check(s: ProductSection, kappa: float) -> RayleighReport:
    """Report kappa * Mass(s) <= dbar energy <= (2 pi / (sqrt3 R))^2 Mass(s).

    On a stable scenario this chain forces R <= (2 pi / sqrt3) /
    sqrt(kappa), which `systole_bound_verdict` decides.  `chain_holds`
    records whether the computed chain itself holds; it is reported and not
    judged, because its first inequality needs stability.

    Mass and energy are the section's own `mass` and `dbar_energy`, grid
    sums in the flat chart of its lattice (lam2 = 1), so R, the mass and
    the energy are all read on that one chart.
    """
    mass_da, energy = s.mass(), s.dbar_energy()
    lhs = kappa * mass_da
    ebound = s.grad_bound ** 2 * mass_da
    return RayleighReport(lhs, energy, ebound, bool(lhs <= energy <= ebound))


# ---------------------------------------------------------------------------
# exceptional case (the n = 5, 6 cutoff construction)


@dataclass
class ExceptionalReport:
    """The masks and cutoffs are functions of eta alone, sampled at the
    2n rows eta = j / 2n; `s1` and `localized` are product sections."""

    U_masks: list[np.ndarray]
    V_masks: list[np.ndarray]
    phi_I: np.ndarray
    phi_V: np.ndarray
    s1: ProductSection
    localized: ProductSection
    energies_I: list[float]
    energies_J: list[float]
    selected: int
    case: str
    grad_bound_I: float
    grad_bound_V: float
    max_grad_I: float
    max_grad_V: float
    rayleigh: float
    chain_bound: float
    injectivity_violations: int


def exceptional_cutoffs(base: FlatTorus, R: float) -> ExceptionalReport:
    """Cutoff regions and localized sections on the vertical double cover
    of the flat torus `base`.

    The cover is `base.cover(((1, 0), (0, 2)))`, two base tori stacked
    vertically (doubling a period is exact).  Everything is measured in its
    own chart [0,1)^2 at n x 2n nodes, n = base.n, with a horizontal
    holonomy of -1 detwisted by the truncated-distance phase.  d_j is the
    induced distance to the circle eta = j / 2; U_j = {d_j <= R/3}; the
    I-case cutoff ramps as 3 - 6 d_1 / R between R/3 and R/2, the V-case
    uses (3/R) min(d_0, d_1).  `injectivity_violations` counts the
    nodes where the selected cutoff's support meets its translate by the
    deck transformation, half the cover vertically.  The section depends on
    xi alone and every distance on eta alone, so nothing of size n^2 is
    built: each grid sum is a product of two axis sums.
    """
    if not isinstance(base, FlatTorus):
        raise DomainError("exceptional construction implemented on flat tori")
    imm = base.cover(CoverSpec(((1, 0), (0, 2))))
    a_len, b_len = imm.periods
    n = base.n
    if R / 6 < 4 * (b_len / n):
        raise ResolutionError("R/6 band resolved by fewer than ~8 cells")
    ny = 2 * n
    xi = np.arange(n) / n
    # the physical vertical coordinate in [0, b_len) of each eta row
    y = b_len * (np.arange(ny) / ny)
    half = b_len / 2.0

    # The double cover stacks two copies of the base torus, so the two
    # exceptional circles sit at y = 0 and y = b_len / 2.  d_0 wraps through
    # the translate at y = b_len; d_1 never needs to.
    d = [np.minimum(np.abs(y), np.abs(y - b_len)), np.abs(y - half)]
    U = [dd <= R / 3.0 for dd in d]
    V = [(d[0] > R / 3.0) & (d[1] > R / 3.0) & (y < half),
         (d[0] > R / 3.0) & (d[1] > R / 3.0) & (y >= half)]

    phi_I = np.clip(3.0 - 6.0 * d[1] / R, 0.0, 1.0)
    phi_V = np.clip(np.minimum(d[0], d[1]) * 3.0 / R, 0.0, 1.0)

    # Periodic-gauge values: the xi phase pi is detwisted by the truncated
    # distance delta((0,0),(xi,0)) = min(R, a xi) (exactly periodic because
    # delta reaches R at the seam); the eta phase pi stays in the connection
    # and is paid as vertical energy.
    f = np.exp(1j * (np.pi * xi - np.minimum(R, a_len * xi) * np.pi / R))
    s1 = ProductSection(imm.lattice, f, np.ones(ny, dtype=complex), np.pi,
                        np.pi, 0.0)

    # the mass of s1 over each region: s1 with its eta factor masked
    I, J = ([replace(s1, g=m * s1.g).mass() for m in M] for M in (U, V))
    selected = int(np.argmax(I))
    phi = phi_I if selected == 1 else np.clip(3.0 - 6.0 * d[0] / R, 0.0, 1.0)
    localized = replace(s1, g=phi * s1.g)

    # Gradient magnitudes of the cutoffs (lam2 = 1 on the flat chart): a
    # function of eta has no xi difference, so |dbar phi| = |f_eta| |D phi|.
    feta = abs(wirtinger_factors(imm.lattice)[1])
    g_I, g_V = (feta * np.abs(_axis_diff(c, 0, 1.0 / ny, 0.0)).max()
                for c in (phi_I, phi_V))
    bound_I = (6.0 / R) * np.sqrt(3.0)
    bound_V = (3.0 / R) * np.sqrt(3.0)

    # Support injectivity: the support must miss its vertical deck
    # translate (by half the cover); count the nodes where it does not.
    supp = phi > 1e-12
    viol = n * int(np.count_nonzero(supp & np.roll(supp, ny // 2)))

    # Rayleigh quotient of the localized section against the proof's chain.
    energy = localized.dbar_energy()
    mass_sel = I[selected]
    ray = energy / mass_sel if mass_sel > 0 else np.inf
    chain = (EXCEPTIONAL_CONSTANT / R) ** 2
    return ExceptionalReport(
        U_masks=U, V_masks=V, phi_I=phi_I, phi_V=phi_V, s1=s1,
        localized=localized, energies_I=I, energies_J=J, selected=selected,
        case="I" if max(I) >= max(J) else "V",
        grad_bound_I=bound_I, grad_bound_V=bound_V,
        max_grad_I=float(g_I), max_grad_V=float(g_V),
        rayleigh=float(ray), chain_bound=float(chain),
        injectivity_violations=viol,
    )


@dataclass
class VerdictReport:
    applicable: bool
    passed: bool
    R: float
    kappa_hat: float
    constant: float
    bound: float
    margin: float


def systole_bound_verdict(lambda_min: float, R: float, kappa_hat: float,
                          case: str = "general") -> VerdictReport:
    """Assert R <= C / sqrt(kappa) whenever the scenario is stable.

    `lambda_min` is the exact continuum bottom of the second-variation form
    (`SpectrumResult.continuum`); the scenario is stable when it is at least
    -STABLE_TOL.  C is 2 pi / sqrt 3 in the general case and
    2 (18 + pi) / sqrt 3 in the exceptional one.  R is taken as exact.
    """
    if case not in ("general", "exceptional"):
        raise DomainError("case must be 'general' or 'exceptional'")
    C = GENERAL_CONSTANT if case == "general" else EXCEPTIONAL_CONSTANT
    applicable = lambda_min >= -STABLE_TOL
    if kappa_hat <= 0:
        bound = np.inf
    else:
        bound = C / np.sqrt(kappa_hat)
    passed = (not applicable) or R <= bound
    margin = bound - R if np.isfinite(bound) else np.inf
    return VerdictReport(bool(applicable), bool(passed), R, kappa_hat, C,
                         float(bound), float(margin))
