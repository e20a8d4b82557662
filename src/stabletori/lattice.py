"""Lattices in the plane, fundamental-domain reduction and covering towers.

A torus is C/Lambda with Lambda = scale*(Z + Z*tau) (Im tau > 0, scale > 0).
All coordinates downstream are the oblique pair (xi, eta) defined by
z = scale*(xi + eta*tau), so the lattice translations act as integer shifts
of (xi, eta), and every length, area and derivative is read in that chart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCoverError, InvalidLatticeError


@dataclass(frozen=True)
class Lattice:
    """Torus C/(scale*(Z + Z*tau)) described by tau = tau1 + i*tau2 and the
    length `scale` of its first generator, the metric scale of its chart."""

    tau1: float
    tau2: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.tau2 > 0):
            raise InvalidLatticeError("tau must lie in the upper half-plane")
        if not (self.scale > 0):
            raise InvalidLatticeError("scale must be positive")

    @property
    def tau(self) -> complex:
        return complex(self.tau1, self.tau2)


def normalize_lattice(tau: complex) -> tuple[Lattice, np.ndarray]:
    """Reduce tau into the fundamental domain |Re| <= 1/2, |tau| >= 1.

    Gauss reduction: translate the real part into [-1/2, 1/2], invert when
    |tau| < 1, repeat.  Returns the reduced lattice together with the integer
    unimodular matrix U whose rows give the new generators in the old basis
    (1, tau): generator_i = U[i, 0] + U[i, 1]*tau, and
    tau' = generator_2 / generator_1.
    """
    tau = complex(tau)
    if not (tau.imag > 0):
        raise InvalidLatticeError("Im(tau) must be positive")

    # Moebius bookkeeping: tau' = (a*tau + b) / (c*tau + d).
    a, b, c, d = 1, 0, 0, 1
    max_it = 10000
    for _ in range(max_it):
        t = int(np.floor(tau.real + 0.5))
        if t != 0:
            tau -= t
            a, b = a - t * c, b - t * d
        if abs(tau) < 1 - 1e-15:
            tau = -1 / tau
            a, b, c, d = -c, -d, a, b
        elif abs(tau.real) <= 0.5 + 1e-15:
            break
    else:
        raise InvalidLatticeError("reduction did not terminate")

    # Boundary convention: prefer Re tau' >= 0 on |Re| = 1/2 and on |tau| = 1.
    if abs(tau.real + 0.5) < 1e-14:
        tau += 1.0
        a, b = a + c, b + d
    if abs(abs(tau) - 1.0) < 1e-14 and tau.real < -1e-14:
        tau = -1 / tau
        a, b, c, d = -c, -d, a, b

    U = np.array([[d, c], [b, a]], dtype=int)
    assert int(round(np.linalg.det(U))) == 1
    return Lattice(tau.real, tau.imag), U


def wirtinger_factors(lat: Lattice) -> tuple[complex, complex]:
    """(d xi / d zbar, d eta / d zbar) for the oblique coordinates of the
    chart z = scale*(xi + eta*tau)."""
    dxi = 0.5 * (1 - 1j * lat.tau1 / lat.tau2)
    deta = 1j / (2 * lat.tau2)
    return dxi / lat.scale, deta / lat.scale


@dataclass(frozen=True)
class CoverSpec:
    """Sublattice spanned by the rows of `basis` in the (1, tau) basis.

    Row i gives the integer coefficients (m_i, n_i) of the generator
    m_i + n_i*tau.  The covering degree is the determinant.
    """

    basis: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        if self.degree < 1:
            raise InvalidCoverError("cover basis must have positive determinant")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.basis, dtype=int)

    @property
    def degree(self) -> int:
        (a, b), (c, d) = self.basis
        return a * d - b * c

    def contains(self, other: "CoverSpec") -> bool:
        """True when the sublattice of `other` lies inside this one.

        Exact integer test: other = A @ self for an integer matrix A, that
        is other @ adj(self) is divisible by det(self).
        """
        (a, b), (c, d) = self.basis
        adj = np.array([[d, -b], [-c, a]], dtype=int)
        return bool(np.all(other.matrix @ adj % self.degree == 0))

    @staticmethod
    def scaling(k: int) -> "CoverSpec":
        """The sublattice k*Lambda, covering degree k**2."""
        if k < 1:
            raise InvalidCoverError("k must be >= 1")
        return CoverSpec(((k, 0), (0, k)))


def cover_lattice(lat: Lattice, spec: CoverSpec) -> Lattice:
    """The sublattice of `spec` with the spec's rows as its generators:
    g1 = a + b*tau and g2 = c + d*tau in units of lat.scale, so scale' =
    lat.scale*|g1| and tau' = g2/g1, unreduced.  A lift to it reads its
    holonomy around g1 and g2 (`LineHolonomy.lift`, `pullback_bundle`).
    With b = 0, tau' = c/a + (d/a)*tau, so a scaling spec gives
    Lattice(tau1, tau2, k*scale) exactly.  Its covering degree is
    spec.degree."""
    (a, b), (c, d) = spec.basis
    g1 = a + b * lat.tau
    tau = c / a + (d / a) * lat.tau if b == 0 else (c + d * lat.tau) / g1
    # det > 0 guarantees Im(tau) > 0.
    return Lattice(tau.real, tau.imag, lat.scale * abs(g1))


def flat_systole(lat: Lattice) -> float:
    """Length of the shortest nonzero lattice vector of scale*(Z + Z*tau).

    That is the first generator U[0, 0] + U[0, 1]*tau of the Gauss-reduced
    basis: |m + n*tau'| >= 1 for tau' reduced and (m, n) != (0, 0).
    """
    _, U = normalize_lattice(lat.tau)
    return float(lat.scale * abs(U[0, 0] + U[0, 1] * lat.tau))
