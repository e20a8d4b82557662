"""Lattices in the plane, fundamental-domain reduction and covering towers.

A torus is C/Lambda with Lambda generated by 1 and tau (Im tau > 0).  All
coordinates downstream are the oblique pair (xi, eta) defined by
z = xi + eta*tau, so the lattice translations act as integer shifts of
(xi, eta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCoverError, InvalidLatticeError


@dataclass(frozen=True)
class Lattice:
    """Torus C/(Z + Z*tau) described by tau = tau1 + i*tau2."""

    tau1: float
    tau2: float

    def __post_init__(self):
        if not (self.tau2 > 0):
            raise InvalidLatticeError("tau must lie in the upper half-plane")

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
    """(d xi / d zbar, d eta / d zbar) for the oblique coordinates."""
    dxi = 0.5 * (1 - 1j * lat.tau1 / lat.tau2)
    deta = 1j / (2 * lat.tau2)
    return dxi, deta


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


def cover_lattice(lat: Lattice, spec: CoverSpec,
                  scale: float = 1.0) -> tuple[Lattice, float, int]:
    """Renormalized lattice of the sublattice, its scale, and the degree.

    The sublattice spanned by g1 = a + b*tau and g2 = c + d*tau is rewritten
    as scale' * (Z + Z*tau') with tau' reduced.  `scale` is the metric scale
    of the input lattice (length of its first generator); scale' plays the
    same role for the output, so flat systoles can be compared across covers.
    """
    (a, b), (c, d) = spec.basis
    g1 = a + b * lat.tau
    g2 = c + d * lat.tau
    tau_raw = g2 / g1
    # det > 0 guarantees Im(tau_raw) > 0.
    reduced, U = normalize_lattice(tau_raw)
    # First generator after reduction, measured in the (g1, g2) frame.
    gen1 = U[0, 0] + U[0, 1] * tau_raw
    new_scale = scale * abs(g1) * abs(gen1)
    return reduced, new_scale, spec.degree


def flat_systole(lat: Lattice, scale: float = 1.0) -> float:
    """Length of the shortest nonzero lattice vector of scale*(Z + Z*tau).

    That is the first generator U[0, 0] + U[0, 1]*tau of the Gauss-reduced
    basis: |m + n*tau'| >= 1 for tau' reduced and (m, n) != (0, 0).
    """
    if not (scale > 0):
        raise InvalidLatticeError("scale must be positive")
    _, U = normalize_lattice(lat.tau)
    return float(scale * abs(U[0, 0] + U[0, 1] * lat.tau))
