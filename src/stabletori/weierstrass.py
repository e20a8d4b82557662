"""Weierstrass elliptic functions for the lattice Z + Z*tau.

Evaluation uses the exponentially convergent Fourier (q-series) form after
reducing the argument to the fundamental cell.  The test suite checks it
against the classical direct lattice sum, which lives there as its oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, PoleError
from .lattice import Lattice

TWO_PI_I = 2j * np.pi
POLE_CUTOFF = 1e-6


def _reduce(z: np.ndarray, lat: Lattice) -> np.ndarray:
    """Translate z by lattice vectors so |xi|, |eta| <= 1/2."""
    z = np.asarray(z, dtype=complex)
    eta = z.imag / lat.tau2
    xi = z.real - z.imag * lat.tau1 / lat.tau2
    m = np.round(xi)
    n = np.round(eta)
    return z - m - n * lat.tau


def _qseries_terms(lat: Lattice) -> int:
    if lat.scale != 1:     # the series are those of the unit lattice
        raise DomainError(f"q-series need lattice scale 1, got {lat.scale!r}")
    # |q| = exp(-2 pi tau2) and the reduced |u| <= exp(pi tau2): stop when
    # |q^n u| <= exp(-pi tau2 (2n - 1)) < 1e-17, plus two guard terms.
    return int(np.ceil((17 * np.log(10) / (np.pi * lat.tau2) + 1) / 2)) + 2


def wp(z, lat: Lattice):
    """(wp(z), wp'(z)) by the q-series; vectorized over z.

    Raises PoleError when a reduced argument is within POLE_CUTOFF of a
    lattice point, and DomainError on a lattice whose scale is not 1.
    """
    nmax = _qseries_terms(lat)
    zr = _reduce(z, lat)
    if np.any(np.abs(zr) < POLE_CUTOFF):
        raise PoleError("argument too close to a lattice point")
    q = np.exp(TWO_PI_I * lat.tau)
    u = np.exp(TWO_PI_I * zr)

    p = 1.0 / 12.0 + u / (1.0 - u) ** 2
    pp = u * (1.0 + u) / (1.0 - u) ** 3
    qn = 1.0 + 0j
    for _ in range(1, nmax + 1):
        qn *= q
        a = qn * u
        b = qn / u
        p = p + a / (1.0 - a) ** 2 + b / (1.0 - b) ** 2 \
            - 2.0 * qn / (1.0 - qn) ** 2
        pp = pp + a * (1.0 + a) / (1.0 - a) ** 3 \
            - b * (1.0 + b) / (1.0 - b) ** 3
    return (TWO_PI_I ** 2) * p, (TWO_PI_I ** 3) * pp


def eisenstein_invariants(lat: Lattice) -> tuple[complex, complex]:
    """(g2, g3) from the normalized Eisenstein series E4, E6; a lattice whose
    scale is not 1 raises DomainError."""
    nmax = _qseries_terms(lat)
    q = np.exp(TWO_PI_I * lat.tau)
    ns = np.arange(1, nmax + 1)
    qn = q ** ns

    def sigma(k):
        # sum_{n} sigma_k(n) q^n = sum_d d^k q^d / (1 - q^d)
        return np.sum(ns ** k * qn / (1.0 - qn))

    E4 = 1.0 + 240.0 * sigma(3)
    E6 = 1.0 - 504.0 * sigma(5)
    g2 = (4.0 * np.pi ** 4 / 3.0) * E4
    g3 = (8.0 * np.pi ** 6 / 27.0) * E6
    return complex(g2), complex(g3)
