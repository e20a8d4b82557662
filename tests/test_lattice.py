"""Lattice normalization, coordinates, covers, flat systoles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabletori.errors import InvalidCoverError, InvalidLatticeError
from stabletori.lattice import (CoverSpec, Lattice, cover_lattice, flat_systole,
                                normalize_lattice, wirtinger_factors)

from conftest import brute_force_reduced_tau


def _in_fundamental_domain(lat, tol=1e-12):
    return abs(lat.tau) >= 1 - tol and abs(lat.tau1) <= 0.5 + tol


TAUS = [
    0.3 + 1.1j,
    -0.7 + 0.4j,
    0.1 + 0.1j,      # far outside the fundamental domain
    2.5 + 0.05j,
    -1.4 + 2.2j,
    0.5 + 0.9j,      # boundary Re = 1/2
    0.0 + 1.0j,
]


@pytest.mark.parametrize("tau", TAUS)
def test_normalize_matches_exhaustive_search(tau):
    lat, U = normalize_lattice(tau)
    best_im = brute_force_reduced_tau(tau)
    assert lat.tau2 == pytest.approx(best_im, rel=1e-12)
    assert _in_fundamental_domain(lat)


@pytest.mark.parametrize("tau", TAUS)
def test_normalize_unimodular_bookkeeping(tau):
    """U must be unimodular and reproduce tau' as a Mobius image of tau."""
    lat, U = normalize_lattice(tau)
    U = np.asarray(U)
    assert U.shape == (2, 2)
    assert U.dtype.kind in "iu" or np.allclose(U, np.round(U))
    det = U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]
    assert det == 1
    # rows of U are the new generators in the old (1, tau) basis
    g1 = U[0, 0] + U[0, 1] * tau
    g2 = U[1, 0] + U[1, 1] * tau
    assert g2 / g1 == pytest.approx(lat.tau, abs=1e-12)


@given(st.floats(-3, 3), st.floats(0.05, 4))
@settings(max_examples=60, deadline=None)
def test_normalize_is_reduced_and_im_does_not_drop(t1, t2):
    lat, _ = normalize_lattice(complex(t1, t2))
    assert _in_fundamental_domain(lat)
    assert lat.tau2 >= t2 - 1e-12


def test_normalize_huge_real_part_reduces_to_i():
    # floor(x + 0.5) rounds x = 2^52 + 1 up, so the first translation lands
    # at Re tau = -1 and a second pass of the loop must translate again
    lat, U = normalize_lattice(2 ** 52 + 1 + 1j)
    assert (lat.tau1, lat.tau2) == (0.0, 1.0)
    assert round(np.linalg.det(U)) == 1


def test_degenerate_lattice_rejected():
    with pytest.raises(InvalidLatticeError):
        normalize_lattice(0.5 + 0.0j)
    with pytest.raises(InvalidLatticeError):
        Lattice(0.0, -1.0)
    for s in (0.0, -1.0, np.nan):
        with pytest.raises(InvalidLatticeError):
            Lattice(0.0, 1.0, s)


def test_wirtinger_factors_annihilate_z_and_fix_zbar():
    # dbar applied to z = xi + eta*tau must vanish; applied to conj(z) it is 1
    for tau in (1.0j, 0.3 + 1.1j, -0.5 + 0.87j):
        lat, _ = normalize_lattice(tau)
        fxi, feta = wirtinger_factors(lat)
        assert abs(fxi + feta * lat.tau) < 1e-14
        assert abs(fxi + feta * np.conj(lat.tau) - 1.0) < 1e-14


def test_cover_spec_degree_and_validation():
    assert CoverSpec.scaling(3).degree == 9
    assert CoverSpec(((1, 0), (0, 2))).degree == 2
    assert CoverSpec(((2, 1), (0, 2))).degree == 4
    with pytest.raises(InvalidCoverError):
        CoverSpec(((1, 0), (2, 0)))   # rank deficient


@given(st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_scaling_covers_nest_exactly_by_divisibility(j, k):
    assert CoverSpec.scaling(j).contains(CoverSpec.scaling(k)) == (k % j == 0)


def test_cover_lattice_scaling_tower():
    lat = Lattice(0.0, 1.0)
    for k in (1, 2, 5):
        spec = CoverSpec.scaling(k)
        lat_k = cover_lattice(lat, spec)
        assert spec.degree == k * k
        assert lat_k.tau == pytest.approx(lat.tau)
        assert lat_k.scale == pytest.approx(k)


def test_cover_lattice_vertical_double():
    lat = Lattice(0.0, 1.0)
    # the sublattice spanned by 1 and 2*tau
    spec = CoverSpec(((1, 0), (0, 2)))
    lat2 = cover_lattice(lat, spec)
    assert spec.degree == 2
    # (1, 2i) is already reduced; the chart keeps unit horizontal scale
    assert lat2.tau == pytest.approx(2.0j)
    assert lat2.scale == pytest.approx(1.0)


@pytest.mark.parametrize("tau,expected", [
    (1.0j, 1.0),
    (2.0j, 1.0),
    (0.5 + np.sqrt(3) / 2 * 1j, 1.0),   # hexagonal: all short vectors length 1
    (0.3 + 1.1j, None),
])
def test_flat_systole_closed_forms(tau, expected):
    lat, _ = normalize_lattice(tau)
    got = flat_systole(lat)
    if expected is None:
        # reduced basis vector 1 is shortest for a reduced lattice
        expected = 1.0
    assert got == pytest.approx(expected, rel=1e-12)


def test_flat_systole_scales_linearly():
    lat = Lattice(0.2, 0.9)
    base = flat_systole(lat)
    assert flat_systole(Lattice(0.2, 0.9, 3.5)) == pytest.approx(3.5 * base,
                                                                 rel=1e-12)


def test_sublattice_systole_growth_is_exact():
    lat, _ = normalize_lattice(0.5 + 0.9j)
    base = flat_systole(lat)
    for k in range(1, 11):
        lat_k = cover_lattice(lat, CoverSpec.scaling(k))
        assert flat_systole(lat_k) == pytest.approx(k * base, rel=1e-12)


def _enumerated_systole(tau: complex, scale: float) -> float:
    """Shortest |m + n*tau| by enumeration: |n| Im(tau) <= |1| bounds n."""
    best = 1.0
    nmax = int(np.ceil(1.0 / tau.imag))
    for n in range(-nmax, nmax + 1):
        centre = int(round(-n * tau.real))
        for m in range(centre - 2, centre + 3):
            if m or n:
                best = min(best, abs(m + n * tau))
    return scale * best


@pytest.mark.parametrize("lat, expected", [
    (Lattice(0.0, 1.0 / 6.0), 1.0 / 6.0),
    (Lattice(0.3, 0.4), 0.5),
    (Lattice(0.2, 0.9), abs(0.2 + 0.9j)),
])
def test_flat_systole_of_unreduced_lattice(lat, expected):
    assert flat_systole(lat) == pytest.approx(expected, rel=1e-12)


@given(st.floats(-3, 3), st.floats(0.05, 3), st.floats(0.1, 10))
@settings(max_examples=100, deadline=None)
def test_flat_systole_matches_enumeration(t1, t2, scale):
    lat = Lattice(t1, t2, scale)
    assert flat_systole(lat) == pytest.approx(
        _enumerated_systole(lat.tau, scale), rel=1e-12)
