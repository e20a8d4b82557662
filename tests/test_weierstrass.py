"""Weierstrass p-function: series against lattice sums and identities."""

import numpy as np
import pytest

from stabletori.errors import DomainError, PoleError
from stabletori.geometry import elliptic_curve_immersion
from stabletori.lattice import Lattice, normalize_lattice
from stabletori.weierstrass import eisenstein_invariants, wp

from conftest import wp_lattice_sum


LATTICES = [normalize_lattice(t)[0] for t in (1.0j, 0.3 + 1.1j, -0.4 + 0.8j)]


@pytest.mark.parametrize("lat", LATTICES)
def test_qseries_matches_direct_lattice_sum(lat):
    zs = np.array([0.31 + 0.12j, 0.05 - 0.3j * lat.tau2, 0.47 + 0.45 * lat.tau])
    p, pp = wp(zs, lat)
    p2, pp2 = wp_lattice_sum(zs, lat, radius=150)
    # truncation of the conditionally convergent sum dominates the error
    assert np.max(np.abs(p - p2)) < 2e-5
    assert np.max(np.abs(pp - pp2)) < 5e-5


@pytest.mark.parametrize("lat", LATTICES)
def test_differential_equation(lat):
    zs = np.array([0.2 + 0.1j, 0.41 - 0.07j, 0.13 + 0.33 * lat.tau])
    p, pp = wp(zs, lat)
    g2, g3 = eisenstein_invariants(lat)
    res = pp ** 2 - (4 * p ** 3 - g2 * p - g3)
    scale = np.max(np.abs(pp ** 2)) + np.max(np.abs(4 * p ** 3))
    assert np.max(np.abs(res)) < 1e-12 * scale


@pytest.mark.parametrize("lat", LATTICES)
def test_parity_and_periodicity(lat):
    zs = np.array([0.27 + 0.18j, -0.1 + 0.22 * lat.tau])
    p, pp = wp(zs, lat)
    pm, ppm = wp(-zs, lat)
    assert np.allclose(p, pm, atol=1e-10 * np.max(np.abs(p)))
    assert np.allclose(pp, -ppm, atol=1e-10 * np.max(np.abs(pp)))
    for omega in (1.0, lat.tau):
        ps, pps = wp(zs + omega, lat)
        assert np.allclose(p, ps, atol=1e-9 * np.max(np.abs(p)))
        assert np.allclose(pp, pps, atol=1e-9 * np.max(np.abs(pp)))


@pytest.mark.parametrize("lat", LATTICES)
def test_half_periods_are_critical_points(lat):
    pts = np.array([0.5, lat.tau / 2.0, (1.0 + lat.tau) / 2.0])
    e, pp = wp(pts, lat)
    scale = np.max(np.abs(wp(np.array([0.3 + 0.1j]), lat)[1]))
    assert np.max(np.abs(pp)) < 1e-9 * max(scale, 1.0)
    # the three half-period values e1 + e2 + e3 sum to zero
    assert abs(np.sum(e)) < 1e-10 * max(1.0, np.max(np.abs(e)))


def test_special_lattice_invariants():
    # square lattice: g3 = 0; hexagonal lattice: g2 = 0
    sq, _ = normalize_lattice(1.0j)
    g2, g3 = eisenstein_invariants(sq)
    assert abs(g3) < 1e-12 * max(abs(g2), 1.0)
    hexa, _ = normalize_lattice(0.5 + np.sqrt(3) / 2 * 1j)
    h2, h3 = eisenstein_invariants(hexa)
    assert abs(h2) < 1e-12 * max(abs(h3), 1.0)


def test_wp_second_is_the_derivative_of_wp_prime():
    # the elliptic immersion stores F_z[2] = wp''/2 from wp'' = 6 wp^2 - g2/2
    lat = LATTICES[1]
    n = 16
    imm = elliptic_curve_immersion(lat, 0.1, n)
    i, j = np.array([5, 3, 11]), np.array([2, 8, 13])
    assert imm.mask[i, j].all()
    z = (i + j * lat.tau) / n
    h = 1e-5
    _, pa = wp(z + h, lat)
    _, pb = wp(z - h, lat)
    fd = (pa - pb) / (2 * h)
    got = 2 * imm.Fz[i, j, 2]
    assert np.max(np.abs(got - fd) / np.abs(got)) < 1e-6


def test_pole_raises():
    lat = LATTICES[0]
    with pytest.raises(PoleError):
        wp(np.array([0.0 + 0.0j]), lat)
    with pytest.raises(PoleError):
        wp(np.array([1.0 + 0.0j]), lat)   # lattice point


def test_scaled_lattice_is_refused():
    # the q-series are those of Z + Z tau; a flat torus's lattice carries
    # its first period as scale, and must not be read as the unit lattice,
    # not even at an argument on the unit lattice's pole
    lat = Lattice(0.0, 1.0, 2.0)
    for z in (0.3 + 0.2j, 0.0j):
        with pytest.raises(DomainError, match="scale"):
            wp(np.array([z]), lat)
    with pytest.raises(DomainError, match="scale"):
        eisenstein_invariants(lat)
    with pytest.raises(DomainError, match="scale"):
        elliptic_curve_immersion(lat, 0.1, 16)
