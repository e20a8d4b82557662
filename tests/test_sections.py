"""Section grids, covariant differences, metrics."""

import tracemalloc

import numpy as np
import pytest

from stabletori.lattice import Lattice, wirtinger_factors
from stabletori.bundles import AtiyahData, LineHolonomy, atiyah_sections, line_section
from stabletori.cli import FLAT_SUP_TOL
from stabletori.sections import (SectionGrid, _axis_diff, dbar, gram_matrix,
                                 wirtinger_diff)


LAT = Lattice(0.0, 1.0)


def _wave_section(omega_x, omega_y, phi, theta, n=64):
    xi = np.arange(n) / n
    X, Y = np.meshgrid(xi, xi, indexing="ij")
    vals = np.exp(1j * (omega_x * X + omega_y * Y))[:, :, None]
    return SectionGrid(lattice=LAT, values=vals, phi=phi, theta=theta)


def test_wirtinger_diff_central_symbol():
    """Central difference of a plane wave has the exact sine symbol."""
    n = 64
    m = 3
    omega = 2 * np.pi * m
    phi = 0.7
    sec = _wave_section(omega, 0.0, phi, 0.0, n)
    h = 1.0 / n
    d = wirtinger_diff(sec.values, (1.0, 0.0), (h, h), (phi, 0.0))
    symbol = 1j * np.sin((omega - phi) * h) / h
    assert np.allclose(d, symbol * sec.values, atol=1e-10)


def test_wirtinger_diff_eta_symbol_with_its_own_step():
    # eta has its own step: 48 nodes over [0, 2), against 64 over [0, 1)
    nx, ny, b = 64, 48, 2.0
    omega, phi, theta = 2 * np.pi * 5 / b, 0.4, -1.1
    hx, hy = 1.0 / nx, b / ny
    eta = np.arange(ny) * hy
    vals = np.tile(np.exp(1j * omega * eta), (nx, 1))[:, :, None]
    g, f = 0.5 + 0.2j, 0.3 - 0.8j
    d = wirtinger_diff(vals, (g, f), (hx, hy), (phi, theta))
    sx = 1j * np.sin(-phi * hx) / hx            # the wave is constant in xi
    sy = 1j * np.sin((omega - theta) * hy) / hy
    assert np.allclose(d, (g * sx + f * sy) * vals, atol=1e-10)


def _roll_wirtinger(v, factors, steps, twist, bmat):
    """The periodic central covariant difference written with np.roll."""
    def diff(axis):
        a = twist[axis] * steps[axis]
        return (np.roll(v, -1, axis=axis) * np.exp(-1j * a)
                - np.roll(v, 1, axis=axis) * np.exp(1j * a)) / (2 * steps[axis])

    d_eta = diff(1)
    if bmat is not None:
        d_eta = d_eta - np.einsum("ij,xyj...->xyi...", bmat, v)
    return factors[0] * diff(0) + factors[1] * d_eta


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("tail, nilpotent", [((), False), ((3,), False),
                                             ((3,), True), ((3, 10), False),
                                             ((3, 10), True)])
@pytest.mark.parametrize("twist", [(0.0, 0.0), (0.7, -2.3)])
def test_wirtinger_diff_equals_the_roll_formula(n, tail, nilpotent, twist):
    # bit for bit: n = 1 and 2 fold the two neighbours into one node, and
    # n = 64 with 10 sections is large enough for numpy to reuse temporaries;
    # bmat acts on the fibre axis, so only fields with one take it
    rng = np.random.default_rng(n + len(tail))
    shape = (n, n) + tail
    v = rng.standard_normal(shape)
    if tail:                   # a real scalar field, like a cutoff, otherwise
        v = v + 1j * rng.standard_normal(shape)
    bmat = np.diag([1.5, -0.5], 1) if nilpotent else None
    factors = wirtinger_factors(Lattice(0.3, 1.2))
    steps = (1.0 / n, 2.0 / n)
    got = wirtinger_diff(v, factors, steps, twist, bmat)
    assert np.array_equal(got, _roll_wirtinger(v, factors, steps, twist, bmat))


def _roll_diff(v, axis, step, angle):
    return (np.roll(v, -1, axis=axis) * np.exp(-1j * angle)
            - np.roll(v, 1, axis=axis) * np.exp(1j * angle)) / (2 * step)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("angle", [0.0, 0.3])
def test_axis_diff_on_1d_and_2d_fields(n, angle):
    # bit for bit against np.roll on a 1-D factor and on both axes of a
    # 2-D field; a 1-D factor and the same factor as an (n, 1) column agree
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal((n, n + 1)) + 1j * rng.standard_normal((n, n + 1))
    h = 1.0 / n
    got = _axis_diff(f, 0, h, angle)
    assert got.shape == (n,)
    assert np.array_equal(got, _roll_diff(f, 0, h, angle))
    assert np.array_equal(got, _axis_diff(f[:, None], 0, h, angle)[:, 0])
    for axis in (0, 1):
        assert np.array_equal(_axis_diff(v, axis, h, angle),
                              _roll_diff(v, axis, h, angle))


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("L", [LineHolonomy(np.pi, np.pi),
                               LineHolonomy(0.9, -2.0)])
@pytest.mark.parametrize("lat", [LAT, Lattice(0.3, 1.2)])
def test_product_rule_sup_matches_the_grid_dbar(n, L, lat):
    # the product-rule sup of `sections` against dbar on the n x n grid;
    # on a trivial lift both are rounding noise under FLAT_SUP_TOL
    for k in range(1, 17):
        sec = line_section(L, k, lat, n)
        got = sec.sup_dbar()
        want = float(np.max(np.abs(dbar(sec.grid()).values)))
        if sec.sup_dbar_exact > 0:
            assert got == pytest.approx(want, rel=1e-13, abs=0)
        else:
            assert max(got, want) <= FLAT_SUP_TOL


def test_line_section_at_grid_2000_allocates_no_grid():
    # one n x n complex array would be 64 MB
    tracemalloc.start()
    try:
        sec = line_section(LineHolonomy(0.9, -2.0), 3, LAT, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sec.f.shape == sec.g.shape == (2000,)
    assert peak < 1e6


def test_dbar_is_close_on_line_sections():
    L = LineHolonomy(0.5, 1.3)
    sec = line_section(L, 1, LAT, 32).grid()
    fxi, feta = wirtinger_factors(LAT)
    # the periodic-gauge wave has omega = 0, so the connection term is all of it
    target = -1j * (L.phi * fxi + L.theta * feta) * sec.values
    assert np.max(np.abs(dbar(sec).values - target)) < 1e-3


def test_gram_matrix_constant_and_field_metrics():
    secs = atiyah_sections(AtiyahData(r=2, delta=0.1), LAT, 32)
    G, (emin, emax) = gram_matrix(secs)
    assert emin == pytest.approx(1.0, abs=1e-12)
    assert emax == pytest.approx(1.0, abs=1e-12)
    H = 2.0 * np.eye(2)
    G2, rng2 = gram_matrix(secs, metric=H)
    assert rng2[0] == pytest.approx(2.0, abs=1e-12)
