"""Ambient curvature, isotropic planes, immersions, surface quantities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabletori.errors import DomainError
from stabletori.lattice import Lattice
from stabletori.geometry import (KAPPA_BLOCK, AmbientSpace, IsotropicPlane,
                                 KappaReport, _orthonormal_frames, _plane_checks,
                                 complex_sectional_curvatures,
                                 elliptic_curve_immersion, kappa_pic_estimate,
                                 plane_from_frame, product_geodesic_torus,
                                 random_isotropic_plane, second_ff_norm2,
                                 surface_quantities)
from stabletori.weierstrass import eisenstein_invariants, wp, wp_second

from conftest import elliptic_second_ff_oracle


def _product_ambient(rho=1.0):
    return AmbientSpace(kind="product_circle_sphere", circle_radius=2.0,
                        sphere_radius=rho, n_sphere=3)


def test_flat_ambient_curvature_vanishes():
    amb = AmbientSpace(kind="flat_torus", dim=4)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((4, 4))
    assert amb.curvature(v[0], v[1], v[2], v[3]) == 0.0


def test_sphere_sectional_curvature_value():
    """Real sectional curvature of the sphere factor equals 1/rho^2."""
    for rho in (1.0, 0.5):
        amb = _product_ambient(rho)
        # two orthonormal sphere-tangent directions at the base point
        X = np.zeros(5); X[3] = 1.0
        Y = np.zeros(5); Y[4] = 1.0
        K = amb.curvature(X, Y, X, Y)
        assert np.real(K) == pytest.approx(1.0 / rho ** 2, rel=1e-12)
    # mixed plane through the circle direction is flat
    amb = _product_ambient(1.0)
    T = np.zeros(5); T[0] = 1.0
    assert abs(amb.curvature(T, Y, T, Y)) < 1e-14


def test_curvature_symmetries(rng):
    amb = _product_ambient(0.7)
    v = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    X, Y, Z, W = v
    R = amb.curvature
    assert R(X, Y, Z, W) == pytest.approx(-R(Y, X, Z, W), abs=1e-12)
    assert R(X, Y, Z, W) == pytest.approx(R(Z, W, X, Y), abs=1e-12)
    bianchi = R(X, Y, Z, W) + R(Y, Z, X, W) + R(Z, X, Y, W)
    assert abs(bianchi) < 1e-10


def test_isotropic_plane_validation(rng):
    for _ in range(20):
        plane = random_isotropic_plane(5, rng)
        assert max(plane.residuals()) <= 1e-10
    with pytest.raises(DomainError):
        IsotropicPlane(np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
    with pytest.raises(DomainError):
        IsotropicPlane(np.full(4, np.nan), np.full(4, np.nan))
    with pytest.raises(DomainError):
        random_isotropic_plane(3, rng)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_orthonormal_frames_match_the_qr_oracle(rng, n):
    """Gram-Schmidt twice gives the Q of A = QR with diag R > 0, stacked or
    not, to working precision."""
    stack = rng.standard_normal((KAPPA_BLOCK, n, 4))
    for A in (stack, stack[0]):
        Q = _orthonormal_frames(A)
        assert Q.shape == A.shape
        Qt = np.swapaxes(Q, -1, -2)
        assert np.abs(Qt @ Q - np.eye(4)).max() <= 1e-15
        R = Qt @ A
        assert np.abs(np.tril(R, -1)).max() <= 1e-13
        assert np.all(np.diagonal(R, axis1=-2, axis2=-1) > 0)
        oracle = np.array([_qr_frame(a) for a in A.reshape(-1, n, 4)])
        assert np.abs(Q - oracle.reshape(A.shape)).max() <= 1e-12


@pytest.mark.parametrize("col, fill", [
    (2, lambda A: 0.0),
    (1, lambda A: A[:, 0]),
    (3, lambda A: -2.5 * A[:, 1]),
])
def test_dependent_raw_frame_yields_no_plane(rng, col, fill):
    A = rng.standard_normal((6, 4))
    A[:, col] = fill(A)
    with pytest.raises(DomainError):
        plane_from_frame(_orthonormal_frames(A))


def test_kappa_estimate_known_value_and_scaling():
    rep = kappa_pic_estimate(_product_ambient(1.0), samples=1200, seed=2)
    assert rep.kappa_hat == pytest.approx(0.5, abs=1e-6)
    assert rep.pic
    rep_half = kappa_pic_estimate(_product_ambient(0.5), samples=1200, seed=2)
    assert rep_half.kappa_hat == pytest.approx(4 * rep.kappa_hat, rel=1e-6)


def test_kappa_estimate_flat_is_zero():
    rep = kappa_pic_estimate(AmbientSpace(kind="flat_torus", dim=5),
                             samples=1000, seed=0)
    assert rep.kappa_hat == 0.0
    assert not rep.pic


def test_kappa_estimate_guards():
    with pytest.raises(DomainError):
        kappa_pic_estimate(_product_ambient(), samples=10)


def test_kappa_pic_closed_form_values():
    assert AmbientSpace(kind="flat_torus", dim=5).kappa_pic == 0.0
    assert AmbientSpace(kind="euclidean", dim=4).kappa_pic == 0.0
    assert _product_ambient(1.0).kappa_pic == 0.5
    assert _product_ambient(0.5).kappa_pic == 2.0


@pytest.mark.parametrize("n_sphere", [3, 4, 5])
def test_kappa_pic_is_attained_by_e0_plus_i_e1(n_sphere):
    """X = e0 + i e1, Y = e2 + i e3 in the tangent frame reads the closed
    form: half of the sphere's sectional curvature."""
    rho = 0.7
    amb = AmbientSpace(kind="product_circle_sphere", sphere_radius=rho,
                       n_sphere=n_sphere)
    E = amb.tangent_basis()
    X = E[:, 0] + 1j * E[:, 1]
    Y = E[:, 2] + 1j * E[:, 3]
    K = complex_sectional_curvatures(amb, X, Y)
    assert K == pytest.approx(amb.kappa_pic, rel=1e-14)
    assert amb.kappa_pic == 0.5 / rho ** 2


@given(st.floats(0.3, 3.0), st.integers(3, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_kappa_pic_bounds_every_isotropic_plane(rho, n_sphere, seed):
    amb = AmbientSpace(kind="product_circle_sphere", sphere_radius=rho,
                       n_sphere=n_sphere)
    raw = np.random.default_rng(seed).standard_normal((64, n_sphere + 1, 4))
    pairs = _oracle_planes(raw, n_sphere)
    X = np.array([x for x, _ in pairs])
    Y = np.array([y for _, y in pairs])
    K = complex_sectional_curvatures(amb, X, Y)
    assert np.all(K >= amb.kappa_pic * (1 - 1e-12))
    assert np.all(K <= (1 / rho ** 2) * (1 + 1e-12))


def test_kappa_estimate_rejects_a_closed_form_above_the_samples(monkeypatch):
    monkeypatch.setattr(AmbientSpace, "kappa_pic", property(lambda self: 0.6))
    with pytest.raises(DomainError, match="below the closed-form kappa"):
        kappa_pic_estimate(_product_ambient(1.0), samples=1000, seed=0)


def _oracle_planes(raw, n_sphere):
    """Isotropic pairs (X, Y) in ambient coordinates from raw tangent frames.

    The tangent space at the base point (0, rho, 0, ...) of S^1 x S^n is
    spanned by the coordinates 0, 2, 3, ..., n + 1.
    """
    tangent = [0] + list(range(2, n_sphere + 2))
    pairs = []
    for A in raw:
        E = np.zeros((n_sphere + 2, 4))
        E[tangent] = _qr_frame(A)
        pairs.append((E[:, 0] + 1j * E[:, 1], E[:, 2] + 1j * E[:, 3]))
    return pairs


def _qr_frame(A):
    """Orthonormal frame of one raw (n, 4) frame by LAPACK QR, diag R > 0."""
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def _oracle_curvature(X, Y, rho):
    """R(X, Y, conj X, conj Y) / |X wedge Y|^2 on S^1 x S^n(rho) at the base
    point: only the sphere-tangent coordinates 2, 3, ... carry curvature."""
    x, y = X[2:], Y[2:]
    z, w = np.conj(x), np.conj(y)
    num = (np.sum(x * z) * np.sum(y * w) - np.sum(x * w) * np.sum(y * z)) / rho ** 2
    den = (np.sum(np.abs(X) ** 2) * np.sum(np.abs(Y) ** 2)
           - abs(np.sum(np.conj(X) * Y)) ** 2)
    return num.real / den


@given(st.floats(0.3, 3.0), st.sampled_from([3, 4]), st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_batched_curvature_matches_oracle(rho, n_sphere, count, seed):
    amb = AmbientSpace(kind="product_circle_sphere", sphere_radius=rho,
                       n_sphere=n_sphere)
    raw = np.random.default_rng(seed).standard_normal((count, n_sphere + 1, 4))
    pairs = _oracle_planes(raw, n_sphere)
    X = np.array([x for x, _ in pairs])
    Y = np.array([y for _, y in pairs])
    got = complex_sectional_curvatures(amb, X, Y)
    want = [_oracle_curvature(x, y, rho) for x, y in pairs]
    assert got.shape == (count,)
    assert np.allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n_sphere", [3, 5])
@pytest.mark.parametrize("at_base", [True, False])
def test_conjugate_pair_curvature_is_the_four_argument_tensor(n_sphere,
                                                             at_base):
    """Projecting X and Y once and conjugating the projections gives
    R(X, Y, conj X, conj Y) to the bit."""
    rng = np.random.default_rng(4242)
    amb = AmbientSpace(kind="product_circle_sphere", circle_radius=1.5,
                       sphere_radius=0.8, n_sphere=n_sphere)
    point = None
    if not at_base:
        u = rng.standard_normal(n_sphere + 1)
        point = np.concatenate([[0.3], 0.8 * u / np.linalg.norm(u)])
    pairs = _oracle_planes(rng.standard_normal((300, n_sphere + 1, 4)), n_sphere)
    X = np.array([x for x, _ in pairs])
    Y = np.array([y for _, y in pairs])
    got = complex_sectional_curvatures(amb, X, Y, point)
    num = amb.curvature(X, Y, np.conj(X), np.conj(Y), point=point)
    assert np.array_equal(got, num.real / _plane_checks(X, Y))


def test_kappa_sampling_matches_oracle_across_blocks():
    """5000 draws span two full blocks and a partial one; the estimate is
    the minimum over the same seeded stream drawn one frame at a time."""
    amb = AmbientSpace(kind="product_circle_sphere", sphere_radius=0.8,
                       n_sphere=4)
    rep = kappa_pic_estimate(amb, samples=5000, seed=11)
    rng = np.random.default_rng(11)
    pairs = _oracle_planes([rng.standard_normal((5, 4)) for _ in range(5000)], 4)
    vals = [_oracle_curvature(x, y, 0.8) for x, y in pairs]
    best = int(np.argmin(vals))
    assert rep.kappa_hat == pytest.approx(vals[best], abs=1e-14)
    # the reported plane is the oracle's best draw
    assert np.allclose(rep.plane.X, pairs[best][0], atol=1e-14)
    assert np.allclose(rep.plane.Y, pairs[best][1], atol=1e-14)


def test_every_isotropic_plane_of_s1_x_s3_reads_kappa(rng):
    """On S^1 x S^3 an isotropic plane meets the sphere directions in an
    isotropic line, which forces K = 1 / (2 rho^2): the sampled minimum,
    and the plane reported with it, are decided by rounding."""
    amb = _product_ambient(1.0)
    pairs = _oracle_planes(rng.standard_normal((KAPPA_BLOCK, 4, 4)), 3)
    K = complex_sectional_curvatures(amb, np.array([x for x, _ in pairs]),
                                     np.array([y for _, y in pairs]))
    assert np.allclose(K, amb.kappa_pic, rtol=1e-14, atol=0.0)
    rep = kappa_pic_estimate(amb, samples=KAPPA_BLOCK, seed=3)
    assert rep.kappa_hat == pytest.approx(amb.kappa_pic, rel=1e-14)


@pytest.mark.parametrize("bad, message", [
    (lambda X, Y: (X.real, Y), "not isotropic"),
    (lambda X, Y: (X, 1j * X), "degenerate"),
])
def test_batched_curvature_checks_every_plane(rng, bad, message):
    amb = _product_ambient(1.0)
    pairs = _oracle_planes(rng.standard_normal((8, 4, 4)), 3)
    X = np.array([x for x, _ in pairs])
    Y = np.array([y for _, y in pairs])
    complex_sectional_curvatures(amb, X, Y)
    X[5], Y[5] = bad(X[5], Y[5])
    with pytest.raises(DomainError, match=message):
        complex_sectional_curvatures(amb, X, Y)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", [0, 1])
def test_batched_curvature_rejects_non_finite_planes(rng, value, which):
    """NaN fails every comparison, so each check is written to pass only
    finite planes; one non-finite entry in a batch raises."""
    amb = _product_ambient(1.0)
    pairs = _oracle_planes(rng.standard_normal((8, 4, 4)), 3)
    XY = [np.array([x for x, _ in pairs]), np.array([y for _, y in pairs])]
    XY[which][3, 2] = value
    with pytest.raises(DomainError):
        complex_sectional_curvatures(amb, *XY)


# ---------------------------------------------------------------------------
# immersions


def test_elliptic_immersion_is_conformal_and_analytic():
    lat = Lattice(0.0, 1.0)
    imm = elliptic_curve_immersion(lat, 0.1, 32)
    # F_z . F_z = 0 is the conformality of (wp, wp') read complex-bilinearly
    dots = np.einsum("xyi,xyi->xy", imm.Fz, imm.Fz)
    m = imm.mask
    assert np.max(np.abs(dots[m])) < 1e-8 * np.max(imm.lam2[m])
    # lam2 is the conformal factor |F_x|^2 = 2 |F_z|^2 of the stored fields
    i, j = 5, 9
    want = np.sum(np.abs(2 * imm.Fz[i, j]) ** 2) / 2
    assert imm.lam2[i, j] == pytest.approx(want, rel=1e-10)


def test_elliptic_immersion_mask_removes_pole_neighborhood():
    lat = Lattice(0.0, 1.0)
    imm = elliptic_curve_immersion(lat, 0.15, 64)
    assert not imm.mask.all()
    assert imm.mask.sum() > 0.8 * 64 * 64
    assert np.isfinite(imm.area())
    with pytest.raises(DomainError):
        elliptic_curve_immersion(lat, 0.5, 64)


def test_product_torus_geometry():
    imm = product_geodesic_torus(2.0, 1.0, 3, (3, 1), 32)
    assert imm.periods == pytest.approx((4 * np.pi, 2 * np.pi / 3))
    assert imm.flat and imm.second_ff_zero
    # image stays on the sphere factor of radius rho
    r = np.linalg.norm(imm.F[:, :, 1:3], axis=2)
    assert np.allclose(r, 1.0, atol=1e-12)
    # the two normal lines are dual and the pairing is the off-diagonal one
    (L1, e1), (L2, e2) = imm.normal_lines
    assert L2.phi == pytest.approx(-L1.phi) and L2.theta == pytest.approx(-L1.theta)
    assert abs(np.dot(e1, e1)) < 1e-12       # isotropic directions
    assert abs(np.dot(e1, e2) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        product_geodesic_torus(2.0, 1.0, 4, (3, 1), 32)
    with pytest.raises(DomainError):
        product_geodesic_torus(2.0, 1.0, 3, (4, 2), 32)


def test_surface_quantities_projections():
    imm = product_geodesic_torus(2.0, 1.0, 3, (3, 1), 24)
    q = surface_quantities(imm)
    PT, PN = q.tangent_proj, q.normal_proj
    eye = np.eye(imm.dim)[None, None]
    assert np.allclose(PT + PN, eye, atol=1e-12)
    assert np.allclose(np.einsum("xyij,xyjk->xyik", PT, PT), PT, atol=1e-12)
    tr = np.einsum("xyii->xy", PT)
    assert np.allclose(tr, 2.0, atol=1e-12)
    assert np.max(second_ff_norm2(imm)) == 0.0
    assert not q.branch_mask.any()


def test_elliptic_second_fundamental_form_is_nonzero_but_finite():
    imm = elliptic_curve_immersion(Lattice(0.0, 1.0), 0.1, 48)
    vals = second_ff_norm2(imm)[imm.mask]
    assert np.all(np.isfinite(vals))
    assert np.max(vals) > 0.0


@pytest.mark.parametrize("tau, n", [(1j, 48), (0.3 + 1.1j, 64)])
def test_elliptic_second_ff_matches_oracle_on_every_active_node(tau, n):
    # the ring of active nodes next to the puncture is included; the
    # oracle reads the curve only at off-grid points near active nodes
    lat = Lattice(tau.real, tau.imag)
    imm = elliptic_curve_immersion(lat, 0.1, n)
    i, j = np.nonzero(imm.mask)
    want = elliptic_second_ff_oracle(lat, (i + j * lat.tau) / n)
    got = second_ff_norm2(imm)[i, j]
    # on the square grid the form vanishes at the 3-torsion points
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-12 * want.max())
