"""Ambient curvature, isotropic planes, immersions, surface quantities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabletori.bundles import (FlatBundle, LineHolonomy,
                                decompose_commuting_pair, principal_angle)
from stabletori.errors import DomainError, ShapeError, WrongFormError
from stabletori.lattice import CoverSpec, Lattice
from stabletori.geometry import (KAPPA_BLOCK, AmbientSpace, IsotropicPlane,
                                 _orthonormal_frames, _plane_checks,
                                 complex_sectional_curvatures,
                                 elliptic_curve_immersion, kappa_pic_estimate,
                                 FlatTorus, pic_kappa, product_geodesic_torus,
                                 surface_quantities)

from conftest import isotropic_curvature


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


def _frame_plane(E):
    """The plane X = e1 + i e2, Y = e3 + i e4 of an orthonormal 4-frame."""
    return IsotropicPlane(E[:, 0] + 1j * E[:, 1], E[:, 2] + 1j * E[:, 3])


def test_isotropic_plane_validation(rng):
    for _ in range(20):
        plane = _frame_plane(_orthonormal_frames(rng.standard_normal((5, 4))))
        assert max(plane.residuals()) <= 1e-10
    with pytest.raises(DomainError):
        IsotropicPlane(np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
    with pytest.raises(DomainError):
        IsotropicPlane(np.full(4, np.nan), np.full(4, np.nan))


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
        _frame_plane(_orthonormal_frames(A))


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


# Orthonormal basis of Lambda^2 R^4 over e_ij in lexicographic order: rows
# 0-2 self-dual, rows 3-5 anti-self-dual for the volume form e_0123.
_LAMBDA_PM = np.array([
    [1, 0, 0, 0, 0, 1], [0, 1, 0, 0, -1, 0], [0, 0, 1, 1, 0, 0],
    [1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0], [0, 0, 1, -1, 0, 0],
]) / np.sqrt(2)


def _blocks(op):
    """The A, B, C blocks of a curvature operator on Lambda^+ + Lambda^-."""
    T = _LAMBDA_PM @ op @ _LAMBDA_PM.T
    return T[:3, :3], T[:3, 3:], T[3:, 3:]


def _bianchi_operator(rng):
    """A random symmetric 6 x 6 operator made to satisfy first Bianchi,
    R_0123 + R_0231 + R_0312 = M[01,23] - M[02,13] + M[03,12] = 0."""
    M = rng.standard_normal((6, 6))
    M = M + M.T
    defect = (M[0, 5] - M[1, 4] + M[2, 3]) / 3
    for (a, b), sign in zip(((0, 5), (1, 4), (2, 3)), (1, -1, 1)):
        M[a, b] -= sign * defect
        M[b, a] -= sign * defect
    return M


def _sampled_isotropic_curvature(op, rng, orientation, count=20_000):
    """The oracle curvature of the planes e_0 + i e_1, e_2 + i e_3 of
    `count` Haar-random orthonormal frames of the given orientation."""
    Q, R = np.linalg.qr(rng.standard_normal((count, 4, 4)))
    Q = Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
    Q[..., 3] *= orientation * np.sign(np.linalg.det(Q))[:, None]
    return isotropic_curvature(op, Q[..., 0] + 1j * Q[..., 1],
                               Q[..., 2] + 1j * Q[..., 3])


def test_pic_kappa_is_the_sampled_minimum_of_bianchi_operators(rng):
    """On random algebraic curvature operators with B != 0 the sampled
    minimum over positive frames approaches (a_1 + a_2) / 2, over negative
    frames (c_1 + c_2) / 2, from above, and the certificate is the smaller.
    Each operator comes with its mirror image under e_3 -> -e_3, which swaps
    A and C, so either block can decide the certificate."""
    mirror = np.diag([1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
    for _ in range(4):
        M = _bianchi_operator(rng)
        for op in (M, mirror @ M @ mirror):
            A, B, C = _blocks(op)
            assert np.trace(A) == pytest.approx(np.trace(C), abs=1e-12)
            assert np.abs(B).max() > 0.1
            lows = []
            for orientation, block in ((1, A), (-1, C)):
                K = _sampled_isotropic_curvature(op, rng, orientation)
                assert K.max() - K.min() > 0.1
                want = np.sum(np.linalg.eigvalsh(block)[:2]) / 2
                assert want - 1e-12 <= K.min() <= want + 5e-3
                lows.append(K.min())
            kappa = pic_kappa(op)
            assert kappa - 1e-12 <= min(lows) <= kappa + 5e-3


@pytest.mark.parametrize("rho", [0.5, 1.0, 1.02])
def test_curvature_operator_of_s1_x_s3(rho):
    """A = C = I / (2 rho^2), so the certificate is the closed form.
    B = -I / (2 rho^2) is the traceless Ricci part, which is not zero:
    S^1 x S^3 is not Einstein (Ric = 0 on the circle factor)."""
    amb = _product_ambient(rho)
    op = amb.curvature_operator()
    A, B, C = _blocks(op)
    for block, sign in ((A, 1), (B, -1), (C, 1)):
        assert np.allclose(block, sign * np.eye(3) / (2 * rho ** 2),
                           rtol=0.0, atol=1e-14)
    assert pic_kappa(op) == pytest.approx(amb.kappa_pic, rel=1e-14)


def test_curvature_operator_needs_four_dimensions_and_is_zero_when_flat():
    for amb in (AmbientSpace(kind="product_circle_sphere", n_sphere=4),
                AmbientSpace(kind="euclidean", dim=5)):
        with pytest.raises(WrongFormError):
            amb.curvature_operator()
    for kind in ("euclidean", "flat_torus"):
        op = AmbientSpace(kind=kind, dim=4).curvature_operator()
        assert op.shape == (6, 6) and not op.any()
        assert pic_kappa(op) == 0.0


def test_pic_kappa_guards():
    with pytest.raises(ShapeError):
        pic_kappa(np.eye(5))
    skew = np.eye(6)
    skew[0, 1] = 1e-6
    with pytest.raises(DomainError):
        pic_kappa(skew)
    with pytest.raises(DomainError):
        pic_kappa(np.full((6, 6), np.nan))


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
def test_conjugate_pair_curvature_is_the_four_argument_tensor(n_sphere):
    """Projecting X and Y once and conjugating the projections gives
    R(X, Y, conj X, conj Y) to the bit."""
    rng = np.random.default_rng(4242)
    amb = AmbientSpace(kind="product_circle_sphere", circle_radius=1.5,
                       sphere_radius=0.8, n_sphere=n_sphere)
    pairs = _oracle_planes(rng.standard_normal((300, n_sphere + 1, 4)), n_sphere)
    X = np.array([x for x, _ in pairs])
    Y = np.array([y for _, y in pairs])
    got = complex_sectional_curvatures(amb, X, Y)
    num = amb.curvature(X, Y, np.conj(X), np.conj(Y))
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
    assert np.isfinite(np.sum(imm.da_field()))
    with pytest.raises(DomainError):
        elliptic_curve_immersion(lat, 0.5, 64)


def test_product_torus_geometry():
    rho = 1.0
    imm = product_geodesic_torus(2.0, rho, 3, (3, 1), 32)
    assert isinstance(imm, FlatTorus) and imm.n == 32
    assert imm.periods == pytest.approx((4 * np.pi, 2 * np.pi / 3))
    # the frame is orthonormal: the circle direction e0, which has no
    # sphere part, and the geodesic's unit tangent at the base point
    t_circle, t_geo = imm.frame
    assert np.array_equal(imm.frame @ imm.frame.T, np.eye(2))
    assert np.array_equal(t_circle, np.eye(5)[0])
    # the geodesic from the base point rho e1 along t_geo, in closed form,
    # stays on the sphere factor of radius rho and closes after p periods
    s = np.linspace(0.0, 3 * imm.periods[1], 97)
    base = rho * np.eye(5)[1]
    image = (np.cos(s / rho)[:, None] * base
             + rho * np.sin(s / rho)[:, None] * t_geo)
    assert np.allclose(np.linalg.norm(image[:, 1:], axis=1), rho, atol=1e-12)
    assert np.allclose(image[:, 0], 0.0)
    assert np.allclose(image[-1], image[0], atol=1e-12)
    assert imm.frame.shape == (2, 5)
    with pytest.raises(DomainError):
        product_geodesic_torus(2.0, 1.0, 4, (3, 1), 32)
    with pytest.raises(DomainError):
        product_geodesic_torus(2.0, 1.0, 3, (4, 2), 32)


def test_cover_multiplies_periods_and_lifts_holonomies():
    # the (2, 3) cover: periods scaled per axis, each line's angles lifted
    # and wrapped (-3.3 leaves the principal range), the rest shared
    e = np.eye(4, dtype=complex)[2]
    torus = FlatTorus((1.5, 0.7), AmbientSpace(kind="flat_torus"), 8,
                      np.eye(4)[:2], [(LineHolonomy(0.4, -1.1), e)])
    cover = torus.cover(CoverSpec(((2, 0), (0, 3))))
    assert cover.periods == (2 * 1.5, 3 * 0.7)
    assert cover.ambient is torus.ambient and cover.frame is torus.frame
    assert cover.n == 8
    (hol, line), = cover.normal_lines
    assert line is e
    assert (hol.phi, hol.theta) == (principal_angle(0.8),
                                    principal_angle(3 * -1.1))
    assert hol.theta == pytest.approx(-3.3 + 2 * np.pi)


def test_cover_refuses_a_sheared_spec():
    torus = product_geodesic_torus(2.0, 1.0, 3, (3, 1), 16)
    with pytest.raises(DomainError):
        torus.cover(CoverSpec(((1, 1), (0, 2))))


def test_cover_refuses_a_negative_diagonal():
    # ((-1, 0), (0, -1)) is a degree-1 spec, Lambda with the basis
    # (-1, -tau); its periods would be negative
    torus = product_geodesic_torus(2.0, 1.0, 3, (3, 1), 16)
    with pytest.raises(DomainError, match=">= 1"):
        torus.cover(CoverSpec(((-1, 0), (0, -1))))


ELLIPTIC_FIELDS = ("Fz", "lam2", "mask", "puncture_dist")


def test_immersion_cover_of_degree_one_is_the_immersion():
    imm = elliptic_curve_immersion(Lattice(0.3, 1.1), 0.1, 16)
    cover = imm.cover(CoverSpec.scaling(1))
    assert cover.lattice == imm.lattice and cover.ambient is imm.ambient
    for name in ELLIPTIC_FIELDS:
        assert np.array_equal(getattr(cover, name), getattr(imm, name)), name


def test_immersion_cover_tiles_the_node_fields():
    # the scaling cover 2 Lambda: twice the side and the scale, the same
    # map, so every node field repeats 2 x 2 and wp is not evaluated again
    imm = elliptic_curve_immersion(Lattice(0.3, 1.1), 0.1, 16)
    cover = imm.cover(CoverSpec.scaling(2))
    assert cover.n == 32 and cover.dim == imm.dim
    assert cover.lattice == Lattice(0.3, 1.1, 2.0)
    assert cover.dxdy_weight() == pytest.approx(imm.dxdy_weight(), rel=1e-15)
    for name in ELLIPTIC_FIELDS:
        fld, big = getattr(imm, name), getattr(cover, name)
        assert big.shape == (32, 32) + fld.shape[2:], name
        for i in range(2):
            for j in range(2):
                assert np.array_equal(big[16 * i:16 * (i + 1),
                                          16 * j:16 * (j + 1)], fld), name
    # the distance field is the one the mask was cut from
    assert np.array_equal(imm.mask, imm.puncture_dist > 0.1)


@pytest.mark.parametrize("basis", [((2, 0), (0, 3)), ((1, 1), (0, 2)),
                                   ((-1, 0), (0, -1))])
def test_immersion_cover_refuses_a_non_scaling_spec(basis):
    # an unequal diagonal, a shear and a negative diagonal
    imm = elliptic_curve_immersion(Lattice(0.0, 1.0), 0.1, 16)
    with pytest.raises(DomainError):
        imm.cover(CoverSpec(basis))


LENSES = [(1, 0)] + [(p, q) for p in range(2, 13) for q in range(1, p)
                     if math.gcd(p, q) == 1]


@pytest.mark.parametrize("p, q", LENSES)
def test_lens_transport_reads_exact_lines(p, q):
    # the transport is (I, R(2 pi q / p)) on the normal plane (e3, e4); its
    # lines are written down, so the angles and vectors are exact
    imm = product_geodesic_torus(2.0, 1.0, 3, (p, q), 8)
    alpha = principal_angle(2 * np.pi * q / p) if p > 1 else 0.0
    (L1, e1), (L2, e2) = imm.normal_lines
    assert L1 == LineHolonomy(0.0, alpha)
    e3, e4 = np.eye(5, dtype=complex)[3:5]
    if p <= 2:
        # the transport is +-1: both lines trivial around the circle, flipping
        # sign around the geodesic for p = 2, with no rounding angle
        assert L2 == L1 and L1.theta == (np.pi if p == 2 else 0.0)
        assert np.array_equal(e1, e3) and np.array_equal(e2, e4)
    else:
        # N^{1,0} first, and the two lines are dual to the bit
        assert L2 == L1.dual() and L2.theta == -L1.theta
        assert np.array_equal(e1, (e3 - 1j * e4) / np.sqrt(2))
        assert np.array_equal(e2, (e3 + 1j * e4) / np.sqrt(2))
    # the Atiyah decomposition of the transport finds the same lines
    c, s = np.cos(2 * np.pi * q / p), np.sin(2 * np.pi * q / p)
    report, _, basis = decompose_commuting_pair(
        FlatBundle(np.eye(2), np.array([[c, -s], [s, c]]), imm.lattice))
    found = [(summand.line_class, v)
             for summand, v in zip(report.summands, basis.T)]
    for line, e in imm.normal_lines:
        u = e[3:5]
        assert any(abs(hol.phi - line.phi) < 1e-12
                   and abs(hol.theta - line.theta) < 1e-12
                   and np.linalg.norm(v - u * np.vdot(u, v))
                   < 1e-12 * np.linalg.norm(v)
                   for hol, v in found)


def test_surface_quantities_projections():
    # on the elliptic immersion, at every node: the frames are orthonormal,
    # orthogonal to each other, and the tangent frame's projector fixes the
    # tangent vectors F_x, F_y, which the normal frame annihilates
    imm = elliptic_curve_immersion(Lattice(0.0, 1.0), 0.1, 24)
    q = surface_quantities(imm)
    Ft, Fn = q.tangent_frame, q.normal_frame
    assert Ft.shape == Fn.shape == (24, 24, 2, imm.dim)
    eye = np.broadcast_to(np.eye(2), (24, 24, 2, 2))
    for A, B, want in ((Ft, Ft, eye), (Fn, Fn, eye), (Ft, Fn, 0 * eye)):
        assert np.allclose(A @ np.swapaxes(B, -1, -2), want, atol=1e-12)
    Fx, Fy = 2 * imm.Fz.real, -2 * imm.Fz.imag
    for v in (Fx, Fy):
        u = v / np.linalg.norm(v, axis=2, keepdims=True)
        PTu = np.einsum("xyki,xykj,xyj->xyi", Ft, Ft, u)
        assert np.allclose(PTu, u, atol=1e-12)
        assert np.allclose(np.einsum("xyki,xyi->xyk", Fn, u), 0.0,
                           atol=1e-12)
