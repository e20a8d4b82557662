"""Flat bundles: holonomies, sections, decomposition, covers."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from stabletori.errors import ConvergenceError, DomainError
from stabletori.lattice import CoverSpec, Lattice, wirtinger_factors
from stabletori.bundles import (AtiyahData, FlatBundle, LineHolonomy,
                                TWO_TORSION_LABELS, _jordan_chains,
                                atiyah_sections,
                                decompose_commuting_pair,
                                line_section,
                                nilpotent_log, principal_angle,
                                pullback_bundle, two_torsion_classify)
from stabletori.sections import dbar, gram_matrix


LAT = Lattice(0.0, 1.0)


# ---------------------------------------------------------------------------
# angles and line bundles


def test_principal_angle_branch():
    assert principal_angle(-math.pi) == pytest.approx(math.pi)
    assert principal_angle(math.pi) == pytest.approx(math.pi)
    assert principal_angle(2 * math.pi) == pytest.approx(0.0)
    assert principal_angle(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)


@given(st.floats(-50, 50))
@settings(max_examples=80, deadline=None)
def test_principal_angle_preserves_phase(x):
    a = principal_angle(x)
    assert -math.pi < a <= math.pi
    assert abs(np.exp(1j * a) - np.exp(1j * x)) < 1e-9


def test_line_holonomy_normalizes_and_dualizes():
    L = LineHolonomy(2 * math.pi + 0.3, -3 * math.pi)
    assert L.phi == pytest.approx(0.3)
    assert L.theta == pytest.approx(math.pi)
    D = L.dual()
    assert D.phi == pytest.approx(-0.3)
    assert abs(np.exp(1j * (L.theta + D.theta)) - 1) < 1e-12


def test_line_section_measured_sup_matches_closed_form():
    L = LineHolonomy(0.9, -2.0)
    fxi, feta = wirtinger_factors(LAT)
    for k in (1, 2, 3):
        sec = line_section(L, k, LAT, 128)
        expected = abs(principal_angle(k * L.phi) * fxi
                       + principal_angle(k * L.theta) * feta) / k
        assert sec.k == k
        assert sec.lattice == Lattice(LAT.tau1, LAT.tau2, k * LAT.scale)
        assert sec.sup_dbar_exact == pytest.approx(expected, rel=1e-12)
        measured = float(np.max(np.abs(dbar(sec.grid()).values)))
        assert measured == pytest.approx(expected, rel=1e-3)
        assert sec.seam_residual <= 1e-12


@pytest.mark.parametrize("L", [LineHolonomy(math.pi, math.pi),
                               LineHolonomy(0.9, -2.0)])
def test_line_section_is_the_meshgrid_phase_wave(L):
    # the section is a product of two 1D waves; the oracle evaluates the
    # phase on the whole meshgrid, over the covers `sections` builds.
    # (pi, pi) lifts to the trivial class on every even k, (0.9, -2.0) never
    # for k <= 16
    n = 256
    for k in range(1, 17):
        phi_k, theta_k = (principal_angle(k * x) for x in (L.phi, L.theta))
        t = np.arange(n) * (k / n)
        X, Y = np.meshgrid(t, t, indexing="ij")
        want = np.exp(1j * ((L.phi - phi_k / k) * X
                            + (L.theta - theta_k / k) * Y))
        sec = line_section(L, k, LAT, n).grid()
        assert sec.values.shape == (n, n, 1)
        assert np.max(np.abs(sec.values[:, :, 0] - want)) <= 1e-14


@pytest.mark.parametrize("k", [0, -1])
def test_line_section_refuses_covers_below_one(k):
    # the guard runs before anything divides by k
    with pytest.raises(DomainError):
        line_section(LineHolonomy(0.9, -2.0), k, LAT, 16)


def test_line_section_trivial_lift_is_exactly_flat():
    # (pi, pi) on an even cover lifts to the trivial class: dbar s == 0
    sec = line_section(LineHolonomy(math.pi, math.pi), 2, LAT, 64)
    assert sec.sup_dbar_exact == 0.0
    assert float(np.max(np.abs(dbar(sec.grid()).values))) < 1e-11


# ---------------------------------------------------------------------------
# nilpotent log and the Atiyah frame


def test_nilpotent_log_hand_computed():
    N = np.diag([1.0, 1.0], 1).astype(complex)
    A = np.eye(3) + N
    B = nilpotent_log(A)
    # log(I + N) = N - N^2/2 for a 3x3 single chain
    want = N - N @ N / 2.0
    assert np.allclose(B, want, atol=1e-14)
    assert np.allclose(scipy.linalg.expm(B), A, atol=1e-12)


def test_nilpotent_log_rejects_non_unipotent():
    with pytest.raises(DomainError):
        nilpotent_log(np.diag([2.0, 1.0]).astype(complex))


def test_atiyah_frame_identity_and_gram():
    data = AtiyahData(r=3, delta=0.01)
    secs = atiyah_sections(data, LAT, 128)
    B = data.B
    for j, w in enumerate(secs):
        assert w.seam_residual <= 1e-10
        d = dbar(w)
        target = -(1j / (2 * LAT.tau2)) * np.einsum(
            "ab,xyb->xya", B, w.values)
        assert np.max(np.abs(d.values - target)) <= 1e-12
    _, (emin, emax) = gram_matrix(secs)
    assert emin == pytest.approx(1.0, abs=1e-12)
    assert emax == pytest.approx(1.0, abs=1e-12)


def test_atiyah_gram_range_stable_across_covers():
    data = AtiyahData(r=3, delta=0.01)
    ranges = []
    for k in (1, 2, 4, 8):
        from stabletori.lattice import cover_lattice
        lat_k = cover_lattice(LAT, CoverSpec.scaling(k))
        secs = atiyah_sections(data, lat_k, 32)
        _, rng_ = gram_matrix(secs)
        ranges.append(rng_)
    for rng_ in ranges[1:]:
        assert abs(rng_[0] - ranges[0][0]) <= 1e-10
        assert abs(rng_[1] - ranges[0][1]) <= 1e-10


def test_atiyah_exp_matches_holonomy():
    data = AtiyahData(r=4, delta=0.3)
    assert np.allclose(scipy.linalg.expm(data.B), data.A, atol=1e-12)


# ---------------------------------------------------------------------------
# decomposition


def _random_block_pair(rng, blocks, off_diag=0.3):
    r = sum(blocks)
    A = np.zeros((r, r), dtype=complex)
    C = np.zeros((r, r), dtype=complex)
    lines = []
    off = 0
    for b in blocks:
        phi, theta = rng.uniform(-np.pi, np.pi, 2)
        lines.append((phi, theta))
        Ut = np.eye(b, dtype=complex)
        if b > 1:
            Ut += np.diag(np.full(b - 1, off_diag), 1)
        A[off:off + b, off:off + b] = np.exp(1j * phi) * np.eye(b)
        C[off:off + b, off:off + b] = np.exp(1j * theta) * Ut
        off += b
    S = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    return S @ A @ np.linalg.inv(S), S @ C @ np.linalg.inv(S), lines


def test_decomposition_recovers_structure(rng):
    for trial in range(30):
        r = int(rng.integers(1, 7))
        blocks = []
        left = r
        while left:
            b = int(rng.integers(1, left + 1))
            blocks.append(b)
            left -= b
        r1, r2, lines = _random_block_pair(rng, blocks)
        bundle = FlatBundle(r1, r2, LAT)
        rep, filts, T = decompose_commuting_pair(bundle)
        assert rep.rank_multiset() == tuple(sorted(blocks))
        assert rep.residual <= 1e-8
        # line classes must match the construction as multisets of angles
        got = sorted((round(s.line_class.phi, 6), round(s.line_class.theta, 6))
                     for s in rep.summands)
        want = sorted((round(principal_angle(p), 6), round(principal_angle(t), 6))
                      for p, t in lines)
        assert got == want


def test_decomposition_same_line_class_jordan_pair(rng):
    # two 2-blocks over the same character still come back as (2, 2)
    phi, theta = 0.7, -1.9
    A = np.exp(1j * phi) * np.eye(4, dtype=complex)
    C = np.exp(1j * theta) * (np.eye(4, dtype=complex)
                              + np.diag([0.4, 0.0, 0.4], 1))
    S = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    bundle = FlatBundle(S @ A @ np.linalg.inv(S), S @ C @ np.linalg.inv(S), LAT)
    rep, _, _ = decompose_commuting_pair(bundle)
    assert rep.rank_multiset() == (2, 2)
    assert rep.residual <= 1e-8


@pytest.mark.parametrize("sizes", [(1, 1), (2,), (3, 1, 2), (2, 2, 1), (4,)])
def test_jordan_chains_of_a_conjugated_nilpotent(rng, sizes):
    """Each chain [N^{p-1}v, ..., Nv, v] ends in the kernel, and the chain
    lengths are the Jordan block sizes."""
    d = sum(sizes)
    J = np.zeros((d, d), dtype=complex)
    off = 0
    for b in sizes:
        J[off:off + b, off:off + b] = np.diag(np.ones(b - 1), 1)
        off += b
    S = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    N = S @ J @ np.linalg.inv(S)
    chains = _jordan_chains(N, 1e-8)
    assert sorted(c.shape[1] for c in chains) == sorted(sizes)
    basis = np.hstack(chains)
    assert np.linalg.matrix_rank(basis) == d
    scale = np.linalg.norm(N) * np.linalg.norm(basis)
    for c in chains:
        assert np.linalg.norm(N @ c[:, 0]) <= 1e-10 * scale
        assert np.linalg.norm(N @ c[:, 1:] - c[:, :-1]) <= 1e-10 * scale


def test_decomposition_filtration_is_nested(rng):
    r1, r2, _ = _random_block_pair(rng, [3])
    rep, filts, T = decompose_commuting_pair(FlatBundle(r1, r2, LAT))
    assert len(filts) == 1
    chain = filts[0]
    assert [f.shape[1] for f in chain] == [1, 2, 3]
    for a, b in zip(chain, chain[1:]):
        # each step contains the previous columns
        proj = b @ np.linalg.pinv(b)
        assert np.allclose(proj @ a, a, atol=1e-8)


def _same_angle(a, b):
    return abs(principal_angle(a - b)) <= 1e-6


@st.composite
def _block_structures(draw):
    """Blocks (size, phi, theta) of total rank <= 10; the angles come from an
    eight-point grid, so two blocks either share a line class or lie
    at least pi/4 apart."""
    grid = [-math.pi + 2 * math.pi * (k + 0.5) / 8 for k in range(8)]
    left = draw(st.integers(1, 10))
    blocks = []
    while left:
        b = draw(st.integers(1, left))
        blocks.append((b, draw(st.sampled_from(grid)),
                       draw(st.sampled_from(grid))))
        left -= b
    return blocks, draw(st.integers(0, 2 ** 32 - 1))


@given(_block_structures())
@settings(max_examples=60, deadline=None)
def test_decomposition_recovers_random_block_structures(structure):
    blocks, seed = structure
    r = sum(b for b, _, _ in blocks)
    A = np.zeros((r, r), dtype=complex)
    C = np.zeros((r, r), dtype=complex)
    off = 0
    for b, phi, theta in blocks:
        A[off:off + b, off:off + b] = np.exp(1j * phi) * np.eye(b)
        C[off:off + b, off:off + b] = np.exp(1j * theta) * (
            np.eye(b) + np.diag(np.full(b - 1, 0.3), 1))
        off += b
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    Si = np.linalg.inv(S)
    rep, _, _ = decompose_commuting_pair(FlatBundle(S @ A @ Si, S @ C @ Si, LAT))
    assert rep.rank_multiset() == tuple(sorted(b for b, _, _ in blocks))
    assert rep.residual <= 1e-8
    # every summand matches one constructed block in rank and line class
    left = list(blocks)
    for s in rep.summands:
        match = [blk for blk in left if blk[0] == s.rank
                 and _same_angle(blk[1], s.line_class.phi)
                 and _same_angle(blk[2], s.line_class.theta)]
        assert match, (s, blocks)
        left.remove(match[0])


def test_decomposition_takes_one_schur_form_per_pair(monkeypatch, rng):
    calls = []
    schur = scipy.linalg.schur

    def counting_schur(*args, **kwargs):
        calls.append(1)
        return schur(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
    for blocks in ([6], [5, 1], [2, 2, 2], [1, 1, 1, 1, 1, 1], [3, 2, 1]):
        r1, r2, _ = _random_block_pair(rng, blocks)
        calls.clear()
        rep, _, _ = decompose_commuting_pair(FlatBundle(r1, r2, LAT))
        assert rep.rank_multiset() == tuple(sorted(blocks))
        assert len(calls) == 1


def test_decomposition_raises_with_its_report_when_the_residual_fails():
    # This pair does not commute (the bundle's check is opened on purpose),
    # so no basis block-diagonalizes both matrices.
    A = np.diag([1.0, -1.0]).astype(complex)
    C = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    bundle = FlatBundle(A, C, LAT, commute_tol=10.0)
    with pytest.raises(ConvergenceError) as info:
        decompose_commuting_pair(bundle)
    best = info.value.best
    assert best.residual > 1e-8
    assert sum(best.rank_multiset()) == 2
    assert best.warnings == ["block residual above tolerance"]


def test_jordan_chains_refuse_a_block_that_is_not_nilpotent():
    # eigenvalues +-0.1: N^2 = 1e-2 I keeps full rank
    with pytest.raises(ConvergenceError):
        _jordan_chains(np.array([[0, 1e5], [1e-7, 0]], complex), 1e-8)


def test_close_line_classes_split_or_refuse():
    # two 3-blocks whose line classes lie 1e-2 apart, under a random
    # similarity: either both blocks come back, or the decomposition
    # refuses; never a raw numpy error or a wrong multiset
    A = np.zeros((6, 6), dtype=complex)
    C = np.zeros((6, 6), dtype=complex)
    for off, (phi, theta) in ((0, (2.0385116364466764, -0.05572426887012183)),
                              (3, (2.048511636446676, -0.062238138787984856))):
        A[off:off + 3, off:off + 3] = np.exp(1j * phi) * np.eye(3)
        C[off:off + 3, off:off + 3] = np.exp(1j * theta) * AtiyahData(3, 0.3).A
    rng = np.random.default_rng(657045552)
    S = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    Si = np.linalg.inv(S)
    try:
        rep, _, _ = decompose_commuting_pair(
            FlatBundle(S @ A @ Si, S @ C @ Si, LAT))
    except ConvergenceError:
        return
    assert rep.rank_multiset() == (3, 3)
    assert rep.residual <= 1e-8


def test_non_commuting_pair_rejected():
    A = np.array([[0, 1], [1, 0]], dtype=complex)
    C = np.array([[1, 0], [0, -1]], dtype=complex)
    with pytest.raises(DomainError):
        FlatBundle(A, C, LAT)


# ---------------------------------------------------------------------------
# covers, torsion, stabilization


def test_pullback_line_bundle_powers():
    L = LineHolonomy(0.8, 0.5)
    b = FlatBundle(np.array([[np.exp(1j * L.phi)]]),
                   np.array([[np.exp(1j * L.theta)]]), LAT)
    pb = pullback_bundle(b, CoverSpec.scaling(3))
    assert np.angle(pb.rho1[0, 0]) == pytest.approx(principal_angle(3 * L.phi))
    assert np.angle(pb.rhotau[0, 0]) == pytest.approx(principal_angle(3 * L.theta))


def test_pullback_lattice_is_generated_by_the_lifted_words():
    # the cover's generators are the spec's rows: degree 1 keeps the base
    # lattice, and ((2, 0), (0, 1)) doubles 1, around which rho1 is rho(1)^2
    rho1 = np.diag(np.exp([0.3j, -1.1j]))
    rhotau = np.diag(np.exp([0.7j, 2.0j]))
    base = Lattice(0.0, 0.2)
    pb = pullback_bundle(FlatBundle(rho1, rhotau, base), CoverSpec.scaling(1))
    assert pb.lattice == base
    pb = pullback_bundle(FlatBundle(rho1, rhotau, LAT),
                         CoverSpec(((2, 0), (0, 1))))
    assert pb.lattice == Lattice(0.0, 0.5, 2.0)
    np.testing.assert_allclose(pb.rho1, rho1 @ rho1, rtol=0, atol=1e-15)
    np.testing.assert_allclose(pb.rhotau, rhotau, rtol=0, atol=1e-15)


@pytest.mark.parametrize("basis", [((1, 0), (0, 1)), ((3, 0), (0, 3)),
                                   ((2, 0), (1, 3)), ((1, 2), (-1, 1)),
                                   ((-2, 1), (-3, -1))])
def test_lift_agrees_with_the_rank_one_pullback(basis):
    spec = CoverSpec(basis)
    for L in (LineHolonomy(0.8, 0.5), LineHolonomy(math.pi, -2.0),
              LineHolonomy(-0.3, 3.0)):
        b = FlatBundle(np.array([[np.exp(1j * L.phi)]]),
                       np.array([[np.exp(1j * L.theta)]]), LAT)
        pb = pullback_bundle(b, spec)
        lifted = LineHolonomy(*L.lift(spec))
        np.testing.assert_allclose(
            [pb.rho1[0, 0], pb.rhotau[0, 0]],
            np.exp(1j * np.array([lifted.phi, lifted.theta])),
            rtol=0, atol=1e-12)


def test_two_torsion_classes_and_trivialization():
    pi = math.pi
    points = [(0.0, 0.0), (pi, 0.0), (0.0, pi), (pi, pi)]
    labels = set()
    for phi, theta in points:
        L = LineHolonomy(phi, theta)
        labels.add(two_torsion_classify(L))
        b = FlatBundle(np.array([[np.exp(1j * phi)]]),
                       np.array([[np.exp(1j * theta)]]), LAT)
        pb = pullback_bundle(b, CoverSpec.scaling(2))
        assert np.allclose(pb.rho1, 1.0, atol=1e-12)
        assert np.allclose(pb.rhotau, 1.0, atol=1e-12)
    assert labels == set(TWO_TORSION_LABELS)
    assert two_torsion_classify(LineHolonomy(0.3, 0.0)) is None
