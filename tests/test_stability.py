"""Twisted spectra, index forms, cutoffs, and covering sweeps."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from stabletori.errors import (ConfigError, ConvergenceError, DomainError,
                               IsotropyViolationError, ResolutionError,
                               ShapeError, WrongFormError)
from stabletori.lattice import CoverSpec, Lattice, normalize_lattice
from stabletori.bundles import LineHolonomy, principal_angle
from stabletori.geometry import product_geodesic_torus
from stabletori import stability
from stabletori.scenarios import (EllipticScenario, FlatTorusScenario,
                                  LensScenario, flat_chart_immersion,
                                  second_variation_form)
from stabletori.stability import (DiscreteForm, covering_sweep,
                                  cutoff_inequality_audit, dbar_energy_chart,
                                  euclidean_index_form, flat_twisted_form,
                                  log_cutoff, min_eigenvalue, pic_index_form,
                                  reduced_pic_gap, second_ff_energy,
                                  _stencil_hermitian_norms)
from stabletori.systole import (axis_truncated_distances, induced_systole,
                                phase_trial_section)

from conftest import fourier_lambda_min, kron_twisted_form_q


# ---------------------------------------------------------------------------
# twisted spectrum against the Fourier oracle


def test_zero_twist_has_zero_mode():
    form = flat_twisted_form((1.0, 1.0), (0.0, 0.0), 32)
    res = min_eigenvalue(form)
    assert abs(res.lambda_min) < 1e-12
    assert res.residual < 1e-8


def test_twisted_spectrum_matches_oracle(rng):
    for _ in range(6):
        phi, theta = rng.uniform(0.5, np.pi - 0.5, 2) * rng.choice([-1, 1], 2)
        a, b = rng.uniform(0.7, 2.5, 2)
        form = flat_twisted_form((a, b), (phi, theta), 64)
        got = min_eigenvalue(form).lambda_min
        want = fourier_lambda_min((a, b), (phi, theta))
        assert got == pytest.approx(want, rel=2e-3)


def test_twisted_spectrum_with_shear(rng):
    lat, _ = normalize_lattice(0.3 + 1.1j)
    scale = 1.7
    twist = (1.1, -0.8)
    form = flat_twisted_form((scale, scale * lat.tau2), twist, 64,
                             shear=scale * lat.tau1)
    got = min_eigenvalue(form).lambda_min
    want = fourier_lambda_min((scale, scale * lat.tau2), twist,
                              shear=scale * lat.tau1)
    assert got == pytest.approx(want, rel=2e-3)


def test_constant_potential_shifts_spectrum_exactly():
    twist = (0.9, 0.4)
    lam0 = min_eigenvalue(flat_twisted_form((1.0, 1.0), twist, 48)).lambda_min
    lamV = min_eigenvalue(flat_twisted_form((1.0, 1.0), twist, 48,
                                            potential=-2.5)).lambda_min
    assert lamV == pytest.approx(lam0 - 2.5, abs=1e-10)


def test_spectrum_convergence_is_second_order():
    twist = (2.0, 1.2)
    want = fourier_lambda_min((1.0, 1.0), twist)
    errs = []
    for n in (16, 32, 64):
        got = min_eigenvalue(flat_twisted_form((1.0, 1.0), twist, n)).lambda_min
        errs.append(abs(got - want))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert min(rate1, rate2) > 1.8


def test_dense_and_sparse_paths_agree():
    form = flat_twisted_form((1.0, 1.3), (1.7, -0.6), 40, potential=-1.0)
    dense = scipy.linalg.eigh(form.Q.toarray(), form.M.toarray(),
                              eigvals_only=True)[0]
    sparse = min_eigenvalue(form).lambda_min
    assert sparse == pytest.approx(dense, abs=1e-9)


def test_min_eigenvalue_rejects_form_without_lower_bound():
    with pytest.raises(WrongFormError):
        min_eigenvalue(EllipticScenario(n=16).form())


@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0),
       st.floats(-3 * np.pi, 3 * np.pi), st.floats(-3 * np.pi, 3 * np.pi),
       st.floats(-5.0, 5.0), st.integers(2, 64))
@settings(max_examples=60, deadline=None)
def test_continuum_bottom_brackets_the_discrete_bottom(a, b, phi, theta, pot,
                                                       n):
    form = flat_twisted_form((a, b), (phi, theta), n, potential=pot)
    res = min_eigenvalue(form)
    c, gap, _ = form.meta["continuum"]
    assert res.continuum == c
    # brute force over the continuum symbol's modes
    m = range(-6, 7)
    brute = pot + min(((2 * np.pi * i - phi) / a) ** 2
                      + ((2 * np.pi * j - theta) / b) ** 2
                      for i in m for j in m)
    assert c == pytest.approx(brute, rel=1e-12, abs=1e-12)
    assert c - gap - 1e-12 <= res.lambda_min <= c + 1e-12


def test_min_eigenvalue_rejects_a_shifted_continuum_bottom():
    form = flat_twisted_form((1.0, 1.3), (1.7, -0.6), 16, potential=-1.0)
    c, gap, size = form.meta["continuum"]
    lam = min_eigenvalue(form).lambda_min
    assert c - gap < lam < c
    # the discrete bottom above the bracket, then below it
    for shifted in (lam - 1e-6, lam + gap + 1e-6):
        form.meta["continuum"] = (shifted, gap, size)
        with pytest.raises(ConvergenceError) as info:
            min_eigenvalue(form)
        assert info.value.best == lam


def _dense_bottom(form):
    return scipy.linalg.eigh(form.Q.toarray(), form.M.toarray(),
                             eigvals_only=True)[0]


@given(st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(-np.pi, np.pi),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0), st.floats(-5.0, 5.0),
       st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_symbol_bottom_matches_dense_eigh(a, b, phi, theta, shear, pot, n):
    form = flat_twisted_form((a, b), (phi, theta), n, potential=pot,
                             shear=shear)
    got = min_eigenvalue(form).lambda_min
    assert got == pytest.approx(_dense_bottom(form), abs=1e-9)


@given(st.floats(0.3, 3.0), st.floats(0.3, 2.0),
       st.sampled_from([(1, 0), (2, 1), (3, 1), (3, 2), (4, 3), (5, 2)]),
       st.integers(2, 10))
@settings(max_examples=40, deadline=None)
def test_pic_symbol_bottom_matches_dense_eigh(L, rho, lens, n):
    imm = product_geodesic_torus(L, rho, 3, lens, n)
    form = pic_index_form(imm, imm.ambient, n)
    got = min_eigenvalue(form).lambda_min
    assert got == pytest.approx(_dense_bottom(form), abs=1e-9)


def _node_dip(form):
    # a dip of the potential at one node
    return sp.csr_matrix(([3.0 * form.M[5, 5]], ([5], [5])),
                         shape=form.Q.shape)


def _mode_dip(form):
    # lowers the plane wave of mode (2, 3) below the bottom of the symbol;
    # the symbol's minimizer stays an exact eigenvector, so only the probe
    # can see the change
    j = np.arange(16)
    u = np.exp(2j * np.pi * (2 * j[:, None] + 3 * j) / 16).reshape(-1)
    mu = form.M @ u / np.sqrt(np.real(np.vdot(u, form.M @ u)))
    return sp.csr_matrix(1e3 * np.outer(mu, mu.conj()))


@pytest.mark.parametrize("dip", [_node_dip, _mode_dip])
def test_min_eigenvalue_rejects_form_altered_after_assembly(dip):
    form = flat_twisted_form((1.0, 1.3), (1.7, -0.6), 16, potential=-1.0)
    form.Q = (form.Q - dip(form)).tocsr()
    with pytest.raises(ConvergenceError) as info:
        min_eigenvalue(form)
    # the true bottom lies below the one the symbol claims
    assert info.value.best > _dense_bottom(form)


def test_min_eigenvalue_rejects_non_constant_potential():
    pot = np.zeros((16, 16))
    pot[3, 4] = -2.0
    form = flat_twisted_form((1.0, 1.0), (0.5, 0.5), 16, potential=pot)
    assert "symbol" not in form.meta
    with pytest.raises(WrongFormError):
        min_eigenvalue(form)


# ---------------------------------------------------------------------------
# stencil assembly against the Kronecker-product oracle


@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(-3 * np.pi, 3 * np.pi),
       st.floats(-3 * np.pi, 3 * np.pi),
       st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
       st.one_of(st.floats(-5.0, 5.0), st.integers(0, 2 ** 32 - 1)),
       st.integers(2, 12))
@settings(max_examples=80, deadline=None)
def test_stencil_matches_kron_oracle(a, b, phi, theta, shear, pot, n):
    if isinstance(pot, int):        # a seed for a non-constant potential
        pot = np.random.default_rng(pot).uniform(-5.0, 5.0, (n, n))
    got = flat_twisted_form((a, b), (phi, theta), n, potential=pot,
                            shear=shear).Q
    want = kron_twisted_form_q((a, b), (phi, theta), n, potential=pot,
                               shear=shear)
    assert got.nnz == want.nnz
    assert abs(got - want).max() <= 1e-13 * abs(want).max()


@pytest.mark.parametrize("n", [3, 4, 7])
@pytest.mark.parametrize("shear, points", [(0.0, 5), (0.4, 9)])
def test_stencil_stores_five_or_nine_points(n, shear, points):
    form = flat_twisted_form((1.0, 1.3), (0.7, -1.9), n, shear=shear)
    assert form.Q.nnz == points * n * n


@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(-3 * np.pi, 3 * np.pi),
       st.floats(-3 * np.pi, 3 * np.pi),
       st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
       st.one_of(st.floats(-5.0, 5.0), st.integers(0, 2 ** 32 - 1)),
       st.integers(2, 12))
@settings(max_examples=80, deadline=None)
def test_stencil_hermitian_norms_match_the_matrix(a, b, phi, theta, shear,
                                                  pot, n):
    if isinstance(pot, int):        # a seed for a non-constant potential
        pot = np.random.default_rng(pot).uniform(-5.0, 5.0, (n, n))
    seen = []

    def spy(gen, diag):
        seen.append(_stencil_hermitian_norms(gen, diag))
        return seen[-1]

    with mock.patch.object(stability, "_stencil_hermitian_norms", spy):
        Q = flat_twisted_form((a, b), (phi, theta), n, potential=pot,
                              shear=shear).Q
    (herm, norm), = seen
    want = spla.norm(Q)
    assert abs(herm - spla.norm(Q - Q.getH())) <= 1e-13 * want
    assert abs(norm - want) <= 1e-13 * want


@pytest.mark.parametrize("n", [2, 3, 6])
def test_stencil_hermitian_norms_of_a_non_hermitian_stencil(rng, n):
    """The stencil sums against the dense matrix sum_o gen[o] S_o + diag."""
    gen = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    diag = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    shift = [np.roll(np.eye(n), o, axis=1) for o in range(n)]
    Q = np.diag(diag.reshape(-1)).astype(complex)
    for ox in range(n):
        for oy in range(n):
            if ox or oy:
                Q += gen[ox, oy] * np.kron(shift[ox], shift[oy])
    herm, norm = _stencil_hermitian_norms(gen, diag)
    assert herm == pytest.approx(np.linalg.norm(Q - Q.conj().T), rel=1e-13)
    assert norm == pytest.approx(np.linalg.norm(Q), rel=1e-13)
    diag[1, 0] = np.inf
    assert np.isnan(_stencil_hermitian_norms(gen, diag)[0])


def test_flat_twisted_form_checks_its_stencil_not_its_matrix(monkeypatch):
    def transpose_check(Q):
        raise AssertionError("the assembled matrix was checked")

    monkeypatch.setattr(stability, "_hermitian_norms", transpose_check)
    pot = np.random.default_rng(3).uniform(-5.0, 5.0, (8, 8))
    for shear, potential in [(0.0, 0.0), (0.4, 0.0), (0.4, pot)]:
        form = flat_twisted_form((1.0, 1.3), (1.7, -0.6), 8,
                                 potential=potential, shear=shear)
        assert form.Q.has_canonical_format
    # a form built directly still goes through the matrix check
    with pytest.raises(AssertionError, match="assembled matrix"):
        DiscreteForm(form.Q, form.M, "da", form.shape)


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
def test_flat_twisted_form_rejects_an_overflowing_diagonal():
    with pytest.raises(DomainError, match="Hermitian"):
        flat_twisted_form((1e10, 1e10), (0.3, 0.2), 4, potential=1e300)


def test_hermitian_guard_rejects_one_changed_entry():
    form = flat_twisted_form((1.0, 1.3), (1.7, -0.6), 8, shear=0.3)
    Q = form.Q.tolil()
    Q[0, 1] = -Q[0, 1]
    with pytest.raises(DomainError, match="Hermitian"):
        DiscreteForm(Q.tocsr(), form.M, "da", form.shape)


def test_pic_index_form_checks_the_swapped_matrix():
    class NanCurvature:
        def curvature(self, *args, **kwargs):
            return complex("nan")

    imm = product_geodesic_torus(2.0, 1.0, 3, (3, 1), 8)
    with pytest.raises(DomainError, match="Hermitian"):
        pic_index_form(imm, NanCurvature(), 8)


def test_min_eigenvalue_rejects_nan_symbol():
    form = flat_twisted_form((1.0, 1.0), (0.0, 0.0), 8)
    form.meta["symbol"] = form.meta["symbol"].copy()
    form.meta["symbol"][2, 3] = np.nan
    with pytest.raises(ConvergenceError):
        min_eigenvalue(form)


def test_flat_twisted_form_rejects_potential_of_wrong_shape():
    with pytest.raises(ShapeError):
        flat_twisted_form((1.0, 1.0), (0.0, 0.0), 8, potential=np.zeros((3, 8)))


def test_flat_twisted_form_rejects_zero_period():
    with pytest.raises(DomainError):
        flat_twisted_form((0.0, 1.0), (0.0, 0.0), 8)


@pytest.mark.parametrize("periods", [(1.0, 1e-170), (1e-160, 1.0)])
def test_flat_twisted_form_rejects_degenerate_periods(periods):
    """A metric that is singular, or whose inverse overflows, in floats."""
    with pytest.raises(DomainError, match="metric"):
        flat_twisted_form(periods, (0.3, 0.2), 8)


@pytest.mark.parametrize("kwargs", [
    {"periods": (np.nan, 1.0)}, {"periods": (1.0, np.inf)},
    {"twist": (np.nan, 0.0)}, {"twist": (0.0, -np.inf)},
    {"shear": np.inf}, {"shear": np.nan},
    {"potential": np.nan}, {"potential": np.where(np.eye(8), np.nan, 0.0)},
])
def test_flat_twisted_form_rejects_non_finite_input(kwargs):
    args = {"periods": (1.0, 1.0), "twist": (0.0, 0.0), "n": 8, **kwargs}
    with pytest.raises(DomainError):
        flat_twisted_form(**args)


# ---------------------------------------------------------------------------
# lens second variation


def test_lens_eigenvalue_ladder():
    sc = LensScenario()
    expected = {1: 0.0, 2: -0.75, 3: -1.0}
    for k, want in expected.items():
        got = min_eigenvalue(sc.cover_form(k, k, 64)).lambda_min
        assert got == pytest.approx(want, abs=2e-3)


@pytest.mark.parametrize("p, q", [(5, 2), (7, 3)])
def test_lens_lines_and_bottoms_come_from_the_decomposition(p, q):
    # the normal lines are the decomposition's, N^{1,0} first, and every
    # sweep level's continuum bottom is (d_k / b_k)^2 - 1 / rho^2 with d_k the
    # distance of the lifted twist k 2 pi q / p from 2 pi Z
    sc = LensScenario(rho=1.3, p=p, q=q, n=16)
    alpha = principal_angle(2 * np.pi * q / p)
    (L1, e1), (L2, e2) = sc.torus.normal_lines
    assert (L1.phi, L2.phi) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert (L1.theta, L2.theta) == pytest.approx((alpha, -alpha), abs=1e-12)
    assert e1[4] == pytest.approx(-1j * e1[3], abs=1e-12)
    assert abs(np.dot(e1, e1)) < 1e-12 and abs(np.dot(e1, e2) - 1) < 1e-12
    b = 2 * np.pi * 1.3 / p
    for k in (1, 2, 3):
        d = abs(principal_angle(k * 2 * np.pi * q / p))
        cont = sc.level(CoverSpec.scaling(k))[3]
        assert cont == pytest.approx((d / (k * b)) ** 2 - 1 / 1.3 ** 2,
                                     rel=1e-12, abs=1e-12)


def test_direct_lens_scenario_rejects_non_coprime_lens():
    # the CLI refuses (4, 2) as a config error; built directly, the torus
    # refuses it instead of sweeping a twist of pi
    with pytest.raises(DomainError):
        LensScenario(p=4, q=2)


def test_second_variation_form_rejects_curved_base():
    imm = EllipticScenario(n=32).immersion()
    with pytest.raises(WrongFormError):
        second_variation_form(imm, 1, 1, 32)


def test_pic_index_form_curvature_term():
    # R(eps, f_z, conj eps, conj f_z) = 1/(4 rho^2): the dbar-energy version
    # of the curvature potential, half of kappa = 1/(2 rho^2)
    imm = LensScenario(n=32).torus
    form = pic_index_form(imm, imm.ambient, 32)
    assert form.meta["rterm"] == pytest.approx(0.25, rel=1e-12)
    assert form.convention == "dxdy"
    # the zero mode of the dbar form sits at zero: lambda_min(dbar) = 0
    lam = min_eigenvalue(form).lambda_min
    assert abs(lam) < 5e-4


def test_pic_index_form_untwisted_bottom_is_minus_rterm():
    # zero twist: the constant section has no dbar energy, so the bottom is
    # exactly -rterm = -1/4; the symbol must carry the same rescaling as Q
    imm = product_geodesic_torus(2.0, 1.0, 3, (1, 0), 48)
    form = pic_index_form(imm, imm.ambient, 48)
    res = min_eigenvalue(form)
    assert res.lambda_min == pytest.approx(-0.25, abs=1e-9)
    # the continuum bottom carries the same rescaling, exactly
    assert res.continuum == -form.meta["rterm"]


def test_reduced_pic_gap_saturated_by_lens_zero_mode():
    imm = LensScenario(n=64).torus
    R = induced_systole(imm, window=1, stride=16)
    hol = imm.normal_lines[0][0]
    deltas = axis_truncated_distances(imm, R, 64)
    s = phase_trial_section(hol, R, deltas, imm, 64)
    gap = reduced_pic_gap(s, 0.5, imm)
    scale = 0.5 * imm.area()
    assert abs(gap) < 2e-3 * scale


def test_reduced_pic_gap_requires_isotropy_certificate():
    imm = LensScenario(n=32).torus
    # strip the certificate from a valid section
    deltas = axis_truncated_distances(imm, 2.0943951023931953, 32)
    s = phase_trial_section(imm.normal_lines[0][0], 2.0943951023931953,
                            deltas, imm, 32)
    s.meta.pop("self_pairing")
    with pytest.raises(IsotropyViolationError):
        reduced_pic_gap(s, 0.5, imm)


# ---------------------------------------------------------------------------
# elliptic stability


def test_elliptic_form_positive_on_normal_sections():
    sc = EllipticScenario(n=48)
    worst, stable = sc.stability_audit(count=40)
    assert stable
    assert worst >= -1e-6


def test_elliptic_audit_builds_its_immersion_once(monkeypatch):
    import stabletori.scenarios as scenarios
    import stabletori.stability as stability
    sc = EllipticScenario(n=16)
    # the audit's sections and form, built separately
    form = sc.form()
    want = min(form.q_value(v) / form.m_value(v)
               for v in sc.random_normal_sections(5, seed=7))

    builds = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            builds.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for mod, name in ((scenarios, "elliptic_curve_immersion"),
                      (scenarios, "surface_quantities"),
                      (stability, "surface_quantities")):
        monkeypatch.setattr(mod, name, counting(getattr(mod, name)))
    worst, _ = sc.stability_audit(count=5, seed=7)
    assert sorted(builds) == ["elliptic_curve_immersion", "surface_quantities"]
    assert worst == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [16, 48])
@pytest.mark.parametrize("extent", [1, 2])
def test_elliptic_audit_matches_the_sparse_form(n, extent):
    # the audit evaluates Q on the grid in batches; the sparse form of the
    # same stencil must give the same worst quotient over the same sections
    sc = EllipticScenario(n=n)
    form = sc.form(extent)
    for seed in range(3):
        want = min(form.q_value(v) / form.m_value(v)
                   for v in sc.random_normal_sections(13, extent, seed))
        worst, stable = sc.stability_audit(count=13, extent=extent, seed=seed)
        assert worst == pytest.approx(want, rel=1e-12)
        assert stable == (want >= -1e-6)


def test_elliptic_audit_builds_no_sparse_form(monkeypatch):
    import stabletori.scenarios as scenarios
    import stabletori.stability as stability
    calls = []
    for mod in (scenarios, stability):
        monkeypatch.setattr(mod, "euclidean_index_form",
                            lambda *a, **k: calls.append(a))
    EllipticScenario(n=16).stability_audit(count=3, extent=2)
    assert len(calls) == 0


def test_elliptic_audit_needs_evidence(monkeypatch):
    sc = EllipticScenario(n=16)
    for kwargs in ({"count": 0}, {"count": -1}, {"extent": 0}):
        with pytest.raises(ConfigError):
            sc.stability_audit(**kwargs)

    def massless(self, count, extent, seed, *args, **kwargs):
        yield np.zeros((16 * extent, 16 * extent, 4, count), dtype=complex)

    monkeypatch.setattr(EllipticScenario, "_section_batches", massless)
    with pytest.raises(DomainError, match="mass"):
        sc.stability_audit(count=3)


def test_euclidean_index_form_split_parts_have_signs():
    sc = EllipticScenario(n=32)
    form = sc.form()
    rng = np.random.default_rng(4)
    for _ in range(5):
        v = rng.standard_normal(form.dof) + 1j * rng.standard_normal(form.dof)
        plus = np.real(np.vdot(v, form.meta["Qplus"] @ v))
        minus = np.real(np.vdot(v, form.meta["Qminus"] @ v))
        assert plus >= -1e-10
        assert minus >= -1e-10


def test_second_ff_energy_vanishes_for_flat_immersion():
    imm = flat_chart_immersion(1.0, 1.0, 32)
    vals = np.zeros((32, 32, 4), dtype=complex)
    vals[:, :, 2] = 1.0   # constant normal field
    assert second_ff_energy(vals, imm) == pytest.approx(0.0, abs=1e-20)


# ---------------------------------------------------------------------------
# log cutoff


def test_log_cutoff_energy_matches_analytic_value():
    n = 512
    imm = flat_chart_immersion(1.0, 1.0, n)
    phi, energy = log_cutoff(0.1, (0.5 + 0.5 / n, 0.5 + 0.5 / n),
                             imm.lattice, n, imm.scale)
    exact = 2 * np.pi / abs(np.log(0.1))
    assert energy == pytest.approx(exact, rel=0.03)
    assert phi.min() == 0.0 and phi.max() == 1.0


def test_log_cutoff_resolution_guards():
    imm = flat_chart_immersion(1.0, 1.0, 64)
    with pytest.raises(ResolutionError):
        # annulus unresolved
        log_cutoff(0.05, (0.5, 0.5), imm.lattice, 64, imm.scale)
    imm2 = flat_chart_immersion(1.0, 1.0, 256)
    with pytest.raises(ResolutionError):
        # inner radius unresolved
        log_cutoff(0.05, (0.5, 0.5), imm2.lattice, 256, imm2.scale)
    with pytest.raises(DomainError):
        log_cutoff(1.5, (0.5, 0.5), imm.lattice, 64, imm.scale)


def _full_grid_log_cutoff(epsilon, center, tau, n, scale):
    """The cutoff and its forward-difference energy over every grid node."""
    hx = 1.0 / n
    xi = np.arange(n) * hx
    X, Y = np.meshgrid(xi, xi, indexing="ij")
    dxi = X - center[0]
    deta = Y - center[1]
    dxi -= np.round(dxi)
    deta -= np.round(deta)
    r = np.abs(scale * (dxi + deta * tau))
    with np.errstate(divide="ignore"):
        phi = np.log(r / epsilon ** 2) / (-np.log(epsilon))
    phi = np.clip(phi, 0.0, 1.0)
    phi[r == 0] = 0.0
    a, b, s = scale, scale * tau.imag, scale * tau.real
    ginv = np.linalg.inv(np.array([[a * a, a * s], [a * s, s * s + b * b]]))
    px = (np.roll(phi, -1, axis=0) - phi) / hx
    py = (np.roll(phi, -1, axis=1) - phi) / hx
    dens = (ginv[0, 0] * px ** 2 + ginv[1, 1] * py ** 2
            + 2 * ginv[0, 1] * px * py)
    return phi, float(np.sum(dens) * a * b * hx * hx)


def _assert_matches_full_grid(epsilon, center, tau, n, scale):
    phi, energy = log_cutoff(epsilon, center, Lattice(tau.real, tau.imag),
                             n, scale)
    want_phi, want_energy = _full_grid_log_cutoff(epsilon, center, tau, n,
                                                  scale)
    assert np.array_equal(phi, want_phi)
    assert energy == pytest.approx(want_energy, rel=1e-12)


@pytest.mark.parametrize("epsilon, center, tau, n, scale", [
    (0.15, (0.01, 0.98), 1j, 256, 1.0),              # window wraps a corner
    (0.15, (0.5, 0.5), 0.3 + 1.2j, 256, 1.0),        # sheared lattice
    (0.15, (0.02, 0.97), 0.3 + 1.2j, 256, 1.0),
    (0.2, (0.3, 0.7), 1j, 256, 2.5),                 # scale != 1
    (0.6, (0.4, 0.1), 1j, 64, 1.0),                  # window covers the grid
])
def test_log_cutoff_window_matches_full_grid(epsilon, center, tau, n, scale):
    _assert_matches_full_grid(epsilon, center, tau, n, scale)


@settings(max_examples=40, deadline=None)
@given(epsilon=st.floats(0.15, 0.85),
       cx=st.floats(-1.0, 2.0), cy=st.floats(-1.0, 2.0))
def test_log_cutoff_window_property(epsilon, cx, cy):
    _assert_matches_full_grid(epsilon, (cx, cy), 0.3 + 1.2j, 128, 1.0)


def test_log_cutoff_allocates_little_beyond_phi():
    n = 1024
    tracemalloc.start()
    try:
        log_cutoff(0.1, (0.5 + 0.5 / n, 0.5 + 0.5 / n), Lattice(0.0, 1.0), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_cutoff_inequality_audit_chain_holds():
    sc = EllipticScenario(n=128)
    imm = sc.immersion()
    form = sc.form()
    n = 128
    phi, _ = log_cutoff(0.18, (0.5 + 0.5 / n, 0.5 + 0.5 / n),
                        imm.lattice, n, imm.scale)
    vals = next(sc.random_normal_sections(1, seed=3))
    rep = cutoff_inequality_audit(vals, phi, form)
    assert rep.chain_holds
    assert rep.stability_holds
    assert rep.rhs_perp >= 0.0 and rep.lhs_top >= 0.0


def test_index_form_matrix_matches_the_array_stencil():
    # Q(s) = int |(d_zbar s)^perp|^2 - |(d_z s)^top|^2, once from the sparse
    # matrix and once from the array stencil of the cutoff audit (phi = 1)
    sc = EllipticScenario(n=48)
    form = sc.form()
    imm = form.meta["immersion"]
    for seed in range(3):
        vals = next(sc.random_normal_sections(1, seed=seed, imm=imm))
        assert not np.any(vals[~imm.mask])    # packing drops nothing
        rep = cutoff_inequality_audit(vals, np.ones((48, 48)), form)
        assert form.q_value(vals) == pytest.approx(rep.rhs_perp - rep.lhs_top,
                                                   rel=1e-12)


# ---------------------------------------------------------------------------
# sweeps


def test_covering_sweep_lens_onset():
    sc = LensScenario(n=64)
    covers = [CoverSpec.scaling(k) for k in (1, 2, 3)]
    rows = covering_sweep(sc, covers)
    assert rows[0].stable
    assert not rows[1].stable and not rows[2].stable
    assert rows[0].systole == pytest.approx(2 * np.pi / 3, rel=1e-6)
    assert rows[1].lambda_min == pytest.approx(-0.75, abs=5e-3)


def test_lens_sweep_builds_one_form_per_level(monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(args[2])
        return flat_twisted_form(*args, **kwargs)

    monkeypatch.setattr("stabletori.scenarios.flat_twisted_form", counting)
    covering_sweep(LensScenario(n=16), [CoverSpec.scaling(k) for k in (1, 2, 3)])
    assert built == [16, 16, 16]


def test_covering_sweep_flat_tower_stays_stable():
    sc = FlatTorusScenario(n=32)
    rows = covering_sweep(sc, [CoverSpec.scaling(k) for k in (1, 2)])
    assert all(r.stable for r in rows)
    assert rows[1].systole == pytest.approx(2 * rows[0].systole, rel=1e-9)


def test_covering_sweep_rejects_increasing_lambda():
    class Fake:
        def __init__(self):
            self.calls = 0

        def level(self, spec):
            self.calls += 1
            cont = 0.0 if self.calls == 1 else 1.0   # bottom goes up: invalid
            return 1, 1.0, 0.0, cont

    with pytest.raises(DomainError):
        covering_sweep(Fake(), [CoverSpec.scaling(1), CoverSpec.scaling(2)])
