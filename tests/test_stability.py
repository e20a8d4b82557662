"""Twisted spectra, index forms, cutoffs, and covering sweeps."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from stabletori.errors import (ConfigError, ConvergenceError, DomainError,
                               ResolutionError, ShapeError, WrongFormError)
from stabletori.lattice import (CoverSpec, Lattice, flat_systole,
                               wirtinger_factors)
from stabletori.bundles import principal_angle
from stabletori.geometry import (elliptic_curve_immersion,
                                 product_geodesic_torus, surface_quantities)
from stabletori import stability
from stabletori.scenarios import (EllipticScenario, FlatTorusScenario,
                                  LensScenario, flat_chart_immersion,
                                  second_variation_form)
from stabletori.stability import (SYMBOL_TOL, DiscreteForm, StencilForm,
                                  covering_sweep, flat_twisted_form,
                                  log_cutoff, min_eigenvalue,
                                  _stencil_hermitian_norms)
from stabletori.sections import wirtinger_diff

from conftest import (cutoff_phi, fourier_lambda_min, index_densities,
                      kron_twisted_form_q, plane_wave_sections,
                      stencil_spectrum_mismatch, surface_projectors)


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
    c, gap, _ = form.continuum
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
    c, gap, size = form.continuum
    lam = min_eigenvalue(form).lambda_min
    assert c - gap < lam < c
    # the discrete bottom above the bracket, then below it
    for shifted in (lam - 1e-6, lam + gap + 1e-6):
        form.continuum = (shifted, gap, size)
        with pytest.raises(ConvergenceError) as info:
            min_eigenvalue(form)
        assert info.value.best == lam


def _dense_bottom(form):
    return scipy.linalg.eigh(form.Q.toarray(), form.M.toarray(),
                             eigvals_only=True)[0]


@given(st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(-np.pi, np.pi),
       st.floats(-np.pi, np.pi), st.floats(-5.0, 5.0), st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_symbol_bottom_matches_dense_eigh(a, b, phi, theta, pot, n):
    form = flat_twisted_form((a, b), (phi, theta), n, potential=pot)
    got = min_eigenvalue(form).lambda_min
    assert got == pytest.approx(_dense_bottom(form), abs=1e-9)


@given(st.floats(0.3, 3.0), st.floats(0.3, 2.0),
       st.sampled_from([(1, 0), (2, 1), (3, 1), (3, 2), (4, 3), (5, 2)]),
       st.integers(2, 10))
@settings(max_examples=40, deadline=None)
def test_pic_symbol_bottom_matches_dense_eigh(L, rho, lens, n):
    # the second variation of a product torus in the PIC ambient S^1 x S^3
    # or its lens quotient: the curvature potential comes from the ambient
    imm = product_geodesic_torus(L, rho, 3, lens, n)
    form = second_variation_form(imm)
    got = min_eigenvalue(form).lambda_min
    assert got == pytest.approx(_dense_bottom(form), abs=1e-9)


def _potential_dip(form):
    # a dip of the constant potential
    form.shift -= 3.0 * form.w


def _mode_dip(form):
    # lowers the plane waves of xi mode 2 below the bottom of the symbol by
    # a circulant change of the xi stencil, 1e3 w u u^H / n for the 1-D wave
    # u; every other plane wave, the symbol's minimizer too, stays an exact
    # eigenvector with its eigenvalue, so only the spectrum check can see it
    u = np.exp(2j * np.pi * 2 * np.arange(16) / 16)
    form.stencils[0][:] -= 1e3 * form.w / 16 * np.conj(u)


@pytest.mark.parametrize("dip", [_potential_dip, _mode_dip])
def test_min_eigenvalue_rejects_form_altered_after_assembly(dip):
    form = flat_twisted_form((1.0, 1.3), (1.7, -0.6), 16, potential=-1.0)
    dip(form)
    with pytest.raises(ConvergenceError) as info:
        min_eigenvalue(form)
    # the true bottom lies below the one the symbol claims
    assert info.value.best > _dense_bottom(form)


@pytest.mark.parametrize("part", ["gen", "diag"])
def test_min_eigenvalue_rejects_one_coefficient_changed_by_1e_8(part):
    # an off-centre coefficient of the xi stencil, or the diagonal entry of
    # Q through its scalar shift, times 1 + 1e-8: either moves some modes by
    # 1.6e-9 to 5e-9 of max|symbol| w, above SYMBOL_TOL
    form = flat_twisted_form((1.0, 1.3), (1.7, -0.6), 16, potential=-1.0)
    min_eigenvalue(form)
    sx, sy = form.stencils
    if part == "gen":
        sx[1] *= 1 + 1e-8
    else:
        form.shift += 1e-8 * (sx[0] + sy[0] + form.shift).real
    with pytest.raises(ConvergenceError):
        min_eigenvalue(form)


@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(-np.pi, np.pi),
       st.floats(-np.pi, np.pi), st.floats(-5.0, 5.0), st.integers(2, 24),
       st.sampled_from([0, 1, "shift"]), st.integers(0, 23),
       st.floats(-13.0, -6.0), st.sampled_from([1.0, -1.0, 1j, -1j]))
@settings(max_examples=120, deadline=None)
def test_min_eigenvalue_raises_whenever_the_whole_grid_check_fails(
        a, b, phi, theta, pot, n, part, o, log_size, sign):
    # one stencil coefficient or the shift moved by 1e-13 to 1e-6 of the
    # xi stencil's centre, which straddles SYMBOL_TOL; the per-axis check
    # bounds every mode, so it may not pass a form the n x n check rejects
    form = flat_twisted_form((a, b), (phi, theta), n, potential=pot)
    assert stencil_spectrum_mismatch(form) <= SYMBOL_TOL
    min_eigenvalue(form)
    delta = 10 ** log_size * abs(form.stencils[0][0]) * sign
    if part == "shift":
        form.shift += delta.real + delta.imag
    else:
        form.stencils[part][o % n] += delta
    if stencil_spectrum_mismatch(form) > SYMBOL_TOL:
        with pytest.raises(ConvergenceError):
            min_eigenvalue(form)


def test_flat_form_and_its_solve_build_nothing_of_size_n_squared():
    # at the dof cap one n x n float array is 32 MB; the axis stencils,
    # symbols and DFTs peak near 0.4 MB
    n = 2000
    tracemalloc.start()
    try:
        form = flat_twisted_form((1.0, 1.3), (1.7, -0.6), n, potential=-1.0)
        min_eigenvalue(form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


# ---------------------------------------------------------------------------
# stencil assembly against the Kronecker-product oracle


@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(-3 * np.pi, 3 * np.pi),
       st.floats(-3 * np.pi, 3 * np.pi), st.floats(-5.0, 5.0),
       st.integers(2, 12))
@settings(max_examples=80, deadline=None)
def test_stencil_matches_kron_oracle(a, b, phi, theta, pot, n):
    got = flat_twisted_form((a, b), (phi, theta), n, potential=pot).Q
    want = kron_twisted_form_q((a, b), (phi, theta), n, potential=pot)
    assert got.nnz == want.nnz
    assert abs(got - want).max() <= 1e-13 * abs(want).max()


@pytest.mark.parametrize("n", [3, 4, 7])
def test_stencil_stores_five_points(n):
    form = flat_twisted_form((1.0, 1.3), (0.7, -1.9), n)
    assert form.Q.nnz == 5 * n * n


def _dense_circulant(s):
    """sum_o s[o] S_o, with S_o the periodic shift by o, as a dense matrix."""
    n = s.size
    return sum(s[o] * np.roll(np.eye(n), o, axis=1) for o in range(n))


@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(-3 * np.pi, 3 * np.pi),
       st.floats(-3 * np.pi, 3 * np.pi), st.floats(-5.0, 5.0),
       st.integers(2, 12))
@settings(max_examples=80, deadline=None)
def test_stencil_hermitian_norms_match_the_matrix(a, b, phi, theta, pot, n):
    # the constructor checks the norms of Q's two axis terms, and those
    # terms plus the shift are Q
    seen = []

    def spy(s):
        seen.append(_stencil_hermitian_norms(s))
        return seen[-1]

    with mock.patch.object(stability, "_stencil_hermitian_norms", spy):
        form = flat_twisted_form((a, b), (phi, theta), n, potential=pot)
    eye = np.eye(n)
    Ax, Ay = (_dense_circulant(s) for s in form.stencils)
    terms = np.kron(Ax, eye), np.kron(eye, Ay)
    for (herm, norm), T in zip(seen, terms, strict=True):
        want = np.linalg.norm(T)
        assert abs(herm - np.linalg.norm(T - T.conj().T)) <= 1e-13 * want
        assert abs(norm - want) <= 1e-13 * want
    Q = form.Q.toarray()
    assert np.abs(Q - sum(terms) - form.shift * np.eye(n * n)).max() <= (
        1e-13 * np.abs(Q).max())


@pytest.mark.parametrize("n", [2, 3, 6])
def test_stencil_hermitian_norms_of_a_non_hermitian_stencil(rng, n):
    """The stencil sums against the dense axis term of sum_o s[o] S_o."""
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    T = np.kron(_dense_circulant(s), np.eye(n))
    herm, norm = _stencil_hermitian_norms(s)
    assert herm == pytest.approx(np.linalg.norm(T - T.conj().T), rel=1e-13)
    assert norm == pytest.approx(np.linalg.norm(T), rel=1e-13)
    s[0] = np.inf
    assert np.isnan(_stencil_hermitian_norms(s)[0])


def test_flat_twisted_form_checks_its_stencil_not_its_matrix(monkeypatch):
    def transpose_check(Q):
        raise AssertionError("the assembled matrix was checked")

    monkeypatch.setattr(stability, "_hermitian_norms", transpose_check)
    for potential in (0.0, -2.5):
        form = flat_twisted_form((1.0, 1.3), (1.7, -0.6), 8,
                                 potential=potential)
        assert form.Q.has_canonical_format
    # a form built directly still goes through the matrix check
    with pytest.raises(AssertionError, match="assembled matrix"):
        DiscreteForm(form.Q, form.M)


def test_stencil_form_built_directly_is_checked_on_its_stencil():
    form = flat_twisted_form((1.0, 1.3), (1.7, -0.6), 8)
    sx, sy = form.stencils
    flipped, infinite, real = sx.copy(), sy.copy(), sy.real.copy()
    flipped[1] = -flipped[1]
    infinite[3] = np.inf
    real[3] = np.inf        # real arithmetic keeps the norms inf, not NaN
    # an off-centre coefficient with the wrong sign, an inf coefficient in a
    # complex and in a real stencil, then a shift that is no finite number
    for stencils, shift in (((flipped, sy), 0.0), ((sx, infinite), 0.0),
                            ((sx, real), 0.0), ((sx, sy), np.nan),
                            ((sx, sy), -np.inf)):
        with pytest.raises(DomainError, match="Hermitian"):
            StencilForm(stencils, shift, form.w, form.symbols,
                        form.potential, form.continuum)


@pytest.mark.parametrize("potential", [0.0, 0.4])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_stencil_form_applies_its_matrix(rng, potential, n):
    # (Q v)[i, j] = sum_o s_xi[o] v[i + o, j] + s_eta[o] v[i, j + o]
    # + shift v[i, j], indices mod n, written as periodic shifts of the grid
    form = flat_twisted_form((1.0, 1.3), (1.7, -0.6), n, potential=potential)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    want = form.shift * v
    for axis, s in enumerate(form.stencils):
        for o in range(n):
            want = want + s[o] * np.roll(v, -o, axis=axis)
    Qv = form.Q @ v.reshape(-1)
    assert np.abs(Qv - want.reshape(-1)).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(form.M @ v.reshape(-1), form.w * v.reshape(-1))


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
def test_flat_twisted_form_rejects_an_overflowing_diagonal():
    with pytest.raises(DomainError, match="Hermitian"):
        flat_twisted_form((1e10, 1e10), (0.3, 0.2), 4, potential=1e300)


def test_hermitian_guard_rejects_one_changed_entry():
    form = flat_twisted_form((1.0, 1.3), (1.7, -0.6), 8)
    Q = form.Q.tolil()
    Q[0, 1] = -Q[0, 1]
    with pytest.raises(DomainError, match="Hermitian"):
        DiscreteForm(Q.tocsr(), form.M)


def test_min_eigenvalue_rejects_nan_symbol():
    # a NaN axis term makes a row or column of modes NaN, mode (2, 3) too
    for axis, m in ((0, 2), (1, 3)):
        form = flat_twisted_form((1.0, 1.0), (0.0, 0.0), 8)
        form.symbols[axis][m] = np.nan
        with pytest.raises(ConvergenceError):
            min_eigenvalue(form)


def test_flat_twisted_form_rejects_potential_of_wrong_shape():
    # the potential is one constant: a field over the grid is no scalar
    for shape in ((3, 8), (8, 8), (1,)):
        with pytest.raises(ShapeError):
            flat_twisted_form((1.0, 1.0), (0.0, 0.0), 8,
                              potential=np.zeros(shape))


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
    {"potential": np.inf}, {"potential": -np.inf},
    {"potential": np.nan}, {"potential": np.array(np.nan)},   # 0-d: a scalar
])
def test_flat_twisted_form_rejects_non_finite_input(kwargs):
    args = {"periods": (1.0, 1.0), "twist": (0.0, 0.0), "n": 8, **kwargs}
    with pytest.raises(DomainError):
        flat_twisted_form(**args)


# ---------------------------------------------------------------------------
# lens second variation


def test_lens_eigenvalue_ladder():
    sc = LensScenario(n=64)
    expected = {1: 0.0, 2: -0.75, 3: -1.0}
    for k, want in expected.items():
        got = min_eigenvalue(sc.cover_form(CoverSpec.scaling(k))).lambda_min
        assert got == pytest.approx(want, abs=2e-3)


@pytest.mark.parametrize("p, q", [(5, 2), (7, 3)])
def test_lens_lines_and_bottoms_come_from_the_decomposition(p, q):
    # the normal lines agree with the decomposition's, N^{1,0} first, and
    # every sweep level's continuum bottom is (d_k / b_k)^2 - 1 / rho^2 with
    # d_k the distance of the lifted twist k 2 pi q / p from 2 pi Z
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


@pytest.mark.parametrize("cover", [(1, 2), (2, 1), (3, 3)])
@pytest.mark.parametrize("scenario", [LensScenario(p=3, q=1, n=16),
                                      LensScenario(p=5, q=2, n=16),
                                      LensScenario(p=2, q=1, n=16),
                                      FlatTorusScenario(n=16)],
                         ids=["lens31", "lens52", "lens21", "flat"])
def test_cover_form_and_systole_match_the_scaled_construction(scenario,
                                                              cover):
    # the oracle scales the periods and lifts the first line's holonomy by
    # hand, as the sweep did before covers were tori
    kx, ky = cover
    spec = CoverSpec(((kx, 0), (0, ky)))
    torus = scenario.torus
    a, b = torus.periods
    phi, theta, potential = 0.0, 0.0, 0.0
    if torus.normal_lines:
        hol = torus.normal_lines[0][0]
        phi, theta, potential = hol.phi, hol.theta, -1.0 / scenario.rho ** 2
    want = flat_twisted_form(
        (kx * a, ky * b),
        (principal_angle(kx * phi), principal_angle(ky * theta)), 16,
        potential)
    got = second_variation_form(torus.cover(spec))
    for name in ("stencils", "symbols", "shift", "continuum"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    R = scenario.level(spec)[1]
    assert R == flat_systole(Lattice(0.0, ky * b / (kx * a), kx * a))


def test_level_refuses_a_sheared_cover():
    with pytest.raises(DomainError):
        LensScenario().level(CoverSpec(((1, 1), (0, 2))))


def test_level_and_cover_form_refuse_a_negative_diagonal():
    # a degree-1 spec whose periods would be negative: refused as a cover,
    # not built into a form or failed deep inside the lattice
    spec = CoverSpec(((-1, 0), (0, -1)))
    for call in (LensScenario(n=16).level, LensScenario(n=16).cover_form):
        with pytest.raises(DomainError, match=">= 1"):
            call(spec)


def test_direct_lens_scenario_rejects_non_coprime_lens():
    # the CLI refuses (4, 2) as a config error; built directly, the torus
    # refuses it instead of sweeping a twist of pi
    with pytest.raises(DomainError):
        LensScenario(p=4, q=2)


def test_second_variation_form_rejects_curved_base():
    imm = EllipticScenario(n=32).immersion()
    with pytest.raises(WrongFormError):
        second_variation_form(imm)


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
    want = min(_form_q_value(form, v) / _form_m_value(form, v)
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
        want = min(_form_q_value(form, v) / _form_m_value(form, v)
                   for v in sc.random_normal_sections(13, extent, seed))
        worst, stable = sc.stability_audit(count=13, extent=extent, seed=seed)
        assert worst == pytest.approx(want, rel=1e-12)
        assert stable == (want >= -1e-6)


@pytest.mark.parametrize("extent, twist", [(1, (0.4, -1.1)), (2, (0.0, 0.0)),
                                           (2, (0.6, 0.4))])
def test_audit_densities_match_two_wirtinger_diffs(extent, twist):
    # the array stencil (conftest's index_densities, np.roll differences in
    # the node frames) against wirtinger_diff run once with the chart factors
    # and once with their conjugates, projected node by node.  The stencil
    # takes the cover's immersion and the twist per unit period of its
    # chart; wirtinger_diff works on the base chart, where the cover is
    # [0, extent)^2 at step 1/n and the same connection is twist / extent
    # per unit period
    sc = EllipticScenario(n=24)
    imm = sc.immersion()
    cover = imm.cover(CoverSpec.scaling(extent))
    v = np.stack(list(sc.random_normal_sections(7, extent, 5)), -1)
    fac = wirtinger_factors(imm.lattice)
    steps = (1.0 / imm.n,) * 2
    base_twist = tuple(t / extent for t in twist)

    def norm2(w, P):
        P = np.tile(P, (extent, extent, 1, 1))
        return np.sum(np.abs(np.einsum("xyij,xyjs->xyis", P, w)) ** 2, axis=2)

    PT, PN = surface_projectors(imm.Fz)
    want = (norm2(wirtinger_diff(v, fac, steps, base_twist), PN),
            norm2(wirtinger_diff(v, np.conj(fac), steps, base_twist), PT))
    got = index_densities(cover, surface_quantities(cover), twist)(v)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (24 * extent, 24 * extent, 7)
        np.testing.assert_allclose(g, w, rtol=1e-13,
                                   atol=1e-13 * np.abs(w).max())


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("extent", [1, 2])
def test_random_normal_sections_match_plane_waves(seed, extent):
    # the separable draw against one full-grid plane wave per mode, from
    # the same default_rng(seed) draws
    sc = EllipticScenario(n=16)
    imm = sc.immersion()
    got = np.array(list(sc.random_normal_sections(13, extent, seed)))
    want = plane_wave_sections(surface_projectors(imm.Fz)[1],
                               imm.lattice.tau, sc.puncture, 13, extent, seed)
    assert got.shape == want.shape == (13, 16 * extent, 16 * extent, 4)
    np.testing.assert_allclose(got, want, rtol=1e-14,
                               atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("extent", [1, 2])
def test_node_frames_are_orthonormal_and_span_the_projectors(n, extent):
    # the closed-form frames against the projectors of F_x and F_y, on a
    # square and a sheared lattice, on the cover's immersion as the audit
    # takes them
    eye = np.eye(2)
    for tau in (1j, 0.3 + 1.1j):
        imm = elliptic_curve_immersion(Lattice(tau.real, tau.imag), 0.1, n)
        imm = imm.cover(CoverSpec.scaling(extent))
        quants = surface_quantities(imm)
        for F, P in zip((quants.tangent_frame, quants.normal_frame),
                        surface_projectors(imm.Fz)):
            assert F.shape == (n * extent, n * extent, 2, 4)
            np.testing.assert_allclose(
                F @ np.swapaxes(F, -1, -2),
                np.broadcast_to(eye, F.shape[:2] + (2, 2)), rtol=0, atol=1e-14)
            np.testing.assert_allclose(np.swapaxes(F, -1, -2) @ F, P,
                                       rtol=0, atol=1e-14)


def test_surface_quantities_refuse_a_branch_point():
    # a zero F_z node has no tangent plane; a frame there would be NaN
    imm = EllipticScenario(n=16).immersion()
    imm.Fz[3, 5] = 0.0
    with pytest.raises(DomainError, match="at 1 nodes"):
        surface_quantities(imm)


def test_surface_quantities_refuse_a_non_holomorphic_curve():
    # the closed-form frames hold for F_z = (u, -i u, v, -i v) only
    imm = EllipticScenario(n=16).immersion()
    imm.Fz[3, 5, 1] *= 1 + 1e-9
    with pytest.raises(WrongFormError, match="not a holomorphic curve"):
        surface_quantities(imm)


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
    import stabletori.scenarios as scenarios
    sc = EllipticScenario(n=16)
    for kwargs in ({"count": 0}, {"count": -1}, {"extent": 0}):
        with pytest.raises(ConfigError):
            sc.stability_audit(**kwargs)

    # the draws with zero amplitudes; a valid puncture cannot empty the bump
    draws = scenarios._audit_draws

    def massless(count, seed):
        return np.zeros_like(draws(count, seed))

    monkeypatch.setattr(scenarios, "_audit_draws", massless)
    with pytest.raises(DomainError, match="mass"):
        sc.stability_audit(count=3)


@pytest.mark.parametrize("extent", [1, 2])
def test_elliptic_audit_lies_above_its_pencil_bottom(extent):
    # every sampled quotient is a Rayleigh quotient of the audit's pencil,
    # so it lies above the pencil's bottom, which scipy computes on the
    # whole sampled subspace of 49 modes x 4 amplitudes
    from stabletori.scenarios import AUDIT_BAND
    sc = EllipticScenario(n=64)
    imm = sc.immersion().cover(CoverSpec.scaling(extent))
    Kq, Km = stability._wave_pencil(imm, sc._bump(imm), AUDIT_BAND)
    assert Kq.shape == Km.shape == (196, 196)
    for K in (Kq, Km):
        np.testing.assert_allclose(K, K.conj().T, rtol=0,
                                   atol=1e-13 * np.abs(K).max())
    lam, vec = scipy.linalg.eigh(Kq, Km)
    v = vec[:, 0]
    norm_q = np.linalg.norm(Kq, 2)
    res = np.linalg.norm(Kq @ v - lam[0] * (Km @ v)) / (norm_q
                                                        * np.linalg.norm(v))
    assert res <= 1e-12
    # rounding slack of a quotient a^H Kq a / a^H Km a in double precision:
    # 196 eps ||Kq||_2 ||Km^-1||_2
    slack = 196 * np.finfo(float).eps * norm_q / np.linalg.eigvalsh(Km)[0]
    worst, stable = sc.stability_audit(count=100, extent=extent, seed=extent)
    assert worst >= lam[0] - slack
    # criterion 6's bound holds on the whole sampled subspace, not only on
    # the 100 draws
    assert stable and lam[0] >= -1e-6


@pytest.mark.parametrize("extent", [1, 2])
def test_wave_pencil_is_the_sparse_form_on_its_basis(extent):
    # every entry of the pencil against the sparse form, on the 196 grid
    # sections bump Fn^T Fn e_k e_c of its basis, built one full-grid plane
    # wave at a time: Kq = S^H Q S and Km = S^H M S
    from stabletori.scenarios import AUDIT_BAND
    sc = EllipticScenario(n=16)
    imm = sc.immersion().cover(CoverSpec.scaling(extent))
    form = stability.euclidean_index_form(imm)
    PN = surface_projectors(imm.Fz)[1] * sc._bump(imm)[..., None, None]
    N = imm.n
    I, J = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    k = range(-AUDIT_BAND, AUDIT_BAND + 1)
    S = np.stack([form.pack(PN[..., :, c] * np.exp(
        2j * np.pi * ((kx * I + ky * J) % N) / N)[..., None])
        for kx in k for ky in k for c in range(4)], 1)
    Kq, Km = stability._wave_pencil(imm, sc._bump(imm), AUDIT_BAND)
    for K, A in ((Kq, form.Q), (Km, form.M)):
        want = S.conj().T @ (A @ S)
        np.testing.assert_allclose(K, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())


def test_elliptic_audit_count_extends_its_stream(monkeypatch):
    # count=400 reads count=100's draws first, so its worst is no larger;
    # at extent 2 (N = 128) it builds no section grid
    sc = EllipticScenario(n=64)
    worst100, _ = sc.stability_audit(count=100, extent=2, seed=3)

    def no_grid(*args, **kwargs):
        raise AssertionError("the audit built a section grid")

    monkeypatch.setattr(EllipticScenario, "random_normal_sections", no_grid)
    worst400, stable = sc.stability_audit(count=400, extent=2, seed=3)
    assert worst400 <= worst100
    assert stable


def test_euclidean_index_form_mass_is_the_area_density():
    # M is the masked induced area of each cell, dim times on its diagonal
    imm = EllipticScenario(n=16).immersion()
    form = stability.euclidean_index_form(imm)
    da = np.repeat(imm.da_field().reshape(-1), imm.dim)[form.meta["active"]]
    assert np.array_equal(form.M.toarray(), np.diag(da))


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


# ---------------------------------------------------------------------------
# log cutoff


def test_log_cutoff_energy_matches_analytic_value():
    n = 512
    imm = flat_chart_immersion(1.0, 1.0, n)
    ix, iy, window, energy = log_cutoff(0.1, (0.5 + 0.5 / n, 0.5 + 0.5 / n),
                                        imm.lattice, n)
    exact = 2 * np.pi / abs(np.log(0.1))
    assert energy == pytest.approx(exact, rel=0.03)
    phi = cutoff_phi(n, ix, iy, window)
    assert phi.min() == 0.0 and phi.max() == 1.0


def test_log_cutoff_resolution_guards():
    imm = flat_chart_immersion(1.0, 1.0, 64)
    with pytest.raises(ResolutionError):
        # annulus unresolved
        log_cutoff(0.05, (0.5, 0.5), imm.lattice, 64)
    imm2 = flat_chart_immersion(1.0, 1.0, 256)
    with pytest.raises(ResolutionError):
        # inner radius unresolved
        log_cutoff(0.05, (0.5, 0.5), imm2.lattice, 256)
    with pytest.raises(DomainError):
        log_cutoff(1.5, (0.5, 0.5), imm.lattice, 64)


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
    *window, energy = log_cutoff(epsilon, center,
                                 Lattice(tau.real, tau.imag, scale), n)
    want_phi, want_energy = _full_grid_log_cutoff(epsilon, center, tau, n,
                                                  scale)
    assert np.array_equal(cutoff_phi(n, *window), want_phi)
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


def test_log_cutoff_allocates_its_window_not_the_grid():
    # the 211 x 211 window's arrays peak near 2.5 MB; one n x n float array
    # is 8.4 MB, so building the full phi would fail the bound
    n = 1024
    tracemalloc.start()
    try:
        log_cutoff(0.1, (0.5 + 0.5 / n, 0.5 + 0.5 / n), Lattice(0.0, 1.0), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _form_q_value(form, vals):
    """Q(s) of an assembled `DiscreteForm` on a grid field s."""
    v = form.pack(vals)
    return float(np.real(np.vdot(v, form.Q @ v)))


def _form_m_value(form, vals):
    """M(s) of an assembled `DiscreteForm` on a grid field s."""
    v = form.pack(vals)
    return float(np.real(np.vdot(v, form.M @ v)))


def _array_q_value(imm, vals, twist=(0.0, 0.0)):
    """Q(s) from the array stencil: the densities against the cell measure."""
    perp, top = index_densities(imm, surface_quantities(imm),
                                twist)(vals[..., None])
    w = np.where(imm.mask, imm.dxdy_weight(), 0.0)
    return float(np.sum(w * (perp - top)[..., 0]))


def test_index_form_matrix_matches_the_array_stencil():
    # Q(s) = int |(d_zbar s)^perp|^2 - |(d_z s)^top|^2, once from the sparse
    # matrix and once from the array stencil of conftest's index_densities
    sc = EllipticScenario(n=48)
    form = sc.form()
    imm = form.meta["immersion"]
    for seed in range(3):
        vals = next(sc.random_normal_sections(1, seed=seed))
        assert not np.any(vals[~imm.mask])    # packing drops nothing
        assert _form_q_value(form, vals) == pytest.approx(
            _array_q_value(imm, vals), rel=1e-12)
    # on a twisted cover, with the array form given the form's cover and
    # twist
    sc = EllipticScenario(n=16)
    imm = sc.immersion().cover(CoverSpec.scaling(2))
    twist = (0.7, -1.3)
    form = stability.euclidean_index_form(imm, twist=twist)
    vals = next(sc.random_normal_sections(1, extent=2, seed=5))
    assert _form_q_value(form, vals) == pytest.approx(
        _array_q_value(imm, vals, twist), rel=1e-12)


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
