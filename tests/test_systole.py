"""Systoles, trial sections, and the bound verdict."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from stabletori.bundles import LineHolonomy
from stabletori.errors import DomainError, ResolutionError, WrongFormError
from stabletori.geometry import product_geodesic_torus
from stabletori.lattice import CoverSpec, Lattice, wirtinger_factors
from stabletori.scenarios import (EllipticScenario, FlatTorusScenario,
                                  LensScenario, flat_chart_immersion)
from stabletori.systole import (EIGHT_NEIGHBOR_ANISOTROPY,
                                EXCEPTIONAL_CONSTANT, GENERAL_CONSTANT,
                                axis_truncated_distances, exceptional_cutoffs,
                                induced_systole, phase_trial_section,
                                rayleigh_bound_check, systole_bound_verdict)
from stabletori.sections import SectionGrid

from conftest import chart_norm2, dbar_energy_chart


def test_induced_systole_flat_values():
    assert induced_systole(flat_chart_immersion(1.0, 1.0, 32),
                           window=1, stride=8) == pytest.approx(1.0, rel=1e-9)
    # short direction wins on the rectangle
    assert induced_systole(flat_chart_immersion(1.5, 1.0, 32),
                           window=1, stride=8) == pytest.approx(1.0, rel=1e-9)


def test_induced_systole_lens_torus():
    imm = LensScenario(n=64).torus
    R = induced_systole(imm, window=1, stride=16)
    assert R == pytest.approx(2 * np.pi / 3, rel=1e-6)


@pytest.mark.parametrize("scenario, k, chart", [
    (LensScenario(n=8), 1, None),
    (LensScenario(n=8), 2, None),
    (LensScenario(n=8), 3, None),
    (FlatTorusScenario(n=8), 2, (2.0, 2.0)),
    (FlatTorusScenario(a_len=1.5, b_len=0.7, n=8), 1, (1.5, 0.7)),
])
def test_exact_level_systole_within_dijkstra_bracket(scenario, k, chart):
    # the exact lattice systole of a level against the graph distance on the
    # same flat chart, which overestimates by at most the 8-neighbor margin;
    # 1e-12 covers the rounding of the graph's summed edge lengths
    _, R, _, _ = scenario.level(CoverSpec.scaling(k))
    if chart is None:
        a, b = scenario.torus.periods
        imm = flat_chart_immersion(k * a, k * b, 64)
    else:
        imm = flat_chart_immersion(*chart, 32)
    R_graph = induced_systole(imm, window=1, stride=imm.n // 4)
    assert (R_graph / (1 + EIGHT_NEIGHBOR_ANISOTROPY) <= R
            <= R_graph * (1 + 1e-12))


# ---------------------------------------------------------------------------
# truncated distances and trial sections


def test_axis_truncated_distances_shape_and_lipschitz():
    imm = LensScenario(n=64).torus
    R = 2 * np.pi / 3
    td = axis_truncated_distances(imm, R)
    a_len, b_len = imm.periods
    for delta, period in ((td.delta_xi, a_len), (td.delta_eta, b_len)):
        assert delta[0] == 0.0
        assert delta[-1] == pytest.approx(R, abs=1e-12)
        inc = np.diff(delta)
        assert np.all(inc >= -1e-12)
        # 1-Lipschitz against arclength along the axis
        assert np.all(inc <= period / 64 + 1e-12)
        assert np.all(delta <= R + 1e-12)


def test_axis_truncated_distances_rejects_oversized_radius():
    imm = flat_chart_immersion(1.0, 1.0, 32)
    with pytest.raises(DomainError):
        axis_truncated_distances(imm, 10.0)
    with pytest.raises(DomainError):
        axis_truncated_distances(imm, -1.0)


def test_axis_truncated_distances_need_a_flat_chart():
    imm = EllipticScenario(n=16).immersion()
    with pytest.raises(WrongFormError):
        axis_truncated_distances(imm, 1.0)


def test_phase_trial_section_is_periodic_and_unimodular():
    n = 64
    imm = LensScenario(n=n).torus
    R = 2 * np.pi / 3
    td = axis_truncated_distances(imm, R)
    s = phase_trial_section(imm.normal_lines[0][0], td, imm.lattice)
    assert s.seam_residual <= 1e-9
    c = s.grid()
    assert c.values.shape == (n, n, 1)
    assert np.allclose(np.abs(c.values), 1.0, atol=1e-12)
    assert s.grad_bound == pytest.approx(2 * np.pi / (np.sqrt(3) * R))


def test_rayleigh_chain_on_lens_trial_section():
    n = 96
    imm = LensScenario(n=n).torus
    R = 2 * np.pi / 3
    td = axis_truncated_distances(imm, R)
    s = phase_trial_section(imm.normal_lines[0][0], td, imm.lattice)
    rep = rayleigh_bound_check(s, kappa=0.5)
    # kappa Mass <= Energy <= (2 pi / sqrt3 R)^2 Mass, up to discretization
    assert rep.rhs <= rep.energy_bound * (1 + 1e-6)
    assert rep.rhs == pytest.approx(rep.lhs, rel=5e-3)


def test_rayleigh_chain_holds_reports_each_inequality():
    n = 96
    imm = LensScenario(n=n).torus
    R = 2 * np.pi / 3
    td = axis_truncated_distances(imm, R)
    s = phase_trial_section(imm.normal_lines[0][0], td, imm.lattice)
    # at kappa = 1/2 the discrete energy sits 1.6e-4 below kappa * Mass
    rep = rayleigh_bound_check(s, kappa=0.5)
    assert rep.lhs > rep.rhs and not rep.chain_holds
    assert rayleigh_bound_check(s, kappa=0.49).chain_holds
    # the upper inequality (2 pi / sqrt3 R)^2 Mass fails once R is read 4x
    s = dataclasses.replace(s, R=4 * R)
    assert not rayleigh_bound_check(s, kappa=0.49).chain_holds


def test_grad_bound_needs_a_systole():
    # a line section carries no R, so it has no trial-section bound
    from stabletori.bundles import line_section
    s = line_section(LineHolonomy(np.pi, np.pi), 2, Lattice(0.0, 1.0), 8)
    assert s.R is None
    with pytest.raises(DomainError, match="systole R"):
        s.grad_bound


def test_rayleigh_check_requires_systole_tag():
    imm = LensScenario(n=32).torus
    td = axis_truncated_distances(imm, 2.0943951023931953)
    s = phase_trial_section(imm.normal_lines[0][0], td, imm.lattice)
    # a trial section always carries its systole, and only a positive one
    for R in (0.0, -1.0, np.nan):
        with pytest.raises(DomainError):
            dataclasses.replace(s, R=R)


def _grid_rayleigh(s, kappa):
    """kappa Mass and the dbar energy of a trial section by the n x n
    formula: `chart_norm2` and `dbar_energy_chart` on its grid."""
    c = s.grid()
    return kappa * chart_norm2(c, c.values), 2.0 * dbar_energy_chart(c)


def _rayleigh_sections(lens, n):
    """The lens trial section, a section with both phases twisted, and
    random factors over a sheared lattice, where the cross term of
    |dbar c|^2 does not vanish, on a lens torus of randomized periods."""
    rng = np.random.default_rng([n, *lens])
    L, rho = 2.0 * (1 + rng.uniform(-0.02, 0.02)), 1 + rng.uniform(-0.02, 0.02)
    imm = product_geodesic_torus(L, rho, 3, lens, n)
    R = min(imm.periods)
    td = axis_truncated_distances(imm, R)
    lens_section = phase_trial_section(imm.normal_lines[0][0], td, imm.lattice)
    twisted = phase_trial_section(LineHolonomy(0.7, -1.3), td, imm.lattice)
    sheared = dataclasses.replace(
        twisted, lattice=Lattice(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5),
                                 imm.lattice.scale),
        f=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        g=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        phi=rng.uniform(-np.pi, np.pi), theta=rng.uniform(-np.pi, np.pi))
    return lens_section, twisted, sheared


LENSES = [(1, 0), (2, 1), (3, 1), (5, 2), (7, 3)]


@pytest.mark.parametrize("n", [2, 3, 32, 96, 250])
@pytest.mark.parametrize("lens", LENSES)
def test_separable_rayleigh_matches_the_grid_sums(lens, n):
    # the O(n) sums of the factors against the n x n formula
    for s in _rayleigh_sections(lens, n):
        rep = rayleigh_bound_check(s, kappa=0.5)
        lhs, energy = _grid_rayleigh(s, 0.5)
        assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=0)
        assert rep.rhs == pytest.approx(energy, rel=1e-12, abs=0)
        assert rep.energy_bound == pytest.approx(
            (s.grad_bound ** 2 / 0.5) * lhs, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [3, 96])
@pytest.mark.parametrize("lens", LENSES)
def test_section_measures_follow_the_lattice_scale(lens, n):
    # a section measures itself on its own lattice: rescaling the lattice
    # by t multiplies the mass by t^2 and leaves the dbar energy, a
    # conformally invariant Dirichlet energy, unchanged
    for s in _rayleigh_sections(lens, n):
        lat = s.lattice
        for t in (0.37, 5.0):
            r = dataclasses.replace(
                s, lattice=Lattice(lat.tau1, lat.tau2, t * lat.scale))
            assert r.mass() == pytest.approx(t ** 2 * s.mass(), rel=1e-12,
                                             abs=0)
            assert r.dbar_energy() == pytest.approx(s.dbar_energy(),
                                                    rel=1e-12, abs=0)


def test_lens_trial_pipeline_at_grid_2000_allocates_no_grid():
    # construction, systole, trial section and Rayleigh check: one n x n
    # complex array would be 64 MB
    n = 2000
    tracemalloc.start()
    try:
        sc = LensScenario(n=n)
        _, R, _, _ = sc.level(CoverSpec.scaling(1))
        td = axis_truncated_distances(sc.torus, R)
        s = phase_trial_section(sc.torus.normal_lines[0][0], td,
                                sc.torus.lattice)
        rayleigh_bound_check(s, kappa=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_graph_systole_needs_a_flat_torus():
    with pytest.raises(WrongFormError):
        induced_systole(EllipticScenario(n=16).immersion(), window=1)


# ---------------------------------------------------------------------------
# exceptional construction


def test_exceptional_cutoffs_regions_and_bounds():
    # vertical double cover of a unit square torus: the deck translate has
    # length 1, comfortably above R, so supports stay injective
    n = 96
    rep = exceptional_cutoffs(flat_chart_immersion(1.0, 1.0, n), 0.6)
    U0, U1 = rep.U_masks
    V0, V1 = rep.V_masks
    # the four regions tile the double cover without overlap
    assert not np.any(U0 & U1)
    assert not np.any(V0 & V1)
    total = U0.astype(int) + U1.astype(int) + V0.astype(int) + V1.astype(int)
    assert np.all(total == 1)
    # cutoffs are honest partitions of unity values
    assert rep.phi_I.min() >= 0.0 and rep.phi_I.max() <= 1.0
    assert rep.phi_V.min() >= 0.0 and rep.phi_V.max() <= 1.0
    # measured gradients respect the Lipschitz bounds of the construction
    assert rep.max_grad_I <= rep.grad_bound_I
    assert rep.max_grad_V <= rep.grad_bound_V
    assert rep.injectivity_violations == 0
    assert rep.selected in (0, 1)
    assert rep.case in ("I", "V")
    assert min(rep.energies_I) >= 0.0 and min(rep.energies_J) >= 0.0
    # the localized Rayleigh quotient sits below the chain constant
    assert rep.chain_bound == pytest.approx((EXCEPTIONAL_CONSTANT / 0.6) ** 2)
    assert rep.rayleigh <= rep.chain_bound
    assert np.allclose(np.abs(rep.s1.grid().values), 1.0, atol=1e-12)


def _grid_exceptional(imm, R, n):
    """The scalars of `exceptional_cutoffs` from n x 2n meshgrids: masks,
    cutoffs and the section on every node, gradients by periodic central
    differences of the whole grid, the energy by `dbar_energy_chart`."""
    a_len, b_len = imm.periods
    ny = 2 * n
    X, E = np.meshgrid(np.arange(n) / n, np.arange(ny) / ny, indexing="ij")
    y = b_len * E
    d0, d1 = np.minimum(y, b_len - y), np.abs(y - b_len / 2)
    U = [d0 <= R / 3, d1 <= R / 3]
    out = (d0 > R / 3) & (d1 > R / 3)
    V = [out & (y < b_len / 2), out & (y >= b_len / 2)]
    c = np.exp(1j * (np.pi * X - np.minimum(R, a_len * X) * np.pi / R))
    cell = a_len * b_len / (n * ny)
    I = [float(np.sum(np.abs(c[m]) ** 2) * cell) for m in U]
    J = [float(np.sum(np.abs(c[m]) ** 2) * cell) for m in V]
    fxi, feta = wirtinger_factors(imm.lattice)

    def max_grad(phi):
        dx = (np.roll(phi, -1, 0) - np.roll(phi, 1, 0)) * n / 2
        dy = (np.roll(phi, -1, 1) - np.roll(phi, 1, 1)) * ny / 2
        return float(np.abs(fxi * dx + feta * dy).max())

    ramp = [np.clip(3 - 6 * dd / R, 0, 1) for dd in (d0, d1)]
    phi_V = np.clip(np.minimum(d0, d1) * 3 / R, 0, 1)
    sel = int(np.argmax(I))
    supp = ramp[sel] > 1e-12
    loc = SectionGrid(imm.lattice, ramp[sel] * c, np.pi, np.pi)
    ray = 2 * dbar_energy_chart(loc) / I[sel]
    viol = int(np.count_nonzero(supp & np.roll(supp, n, axis=1)))
    return I, J, max_grad(ramp[1]), max_grad(phi_V), ray, viol


@pytest.mark.parametrize("periods, R, n", [((1.0, 2.0), 0.6, 96),
                                           ((1.0, 1.0), 0.6, 64),
                                           ((1.3, 2.0), 0.45, 128),
                                           ((0.8, 2.5), 0.7, 100)])
def test_exceptional_cutoffs_match_the_grid_oracle(periods, R, n):
    # `periods` are the double cover's: the construction takes its base
    a_len, b_len = periods
    rep = exceptional_cutoffs(flat_chart_immersion(a_len, b_len / 2, n), R)
    I, J, grad_I, grad_V, ray, viol = _grid_exceptional(
        flat_chart_immersion(*periods, n), R, n)
    np.testing.assert_allclose(rep.energies_I, I, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rep.energies_J, J, rtol=1e-12, atol=0)
    for got, want in ((rep.max_grad_I, grad_I), (rep.max_grad_V, grad_V),
                      (rep.rayleigh, ray)):
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert rep.injectivity_violations == viol


def test_exceptional_cutoffs_at_grid_1000_allocate_no_grid():
    # one n x 2n complex array would be 32 MB
    n = 1000
    imm = flat_chart_immersion(1.0, 1.0, n)
    tracemalloc.start()
    try:
        exceptional_cutoffs(imm, 0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_exceptional_cutoffs_resolution_guard():
    imm = flat_chart_immersion(1.0, 1.0, 16)
    with pytest.raises(ResolutionError):
        exceptional_cutoffs(imm, 0.6)


def test_exceptional_cutoffs_flags_short_deck_translate():
    # R above the deck translate length: the sampled support meets its own
    # vertical translate and the report says so
    n = 64
    imm = flat_chart_immersion(1.0, 0.5, n)
    rep = exceptional_cutoffs(imm, 0.6)
    assert rep.injectivity_violations > 0


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_on_lens_numbers():
    R = 2 * np.pi / 3
    rep = systole_bound_verdict(-4.0e-5, R, 0.5)
    assert rep.applicable is False or rep.passed   # tiny negative lambda
    rep2 = systole_bound_verdict(0.0, R, 0.5)
    assert rep2.applicable and rep2.passed
    assert rep2.bound == pytest.approx(GENERAL_CONSTANT / np.sqrt(0.5))
    assert rep2.margin > 0


def test_verdict_flip_is_detectable():
    bound = GENERAL_CONSTANT  # kappa = 1
    good = systole_bound_verdict(0.0, 0.6 * bound, 1.0)
    assert good.passed
    bad = systole_bound_verdict(0.0, 1.2 * bound, 1.0)
    assert not bad.passed


def test_verdict_edge_cases():
    # not applicable when unstable: no claim is made
    rep = systole_bound_verdict(-0.75, 100.0, 0.5)
    assert not rep.applicable and rep.passed
    # flat ambient: bound degenerates to infinity
    rep0 = systole_bound_verdict(0.0, 100.0, 0.0)
    assert rep0.passed and not np.isfinite(rep0.bound)
    with pytest.raises(DomainError):
        systole_bound_verdict(0.0, 1.0, 1.0, case="bogus")
