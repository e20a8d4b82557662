"""End-to-end acceptance checks.

Each test prints one visible pass/fail line through the terminal-summary
hook in conftest.py, with the measured numbers and runtime attached.
"""

import time

import numpy as np

from stabletori.bundles import (AtiyahData, FlatBundle, LineHolonomy,
                                TWO_TORSION_LABELS, atiyah_sections,
                                decompose_commuting_pair, line_section,
                                principal_angle, pullback_bundle,
                                two_torsion_classify)
from stabletori.geometry import AmbientSpace, pic_kappa
from stabletori.lattice import (CoverSpec, Lattice, cover_lattice,
                                flat_systole, normalize_lattice)
from stabletori.scenarios import (EllipticScenario, FlatTorusScenario,
                                  LensScenario, flat_chart_immersion)
from stabletori.sections import dbar, gram_matrix
from stabletori.stability import (covering_sweep, flat_twisted_form,
                                  log_cutoff, min_eigenvalue)
from stabletori.systole import (EXCEPTIONAL_CONSTANT, GENERAL_CONSTANT,
                                axis_truncated_distances, exceptional_cutoffs,
                                induced_systole, phase_trial_section)
from stabletori.weierstrass import eisenstein_invariants, wp

from conftest import fourier_lambda_min, record_acceptance


LAT = Lattice(0.0, 1.0)


def test_criterion_1_line_section_decay():
    t0 = time.perf_counter()
    L = LineHolonomy(np.pi, np.pi)
    n = 256
    worst_rel = 0.0
    ks, sups = [], []
    ok = True
    for k in range(1, 17):
        sec = line_section(L, k, LAT, n)
        sup = float(np.max(np.abs(dbar(sec.grid()).values)))
        exact = sec.sup_dbar_exact
        if exact > 0:
            worst_rel = max(worst_rel, abs(sup / exact - 1))
            ks.append(k)
            sups.append(sup)
        else:
            # even k lifts (pi, pi) to the trivial class: sup is exactly zero
            ok = ok and sup < 1e-10
    ok = ok and worst_rel <= 0.01
    slope = np.polyfit(np.log(ks), np.log(sups), 1)[0]
    ok = ok and abs(slope + 1.0) <= 0.1
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    record_acceptance(1, "line-section decay, sup dbar vs closed form", ok,
                      f"max rel err {worst_rel:.2e}, slope {slope:.3f}, {dt:.1f}s")
    assert ok


def test_criterion_2_atiyah_sections():
    t0 = time.perf_counter()
    data = AtiyahData(r=3, delta=0.01)
    n = 128
    secs = atiyah_sections(data, LAT, n)
    seam = max(w.seam_residual for w in secs)
    point = 0.0
    for w in secs:
        target = -(1j / (2 * LAT.tau2)) * np.einsum("ab,xyb->xya",
                                                    data.B, w.values)
        point = max(point, float(np.max(np.abs(dbar(w).values - target))))
    ranges = []
    for k in (1, 2, 4, 8):
        lat_k = cover_lattice(LAT, CoverSpec.scaling(k))
        _, rng_ = gram_matrix(atiyah_sections(data, lat_k, n))
        ranges.append(rng_)
    drift = max(max(abs(r[0] - ranges[0][0]), abs(r[1] - ranges[0][1]))
                for r in ranges[1:])
    dt = time.perf_counter() - t0
    ok = seam <= 1e-10 and point <= 1.0 / n ** 2 and drift <= 1e-10 and dt < 10.0
    record_acceptance(2, "Atiyah frame identities and cover-stable Gram", ok,
                      f"seam {seam:.1e}, identity {point:.1e}, "
                      f"gram drift {drift:.1e}, {dt:.1f}s")
    assert ok


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


def test_criterion_3_decomposition_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True
    worst_res = 0.0
    for _ in range(100):
        r = int(rng.integers(1, 7))
        blocks = []
        left = r
        while left:
            b = int(rng.integers(1, left + 1))
            blocks.append(b)
            left -= b
        r1, r2, lines = _random_block_pair(rng, blocks)
        rep, _, _ = decompose_commuting_pair(FlatBundle(r1, r2, LAT))
        ok = ok and rep.rank_multiset() == tuple(sorted(blocks))
        worst_res = max(worst_res, rep.residual)
        got = sorted((round(s.line_class.phi, 6), round(s.line_class.theta, 6))
                     for s in rep.summands)
        want = sorted((round(principal_angle(p), 6),
                       round(principal_angle(t), 6)) for p, t in lines)
        ok = ok and got == want
    ok = ok and worst_res <= 1e-8
    labels = set()
    for phi, theta in ((0.0, 0.0), (np.pi, 0.0), (0.0, np.pi), (np.pi, np.pi)):
        labels.add(two_torsion_classify(LineHolonomy(phi, theta)))
        b = FlatBundle(np.array([[np.exp(1j * phi)]]),
                       np.array([[np.exp(1j * theta)]]), LAT)
        pb = pullback_bundle(b, CoverSpec.scaling(2))
        ok = ok and np.allclose(pb.rho1, 1.0, atol=1e-12)
        ok = ok and np.allclose(pb.rhotau, 1.0, atol=1e-12)
    ok = ok and labels == set(TWO_TORSION_LABELS)
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    record_acceptance(3, "decomposition round trip and two-torsion classes",
                      ok, f"worst residual {worst_res:.1e}, {dt:.1f}s")
    assert ok


def test_criterion_4_log_cutoff_energy():
    t0 = time.perf_counter()
    n = 1024
    imm = flat_chart_immersion(1.0, 1.0, n)
    center = (0.5 + 0.5 / n, 0.5 + 0.5 / n)
    *_, e05 = log_cutoff(0.05, center, imm.lattice, n)
    exact05 = 2 * np.pi / abs(np.log(0.05))
    rel05 = abs(e05 / exact05 - 1)
    worst_prod = 0.0
    for eps in (0.05, 0.06, 0.07, 0.085, 0.1):
        *_, e = log_cutoff(eps, center, imm.lattice, n)
        worst_prod = max(worst_prod, abs(e * abs(np.log(eps)) / (2 * np.pi) - 1))
    dt = time.perf_counter() - t0
    ok = rel05 <= 0.02 and worst_prod <= 0.03 and dt < 30.0
    record_acceptance(4, "log-cutoff energy vs 2 pi / |log eps|", ok,
                      f"rel err {rel05:.2%}, sweep err {worst_prod:.2%}, {dt:.1f}s")
    assert ok


def test_criterion_5_twisted_spectrum_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        phi, theta = rng.uniform(0.5, np.pi - 0.5, 2) * rng.choice([-1, 1], 2)
        got = min_eigenvalue(flat_twisted_form((1.0, 1.0), (phi, theta),
                                               128)).lambda_min
        want = fourier_lambda_min((1.0, 1.0), (phi, theta))
        worst = max(worst, abs(got / want - 1))
    twist = (2.0, 1.2)
    want = fourier_lambda_min((1.0, 1.0), twist)
    errs = [abs(min_eigenvalue(flat_twisted_form((1.0, 1.0), twist,
                                                 n)).lambda_min - want)
            for n in (32, 64, 128)]
    rate = min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2]))
    dt = time.perf_counter() - t0
    ok = worst <= 0.01 and rate >= 1.8 and dt < 60.0
    record_acceptance(5, "twisted bottom eigenvalue vs Fourier oracle", ok,
                      f"max rel err {worst:.2e}, rate {rate:.2f}, {dt:.1f}s")
    assert ok


def test_criterion_6_holomorphic_curve_stability():
    t0 = time.perf_counter()
    sc = EllipticScenario(n=64)
    worst = np.inf
    stable = True
    for k in (1, 2):
        w, s = sc.stability_audit(count=100, extent=k, seed=k)
        worst = min(worst, w)
        stable = stable and s
    lat = sc.lat
    zs = np.array([0.31 + 0.12j, 0.05 + 0.41j, 0.27 + 0.33j])
    p, pp = wp(zs, lat)
    g2, g3 = eisenstein_invariants(lat)
    res = np.max(np.abs(pp ** 2 - (4 * p ** 3 - g2 * p - g3)))
    scale = np.max(np.abs(pp ** 2)) + np.max(np.abs(4 * p ** 3))
    rel = res / scale
    dt = time.perf_counter() - t0
    ok = stable and worst >= -1e-6 and rel <= 1e-8 and dt < 60.0
    record_acceptance(6, "elliptic curve index form is nonnegative", ok,
                      f"worst Q/M {worst:.2e}, de residual {rel:.1e}, {dt:.1f}s")
    assert ok


def test_criterion_7_lens_scenario_end_to_end():
    t0 = time.perf_counter()
    sc = LensScenario(n=96)
    a, b = sc.torus.periods
    oracle = fourier_lambda_min((a, b), (0.0, 2 * np.pi / 3), potential=-1.0)
    lam1 = min_eigenvalue(sc.cover_form(CoverSpec.scaling(1))).lambda_min
    # the oracle value is exactly zero; 2% is read against the potential
    # scale 1 / rho^2 = 1
    lam_ok = abs(lam1 - oracle) <= 0.02
    rows = covering_sweep(sc, [CoverSpec.scaling(k) for k in (1, 2, 3)])
    onset = next((i + 1 for i, r in enumerate(rows) if not r.stable), None)
    oracle_onset = None
    for k in (1, 2, 3):
        twist = (0.0, principal_angle(k * 2 * np.pi / 3))
        if fourier_lambda_min((k * a, k * b), twist, potential=-1.0) < -1e-9:
            oracle_onset = k
            break
    onset_ok = onset is not None and abs(onset - oracle_onset) <= 1
    amb = AmbientSpace(kind="product_circle_sphere", circle_radius=2.0,
                       sphere_radius=1.0, n_sphere=3, lens=(3, 1))
    kap = pic_kappa(amb.curvature_operator())
    bound = GENERAL_CONSTANT / np.sqrt(kap)
    counterexamples = sum(1 for r in rows if r.stable and r.systole > bound)
    dt = time.perf_counter() - t0
    ok = lam_ok and onset_ok and counterexamples == 0 and dt < 300.0
    record_acceptance(7, "lens tower: spectrum, onset, systole bound", ok,
                      f"lambda1 {lam1:.2e}, onset {onset} vs {oracle_onset}, "
                      f"kappa {kap:.3f}, 0 counterexamples, {dt:.1f}s")
    assert ok


def test_criterion_8_trial_section_bounds():
    t0 = time.perf_counter()
    n = 96
    imm = LensScenario(n=n).torus
    R = induced_systole(imm, window=1, stride=n // 4)
    deltas = axis_truncated_distances(imm, R)
    s = phase_trial_section(imm.normal_lines[0][0], deltas, imm.lattice)
    seam_ok = s.seam_residual <= 1e-9
    # pointwise dbar bound in the physical chart, up to one grid step
    c = s.grid()
    grad = np.abs(dbar(c).values[:, :, 0])
    bound = s.grad_bound * np.abs(c.values[:, :, 0])
    h = max(imm.periods) / n
    point_ok = bool(np.all(grad <= bound * (1 + 4 * h)))
    # exceptional construction on the vertical double cover of the square
    rep = exceptional_cutoffs(flat_chart_immersion(1.0, 1.0, n), 0.6)
    exc_ok = (rep.max_grad_I <= rep.grad_bound_I
              and rep.max_grad_V <= rep.grad_bound_V
              and rep.injectivity_violations == 0)
    # the localized Rayleigh quotient against the chain constant
    chain = (EXCEPTIONAL_CONSTANT / 0.6) ** 2
    chain_ok = (abs(rep.chain_bound / chain - 1) <= 0.05
                and rep.rayleigh <= rep.chain_bound)
    dt = time.perf_counter() - t0
    ok = seam_ok and point_ok and exc_ok and chain_ok and dt < 120.0
    record_acceptance(8, "trial-section and exceptional-cutoff bounds", ok,
                      f"seam {s.seam_residual:.1e}, grads "
                      f"{rep.max_grad_I:.2f}/{rep.grad_bound_I:.2f}, "
                      f"rayleigh {rep.rayleigh:.1f} <= {rep.chain_bound:.1f}, "
                      f"{dt:.1f}s")
    assert ok


def test_criterion_9_sublattice_systole_growth():
    t0 = time.perf_counter()
    ok = True
    for tau in (1.0j, 0.3 + 1.1j):
        lat, _ = normalize_lattice(tau)
        base = flat_systole(lat)
        for k in range(1, 11):
            lat_k = cover_lattice(lat, CoverSpec.scaling(k))
            ok = ok and flat_systole(lat_k) == k * base
    sc = FlatTorusScenario(n=16)
    rows = covering_sweep(sc, [CoverSpec.scaling(k) for k in (1, 2, 3)])
    rs = [r.systole for r in rows]
    ok = ok and all(b > a for a, b in zip(rs, rs[1:]))
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    record_acceptance(9, "systole grows linearly along scaling towers", ok,
                      f"R ladder {rs[0]:.2f} < {rs[1]:.2f} < {rs[2]:.2f}, "
                      f"{dt:.2f}s")
    assert ok
