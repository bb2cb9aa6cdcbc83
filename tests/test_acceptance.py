"""Acceptance suite: one test per quantitative criterion, each printing a
PASS line with the measured numbers (run with -s or -rA to see them).

Every tolerance is pinned here, not configurable: orbit range to 1e-2,
polynomial identities exact, spectral residuals to 1e-5, decay rate to
10%, oscillation amplitudes to a factor of 10, eigenvalue scaling to 1%
and the beam oracle to 0.5%, branch phenomenology windows as published,
Jacobians to 1e-5, energy pairings to 1e-4, classifier counts exact, and
manifest replay byte-exact.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

import blowuplab.branching as br
import blowuplab.bvp as bvp
import blowuplab.patterns as pat
import blowuplab.spectral as spectral
import blowuplab.variational as var
from blowuplab.cli import main
from blowuplab.model import ProblemParams
from tests.test_spectral import fd_ladder_residual

N02 = ProblemParams(0.2, 1.2, 1e-2)


def report(num, text):
    print(f"[criterion {num:2d}] PASS: {text}")


@pytest.fixture(scope="module")
def f4_branch_up(f4_profile):
    schedule = np.round(np.arange(1.25, 6.001, 0.05), 10)
    return br.trace_p_branch(f4_profile, schedule, "F+4-up",
                             bvp.NewtonOptions(max_iters=500))


def test_criterion_01_periodic_orbit_range(orbit_n02):
    assert abs(orbit_n02.min_val - 0.4135) <= 1e-2
    assert abs(orbit_n02.max_val - 1.4085) <= 1e-2
    report(1, f"orbit range [{orbit_n02.min_val:.4f}, {orbit_n02.max_val:.4f}]"
              " vs published [0.4135, 1.4085] within 1e-2")


def test_criterion_02_adjoint_quartic_exact():
    p4 = spectral.adjoint_eigenfunction(4)
    assert p4.rational == (Fraction(24), Fraction(0), Fraction(0),
                           Fraction(0), Fraction(1))
    assert np.allclose(p4.coeffs,
                       np.array([24.0, 0, 0, 0, 1.0]) / math.sqrt(24.0),
                       rtol=1e-15)
    image = spectral.adjoint_apply(p4.rational)
    shifted = tuple(a + b for a, b in zip(image, p4.rational))
    assert all(c == 0 for c in shifted)
    report(2, "psi*_4 = (y^4 + 24)/sqrt(24) with exact coefficients and "
              "(B* + I) psi*_4 = 0 as a polynomial identity")


def test_criterion_03_spectrum_and_duality(kernel_table_wide):
    worst_eig = max(fd_ladder_residual(kernel_table_wide, l) for l in range(5))
    assert worst_eig <= 1e-5
    M = np.array([[spectral.pairing(kernel_table_wide, l, k)
                   for k in range(7)] for l in range(7)])
    worst_pair = float(np.max(np.abs(M - np.eye(7))))
    assert worst_pair <= 1e-5
    report(3, f"eigen-residual {worst_eig:.2e} (l <= 4) and bi-orthogonality "
              f"defect {worst_pair:.2e} (l,k <= 6), both <= 1e-5")


def test_criterion_04_kernel_decay(kernel_table):
    D, d = kernel_table.decay_fit
    target = spectral.DECAY_RATE
    assert abs(d - target) / target <= 0.10
    assert abs(kernel_table.normalization - 1.0) <= 1e-8
    report(4, f"decay rate {d:.4f} vs 3*2^(-11/3) = {target:.4f} "
              f"({100 * abs(d - target) / target:.1f}%), normalization exact")


def test_criterion_05_oscillation_amplitudes(periodic_components):
    amp_small = periodic_components[0.75].amplitude
    amp_large = periodic_components[5.0].amplitude
    assert 1e-8 <= amp_small <= 1e-6
    assert 1e-3 <= amp_large <= 1e-1
    report(5, f"component amplitudes {amp_small:.2e} (n=3/4, target ~1e-7) "
              f"and {amp_large:.2e} (n=5, target ~1e-2), within factor 10")


def test_criterion_06_eigenvalue_scaling():
    worst = 0.0
    for n in (0.0, 0.2, 1.0):
        l1 = var.first_nonlinear_eigenvalue(n, 1.0, 400)
        l2 = var.first_nonlinear_eigenvalue(n, 2.0, 400)
        target = 2.0 ** (-4.0 - 2.0 * n)
        worst = max(worst, abs(l2 / l1 - target) / target)
    assert worst <= 1e-2
    beam = (brentq(lambda z: math.cos(z) * math.cosh(z) - 1.0, 1.5, 6.0,
                   xtol=1e-14) / 2.0) ** 4
    lam = var.first_nonlinear_eigenvalue(0.0, 1.0, 400)
    assert abs(lam - beam) / beam <= 5e-3
    report(6, f"interval scaling law within {100 * worst:.3f}% for "
              f"n in {{0, 0.2, 1}}; lambda_1(0, 1) = {lam:.4f} vs clamped-beam "
              f"oracle {beam:.4f}")


def test_criterion_07_branch_phenomenology(f0_profile):
    up = br.trace_p_branch(f0_profile,
                           np.round(np.arange(1.25, 6.001, 0.05), 10),
                           "F0-up", bvp.NewtonOptions(max_iters=500))
    assert up.stop_reason == "completed"
    assert all(r.profile.converged for r in up.records)

    down = br.trace_p_branch(f0_profile,
                             np.round(np.arange(1.19, 1.049, -0.01), 10),
                             "F0-down")
    assert down.stop_reason == "completed"
    sups = [r.sup_norm for r in down.records]
    assert all(b > a for a, b in zip(sups, sups[1:]))

    f1 = bvp.solve_profile(N02, pat.guess_factory(
        pat.FamilySpec("basic", 1, n=0.2),
        bvp.Mesh.uniform(0.0, 50.0, 2000), N02, template=f0_profile))
    assert f1.converged
    hunt = br.trace_p_branch(f1, np.round(np.arange(1.201, 1.2601, 0.001), 10),
                             "F1-up")
    assert hunt.stop_reason == "newton-failure"
    p_end = hunt.records[-1].p
    assert abs(p_end - 1.218) <= 0.02
    report(7, f"F0 branch spans [1.05, 6.0] with sup growth toward p -> 1; "
              f"F1 branch dies at p = {p_end:.4f} (published 1.218 +- 0.02)")


def test_criterion_08_f_plus4_trend(f4_branch_up):
    assert f4_branch_up.stop_reason == "completed"
    rows = [(r.p, r.sup_norm) for r in f4_branch_up.records if r.p >= 3.0]
    assert len(rows) >= 30
    assert all(b[1] < a[1] for a, b in zip(rows, rows[1:]))
    assert all(s > 1.0 for _, s in rows)
    report(8, f"F+4 sup norm decreases monotonically from "
              f"{rows[0][1]:.5f} at p=3 to {rows[-1][1]:.5f} at p=6, always > 1")


def test_criterion_09_jacobian_vs_finite_differences():
    from tests.test_bvp import jacobian_fd_error, random_profile
    worst = 0.0
    for n in (0.0, 0.2, 1.0):
        for p in (1.2, 1.5, 2.6):
            prof = random_profile("dirichlet-far", n, p, seed=5)
            worst = max(worst, jacobian_fd_error(prof))
    assert worst <= 1e-5
    report(9, f"analytic Jacobian columns match finite differences to "
              f"{worst:.2e} over 9 parameter combinations")


def test_criterion_10_euler_lagrange_consistency(f0_profile):
    full = f0_profile.full_extension()
    res0 = bvp.assemble_residual(full.replace(params=full.params.with_eps(0.0)))
    rng = np.random.default_rng(23)
    y = full.mesh.nodes
    h = full.mesh.h
    window = np.exp(-((y / 10.0) ** 4))
    worst = 0.0
    for _ in range(20):
        delta = rng.standard_normal(y.size) * window
        dE, pairing = var.energy_gradient_pairing(full, delta)
        scale = h * float(np.sum(np.abs(res0 * delta)))
        worst = max(worst, abs(dE - pairing) / scale)
    assert worst <= 1e-4
    report(10, f"energy directional derivatives match residual pairings to "
               f"{worst:.2e} relative over 20 random perturbations")


def test_criterion_11_classifier_invariants(basic_family):
    for l, prof in basic_family.items():
        neg = prof.replace(values=-prof.values)
        assert pat.classify(neg).tokens == pat.classify(prof).flipped().tokens
        full = prof.full_extension()
        fine_mesh = bvp.Mesh.uniform(full.mesh.nodes[0], full.mesh.nodes[-1],
                                     2 * full.mesh.m)
        fine = bvp.Profile(fine_mesh,
                           np.interp(fine_mesh.nodes, full.mesh.nodes,
                                     full.values),
                           full.params, "dirichlet-far", converged=True)
        assert pat.classify(fine).tokens == pat.classify(prof).tokens
        assert pat.transversal_zeros(prof) == l
    report(11, "classify sign-flip and mesh-refinement invariance hold; "
               "transversal zero counts equal l for l <= 3")


def test_criterion_12_manifest_replay(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--n", "0.2", "--p", "1.3", "--family", "basic:0",
                 "--N", "1200", "--R", "30", "--out", str(out)])
    assert code == 0
    code = main(["replay", str(out / "manifest.json"),
                 "--scratch", str(tmp_path / "scratch")])
    assert code == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    for name in outputs:
        assert (out / name).read_bytes() == (tmp_path / "scratch" / name).read_bytes()
    report(12, f"manifest replay reproduced {len(outputs)} output files "
               "byte-exactly")
