import math

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

import blowuplab.bvp as bvp
import blowuplab.newton as newton
import blowuplab.variational as var
from blowuplab.model import ProblemParams

N02 = ProblemParams(0.2, 1.2, 1e-2)


def clamped_beam_lambda1(length: float) -> float:
    """Independent oracle: first clamped-beam eigenvalue on an interval.

    Solves the characteristic equation cos(k L) cosh(k L) = 1 for the
    first positive root by bracketed bisection and returns k^4.
    """
    f = lambda z: math.cos(z) * math.cosh(z) - 1.0
    z = brentq(f, 1.5, 6.0, xtol=1e-14)
    return (z / length) ** 4


def smooth_bump_profile(amplitude=1.0, width=6.0, R=20.0, m=800):
    mesh = bvp.Mesh.uniform(-R, R, m)
    y = mesh.nodes
    vals = amplitude * np.exp(-((y / width) ** 2))
    vals = bvp._project_bc(vals, "dirichlet-far")
    return bvp.Profile(mesh, vals, N02, "dirichlet-far")


class TestEnergy:
    def test_zero_profile(self):
        rep = var.energy(smooth_bump_profile(amplitude=0.0))
        assert rep.bending == rep.mass == rep.source == rep.total == 0.0

    def test_total_is_exact_sum(self, f0_profile):
        rep = var.energy(f0_profile)
        assert rep.total == rep.bending + rep.mass + rep.source
        assert rep.bending < 0 and rep.mass < 0 and rep.source > 0

    def test_small_amplitude_scaling(self):
        # total = -1/2 c^2 int F^2 + O(c^(n+2)): the correction term's
        # order is measured by halving c
        base = smooth_bump_profile(amplitude=1.0)

        def correction(c):
            rep = var.energy(base.replace(values=c * base.values))
            return rep.total - rep.mass

        c = 1e-3
        ratio = correction(c) / correction(0.5 * c)
        assert ratio == pytest.approx(2.0 ** (N02.n + 2.0), rel=1e-3)

    def test_regional_only(self):
        prof = smooth_bump_profile()
        bad = prof.replace(params=ProblemParams(0.2, 1.5))
        with pytest.raises(ValueError):
            var.energy(bad)

    def test_euler_lagrange_consistency(self, f0_profile):
        # directional derivatives of E match the residual pairing, relative
        # to the natural pairing magnitude h sum |res||delta| (individual
        # directions can be nearly orthogonal to the gradient)
        full = f0_profile.full_extension()
        exact = full.replace(params=full.params.with_eps(0.0))
        res0 = bvp.assemble_residual(exact)
        rng = np.random.default_rng(11)
        y = full.mesh.nodes
        h = full.mesh.h
        window = np.exp(-((y / 10.0) ** 4))  # supported away from the ends
        worst = 0.0
        for _ in range(20):
            delta = rng.standard_normal(y.size) * window
            dE, pairing = var.energy_gradient_pairing(full, delta)
            scale = h * float(np.sum(np.abs(res0 * delta)))
            worst = max(worst, abs(dE - pairing) / scale)
        assert worst <= 1e-4


class TestFibering:
    def _admissible(self, seed=0):
        """Scale a broad bump onto the constraint set H_0(v) = 1."""
        rng = np.random.default_rng(seed)
        mesh = bvp.Mesh.uniform(-20.0, 20.0, 800)
        y = mesh.nodes
        vals = (1.0 + 0.1 * rng.standard_normal()) * np.exp(-((y / (5.5 + rng.random())) ** 2))
        vals = bvp._project_bc(vals, "dirichlet-far")
        prof = bvp.Profile(mesh, vals, N02, "dirichlet-far")
        h0 = var.fiber_reduce(prof).h0
        assert h0 > 0
        return prof.replace(values=prof.values / h0 ** (1.0 / (N02.n + 2.0)))

    def test_constraint_scaling_lands_on_set(self):
        v = self._admissible()
        rep = var.fiber_reduce(v)
        assert rep.on_constraint
        assert rep.h0 == pytest.approx(1.0, abs=1e-9)

    def test_unit_mass_gives_unit_r0(self):
        mesh = bvp.Mesh.uniform(-20.0, 20.0, 800)
        y = mesh.nodes
        vals = bvp._project_bc(np.exp(-((y / 5.0) ** 2)), "dirichlet-far")
        prof = bvp.Profile(mesh, vals, N02, "dirichlet-far")
        h_tilde = var.fiber_reduce(prof).h_tilde
        unit = prof.replace(values=prof.values / math.sqrt(h_tilde))
        rep = var.fiber_reduce(unit)
        assert rep.h_tilde == pytest.approx(1.0, rel=1e-12)
        assert rep.r0 == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_matches_direct_evaluation(self, seed):
        v = self._admissible(seed)
        rep = var.fiber_reduce(v)
        direct = var.fiber_h(rep.r0, v)
        assert rep.h_at_r0 == pytest.approx(direct, abs=1e-10 * abs(direct))
        assert rep.h_at_r0 == pytest.approx(
            -N02.n / (2.0 * (N02.n + 2.0)) * rep.r0 ** (N02.n + 2.0),
            rel=1e-12)

    def test_r0_minimizes_h(self):
        v = self._admissible(3)
        rep = var.fiber_reduce(v)
        rs = np.linspace(0.25 * rep.r0, 4.0 * rep.r0, 1000)
        hs = [var.fiber_h(r, v) for r in rs]
        r_best = rs[int(np.argmin(hs))]
        assert abs(r_best - rep.r0) <= rs[1] - rs[0]

    def test_trivial_rejected(self):
        prof = smooth_bump_profile(amplitude=0.0)
        with pytest.raises(ValueError):
            var.fiber_reduce(prof)


def clamped_pencil(R: float, m: int):
    """Dense curvature map W, trapezoid weights c and interior weights
    c_int of the clamped problem on (-R, R), built independently of the
    module: row k of W is psi'' at node k, with psi = psi' = 0 at both
    ends entering as ghost reflections."""
    h = 2.0 * R / m
    W = np.zeros((m + 1, m - 1))
    for k in range(m + 1):
        for j, coef in ((k - 1, 1.0), (k, -2.0), (k + 1, 1.0)):
            if 1 <= j <= m - 1:
                W[k, j - 1] += coef / h**2
    W[0, 0] += 1.0 / h**2          # ghost psi_{-1} = psi_1
    W[m, m - 2] += 1.0 / h**2      # ghost psi_{m+1} = psi_{m-1}
    c = np.full(m + 1, h)
    c[0] = c[-1] = 0.5 * h
    return W, c, c[1:-1]


def band_to_dense(ab):
    """Dense matrix of a dgbtrf band (kl = ku = 2): entry (i, j) in row 4 + i - j."""
    N = ab.shape[1]
    A = np.zeros((N, N))
    for k in range(-2, 3):
        A += np.diag(ab[4 + k, max(0, -k):N - max(0, k)], -k)
    return A


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestBandedEulerLagrange:
    @pytest.mark.parametrize("m", [64, 400])
    @pytest.mark.parametrize("n", [0.0, 1.0])
    def test_stencils_and_band_match_clamped_pencil(self, n, m):
        rng = np.random.default_rng(12)
        R, lam = 1.0, 30.0
        h = 2.0 * R / m
        W, c, c_int = clamped_pencil(R, m)
        x, y = rng.standard_normal(m - 1), rng.standard_normal(m + 1)
        assert rel_err(var._curvature(x, h), W @ x) <= 1e-12
        assert rel_err(var._curvature_adjoint(y, h), W.T @ y) <= 1e-12
        d, cx = c * np.abs(W @ x) ** n, c_int * np.abs(x) ** n
        dense = (n + 1.0) * (W.T @ (d[:, None] * W) - lam * np.diag(cx))
        ab = var._block_band(d, cx, lam, n, h)
        assert not ab[:2].any()   # the LU's fill-in rows start empty
        assert rel_err(band_to_dense(ab), dense) <= 1e-12

    def test_bordered_solve_at_singular_block(self):
        # at the linear eigenpair the block is singular to roundoff; the
        # bordered system is not, and its solve must be backward stable
        m, R = 400, 1.0
        h = 2.0 * R / m
        W, c, c_int = clamped_pencil(R, m)
        _, vecs = scipy.linalg.eigh(W.T @ (c[:, None] * W), np.diag(c_int))
        x = vecs[:, 0]
        lam = np.sum(c * (W @ x) ** 2) / np.sum(c_int * x * x)
        ab = var._block_band(c, c_int, lam, 0.0, h)
        col = -(c_int * x)
        row = (1.0 - np.linspace(-1.0, 1.0, m + 1)[1:-1] ** 2) ** 2
        b = np.random.default_rng(3).standard_normal(m)
        z = var._bordered_solver(ab, col, row)(b)
        M = np.block([[band_to_dense(ab), col[:, None]], [row[None, :], np.zeros((1, 1))]])
        eta = (np.linalg.norm(M @ z - b, np.inf)
               / (np.linalg.norm(M, np.inf) * np.linalg.norm(z, np.inf)
                  + np.linalg.norm(b, np.inf)))
        assert eta <= 1e-15

    @pytest.mark.parametrize("n, budget", [(3.0, 98), (5.0, 186)])
    def test_factorization_budget_on_fine_mesh(self, n, budget, monkeypatch):
        # pinned LU counts; the damped walk of stage n = 2.5 moves them by
        # a few LUs with the rounding of the linear solve
        calls = []
        dgbtrf = var.dgbtrf

        def counting(*args):
            calls.append(1)
            return dgbtrf(*args)

        monkeypatch.setattr(var, "dgbtrf", counting)
        var.first_nonlinear_eigenvalue(n, 1.0, 2000)
        assert len(calls) <= budget


class TestNonlinearEigenvalue:
    def test_linear_case_against_beam_oracle(self):
        lam = var.first_nonlinear_eigenvalue(0.0, 1.0, 400)
        oracle = clamped_beam_lambda1(2.0)
        assert lam == pytest.approx(oracle, rel=5e-3)

    @pytest.mark.parametrize("R", [1.0, 2.0])
    def test_linear_case_against_dense_eigh(self, R):
        # LAPACK resolves eigenvalues only to eps * ||W^T C W|| absolute,
        # about 2e-8 relative for the smallest one at m = 400, so the
        # reference eigenvalue is the quotient of eigh's lowest
        # eigenvector: stationary there, it is exact to second order
        W, c, c_int = clamped_pencil(R, 400)
        _, vecs = scipy.linalg.eigh(W.T @ (c[:, None] * W), np.diag(c_int))
        v = vecs[:, 0]
        ref = np.sum(c * (W @ v) ** 2) / np.sum(c_int * v * v)
        lam = var.first_nonlinear_eigenvalue(0.0, R, 400)
        assert lam == pytest.approx(ref, rel=1e-10)

    def test_non_convergence_raises_with_last_quotient(self, monkeypatch):
        # the stages past the linear one take about five Newton steps; a
        # two-step budget must fail loudly, not return the quotient
        monkeypatch.setattr(newton, "MAX_ITERS", 2)
        with pytest.raises(RuntimeError, match=r"last quotient \d"):
            var.first_nonlinear_eigenvalue(1.0, 1.0, 400)

    def test_divergence_raises_with_last_finite_quotient(self, monkeypatch):
        # without the stages in n, Newton from the linear start diverges at
        # n = 3 on a fine mesh; the failure must name its Newton step and
        # the last finite quotient, not escape as a bare solver error
        monkeypatch.setattr(var, "N_STAGE", 10.0)
        with pytest.raises(RuntimeError,
                           match=r"divergence at Newton step \d+.*last quotient \d"):
            var.first_nonlinear_eigenvalue(3.0, 1.0, 2000)

    @pytest.mark.parametrize("n, lam", [(3.0, 3192.36536), (5.0, 59797.5118)])
    def test_stages_in_n_converge_on_fine_mesh(self, n, lam):
        assert var.first_nonlinear_eigenvalue(n, 1.0, 2000) == pytest.approx(
            lam, rel=1e-8)

    @pytest.mark.parametrize("n", [0.0, 0.2, 1.0, 2.0])
    def test_interval_scaling_law(self, n):
        l1 = var.first_nonlinear_eigenvalue(n, 1.0, 400)
        l2 = var.first_nonlinear_eigenvalue(n, 2.0, 400)
        assert l2 / l1 == pytest.approx(2.0 ** (-4.0 - 2.0 * n), rel=1e-2)

    def test_positive(self):
        assert var.first_nonlinear_eigenvalue(0.5, 1.5, 200) > 0.0

    def test_invariant_under_start_scaling(self):
        # the start is a fixed clamped bump, so no eigensolver output
        # enters and two runs agree to the last bit
        a = var.first_nonlinear_eigenvalue(0.2, 1.0, 200)
        b = var.first_nonlinear_eigenvalue(0.2, 1.0, 200)
        assert a == b

    def test_below_one_count_grows(self):
        lam1 = var.first_nonlinear_eigenvalue(0.2, 1.0, 200)
        counts = [var.count_eigenvalues_below_one(0.2, R, lam1)
                  for R in (2.0, 4.0, 8.0)]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]
        assert any(1 <= c <= 3 for c in counts)
