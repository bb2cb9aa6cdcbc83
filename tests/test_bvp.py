import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blowuplab.bvp as bvp
import blowuplab.cli as cli
import blowuplab.newton as newton
import blowuplab.patterns as pat
import blowuplab.spectral as spectral
from blowuplab.model import ProblemParams

N02 = ProblemParams(0.2, 1.2, 1e-2)
HALF_MESH = bvp.Mesh.uniform(0.0, 50.0, 2000)
# odd dipole with centers at +-6
DIPOLE = (1.2 * np.exp(-(((HALF_MESH.nodes - 6.0) / 3.0) ** 2))
          - 1.2 * np.exp(-(((HALF_MESH.nodes + 6.0) / 3.0) ** 2)))


def random_profile(bc, n, p, m=80, seed=0, lo=0.3, hi=1.4, eps=1e-2):
    rng = np.random.default_rng(seed)
    mesh = (bvp.Mesh.uniform(0.0, 5.0, m) if bc in ("symmetry", "antisymmetry")
            else bvp.Mesh.uniform(-5.0, 5.0, m))
    vals = bvp._project_bc(lo + (hi - lo) * rng.random(m + 1), bc)
    return bvp.Profile(mesh, vals, ProblemParams(n, p, eps), bc)


def band_to_dense(ab):
    """Dense matrix of a dgbtrf band (kl = ku = 2): entry (i, j) in row 4 + i - j."""
    N = ab.shape[1]
    A = np.zeros((N, N))
    for k in range(-2, 3):
        A += np.diag(ab[4 + k, max(0, -k):N - max(0, k)], -k)
    return A


def jacobian_fd_error(prof, step=1e-7):
    """Column-wise relative mismatch of the analytic Jacobian against
    forward finite differences of the residual."""
    J = band_to_dense(bvp.assemble_jacobian(prof))
    r0 = bvp.assemble_residual(prof)
    worst = 0.0
    for j in range(prof.values.size):
        bumped = prof.values.copy()
        bumped[j] += step
        col_fd = (bvp.assemble_residual(prof.replace(values=bumped)) - r0) / step
        denom = max(1.0, float(np.max(np.abs(J[:, j]))))
        worst = max(worst, float(np.max(np.abs(col_fd - J[:, j]))) / denom)
    return worst


class TestResidual:
    def test_zero_profile(self):
        mesh = bvp.Mesh.uniform(-50.0, 50.0, 4000)
        prof = bvp.Profile(mesh, np.zeros(4001), N02, "dirichlet-far")
        assert np.max(np.abs(bvp.assemble_residual(prof))) == 0.0

    @pytest.mark.parametrize("params", [N02, ProblemParams(0.2, 1.5, 1e-2),
                                        ProblemParams(1.0, 2.6, 1e-3)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_unit_equilibria_exact(self, params, sign):
        mesh = bvp.Mesh.uniform(-50.0, 50.0, 1000)
        prof = bvp.Profile(mesh, np.full(1001, sign), params, "q-plateau"
                           if sign > 0 else "dirichlet-far")
        res = bvp.assemble_residual(prof)
        assert np.max(np.abs(res[1:-1])) == 0.0

    def test_mesh_too_coarse(self):
        mesh = bvp.Mesh.uniform(-1.0, 1.0, 32)
        prof = bvp.Profile(mesh, np.zeros(33), N02, "dirichlet-far")
        with pytest.raises(ValueError, match="too coarse"):
            bvp.assemble_residual(prof)
        # the stencils need one spacing, so a graded mesh never exists
        with pytest.raises(ValueError, match="uniform"):
            bvp.Mesh(np.linspace(-1.0, 1.0, 101) ** 3)

    @pytest.mark.parametrize("nodes", [[0.0, np.inf], [-np.inf, 0.0]])
    def test_mesh_nodes_finite(self, nodes):
        # an infinite end would give h = inf
        with pytest.raises(ValueError, match="finite"):
            bvp.Mesh(np.array(nodes))

    def test_residual_norm_reproducible(self, f0_profile):
        # recomputing the stored residual norm from values must agree
        assert bvp.residual_norm(f0_profile) == pytest.approx(
            f0_profile.residual_norm, abs=1e-12)

    def test_eps_zero_assembles_but_newton_refuses(self):
        prof = random_profile("dirichlet-far", 0.2, 1.2)
        exact = prof.replace(params=prof.params.with_eps(0.0))
        res = bvp.assemble_residual(exact)
        assert np.all(np.isfinite(res))
        with pytest.raises(ValueError, match="eps = 0"):
            bvp.solve_profile(exact.params, exact)


class TestJacobian:
    @pytest.mark.parametrize("n", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.6])
    def test_matches_finite_differences(self, n, p):
        for bc in ("dirichlet-far", "q-plateau", "symmetry", "antisymmetry"):
            prof = random_profile(bc, n, p, seed=3)
            assert jacobian_fd_error(prof) <= 1e-5

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 3.0])
    def test_eps_zero_band_at_zero_curvature(self, n):
        # at eps = 0 the flux |w|^n w has derivative (n+1)|w|^n, also on the
        # flat stretches where w = F'' = 0 exactly; h = 1 keeps the rows O(1).
        # The flux is only C^(1,n) at w = 0, so the difference quotient is
        # off by about (step / h^2)^n there: 1e-4 at n = 0.5
        mesh = bvp.Mesh.uniform(-32.0, 32.0, 64)
        y = mesh.nodes
        vals = np.where(np.abs(y) < 12.0, 1.2 * (1.0 - (y / 12.0) ** 2) ** 2, 0.0)
        prof = bvp.Profile(mesh, vals, ProblemParams(n, n + 1.0, 0.0), "dirichlet-far")
        w = bvp._d2(bvp._extended(vals, prof.bc), mesh.h**2)
        assert np.count_nonzero(w == 0.0) >= 40
        assert np.isfinite(bvp.assemble_jacobian(prof)).all()
        assert jacobian_fd_error(prof, step=1e-8) <= 1e-3

    @pytest.mark.parametrize("bc", bvp.BC_CHOICES)
    def test_band_in_dgbtrf_layout(self, bc):
        # kl = ku = 2 with the LU's two fill-in rows on top, left empty
        prof = random_profile(bc, 0.2, 1.2, m=100, seed=5)
        ab = bvp.assemble_jacobian(prof)
        assert ab.shape == (7, 101)
        assert not ab[:2].any()

    def test_symmetry_preserved_by_iterates(self):
        # even guess on a full domain stays even through the whole solve
        mesh = bvp.Mesh.uniform(-30.0, 30.0, 1200)
        y = mesh.nodes
        guess = bvp.Profile(mesh, 1.2 * np.exp(-((y / 3.0) ** 2)), N02,
                            "dirichlet-far")
        sol = bvp.solve_profile(N02, guess)
        assert sol.converged
        assert np.max(np.abs(sol.values - sol.values[::-1])) <= 1e-11

    def test_half_domain_solution_extends_to_full_solution(self, f0_profile):
        full = f0_profile.full_extension()
        res = bvp.assemble_residual(full)
        assert np.max(np.abs(res[1:-1])) <= 2.0 * max(
            f0_profile.residual_norm, 1e-8)


# hypothesis draws the same examples on every run, with no time limit
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
BCS = st.sampled_from(bvp.BC_CHOICES)


class TestProperties:
    @PROPERTY
    @given(bc=BCS, n=st.floats(0.0, 3.0), p=st.floats(1.05, 6.0),
           eps=st.floats(1e-4, 1.0), seed=st.integers(0, 2**16))
    def test_jacobian_matches_finite_differences(self, bc, n, p, eps, seed):
        prof = random_profile(bc, n, p, seed=seed, eps=eps)
        assert jacobian_fd_error(prof) <= 1e-5

    @PROPERTY
    @given(bc=BCS, n=st.floats(0.0, 1.0), p=st.floats(1.05, 3.0),
           amp=st.floats(0.0, 1.5), seed=st.integers(0, 2**16))
    def test_solve_keeps_bc_value_rows_exact(self, bc, n, p, amp, seed):
        # a converged solve and a failed one's last iterate alike
        guess = random_profile(bc, n, p, seed=seed, lo=-amp, hi=amp)
        try:
            out = bvp.solve_profile(guess.params, guess)
        except bvp.NewtonError as exc:
            out = exc.best
        F = out.values
        assert F[-1] == 0.0
        if bc in ("dirichlet-far", "antisymmetry"):
            assert F[0] == 0.0
        elif bc == "q-plateau":
            assert F[0] == 1.0

    @pytest.mark.parametrize("bc", ["symmetry", "antisymmetry"])
    @PROPERTY
    @given(n=st.floats(0.0, 3.0), p=st.floats(1.05, 6.0),
           eps=st.floats(1e-4, 1.0), m=st.integers(64, 300),
           R=st.floats(5.0, 50.0), seed=st.integers(0, 2**16))
    def test_half_domain_residual_is_full_residual(self, bc, n, p, eps, m, R,
                                                   seed):
        # the ghost reflections at y = 0 carry the parity: the half-domain
        # rows are the full-domain rows on y >= 0, and the full residual
        # is even or odd with the profile
        rng = np.random.default_rng(seed)
        vals = bvp._project_bc(0.3 + 1.1 * rng.random(m + 1), bc)
        half = bvp.Profile(bvp.Mesh.uniform(0.0, R, m), vals,
                           ProblemParams(n, p, eps), bc)
        full = bvp.assemble_residual(half.full_extension())
        scale = float(np.max(np.abs(full)))
        assert np.max(np.abs(bvp.assemble_residual(half) - full[m:])) \
            <= 1e-11 * scale
        sign = 1.0 if bc == "symmetry" else -1.0
        assert np.max(np.abs(full - sign * full[::-1])) <= 1e-14 * scale


def linear_limit_residual(mesh, values):
    """The n -> 0 linear-limit operator -D4 - (1/4) y D + I on interior nodes.

    Built from the same composed stencils as assemble_residual, with the
    n = 0 drift coefficient 1/4.  The quartic (y^4 + 24)/sqrt(24) lies in
    its continuum kernel, so applying this to it measures pure
    discretization error.  Rows within reach of the boundary ghosts are
    boundary effects and are not returned.
    """
    h = mesh.h
    F = np.asarray(values, dtype=float)
    ext = bvp._extended(F, "dirichlet-far")
    w = (ext[:-2] - 2.0 * ext[1:-1] + ext[2:]) / h**2
    lap_w = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / h**2
    dF = (ext[3:-1] - ext[1:-3]) / (2.0 * h)
    res = -lap_w - 0.25 * mesh.nodes * dF + F
    return res[2:-2]


class TestLinearLimit:
    def test_adjoint_quartic_in_discrete_kernel(self):
        # residual of (y^4+24)/sqrt(24) is -y^2 h^2 / sqrt(24) exactly for
        # these stencils: pure O(h^2), order >= 1.9 under mesh doubling
        errs = []
        for m in (500, 1000):
            mesh = bvp.Mesh.uniform(-20.0, 20.0, m)
            psi4 = spectral.adjoint_eigenfunction(4)
            res = linear_limit_residual(mesh, psi4(mesh.nodes))
            errs.append(np.max(np.abs(res)))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9
        h = 40.0 / 500
        assert errs[0] <= 1.1 * (20.0 ** 2) * h * h / math.sqrt(24.0)


class TestSolve:
    def test_trivial_root_from_zero_guess(self):
        mesh = bvp.Mesh.uniform(0.0, 20.0, 400)
        guess = bvp.Profile(mesh, np.zeros(401), N02, "symmetry")
        sol = bvp.solve_profile(N02, guess)
        assert sol.converged and sol.sup_norm == 0.0

    def test_first_pattern_shape(self, f0_profile):
        # single dominant maximum at the origin, decaying oscillatory tail
        sol = f0_profile
        assert sol.converged
        assert np.argmax(sol.values) == 0
        assert sol.sup_norm == pytest.approx(1.397, abs=2e-3)
        tail = sol.values[sol.mesh.nodes > 6.0]
        assert np.max(np.abs(tail)) < 0.05
        signs = np.count_nonzero(np.diff(np.sign(
            tail[np.abs(tail) > 1e-13])))
        assert signs >= 3  # oscillatory, not monotone, decay

    def test_eps_robustness(self, f0_profile):
        # halving eps moves the profile by less than 1e-2 away from the tail
        half = bvp.solve_profile(N02.with_eps(5e-3), f0_profile)
        assert half.converged
        core = f0_profile.mesh.nodes <= 8.0
        diff = np.max(np.abs(half.values[core] - f0_profile.values[core]))
        assert diff <= 1e-2

    def test_divergence_reported(self):
        # the dipole with centers at +-6 lies in the F_1 basin; a hundred
        # times that amplitude sends the iteration off to infinity
        guess = bvp.Profile(HALF_MESH, DIPOLE, N02, "antisymmetry")
        sol = bvp.solve_profile(N02, guess)
        assert sol.converged and sol.newton_iters <= 8
        assert sol.sup_norm == pytest.approx(1.3976, abs=1e-4)
        assert str(pat.classify(sol)) == "{-2,1,+2}"
        bad = guess.replace(values=100.0 * DIPOLE)
        with pytest.raises(bvp.NewtonError, match="divergence") as exc:
            bvp.solve_profile(N02, bad)
        best = exc.value.best
        assert not best.converged
        assert best.residual_norm == bvp.residual_norm(best)

    def test_warm_start_converges_quadratically(self, f0_profile, monkeypatch):
        # one band build and one banded LU per Newton iteration; from the
        # neighbouring p the iteration keeps its quadratic convergence
        calls = {"jacobian": 0, "lu": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        evaluate = bvp._Stencil.evaluate

        def counted_band(self, *args):
            res, band = evaluate(self, *args)
            return res, counted("jacobian", band)

        monkeypatch.setattr(bvp._Stencil, "evaluate", counted_band)
        monkeypatch.setattr(bvp, "dgbtrf", counted("lu", bvp.dgbtrf))
        sol = bvp.solve_profile(N02.with_p(1.25), f0_profile)
        assert sol.converged and sol.newton_iters <= 6
        assert calls == {"jacobian": sol.newton_iters, "lu": sol.newton_iters}


class TestStencil:
    @pytest.mark.parametrize("bc", bvp.BC_CHOICES)
    @pytest.mark.parametrize("p", [1.2, 1.7], ids=["p=n+1", "p!=n+1"])
    def test_kept_terms_never_stale(self, bc, p):
        # an evaluation's band is its own point's: later evaluations at
        # other points or other (a, b) leave it as it was
        x1 = random_profile(bc, 0.2, p, m=100, seed=1)
        x2 = random_profile(bc, 0.2, p, m=100, seed=2)
        stencil = bvp._Stencil(x1.mesh, x1.params, bc, project=True)
        r1, band1 = stencil.evaluate(x1.values)
        r2, band2 = stencil.evaluate(x2.values)
        stencil.evaluate(x2.values, 0.0, 30.0)
        assert np.array_equal(r1, bvp.assemble_residual(x1))
        assert np.array_equal(band1(), bvp.assemble_jacobian(x1))
        assert np.array_equal(r2, bvp.assemble_residual(x2))
        assert np.array_equal(band2(), bvp.assemble_jacobian(x2))
        # the eigenvalue's zero-order coefficients (0, lambda): the band at
        # lambda = 40 is a fresh stencil's
        fresh = bvp._Stencil(x1.mesh, x1.params, bc, project=True)
        r40, band40 = stencil.evaluate(x2.values, 0.0, 40.0)
        fresh_r40, fresh_band40 = fresh.evaluate(x2.values, 0.0, 40.0)
        assert np.array_equal(band40(), fresh_band40())
        assert np.array_equal(r40, fresh_r40)

    @pytest.mark.parametrize("bc", bvp.BC_CHOICES)
    def test_projection_pins_the_bc_rows(self, bc):
        # Newton's iterates leave the bc value rows by roundoff; the solve's
        # stencil evaluates them pinned, as the projected profile
        prof = random_profile(bc, 0.2, 1.5, m=100, seed=4)
        off = prof.values.copy()
        off[[0, -1]] += 1e-3
        stencil = bvp._Stencil(prof.mesh, prof.params, bc, project=True)
        pinned = bvp._project_bc(off, bc)
        res, band = stencil.evaluate(off)
        assert np.array_equal(res, bvp.assemble_residual(prof.replace(values=pinned)))
        assert np.array_equal(band(), bvp.assemble_jacobian(prof.replace(values=pinned)))

    def test_norm_is_numpys(self):
        # newton's RMS norms are np.linalg.norm of a 1-d array, bit for bit
        rng = np.random.default_rng(0)
        for size in (1, 7, 301, 2001):
            v = rng.standard_normal(size) * 10.0 ** rng.integers(-12, 12, size)
            assert newton._norm(v) == np.linalg.norm(v)


def reference_solve(params, guess, opts=bvp.NewtonOptions()):
    """solve_profile wired as before the stencil kernel: newton.solve on the
    public assemblers through a projected Profile."""
    work = bvp.Profile(guess.mesh, bvp._project_bc(guess.values, guess.bc),
                       params, guess.bc)

    def at(values):
        return work.replace(values=bvp._project_bc(values, work.bc))

    def factor(prof):
        lu, piv, info = bvp.dgbtrf(bvp.assemble_jacobian(prof), 2, 2)
        return None if info > 0 else lambda b: bvp.dgbtrs(lu, 2, 2, b, piv)[0]

    def evaluate(values):
        prof = at(values)
        return bvp.assemble_residual(prof), lambda: factor(prof)

    values, iters = newton.solve(evaluate, work.values, opts.tol, opts.tol,
                                 opts.max_iters)
    sol = at(values)
    return sol.replace(residual_norm=bvp.residual_norm(sol), converged=True,
                       newton_iters=iters)


def reference_cases():
    """One converging solve per bc, on meshes of 300-600 intervals."""
    half = bvp.Mesh.uniform(0.0, 30.0, 300)
    spec = pat.FamilySpec
    f0 = bvp.solve_profile(N02, pat.guess_factory(spec("basic", 0, n=0.2), half, N02))
    p15 = N02.with_p(1.5)
    return {
        "symmetry": (N02, pat.guess_factory(spec("basic", 0, n=0.2), half, N02)),
        "antisymmetry": (N02.with_p(1.21), pat.guess_factory(
            spec("basic", 1, n=0.2), half, N02, template=f0)),
        "dirichlet-far": (p15, pat.guess_factory(
            spec("basic", 0, n=0.2), bvp.Mesh.uniform(-30.0, 30.0, 600), p15)),
        "q-plateau": (p15, pat.guess_factory(
            spec("q_type", separation=4.0, n=0.2),
            bvp.Mesh.uniform(-2.0, 30.0, 320), p15)),
    }


class TestReferenceIteration:
    @pytest.mark.parametrize("bc", bvp.BC_CHOICES)
    def test_solve_matches_reference(self, bc):
        params, guess = reference_cases()[bc]
        assert guess.bc == bc
        sol = bvp.solve_profile(params, guess)
        ref = reference_solve(params, guess)
        assert sol.converged and ref.converged
        assert np.array_equal(sol.values, ref.values)
        assert sol.residual_norm == ref.residual_norm
        assert sol.newton_iters == ref.newton_iters

    def test_failure_matches_reference(self):
        # test_divergence_reported's 100x dipole: the same message, best
        # iterate and LU count
        bad = bvp.Profile(HALF_MESH, 100.0 * DIPOLE, N02, "antisymmetry")
        with pytest.raises(bvp.NewtonError) as got:
            bvp.solve_profile(N02, bad)
        with pytest.raises(bvp.NewtonError) as ref:
            reference_solve(N02, bad)
        assert str(got.value) == str(ref.value)
        assert got.value.newton_iters == ref.value.newton_iters
        best = got.value.best
        assert np.array_equal(best.values, bvp._project_bc(ref.value.best, "antisymmetry"))
        assert best.residual_norm == bvp.residual_norm(best)
        assert not best.converged and best.newton_iters == ref.value.newton_iters


class TestEpsContinuation:
    def test_single_entry_equals_plain_solve(self, f0_profile):
        res = bvp.eps_continuation(N02, f0_profile, [1e-2])
        direct = bvp.solve_profile(N02.with_eps(1e-2), f0_profile)
        assert res.converged
        assert np.array_equal(res.values, direct.values)

    def test_cauchy_sequence(self, f0_profile):
        schedule = [1e-2, 5e-3, 2e-3, 1e-3]
        profiles = []
        cur = f0_profile
        for eps in schedule:
            cur = bvp.solve_profile(N02.with_eps(eps), cur)
            assert cur.converged
            profiles.append(cur)
        dists = [np.max(np.abs(b.values - a.values))
                 for a, b in zip(profiles, profiles[1:])]
        assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))

    def test_diverging_stage_recorded(self):
        # the first stage fails: its NewtonError propagates, carrying the
        # best iterate at the failing eps
        guess = bvp.Profile(HALF_MESH, 100.0 * DIPOLE, N02, "antisymmetry")
        with pytest.raises(bvp.NewtonError) as exc:
            bvp.eps_continuation(N02, guess, [0.02, 0.01])
        assert not exc.value.best.converged
        assert exc.value.best.params.eps == 0.02

    def test_schedule_validation(self, f0_profile):
        with pytest.raises(ValueError):
            bvp.eps_continuation(N02, f0_profile, [1e-2, 1e-2])
        with pytest.raises(ValueError):
            bvp.eps_continuation(N02, f0_profile, [5e-3, 1e-3])
        with pytest.raises(ValueError):
            bvp.eps_continuation(N02, f0_profile, [1e-2, 1e-5])
        with pytest.raises(ValueError):
            bvp.eps_continuation(N02, f0_profile, [])


class TestSerialization:
    def test_round_trip_bit_exact(self, f0_profile, tmp_path):
        path = tmp_path / "f0.csv"
        bvp.save_profile([f0_profile], path)
        back = bvp.load_profile(path)
        assert np.array_equal(back.values, f0_profile.values)
        assert np.array_equal(back.mesh.nodes, f0_profile.mesh.nodes)
        assert back.params == f0_profile.params
        assert back.bc == f0_profile.bc
        assert back.converged == f0_profile.converged

    def test_residual_norm_recomputed_on_load(self, f0_profile, tmp_path):
        path = tmp_path / "f0.csv"
        bvp.save_profile([f0_profile], path)
        # tamper with the stored metadata: the loader must not trust it
        meta = path.with_suffix(".json")
        text = meta.read_text().replace(
            f"{f0_profile.residual_norm}", "999.0")
        meta.write_text(text)
        back = bvp.load_profile(path)
        assert back.residual_norm == pytest.approx(
            bvp.residual_norm(f0_profile), rel=1e-12)


    def test_records_round_trip_by_column(self, f0_profile, tmp_path):
        # a branch's records share n, eps, bc and mesh; each column loads
        # back bit for bit with its own p and LU count
        profs = [f0_profile.replace(values=f0_profile.values * scale,
                                    params=f0_profile.params.with_p(p),
                                    newton_iters=k)
                 for k, (scale, p) in enumerate([(1.0, 1.2), (-0.5, 1.25),
                                                 (2.0, 1.3)])]
        path = tmp_path / "records.csv"
        bvp.save_profile(profs, path)
        assert path.read_text().splitlines()[0] == "F,F,F"
        for k, prof in enumerate(profs):
            back = bvp.load_profile(path, k)
            assert np.array_equal(back.values, prof.values)
            assert np.array_equal(back.mesh.nodes, prof.mesh.nodes)
            assert back.params == prof.params
            assert back.newton_iters == k
        # only the untouched column still meets its stored residual
        assert [bvp.load_profile(path, k).converged for k in range(3)] == [
            True, False, False]
        for k in (3, -1):
            with pytest.raises(ValueError, match="out of range"):
                bvp.load_profile(path, k)

    def test_records_npy_round_trip_by_row(self, f0_profile, tmp_path):
        # a branch's records.npy: record k is row k, bit for bit, read
        # into an array of its own
        rng = np.random.default_rng(3)
        size = f0_profile.values.size
        profs = [f0_profile.replace(
                     values=rng.standard_normal(size) * np.exp(
                         rng.uniform(-40.0, 40.0, size)),
                     params=f0_profile.params.with_p(p), newton_iters=k)
                 for k, p in enumerate([1.2, 1.25, 1.3, 1.35])]
        profs[1].values[:3] = (-0.0, 5e-324, 0.1)
        path = tmp_path / "records.npy"
        bvp.save_profile(profs, path)
        for k, prof in enumerate(profs):
            back = bvp.load_profile(path, k)
            assert back.values.tobytes() == prof.values.tobytes()
            assert type(back.values) is np.ndarray and back.values.flags.owndata
            assert np.array_equal(back.mesh.nodes, prof.mesh.nodes)
            assert back.params == prof.params
            assert back.bc == prof.bc
            assert back.newton_iters == k

    def test_records_npy_header(self, f0_profile, tmp_path):
        # NEP 1 format 1.0, padded to 128 bytes: replay's byte comparison
        # needs the same header from every numpy the package supports
        k, m = 3, f0_profile.mesh.m
        path = tmp_path / "records.npy"
        bvp.save_profile([f0_profile] * k, path)
        header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': ({k}, {m + 1}), }}"
        raw = path.read_bytes()
        assert raw[:128] == (b"\x93NUMPY\x01\x00" + (118).to_bytes(2, "little")
                             + header.ljust(117).encode() + b"\n")
        assert len(raw) == 128 + 8 * k * (m + 1)

    @pytest.mark.parametrize("edit", [
        lambda t: t.astype(np.float32),
        lambda t: t[0],
        lambda t: t[:-1],
        lambda t: t[:, :-1],
    ], ids=["float32", "1-d", "row-short", "node-short"])
    def test_records_npy_dtype_and_shape_checked(self, f0_profile, tmp_path,
                                                 edit):
        path = tmp_path / "records.npy"
        bvp.save_profile([f0_profile, f0_profile], path)
        np.save(path, edit(np.load(path)))
        with pytest.raises(ValueError, match="<f8 array of shape"):
            bvp.load_profile(path)

    @pytest.mark.parametrize("change", [
        {"bc": "antisymmetry"},
        {"params": ProblemParams(0.2, 1.3, 5e-3)},
        {"mesh": bvp.Mesh.uniform(0.0, 40.0, 2000)},
    ], ids=["bc", "eps", "mesh"])
    def test_records_must_share_mesh_and_problem(self, f0_profile, tmp_path,
                                                 change):
        path = tmp_path / "records.csv"
        with pytest.raises(ValueError, match="share"):
            bvp.save_profile([f0_profile, f0_profile.replace(**change)], path)
        assert not path.exists()

    def test_sidecar_without_records_refused(self, f0_profile, tmp_path):
        # the one-record sidecar of the earlier format held p, converged,
        # residual_norm and newton_iters at the top level
        path = tmp_path / "f0.csv"
        sidecar = bvp.save_profile([f0_profile], path)
        meta = json.loads(sidecar.read_text())
        meta.update(meta.pop("records")[0])
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="records"):
            bvp.load_profile(path)

    def test_header_must_match_sidecar(self, f0_profile, tmp_path):
        path = tmp_path / "f0.csv"
        bvp.save_profile([f0_profile], path)
        rows = path.read_text().splitlines()
        path.write_text("\n".join(f"{row},{row}" for row in rows) + "\n")
        with pytest.raises(ValueError, match="columns"):
            bvp.load_profile(path)

    # the half domain, the glue domain [-R, R] with 2N intervals and the
    # q-type domain [s - 6, R] at two separations
    @pytest.mark.parametrize("kind, separation, bc", [
        ("basic", 7.5, "symmetry"),
        ("glue_pp", 7.5, "dirichlet-far"),
        ("q_type", 7.5, "q-plateau"),
        ("q_type", 4.0, "q-plateau"),
    ])
    def test_round_trip_every_cli_mesh(self, tmp_path, kind, separation, bc):
        mesh = cli._family_mesh(pat.FamilySpec(kind, 2, separation=separation),
                                50.0, 2000)
        rng = np.random.default_rng(7)
        values = rng.standard_normal(mesh.nodes.size) * np.exp(
            rng.uniform(-40.0, 40.0, mesh.nodes.size))
        values[:3] = (-0.0, 1e-300, 0.1)
        prof = bvp.Profile(mesh, values, ProblemParams(0.2, 1.5, 1e-2), bc)
        path = tmp_path / "prof.csv"
        bvp.save_profile([prof], path)
        assert path.read_text().splitlines()[0] == "F"
        back = bvp.load_profile(path)
        assert np.array_equal(back.values, prof.values)
        assert np.signbit(back.values[0])
        assert np.array_equal(back.mesh.nodes, mesh.nodes)
        assert back.bc == bc

    def test_full_extension_mesh_refused(self, f0_profile, tmp_path):
        # the mirrored nodes miss np.linspace(-R, R, 2m + 1) by ~1e-14
        path = tmp_path / "full.csv"
        with pytest.raises(ValueError, match="Mesh.uniform"):
            bvp.save_profile([f0_profile.full_extension()], path)
        assert not path.exists()

    def test_missing_row_rejected(self, f0_profile, tmp_path):
        path = tmp_path / "f0.csv"
        bvp.save_profile([f0_profile], path)
        rows = path.read_text().splitlines()
        path.write_text("\n".join(rows[:50] + rows[51:]) + "\n")
        with pytest.raises(ValueError, match="intervals"):
            bvp.load_profile(path)

    def test_write_csv_matches_row_formatter(self, tmp_path):
        def reference(header, columns):
            # the per-row str.format writer that the one-call format replaced
            fmt = ",".join(["{:.17g}"] * len(columns)).format
            rows = zip(*(np.asarray(c).tolist() for c in columns))
            return "\n".join([header, *(fmt(*row) for row in rows)]) + "\n"

        columns = [
            [0, 1, -7, 2 ** 53, 12345678901234567],
            [True, False, True, False, True],
            [-0.0, math.nan, math.inf, -math.inf, 1e-300],
            [0.1, 1 / 3, -2.0 / 7.0, 1.2345678901234567e-5, 5e-324],
            np.array([math.pi, -math.e, 1e300, 123456789.12345678, 0.5]),
        ]
        path = tmp_path / "t.csv"
        bvp.write_csv(path, "a,b,c,d,e", columns)
        assert path.read_bytes() == reference("a,b,c,d,e", columns).encode()
        bvp.write_csv(path, "x", [[]])
        assert path.read_bytes() == reference("x", [[]]).encode()


    @staticmethod
    def _one_shot(header, table):
        # the one %-format over the whole table that the row blocks replaced
        body = (",".join(["%.17g"] * table.shape[1]) + "\n") * table.shape[0]
        return (header + "\n" + body % tuple(table.ravel().tolist())).encode()

    # several blocks with a short last one; one row; more columns than a
    # block's budget (one row per block); the default budget on a wide table
    @pytest.mark.parametrize("rows, cols, budget", [
        (10, 3, 7), (1, 3, 7), (5, 9, 4), (300, 97, None)])
    def test_write_csv_row_blocks(self, tmp_path, monkeypatch, rows, cols,
                                  budget):
        if budget is not None:
            monkeypatch.setattr(bvp, "CSV_BLOCK_VALUES", budget)
        rng = np.random.default_rng(rows * cols)
        table = rng.standard_normal((rows, cols)) * np.exp(
            rng.uniform(-700.0, 700.0, (rows, cols)))
        table.flat[:3] = (-0.0, 5e-324, 1e308)[:table.size]
        header = ",".join(["F"] * cols)
        path = tmp_path / "t.csv"
        bvp.write_csv(path, header, table.T)
        assert path.read_bytes() == self._one_shot(header, table)
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(back, table)
        assert np.array_equal(np.signbit(back), np.signbit(table))

    def test_write_csv_rejects_ragged_columns(self, tmp_path, monkeypatch):
        # the short column ends after the first block
        monkeypatch.setattr(bvp, "CSV_BLOCK_VALUES", 4)
        with pytest.raises(ValueError, match="equal length"):
            bvp.write_csv(tmp_path / "t.csv", "a,b", [np.ones(6), np.ones(5)])

class TestPeriodicOrbit:
    def test_range_matches_published_values(self, orbit_n02):
        assert orbit_n02.min_val == pytest.approx(0.4135, abs=1e-2)
        assert orbit_n02.max_val == pytest.approx(1.4085, abs=1e-2)

    def test_orbit_brackets_equilibrium(self, orbit_n02):
        assert orbit_n02.min_val < 1.0 < orbit_n02.max_val

    def test_extremes_match_resample(self, orbit_n02):
        # F' vanishes only at the half period's ends: the start and the
        # half return
        assert orbit_n02.min_val == orbit_n02.a == orbit_n02.values[0]
        assert orbit_n02.max_val == orbit_n02.values[-1]
        assert (np.diff(orbit_n02.values) > 0.0).all()
        F = bvp.orbit_samples(orbit_n02, np.linspace(0.0, orbit_n02.period, 4001))
        assert orbit_n02.max_val == pytest.approx(np.max(F), abs=1e-9)
        assert np.min(F) >= orbit_n02.min_val - 1e-9

    def test_samples_reflect_the_half_period(self, orbit_n02):
        # periodic with the period, even about 0 and the half period, and
        # the stored values at the nodes
        T, v = orbit_n02.period, orbit_n02.values
        ts = np.linspace(0.0, 0.5 * T, v.size)
        assert np.array_equal(bvp.orbit_samples(orbit_n02, ts), v)
        s = np.linspace(0.0, T, 333)
        F = bvp.orbit_samples(orbit_n02, s)
        assert np.max(np.abs(F - bvp.orbit_samples(orbit_n02, s + 3.0 * T))) <= 1e-12
        assert np.max(np.abs(F - bvp.orbit_samples(orbit_n02, T - s))) <= 1e-12
        assert np.max(np.abs(F - bvp.orbit_samples(orbit_n02, -s))) <= 1e-12

    def test_counts(self, orbit_n02):
        # LUs: the crude start's stage, and the full steps to the floor
        assert list(orbit_n02.counts) == ["lus"]
        assert 1 <= orbit_n02.counts["lus"] <= 8

    def test_reflected_period_solves(self, orbit_n02):
        # closure by construction: the half period reflected is one full
        # period with even ends, whose rows 0..m are the half period's bit
        # for bit, and from which Newton's first correction is within TOL
        m, v, T = bvp.ORBIT_INTERVALS, orbit_n02.values, orbit_n02.period
        half, _ = bvp._orbit_system(0.2, m)(np.append(v, 0.5 * T))
        full = np.append(np.concatenate([v, v[-2::-1]]), T)
        res, _ = bvp._orbit_system(0.2, 2 * m)(full)
        assert np.array_equal(res[:m + 1], half[:-1])
        assert res[-1] == half[-1]
        assert newton.solve(bvp._orbit_system(0.2, 2 * m), full, 1.0,
                            bvp.TOL, 1)[1] == 1

    def test_observed_order_is_two(self, monkeypatch):
        periods = []
        for m in (500, 1000, 2000):
            monkeypatch.setattr(bvp, "ORBIT_INTERVALS", m)
            periods.append(bvp.shoot_periodic_full(0.2, 1, 0.45).period)
        order = math.log2((periods[1] - periods[0]) / (periods[2] - periods[1]))
        assert order == pytest.approx(2.0, abs=0.3)

    def test_mirror_orbit(self, orbit_n02):
        mirrored = bvp.shoot_periodic_full(0.2, -1, -0.45)
        assert mirrored.min_val == pytest.approx(-orbit_n02.max_val, abs=1e-6)
        assert mirrored.max_val == pytest.approx(-orbit_n02.min_val, abs=1e-6)

    def test_equilibrium_start_rejected(self):
        with pytest.raises(ValueError, match="constant orbit"):
            bvp.shoot_periodic_full(0.2, 1, 1.0)

    def test_singular_factor_names_its_stage(self, monkeypatch):
        monkeypatch.setattr(bvp, "_bordered_solver", lambda *args: None)
        with pytest.raises(RuntimeError, match=r"stage n = 0\.2: singular factor "
                                               r"at Newton step 0"):
            bvp.shoot_periodic_full(0.2, 1, 0.45)

    def test_wrong_side_rejected(self):
        with pytest.raises(ValueError):
            bvp.shoot_periodic_full(0.2, 1, -0.45)

    @pytest.mark.parametrize("a_init", [0.1, 0.3, 0.44, 0.46, 0.6, 0.9])
    def test_starts_on_both_sides_agree(self, orbit_n02, a_init):
        # starts below and above the orbit's minimum reach the same orbit
        orbit = bvp.shoot_periodic_full(0.2, 1, a_init)
        assert orbit.a == pytest.approx(orbit_n02.a, abs=1e-12)
        assert type(orbit.a) is type(orbit.max_val) is float

    @pytest.mark.parametrize("n", [1.5, 2.0, 3.0])
    def test_larger_n_closes(self, n):
        # the stages in n end on a solution of the last stage's system:
        # Newton's first correction from it is within TOL
        orbit = bvp.shoot_periodic_full(n, 1, 0.45)
        m = bvp.ORBIT_INTERVALS
        x = np.append(orbit.values, 0.5 * orbit.period)
        assert newton.solve(bvp._orbit_system(n, m), x, 1.0, bvp.TOL, 1)[1] == 1
        assert orbit.min_val < 1.0 < orbit.max_val

    def test_n5_converges_on_the_default_mesh(self):
        # the dop853 shooter failed closure here (jet mismatch 1.7e-8)
        orbit = bvp.shoot_periodic_full(5.0, 1, 0.45)
        assert orbit.period == pytest.approx(3.5614, abs=2e-4)
        assert orbit.min_val < 1.0 < orbit.max_val

    def test_newton_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(bvp.newton, "MAX_ITERS", 2)
        with pytest.raises(RuntimeError, match=r"stage n = 0\.2: no convergence "
                                               r"in 2 Newton steps"):
            bvp.shoot_periodic_full(0.2, 1, 0.45)

    def test_half_period_band_matches_finite_differences(self):
        # the even right end keeps row m; its ghosts fold into columns
        # m-1 and m-2
        m = 80
        rng = np.random.default_rng(7)
        F = 0.5 + rng.random(m + 1)
        stencil = bvp._Stencil(bvp.Mesh.uniform(0.0, 4.0, m),
                               ProblemParams(0.7, 1.7, 0.0), "half-period")
        r0, band = stencil.evaluate(F)
        J = band_to_dense(band())
        step = 1e-7
        fd = np.column_stack([(stencil.evaluate(F + step * e)[0] - r0) / step
                              for e in np.eye(m + 1)])
        assert np.max(np.abs(fd - J)) <= 1e-5 * np.max(np.abs(J))
        assert "half-period" not in bvp.BC_CHOICES

    def test_bordered_solver_with_corner(self):
        # [[A, col], [row^T, corner]] against numpy's dense solve
        rng = np.random.default_rng(11)
        N = 90
        ab = np.zeros((7, N), order="F")
        ab[2:] = rng.standard_normal((5, N))
        ab[4] += 6.0
        col, row, b = (rng.standard_normal(N), rng.standard_normal(N),
                       rng.standard_normal(N + 1))
        M = np.block([[band_to_dense(ab), col[:, None]],
                      [row[None, :], np.full((1, 1), 2.5)]])
        z = bvp._bordered_solver(ab, col, row, 2.5)(b)
        assert np.max(np.abs(z - np.linalg.solve(M, b))) <= 1e-12 * np.max(np.abs(z))
