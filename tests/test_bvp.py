import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blowuplab.bvp as bvp
import blowuplab.cli as cli
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


def banded_to_dense(ab):
    """Dense matrix of a (2, 2)-banded Jacobian in solve_banded storage."""
    m1 = ab.shape[1]
    J = np.zeros((m1, m1))
    for i in range(m1):
        for j in range(max(0, i - 2), min(m1, i + 3)):
            J[i, j] = ab[2 + i - j, j]
    return J


def jacobian_fd_error(prof, step=1e-7):
    """Column-wise relative mismatch of the analytic Jacobian against
    forward finite differences of the residual."""
    J = banded_to_dense(bvp.assemble_jacobian(prof))
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


class TestLinearLimit:
    def test_adjoint_quartic_in_discrete_kernel(self):
        # residual of (y^4+24)/sqrt(24) is -y^2 h^2 / sqrt(24) exactly for
        # these stencils: pure O(h^2), order >= 1.9 under mesh doubling
        errs = []
        for m in (500, 1000):
            mesh = bvp.Mesh.uniform(-20.0, 20.0, m)
            psi4 = spectral.adjoint_eigenfunction(4)
            res = bvp.linear_limit_residual(mesh, psi4(mesh.nodes))
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
        # one Jacobian and one banded LU per Newton iteration; from the
        # neighbouring p the iteration keeps its quadratic convergence
        calls = {"jacobian": 0, "lu": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(bvp, "assemble_jacobian",
                            counted("jacobian", bvp.assemble_jacobian))
        monkeypatch.setattr(bvp, "dgbtrf", counted("lu", bvp.dgbtrf))
        sol = bvp.solve_profile(N02.with_p(1.25), f0_profile)
        assert sol.converged and sol.newton_iters <= 6
        assert calls == {"jacobian": sol.newton_iters, "lu": sol.newton_iters}


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


class TestTailFrequency:
    def test_predicted_formula(self):
        mesh = bvp.Mesh.uniform(0.0, 60.0, 6000)
        y = mesh.nodes
        freq = 0.89
        vals = np.exp(-0.05 * y) * np.cos(freq * y)
        prof = bvp.Profile(mesh, vals, N02, "symmetry")
        measured, predicted = bvp.tail_frequency_estimate(prof)
        assert predicted == pytest.approx(
            math.sqrt(2.0) / 2.0 * 1e-2 ** (-0.05), rel=1e-12)
        assert predicted == pytest.approx(0.8902, abs=2e-4)

    def test_predicted_at_unit_eps(self):
        mesh = bvp.Mesh.uniform(0.0, 60.0, 6000)
        prof = bvp.Profile(mesh, np.cos(mesh.nodes), N02.with_eps(1.0),
                           "symmetry")
        _, predicted = bvp.tail_frequency_estimate(prof)
        assert predicted == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)

    def test_measurement_recovers_synthetic_frequency(self):
        mesh = bvp.Mesh.uniform(0.0, 60.0, 6000)
        y = mesh.nodes
        freq = 0.8902
        vals = np.exp(-0.05 * y) * np.cos(freq * y + 0.3)
        prof = bvp.Profile(mesh, vals, N02, "symmetry")
        measured, predicted = bvp.tail_frequency_estimate(prof)
        assert measured == pytest.approx(freq, rel=1e-3)

    def test_no_tail_zeros(self):
        mesh = bvp.Mesh.uniform(0.0, 10.0, 100)
        prof = bvp.Profile(mesh, np.zeros(101), N02, "symmetry")
        with pytest.raises(ValueError, match="too few"):
            bvp.tail_frequency_estimate(prof)


class TestSerialization:
    def test_round_trip_bit_exact(self, f0_profile, tmp_path):
        path = tmp_path / "f0.csv"
        bvp.save_profile(f0_profile, path)
        back = bvp.load_profile(path)
        assert np.array_equal(back.values, f0_profile.values)
        assert np.array_equal(back.mesh.nodes, f0_profile.mesh.nodes)
        assert back.params == f0_profile.params
        assert back.bc == f0_profile.bc
        assert back.converged == f0_profile.converged

    def test_residual_norm_recomputed_on_load(self, f0_profile, tmp_path):
        path = tmp_path / "f0.csv"
        bvp.save_profile(f0_profile, path)
        # tamper with the stored metadata: the loader must not trust it
        meta = path.with_suffix(".json")
        text = meta.read_text().replace(
            f"{f0_profile.residual_norm}", "999.0")
        meta.write_text(text)
        back = bvp.load_profile(path)
        assert back.residual_norm == pytest.approx(
            bvp.residual_norm(f0_profile), rel=1e-12)


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
        bvp.save_profile(prof, path)
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
            bvp.save_profile(f0_profile.full_extension(), path)
        assert not path.exists()

    def test_missing_row_rejected(self, f0_profile, tmp_path):
        path = tmp_path / "f0.csv"
        bvp.save_profile(f0_profile, path)
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


class TestPeriodicOrbit:
    def test_range_matches_published_values(self, orbit_n02):
        assert orbit_n02.min_val == pytest.approx(0.4135, abs=1e-2)
        assert orbit_n02.max_val == pytest.approx(1.4085, abs=1e-2)

    def test_orbit_brackets_equilibrium(self, orbit_n02):
        assert orbit_n02.min_val < 1.0 < orbit_n02.max_val

    def test_jet_closure(self, orbit_n02):
        legs = bvp._orbit_shot(0.2, orbit_n02.a, orbit_n02.b)
        jetT = bvp._terminal_jet(0.2, legs[-1].y[:, -1])
        jet0 = (orbit_n02.a, 0.0, orbit_n02.b, 0.0)
        assert max(abs(x - y) for x, y in zip(jet0, jetT)) <= 1e-8

    def test_mirror_orbit(self, orbit_n02):
        mirrored = bvp.shoot_periodic_full(0.2, -1, -0.45)
        assert mirrored.min_val == pytest.approx(-orbit_n02.max_val, abs=1e-6)
        assert mirrored.max_val == pytest.approx(-orbit_n02.min_val, abs=1e-6)

    def test_equilibrium_start_rejected(self):
        with pytest.raises(ValueError, match="constant orbit"):
            bvp.shoot_periodic_full(0.2, 1, 1.0)

    def test_wrong_side_rejected(self):
        with pytest.raises(ValueError):
            bvp.shoot_periodic_full(0.2, 1, -0.45)
