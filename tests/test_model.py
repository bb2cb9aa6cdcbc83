import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blowuplab.bvp as bvp
import blowuplab.model as model
import blowuplab.oscillation as osc
from blowuplab.model import ProblemParams


class TestDerivedParams:
    """What the solver derives from (n, p): the drift coefficient
    bt = (p-1) beta, the unit equilibria and the tail exponents."""

    def test_regional_beta_vanishes(self):
        assert bvp._beta_tilde(ProblemParams(0.2, 1.2)) == 0.0

    def test_linear_limit_beta_quarter(self):
        # at n = 0 the similarity exponent beta = bt/(p-1) is 1/4 for every p
        for p in (1.5, 2.0, 4.0):
            beta = bvp._beta_tilde(ProblemParams(0.0, p)) / (p - 1.0)
            assert beta == pytest.approx(0.25, rel=1e-15)

    def test_equilibrium_amplitude(self):
        # in unit-equilibrium variables the constants +-1 solve the
        # equation exactly in every regime
        mesh = bvp.Mesh.uniform(0.0, 10.0, 200)
        for n, p in ((0.2, 1.2), (0.2, 3.0), (1.0, 1.5)):
            for amp in (1.0, -1.0):
                prof = bvp.Profile(mesh, np.full(201, amp),
                                   ProblemParams(n, p), "symmetry")
                assert bvp.residual_norm(prof) == 0.0

    def test_tail_fields_absent_unless_single_point(self):
        for p in (1.1, 1.2):  # global, regional
            with pytest.raises(ValueError, match="p > n\\+1"):
                model.tail_exponents(ProblemParams(0.2, p), 1.0)
        gamma, nu, b0 = model.tail_exponents(ProblemParams(0.2, 1.5), 1.0)
        assert gamma < 0.0 and nu > 0.0 and b0 > 0.0

    @given(n=st.floats(0.01, 5.0), p=st.floats(1.01, 8.0))
    @settings(max_examples=200)
    def test_regime_matches_beta_sign(self, n, p):
        bt = bvp._beta_tilde(ProblemParams(n, p))
        regime = model.regime(n, p)
        if regime == model.REGIONAL:
            assert bt == 0.0
        elif regime == model.SINGLE_POINT:
            assert bt > 0
        else:
            assert bt < 0


class TestTailExponents:
    def test_frozen_values(self):
        g, nu, b0 = model.tail_exponents(ProblemParams(0.2, 1.5), 1.0)
        assert g == pytest.approx(-44.0 / 3.0, rel=1e-12)
        assert nu == pytest.approx(22.0 / 9.0, rel=1e-12)
        assert b0 > 0

    def test_gamma_is_drift_mass_balance(self):
        # the algebraic tail solves -beta y f' - f/(p-1) = 0 to leading
        # order, i.e. gamma = -1/beta_tilde: an independent derivation
        for (n, p) in [(0.2, 1.5), (0.5, 2.5), (0.0, 2.0)]:
            bt = bvp._beta_tilde(ProblemParams(n, p))
            g, _, _ = model.tail_exponents(ProblemParams(n, p), 1.0)
            assert g == pytest.approx(-1.0 / bt, rel=1e-12)

    def test_linear_limit_nu(self):
        for p in (1.3, 2.0, 4.0):
            _, nu, _ = model.tail_exponents(ProblemParams(0.0, p), 1.0)
            assert nu == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_regime_violation(self):
        with pytest.raises(ValueError):
            model.tail_exponents(ProblemParams(0.2, 1.2), 1.0)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError):
            model.tail_exponents(ProblemParams(0.2, 1.5), 0.0)

    def test_negative_amplitude_sign_obstruction(self):
        with pytest.raises(ValueError, match="sign obstruction"):
            model.tail_exponents(ProblemParams(0.2, 1.5), -1.0)

    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    def test_solved_tail_matches_gamma(self, f0_branch_up, p):
        # least-squares slope of ln F against ln y on the algebraic tail
        # of the solved F0 profile
        prof = next(r.profile for r in f0_branch_up.records if r.p == p)
        y, F = prof.mesh.nodes, prof.values
        window = (y >= 15.0) & (y <= 40.0)
        assert np.all(F[window] > 0.0)
        slope, intercept = np.polyfit(np.log(y[window]), np.log(F[window]), 1)
        gamma, _, b0 = model.tail_exponents(prof.params, np.exp(intercept))
        assert slope == pytest.approx(gamma, rel=1e-3)
        assert b0 > 0.0


class TestFinalTimeProfile:
    def test_power_law(self):
        # (T-t)^(-1/(p-1)) C0 (x/(T-t)^beta)^gamma does not depend on T-t:
        # the tail freezes into the final-time profile C0 x^gamma
        params = ProblemParams(0.2, 1.5)
        gamma, _, _ = model.tail_exponents(params, 1.0)
        beta = bvp._beta_tilde(params) / (params.p - 1.0)
        for tau in (1e-2, 1e-4, 1e-6):
            u = tau ** (-1.0 / (params.p - 1.0)) * (2.0 / tau ** beta) ** gamma
            assert u == pytest.approx(2.0 ** (-44.0 / 3.0), rel=1e-12)

    def test_linear_in_amplitude(self):
        # the tail is linear in C0: gamma and nu do not see it, and the
        # rate coefficient scales as C0^(-n/3)
        for n, p in ((0.2, 1.5), (0.0, 2.0), (1.0, 4.0)):
            params = ProblemParams(n, p)
            g1, nu1, b1 = model.tail_exponents(params, 1.0)
            g2, nu2, b2 = model.tail_exponents(params, 3.3)
            assert (g2, nu2) == (g1, nu1)
            assert b2 == pytest.approx(b1 * 3.3 ** (-n / 3.0), rel=1e-13)


class TestPkOperators:
    def test_p0_is_identity(self):
        assert model.pk_coefficients(0, 5.0) == (1.0,)

    def test_p1_on_constants(self):
        # P_1(phi) = phi' + mu phi
        assert model.pk_coefficients(1, 5.0) == (5.0, 1.0)

    @pytest.mark.parametrize("mu", np.linspace(2.3, 17.0, 10))
    def test_recursion_matches_explicit_displays(self, mu):
        # P_2, P_3, P_4 coefficient vectors in ascending derivative order
        p2 = (mu * (mu - 1), 2 * mu - 1, 1.0)
        p3 = (mu * (mu - 1) * (mu - 2), 3 * mu**2 - 6 * mu + 2,
              3 * (mu - 1), 1.0)
        p4 = (mu * (mu - 1) * (mu - 2) * (mu - 3),
              2 * (2 * mu**3 - 9 * mu**2 + 11 * mu - 3),
              6 * mu**2 - 18 * mu + 11, 2 * (2 * mu - 3), 1.0)
        assert np.allclose(model.pk_coefficients(2, mu), p2, rtol=1e-13)
        assert np.allclose(model.pk_coefficients(3, mu), p3, rtol=1e-13)
        assert np.allclose(model.pk_coefficients(4, mu), p4, rtol=1e-13)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 2**31))
    @settings(max_examples=60)
    def test_linearity(self, a, b, seed):
        # P_2 of a jet, read back from the shooter's flux v = |P_2|^n P_2
        rng = np.random.default_rng(seed)
        j1 = rng.standard_normal(3)
        j2 = rng.standard_normal(3)
        n, mu = 0.75, 5.5

        def p2(jet):
            return osc._spow(osc._jet_to_flux(jet, n, mu)[2], 1.0 / (n + 1.0))

        lhs = p2(a * j1 + b * j2)
        rhs = a * p2(j1) + b * p2(j2)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
