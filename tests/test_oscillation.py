import numpy as np
import pytest

import blowuplab.newton as newton
import blowuplab.oscillation as osc
from blowuplab.oscillation import OscState


class TestRhs:
    def test_origin_is_equilibrium(self):
        tr = osc.integrate_osc(OscState(0.0, 0.0, 0.0, 0.0), 1.0, 5.0, -1,
                               (0.0, 5.0))
        assert np.all(tr.phi == 0.0) and np.all(tr.phi2 == 0.0)

    def test_equilibrium_value_frozen(self):
        # [(n+1)(mu-2)]^(-1/n) [mu(mu-1)]^(-(n+1)/n) at n=1, mu=5
        assert osc.equilibrium_value(1.0, 5.0) == pytest.approx(1.0 / 2400.0,
                                                                rel=1e-13)

    def test_sign_validation(self):
        with pytest.raises(ValueError, match="lambda_sign"):
            osc.integrate_osc(OscState(0.0, 1e-3, 0.0, 0.0), 1.0, 5.0, 2,
                              (0.0, 1.0))


class TestIntegrate:
    def test_equilibrium_stays_put(self):
        n, mu = 1.0, 5.0
        eq = osc.equilibrium_value(n, mu)
        tr = osc.integrate_osc(OscState(0.0, eq, 0.0, 0.0), n, mu, +1,
                               (0.0, 20.0), tol=1e-10)
        assert np.max(np.abs(tr.phi - eq)) <= 1e-9 * eq

    def test_translation_invariance(self):
        # autonomous equation: shifting the window shifts the trajectory
        n, mu = 1.0, 5.0
        init = OscState(0.0, 3e-4, 0.0, 0.0)
        a = osc.integrate_osc(init, n, mu, -1, (0.0, 30.0), tol=1e-10,
                              sample_points=np.linspace(0.0, 30.0, 500))
        shifted = OscState(7.0, 3e-4, 0.0, 0.0)
        b = osc.integrate_osc(shifted, n, mu, -1, (7.0, 37.0), tol=1e-10,
                              sample_points=np.linspace(7.0, 37.0, 500))
        assert np.max(np.abs(a.phi - b.phi)) <= 10.0 * 1e-10

    def test_positive_branch_equilibria_attract(self):
        n, mu = 1.0, 5.0
        eq = osc.equilibrium_value(n, mu)
        for c0 in (0.3 * eq, -1.7 * eq):
            tr = osc.integrate_osc(OscState(0.0, c0, 0.0, 0.0), n, mu, +1,
                                   (0.0, 40.0))
            assert abs(abs(tr.phi[-1]) / eq - 1.0) <= 1e-6

    def test_negative_branch_stays_bounded_and_oscillates(self):
        n, mu = 1.0, 5.0
        eq = osc.equilibrium_value(n, mu)
        tr = osc.integrate_osc(OscState(0.0, 0.3 * eq, 0.0, 0.0), n, mu, -1,
                               (0.0, 60.0))
        tail = tr.phi[tr.s > 30.0]
        assert np.max(np.abs(tail)) < 100.0 * eq
        assert np.count_nonzero(np.diff(np.sign(tail))) >= 4

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            osc.integrate_osc(OscState(0, 1, 0, 0), 1.0, 5.0, -1, (0, 1),
                              tol=1e-4)

    def test_determinism(self):
        n, mu = 1.0, 5.0
        init = OscState(0.0, 3e-4, 0.0, 0.0)
        a = osc.integrate_osc(init, n, mu, -1, (0.0, 20.0))
        b = osc.integrate_osc(init, n, mu, -1, (0.0, 20.0))
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.phi2, b.phi2)


class TestPeriodicComponent:
    def test_amplitude_orders_match_figures(self, periodic_components):
        # reported orders: ~1e-7 at n=3/4 and ~1e-2 at n=5
        assert 1e-8 <= periodic_components[0.75].amplitude <= 1e-6
        assert 1e-3 <= periodic_components[5.0].amplitude <= 1e-1

    def test_changing_sign(self, periodic_components):
        for pc in periodic_components.values():
            signs = np.count_nonzero(np.diff(np.sign(pc.samples_phi)))
            assert signs >= 2

    def test_samples_close_up(self, periodic_components):
        for pc in periodic_components.values():
            gap = abs(pc.samples_phi[-1] - pc.samples_phi[0])
            assert gap <= 1e-9 * pc.amplitude

    def test_uniqueness_evidence(self):
        # two unrelated starts land on the same orbit
        n, mu = 1.0, 5.0
        eq = osc.equilibrium_value(n, mu)
        a = osc.find_periodic_osc(n, mu, OscState(0.0, 0.5 * eq, 0.0, 0.0))
        b = osc.find_periodic_osc(n, mu, OscState(0.0, -1.3 * eq, 1e-4 * eq, 0.0))
        assert a.amplitude == pytest.approx(b.amplitude, rel=1e-4)
        assert a.period == pytest.approx(b.period, rel=1e-4)

    def test_zero_init_rejected(self):
        with pytest.raises(ValueError):
            osc.find_periodic_osc(1.0, 5.0, OscState(0.0, 0.0, 0.0, 0.0))

    def test_multipliers_inside_unit_circle(self, periodic_components):
        for pc in periodic_components.values():
            assert pc.multipliers.shape == (2,)
            assert np.all(np.abs(pc.multipliers) < 1.0)

    def test_newton_failure_reports_residual(self, monkeypatch):
        # the start is no periodic point, so one Newton step cannot meet
        # the stopping test
        monkeypatch.setattr(newton, "MAX_ITERS", 1)
        with pytest.raises(RuntimeError, match=r"last residual \d"):
            osc.find_periodic_osc(1.0, 5.0, OscState(0.0, 3e-4, 0.0, 0.0))


class TestReconstruct:
    def test_envelope_bound(self, periodic_components):
        pc = periodic_components[5.0]
        y0 = 2.0
        y = np.linspace(0.2, y0 - 1e-4, 500)
        f = osc.reconstruct_interface(pc, y0, 0.0, y)
        assert np.all(np.abs(f) <= pc.amplitude * (y0 - y) ** pc.mu + 1e-300)

    def test_shift_periodicity(self, periodic_components):
        pc = periodic_components[5.0]
        y = np.linspace(0.5, 1.9, 200)
        a = osc.reconstruct_interface(pc, 2.0, 0.3, y)
        b = osc.reconstruct_interface(pc, 2.0, 0.3 + pc.period, y)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(a)), 1e-300)

    def test_zeros_accumulate_geometrically(self, periodic_components):
        pc = periodic_components[5.0]
        y0 = 3.0
        y = np.linspace(1e-6, y0 - 1e-9, 400001)
        f = osc.reconstruct_interface(pc, y0, 0.0, y)
        idx = np.nonzero(f[:-1] * f[1:] < 0)[0]
        zeros = y[idx]
        gaps = y0 - zeros
        # one period of phi_* maps to a fixed contraction factor e^(-T)
        per = np.count_nonzero(np.diff(np.sign(pc.samples_phi)))
        ratios = gaps[per:] / gaps[:-per]
        target = np.exp(-pc.period)
        close = np.abs(ratios - target) <= 0.05 * target
        assert np.mean(close) > 0.8

    def test_out_of_range_samples(self, periodic_components):
        pc = periodic_components[5.0]
        with pytest.raises(ValueError):
            osc.reconstruct_interface(pc, 2.0, 0.0, np.array([2.5]))
        with pytest.raises(ValueError):
            osc.reconstruct_interface(pc, 2.0, 0.0, np.array([-0.1]))
