import math
import tracemalloc

import numpy as np
import pytest

import blowuplab.bvp as bvp
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
                               (0.0, 20.0))
        assert np.max(np.abs(tr.phi - eq)) <= 1e-9 * eq

    def test_translation_invariance(self):
        # autonomous equation: shifting the window shifts the trajectory
        n, mu = 1.0, 5.0
        init = OscState(0.0, 3e-4, 0.0, 0.0)
        a = osc.integrate_osc(init, n, mu, -1, (0.0, 30.0))
        shifted = OscState(7.0, 3e-4, 0.0, 0.0)
        b = osc.integrate_osc(shifted, n, mu, -1, (7.0, 37.0))
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

    def test_determinism(self):
        n, mu = 1.0, 5.0
        init = OscState(0.0, 3e-4, 0.0, 0.0)
        a = osc.integrate_osc(init, n, mu, -1, (0.0, 20.0))
        b = osc.integrate_osc(init, n, mu, -1, (0.0, 20.0))
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.phi2, b.phi2)


@pytest.fixture(scope="module")
def resampled(periodic_components):
    """phi over one period of each component, integrated from its start."""
    return {n: osc.integrate_osc(pc.start, n, pc.mu, -1, (0.0, pc.period)).phi
            for n, pc in periodic_components.items()}


class TestPeriodicComponent:
    def test_amplitude_orders_match_figures(self, periodic_components):
        # reported orders: ~1e-7 at n=3/4 and ~1e-2 at n=5
        assert 1e-8 <= periodic_components[0.75].amplitude <= 1e-6
        assert 1e-3 <= periodic_components[5.0].amplitude <= 1e-1

    def test_amplitude_matches_resample(self, periodic_components, resampled):
        # the section extremes bound phi over the whole period
        for n, pc in periodic_components.items():
            assert pc.amplitude == pytest.approx(np.max(np.abs(resampled[n])),
                                                 rel=1e-6)

    def test_start_is_the_maximum(self, periodic_components):
        for pc in periodic_components.values():
            assert pc.start.s == pc.start.phi1 == 0.0
            assert pc.start.phi > 0.0 > pc.start.phi2

    def test_changing_sign(self, resampled):
        for phi in resampled.values():
            signs = np.count_nonzero(np.diff(np.sign(phi)))
            assert signs >= 2

    def test_samples_close_up(self, periodic_components, resampled):
        for n, phi in resampled.items():
            gap = abs(phi[-1] - phi[0])
            assert gap <= 1e-9 * periodic_components[n].amplitude

    def test_no_resampling_pass(self, monkeypatch):
        # the extremes come from the shot itself; the sampler is left to
        # integrate_osc, and the regional orbit is no shot at all
        def forbidden(*args, **kwargs):
            raise AssertionError("_samples called")

        monkeypatch.setattr(osc, "_samples", forbidden)
        pc = osc.find_periodic_osc(5.0, 3.6, OscState(0.0, 1e-3, 0.0, 0.0))
        orbit = bvp.shoot_periodic_full(0.2, 1, 0.45)
        assert pc.amplitude > 0.0 and orbit.max_val > 1.0

    def test_half_return_is_minus_the_start(self, periodic_components):
        # the component equation is odd, so the full return from the
        # maximum splits into two equal legs, the first landing on minus
        # the start: the symmetry the half-return shot relies on
        for n, pc in periodic_components.items():
            u0 = osc._jet_to_flux(pc.start.jet(), n, pc.mu)
            shooter = _flux_shooter(n, pc.mu)
            half = shooter.cross(u0, 1)
            back = shooter.cross(half.y, -1)
            assert half.stop == back.stop == 0
            assert half.t == pytest.approx(back.t, rel=1e-9)
            assert half.t + back.t == pytest.approx(pc.period, rel=1e-9)
            assert np.all(np.abs(half.y + u0) <= 1e-9 * np.abs(u0))
            assert np.all(np.abs(back.y - u0) <= 1e-9 * np.abs(u0))

    def test_shooting_work_pinned(self, periodic_components):
        # one leg per residual: the full-return shot took 35 and 23 legs,
        # and 38,781 and 41,070 right-hand-side calls
        for n, legs, nfev in [(0.75, 18, 38781), (5.0, 12, 41070)]:
            counts = periodic_components[n].counts
            assert counts["legs"] <= legs
            assert counts["nfev"] <= 0.6 * nfev

    def test_uniqueness_evidence(self):
        # two unrelated starts land on the same orbit
        n, mu = 1.0, 5.0
        eq = osc.equilibrium_value(n, mu)
        a = osc.find_periodic_osc(n, mu, OscState(0.0, 0.5 * eq, 0.0, 0.0))
        b = osc.find_periodic_osc(n, mu, OscState(0.0, -1.3 * eq, 1e-4 * eq, 0.0))
        assert a.amplitude == pytest.approx(b.amplitude, rel=1e-4)
        assert a.period == pytest.approx(b.period, rel=1e-4)

    def test_henon_failure_names_the_legs_s(self):
        # Henon's step integrates in phi', which is near 0 when it fails;
        # the message gives the s where the leg's crossing step ended
        n, mu = 0.1, 32.0
        init = OscState(0.0, 0.5 * osc.equilibrium_value(n, mu), 0.0, 0.0)
        with pytest.raises(osc.ShootingError, match=r"code -2 near s = 5\.2"), \
                pytest.warns(UserWarning, match="dop853"):
            osc.find_periodic_osc(n, mu, init)

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
        with pytest.raises(osc.ShootingError, match=r"last residual \d"):
            osc.find_periodic_osc(1.0, 5.0, OscState(0.0, 3e-4, 0.0, 0.0))


class TestFloquet:
    def test_liouville_product(self, periodic_components):
        # the flux field has the constant divergence -(2mu-1 + (n+1)(mu-2))
        for n, pc in periodic_components.items():
            div = -(2.0 * pc.mu - 1.0 + (n + 1.0) * (pc.mu - 2.0))
            assert np.prod(pc.multipliers) == pytest.approx(
                math.exp(div * pc.period), rel=1e-12)
            assert abs(pc.multipliers[0]) > abs(pc.multipliers[1])

    def test_liouville_matches_monodromy_at_n34(self, monkeypatch):
        # at n = 3/4 the finite-difference monodromy resolves the weak
        # multiplier, and Liouville's formula must agree with it
        jacs = []

        def spy(*args):
            x, jac = newton_(*args)
            jacs.append(jac)
            return x, jac

        newton_ = osc._newton
        monkeypatch.setattr(osc, "_newton", spy)
        n, mu = 0.75, 6.0
        pc = osc.find_periodic_osc(n, mu, OscState(
            0.0, 0.5 * osc.equilibrium_value(n, mu), 0.0, 0.0))
        # the last Jacobian is that of H(x) + x, H the half return, and
        # the monodromy is dH^2
        dh = jacs[-1] - np.eye(2)
        fd = np.linalg.eigvals(dh @ dh)
        weak = fd[np.argmin(np.abs(fd))]
        assert pc.multipliers[1] == pytest.approx(weak, rel=0.02)


def _flux_shooter(n, mu):
    return osc._Shooter(osc._flux_rhs_factory(n, mu, -1), 1, osc.OSC_ATOL)


class TestShooter:
    @pytest.mark.parametrize("n", [0.75, 5.0])
    def test_lead_ends_past_its_start(self, n):
        # the start phi' = phi'' = 0 sits on the section; the lead must run
        # on to the first maximum after it
        mu = (2.0 * n + 3.0) / n
        init = OscState(0.0, 0.5 * osc.equilibrium_value(n, mu), 0.0, 0.0)
        lead = _flux_shooter(n, mu).cross(osc._jet_to_flux(init.jet(), n, mu), -1)
        assert lead.stop == 0 and lead.t > 0.0
        assert lead.y[1] == 0.0
        assert osc._flux_to_phi2(*lead.y, n, mu) < 0.0

    def test_counts_are_rhs_calls(self):
        calls = 0
        rhs = osc._flux_rhs_factory(1.0, 5.0, -1)

        def counted(s, u):
            nonlocal calls
            calls += 1
            return rhs(s, u)

        shooter = osc._Shooter(counted, 1, osc.OSC_ATOL)
        eq = osc.equilibrium_value(1.0, 5.0)
        legs = [shooter.cross((0.5 * eq, 0.0, 0.0), 1)]
        legs.append(shooter.cross(legs[0].y, -1))
        assert [leg.stop for leg in legs] == [0, 0]
        c = shooter.counts
        assert c["nfev"] == calls > 0
        assert c["legs"] == 2
        assert c["steps"] >= c["accepted"] + c["rejected"] > 0

    def test_failed_run_raises(self):
        shooter = osc._Shooter(lambda s, u: [math.nan] * 3, 1, osc.OSC_ATOL)
        with pytest.raises(osc.ShootingError, match="DOP853 failed with code -3"), \
                pytest.warns(UserWarning, match="dop853"):
            shooter.cross((1.0, 0.0, 1.0), -1)

    def test_samples_hop_off_one_run(self):
        # u'' = -u from (1, 0): the samples are cos and -sin at any
        # increasing times, and a sample at the start is the start itself
        ts = np.array([0.0, 0.0, 1e-3, 0.5, 2.0, 2.0 + 1e-9, 7.0, 20.0])
        us, counts = osc._samples(lambda s, u: [u[1], -u[0]], (1.0, 0.0),
                                  ts, 1e-14)
        assert us.shape == (2, ts.size)
        assert us[0, 0] == us[0, 1] == 1.0 and us[1, 0] == 0.0
        assert np.max(np.abs(us[0] - np.cos(ts))) <= 1e-9
        assert np.max(np.abs(us[1] + np.sin(ts))) <= 1e-9
        assert sorted(counts) == ["accepted", "nfev", "rejected", "steps"]
        assert counts["nfev"] > counts["steps"] >= counts["accepted"] > 0

    def test_memory_stays_bounded(self):
        # scipy's dop853 keeps every ode instance alive; legs must reuse
        # the shooter's two integrators
        shooter = osc._Shooter(lambda s, u: [u[1], -u[0]], 1, 1e-3)
        u = (1.0, 0.0)
        for _ in range(10):
            u = shooter.cross(u, 1).y
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(1000):
                leg = shooter.cross(u, 1)
                assert leg.stop == 0
                u = leg.y
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 256 * 1024
