import numpy as np
import pytest

import blowuplab.branching as br
import blowuplab.bvp as bvp
from blowuplab.model import ProblemParams

N02 = ProblemParams(0.2, 1.2, 1e-2)


@pytest.fixture(scope="module")
def f0_up_short(f0_profile):
    schedule = np.round(np.arange(1.25, 2.001, 0.05), 10)
    return br.trace_p_branch(f0_profile, schedule, "F0-up-short")


class TestTraceValidation:
    def test_needs_converged_start(self, f0_profile):
        bad = f0_profile.replace(converged=False)
        with pytest.raises(ValueError):
            br.trace_p_branch(bad, [1.21])

    def test_monotone_schedule(self, f0_profile):
        with pytest.raises(ValueError):
            br.trace_p_branch(f0_profile, [1.21, 1.19])
        with pytest.raises(ValueError):
            br.trace_p_branch(f0_profile, [])

    def test_first_step_adjacency(self, f0_profile):
        with pytest.raises(ValueError, match="adjacent"):
            br.trace_p_branch(f0_profile, [1.4, 1.5])


class TestBranchStructure:
    def test_records_monotone_and_converged(self, f0_up_short):
        ps = [r.p for r in f0_up_short.records]
        assert all(b > a for a, b in zip(ps, ps[1:]))
        assert all(r.profile.converged for r in f0_up_short.records)
        assert f0_up_short.stop_reason == "completed"
        assert br.detect_branch_end(f0_up_short) == "completed"

    def test_warm_start_contract(self, f0_up_short):
        # consecutive converged profiles move proportionally to dp
        recs = f0_up_short.records
        rates = []
        for a, b in zip(recs, recs[1:]):
            dist = np.max(np.abs(b.profile.values - a.profile.values))
            rates.append(dist / (b.p - a.p))
        med = np.median(rates)
        assert max(rates) <= 10.0 * med

    def test_determinism(self, f0_profile):
        schedule = np.round(np.arange(1.25, 1.501, 0.05), 10)
        b1 = br.trace_p_branch(f0_profile, schedule, "det")
        b2 = br.trace_p_branch(f0_profile, schedule, "det")
        for r1, r2 in zip(b1.records, b2.records):
            assert r1.p == r2.p
            assert np.array_equal(r1.profile.values, r2.profile.values)

    def test_regime_crossing_consistency(self, f0_profile):
        # walking 1.2 -> 1.23 -> back to 1.2 reproduces the variational
        # profile: the regional and continuation machinery agree.
        # (tol 1e-8 sits just above the h^-4-amplified roundoff floor)
        tight = bvp.NewtonOptions(tol=1e-8)
        start = bvp.solve_profile(N02, f0_profile, tight)
        up = br.trace_p_branch(start, [1.21, 1.22, 1.23], opts=tight)
        back = br.trace_p_branch(up.records[-1].profile, [1.22, 1.21, 1.2],
                                 opts=tight)
        final = back.records[-1]
        assert final.p == pytest.approx(1.2, abs=1e-14)
        assert np.max(np.abs(final.profile.values - start.values)) <= 1e-6


class TestSummary:
    def test_single_record(self, f0_profile):
        # one target adds a single record after the start profile's own
        b = br.trace_p_branch(f0_profile, [1.21], "single")
        assert [r.p for r in b.records] == [1.2, 1.21]
        assert b.records[0].profile is f0_profile
        assert b.records[0].sup_norm == f0_profile.sup_norm
        assert b.records[1].profile.converged

    def test_blowup_trend_ratio(self, f0_branch_down):
        # unit-equilibrium records: sup_norm is the ratio sup|f| / f_*(p),
        # which stays bounded while the raw amplitude f_*(p) sup_norm
        # diverges as p -> 1
        assert all(0.5 <= r.sup_norm <= 3.0 for r in f0_branch_down.records)
        last = f0_branch_down.records[-1]
        assert last.p == 1.05
        f_star = (last.p - 1.0) ** (-1.0 / (last.p - 1.0))  # 0.05^(-20)
        assert f_star * last.sup_norm > 1e20

    def test_empty_branch_rejected(self, f0_profile):
        with pytest.raises(ValueError, match="empty p schedule"):
            br.trace_p_branch(f0_profile, [])


class TestFarField:
    @pytest.mark.parametrize("p", [3.0, 6.0])
    def test_truncation_does_not_reach_bulk(self, f0_branch_up,
                                            f0_branch_up_wide, p):
        # doubling R at fixed h moves neither the sup norm nor F(40): the
        # Dirichlet far field needs no asymptotic boundary condition
        a = next(r for r in f0_branch_up.records if r.p == p)
        b = next(r for r in f0_branch_up_wide.records if r.p == p)
        assert a.sup_norm == pytest.approx(b.sup_norm, abs=1e-10)
        k = int(np.flatnonzero(a.profile.mesh.nodes == 40.0)[0])
        assert b.profile.mesh.nodes[k] == 40.0
        assert a.profile.values[k] == pytest.approx(b.profile.values[k],
                                                    abs=1e-10)


class TestDetectEnd:
    def test_reports_stop_reason(self, f0_profile):
        # the sup-norm slope of the last records does not change the reading
        b = br.Branch("stub", 0.2, "increasing")
        for p, s in ((1.2, 1.0), (1.21, 1.1), (1.215, 1.3)):
            b.records.append(br.BranchRecord(p, s, 1e-8, f0_profile))
        for reason in ("completed", "newton-failure"):
            b.stop_reason = reason
            assert br.detect_branch_end(b) == reason


class TestStepRule:
    def test_every_converged_solve_is_a_record(self, basic_family, monkeypatch):
        # criterion 07's F1 hunt halves its steps into the fold; no solve
        # that converges there is thrown away
        converged = []
        solve = bvp.solve_profile

        def counting(*args, **kw):
            sol = solve(*args, **kw)
            converged.append(sol.params.p)
            return sol

        monkeypatch.setattr(bvp, "solve_profile", counting)
        hunt = br.trace_p_branch(basic_family[1],
                                 np.round(np.arange(1.201, 1.2601, 0.001), 10),
                                 "F1-up")
        assert hunt.stop_reason == "newton-failure"
        assert converged == [r.p for r in hunt.records[1:]]


    def test_newton_iters_counts_failed_solves(self, basic_family, monkeypatch):
        # the F1 hunt ends in failed solves; their LUs count too
        calls = []
        dgbtrf = bvp.dgbtrf

        def counting(*args):
            calls.append(1)
            return dgbtrf(*args)

        monkeypatch.setattr(bvp, "dgbtrf", counting)
        hunt = br.trace_p_branch(basic_family[1],
                                 np.round(np.arange(1.201, 1.2601, 0.001), 10),
                                 "F1-up")
        assert hunt.stop_reason == "newton-failure"
        assert hunt.newton_iters == len(calls) == 110
        assert sum(r.profile.newton_iters for r in hunt.records[1:]) < len(calls)


def _neville(ps, vs, p):
    """The interpolant through (ps, vs) at p by Neville's scheme."""
    t = list(vs)
    for d in range(1, len(ps)):
        t = [((p - ps[i + d]) * t[i] + (ps[i] - p) * t[i + 1]) / (ps[i] - ps[i + d])
             for i in range(len(t) - 1)]
    return t[0]


class TestPredictor:
    def test_f0_up_newton_budget(self, f0_branch_up):
        # criterion 07's up branch: the cubic predictor needs 108 LUs, the
        # secant through the last two records needed 134, the last profile
        # as the guess 198
        assert f0_branch_up.stop_reason == "completed"
        assert f0_branch_up.records[-1].p == 6.0
        assert sum(r.profile.newton_iters
                   for r in f0_branch_up.records[1:]) <= 115

    def test_f0_down_newton_budget(self, f0_branch_down):
        # criterion 07's down branch: 27 LUs, 33 with the secant
        assert f0_branch_down.stop_reason == "completed"
        assert f0_branch_down.newton_iters <= 30

    def test_f1_hunt_end_unchanged(self, basic_family):
        # criterion 07's F1 hunt ends where it ended with the warm start
        hunt = br.trace_p_branch(basic_family[1],
                                 np.round(np.arange(1.201, 1.2601, 0.001), 10),
                                 "F1-up")
        assert hunt.stop_reason == "newton-failure"
        assert hunt.records[-1].p == pytest.approx(1.21934375, abs=1e-12)

    def test_guesses_are_lagrange_extrapolants(self, f0_profile, monkeypatch):
        # the k-th solve starts from the interpolant through the last
        # min(k, 4) records, evaluated at its target
        guesses = []
        solve = bvp.solve_profile

        def recording(params, guess, opts=bvp.NewtonOptions()):
            guesses.append(guess.values)
            return solve(params, guess, opts)

        monkeypatch.setattr(bvp, "solve_profile", recording)
        b = br.trace_p_branch(f0_profile, [1.21, 1.22, 1.24, 1.25, 1.27, 1.28])
        ps = [r.p for r in b.records]
        v = [r.profile.values for r in b.records]
        assert len(guesses) == len(ps) - 1 == 6
        assert guesses[0] is f0_profile.values
        for k in range(1, len(guesses)):
            lo = max(0, k - 3)
            expected = _neville(ps[lo:k + 1], v[lo:k + 1], ps[k + 1])
            assert np.allclose(guesses[k], expected, rtol=0, atol=1e-12)

    def test_predict_reproduces_cubic(self, f0_profile):
        # records after halvings sit at uneven spacing dp, dp/2, dp/16; the
        # predictor is exact on values cubic in p
        rng = np.random.default_rng(0)
        coef = rng.standard_normal((4, f0_profile.values.size))

        def cubic(p):
            return coef[0] + p * (coef[1] + p * (coef[2] + p * coef[3]))

        dp = 0.05
        ps = np.cumsum([1.2, dp, dp / 2, dp / 16])
        records = [br.BranchRecord(p, 0.0, 0.0, f0_profile.replace(values=cubic(p)))
                   for p in ps]
        for p in (ps[-1] + dp / 16, ps[-1] + dp):
            guess = br._predict(records, p)
            assert guess.mesh is f0_profile.mesh
            assert np.allclose(guess.values, cubic(p), rtol=0, atol=1e-11)
        assert br._predict(records[:1], 1.25) is records[0].profile

    def test_cubic_record_within_newton_tol(self, f0_branch_up):
        # fewer LUs, same contract: the cubic-predicted record with the
        # largest residual took one LU and sits within Newton's tol (1e-6,
        # relative to max|F|) of its own re-solve at tol 1e-12
        rec = max(f0_branch_up.records[4:], key=lambda r: r.residual_norm)
        assert rec.profile.newton_iters == 1
        tight = bvp.solve_profile(rec.profile.params, rec.profile,
                                  bvp.NewtonOptions(tol=1e-12))
        shift = np.max(np.abs(rec.profile.values - tight.values))
        assert shift <= bvp.NewtonOptions().tol * np.max(np.abs(tight.values))
