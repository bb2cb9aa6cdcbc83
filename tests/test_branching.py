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
        b = br.Branch("single", 0.2, "increasing")
        b.records.append(br.BranchRecord(1.2, f0_profile.sup_norm,
                                         f0_profile.residual_norm,
                                         f0_profile))
        s = br.branch_summary(b)
        assert len(s["rows"]) == 1
        assert s["rows"][0]["p"] == 1.2

    def test_blowup_trend_ratio(self, f0_profile):
        # scaled profiles: sup_norm is exactly the ratio sup|f| / f_*(p);
        # it stays bounded while raw_sup diverges as p -> 1
        schedule = np.round(np.arange(1.19, 1.049, -0.01), 10)
        b = br.trace_p_branch(f0_profile, schedule, "F0-down")
        s = br.branch_summary(b)
        ratios = [row["sup_norm"] for row in s["rows"]]
        assert all(0.5 <= r <= 3.0 for r in ratios)
        raw = [row["raw_sup"] for row in s["rows"]]
        assert raw[-1] > 1e20  # f_*(1.05) = 0.05^(-20)

    def test_empty_branch_rejected(self):
        with pytest.raises(ValueError):
            br.branch_summary(br.Branch("empty", 0.2, "increasing"))


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


class TestPredictor:
    def test_f0_up_newton_budget(self, f0_profile):
        # criterion 07's up branch: the secant predictor needs 134 LUs
        # where the last profile as the guess needed 198
        up = br.trace_p_branch(f0_profile,
                               np.round(np.arange(1.25, 6.001, 0.05), 10),
                               "F0-up", bvp.NewtonOptions(max_iters=500))
        assert up.stop_reason == "completed"
        assert up.records[-1].p == 6.0
        assert sum(r.profile.newton_iters for r in up.records[1:]) <= 145

    def test_f1_hunt_end_unchanged(self, basic_family):
        # criterion 07's F1 hunt ends where it ended with the warm start
        hunt = br.trace_p_branch(basic_family[1],
                                 np.round(np.arange(1.201, 1.2601, 0.001), 10),
                                 "F1-up")
        assert hunt.stop_reason == "newton-failure"
        assert hunt.records[-1].p == pytest.approx(1.21934375, abs=1e-12)

    def test_second_step_starts_from_secant(self, f0_profile, monkeypatch):
        guesses = []
        solve = bvp.solve_profile

        def recording(params, guess, opts=bvp.NewtonOptions()):
            guesses.append(guess.values)
            return solve(params, guess, opts)

        monkeypatch.setattr(bvp, "solve_profile", recording)
        b = br.trace_p_branch(f0_profile, [1.21, 1.22, 1.24])
        v = [r.profile.values for r in b.records]
        assert guesses[0] is f0_profile.values
        assert np.allclose(guesses[1], 2.0 * v[1] - v[0], rtol=0, atol=1e-12)
        assert np.allclose(guesses[2], v[2] + 2.0 * (v[2] - v[1]),
                           rtol=0, atol=1e-12)
