import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blowuplab.branching as branching
import blowuplab.bvp as bvp
import blowuplab.cli as cli
import blowuplab.oscillation as oscillation
import blowuplab.patterns as patterns
import blowuplab.spectral as spectral
import blowuplab.variational as variational
from blowuplab.cli import main


@pytest.fixture(scope="module")
def solve_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    code = main(["solve", "--n", "0.2", "--p", "1.2", "--family", "basic:0",
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def branch_run(solve_run, tmp_path_factory):
    """F0 down from p = 1.2 to 1.15 via the CLI, with its in-memory Branch."""
    out = tmp_path_factory.mktemp("branch") / "f0_down"
    traced = []
    trace = branching.trace_p_branch

    def keep(*args, **kwargs):
        traced.append(trace(*args, **kwargs))
        return traced[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(branching, "trace_p_branch", keep)
        code = main(["branch", "--from-profile", str(solve_run / "profile.csv"),
                     "--p-end", "1.15", "--dp", "0.01", "--label", "F0-down",
                     "--out", str(out)])
    assert code == 0
    return out, traced[0]


class TestSolveCommand:
    def test_outputs_written(self, solve_run):
        names = {p.name for p in solve_run.iterdir()}
        assert {"profile.csv", "profile.json", "manifest.json"} <= names

    def test_manifest_contents(self, solve_run):
        man = json.loads((solve_run / "manifest.json").read_text())
        assert man["solver_stats"]["converged"] is True
        assert "profile.csv" in man["outputs"]
        assert man["wall_time_s"] > 0
        assert man["argv"][0] == "solve"

    def test_profile_loads_back(self, solve_run):
        prof = bvp.load_profile(solve_run / "profile.csv")
        assert prof.converged
        assert prof.sup_norm == pytest.approx(1.397, abs=2e-3)

    def test_invalid_eps_is_usage_error(self, tmp_path):
        code = main(["solve", "--n", "0.2", "--p", "1.2", "--eps", "-1",
                     "--out", str(tmp_path)])
        assert code == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        code = main(["solve", "--n", "0.2", "--p", "1.2", "--frobnicate",
                     "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("family", ["nope:1", "Q", "basic:x", "glue_pp:1"])
    def test_bad_family_is_usage_error(self, tmp_path, family):
        out = tmp_path / "bad"
        code = main(["solve", "--n", "0.2", "--p", "1.2", "--family", family,
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_family_parsed_once(self):
        # q is short for q_type; separation and n come in with the text
        assert cli._parse_family("q", 4.0, 0.3) == patterns.FamilySpec(
            "q_type", 0, 4.0, 0.3)
        assert cli._parse_family("glue_mp:3", 9.0, 1.0) == patterns.FamilySpec(
            "glue_mp", 3, 9.0, 1.0)

    def test_non_convergence_exits_2_with_best_iterate(self, tmp_path):
        out = tmp_path / "starved"
        code = main(["solve", "--n", "0.2", "--p", "1.2", "--family", "basic:0",
                     "--max-iters", "2", "--out", str(out)])
        assert code == 2
        assert (out / "profile.csv").exists()
        man = json.loads((out / "manifest.json").read_text())
        assert man["solver_stats"]["converged"] is False
        assert man["solver_stats"]["message"] == \
            "no convergence in 2 Newton steps"

    def test_warm_start_stuck_at_fold_exits_2(self, tmp_path):
        # the dipole branch dies at its fold near p = 1.218, short of 1.3:
        # the written profile, its sidecar and the manifest must all say so
        out = tmp_path / "fold"
        code = main(["solve", "--n", "0.2", "--p", "1.3", "--family", "basic:1",
                     "--R", "30", "--N", "300", "--out", str(out)])
        assert code == 2
        man = json.loads((out / "manifest.json").read_text())
        prof = bvp.load_profile(out / "profile.csv")
        assert man["solver_stats"]["converged"] is False
        assert not prof.converged
        assert man["solver_stats"]["p"] == prof.params.p < 1.3
        # the manifest names where the walk stopped
        assert man["solver_stats"]["message"] == (
            f"warm-start walk stopped at p = {prof.params.p!r} short of "
            "p = 1.3 (newton-failure)")

    def test_failed_solve_counts_its_lus(self, tmp_path):
        out = tmp_path / "one"
        code = main(["solve", "--n", "0.2", "--p", "1.2", "--eps", "1e-2",
                     "--family", "basic:1", "--R", "30", "--N", "300",
                     "--max-iters", "1", "--out", str(out)])
        assert code == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["solver_stats"]["newton_iters"] == 1

    def test_warm_start_counts_every_lu(self, tmp_path, monkeypatch):
        # the anchor's LUs plus those of every solve of the walk, failed
        # ones too; the first solve builds the template and is not counted
        lus = []
        solve = bvp.solve_profile

        def counted(*args):
            try:
                sol = solve(*args)
            except bvp.NewtonError as exc:
                lus.append(exc.newton_iters)
                raise
            lus.append(sol.newton_iters)
            return sol

        monkeypatch.setattr(bvp, "solve_profile", counted)
        out = tmp_path / "fold"
        code = main(["solve", "--n", "0.2", "--p", "1.3", "--family", "basic:1",
                     "--R", "30", "--N", "300", "--out", str(out)])
        assert code == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["solver_stats"]["newton_iters"] == sum(lus[1:]) > lus[-1]

    def test_eps_schedule_honours_max_iters(self, tmp_path):
        out = tmp_path / "eps"
        code = main(["solve", "--n", "0.2", "--p", "1.2", "--family", "basic:0",
                     "--R", "20", "--N", "200", "--eps-schedule", "0.05,0.02",
                     "--max-iters", "1", "--out", str(out)])
        assert code == 2

    def test_eps_schedule_failing_stage_exits_2(self, tmp_path):
        # eps = 1.0 converges, 1e-4 does not within 15 iterations: the run
        # must not report the eps = 1.0 profile as the answer
        out = tmp_path / "eps_fail"
        code = main(["solve", "--n", "1", "--p", "2", "--family", "basic:0",
                     "--R", "20", "--N", "400", "--eps-schedule", "1.0,0.0001",
                     "--max-iters", "15", "--out", str(out)])
        assert code == 2
        man = json.loads((out / "manifest.json").read_text())
        prof = bvp.load_profile(out / "profile.csv")
        assert not prof.converged
        assert man["solver_stats"]["converged"] is False
        assert man["parameters"]["eps"] == man["solver_stats"]["eps"] == 1e-4
        assert prof.params.eps == 1e-4

    @pytest.mark.parametrize("argv, exit_code", [
        (["--n", "0.2", "--p", "3", "--R", "30", "--N", "300",
          "--eps-schedule", "0.05,0.01"], 0),
        (["--n", "1", "--p", "2", "--R", "20", "--N", "400",
          "--eps-schedule", "1.0,0.0001", "--max-iters", "15"], 2),
    ], ids=["converged", "failing-stage"])
    def test_eps_schedule_counts_every_lu(self, tmp_path, monkeypatch, argv,
                                          exit_code):
        # the LUs of every stage, not only of the last one
        lus = []
        dgbtrf = bvp.dgbtrf

        def counting(*args):
            lus.append(1)
            return dgbtrf(*args)

        monkeypatch.setattr(bvp, "dgbtrf", counting)
        out = tmp_path / "eps"
        code = main(["solve", "--family", "basic:0", *argv, "--out", str(out)])
        assert code == exit_code
        man = json.loads((out / "manifest.json").read_text())
        record = json.loads((out / "profile.json").read_text())["records"][0]
        assert man["solver_stats"]["newton_iters"] == len(lus)
        assert record["newton_iters"] == len(lus)

    def test_unbuildable_guess_writes_failure_manifest(self, tmp_path,
                                                       monkeypatch):
        # a failed orbit shot leaves osc_plus without a guess: no profile,
        # but the manifest says why
        def diverged(*args):
            raise RuntimeError("trajectory diverged")

        monkeypatch.setattr(bvp, "shoot_periodic_full", diverged)
        out = tmp_path / "osc"
        code = main(["solve", "--n", "2", "--p", "3", "--family", "osc_plus:4",
                     "--R", "30", "--N", "300", "--out", str(out)])
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        man = json.loads((out / "manifest.json").read_text())
        assert man["outputs"] == []
        assert man["solver_stats"] == {"converged": False,
                                       "message": "trajectory diverged"}
        assert man["parameters"]["family"] == "osc_plus:4"

    def test_osc_plus_at_n2(self, tmp_path, capsys):
        out = tmp_path / "osc"
        code = main(["solve", "--n", "2", "--p", "3", "--family", "osc_plus:4",
                     "--R", "30", "--N", "300", "--out", str(out)])
        assert code == 0
        code = main(["classify", "--profile", str(out / "profile.csv"),
                     "--out", str(tmp_path / "cls")])
        assert code == 0
        assert capsys.readouterr().out.strip() == "{+4}"

    def test_bc_flag_removed(self, tmp_path):
        code = main(["solve", "--n", "0.2", "--p", "1.2", "--bc", "antisym",
                     "--out", str(tmp_path)])
        assert code == 1

    def test_far_p_warm_started(self, tmp_path):
        # guesses live at p = n+1; the command continues across p itself
        out = tmp_path / "far"
        code = main(["solve", "--n", "0.2", "--p", "6", "--family", "basic:0",
                     "--N", "1500", "--R", "40", "--out", str(out)])
        assert code == 0
        prof = bvp.load_profile(out / "profile.csv")
        assert prof.params.p == 6.0
        assert prof.sup_norm == pytest.approx(1.0, abs=0.1)

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BLOWUPLAB_OUT", str(tmp_path / "envout"))
        code = main(["kernel", "--L", "15", "--N", "2000"])
        assert code == 0
        assert (tmp_path / "envout" / "kernel.csv").exists()


class TestReplay:
    def test_byte_exact(self, solve_run, tmp_path):
        code = main(["replay", str(solve_run / "manifest.json"),
                     "--scratch", str(tmp_path / "rep")])
        assert code == 0

    def test_oscillate_byte_exact(self, tmp_path, capsys):
        code = main(["oscillate", "--n", "5", "--lambda", "-1",
                     "--s-budget", "5", "--out", str(tmp_path / "osc")])
        assert code == 0
        code = main(["replay", str(tmp_path / "osc" / "manifest.json"),
                     "--scratch", str(tmp_path / "rep")])
        assert code == 0
        assert "reproduced 1 outputs byte-exactly" in capsys.readouterr().out

    def test_branch_byte_exact(self, branch_run, tmp_path, capsys):
        out, _ = branch_run
        code = main(["replay", str(out / "manifest.json"),
                     "--scratch", str(tmp_path / "rep")])
        assert code == 0
        assert "reproduced 4 outputs byte-exactly" in capsys.readouterr().out
        assert (tmp_path / "rep" / "records.npy").read_bytes() == (
            out / "records.npy").read_bytes()

    def test_detects_tampering(self, solve_run, tmp_path):
        # a row cut short changes the size; one digit changed does not
        row = (solve_run / "profile.csv").read_text().splitlines()[1]
        digit = row[:-1] + ("2" if row.endswith("1") else "1")
        for name, new_row in [("short", "0.5"), ("digit", digit)]:
            tampered = tmp_path / name
            tampered.mkdir()
            for f in solve_run.iterdir():
                (tampered / f.name).write_bytes(f.read_bytes())
            csv = tampered / "profile.csv"
            text = csv.read_text().splitlines()
            text[1] = new_row
            csv.write_text("\n".join(text) + "\n")
            code = main(["replay", str(tampered / "manifest.json"),
                         "--scratch", str(tmp_path / f"rep_{name}")])
            assert code == 2


    def test_scratch_in_own_directory_refused(self, solve_run, tmp_path):
        # the re-run would overwrite the tampered output and then compare
        # every file with itself
        run = tmp_path / "run"
        run.mkdir()
        for f in solve_run.iterdir():
            (run / f.name).write_bytes(f.read_bytes())
        rows = (run / "profile.csv").read_text().splitlines()
        rows[1] = rows[1][:-1] + ("2" if rows[1].endswith("1") else "1")
        tampered = "\n".join(rows) + "\n"
        (run / "profile.csv").write_text(tampered)
        for scratch in (run, run / "sub" / ".."):
            code = main(["replay", str(run / "manifest.json"),
                         "--scratch", str(scratch)])
            assert code == 1
            assert (run / "profile.csv").read_text() == tampered
        assert sorted(f.name for f in run.iterdir()) == sorted(
            f.name for f in solve_run.iterdir())

    def test_failure_that_now_converges_is_a_mismatch(self, tmp_path, monkeypatch,
                                                      capsys):
        def failing(*args):
            raise RuntimeError("no convergence")

        out = tmp_path / "run"
        with monkeypatch.context() as mp:
            mp.setattr(variational, "first_nonlinear_eigenvalue", failing)
            assert main(["eigen", "--m", "100", "--out", str(out)]) == 2
        capsys.readouterr()
        code = main(["replay", str(out / "manifest.json"),
                     "--scratch", str(tmp_path / "rep")])
        assert code == 2
        err = capsys.readouterr().err
        assert "outputs" in err and "solver_stats" in err

    def test_changed_input_is_a_mismatch(self, solve_run, tmp_path, capsys):
        for name in ("profile.csv", "profile.json"):
            (tmp_path / name).write_bytes((solve_run / name).read_bytes())
        out = tmp_path / "cls"
        assert main(["classify", "--profile", str(tmp_path / "profile.csv"),
                     "--out", str(out)]) == 0
        # np.loadtxt skips the blank line, so classification.json is unchanged
        with open(tmp_path / "profile.csv", "a", encoding="utf-8") as f:
            f.write("\n")
        capsys.readouterr()
        code = main(["replay", str(out / "manifest.json"),
                     "--scratch", str(tmp_path / "rep")])
        assert code == 2
        assert (tmp_path / "rep" / "classification.json").read_bytes() == (
            out / "classification.json").read_bytes()
        assert "inputs" in capsys.readouterr().err

    def test_changed_sidecar_is_a_mismatch(self, solve_run, tmp_path, capsys):
        # the sidecar holds the record's p, n, eps and convergence: an edit
        # that leaves classification.json as it was must still show
        for name in ("profile.csv", "profile.json"):
            (tmp_path / name).write_bytes((solve_run / name).read_bytes())
        out = tmp_path / "cls"
        assert main(["classify", "--profile", str(tmp_path / "profile.csv"),
                     "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert sorted(man["inputs"]) == ["profile.csv", "profile.json"]
        meta = json.loads((tmp_path / "profile.json").read_text())
        meta["records"][0]["newton_iters"] = 999
        bvp.write_json(tmp_path / "profile.json", meta)
        capsys.readouterr()
        code = main(["replay", str(out / "manifest.json"),
                     "--scratch", str(tmp_path / "rep")])
        assert code == 2
        assert (tmp_path / "rep" / "classification.json").read_bytes() == (
            out / "classification.json").read_bytes()
        assert "inputs" in capsys.readouterr().err

    def test_parser_built_once(self, solve_run, tmp_path):
        # replay's nested main reuses the process's one parser
        cli._build_parser.cache_clear()
        assert main(["replay", str(solve_run / "manifest.json"),
                     "--scratch", str(tmp_path / "rep")]) == 0
        assert cli._build_parser.cache_info().misses == 1


class TestBranchCommand:
    def test_branch_run(self, branch_run):
        out, _ = branch_run
        curve = (out / "curve.csv").read_text().splitlines()
        assert curve[0] == "p,sup_norm,residual,converged"
        assert len(curve) > 4
        bman = json.loads((out / "branch.json").read_text())
        assert set(bman) == {"label", "n", "direction", "schedule",
                             "stop_reason"}
        assert bman["stop_reason"] == "completed"
        assert bman["label"] == "F0-down"
        # every record of the curve is a row of records.npy, in order
        ps = [float(row.split(",")[0]) for row in curve[1:]]
        records = json.loads((out / "records.json").read_text())["records"]
        assert [r["p"] for r in records] == ps
        assert np.load(out / "records.npy").shape == (len(ps), 2001)
        assert [bvp.load_profile(out / "records.npy", k).params.p
                for k in range(len(ps))] == ps

    @pytest.mark.parametrize("k", [1, -1])
    def test_classify_selects_record(self, branch_run, tmp_path, capsys, k):
        out, branch = branch_run
        k %= len(branch.records)
        code = main(["classify", "--profile", str(out / "records.npy"),
                     "--record", str(k), "--out", str(tmp_path / "cls")])
        assert code == 0
        assert capsys.readouterr().out.strip() == str(
            patterns.classify(branch.records[k].profile))

    def test_branch_continues_from_last_record(self, branch_run, tmp_path):
        out, branch = branch_run
        last = len(branch.records) - 1
        more = tmp_path / "more"
        code = main(["branch", "--from-profile", str(out / "records.npy"),
                     "--record", str(last), "--p-end", "1.13", "--dp", "0.01",
                     "--out", str(more)])
        assert code == 0
        records = json.loads((more / "records.json").read_text())["records"]
        assert [r["p"] for r in records] == [1.15, 1.14, 1.13]
        start = bvp.load_profile(more / "records.npy")
        assert np.array_equal(start.values, branch.records[-1].profile.values)

    def test_classify_rejects_tampered_record(self, branch_run, tmp_path):
        # 0.1 added to one value of row k: record k's recomputed residual
        # is far above its stored one, the other rows still load converged
        out, branch = branch_run
        k = len(branch.records) - 1
        for name in ("records.npy", "records.json"):
            (tmp_path / name).write_bytes((out / name).read_bytes())
        table = np.load(tmp_path / "records.npy")
        table[k, 100] += 0.1
        np.save(tmp_path / "records.npy", table)
        argv = ["classify", "--profile", str(tmp_path / "records.npy")]
        assert main([*argv, "--record", str(k), "--out", str(tmp_path / "k")]) == 2
        assert main([*argv, "--record", "0", "--out", str(tmp_path / "0")]) == 0

    def test_empty_schedule_rejected(self, solve_run, tmp_path):
        code = main(["branch", "--from-profile", str(solve_run / "profile.csv"),
                     "--p-end", "1.2", "--dp", "0.01", "--out", str(tmp_path)])
        assert code == 1

    def test_missing_profile_rejected(self, tmp_path):
        out = tmp_path / "branch"
        code = main(["branch", "--from-profile", str(tmp_path / "nope.csv"),
                     "--p-end", "1.3", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_nonpositive_dp_is_usage_error(self, solve_run, tmp_path):
        out = tmp_path / "branch"
        code = main(["branch", "--from-profile", str(solve_run / "profile.csv"),
                     "--p-end", "1.3", "--dp", "-0.01", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    # n comes from the stored profile, the direction from --p-end, and the
    # start p from the profile's own solve; none of them can be overridden
    @pytest.mark.parametrize("flag", [["--n", "7"],
                                      ["--direction", "increasing"],
                                      ["--p-start", "1.3"]])
    def test_removed_flags_rejected(self, solve_run, tmp_path, flag):
        code = main(["branch", "--from-profile", str(solve_run / "profile.csv"),
                     "--p-end", "1.25", *flag, "--out", str(tmp_path)])
        assert code == 1


    def test_manifest_counts_newton_iters(self, solve_run, tmp_path):
        out = tmp_path / "branch"
        code = main(["branch", "--from-profile", str(solve_run / "profile.csv"),
                     "--p-end", "1.25", "--dp", "0.01", "--out", str(out)])
        assert code == 0
        stats = json.loads((out / "manifest.json").read_text())["solver_stats"]
        records = json.loads((out / "records.json").read_text())["records"]
        iters = [r["newton_iters"] for r in records]
        # the start record was solved before the branch ran
        assert stats["newton_iters"] == sum(iters[1:]) > 0


class TestOtherCommands:
    def test_kernel_dump(self, tmp_path):
        code = main(["kernel", "--L", "15", "--N", "2000", "--out",
                     str(tmp_path)])
        assert code == 0
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["solver_stats"]["normalization"] == pytest.approx(1.0,
                                                                     abs=1e-8)
        rows = (tmp_path / "kernel.csv").read_text().splitlines()
        assert rows[0] == "y,F,F1,F2"
        assert len(rows) == 2002

    @pytest.mark.parametrize("lmax", ["9", "-1"])
    def test_kernel_pairing_lmax_out_of_range(self, tmp_path, lmax):
        out = tmp_path / "kernel"
        code = main(["kernel", "--L", "15", "--N", "2000", "--pairing-lmax",
                     lmax, "--out", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_oscillate_nonpositive_n_is_usage_error(self, tmp_path, n):
        out = tmp_path / "osc"
        code = main(["oscillate", "--n", n, "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_oscillate_mu_without_equilibria_is_usage_error(self, tmp_path):
        # equilibria need mu > 2
        out = tmp_path / "osc"
        code = main(["oscillate", "--n", "1", "--mu", "1.5", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_kernel_pairing_rows(self, tmp_path):
        # L = 15 cannot hold y^2 against the kernel tail: the rows are
        # written, and the exit code says they miss criterion 03's bound
        code = main(["kernel", "--L", "15", "--N", "2000", "--pairing-lmax",
                     "2", "--out", str(tmp_path)])
        assert code == 2
        rows = (tmp_path / "pairing.csv").read_text().splitlines()
        assert rows[0] == "l,k,value"
        assert len(rows) == 10
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["solver_stats"]["pairing_defect"] > 1e-5

    def test_kernel_pairing_wide_table(self, tmp_path):
        code = main(["kernel", "--L", "44", "--N", "20000", "--pairing-lmax",
                     "8", "--out", str(tmp_path)])
        assert code == 0
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["solver_stats"]["pairing_defect"] <= 1e-5

    def test_classify_command(self, solve_run, tmp_path, capsys):
        code = main(["classify", "--profile", str(solve_run / "profile.csv"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "{+2}"
        rep = json.loads((tmp_path / "classification.json").read_text())
        assert rep["index"] == "{+2}"
        assert rep["transversal_zeros"] == 0
        assert len(rep["crossings"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--tol-zero", "nan"), ("--tol-zero", "inf"), ("--tol-eq", "nan"),
        ("--tol-eq", "-1")])
    def test_classify_tolerances_must_be_finite_and_positive(self, solve_run, tmp_path,
                                                             flag, value):
        # F0 is {+2}; these tolerances printed {} or {+2,3,+1,1,+1} with exit 0
        out = tmp_path / "cls"
        code = main(["classify", "--profile", str(solve_run / "profile.csv"),
                     flag, value, "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_classify_rejects_tampered_profile(self, solve_run, tmp_path):
        # the sidecar still says converged, but the recomputed residual
        # of the edited values is far above the stored one
        for name in ("profile.csv", "profile.json"):
            (tmp_path / name).write_bytes((solve_run / name).read_bytes())
        rows = (tmp_path / "profile.csv").read_text().splitlines()
        rows[100] = f"{float(rows[100]) + 0.1!r}"
        (tmp_path / "profile.csv").write_text("\n".join(rows) + "\n")
        code = main(["classify", "--profile", str(tmp_path / "profile.csv"),
                     "--out", str(tmp_path / "cls")])
        assert code == 2

    def test_classify_unconverged_leaves_manifest(self, solve_run, tmp_path):
        for name in ("profile.csv", "profile.json"):
            (tmp_path / name).write_bytes((solve_run / name).read_bytes())
        rows = (tmp_path / "profile.csv").read_text().splitlines()
        rows[100] = f"{float(rows[100]) + 0.1!r}"
        (tmp_path / "profile.csv").write_text("\n".join(rows) + "\n")
        code = main(["classify", "--profile", str(tmp_path / "profile.csv"),
                     "--out", str(tmp_path / "cls")])
        assert code == 2
        man = json.loads((tmp_path / "cls" / "manifest.json").read_text())
        assert man["solver_stats"]["converged"] is False
        assert man["solver_stats"]["residual_norm"] > 1.0
        assert man["outputs"] == []

    def test_classify_short_profile_is_usage_error(self, solve_run, tmp_path):
        for name in ("profile.csv", "profile.json"):
            (tmp_path / name).write_bytes((solve_run / name).read_bytes())
        rows = (tmp_path / "profile.csv").read_text().splitlines()
        (tmp_path / "profile.csv").write_text("\n".join(rows[:-1]) + "\n")
        code = main(["classify", "--profile", str(tmp_path / "profile.csv"),
                     "--out", str(tmp_path / "cls")])
        assert code == 1

    def test_eigen_command(self, tmp_path):
        code = main(["eigen", "--n", "0.0", "--R", "1.0", "--m", "200",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "eigenvalues.csv").read_text().splitlines()
        assert rows[0] == "n,R,lambda1"
        lam = float(rows[1].split(",")[2])
        assert lam == pytest.approx(31.285, rel=5e-3)

    def test_eigen_fine_mesh_n3(self, tmp_path):
        # the linear start lies outside Newton's basin at n = 3 on this
        # mesh; the stages in n must still reach it
        code = main(["eigen", "--n", "3", "--R", "1", "--m", "2000",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "eigenvalues.csv").read_text().splitlines()
        assert float(rows[1].split(",")[2]) == pytest.approx(3192.365, abs=1e-3)

    def test_oscillate_command(self, tmp_path):
        code = main(["oscillate", "--n", "5.0", "--lambda", "-1",
                     "--s-budget", "200", "--out", str(tmp_path)])
        assert code == 0
        man = json.loads((tmp_path / "manifest.json").read_text())
        amp = man["solver_stats"]["amplitude"]
        assert 1e-3 <= amp <= 1e-1
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "s,phi,phi1,phi2"

    def test_oscillate_failure_writes_manifest(self, tmp_path):
        # at n = 0.1 a Henon step of the shooter fails: no trajectory, but
        # the manifest says why
        out = tmp_path / "osc"
        with pytest.warns(UserWarning, match="dop853"):
            code = main(["oscillate", "--n", "0.1", "--s-budget", "20",
                         "--out", str(out)])
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        man = json.loads((out / "manifest.json").read_text())
        assert man["outputs"] == []
        assert man["parameters"] == {"n": 0.1, "mu": 32.0, "lambda": -1}
        stats = man["solver_stats"]
        assert stats["converged"] is False
        assert stats["message"].startswith("DOP853 failed with code -2")

    def test_oscillate_lambda_plus_one(self, tmp_path):
        # lambda = +1 is the non-oscillatory branch: the trajectory settles
        # onto its attracting constant equilibrium and nothing is shot
        code = main(["oscillate", "--n", "1", "--lambda", "1",
                     "--s-budget", "40", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 2002
        stats = json.loads((tmp_path / "manifest.json").read_text())["solver_stats"]
        assert stats["final_phi"] == pytest.approx(
            oscillation.equilibrium_value(1.0, 5.0), rel=1e-9)
        assert sorted(stats["trajectory"]) == ["accepted", "nfev", "rejected",
                                               "steps"]
        assert "shooting" not in stats

    def test_oscillate_records_multipliers(self, tmp_path):
        code = main(["oscillate", "--n", "5.0", "--lambda", "-1",
                     "--s-budget", "5", "--out", str(tmp_path)])
        assert code == 0
        man = json.loads((tmp_path / "manifest.json").read_text())
        stats = man["solver_stats"]
        mults = stats["multipliers"]
        assert len(mults) == 2
        assert np.all(np.hypot(*np.array(mults).T) < 1.0)
        # Liouville: m1 m2 = exp(-(2mu-1 + (n+1)(mu-2)) T)
        mu = stats["mu"]
        div = -(2.0 * mu - 1.0 + 6.0 * (mu - 2.0))
        assert mults[0][0] * mults[1][0] == pytest.approx(
            np.exp(div * stats["period"]), rel=1e-12)
        counts = stats["shooting"]
        assert sorted(counts) == ["accepted", "legs", "nfev", "rejected", "steps"]
        assert counts["nfev"] > counts["steps"] >= counts["accepted"] > counts["legs"] > 0
        counts = stats["trajectory"]
        assert sorted(counts) == ["accepted", "nfev", "rejected", "steps"]
        assert counts["nfev"] > counts["steps"] >= counts["accepted"] > 0

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--n", "--p", "--eps", "--family", "--R", "--N",
                     "--tol", "--out"):
            assert flag in text


# each is refused before the output directory is created
@pytest.mark.parametrize("argv", [
    ["solve", "--n", "0.2", "--p", "1.2", "--family", "zzz:1"],
    ["solve", "--n", "0.2", "--p", "1.2", "--eps-schedule", "0.1,x"],
    ["eigen", "--n", "0,x"],
    ["classify", "--profile", "missing.csv"],
    ["classify", "--profile", "{profile}", "--record", "1"],
    ["classify", "--profile", "{profile}", "--record", "-1"],
    ["branch", "--from-profile", "{profile}", "--record", "1", "--p-end", "1.3"],
    ["branch", "--from-profile", "{profile}", "--p-end", "1.3", "--dp", "0.1"],
    ["solve", "--n", "0.2", "--p", "1.2", "--eps-schedule", "0.05,0.1"],
    ["solve", "--n", "0.2", "--p", "1.2", "--eps", "0"],
    ["solve", "--n", "0.2", "--p", "1.2", "--N", "30"],
    # non-finite numbers: each check that bounds a value also rejects NaN and inf
    ["kernel", "--L", "nan"],
    ["kernel", "--L", "inf"],
    ["solve", "--n", "0.2", "--p", "inf"],
    ["eigen", "--n", "inf"],
    ["solve", "--n", "0.2", "--p", "nan"],
    ["eigen", "--n", "nan"],
    ["solve", "--n", "0.2", "--p", "1.2", "--eps", "nan"],
    ["solve", "--n", "0.2", "--p", "1.2", "--eps", "inf"],
    ["solve", "--n", "nan", "--p", "1.2"],
    ["solve", "--n", "0.2", "--p", "1.2", "--eps-schedule", "nan"],
    ["solve", "--n", "0.2", "--p", "1.2", "--eps-schedule", "0.05,nan"],
    ["oscillate", "--n", "nan"],
    ["oscillate", "--n", "inf"],
    ["oscillate", "--n", "5", "--mu", "nan"],
    # Newton's options: a finite tol > 0 and at least one iteration
    ["solve", "--n", "0.2", "--p", "1.2", "--tol", "nan"],
    ["solve", "--n", "0.2", "--p", "1.2", "--tol", "-1"],
    ["solve", "--n", "0.2", "--p", "1.2", "--max-iters", "0"],
    ["branch", "--from-profile", "{profile}", "--p-end", "1.3", "--tol", "nan"],
], ids=["family", "eps-schedule", "eigen-n", "classify-missing",
        "classify-record", "classify-negative-record", "branch-record",
        "branch-first-step", "eps-schedule-rising", "eps-zero", "coarse-mesh",
        "kernel-L-nan", "kernel-L-inf", "solve-p-inf", "eigen-n-inf", "solve-p-nan",
        "eigen-n-nan", "eps-nan", "eps-inf", "solve-n-nan", "eps-schedule-nan",
        "eps-schedule-last-nan", "oscillate-n-nan", "oscillate-n-inf",
        "oscillate-mu-nan", "solve-tol-nan", "solve-tol-negative",
        "solve-max-iters-zero", "branch-tol-nan"])
def test_usage_error_leaves_no_output_directory(solve_run, tmp_path, argv):
    out = tmp_path / "run"
    argv = [a.format(profile=solve_run / "profile.csv") for a in argv]
    code = main([*argv, "--out", str(out)])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("module, name, argv, parameters", [
    (variational, "first_nonlinear_eigenvalue",
     ["eigen", "--n", "0,1", "--R", "1", "--m", "100"],
     {"n": [0.0, 1.0], "R": [1.0], "m": 100}),
    (spectral, "compute_kernel", ["kernel", "--L", "15", "--N", "2000"],
     {"L": 15.0, "N": 2000}),
], ids=["eigen", "kernel"])
def test_computation_failure_writes_manifest_alone(tmp_path, monkeypatch, module,
                                                   name, argv, parameters):
    def failing(*args):
        raise RuntimeError("no convergence")

    monkeypatch.setattr(module, name, failing)
    out = tmp_path / "run"
    code = main([*argv, "--out", str(out)])
    assert code == 2
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    man = json.loads((out / "manifest.json").read_text())
    assert man["outputs"] == []
    assert man["solver_stats"] == {"converged": False,
                                   "message": "no convergence"}
    assert man["parameters"] == parameters


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "0.2", "--p", "1.2", "--R", "20", "--N", "200"],
    ["branch", "--p-end", "1.22", "--dp", "0.01"],
    ["kernel", "--L", "15", "--N", "2000", "--pairing-lmax", "1"],
    ["eigen", "--n", "0.0", "--R", "1.0", "--m", "100"],
    ["classify"],
    ["oscillate", "--n", "5.0", "--s-budget", "5"],
], ids=lambda argv: argv[0])
def test_manifest_lists_every_written_file(solve_run, tmp_path, argv):
    src = str(solve_run / "profile.csv")
    extra = {"branch": ["--from-profile", src], "classify": ["--profile", src]}
    out = tmp_path / "run"
    code = main([*argv, *extra.get(argv[0], []), "--out", str(out)])
    assert code in (0, 2)
    man = json.loads((out / "manifest.json").read_text())
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert sorted(man["outputs"]) == sorted(written)


IMPORT_CONTRACT = """
import sys
from blowuplab.cli import main

out = sys.argv[1]
profile = out + "/solve/profile.csv"
for argv in (["solve", "--n", "0.2", "--p", "1.2", "--R", "30", "--N", "300"],
             ["branch", "--from-profile", profile, "--p-end", "1.23", "--dp", "0.01"],
             ["kernel", "--L", "15", "--N", "2000"],
             ["eigen", "--m", "100"],
             ["classify", "--profile", profile]):
    assert main([*argv, "--out", f"{out}/{argv[0]}"]) == 0, argv
loaded = sorted({"scipy.integrate", "scipy.optimize"} & set(sys.modules))
assert not loaded, loaded
assert main(["oscillate", "--n", "5", "--s-budget", "5", "--out", f"{out}/oscillate"]) == 0
assert "scipy.integrate" in sys.modules
"""


def test_only_trajectories_load_the_integrator(tmp_path):
    # pytest itself has loaded scipy.integrate, so the commands run in a
    # fresh interpreter: solve, branch, kernel, eigen and classify load
    # neither scipy.integrate nor scipy.optimize; oscillate loads dop853
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", IMPORT_CONTRACT, str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
