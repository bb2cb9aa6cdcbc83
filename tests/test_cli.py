import json
from pathlib import Path

import numpy as np
import pytest

import blowuplab.bvp as bvp
from blowuplab.cli import main


@pytest.fixture(scope="module")
def solve_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    code = main(["solve", "--n", "0.2", "--p", "1.2", "--family", "basic:0",
                 "--out", str(out)])
    assert code == 0
    return out


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

    def test_non_convergence_exits_2_with_best_iterate(self, tmp_path):
        out = tmp_path / "starved"
        code = main(["solve", "--n", "0.2", "--p", "1.2", "--family", "basic:0",
                     "--max-iters", "2", "--out", str(out)])
        assert code == 2
        assert (out / "profile.csv").exists()
        man = json.loads((out / "manifest.json").read_text())
        assert man["solver_stats"]["converged"] is False

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

    def test_detects_tampering(self, solve_run, tmp_path):
        tampered = tmp_path / "tampered"
        tampered.mkdir()
        for f in solve_run.iterdir():
            (tampered / f.name).write_bytes(f.read_bytes())
        csv = tampered / "profile.csv"
        text = csv.read_text().splitlines()
        text[1] = "0.5"
        csv.write_text("\n".join(text) + "\n")
        code = main(["replay", str(tampered / "manifest.json"),
                     "--scratch", str(tmp_path / "rep2")])
        assert code == 2


class TestBranchCommand:
    def test_branch_run(self, solve_run, tmp_path):
        out = tmp_path / "branch"
        code = main(["branch", "--from-profile", str(solve_run / "profile.csv"),
                     "--p-end", "1.15", "--dp", "0.01", "--label", "F0-down",
                     "--out", str(out)])
        assert code == 0
        curve = (out / "curve.csv").read_text().splitlines()
        assert curve[0] == "p,sup_norm,residual,converged"
        assert len(curve) > 4
        bman = json.loads((out / "branch.json").read_text())
        assert set(bman) == {"label", "n", "direction", "schedule",
                             "stop_reason", "records"}
        assert bman["stop_reason"] == "completed"
        assert bman["label"] == "F0-down"
        assert all((out / r).exists() for r in bman["records"])

    def test_empty_schedule_rejected(self, solve_run, tmp_path):
        code = main(["branch", "--from-profile", str(solve_run / "profile.csv"),
                     "--p-end", "1.2", "--dp", "0.01", "--out", str(tmp_path)])
        assert code == 1

    def test_missing_profile_rejected(self, tmp_path):
        code = main(["branch", "--from-profile", str(tmp_path / "nope.csv"),
                     "--p-end", "1.3", "--out", str(tmp_path)])
        assert code == 1

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
        refs = json.loads((out / "branch.json").read_text())["records"]
        iters = [json.loads((out / r).with_suffix(".json").read_text())
                 ["newton_iters"] for r in refs]
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

    def test_oscillate_records_multipliers(self, tmp_path):
        code = main(["oscillate", "--n", "5.0", "--lambda", "-1",
                     "--s-budget", "5", "--out", str(tmp_path)])
        assert code == 0
        man = json.loads((tmp_path / "manifest.json").read_text())
        mults = man["solver_stats"]["multipliers"]
        assert len(mults) == 2
        assert np.all(np.hypot(*np.array(mults).T) < 1.0)

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--n", "--p", "--eps", "--family", "--R", "--N",
                     "--tol", "--out"):
            assert flag in text


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
