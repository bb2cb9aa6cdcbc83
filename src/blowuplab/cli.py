"""Command-line front end: reproducible experiments, plot-ready dumps.

Every command writes its numeric outputs (CSV, 17 significant digits,
LF endings) plus a manifest.json recording the argument vector, resolved
parameters, input hashes, output list, wall time and solver statistics.
`blowuplab replay manifest.json` re-executes the recorded invocation into
a scratch directory and verifies the outputs byte for byte.

Exit codes: 0 success, 1 usage error, 2 computation finished without
convergence or outside its accuracy bound (best iterate still written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import (__version__, branching, bvp, oscillation, patterns,
               spectral, variational)
from .bvp import Mesh, NewtonOptions, Profile
from .model import ProblemParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2

# the bi-orthogonality bound of acceptance criterion 03
PAIRING_TOL = 1e-5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("BLOWUPLAB_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


class Manifest:
    """Run record; replaying it must reproduce the outputs byte-exactly."""

    def __init__(self, argv, out_dir: Path):
        self.data = {
            "version": __version__,
            "argv": list(argv),
            "parameters": {},
            "inputs": {},
            "outputs": [],
            "solver_stats": {},
        }
        self.out_dir = out_dir
        self._t0 = time.perf_counter()

    def add_input(self, path):
        p = Path(path)
        self.data["inputs"][p.name] = _sha256(p)

    def add_output(self, path):
        self.data["outputs"].append(Path(path).name)

    def write(self) -> Path:
        self.data["wall_time_s"] = time.perf_counter() - self._t0
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8", newline="\n")
        return path


# -- solve --------------------------------------------------------------------


def _parse_family(text: str) -> patterns.FamilySpec:
    kind, _, idx = text.partition(":")
    mapping = {"basic": "basic", "glue_pp": "glue_pp", "glue_mp": "glue_mp",
               "osc_plus": "osc_plus", "q": "q_type", "q_type": "q_type"}
    if kind not in mapping:
        raise _UsageError(f"unknown family {text!r}")
    index = int(idx) if idx else 0
    return patterns.FamilySpec(mapping[kind], index)


def _family_mesh(spec: patterns.FamilySpec, R: float, N: int) -> Mesh:
    if spec.kind in ("basic", "osc_plus"):
        return Mesh.uniform(0.0, R, N)
    if spec.kind == "q_type":
        # plateau region supports violently growing modes; keep the left
        # boundary near the departure point
        return Mesh.uniform(spec.separation - 6.0, R, N)
    return Mesh.uniform(-R, R, 2 * N)  # same h as the half-domain meshes


def _solve_with_warm_start(params, guess, spec, opts):
    """Solve directly, or walk in p from the variational exponent.

    Guesses are built from the p = n+1 geometry; far from it the cold
    solve is hopeless, so the profile is continued across p instead.  A
    walk that stops short of params.p returns its last profile marked
    unconverged.
    """
    p_var = params.n + 1.0
    if spec.kind == "q_type" or abs(params.p - p_var) <= 0.05:
        return bvp.solve_profile(params, guess, opts)
    anchor = bvp.solve_profile(params.with_p(p_var), guess, opts)
    steps = max(2, int(math.ceil(abs(params.p - p_var) / 0.05)))
    schedule = np.linspace(p_var, params.p, steps + 1)[1:]
    branch = branching.trace_p_branch(anchor, schedule, label="warm-start",
                                      opts=opts)
    reached = branch.records[-1].profile
    if branch.stop_reason != "completed":
        return reached.replace(converged=False)
    return reached


def cmd_solve(args, argv) -> int:
    out = _out_dir(args)
    man = Manifest(argv, out)
    params = ProblemParams(n=args.n, p=args.p, eps=args.eps)
    spec = _parse_family(args.family)
    spec = patterns.FamilySpec(spec.kind, spec.index, separation=args.separation,
                               n=args.n)
    mesh = _family_mesh(spec, args.R, args.N)
    template = None
    if spec.kind in ("glue_pp", "glue_mp", "q_type") or (
            spec.kind == "basic" and spec.index > 0):
        t_guess = patterns.guess_factory(
            patterns.FamilySpec("basic", 0, n=args.n),
            Mesh.uniform(0.0, args.R, args.N), params)
        template = bvp.solve_profile(params, t_guess)
    guess = patterns.guess_factory(spec, mesh, params, template=template)
    if args.bc:
        bc = {"sym": "symmetry", "antisym": "antisymmetry", "q": "q-plateau",
              "dirichlet": "dirichlet-far"}[args.bc]
        guess = Profile(guess.mesh, guess.values, params, bc)
    opts = NewtonOptions(tol=args.tol, max_iters=args.max_iters)
    if args.eps_schedule:
        schedule = [float(s) for s in args.eps_schedule.split(",")]
        result = bvp.eps_continuation(params, guess, schedule, opts)
        sol = result.profile
    else:
        try:
            sol = _solve_with_warm_start(params, guess, spec, opts)
        except bvp.NewtonError as exc:
            sol = exc.best
    csv = out / "profile.csv"
    bvp.save_profile(sol, csv)
    man.add_output(csv)
    man.add_output(csv.with_suffix(".json"))
    man.data["parameters"] = {"n": args.n, "p": args.p, "eps": args.eps,
                              "family": args.family, "R": args.R, "N": args.N,
                              "tol": args.tol, "bc": sol.bc}
    man.data["solver_stats"] = {"converged": sol.converged,
                                "p": sol.params.p,
                                "residual_norm": sol.residual_norm,
                                "newton_iters": sol.newton_iters,
                                "sup_norm": sol.sup_norm}
    man.write()
    return EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE


# -- branch -------------------------------------------------------------------


def cmd_branch(args, argv) -> int:
    out = _out_dir(args)
    man = Manifest(argv, out)
    src = Path(args.from_profile)
    if not src.exists():
        raise _UsageError(f"start profile not found: {src}")
    man.add_input(src)
    start = bvp.load_profile(src)
    if args.dp <= 0:
        raise _UsageError("--dp must be positive")
    p0 = start.params.p
    if args.p_end == p0:
        raise _UsageError("empty schedule: --p-end equals the start exponent")
    sign = 1.0 if args.p_end > p0 else -1.0
    schedule = list(np.round(np.arange(p0 + sign * args.dp, args.p_end + sign * 1e-12,
                                       sign * args.dp), 12))
    if not schedule:
        raise _UsageError("empty schedule")
    opts = NewtonOptions(tol=args.tol, max_iters=args.max_iters)
    branch = branching.trace_p_branch(start, schedule, label=args.label, opts=opts)
    refs = []
    for i, rec in enumerate(branch.records):
        ref = out / f"record_{i:04d}.csv"
        bvp.save_profile(rec.profile, ref)
        refs.append(ref.name)
        man.add_output(ref)
        man.add_output(ref.with_suffix(".json"))
    curve = out / "curve.csv"
    # every record is a converged solve; the constant column keeps the format
    _write_csv(curve, "p,sup_norm,residual,converged",
               [(r.p, r.sup_norm, r.residual_norm, 1) for r in branch.records])
    man.add_output(curve)
    bman = {
        "label": branch.label,
        "n": branch.n,
        "direction": branch.direction,
        "schedule": [float(p) for p in schedule],
        "stop_reason": branch.stop_reason,
        "status": branching.detect_branch_end(branch),
        "records": refs,
    }
    bpath = out / "branch.json"
    bpath.write_text(json.dumps(bman, indent=2, sort_keys=True) + "\n",
                     encoding="utf-8", newline="\n")
    man.add_output(bpath)
    man.data["parameters"] = {"n": branch.n, "p_start": p0, "p_end": args.p_end,
                              "dp": args.dp, "label": args.label}
    man.data["solver_stats"] = {"records": len(branch.records),
                                "stop_reason": branch.stop_reason}
    man.write()
    return EXIT_OK


# -- oscillate / kernel / eigen / classify -------------------------------------


def cmd_oscillate(args, argv) -> int:
    out = _out_dir(args)
    man = Manifest(argv, out)
    mu = args.mu if args.mu is not None else (2.0 * args.n + 3.0) / args.n
    scale = oscillation.equilibrium_value(args.n, mu)
    init = oscillation.OscState(0.0, 0.5 * scale, 0.0, 0.0)
    stats = {"n": args.n, "mu": mu, "lambda": args.lam}
    if args.lam == -1:
        pc = oscillation.find_periodic_osc(args.n, mu, init)
        # the dumped trajectory shows the transient settling onto phi_*
        traj = oscillation.integrate_osc(init, args.n, mu, -1,
                                         (0.0, args.s_budget))
        stats.update(period=pc.period, amplitude=pc.amplitude,
                     multipliers=[[float(z.real), float(z.imag)]
                                  for z in pc.multipliers])
    else:
        traj = oscillation.integrate_osc(init, args.n, mu, +1,
                                         (0.0, args.s_budget))
        stats.update(final_phi=float(traj.phi[-1]))
    csv = out / "trajectory.csv"
    _write_csv(csv, "s,phi,phi1,phi2",
               zip(map(float, traj.s), map(float, traj.phi),
                   map(float, traj.phi1), map(float, traj.phi2)))
    man.add_output(csv)
    man.data["parameters"] = {"n": args.n, "mu": mu, "lambda": args.lam}
    man.data["solver_stats"] = stats
    man.write()
    return EXIT_OK


def cmd_kernel(args, argv) -> int:
    out = _out_dir(args)
    man = Manifest(argv, out)
    table = spectral.compute_kernel(args.L, args.N)
    csv = out / "kernel.csv"
    _write_csv(csv, "y,F,F1,F2",
               zip(map(float, table.nodes), map(float, table.F),
                   map(float, table.F1), map(float, table.F2)))
    man.add_output(csv)
    stats = {"normalization": table.normalization,
             "decay_D": table.decay_fit[0],
             "decay_d": table.decay_fit[1]}
    if args.pairing_lmax is not None:
        ls = range(args.pairing_lmax + 1)
        rows = [(l, k, spectral.pairing(table, l, k)) for l in ls for k in ls]
        pcsv = out / "pairing.csv"
        _write_csv(pcsv, "l,k,value", rows)
        man.add_output(pcsv)
        stats["pairing_defect"] = max(abs(v - float(l == k)) for l, k, v in rows)
    man.data["parameters"] = {"L": args.L, "N": args.N}
    man.data["solver_stats"] = stats
    man.write()
    if stats.get("pairing_defect", 0.0) > PAIRING_TOL:
        print(f"pairing defect {stats['pairing_defect']:.3g} exceeds "
              f"{PAIRING_TOL:g}: widen --L", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_eigen(args, argv) -> int:
    out = _out_dir(args)
    man = Manifest(argv, out)
    ns = [float(v) for v in args.n.split(",")]
    Rs = [float(v) for v in args.R.split(",")]
    rows = []
    for n in ns:
        for R in Rs:
            lam = variational.first_nonlinear_eigenvalue(n, R, args.m)
            rows.append((n, R, lam))
    csv = out / "eigenvalues.csv"
    _write_csv(csv, "n,R,lambda1", rows)
    man.add_output(csv)
    man.data["parameters"] = {"n": ns, "R": Rs, "m": args.m}
    man.data["solver_stats"] = {"count": len(rows)}
    man.write()
    return EXIT_OK


def cmd_classify(args, argv) -> int:
    out = _out_dir(args)
    man = Manifest(argv, out)
    src = Path(args.profile)
    if not src.exists():
        raise _UsageError(f"profile not found: {src}")
    man.add_input(src)
    prof = bvp.load_profile(src)
    if not prof.converged:
        print("profile not converged", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    index = patterns.classify(prof, args.tol_zero, args.tol_eq)
    events = patterns.crossing_locations(prof, args.tol_zero, args.tol_eq)
    report = {
        "index": str(index),
        "tokens": [{"level": lv, "count": ct} for lv, ct in index.tokens],
        "crossings": [{"y": pos, "level": lv} for pos, lv in events],
        "transversal_zeros": patterns.transversal_zeros(
            prof, tol_zero=args.tol_zero, tol_eq=args.tol_eq),
    }
    jpath = out / "classification.json"
    jpath.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                     encoding="utf-8", newline="\n")
    man.add_output(jpath)
    man.data["parameters"] = {"tol_zero": args.tol_zero, "tol_eq": args.tol_eq}
    man.data["solver_stats"] = {"index": str(index)}
    man.write()
    print(str(index))
    return EXIT_OK


# -- replay ---------------------------------------------------------------------


def cmd_replay(args, argv) -> int:
    src = Path(args.manifest)
    if not src.exists():
        raise _UsageError(f"manifest not found: {src}")
    data = json.loads(src.read_text(encoding="utf-8"))
    recorded = data["argv"]
    orig_dir = src.parent
    scratch = Path(args.scratch) if args.scratch else orig_dir / "_replay"
    scratch.mkdir(parents=True, exist_ok=True)
    rewritten = []
    it = iter(recorded)
    for tok in it:
        if tok == "--out":
            next(it, None)
            continue
        rewritten.append(tok)
    rewritten += ["--out", str(scratch)]
    code = main(rewritten)
    if code not in (EXIT_OK, EXIT_NO_CONVERGENCE):
        print(f"replay run exited with {code}", file=sys.stderr)
        return code
    mismatches = []
    for name in data["outputs"]:
        a, b = orig_dir / name, scratch / name
        if not b.exists() or a.read_bytes() != b.read_bytes():
            mismatches.append(name)
    if mismatches:
        print("replay mismatch: " + ", ".join(mismatches), file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"replay reproduced {len(data['outputs'])} outputs byte-exactly")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="blowuplab",
                     description="similarity blow-up profile laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one similarity profile")
    ps.add_argument("--n", type=float, required=True)
    ps.add_argument("--p", type=float, required=True)
    ps.add_argument("--eps", type=float, default=1e-2)
    ps.add_argument("--bc", choices=["sym", "antisym", "q", "dirichlet"])
    ps.add_argument("--family", default="basic:0",
                    help="basic:L, glue_pp:K, glue_mp:K, osc_plus:2K, q")
    ps.add_argument("--separation", type=float, default=7.5)
    ps.add_argument("--R", type=float, default=50.0)
    ps.add_argument("--N", type=int, default=2000)
    ps.add_argument("--tol", type=float, default=1e-6)
    ps.add_argument("--max-iters", type=int, default=200)
    ps.add_argument("--eps-schedule", help="comma list for eps continuation")
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("branch", help="trace a p-branch from a stored profile")
    pb.add_argument("--from-profile", required=True)
    pb.add_argument("--p-end", type=float, required=True)
    pb.add_argument("--dp", type=float, default=1e-2)
    pb.add_argument("--label", default="branch")
    pb.add_argument("--tol", type=float, default=1e-6)
    pb.add_argument("--max-iters", type=int, default=200)
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_branch)

    po = sub.add_parser("oscillate", help="oscillatory interface component")
    po.add_argument("--n", type=float, required=True)
    po.add_argument("--mu", type=float)
    po.add_argument("--lambda", dest="lam", type=int, choices=[-1, 1], default=-1)
    po.add_argument("--s-budget", type=float, default=400.0,
                    help="span in s of the trajectory written to trajectory.csv")
    po.add_argument("--out")
    po.set_defaults(func=cmd_oscillate)

    pk = sub.add_parser("kernel", help="fundamental kernel table")
    pk.add_argument("--L", type=float, default=15.0)
    pk.add_argument("--N", type=int, default=4000)
    pk.add_argument("--pairing-lmax", type=int,
                    choices=range(spectral.MAX_PAIRING + 1))
    pk.add_argument("--out")
    pk.set_defaults(func=cmd_kernel)

    pe = sub.add_parser("eigen", help="first nonlinear eigenvalue study")
    pe.add_argument("--n", default="0.0", help="comma list")
    pe.add_argument("--R", default="1.0", help="comma list")
    pe.add_argument("--m", type=int, default=400)
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_eigen)

    pc = sub.add_parser("classify", help="multiindex of a stored profile")
    pc.add_argument("--profile", required=True)
    pc.add_argument("--tol-zero", type=float, default=patterns.DEFAULT_TOL_ZERO)
    pc.add_argument("--tol-eq", type=float, default=patterns.DEFAULT_TOL_EQ)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_classify)

    pr = sub.add_parser("replay", help="re-run a manifest and compare outputs")
    pr.add_argument("manifest")
    pr.add_argument("--scratch")
    pr.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (bvp.ShootingError, RuntimeError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
