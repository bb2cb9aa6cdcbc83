"""Command-line front end: reproducible experiments, plot-ready dumps.

Every command writes its outputs through its Manifest, which registers
each file it writes (in the format of `bvp.write_csv` / `bvp.write_json`)
and ends with a manifest.json recording the argument vector, resolved
parameters, input hashes, output list, wall time and solver statistics.
`blowuplab replay manifest.json` re-executes the recorded invocation into
a scratch directory and verifies the outputs byte for byte.

Exit codes: 0 success, 1 usage error, 2 computation finished without
convergence or outside its accuracy bound (best iterate still written; a
solve whose guess could not be built writes its manifest alone).
"""

from __future__ import annotations

import argparse
import filecmp
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
from .bvp import Mesh, NewtonOptions
from .model import ProblemParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2

# the bi-orthogonality bound of acceptance criterion 03
PAIRING_TOL = 1e-5

RECORD_HELP = ("0-based column of the profile CSV: a branch's records.csv "
               "holds one per record, a solve's profile.csv only 0")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Manifest:
    """Run record and the one writer of a command's files.

    Each output method writes its file into the output directory (--out,
    else $BLOWUPLAB_OUT, else the working directory) and lists it, so
    replay compares exactly the files the command wrote.
    """

    def __init__(self, args, argv):
        self.out_dir = Path(args.out or os.environ.get("BLOWUPLAB_OUT") or ".")
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.data = {
            "version": __version__,
            "argv": list(argv),
            "inputs": {},
            "outputs": [],
        }
        self._t0 = time.perf_counter()

    def add_input(self, path):
        p = Path(path)
        self.data["inputs"][p.name] = _sha256(p)

    def _output(self, name: str) -> Path:
        self.data["outputs"].append(name)
        return self.out_dir / name

    def csv(self, name: str, header: str, *columns) -> None:
        bvp.write_csv(self._output(name), header, columns)

    def json(self, name: str, obj) -> None:
        bvp.write_json(self._output(name), obj)

    def profiles(self, name: str, profs) -> None:
        sidecar = bvp.save_profile(profs, self._output(name))
        self._output(sidecar.name)

    def write(self, parameters: dict, solver_stats: dict) -> None:
        self.data.update(parameters=parameters, solver_stats=solver_stats,
                         wall_time_s=time.perf_counter() - self._t0)
        bvp.write_json(self.out_dir / "manifest.json", self.data)


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
    unconverged.  A walk's profile counts the LUs of the anchor and of
    every solve the walk tried.
    """
    p_var = params.n + 1.0
    if spec.kind == "q_type" or abs(params.p - p_var) <= 0.05:
        return bvp.solve_profile(params, guess, opts)
    anchor = bvp.solve_profile(params.with_p(p_var), guess, opts)
    steps = max(2, int(math.ceil(abs(params.p - p_var) / 0.05)))
    schedule = np.linspace(p_var, params.p, steps + 1)[1:]
    branch = branching.trace_p_branch(anchor, schedule, label="warm-start",
                                      opts=opts)
    return branch.records[-1].profile.replace(
        converged=branch.stop_reason == "completed",
        newton_iters=anchor.newton_iters + branch.newton_iters)


def cmd_solve(args, argv) -> int:
    params = ProblemParams(n=args.n, p=args.p, eps=args.eps)
    spec = _parse_family(args.family)
    spec = patterns.FamilySpec(spec.kind, spec.index, separation=args.separation,
                               n=args.n)
    mesh = _family_mesh(spec, args.R, args.N)
    schedule = ([float(s) for s in args.eps_schedule.split(",")]
                if args.eps_schedule else None)
    man = Manifest(args, argv)
    parameters = {"n": args.n, "p": args.p,
                  "eps": schedule[-1] if schedule else args.eps,
                  "family": args.family, "R": args.R, "N": args.N,
                  "tol": args.tol}
    template = None
    try:
        if spec.kind in ("glue_pp", "glue_mp", "q_type") or (
                spec.kind == "basic" and spec.index > 0):
            t_guess = patterns.guess_factory(
                patterns.FamilySpec("basic", 0, n=args.n),
                Mesh.uniform(0.0, args.R, args.N), params)
            template = bvp.solve_profile(params, t_guess)
        guess = patterns.guess_factory(spec, mesh, params, template=template)
    except (bvp.NewtonError, bvp.ShootingError) as exc:
        # no guess, so no profile: the manifest alone records the failure
        man.write(parameters, {"converged": False, "message": str(exc)})
        raise
    opts = NewtonOptions(tol=args.tol, max_iters=args.max_iters)
    try:
        if schedule:
            sol = bvp.eps_continuation(params, guess, schedule, opts)
        else:
            sol = _solve_with_warm_start(params, guess, spec, opts)
    except bvp.NewtonError as exc:
        sol = exc.best
    man.profiles("profile.csv", [sol])
    man.write({**parameters, "bc": sol.bc},
              {"converged": sol.converged, "p": sol.params.p,
               "eps": sol.params.eps, "residual_norm": sol.residual_norm,
               "newton_iters": sol.newton_iters, "sup_norm": sol.sup_norm})
    return EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE


# -- branch -------------------------------------------------------------------


def cmd_branch(args, argv) -> int:
    src = Path(args.from_profile)
    if not src.exists():
        raise _UsageError(f"start profile not found: {src}")
    if args.dp <= 0:
        raise _UsageError("--dp must be positive")
    start = bvp.load_profile(src, args.record)
    p0 = start.params.p
    if args.p_end == p0:
        raise _UsageError("empty schedule: --p-end equals the start exponent")
    sign = 1.0 if args.p_end > p0 else -1.0
    schedule = list(np.round(np.arange(p0 + sign * args.dp, args.p_end + sign * 1e-12,
                                       sign * args.dp), 12))
    if not schedule:
        raise _UsageError("empty schedule")
    man = Manifest(args, argv)
    man.add_input(src)
    opts = NewtonOptions(tol=args.tol, max_iters=args.max_iters)
    branch = branching.trace_p_branch(start, schedule, label=args.label, opts=opts)
    recs = branch.records
    man.profiles("records.csv", [r.profile for r in recs])
    # every record is a converged solve; the constant column keeps the format
    man.csv("curve.csv", "p,sup_norm,residual,converged",
            [r.p for r in recs], [r.sup_norm for r in recs],
            [r.residual_norm for r in recs], [1] * len(recs))
    man.json("branch.json", {
        "label": branch.label,
        "n": branch.n,
        "direction": branch.direction,
        "schedule": [float(p) for p in schedule],
        "stop_reason": branch.stop_reason,
    })
    # the LUs of every solve this run tried; the start record came solved
    man.write({"n": branch.n, "p_start": p0, "p_end": args.p_end,
               "dp": args.dp, "label": args.label},
              {"records": len(recs), "stop_reason": branch.stop_reason,
               "newton_iters": branch.newton_iters})
    return EXIT_OK


# -- oscillate / kernel / eigen / classify -------------------------------------


def cmd_oscillate(args, argv) -> int:
    if args.n <= 0.0:
        raise _UsageError("--n must be positive")
    mu = args.mu if args.mu is not None else (2.0 * args.n + 3.0) / args.n
    scale = oscillation.equilibrium_value(args.n, mu)
    man = Manifest(args, argv)
    init = oscillation.OscState(0.0, 0.5 * scale, 0.0, 0.0)
    stats = {"n": args.n, "mu": mu, "lambda": args.lam}
    if args.lam == -1:
        pc = oscillation.find_periodic_osc(args.n, mu, init)
        # the dumped trajectory shows the transient settling onto phi_*
        traj = oscillation.integrate_osc(init, args.n, mu, -1,
                                         (0.0, args.s_budget))
        stats.update(period=pc.period, amplitude=pc.amplitude,
                     multipliers=[[float(z.real), float(z.imag)]
                                  for z in pc.multipliers],
                     shooting=pc.counts)
    else:
        traj = oscillation.integrate_osc(init, args.n, mu, +1,
                                         (0.0, args.s_budget))
        stats.update(final_phi=float(traj.phi[-1]))
    stats.update(trajectory=traj.counts)
    man.csv("trajectory.csv", "s,phi,phi1,phi2",
            traj.s, traj.phi, traj.phi1, traj.phi2)
    man.write({"n": args.n, "mu": mu, "lambda": args.lam}, stats)
    return EXIT_OK


def cmd_kernel(args, argv) -> int:
    man = Manifest(args, argv)
    table = spectral.compute_kernel(args.L, args.N)
    man.csv("kernel.csv", "y,F,F1,F2", table.nodes, table.F, table.F1, table.F2)
    stats = {"normalization": table.normalization,
             "decay_D": table.decay_fit[0],
             "decay_d": table.decay_fit[1]}
    if args.pairing_lmax is not None:
        ls = range(args.pairing_lmax + 1)
        pairs = [(l, k) for l in ls for k in ls]
        values = [spectral.pairing(table, l, k) for l, k in pairs]
        man.csv("pairing.csv", "l,k,value", *zip(*pairs), values)
        stats["pairing_defect"] = max(abs(v - float(l == k))
                                      for (l, k), v in zip(pairs, values))
    man.write({"L": args.L, "N": args.N}, stats)
    if stats.get("pairing_defect", 0.0) > PAIRING_TOL:
        print(f"pairing defect {stats['pairing_defect']:.3g} exceeds "
              f"{PAIRING_TOL:g}: widen --L", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_eigen(args, argv) -> int:
    ns = [float(v) for v in args.n.split(",")]
    Rs = [float(v) for v in args.R.split(",")]
    man = Manifest(args, argv)
    grid = [(n, R) for n in ns for R in Rs]
    lams = [variational.first_nonlinear_eigenvalue(n, R, args.m) for n, R in grid]
    man.csv("eigenvalues.csv", "n,R,lambda1", *zip(*grid), lams)
    man.write({"n": ns, "R": Rs, "m": args.m}, {"count": len(grid)})
    return EXIT_OK


def cmd_classify(args, argv) -> int:
    src = Path(args.profile)
    if not src.exists():
        raise _UsageError(f"profile not found: {src}")
    prof = bvp.load_profile(src, args.record)
    man = Manifest(args, argv)
    man.add_input(src)
    parameters = {"tol_zero": args.tol_zero, "tol_eq": args.tol_eq}
    if not prof.converged:
        man.write(parameters, {"converged": False,
                               "residual_norm": prof.residual_norm})
        print("profile not converged", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    index = patterns.classify(prof, args.tol_zero, args.tol_eq)
    events = patterns.crossing_locations(prof, args.tol_zero, args.tol_eq)
    man.json("classification.json", {
        "index": str(index),
        "tokens": [{"level": lv, "count": ct} for lv, ct in index.tokens],
        "crossings": [{"y": pos, "level": lv} for pos, lv in events],
        "transversal_zeros": patterns.transversal_zeros(
            prof, tol_zero=args.tol_zero, tol_eq=args.tol_eq),
    })
    man.write(parameters, {"index": str(index)})
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
    # filecmp's cache is keyed by size and mtime, blind to a same-tick rewrite
    filecmp.clear_cache()
    for name in data["outputs"]:
        a, b = orig_dir / name, scratch / name
        if not b.exists() or not filecmp.cmp(a, b, shallow=False):
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
    pb.add_argument("--record", type=int, default=0, help=RECORD_HELP)
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
                    choices=range(spectral.MAX_PAIRING + 1),
                    help="write the pairing matrix up to this l; lmax >= 1 "
                         "needs --L 44 --N 20000 to meet its 1e-5 bound")
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
    pc.add_argument("--record", type=int, default=0, help=RECORD_HELP)
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
