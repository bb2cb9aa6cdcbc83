"""Command-line front end: reproducible experiments, plot-ready dumps.

main builds the Manifest of every command but replay, the one writer of
its files: it lists each file written (by `bvp.write_csv`, `write_json` or
`save_profile`) and ends with a manifest.json recording the argument
vector, resolved parameters, input hashes, output list, wall time and
solver statistics.
`blowuplab replay manifest.json` re-executes the recorded invocation into
a scratch directory and decides from the two run records: the re-run's
inputs, outputs, parameters and solver_stats must equal the recorded ones
and every output must match byte for byte, so a failure that reproduces
is a reproduction and one that now converges is a mismatch.

Exit codes: 0 success, 1 usage error (a ValueError or OSError, a
non-finite number included; nothing written), 2 computation finished
without convergence or outside its accuracy bound (best iterate still
written), or failed with a RuntimeError (manifest.json says why).
"""

from __future__ import annotations

import argparse
import functools
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

RECORD_HELP = ("0-based record of the stored profile: a row of a branch's "
               "records.npy, a solve's profile.csv holds only 0")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Manifest:
    """Run record and the one writer of a command's files.

    Each output method writes its file into the output directory (--out,
    else $BLOWUPLAB_OUT, else the working directory; made with the first
    file) and lists it, so the record names exactly the files the command
    wrote.  write records the command's parameters as they stand.
    """

    def __init__(self, args, argv):
        self.out_dir = Path(args.out or os.environ.get("BLOWUPLAB_OUT") or ".")
        self.parameters = {}
        self.data = {
            "version": __version__,
            "argv": list(argv),
            "inputs": {},
            "outputs": [],
        }
        self._t0 = time.perf_counter()

    def add_input(self, path):
        """Record the hashes of a stored profile table and its JSON sidecar."""
        for p in (Path(path), Path(path).with_suffix(".json")):
            self.data["inputs"][p.name] = _sha256(p)

    @functools.cached_property
    def _dir(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir

    def _output(self, name: str) -> Path:
        self.data["outputs"].append(name)
        return self._dir / name

    def csv(self, name: str, header: str, *columns) -> None:
        bvp.write_csv(self._output(name), header, columns)

    def json(self, name: str, obj) -> None:
        bvp.write_json(self._output(name), obj)

    def profiles(self, name: str, profs) -> None:
        sidecar = bvp.save_profile(profs, self._output(name))
        self._output(sidecar.name)

    def write(self, solver_stats: dict) -> None:
        self.data.update(parameters=self.parameters, solver_stats=solver_stats,
                         wall_time_s=time.perf_counter() - self._t0)
        bvp.write_json(self._dir / "manifest.json", self.data)


# -- solve --------------------------------------------------------------------


def _parse_family(text: str, separation: float, n: float) -> patterns.FamilySpec:
    """KIND[:INDEX] as a FamilySpec; `q` is short for q_type."""
    kind, _, idx = text.partition(":")
    return patterns.FamilySpec("q_type" if kind == "q" else kind,
                               int(idx) if idx else 0, separation, n)


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
    walk that stops short of params.p raises NewtonError carrying its last
    profile, marked unconverged.  A walk's profile counts the LUs of the
    anchor and of every solve the walk tried.
    """
    p_var = params.n + 1.0
    if spec.kind == "q_type" or abs(params.p - p_var) <= 0.05:
        return bvp.solve_profile(params, guess, opts)
    anchor = bvp.solve_profile(params.with_p(p_var), guess, opts)
    steps = max(2, int(math.ceil(abs(params.p - p_var) / 0.05)))
    schedule = np.linspace(p_var, params.p, steps + 1)[1:]
    branch = branching.trace_p_branch(anchor, schedule, label="warm-start",
                                      opts=opts)
    last = branch.records[-1].profile.replace(
        converged=branch.stop_reason == "completed",
        newton_iters=anchor.newton_iters + branch.newton_iters)
    if not last.converged:
        raise bvp.NewtonError(f"warm-start walk stopped at p = "
                              f"{last.params.p!r} short of p = {params.p!r} "
                              f"({branch.stop_reason})", last, last.newton_iters)
    return last


def cmd_solve(args, man) -> int:
    params = ProblemParams(n=args.n, p=args.p, eps=args.eps)
    opts = NewtonOptions(tol=args.tol, max_iters=args.max_iters)
    spec = _parse_family(args.family, args.separation, args.n)
    mesh = _family_mesh(spec, args.R, args.N)
    schedule = ([float(s) for s in args.eps_schedule.split(",")]
                if args.eps_schedule else None)
    man.parameters = {"n": args.n, "p": args.p,
                      "eps": schedule[-1] if schedule else args.eps,
                      "family": args.family, "R": args.R, "N": args.N,
                      "tol": args.tol}
    template = None
    if spec.kind in ("glue_pp", "glue_mp", "q_type") or (
            spec.kind == "basic" and spec.index > 0):
        t_guess = patterns.guess_factory(
            patterns.FamilySpec("basic", 0, n=args.n),
            Mesh.uniform(0.0, args.R, args.N), params)
        template = bvp.solve_profile(params, t_guess)
    guess = patterns.guess_factory(spec, mesh, params, template=template)
    failure = {}
    try:
        if schedule:
            sol = bvp.eps_continuation(params, guess, schedule, opts)
        else:
            sol = _solve_with_warm_start(params, guess, spec, opts)
    except bvp.NewtonError as exc:
        sol, failure["message"] = exc.best, str(exc)
    man.parameters["bc"] = sol.bc
    man.profiles("profile.csv", [sol])
    man.write({"converged": sol.converged, "p": sol.params.p,
               "eps": sol.params.eps, "residual_norm": sol.residual_norm,
               "newton_iters": sol.newton_iters, "sup_norm": sol.sup_norm,
               **failure})
    return EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE


# -- branch -------------------------------------------------------------------


def cmd_branch(args, man) -> int:
    src = Path(args.from_profile)
    if not src.exists():
        raise ValueError(f"start profile not found: {src}")
    if not (math.isfinite(args.dp) and args.dp > 0):
        raise ValueError("--dp must be finite and positive")
    opts = NewtonOptions(tol=args.tol, max_iters=args.max_iters)
    start = bvp.load_profile(src, args.record)
    p0 = start.params.p
    if args.p_end == p0:
        raise ValueError("empty schedule: --p-end equals the start exponent")
    sign = 1.0 if args.p_end > p0 else -1.0
    schedule = list(np.round(np.arange(p0 + sign * args.dp, args.p_end + sign * 1e-12,
                                       sign * args.dp), 12))
    if not schedule:
        raise ValueError("empty schedule")
    man.add_input(src)
    man.parameters = {"n": start.params.n, "p_start": p0, "p_end": args.p_end,
                      "dp": args.dp, "label": args.label}
    branch = branching.trace_p_branch(start, schedule, label=args.label, opts=opts)
    recs = branch.records
    man.profiles("records.npy", [r.profile for r in recs])
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
    man.write({"records": len(recs), "stop_reason": branch.stop_reason,
               "newton_iters": branch.newton_iters})
    return EXIT_OK


# -- oscillate / kernel / eigen / classify -------------------------------------


def cmd_oscillate(args, man) -> int:
    if not (math.isfinite(args.n) and args.n > 0.0):
        raise ValueError("--n must be finite and positive")
    mu = args.mu if args.mu is not None else (2.0 * args.n + 3.0) / args.n
    scale = oscillation.equilibrium_value(args.n, mu)
    init = oscillation.OscState(0.0, 0.5 * scale, 0.0, 0.0)
    man.parameters = {"n": args.n, "mu": mu, "lambda": args.lam}
    stats = dict(man.parameters)
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
    man.write(stats)
    return EXIT_OK


def cmd_kernel(args, man) -> int:
    man.parameters = {"L": args.L, "N": args.N}
    table = spectral.compute_kernel(args.L, args.N)
    man.csv("kernel.csv", "y,F,F1,F2", table.nodes, *table.ladder[:3])
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
    man.write(stats)
    if stats.get("pairing_defect", 0.0) > PAIRING_TOL:
        print(f"pairing defect {stats['pairing_defect']:.3g} exceeds "
              f"{PAIRING_TOL:g}: widen --L", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_eigen(args, man) -> int:
    ns = [float(v) for v in args.n.split(",")]
    Rs = [float(v) for v in args.R.split(",")]
    man.parameters = {"n": ns, "R": Rs, "m": args.m}
    grid = [(n, R) for n in ns for R in Rs]
    lams = [variational.first_nonlinear_eigenvalue(n, R, args.m) for n, R in grid]
    man.csv("eigenvalues.csv", "n,R,lambda1", *zip(*grid), lams)
    man.write({"count": len(grid)})
    return EXIT_OK


def cmd_classify(args, man) -> int:
    src = Path(args.profile)
    if not src.exists():
        raise ValueError(f"profile not found: {src}")
    prof = bvp.load_profile(src, args.record)
    man.add_input(src)
    man.parameters = {"tol_zero": args.tol_zero, "tol_eq": args.tol_eq}
    if not prof.converged:
        man.write({"converged": False, "residual_norm": prof.residual_norm})
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
    man.write({"index": str(index)})
    print(str(index))
    return EXIT_OK


# -- replay ---------------------------------------------------------------------


def cmd_replay(args, man) -> int:
    src = Path(args.manifest)
    if not src.exists():
        raise ValueError(f"manifest not found: {src}")
    recorded = json.loads(src.read_text(encoding="utf-8"))
    scratch = Path(args.scratch) if args.scratch else src.parent / "_replay"
    if scratch.resolve() == src.parent.resolve():
        raise ValueError("--scratch must not be the manifest's own directory")
    # argparse keeps the last --out
    code = main([*recorded["argv"], "--out", str(scratch)])
    if code not in (EXIT_OK, EXIT_NO_CONVERGENCE):
        print(f"replay run exited with {code}", file=sys.stderr)
        return code
    rerun = json.loads((scratch / "manifest.json").read_text(encoding="utf-8"))
    # compared as JSON text, so that a recorded NaN matches itself
    mismatches = [key for key in ("inputs", "outputs", "parameters", "solver_stats")
                  if json.dumps(rerun.get(key)) != json.dumps(recorded.get(key))]
    if not mismatches:
        mismatches = [name for name in recorded["outputs"] if
                      (scratch / name).read_bytes() != (src.parent / name).read_bytes()]
    if mismatches:
        print("replay mismatch: " + ", ".join(mismatches), file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"replay reproduced {len(recorded['outputs'])} outputs byte-exactly")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


@functools.cache  # once per process: main runs again under replay
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
    man = None
    try:
        args = parser.parse_args(argv)
        if args.func is not cmd_replay:
            man = Manifest(args, argv)
        return args.func(args, man)
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        if man is not None:
            # the run record says why no (or no further) output was written
            man.write({"converged": False, "message": str(exc)})
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
