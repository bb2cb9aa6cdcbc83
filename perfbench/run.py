"""Benchmark of blowuplab: one workload per process, closed loop, one caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload branch_fold --seed 0 --seconds 20 --trace 0

--trace 0 times the workload untraced and prints the end-to-end metrics;
--trace 1 runs it once under counters only and once under spans, and
prints the per-layer metrics.  A readable report comes first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Details (samples, checks, counts and the
machine record) go to perfbench/out/, spans to perfbench/out/*.spans.jsonl.
Exit code 0 means every check passed; 2 means the checkout holds no
program to measure.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy loads: the program is serial
# by design and cpu_s must expose any hidden threading
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def _load_program() -> None:
    """Import blowuplab from ./src of the checkout, never from elsewhere."""
    src = Path.cwd() / "src"
    if not (src / "blowuplab" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {src}/blowuplab not found "
                         "(run from the root of a checkout)")
    sys.path.insert(0, str(src))
    import blowuplab
    if Path(blowuplab.__file__).resolve().parent != (src / "blowuplab").resolve():
        raise SystemExit(f"blowuplab imported from {blowuplab.__file__}, not {src}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- set-up time -------------------------------------------------------------------


def _probe_setup(workload: str, seed: int) -> float:
    """Interpreter start + imports + input building, in a fresh process.

    The child prints the monotonic clock (system-wide on Linux) once its
    inputs are built; the parent reads it against its own clock at spawn.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(done.stdout.strip().splitlines()[-1]) - t0


# -- machine record ----------------------------------------------------------------


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def machine_record() -> dict:
    import numpy
    import scipy
    model = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(f"L{_read(idx / 'level')} {_read(idx / 'type')} "
                      f"{_read(idx / 'size')}")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# -- one unit of work ----------------------------------------------------------------


def _scratch_dir() -> Path:
    tmp = BENCH_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=tmp))


def run_unit(workload, inputs: dict):
    """Execute once (timed), check the outputs (untimed), clean up.

    An exception from the program counts as one failed check, so a run
    that breaks still reports what it attempted.
    """
    wd = _scratch_dir()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = workload.execute(inputs, wd)
        finally:
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        outcome = workload.check(inputs, result, wd)
    except Exception as exc:
        from workloads import Outcome
        outcome = Outcome([(type(exc).__name__, False, str(exc))], "raised")
    finally:
        shutil.rmtree(wd, ignore_errors=True)
        with contextlib.suppress(OSError):
            wd.parent.rmdir()   # only once empty
    return wall, cpu, outcome


def _tail(samples: list) -> tuple:
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (1.0 - q / 100.0) >= 10:
            return q, float(sorted(samples)[math.ceil(q / 100.0 * n) - 1])
    return None


# -- the two kinds of run ------------------------------------------------------------


def measure(workload, inputs: dict, seconds: float) -> dict:
    """Untraced closed loop: repeat the unit while another one fits in time.

    A unit with a failed check ends the loop: its time is not a result.
    """
    walls, cpus, checks, prints = [], [], [], set()
    start = time.perf_counter()
    while True:
        wall, cpu, outcome = run_unit(workload, inputs)
        walls.append(wall)
        cpus.append(cpu)
        checks += outcome.checks
        prints.add(outcome.fingerprint)
        elapsed = time.perf_counter() - start
        if (elapsed + statistics.median(walls) > seconds
                or not all(ok for _, ok, _ in outcome.checks)):
            break
    if len(walls) > 1:
        checks.append(("repeats give identical outputs", len(prints) == 1,
                       f"{len(prints)} distinct of {len(walls)}"))
    return {"walls": walls, "cpus": cpus, "checks": checks}


def traced(workload, inputs: dict, out_stem: Path) -> dict:
    """Counting pass, then spans pass, on the same inputs."""
    import layers
    passes = []
    for spans in (False, True):
        rec = layers.Recorder(spans=spans)
        with layers.instrument(rec):
            wall, _, outcome = run_unit(workload, inputs)
        rec.counts.update(outcome.counts)
        passes.append((rec, wall, outcome))
    (counting, counting_wall, counting_out), (rec, wall, out) = passes
    checks = counting_out.checks + out.checks
    checks.append(("traced pass repeats the outputs",
                   counting_out.fingerprint == out.fingerprint, "digest"))
    diff = sorted(k for k in set(counting.counts) | set(rec.counts)
                  if counting.counts[k] != rec.counts[k])
    checks.append(("traced pass repeats the counts", not diff,
                   ", ".join(diff) or f"{len(rec.counts)} counters equal"))
    metrics = layers.layer_metrics(rec.counts, rec.layer_times())
    metrics["trace_overhead_frac"] = wall / counting_wall - 1.0
    n_spans = rec.write_spans(out_stem.with_suffix(".spans.jsonl"))
    return {"metrics": metrics, "checks": checks, "counts": dict(rec.counts),
            "walls": [counting_wall, wall], "spans": n_spans}


# -- report --------------------------------------------------------------------------

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ops_ok_frac": "frac"}


def _per_layer_units() -> dict:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _load_program()
    except SystemExit as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.inputs(args.seed)
        print(time.monotonic())
        return 0

    setups = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    inputs = workload.inputs(args.seed)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(), "setup_s_samples": setups}

    if args.trace:
        res = traced(workload, inputs, out_dir / args.workload)
        units = _per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in res["metrics"].items() if k in units}
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise RuntimeError(f"per-layer metrics not produced: {missing}")
        record.update(counts=res["counts"], pass_walls_s=res["walls"],
                      spans_written=res["spans"])
    else:
        res = measure(workload, inputs, args.seconds)
        walls = res["walls"]
        failed_frac = sum(not ok for _, ok, _ in res["checks"]) / len(res["checks"])
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(res["cpus"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_frac": 1.0 - failed_frac,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        tail = _tail(walls)
        record.update(wall_s_samples=walls, cpu_s_samples=res["cpus"],
                      wall_s_tail=tail, ops_failed_frac=failed_frac)

    checks = res["checks"]
    failed = sum(not ok for _, ok, _ in checks)
    record.update(checks=checks, metrics=metrics)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({m['cpu_model']}, {m['cpus_usable']}/{m['nproc']} cpus, "
          f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']})")
    print(f"  caches: {'; '.join(m['caches'])}")
    tally = {}
    for name, ok, measured in checks:
        passed, seen, _ = tally.get(name, (0, 0, measured))
        tally[name] = (passed + ok, seen + 1, measured if not ok else _)
    for name, (passed, seen, measured) in tally.items():
        print(f"  {'ok  ' if passed == seen else 'FAIL'} {name}: {measured} "
              f"({passed}/{seen} passed)")
    if not args.trace:
        print(f"  wall_s: median of {len(walls)} samples; tail percentile: "
              + (f"p{tail[0]:g} = {tail[1]:.4f} s" if tail
                 else "none (needs >= 11 samples)"))
        print(f"  ops_failed_frac: {record['ops_failed_frac']:.4f} "
              f"({failed} of {len(checks)} checks)")
    else:
        print("  solve_ivp reports accepted steps only; rejected steps need "
              "tracing inside the program")
    for k, v in metrics.items():
        print(f"  {k:45s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
