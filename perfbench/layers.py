"""Layer instrumentation for the benchmark: counters and spans.

Nothing under src/ is modified.  For the length of one pass, `instrument`
replaces module attributes of the package with wrappers: each layer's
public functions, the scipy entry points the modules import by name, and
the `bvp.Mesh.h` property.  The originals are restored when the pass ends.

A `Recorder` always counts calls (and solver work read off scipy result
objects).  With `spans=True` it also keeps one span per call --
(name, start, end, parent) -- in compact in-memory arrays, written out as
JSONL only after the pass.  Counting without spans is the untraced
counting pass: it reads no clock, so its counts show whether tracing
changed the program's path.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from blowuplab import (branching, bvp, cli, model, oscillation, patterns,
                       spectral, variational)


class Recorder:
    """Call counts at the wrapped boundaries, plus spans when asked."""

    def __init__(self, spans: bool):
        self.spans = spans
        self.counts = Counter()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_outer = array("b")   # 1 unless a same-name span encloses it
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._depth = Counter()

    def wrap(self, name: str, fn):
        """Wrapper that counts each call of fn, and records its span."""
        counts = self.counts
        if not self.spans:
            def counted(*args, **kwargs):
                counts[name] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    counts[name + ".raised"] += 1
                    raise
            return counted

        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, depth = self._stack, self._depth
        s_name, s_parent, s_outer = self.span_name, self.span_parent, self.span_outer
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counts[name] += 1
            sid = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_outer.append(depth[name] == 0)
            s_end.append(0.0)
            depth[name] += 1
            stack.append(sid)
            s_start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                s_end[sid] = clock()
                stack.pop()
                depth[name] -= 1
        return traced

    # -- span post-processing ------------------------------------------------

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """name -> (inclusive seconds, self seconds).

        Inclusive time sums only outermost spans of a name, so recursion
        (cli.main under replay) is not counted twice.  Self time is a
        span's duration minus the durations of its direct children; calls
        run on one thread, so children never overlap.
        """
        if not self.span_start:
            return {}
        start = np.frombuffer(self.span_start, dtype=float)
        dur = np.frombuffer(self.span_end, dtype=float) - start
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        name = np.frombuffer(self.span_name, dtype=np.int64)
        outer = np.frombuffer(self.span_outer, dtype=np.int8).astype(bool)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        k = len(self.names)
        incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
        excl = np.bincount(name, weights=self_t, minlength=k)
        return {n: (float(incl[i]), float(excl[i]))
                for i, n in enumerate(self.names)}

    def write_spans(self, path) -> int:
        """Write spans as JSONL (times in seconds from the first span)."""
        t0 = self.span_start[0] if self.span_start else 0.0
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_start)):
                par = self.span_parent[i]
                fh.write('{"id":%d,"name":%s,"parent":%s,"start":%.9f,"end":%.9f}\n'
                         % (i, json.dumps(names[self.span_name[i]]),
                            "null" if par < 0 else str(par),
                            self.span_start[i] - t0, self.span_end[i] - t0))
        return len(self.span_start)


# -- adapters: read solver work off the calls they wrap ------------------------


def _solve_profile(rec, fn):
    def call(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except Exception:
            rec.counts["bvp.solve_profile.unconverged"] += 1
            raise
        if not out.converged:
            rec.counts["bvp.solve_profile.unconverged"] += 1
        return out
    return call


def _trace_p_branch(rec, fn):
    def call(*args, **kwargs):
        before = rec.counts["bvp.solve_profile"]
        out = fn(*args, **kwargs)
        rec.counts["branching.attempts"] += rec.counts["bvp.solve_profile"] - before
        rec.counts["branching.records"] += len(out.records)
        # the start profile is the first record and costs no attempt
        rec.counts["branching.accepted"] += len(out.records) - 1
        return out
    return call


def _ivp(prefix):
    def adapter(rec, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            rec.counts[prefix + ".nfev"] += int(out.nfev)
            rec.counts[prefix + ".steps"] += int(out.t.size - 1)
            return out
        return call
    return adapter


def _result_counts(prefix, fields):
    def adapter(rec, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            for f in fields:
                rec.counts[f"{prefix}.{f}"] += int(getattr(out, f))
            return out
        return call
    return adapter


def _solve_bvp(rec, fn):
    # solve_bvp reports no evaluation count; count calls of its rhs instead
    def call(fun, *args, **kwargs):
        def counted_fun(*a):
            rec.counts["spectral.solve_bvp.nfev"] += 1
            return fun(*a)
        return fn(counted_fun, *args, **kwargs)
    return call


# (module, attribute, span name, adapter or None)
WRAPPED = [
    (model, "derive_params", "model.derive_params", None),
    (bvp, "solve_profile", "bvp.solve_profile", _solve_profile),
    (bvp, "assemble_residual", "bvp.assemble_residual", None),
    (bvp, "assemble_jacobian", "bvp.assemble_jacobian", None),
    (bvp, "solve_banded", "bvp.solve_banded", None),
    (bvp, "shoot_periodic_full", "bvp.shoot_periodic_full", None),
    (bvp, "solve_ivp", "bvp.solve_ivp", _ivp("bvp.solve_ivp")),
    (bvp, "root", "bvp.root", _result_counts("bvp.root", ("nfev",))),
    (bvp, "save_profile", "bvp.save_profile", None),
    (bvp, "load_profile", "bvp.load_profile", None),
    (branching, "trace_p_branch", "branching.trace_p_branch", _trace_p_branch),
    (patterns, "guess_factory", "patterns.guess_factory", None),
    (oscillation, "find_periodic_osc", "oscillation.find_periodic_osc", None),
    (oscillation, "solve_ivp", "oscillation.solve_ivp", _ivp("oscillation.solve_ivp")),
    (spectral, "compute_kernel", "spectral.compute_kernel", None),
    (spectral, "solve_bvp", "spectral.solve_bvp", _solve_bvp),
    (spectral, "pairing", "spectral.pairing", None),
    (variational, "first_nonlinear_eigenvalue",
     "variational.first_nonlinear_eigenvalue", None),
    (variational, "minimize", "variational.minimize",
     _result_counts("variational.minimize", ("nit", "nfev"))),
    (cli, "main", "cli.main", None),
]


@contextmanager
def instrument(rec: Recorder):
    """Install the wrappers for one pass; always restore the originals.

    A wrapped name the program no longer defines is skipped, so its
    metrics read 0 instead of the benchmark failing.
    """
    saved = []
    try:
        for mod, attr, name, adapter in WRAPPED:
            if not hasattr(mod, attr):
                continue
            orig = getattr(mod, attr)
            inner = adapter(rec, orig) if adapter else orig
            saved.append((mod, attr, orig))
            setattr(mod, attr, rec.wrap(name, inner))
        h = bvp.Mesh.__dict__.get("h")
        if isinstance(h, property):
            saved.append((bvp.Mesh, "h", h))
            bvp.Mesh.h = property(rec.wrap("bvp.Mesh.h", h.fget))
        yield rec
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


# -- per-layer metrics -----------------------------------------------------------

TIMED_LAYERS = {
    # layer -> metric suffixes that need span times
    "bvp.solve_profile": ("s", "self_s"),
    "bvp.assemble_residual": ("s", "us_per_call"),
    "bvp.assemble_jacobian": ("s", "us_per_call"),
    "bvp.solve_banded": ("s", "us_per_call"),
    "bvp.Mesh.h": ("s", "us_per_call"),
    "bvp.shoot_periodic_full": ("s",),
    "bvp.solve_ivp": ("s",),
    "bvp.save_profile": ("s",),
    "bvp.load_profile": ("s",),
    "branching.trace_p_branch": ("s", "self_s"),
    "patterns.guess_factory": ("s",),
    "oscillation.find_periodic_osc": ("s", "self_s"),
    "oscillation.solve_ivp": ("s",),
    "spectral.compute_kernel": ("s",),
    "spectral.solve_bvp": ("s",),
    "spectral.pairing": ("s",),
    "variational.first_nonlinear_eigenvalue": ("s",),
    "variational.minimize": ("s",),
    "cli.main": ("s", "self_s"),
}

COUNTED = [
    "model.derive_params.calls",
    "bvp.solve_profile.calls",
    "bvp.solve_profile.unconverged",
    "bvp.assemble_residual.calls",
    "bvp.assemble_jacobian.calls",
    "bvp.solve_banded.calls",
    "bvp.Mesh.h.calls",
    "bvp.solve_ivp.calls",
    "bvp.solve_ivp.nfev",
    "bvp.root.nfev",
    "bvp.save_profile.calls",
    "bvp.load_profile.calls",
    "branching.attempts",
    "branching.records",
    "patterns.guess_factory.calls",
    "oscillation.solve_ivp.nfev",
    "oscillation.solve_ivp.steps",
    "spectral.solve_bvp.nfev",
    "spectral.pairing.calls",
    "variational.first_nonlinear_eigenvalue.calls",
    "variational.minimize.nit",
    "variational.minimize.nfev",
    "cli.main.calls",
    "cli.bytes_written",
    "cli.files_written",
]


def _ratio(num: float, den: float) -> float:
    # a layer the workload never enters reports 0, not a division error
    return num / den if den else 0.0


def count_value(counts: Counter, metric: str) -> int:
    key = metric[:-len(".calls")] if metric.endswith(".calls") else metric
    return int(counts[key])


def layer_metrics(counts: Counter, times: dict) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    out = {m: float(count_value(counts, m)) for m in COUNTED}
    for layer, kinds in TIMED_LAYERS.items():
        incl, excl = times.get(layer, (0.0, 0.0))
        for kind in kinds:
            if kind == "s":
                out[f"{layer}.s"] = incl
            elif kind == "self_s":
                out[f"{layer}.self_s"] = excl
            else:
                out[f"{layer}.us_per_call"] = 1e6 * _ratio(incl, counts[layer])
    jac = counts["bvp.assemble_jacobian"]
    solves = counts["bvp.solve_profile"]
    out["bvp.newton_iters"] = float(jac)
    out["bvp.residuals_per_iter"] = _ratio(counts["bvp.assemble_residual"], jac)
    out["bvp.converged_ratio"] = _ratio(
        solves - counts["bvp.solve_profile.unconverged"], solves)
    out["branching.accept_ratio"] = _ratio(counts["branching.accepted"],
                                           counts["branching.attempts"])
    return out
