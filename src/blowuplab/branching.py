"""Continuation of profile families in the source exponent p.

Branches start from a converged profile at the variational exponent
p = n+1 and walk a monotone schedule of p values, warm-starting every
solve from the previous converged profile.  Everything stays in
unit-equilibrium variables, where the equilibria are pinned at +-1 for
every p and the warm start is the identity transfer.

Steps are halved (up to four times, walking through midpoints) when a
solve fails or when the profile jumps by more than ten times the
per-branch distance-per-dp estimate; after that the branch stops and
records why.  A stopped branch is data, not an error: the stopping
pattern feeds the saddle-node heuristics in detect_branch_end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bvp
from .bvp import NewtonOptions, Profile

__all__ = [
    "BranchRecord",
    "Branch",
    "trace_p_branch",
    "branch_summary",
    "detect_branch_end",
]

MAX_HALVINGS = 4
JUMP_FACTOR = 10.0


@dataclass(frozen=True)
class BranchRecord:
    p: float
    sup_norm: float
    residual_norm: float
    profile: Profile


@dataclass
class Branch:
    label: str
    n: float
    direction: str               # "increasing" | "decreasing"
    records: list = field(default_factory=list)
    stop_reason: str = "completed"   # completed | newton-failure
    stop_halvings: int = 0


def _attempt(prev: Profile, p: float, opts: NewtonOptions) -> Optional[Profile]:
    try:
        return bvp.solve_profile(prev.params.with_p(p), prev, opts)
    except bvp.NewtonError:
        return None


def trace_p_branch(start: Profile, schedule, label: str = "branch",
                   opts: NewtonOptions = NewtonOptions()) -> Branch:
    """Natural-parameter continuation along a monotone p schedule.

    The start profile must be converged and the schedule must open with a
    step of at most 5e-2 from it.  Each target is approached with up to
    four step halvings (midpoint insertions); intermediate converged
    profiles become records of their own.  The branch never extrapolates
    past a failure.
    """
    if not start.converged:
        raise ValueError("branch tracing needs a converged start profile")
    schedule = [float(p) for p in schedule]
    if not schedule:
        raise ValueError("empty p schedule")
    p0 = start.params.p
    diffs = np.diff([p0] + schedule)
    if np.all(diffs > 0):
        direction = "increasing"
    elif np.all(diffs < 0):
        direction = "decreasing"
    else:
        raise ValueError("schedule must be strictly monotone away from the start")
    if abs(schedule[0] - p0) > 5e-2 + 1e-15:
        raise ValueError("schedule must begin adjacent to the start "
                         f"(|dp| <= 5e-2), got |dp| = {abs(schedule[0] - p0):g}")

    branch = Branch(label=label, n=start.params.n, direction=direction)
    branch.records.append(BranchRecord(p0, start.sup_norm, start.residual_norm,
                                       start))
    prev = start
    rate_history = []  # max-norm distance per unit dp, one entry per step

    dp_floor = 1e-3 * min(abs(d) for d in diffs if d != 0.0)
    for target in schedule:
        halvings = 0
        while abs(prev.params.p - target) > 1e-14:
            # the attempt is the remaining gap halved `halvings` times;
            # halvings reset after every accepted step
            step = target - prev.params.p
            p_try = prev.params.p + step * 0.5 ** halvings
            if abs(p_try - prev.params.p) < dp_floor:
                branch.stop_reason = "newton-failure"
                branch.stop_halvings = halvings
                return branch
            sol = _attempt(prev, p_try, opts)
            if sol is not None:
                dist = float(np.max(np.abs(sol.values - prev.values)))
                dp = abs(p_try - prev.params.p)
                jumped = (len(rate_history) >= 3 and dp > 0
                          and dist > JUMP_FACTOR * np.median(rate_history) * dp)
                if jumped and halvings < MAX_HALVINGS:
                    halvings += 1
                    continue
                if dp > 0:
                    rate_history.append(dist / dp)
                branch.records.append(BranchRecord(
                    p_try, sol.sup_norm, sol.residual_norm, sol))
                prev = sol
                halvings = 0
                continue
            halvings += 1
            if halvings > MAX_HALVINGS:
                branch.stop_reason = "newton-failure"
                branch.stop_halvings = halvings - 1
                return branch
    return branch


def branch_summary(branch: Branch) -> dict:
    """Plot-ready (p, sup_norm) data plus the blow-up trend diagnostics.

    Profiles are stored in unit-equilibrium scaling, so sup_norm is
    already the ratio of the raw profile amplitude to the equilibrium
    f_*(p); raw_sup restores f_*(p) * sup_norm, which diverges like
    f_*(p) as p -> 1 when the ratio stays bounded.
    """
    if not branch.records:
        raise ValueError("empty branch")
    rows = []
    for r in branch.records:
        f_star = (r.p - 1.0) ** (-1.0 / (r.p - 1.0)) if r.p > 1.0 else math.inf
        rows.append({
            "p": r.p,
            "sup_norm": r.sup_norm,
            "residual_norm": r.residual_norm,
            "raw_sup": f_star * r.sup_norm,
        })
    return {
        "label": branch.label,
        "n": branch.n,
        "direction": branch.direction,
        "stop_reason": branch.stop_reason,
        "rows": rows,
    }


def detect_branch_end(branch: Branch) -> str:
    """completed | newton-failure | turning-suspected.

    A turning (saddle-node) point is suspected when the branch died under
    exhausted step halving while the sup-norm slope |d sup / dp| of the
    last converged records kept growing: the branch is bending back.
    """
    if branch.stop_reason == "completed":
        return "completed"
    # sample the tail of the branch at p values far enough apart that the
    # sup-norm slope is resolved (halving leaves micro-steps behind)
    pts = []
    for r in reversed(branch.records):
        if not pts or abs(pts[-1][0] - r.p) >= 1e-4:
            pts.append((r.p, r.sup_norm))
        if len(pts) == 3:
            break
    if len(pts) == 3 and branch.stop_halvings >= MAX_HALVINGS:
        (p3, s3), (p2, s2), (p1, s1) = pts
        slope_a = abs((s2 - s1) / (p2 - p1))
        slope_b = abs((s3 - s2) / (p3 - p2))
        if slope_b > slope_a:
            return "turning-suspected"
    return "newton-failure"
