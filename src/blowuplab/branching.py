"""Continuation of profile families in the source exponent p.

Branches start from a converged profile at the variational exponent
p = n+1 and walk a monotone schedule of p values.  Every solve starts
from the Lagrange extrapolant through the last min(k, 4) of the k
records: a cubic, which takes a sixth fewer LUs than the secant of
Allgower & Georg (Numerical Continuation Methods, 1990, ch. 2), while a
quartic takes no fewer.  With one record it is the start profile itself.
Everything stays in unit-equilibrium variables, where the equilibria are
pinned at +-1 for every p, so profiles at different p share one mesh and
one scale.

A step that Newton cannot solve is halved, walking through midpoints;
every converged solve becomes a record.  After MAX_HALVINGS + 1 failures
in a row the branch stops with stop_reason "newton-failure".  A stopped
branch is data, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bvp
from .bvp import NewtonOptions, Profile

__all__ = [
    "BranchRecord",
    "Branch",
    "trace_p_branch",
    "detect_branch_end",
]

MAX_HALVINGS = 4


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
    newton_iters: int = 0            # LUs of every solve tried, failed ones too


def _predict(records, p: float) -> Profile:
    """The guess at p: the Lagrange extrapolant through the last
    min(len(records), 4) records, the last profile itself with one."""
    last = records[-4:]
    if len(last) == 1:
        return last[0].profile
    return last[-1].profile.replace(values=sum(
        math.prod((p - b.p) / (a.p - b.p) for b in last if b is not a)
        * a.profile.values for a in last))


def trace_p_branch(start: Profile, schedule, label: str = "branch",
                   opts: NewtonOptions = NewtonOptions()) -> Branch:
    """Natural-parameter continuation along a monotone p schedule.

    The start profile must be converged and the schedule must open with a
    step of at most 5e-2 from it.  Each target is approached with up to
    MAX_HALVINGS step halvings (midpoint insertions) when Newton fails;
    every converged solve becomes a record.  Each solve starts from
    _predict at the trial p.  The branch never extrapolates past a failure.
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
    for target in schedule:
        halvings = 0
        while abs(prev.params.p - target) > 1e-14:
            p_try = prev.params.p + (target - prev.params.p) * 0.5 ** halvings
            try:
                sol = bvp.solve_profile(prev.params.with_p(p_try),
                                        _predict(branch.records, p_try), opts)
            except bvp.NewtonError as exc:
                branch.newton_iters += exc.newton_iters
                halvings += 1
                if halvings > MAX_HALVINGS:
                    branch.stop_reason = "newton-failure"
                    return branch
                continue
            branch.newton_iters += sol.newton_iters
            branch.records.append(BranchRecord(
                p_try, sol.sup_norm, sol.residual_norm, sol))
            prev = sol
            halvings = 0
    return branch


def detect_branch_end(branch: Branch) -> str:
    """completed | newton-failure: how the branch ended.

    Running out of step halvings does not locate a fold; the stop reason
    is reported as it is.
    """
    return branch.stop_reason
