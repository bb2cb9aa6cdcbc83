"""Damped Newton's method (Deuflhard's NLEQ-ERR, Newton Methods for Nonlinear
Problems, 2004) behind every nonlinear solve of the package: the callers
supply only a residual and a factorization of its Jacobian."""

import math

import numpy as np

__all__ = ["NewtonError", "T_MIN", "MAX_ITERS", "solve"]

# smallest damping factor before Newton gives up (Deuflhard's lambda_min)
T_MIN = 1e-8
# iteration budget of the callers that take no budget option
MAX_ITERS = 100


class NewtonError(RuntimeError):
    """Newton failed; best is the last iterate (a Profile from bvp) and
    newton_iters the number of factorizations made."""

    def __init__(self, message, best, newton_iters):
        super().__init__(message)
        self.best = best
        self.newton_iters = newton_iters


def solve(residual, factor, x, scale, tol: float, max_iters: int):
    """Root of residual(x) = 0 and the number of factorizations it took.

    factor(x, r), with r = residual(x), returns b -> J(x)^-1 b (None if
    singular): the step dx = -J^-1 F(x) and, per damping factor t tried,
    dx_bar = -J^-1 F(x + t dx).  In RMS norms scaled by max(|x_i|,
    scale_i), t passes if ||dx_bar|| <= (1 - t/4) ||dx||, and mu = ||dx||
    t^2 / (2 ||dx_bar - (1-t) dx||) gives the next t: min(1, mu) after a
    pass, min(t/2, mu) after a failure.  Converged is a correction (dx, or
    dx_bar after a full step) of at most tol; the root is that iterate
    plus that correction.  A singular factor, t < T_MIN or max_iters
    factorizations raise NewtonError with the last iterate and the
    factorization count.
    """
    x = np.array(x, dtype=float)
    t, r = 1.0, residual(x)
    for it in range(max_iters):
        lin = factor(x, r)
        dx = None if lin is None else -lin(r)
        if dx is None or not np.all(np.isfinite(dx)):
            raise NewtonError(f"singular factor at Newton step {it}", x, it + 1)
        w = np.maximum(np.abs(x), scale) * math.sqrt(x.size)
        dx_norm = np.linalg.norm(dx / w)
        if dx_norm <= tol:
            return x + dx, it + 1
        while True:
            trial = x + t * dx
            trial_r = residual(trial)
            dx_bar = -lin(trial_r)
            bar_norm = np.linalg.norm(dx_bar / w)
            gap = np.linalg.norm((dx_bar - (1.0 - t) * dx) / w)
            mu = 0.5 * dx_norm * t * t / gap if gap > 0.0 else math.inf
            if bar_norm <= (1.0 - 0.25 * t) * dx_norm:
                break
            t = min(0.5 * t, mu)
            if t < T_MIN:
                raise NewtonError(f"divergence at Newton step {it}: t = {t:.2g}",
                                  x, it + 1)
        x, r = trial, trial_r
        if t == 1.0 and bar_norm <= tol:
            return x + dx_bar, it + 1
        t = min(1.0, mu)
    raise NewtonError(f"no convergence in {max_iters} Newton steps", x, max_iters)
