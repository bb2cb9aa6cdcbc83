"""Oscillatory component of profiles near interfaces.

Close to an interface point y0 the profile behaves like

    f(y) = (y0 - y)^mu * phi(s),   s = ln(y0 - y),

and the bounded factor phi solves the autonomous equation

    (n+1) |P_2(phi)|^n P_3(phi) = lambda * phi,   lambda = -1 or +1,

with the P_k operators from blowuplab.model.  lambda = -1 is the
travelling-wave interface branch, whose stable sign-changing periodic
solution phi_* carries the entire local structure; lambda = +1 is the
non-oscillatory branch with a pair of attracting constant equilibria.

The exponent mu is always passed explicitly: (2n+3)/n for travelling
waves, 2(n+2)/n in the regional regime, and whatever a once-integrated
reduction calls for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .model import pk_coefficients

__all__ = [
    "OscState",
    "OscTrajectory",
    "PeriodicComponent",
    "equilibrium_value",
    "osc_rhs",
    "integrate_osc",
    "find_periodic_osc",
    "reconstruct_interface",
]

DEFAULT_DELTA = 1e-9


@dataclass(frozen=True)
class OscState:
    """Point on an oscillatory-component orbit: s plus the 3-jet of phi."""

    s: float
    phi: float
    phi1: float
    phi2: float

    def jet(self) -> np.ndarray:
        return np.array([self.phi, self.phi1, self.phi2])


@dataclass(eq=False)
class OscTrajectory:
    s: np.ndarray
    phi: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray


@dataclass(eq=False)
class PeriodicComponent:
    """One resampled period of the stable oscillatory component phi_*."""

    n: float
    mu: float
    period: float
    samples_s: np.ndarray
    samples_phi: np.ndarray
    amplitude: float

    def phi_star(self, s):
        """Periodic interpolation of phi_* at arbitrary s."""
        s = np.asarray(s, dtype=float)
        wrapped = np.mod(s - self.samples_s[0], self.period)
        return np.interp(wrapped, self.samples_s - self.samples_s[0],
                         self.samples_phi)


def equilibrium_value(n: float, mu: float) -> float:
    """Positive constant equilibrium of the lambda = +1 branch.

    Constants annihilate the equation when
    (n+1)(mu-2) [mu(mu-1)]^(n+1) |phi|^n = 1, i.e.

        phi_+ = [(n+1)(mu-2)]^(-1/n) * [mu(mu-1)]^(-(n+1)/n).
    """
    if n <= 0 or mu <= 2:
        raise ValueError("equilibria need n > 0 and mu > 2")
    return ((n + 1.0) * (mu - 2.0)) ** (-1.0 / n) * (mu * (mu - 1.0)) ** (-(n + 1.0) / n)


def _rhs_factory(n: float, mu: float, lambda_sign: int, delta: float):
    c2 = pk_coefficients(2, mu)          # phi, phi', phi''
    c3 = pk_coefficients(3, mu)          # phi, phi', phi'', phi''' (leading 1)
    lam = float(lambda_sign)

    def rhs(s, u):
        phi, phi1, phi2 = u
        p2 = c2[0] * phi + c2[1] * phi1 + c2[2] * phi2
        lower = c3[0] * phi + c3[1] * phi1 + c3[2] * phi2
        phi3 = lam * phi / ((n + 1.0) * (delta * delta + p2 * p2) ** (0.5 * n)) - lower
        return (phi1, phi2, phi3)

    return rhs


# The integration backend works in flux variables.  With v = |P_2|^n P_2
# the component equation (n+1)|P_2|^n (P_2' + (mu-2) P_2) = lambda phi is
# exactly
#
#     v' = lambda phi - (n+1)(mu-2) v,
#     phi'' = sgn(v)|v|^(1/(n+1)) - (2 mu - 1) phi' - mu(mu-1) phi,
#
# whose right-hand side is merely Hoelder at v = 0 instead of carrying the
# |P_2|^(-n) spike, so no delta smoothing and no step-rejection games are
# needed; osc_rhs above keeps the documented jet form.


def _spow(x, a):
    return np.sign(x) * np.abs(x) ** a


def _flux_rhs_factory(n: float, mu: float, lambda_sign: int):
    c2 = pk_coefficients(2, mu)
    lam = float(lambda_sign)
    k_damp = (n + 1.0) * (mu - 2.0)
    inv = 1.0 / (n + 1.0)

    def rhs(s, u):
        phi, phi1, v = u
        p2 = _spow(v, inv)
        return (phi1,
                p2 - c2[1] * phi1 - c2[0] * phi,
                lam * phi - k_damp * v)

    return rhs


def _jet_to_flux(jet, n: float, mu: float) -> np.ndarray:
    c2 = pk_coefficients(2, mu)
    p2 = c2[0] * jet[0] + c2[1] * jet[1] + c2[2] * jet[2]
    return np.array([jet[0], jet[1], _spow(p2, n + 1.0)])


def _flux_to_phi2(phi, phi1, v, n: float, mu: float):
    c2 = pk_coefficients(2, mu)
    return _spow(v, 1.0 / (n + 1.0)) - c2[1] * phi1 - c2[0] * phi


def osc_rhs(state: OscState, n: float, mu: float, lambda_sign: int,
            delta: float = DEFAULT_DELTA) -> np.ndarray:
    """State derivative (phi', phi'', phi''') of the component equation.

    The |P_2|^(-n) factor is smoothed to (delta^2 + P_2^2)^(-n/2); the
    equilibria of the lambda = +1 branch annihilate the result up to an
    O(delta^2) remainder.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if lambda_sign not in (-1, 1):
        raise ValueError("lambda_sign must be -1 or +1")
    rhs = _rhs_factory(n, mu, lambda_sign, delta)
    return np.array(rhs(state.s, state.jet()))


def integrate_osc(init: OscState, n: float, mu: float, lambda_sign: int,
                  span: tuple, tol: float = 1e-10,
                  sample_points=None) -> OscTrajectory:
    """Adaptive explicit integration of the component equation.

    Dense output is evaluated at sample_points (default: 2000 uniform
    points across the span).  Step underflow near the P_2 = 0 set is
    reported with its location.
    """
    if not (1e-12 <= tol <= 1e-6):
        raise ValueError("tol must lie in [1e-12, 1e-6]")
    s0, s1 = float(span[0]), float(span[1])
    if not (math.isfinite(s0) and math.isfinite(s1) and s1 > s0):
        raise ValueError("span must be finite with s1 > s0")
    rhs = _flux_rhs_factory(n, mu, lambda_sign)
    sol = solve_ivp(rhs, (s0, s1), _jet_to_flux(init.jet(), n, mu),
                    method="DOP853", rtol=tol, atol=1e-16, dense_output=True)
    if not sol.success:
        raise RuntimeError(
            f"integration stalled near s = {sol.t[-1]:.6g}: {sol.message}")
    if sample_points is None:
        sample_points = np.linspace(s0, s1, 2001)
    else:
        sample_points = np.asarray(sample_points, dtype=float)
    phi, phi1, v = sol.sol(sample_points)
    return OscTrajectory(sample_points, phi, phi1,
                         _flux_to_phi2(phi, phi1, v, n, mu))


def _refine_extremum(s: np.ndarray, v: np.ndarray, i: int) -> tuple:
    """Parabolic refinement of an extremum through samples i-1, i, i+1."""
    s0, s1, s2 = s[i - 1], s[i], s[i + 1]
    v0, v1, v2 = v[i - 1], v[i], v[i + 1]
    denom = (v0 - 2.0 * v1 + v2)
    if denom == 0.0:
        return s1, v1
    ds = 0.5 * (v0 - v2) / denom * (s1 - s0)
    vstar = v1 - 0.125 * (v0 - v2) ** 2 / denom
    return s1 + ds, vstar


def find_periodic_osc(n: float, mu: float, init: OscState,
                      s_budget: float = 400.0, tol: float = 1e-10,
                      min_cycles: int = 5,
                      drift_tol: float = 1e-6) -> PeriodicComponent:
    """Stable periodic component of the lambda = -1 branch.

    Integrates forward, discards the first half of the span as transient,
    and reads period and amplitude off successive maxima of phi.  The last
    min_cycles cycles must agree to drift_tol relative, else the failure
    is reported with the drift achieved.
    """
    if init.jet().max() == init.jet().min() == 0.0:
        raise ValueError("init must be a generic nonzero state")
    rhs = _flux_rhs_factory(n, mu, -1)
    sol = solve_ivp(rhs, (0.0, s_budget), _jet_to_flux(init.jet(), n, mu),
                    method="DOP853", rtol=tol, atol=1e-16, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"integration stalled near s = {sol.t[-1]:.6g}")

    s_lo = 0.5 * s_budget
    grid = np.linspace(s_lo, s_budget, 120001)
    phi = sol.sol(grid)[0]
    idx = np.nonzero((phi[1:-1] > phi[:-2]) & (phi[1:-1] >= phi[2:]))[0] + 1
    if idx.size < min_cycles + 1:
        raise RuntimeError(
            f"no periodicity detected: only {idx.size} maxima in the "
            f"post-transient window of s_budget={s_budget}")
    refined = [_refine_extremum(grid, phi, i) for i in idx[-(min_cycles + 1):]]
    s_max = np.array([r[0] for r in refined])
    v_max = np.array([r[1] for r in refined])
    amp_scale = float(np.max(np.abs(v_max)))
    drift = float(np.max(np.abs(np.diff(v_max)))) / amp_scale
    periods = np.diff(s_max)
    period_drift = float(np.max(np.abs(periods - periods.mean()))) / periods.mean()
    if drift > drift_tol or period_drift > drift_tol:
        raise RuntimeError(
            f"no periodicity detected within s-budget {s_budget}: "
            f"amplitude drift {drift:.3e}, period drift {period_drift:.3e}")
    period = float(periods.mean())

    s_start = s_max[-2]
    samples_s = np.linspace(0.0, period, 2001)
    samples_phi = sol.sol(s_start + samples_s)[0]
    amplitude = float(np.max(np.abs(samples_phi)))
    return PeriodicComponent(n=n, mu=mu, period=period,
                             samples_s=samples_s, samples_phi=samples_phi,
                             amplitude=amplitude)


def reconstruct_interface(pc: PeriodicComponent, y0: float, s_shift: float,
                          y_samples) -> np.ndarray:
    """Local profile f(y) = (y0 - y)^mu phi_*(ln(y0 - y) + s_shift).

    Valid on 0 < y < y0 (approaching the interface from the left after the
    reflection convention).
    """
    y = np.asarray(y_samples, dtype=float)
    if np.any(y <= 0.0) or np.any(y >= y0):
        raise ValueError("samples must lie strictly inside (0, y0)")
    gap = y0 - y
    return gap ** pc.mu * pc.phi_star(np.log(gap) + s_shift)
