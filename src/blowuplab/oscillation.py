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

phi_* is found by Newton (blowuplab.newton) on the return map of a Poincare
section (Seydel, Practical Bifurcation and Stability Analysis, 2010, ch. 7).
The same shooter finds the regional orbit about +-1 in blowuplab.bvp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import newton
from .model import pk_coefficients

__all__ = [
    "OscState",
    "OscTrajectory",
    "PeriodicComponent",
    "equilibrium_value",
    "integrate_osc",
    "find_periodic_osc",
    "reconstruct_interface",
]

# the periodic-orbit shooter: DOP853 tolerance of every shot, relative
# forward-difference step of its Newton, and the span within which each
# leg must meet the section
RTOL = 1e-11
FD_STEP = math.sqrt(RTOL)
LEG_SPAN = 100.0
# absolute tolerance of every integration of the component equation
OSC_ATOL = 1e-16


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
    multipliers: np.ndarray   # Floquet multipliers, all of modulus < 1

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


# The integration backend works in flux variables.  With v = |P_2|^n P_2
# the component equation (n+1)|P_2|^n (P_2' + (mu-2) P_2) = lambda phi is
# exactly
#
#     v' = lambda phi - (n+1)(mu-2) v,
#     phi'' = sgn(v)|v|^(1/(n+1)) - (2 mu - 1) phi' - mu(mu-1) phi,
#
# whose right-hand side is merely Hoelder at v = 0 instead of carrying the
# |P_2|^(-n) spike, so no delta smoothing and no step-rejection games are
# needed.


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
    if lambda_sign not in (-1, 1):
        raise ValueError("lambda_sign must be -1 or +1")
    s0, s1 = float(span[0]), float(span[1])
    if not (math.isfinite(s0) and math.isfinite(s1) and s1 > s0):
        raise ValueError("span must be finite with s1 > s0")
    rhs = _flux_rhs_factory(n, mu, lambda_sign)
    sol = solve_ivp(rhs, (s0, s1), _jet_to_flux(init.jet(), n, mu),
                    method="DOP853", rtol=tol, atol=OSC_ATOL, dense_output=True)
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


# -- periodic orbits: Newton on the section return -----------------------------


def _cross(rhs, u0, k: int, direction: int, atol: float, events=(),
           dense: bool = False):
    """Integrate from u0 to the first crossing of {u_k = 0} in direction.

    The crossing is the terminal event 0, ahead of the caller's terminal
    events; the leg reached it iff sol.t_events[0].size.
    """
    def section(s, u):
        return u[k]
    section.terminal = True
    section.direction = direction
    return solve_ivp(rhs, (0.0, LEG_SPAN), u0, method="DOP853", rtol=RTOL,
                     atol=atol, events=[section, *events], dense_output=dense)


def _section_return(rhs, u0, k: int, direction: int, atol: float, events=(),
                    dense: bool = False) -> list:
    """Shot from u0 on {u_k = 0} to its return, as the list of legs run.

    Crossings of one section alternate in direction, so from any start on
    it the first leg stops at the half return (the first crossing against
    direction) and the second at the return.  The shot returned iff the
    last leg reached the section, after legs[0].t[-1] + legs[-1].t[-1].
    """
    legs = [_cross(rhs, u0, k, -direction, atol, events, dense)]
    if legs[0].t_events[0].size:
        legs.append(_cross(rhs, legs[0].y[:, -1], k, direction, atol,
                           events, dense))
    return legs


def _sample_shot(legs: list, ts: np.ndarray) -> np.ndarray:
    """States of a returned dense shot at times ts from its start."""
    t_half = legs[0].t[-1]
    first = ts <= t_half
    return np.concatenate([legs[0].sol(ts[first]),
                           legs[1].sol(ts[~first] - t_half)], axis=1)


def _newton(residual, x, scale) -> tuple:
    """Root of residual(x) = 0 by blowuplab.newton, with its last Jacobian.

    Column j of the forward-difference Jacobian steps x_j by FD_STEP
    max(|x_j|, scale_j).  A failure raises RuntimeError with the last residual.
    """
    jac = None

    def factor(x, r):
        nonlocal jac
        steps = FD_STEP * np.maximum(np.abs(x), scale)
        jac = np.column_stack([(residual(x + s * e) - r) / s
                               for s, e in zip(steps, np.eye(x.size))])
        try:
            return np.linalg.inv(jac).dot
        except np.linalg.LinAlgError:
            return None

    try:   # corrections below 100 RTOL are integration noise
        x, _ = newton.solve(residual, factor, x, scale, 100.0 * RTOL, newton.MAX_ITERS)
    except newton.NewtonError as exc:
        raise RuntimeError(f"shooting Newton: {exc}; last residual "
                           f"{np.max(np.abs(residual(exc.best))):.3e}") from None
    return x, jac


def find_periodic_osc(n: float, mu: float, init: OscState) -> PeriodicComponent:
    """Stable periodic component phi_* of the lambda = -1 branch.

    The section is phi' = 0 at maxima of phi, and the unknowns are the
    state x = (phi, v) there.  Newton on P(x) - x, with P the section
    return, starts from the first maximum after init.  Newton finds any
    cycle, so the Floquet multipliers (the eigenvalues of the
    finite-difference monodromy dP) must all lie inside the unit circle,
    else RuntimeError.
    """
    if init.jet().max() == init.jet().min() == 0.0:
        raise ValueError("init must be a generic nonzero state")
    rhs = _flux_rhs_factory(n, mu, -1)
    lead = _cross(rhs, _jet_to_flux(init.jet(), n, mu), 1, -1, OSC_ATOL)
    if not lead.t_events[0].size:
        raise RuntimeError(f"no maximum of phi within s = {LEG_SPAN} of init")

    def residual(x):
        legs = _section_return(rhs, (x[0], 0.0, x[1]), 1, -1, OSC_ATOL)
        if not legs[-1].t_events[0].size:
            raise RuntimeError(f"no section return within s = {LEG_SPAN} "
                               f"from (phi, v) = {tuple(x)}")
        return legs[-1].y[[0, 2], -1] - x

    # corrections are measured against the amplitudes along the lead
    x, jac = _newton(residual, lead.y[[0, 2], -1],
                     np.max(np.abs(lead.y[[0, 2]]), axis=1))
    multipliers = np.linalg.eigvals(jac + np.eye(2))
    if np.any(np.abs(multipliers) >= 1.0):
        raise RuntimeError(f"the cycle found is not stable: Floquet "
                           f"multipliers {multipliers}")
    legs = _section_return(rhs, (x[0], 0.0, x[1]), 1, -1, OSC_ATOL,
                           dense=True)
    period = float(legs[0].t[-1] + legs[1].t[-1])
    samples_s = np.linspace(0.0, period, 2001)
    samples_phi = _sample_shot(legs, samples_s)[0]
    return PeriodicComponent(n=n, mu=mu, period=period,
                             samples_s=samples_s, samples_phi=samples_phi,
                             amplitude=float(np.max(np.abs(samples_phi))),
                             multipliers=multipliers)


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
