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
Every leg of a shot runs on scipy's compiled DOP853 and lands exactly on
the section by Henon's step (Physica D 5, 1982); the weak Floquet
multiplier follows from Liouville's formula.  The same shooter finds the
regional orbit about +-1 in blowuplab.bvp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import ode, solve_ivp

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
# forward-difference step of its Newton, the span within which each leg
# must meet the section, and dop853's step budgets for that span and for
# Henon's step (which spans one step of the flow; a grazing crossing,
# f_k near 0, fails on this budget instead of crawling)
RTOL = 1e-11
FD_STEP = math.sqrt(RTOL)
LEG_SPAN = 100.0
MAX_STEPS = 10 ** 6
HENON_STEPS = 100
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
    counts: dict              # shooting work: legs, nfev, steps, accepted, rejected

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
    c20, c21, _ = pk_coefficients(2, mu)
    lam = float(lambda_sign)
    k_damp = (n + 1.0) * (mu - 2.0)
    inv = 1.0 / (n + 1.0)

    def rhs(s, u):
        phi, phi1, v = u.tolist()
        return [phi1,
                math.copysign(abs(v) ** inv, v) - c21 * phi1 - c20 * phi,
                lam * phi - k_damp * v]

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


class Leg(NamedTuple):
    """End of one section leg, and what the shooters read along it.

    stop is 0 at the section, i >= 1 at the caller's event i, and None
    when the span ran out; umax is the componentwise max |u| along the leg.
    """

    t: float
    y: np.ndarray
    stop: int | None
    umax: np.ndarray


def _crossed(g0: float, g1: float, direction: int) -> bool:
    """Whether one step took g across 0 in direction (0: either way).

    g0 = 0 never counts, so a leg never stops at its own start.
    """
    return (direction >= 0 and g0 < 0.0 <= g1) or (direction <= 0 and g0 > 0.0 >= g1)


class _Shooter:
    """Section legs of one shooter call, on scipy's compiled DOP853.

    A leg runs from u0 to the first accepted step that crosses the
    section {u_k = 0} in a given direction or one of the caller's events
    g(u) = 0, within LEG_SPAN.  Henon's step then lands exactly on the
    section (M. Henon, Physica D 5, 1982): the flow integrated with u_k as
    the independent variable, d(t, u)/du_k = (1, f)/f_k, from the state
    past the section to u_k = 0.  An event crossed before the section
    stops the leg instead.  A run that fails raises error(message).

    scipy's dop853 never frees an ode instance, so both integrators are
    built once here and restarted for every leg.  counts sums legs and
    dop853's own nfev, steps, accepted and rejected (IWORK(17..20)).
    """

    def __init__(self, rhs, k: int, atol: float, events=(), error=RuntimeError):
        self.k, self.events, self.error = k, events, error
        self.counts = dict.fromkeys(("legs", "nfev", "steps", "accepted",
                                     "rejected"), 0)

        def henon(x, w):
            du = rhs(w[0], w[1:])
            return [1.0 / du[k], *(d / du[k] for d in du)]

        # beta = 0.04 is Hairer's stabilized (PI) step-size control; on
        # the Hoelder-continuous flux field it halves the rejected steps
        def dop853(f, nsteps):
            return ode(f).set_integrator("dop853", rtol=RTOL, atol=atol,
                                         nsteps=nsteps, beta=0.04)

        self.flow = dop853(rhs, MAX_STEPS)
        self.henon = dop853(henon, HENON_STEPS)
        self.flow.set_solout(self._accepted)

    def _accepted(self, t, y):
        """dop853's solout: -1 stops the run at the first crossing."""
        g = [y[self.k], *(e(y) for e in self.events)]
        if self._g is not None:
            for i, (g0, g1) in enumerate(zip(self._g, g)):
                if _crossed(g0, g1, self._direction if i == 0 else 0):
                    self._stop = i
                    return -1
        self._g = g
        np.maximum(self._umax, np.abs(y), out=self._umax)
        return 0

    def _run(self, integrator, y0, x0: float, x1: float) -> np.ndarray:
        integrator.set_initial_value(y0, x0)
        y = integrator.integrate(x1).copy()
        code = integrator.get_return_code()
        if code < 0:
            raise self.error(f"DOP853 failed with code {code} near s = "
                             f"{integrator.t:.6g}")
        for key, c in zip(("nfev", "steps", "accepted", "rejected"),
                          integrator._integrator.iwork[16:20].tolist()):
            self.counts[key] += c
        return y

    def cross(self, u0, direction: int) -> Leg:
        """Leg from u0 to its first crossing of the section in direction."""
        self._direction, self._g, self._stop = direction, None, None
        self._umax = np.zeros(len(u0))
        y = self._run(self.flow, u0, 0.0, LEG_SPAN)
        t, stop = self.flow.t, self._stop
        self.counts["legs"] += 1
        if stop == 0 and y[self.k] != 0.0:
            w = self._run(self.henon, np.concatenate(([t], y)), y[self.k], 0.0)
            t, y = w[0], w[1:]
            y[self.k] = 0.0
            stop = next((i for i, (g0, e) in enumerate(zip(self._g[1:], self.events), 1)
                         if _crossed(g0, e(y), 0)), 0)
        return Leg(t, y, stop, np.maximum(self._umax, np.abs(y)))

    def section_return(self, u0, direction: int) -> list:
        """Shot from u0 on the section to its return, as the legs run.

        Crossings of one section alternate in direction, so from any start
        on it the first leg stops at the half return (the first crossing
        against direction) and the second at the return.  The shot
        returned iff the last leg stopped at the section, after
        legs[0].t + legs[-1].t.
        """
        legs = [self.cross(u0, -direction)]
        if legs[0].stop == 0:
            legs.append(self.cross(legs[0].y, direction))
        return legs


def _sample(rhs, u0, ts: np.ndarray, atol: float) -> np.ndarray:
    """States at the times ts (from 0, increasing) of the flow from u0."""
    sol = solve_ivp(rhs, (0.0, ts[-1]), u0, method="DOP853", rtol=RTOL,
                    atol=atol, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"sampling stalled near s = {sol.t[-1]:.6g}: "
                           f"{sol.message}")
    return sol.sol(ts)


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
    return, starts from the first maximum after init.  The dominant
    Floquet multiplier m1 is an eigenvalue of the finite-difference
    monodromy dP; the other follows from Liouville's formula, since the
    flux field has the constant divergence -(2mu-1 + (n+1)(mu-2)):

        m1 m2 = exp(-(2mu-1 + (n+1)(mu-2)) T).

    Newton finds any cycle, so both must lie inside the unit circle, else
    RuntimeError.
    """
    if init.jet().max() == init.jet().min() == 0.0:
        raise ValueError("init must be a generic nonzero state")
    rhs = _flux_rhs_factory(n, mu, -1)
    shooter = _Shooter(rhs, 1, OSC_ATOL)
    lead = shooter.cross(_jet_to_flux(init.jet(), n, mu), -1)
    if lead.stop != 0:
        raise RuntimeError(f"no maximum of phi within s = {LEG_SPAN} of init")

    def residual(x):
        legs = shooter.section_return((x[0], 0.0, x[1]), -1)
        if legs[-1].stop != 0:
            raise RuntimeError(f"no section return within s = {LEG_SPAN} "
                               f"from (phi, v) = {tuple(x)}")
        return legs[-1].y[[0, 2]] - x

    # corrections are measured against the amplitudes along the lead
    x, jac = _newton(residual, lead.y[[0, 2]], lead.umax[[0, 2]])
    start = (x[0], 0.0, x[1])
    legs = shooter.section_return(start, -1)
    period = float(legs[0].t + legs[1].t)
    eigs = np.linalg.eigvals(jac + np.eye(2))
    m1 = eigs[np.argmax(np.abs(eigs))]
    divergence = -(pk_coefficients(2, mu)[1] + (n + 1.0) * (mu - 2.0))
    multipliers = np.array([m1, math.exp(divergence * period) / m1])
    if np.any(np.abs(multipliers) >= 1.0):
        raise RuntimeError(f"the cycle found is not stable: Floquet "
                           f"multipliers {multipliers}")
    samples_s = np.linspace(0.0, period, 2001)
    samples_phi = _sample(rhs, start, samples_s, OSC_ATOL)[0]
    return PeriodicComponent(n=n, mu=mu, period=period,
                             samples_s=samples_s, samples_phi=samples_phi,
                             amplitude=float(np.max(np.abs(samples_phi))),
                             multipliers=multipliers, counts=shooter.counts)


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
