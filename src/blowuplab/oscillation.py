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

The equation is odd in phi, so phi_* is found by Newton (blowuplab.newton)
on the half return H of a Poincare section, H(x) = -x (Seydel, Practical
Bifurcation and Stability Analysis, 2010, ch. 7), and its monodromy is
dH^2.  Every trajectory runs on scipy's compiled DOP853: the legs of a
shot, which land exactly on the section by Henon's step (Physica D 5,
1982), and the sampled ones of integrate_osc.  The weak Floquet
multiplier follows from Liouville's formula.  Every failed integration or
shot raises ShootingError.  (The regional orbit about +-1 is no shot: it
is a Newton solve on the profile stencil, blowuplab.bvp.shoot_periodic_full.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import newton
from .model import pk_coefficients

__all__ = [
    "OscState",
    "OscTrajectory",
    "PeriodicComponent",
    "ShootingError",
    "equilibrium_value",
    "integrate_osc",
    "find_periodic_osc",
]

# DOP853 tolerance of every integration; then the periodic-orbit shooter:
# relative forward-difference step of its Newton, the span within which each
# leg must meet the section, and dop853's step budgets for that span and for
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
    counts: dict              # dop853's nfev, steps, accepted, rejected


@dataclass(eq=False)
class PeriodicComponent:
    """The stable oscillatory component phi_*, from its section maximum.

    integrate_osc(start, n, mu, -1, (0, period)) resamples one period from
    start (s = 0, phi' = 0).  amplitude is max |phi| over the maximum and
    the half-return minimum, the only zeros of phi' in a period.
    """

    n: float
    mu: float
    period: float
    start: OscState
    amplitude: float
    multipliers: np.ndarray   # Floquet multipliers, all of modulus < 1
    counts: dict              # shooting work: legs, nfev, steps, accepted, rejected


def equilibrium_value(n: float, mu: float) -> float:
    """Positive constant equilibrium of the lambda = +1 branch.

    Constants annihilate the equation when
    (n+1)(mu-2) [mu(mu-1)]^(n+1) |phi|^n = 1, i.e.

        phi_+ = [(n+1)(mu-2)]^(-1/n) * [mu(mu-1)]^(-(n+1)/n).
    """
    if not (math.isfinite(n) and math.isfinite(mu) and n > 0 and mu > 2):
        raise ValueError("equilibria need finite n > 0 and mu > 2")
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
                  span: tuple) -> OscTrajectory:
    """The component equation from init, at 2001 uniform points of span.

    A failed run (step underflow near the P_2 = 0 set, say) raises
    ShootingError with its location.
    """
    if lambda_sign not in (-1, 1):
        raise ValueError("lambda_sign must be -1 or +1")
    s0, s1 = float(span[0]), float(span[1])
    if not (math.isfinite(s0) and math.isfinite(s1) and s1 > s0):
        raise ValueError("span must be finite with s1 > s0")
    ts = np.linspace(s0, s1, 2001)
    (phi, phi1, v), counts = _samples(_flux_rhs_factory(n, mu, lambda_sign),
                                      _jet_to_flux(init.jet(), n, mu), ts, OSC_ATOL)
    return OscTrajectory(ts, phi, phi1, _flux_to_phi2(phi, phi1, v, n, mu), counts)


# -- the integrator ------------------------------------------------------------


def _dop853(f, atol: float, nsteps: int):
    from scipy.integrate import ode  # here, so only trajectories load it
    # beta = 0.04 is Hairer's stabilized (PI) step-size control; on the
    # Hoelder-continuous flux field it halves the rejected steps
    return ode(f).set_integrator("dop853", rtol=RTOL, atol=atol,
                                 nsteps=nsteps, beta=0.04)


def _run(integrator, y0, x0: float, x1: float, counts: dict,
         s=None) -> np.ndarray:
    """Restart integrator at (x0, y0), integrate to x1 and add dop853's
    nfev, steps, accepted and rejected (IWORK(17..20)) to counts.  A failed
    run raises ShootingError naming the s where it stopped: the
    integrator's own variable, or s when given (Henon's step runs in u_k)."""
    integrator.set_initial_value(y0, x0)
    y = integrator.integrate(x1).copy()
    code = integrator.get_return_code()
    if code < 0:
        where = integrator.t if s is None else s
        raise ShootingError(f"DOP853 failed with code {code} near s = {where:.6g}")
    for key, c in zip(("nfev", "steps", "accepted", "rejected"),
                      integrator._integrator.iwork[16:20].tolist()):
        counts[key] += c
    return y


def _samples(rhs, u0, ts: np.ndarray, atol: float) -> tuple:
    """States at the increasing times ts of the flow from u(ts[0]) = u0.

    One run over [ts[0], ts[-1]] records its accepted steps, and each
    sample hops from the last step at or before it, so sampling errors do
    not add up along ts.  Returns the states (one row per component) and
    dop853's counts of the run and the hops.
    """
    counts = dict.fromkeys(("nfev", "steps", "accepted", "rejected"), 0)
    # the start is recorded here: dop853's solout call there is not relied on
    times, states = [ts[0]], [np.array(u0, dtype=float)]

    def accepted(t, y):
        times.append(t)
        states.append(y.copy())
        return 0

    flow, hop = _dop853(rhs, atol, MAX_STEPS), _dop853(rhs, atol, MAX_STEPS)
    flow.set_solout(accepted)
    _run(flow, u0, ts[0], ts[-1], counts)
    out = np.empty((len(ts), len(u0)))
    for j, i in enumerate(np.searchsorted(times, ts, side="right") - 1):
        out[j] = (states[i] if times[i] == ts[j]
                  else _run(hop, states[i], times[i], ts[j], counts))
    return out.T, counts


# -- periodic orbits: Newton on the section return -----------------------------


class Leg(NamedTuple):
    """End of one section leg, and what the shooter reads along it.

    stop is 0 at the section and None when the span ran out; umax is the
    componentwise max |u| along the leg.
    """

    t: float
    y: np.ndarray
    stop: int | None
    umax: np.ndarray


class ShootingError(RuntimeError):
    """An integration or periodic-orbit shot that failed."""


class _Shooter:
    """Section legs of one shooter call, on scipy's compiled DOP853.

    A leg runs from u0 to the first accepted step that crosses the
    section {u_k = 0} in a given direction, within LEG_SPAN.  Henon's step
    then lands exactly on the section (M. Henon, Physica D 5, 1982): the
    flow integrated with u_k as the independent variable, d(t, u)/du_k =
    (1, f)/f_k, from the state past the section to u_k = 0.  A run that
    fails raises ShootingError.

    scipy's dop853 never frees an ode instance, so both integrators are
    built once here and restarted for every leg.  counts sums legs and
    dop853's counts of every run.
    """

    def __init__(self, rhs, k: int, atol: float):
        self.k = k
        self.counts = dict.fromkeys(("legs", "nfev", "steps", "accepted",
                                     "rejected"), 0)

        def henon(x, w):
            du = rhs(w[0], w[1:])
            return [1.0 / du[k], *(d / du[k] for d in du)]

        self.flow = _dop853(rhs, atol, MAX_STEPS)
        self.henon = _dop853(henon, atol, HENON_STEPS)
        self.flow.set_solout(self._accepted)

    def _accepted(self, t, y):
        """dop853's solout: -1 stops the run at the first step across the
        section in direction (+1 up, -1 down); a step from u_k = 0 never
        counts, so a leg never stops at its own start."""
        g = self._direction * y[self.k]
        if self._g is not None and self._g < 0.0 <= g:
            self._stop = 0
            return -1
        self._g = g
        np.maximum(self._umax, np.abs(y), out=self._umax)
        return 0

    def cross(self, u0, direction: int) -> Leg:
        """Leg from u0 to its first crossing of the section in direction."""
        self._direction, self._g, self._stop = direction, None, None
        self._umax = np.zeros(len(u0))
        y = _run(self.flow, u0, 0.0, LEG_SPAN, self.counts)
        t, stop = self.flow.t, self._stop
        self.counts["legs"] += 1
        if stop == 0 and y[self.k] != 0.0:
            w = _run(self.henon, np.concatenate(([t], y)), y[self.k], 0.0,
                     self.counts, t)
            t, y = w[0], w[1:]
            y[self.k] = 0.0
        return Leg(t, y, stop, np.maximum(self._umax, np.abs(y)))


def _newton(residual, x, scale) -> tuple:
    """Root of residual(x) = 0 by blowuplab.newton, with its last Jacobian.

    Column j of the forward-difference Jacobian steps x_j by FD_STEP
    max(|x_j|, scale_j).  A failure raises ShootingError with the last residual.
    """
    jac = None

    def evaluate(x):
        r = residual(x)

        def factor():
            nonlocal jac
            steps = FD_STEP * np.maximum(np.abs(x), scale)
            jac = np.column_stack([(residual(x + s * e) - r) / s
                                   for s, e in zip(steps, np.eye(x.size))])
            try:
                return np.linalg.inv(jac).dot
            except np.linalg.LinAlgError:
                return None

        return r, factor

    try:   # corrections below 100 RTOL are integration noise
        x, _ = newton.solve(evaluate, x, scale, 100.0 * RTOL, newton.MAX_ITERS)
    except newton.NewtonError as exc:
        raise ShootingError(f"shooting Newton: {exc}; last residual "
                            f"{np.max(np.abs(residual(exc.best))):.3e}") from None
    return x, jac


def find_periodic_osc(n: float, mu: float, init: OscState) -> PeriodicComponent:
    """Stable periodic component phi_* of the lambda = -1 branch.

    The section is phi' = 0, and the unknowns are the state x = (phi, v)
    at a maximum of phi.  The component equation is odd in phi, so the
    flux flow commutes with u -> -u and phi_* lands, half a period after
    its maximum, on minus that maximum.  Newton on H(x) + x, with H the
    half return (maximum to next minimum), starts from the first maximum
    after init.  The monodromy is D^2, D = dH the finite-difference
    Jacobian, so the dominant Floquet multiplier m1 is the square of an
    eigenvalue of D; the other follows from Liouville's formula, since the
    flux field has the constant divergence -(2mu-1 + (n+1)(mu-2)):

        m1 m2 = exp(-(2mu-1 + (n+1)(mu-2)) T).

    Newton finds any cycle, so both must lie inside the unit circle, else
    ShootingError.
    """
    if init.jet().max() == init.jet().min() == 0.0:
        raise ValueError("init must be a generic nonzero state")
    shooter = _Shooter(_flux_rhs_factory(n, mu, -1), 1, OSC_ATOL)
    lead = shooter.cross(_jet_to_flux(init.jet(), n, mu), -1)
    if lead.stop != 0:
        raise ShootingError(f"no maximum of phi within s = {LEG_SPAN} of init")

    def half_return(x):
        leg = shooter.cross((x[0], 0.0, x[1]), +1)
        if leg.stop != 0:
            raise ShootingError(f"no half return within s = {LEG_SPAN} "
                                f"from (phi, v) = {tuple(x)}")
        return leg

    # corrections are measured against the amplitudes along the lead
    x, jac = _newton(lambda x: half_return(x).y[[0, 2]] + x,
                     lead.y[[0, 2]], lead.umax[[0, 2]])
    leg = half_return(x)
    period = 2.0 * float(leg.t)
    eigs = np.linalg.eigvals(jac - np.eye(2))
    m1 = eigs[np.argmax(np.abs(eigs))] ** 2
    divergence = -(pk_coefficients(2, mu)[1] + (n + 1.0) * (mu - 2.0))
    multipliers = np.array([m1, math.exp(divergence * period) / m1])
    if np.any(np.abs(multipliers) >= 1.0):
        raise ShootingError(f"the cycle found is not stable: Floquet "
                            f"multipliers {multipliers}")
    return PeriodicComponent(
        n=n, mu=mu, period=period,
        start=OscState(0.0, float(x[0]), 0.0,
                       float(_flux_to_phi2(x[0], 0.0, x[1], n, mu))),
        amplitude=float(max(abs(x[0]), abs(leg.y[0]))),
        multipliers=multipliers, counts=shooter.counts)
