"""Finite-difference boundary-value solver for the similarity profile ODE.

All profiles live in unit-equilibrium variables, where the profile F
satisfies the regularized equation

    -[ (eps^2 + F''^2)^(n/2) F'' ]''  -  bt * y F'  -  F  +  |F|^(p-1) F = 0,

with bt = (p-1) beta = (p-(n+1)) / (2(n+2)).  At p = n+1 the drift term
vanishes identically and the equation is the autonomous regional one.
The constant states F = -1, 0, +1 are exact solutions at every (n, p).

Discretization is second-order centered differences on a uniform mesh,
with the fourth derivative built as D2 o (nonlinear flux) o D2 so the
regularized coefficient sits between the two second differences; Newton
(blowuplab.newton) factors the Jacobian, banded with bandwidth 2, built
from the terms of its point's residual.  Boundary conditions are encoded as
reflection ghosts (slope conditions) plus value rows, one BC_RULES entry:

    dirichlet-far    F = F' = 0 at both ends of [-R, R]
    q-plateau        F = 1, F' = 0 at -R (plateau), F = F' = 0 at R
    symmetry         even reflection at 0 on [0, R], F = F' = 0 at R
    antisymmetry     odd reflection at 0 on [0, R], F = F' = 0 at R

The same module shoots for the periodic orbits about +-1 of the
autonomous p = n+1 equation, and owns the format of every output file:
`write_csv` (17 significant digits) and `write_json` (sorted keys, indent
2), UTF-8 with LF endings, and stored profiles: one table (a solve's CSV
`F` column, a branch's np.save float64 array, record k in row k) plus a
JSON sidecar whose `mesh` block (a, b, intervals) rebuilds the uniform
nodes bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from . import model, newton, oscillation
from .model import ProblemParams
from .newton import NewtonError
from .oscillation import ShootingError

__all__ = [
    "Mesh",
    "Profile",
    "NewtonOptions",
    "NewtonError",
    "ShootingError",
    "PeriodicOrbit",
    "assemble_residual",
    "assemble_jacobian",
    "solve_profile",
    "eps_continuation",
    "shoot_periodic_full",
    "save_profile",
    "load_profile",
    "write_csv",
    "write_json",
]

# F = 0 at the right end for every bc; per bc, the left ghosts are F_-k =
# ghost_sign F_k, pin is F at node 0 (None: node 0 keeps its equation row),
# and a half-domain bc lives on [0, R], extended to [-R, R] with that parity
BcRule = namedtuple("BcRule", "ghost_sign pin half_domain")
BC_RULES = {
    "symmetry": BcRule(1.0, None, True),
    "antisymmetry": BcRule(-1.0, 0.0, True),
    "q-plateau": BcRule(1.0, 1.0, False),
    "dirichlet-far": BcRule(1.0, 0.0, False),
}
BC_CHOICES = tuple(BC_RULES)
MIN_INTERVALS = 64
# absolute tolerance of the periodic-orbit shots
ORBIT_ATOL = 1e-13


@dataclass(frozen=True, eq=False)
class Mesh:
    """Strictly increasing, uniformly spaced nodes with their spacing h."""

    nodes: np.ndarray
    h: float = field(init=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("mesh needs a 1-d array of at least 2 nodes")
        d = np.diff(nodes)
        if not (np.isfinite(nodes).all() and (d > 0.0).all()):
            raise ValueError("mesh nodes must be finite and strictly increasing")
        h = float(d[0])
        if not (np.abs(d - h) <= 1e-12 + 1e-12 * abs(h)).all():
            raise ValueError("stencils require a uniform mesh")
        object.__setattr__(self, "h", h)

    @staticmethod
    def uniform(a: float, b: float, m: int) -> "Mesh":
        """Uniform mesh with m intervals on [a, b]."""
        return Mesh(np.linspace(a, b, m + 1))

    @property
    def m(self) -> int:
        """Number of intervals."""
        return self.nodes.size - 1


@dataclass(eq=False)
class Profile:
    """Mesh plus nodal values of a candidate profile, with solve metadata."""

    mesh: Mesh
    values: np.ndarray
    params: ProblemParams
    bc: str
    residual_norm: float = math.nan
    converged: bool = False
    newton_iters: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.mesh.nodes.shape:
            raise ValueError("values and mesh nodes must have matching shape")
        if self.bc not in BC_RULES:
            raise ValueError(f"bc must be one of {BC_CHOICES}, got {self.bc!r}")

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def replace(self, **kw) -> "Profile":
        return dataclasses.replace(self, **kw)

    def full_extension(self) -> "Profile":
        """Even/odd extension of a half-domain profile to [-R, R].

        Full-domain profiles are returned unchanged.
        """
        rule = BC_RULES[self.bc]
        if not rule.half_domain:
            return self
        y = self.mesh.nodes
        if abs(y[0]) > 1e-14:
            raise ValueError("half-domain profile must start at 0")
        nodes = np.concatenate([-y[:0:-1], y])
        values = np.concatenate([rule.ghost_sign * self.values[:0:-1], self.values])
        return Profile(Mesh(nodes), values, self.params,
                       "dirichlet-far", self.residual_norm, self.converged,
                       self.newton_iters)


# -- residual and Jacobian -------------------------------------------------


def _beta_tilde(params: ProblemParams) -> float:
    """Drift coefficient bt = (p-1) beta = (p-(n+1)) / (2(n+2)).

    Exactly zero in the regional regime, so the drift term drops
    identically.
    """
    if params.regime == model.REGIONAL:
        return 0.0
    return (params.p - (params.n + 1.0)) / (2.0 * (params.n + 2.0))


def _extended(values: np.ndarray, bc: str, ext=None) -> np.ndarray:
    """Node values padded with two ghost nodes per side, in ext if given.

    Left ghosts reflect with the bc's ghost_sign (even for slope conditions
    and symmetric profiles, odd for antisymmetric ones); right ghosts encode
    F' = 0 at the far boundary by mirror reflection.
    """
    ext = np.empty(values.size + 4) if ext is None else ext
    sign = BC_RULES[bc].ghost_sign
    ext[2:-2] = values
    ext[0], ext[1], ext[-2], ext[-1] = (sign * values[2], sign * values[1],
                                        values[-2], values[-3])
    return ext


def _d2(a: np.ndarray, scale: float) -> np.ndarray:
    """(a_k-1 - 2 a_k + a_k+1) / scale at every interior k of a."""
    d = a[:-2] - 2.0 * a[1:-1]
    d += a[2:]
    d /= scale
    return d


def _flux(w: np.ndarray, base: np.ndarray, n: float) -> np.ndarray:
    """(eps^2 + w^2)^(n/2) w from its base eps^2 + w^2; _flux_prime is d/dw."""
    return base ** (0.5 * n) * w


def _flux_prime(w: np.ndarray, base: np.ndarray, n: float, eps2: float) -> np.ndarray:
    if eps2 == 0.0:  # the general form reads 0^(n/2-1) * 0 where w = 0
        return (n + 1.0) * np.abs(w) ** n
    return base ** (0.5 * n - 1.0) * (eps2 + (n + 1.0) * w * w)


class _Stencil:
    """The discrete equation at one (mesh, params, bc), on raw node arrays.

    Built once per solve: h^2, h^4, bt y, the drift bt y / (2h), eps^2 and a
    ghost buffer.  The zero-order term is a F + b |F|^(p-1) F, (a, b) =
    (-1, 1) for profiles and (0, lambda) for the nonlinear eigenvalue.
    evaluate(F, a, b) returns the residual at F and band(), which builds
    the Jacobian there from that evaluation's F'' (w), flux base eps^2 +
    w^2 and |F|^(p-1).  With project, F is pinned onto the bc value rows
    first.
    """

    def __init__(self, mesh: Mesh, params: ProblemParams, bc: str, project: bool = False):
        if mesh.m < MIN_INTERVALS:
            raise ValueError(f"mesh too coarse: {mesh.m} < {MIN_INTERVALS} intervals")
        self.h2, self.h4, self.two_h = mesh.h**2, mesh.h**4, 2.0 * mesh.h
        self.bt = _beta_tilde(params)
        self.bty = self.bt * mesh.nodes
        self.drift = self.bty / self.two_h
        self.n, self.p, self.eps2 = params.n, params.p, params.eps * params.eps
        self.bc, self.rule, self.project = bc, BC_RULES[bc], project
        self.ext = np.empty(mesh.nodes.size + 4)

    def evaluate(self, values: np.ndarray, a: float = -1.0, b: float = 1.0):
        pin = self.rule.pin
        ext = _extended(values, self.bc, self.ext)
        if self.project:
            ext[-3], ext[2] = 0.0, ext[2] if pin is None else pin
        F = ext[2:-2]
        w = _d2(ext, self.h2)                                  # F'' at nodes -1..m+1
        base = self.eps2 + w * w
        res = _d2(_flux(w, base, self.n), -self.h2)            # -(flux)'' at nodes 0..m
        if self.bt:                                            # 0 at p = n+1
            dF = (ext[3:-1] - ext[1:-3]) / self.two_h          # F' at nodes 0..m
            res -= self.bty * dF
        res += a * F
        fp = np.abs(F) ** (self.p - 1.0)
        res += b * fp * F
        res[-1] = F[-1]
        if pin is not None:
            res[0] = F[0] - pin

        def band():
            h4, drift, sign = self.h4, self.drift, self.rule.ghost_sign
            gp = _flux_prime(w, base, self.n, self.eps2)       # nodes -1..m+1
            # row i couples to i-2 .. i+2 through gp at nodes i-1, i, i+1: the outer
            # diagonals read -gp_k / h^4, the inner 2 (gp_k + gp_k+1) / h^4 -+ drift
            outer = gp / -h4
            inner = 2.0 * (gp[:-1] + gp[1:]) / h4
            ab = np.zeros((7, fp.size))
            ab[2, 2:] = ab[6, :-2] = outer[2:-2]
            ab[3, 1:] = inner[1:-1] - drift[:-1]
            ab[4] = (gp[:-2] + 4.0 * gp[1:-1] + gp[2:]) / -h4 + a + b * self.p * fp
            ab[5, :-1] = inner[1:-1] + drift[1:]

            # ghost folds: res_0 sees ghosts -1, -2 (a pinned row 0 is
            # overwritten below) and res_1 ghost -1, all with the ghost_sign;
            # res_{m-1} sees ghost m+1, which is node m-1
            ab[3, 1] += sign * (inner[0] + drift[0])
            ab[2, 2] += sign * outer[0]
            ab[4, 1] += sign * outer[1]
            ab[4, -2] += outer[-2]

            # bc value rows overwrite their equation rows: F = 0 at the right
            # end, the pinned value at node 0
            ab[6, -3], ab[5, -2], ab[4, -1] = 0.0, 0.0, 1.0
            if pin is not None:
                ab[4, 0], ab[3, 1], ab[2, 2] = 1.0, 0.0, 0.0
            return ab

        return res, band


def assemble_residual(profile: Profile) -> np.ndarray:
    """Residual of the regularized equation, one row per node.

    Interior rows hold the discrete equation; boundary rows hold the bc
    value constraints (F(+-R) = 0, F(-R) = 1 for the plateau, F(0) = 0 for
    antisymmetry).  Slope conditions live in the ghost reflections used by
    the interior rows, not in rows of their own.
    """
    return _Stencil(profile.mesh, profile.params, profile.bc).evaluate(profile.values)[0]


def residual_norm(profile: Profile) -> float:
    """Max-norm of the equation rows of the residual (not the bc rows)."""
    first = 0 if BC_RULES[profile.bc].pin is None else 1
    return float(np.max(np.abs(assemble_residual(profile)[first:-1])))


def assemble_jacobian(profile: Profile) -> np.ndarray:
    """Analytic Jacobian of assemble_residual in dgbtrf's band layout.

    Entry dres_i / dF_j sits in ab[4 + i - j, j] (kl = ku = 2); rows 0-1
    are zero, the LU's fill-in.  Ghost dependencies fold back into columns
    1, 2 (left, with the bc's ghost_sign) and m-1 (right).
    """
    return _Stencil(profile.mesh, profile.params, profile.bc).evaluate(profile.values)[1]()


# -- Newton solver ----------------------------------------------------------


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-6
    max_iters: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0 and self.max_iters >= 1):
            raise ValueError("Newton needs a finite tol > 0 and max_iters >= 1")


def _banded_lu(ab: np.ndarray):
    """b -> A^-1 b by dgbtrf's LU of the band A (kl = ku = 2); None if singular."""
    lu, piv, info = dgbtrf(ab, 2, 2)
    return None if info > 0 else lambda b: dgbtrs(lu, 2, 2, b, piv)[0]


def _project_bc(values: np.ndarray, bc: str) -> np.ndarray:
    """Pin the bc value rows of a guess exactly."""
    pin = BC_RULES[bc].pin
    v = np.array(values, dtype=float)
    v[-1] = 0.0
    if pin is not None:
        v[0] = pin
    return v


def solve_profile(params: ProblemParams, guess: Profile,
                  opts: NewtonOptions = NewtonOptions()) -> Profile:
    """Profile by blowuplab.newton, one banded LU (_banded_lu) per iteration.

    Residual and band come from one _Stencil evaluation per Newton point.
    Corrections are scaled by max(|F_i|, opts.tol); newton_iters counts
    the LUs.  Failure raises NewtonError with the last iterate, unconverged,
    and the LUs it made.
    """
    if params.eps == 0.0 and params.n > 0.0:
        raise ValueError("eps = 0 with n > 0: degenerate equation, Newton refused")
    mesh, bc = guess.mesh, guess.bc
    # pivoting solves J's identity bc rows only to roundoff: pin every iterate
    stencil = _Stencil(mesh, params, bc, project=True)

    def evaluate(values):
        res, band = stencil.evaluate(values)
        return res, lambda: _banded_lu(band())

    try:
        values, iters = newton.solve(evaluate, _project_bc(guess.values, bc),
                                     opts.tol, opts.tol, opts.max_iters)
    except NewtonError as exc:
        last = Profile(mesh, _project_bc(exc.best, bc), params, bc,
                       newton_iters=exc.newton_iters)
        last.residual_norm = residual_norm(last)
        raise NewtonError(str(exc), last, exc.newton_iters) from None
    sol = Profile(mesh, _project_bc(values, bc), params, bc, converged=True,
                  newton_iters=iters)
    sol.residual_norm = residual_norm(sol)
    return sol


def eps_continuation(params: ProblemParams, guess: Profile, schedule,
                     opts: NewtonOptions = NewtonOptions()) -> Profile:
    """Homotopy in eps: chain of solves, each warm-started from the last.

    The schedule must decrease strictly, start at eps >= 1e-2 and never go
    below the 1e-4 resolution floor.  Returns the profile at the last eps;
    a failing stage raises NewtonError with its best iterate at that eps.
    Either counts the LUs of every stage.
    """
    schedule = [float(e) for e in schedule]
    if not schedule:
        raise ValueError("empty eps schedule")
    if not all(b < a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing")
    if schedule[0] < 1e-2:
        raise ValueError("eps schedule must start at or above 1e-2")
    if schedule[-1] < 1e-4:
        raise ValueError("eps schedule must stay at or above the 1e-4 floor")
    profile, iters = guess, 0
    for eps in schedule:
        try:
            profile = solve_profile(params.with_eps(eps), profile, opts)
        except NewtonError as exc:
            best = exc.best.replace(newton_iters=iters + exc.newton_iters)
            raise NewtonError(str(exc), best, best.newton_iters) from None
        iters += profile.newton_iters
    return profile.replace(newton_iters=iters)


# -- periodic orbits of the autonomous regional equation ---------------------


@dataclass(frozen=True)
class PeriodicOrbit:
    """Closed orbit of the autonomous p = n+1 equation about +-1."""

    a: float          # F at the starting minimum (about=+1 convention)
    b: float          # F'' there
    period: float
    min_val: float    # the extremes of F, at the section landings
    max_val: float
    about: int
    counts: dict = field(compare=False)  # legs, nfev, steps, accepted, rejected


def _orbit_rhs(n: float):
    inv = 1.0 / (n + 1.0)

    def rhs(t, u):
        F, F1, w, w1 = u.tolist()
        return [F1, math.copysign(abs(w) ** inv, w), w1, -F + abs(F) ** n * F]

    return rhs


def _orbit_shooter(n: float):
    """Legs of the regional orbit to the section F' = 0, stopped when F
    leaves the oscillation strip toward F = 0 or diverges."""
    return oscillation._Shooter(
        _orbit_rhs(n), 1, ORBIT_ATOL,
        events=(lambda u: u[0] - 0.02, lambda u: abs(u[0]) - 8.0))


def _orbit_start(n: float, a: float, b: float) -> tuple:
    return (a, 0.0, oscillation._spow(b, n + 1.0), 0.0)


def _terminal_jet(n: float, u) -> tuple:
    F, F1, w, w1 = u
    F2 = oscillation._spow(w, 1.0 / (n + 1.0))
    F3 = w1 / ((n + 1.0) * abs(F2) ** n) if F2 != 0.0 else math.inf
    return (F, F1, F2, F3)


def _zero_energy_b(a: float, n: float) -> float:
    """F''(0) > 0 with the conserved integral of the autonomous equation zero.

    The first integral is H = -w'F' + wF'' - |F''|^(n+2)/(n+2) - F^2/2
    + |F|^(n+2)/(n+2) with w = |F''|^n F''.  Orbits gluing onto compactly
    supported profiles share the level H = 0 of the interface state, which
    pins F''(0) once F(0) = a is chosen:

        (n+1)/(n+2) b^(n+2) = a^2/2 - |a|^(n+2)/(n+2).
    """
    rhs = 0.5 * a * a - abs(a) ** (n + 2.0) / (n + 2.0)
    if rhs <= 0.0:
        raise ValueError(f"no zero-energy curvature for a = {a}")
    return (rhs * (n + 2.0) / (n + 1.0)) ** (1.0 / (n + 2.0))


def _half_return_f3(shooter, n: float, a: float) -> float:
    """F''' at the half return of the zero-energy shot from a: -inf if the
    shot escapes toward F = 0 first, +inf if it diverges first."""
    leg = shooter.cross(_orbit_start(n, a, _zero_energy_b(a, n)), -1)
    if leg.stop is None:
        raise ShootingError("no section return within the integration budget")
    return (float(_terminal_jet(n, leg.y)[3]), -math.inf, math.inf)[leg.stop]


def shoot_periodic_full(n: float, about: int, a_init: float) -> PeriodicOrbit:
    """Periodic orbit of the autonomous equation oscillating about +-1.

    Shooting runs on the zero-energy manifold of the conserved first
    integral (the level shared with compactly supported profiles), where
    F''(0) is a closed form of F(0) = a.  The equation is reversible, so
    a shot from the symmetric jet (a, 0, b, 0) that reaches another
    symmetric jet (F' = F''' = 0) at its half return closes into a
    periodic orbit by reflection.  F'''(T/2) changes sign once on 0 < a
    < 1, from negative (or -inf) below to positive (or +inf) above.
    Regula falsi with the Illinois modification (Dowell & Jarratt, BIT 11,
    1971) finds that a from a first shot at a_init, bisecting while an end
    of the bracket is infinite, to a bracket of 100 RTOL (the shots' noise
    floor) within newton.MAX_ITERS shots.  The full jet must then return to
    1e-8.  F' = 0 only on the section, so the extremes of F are the
    landings there: the minimum a and the maximum F(T/2).  orbit_samples
    re-runs the orbit to give F at any times.
    """
    if about not in (1, -1):
        raise ValueError("about must be +1 or -1")
    if a_init == about:
        raise ValueError("a_init equals the equilibrium: constant orbit rejected")
    if not (0.0 < a_init * about < 1.0):
        raise ValueError("a_init must sit strictly between 0 and the equilibrium "
                         f"{about}; got {a_init}")
    if n <= 0:
        raise ValueError("n must be positive")

    shooter = _orbit_shooter(n)
    # the bracket's ends with their F''' values; side is -1 (+1) when the
    # last shot moved the lower (upper) end, and Illinois halves the value
    # at an end kept twice running
    (lo, f_lo), (hi, f_hi) = (0.0, -math.inf), (1.0, math.inf)
    a, side = a_init * about, 0  # mirrored problem oscillates about +1
    for _ in range(newton.MAX_ITERS):
        f = _half_return_f3(shooter, n, a)
        if f == 0.0:
            break
        if f < 0.0:
            f_hi *= 0.5 if side < 0 else 1.0
            (lo, f_lo), side = (a, f), -1
        else:
            f_lo *= 0.5 if side > 0 else 1.0
            (hi, f_hi), side = (a, f), 1
        a = (0.5 * (lo + hi) if math.isinf(f_lo) or math.isinf(f_hi)
             else (lo * f_hi - hi * f_lo) / (f_hi - f_lo))
        if hi - lo < 100.0 * oscillation.RTOL:
            break
    else:
        raise ShootingError(f"no root of F'''(T/2) within {newton.MAX_ITERS} "
                            f"shots: bracket [{lo:.6g}, {hi:.6g}]")
    b = _zero_energy_b(a, n)
    # the shot from the minimum returns to the next minimum, where F' = 0
    # is crossed upward
    legs = shooter.section_return(_orbit_start(n, a, b), 1)
    if legs[-1].stop != 0:
        raise ShootingError("the orbit's shot did not return to the section")
    jetT = _terminal_jet(n, legs[-1].y)
    closure = max(abs(p - q) for p, q in zip((a, 0.0, b, 0.0), jetT))
    if closure > 1e-8:
        raise ShootingError(
            f"no closure within iteration budget (jet mismatch {closure:.3e})")

    period = float(legs[0].t + legs[1].t)
    ends = (about * a, about * float(legs[0].y[0]))
    return PeriodicOrbit(a=about * a, b=about * b, period=period,
                         min_val=min(ends), max_val=max(ends), about=about,
                         counts=shooter.counts)


def orbit_samples(orbit: PeriodicOrbit, n: float, ts) -> np.ndarray:
    """F at the increasing times ts >= 0 of a converged orbit, F(0) = a."""
    u0 = _orbit_start(n, orbit.a * orbit.about, orbit.b * orbit.about)
    us, _ = oscillation._samples(_orbit_rhs(n), u0, np.concatenate(([0.0], ts)),
                                 ORBIT_ATOL)
    return orbit.about * us[0, 1:]


# -- serialization ------------------------------------------------------------

# values per block of write_csv; bounds what one block builds in memory
CSV_BLOCK_VALUES = 1 << 13


def write_csv(path, header: str, columns) -> None:
    """Write columns under a header line: 17 significant digits, LF endings.

    Rows are stacked and formatted in blocks of about CSV_BLOCK_VALUES
    values (at least one row each), so a wide table never builds its
    whole table or text at once.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    rows = cols[0].size
    if any(c.shape != (rows,) for c in cols):
        raise ValueError("CSV columns must be 1-d and of equal length")
    step = max(1, CSV_BLOCK_VALUES // len(cols))
    line = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i in range(0, rows, step):
            # one %-format per block; Python floats format faster than numpy scalars
            block = np.column_stack([c[i:i + step] for c in cols])
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def write_json(path, obj) -> None:
    """Write obj as sorted JSON, indented by 2, with a trailing LF."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8", newline="\n")


def save_profile(profiles, path) -> Path:
    """Write profiles as one table plus a JSON sidecar.

    A `.npy` path gets np.save's float64 array, record k in row k, any
    other a CSV, an `F` column each.  The profiles must share n, eps, bc
    and mesh, which the sidecar holds once with each record's p, residual
    norm, convergence and LU count.  Its mesh block replaces a `y` column,
    so the nodes must be `Mesh.uniform(a, b, intervals)` bit for bit (not
    a `full_extension()` mesh), else ValueError.  Returns the sidecar.
    """
    first = profiles[0]
    nodes = first.mesh.nodes
    a, b, m = float(nodes[0]), float(nodes[-1]), first.mesh.m
    if not np.array_equal(Mesh.uniform(a, b, m).nodes, nodes):
        raise ValueError("profile mesh is not Mesh.uniform(a, b, intervals) "
                         "bit for bit; its nodes cannot be stored as a, b, m")
    shared = (first.params.n, first.params.eps, first.bc)
    for prof in profiles[1:]:
        if ((prof.params.n, prof.params.eps, prof.bc) != shared
                or not np.array_equal(prof.mesh.nodes, nodes)):
            raise ValueError("profiles saved together must share n, eps, bc "
                             "and mesh")
    path = Path(path)
    values = np.stack([prof.values for prof in profiles])
    if path.suffix == ".npy":
        np.save(path, values, allow_pickle=False)
    else:
        write_csv(path, ",".join(["F"] * len(profiles)), values)
    sidecar = path.with_suffix(".json")
    write_json(sidecar, {
        "n": first.params.n,
        "eps": first.params.eps,
        "bc": first.bc,
        "mesh": {"a": a, "b": b, "intervals": m},
        "records": [{"p": prof.params.p,
                     "residual_norm": prof.residual_norm,
                     "converged": prof.converged,
                     "newton_iters": prof.newton_iters} for prof in profiles],
    })
    return sidecar


def load_profile(path, record: int = 0) -> Profile:
    """Load record `record` (0-based) of a stored profile table.

    The residual norm is recomputed, never trusted.  The nodes are
    rebuilt from the sidecar's mesh block.  A `.npy` table must be <f8 of
    shape (records, intervals + 1); a CSV must name one `F` column per
    record and hold one row per node.  Both round-trip bit for bit, so
    the profile stays converged only if its record says so and the
    recomputed residual is no larger than stored.
    """
    path = Path(path)
    sidecar = path.with_suffix(".json")
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    if "records" not in meta:
        raise ValueError(f"{sidecar} has no records list; it predates the "
                         "one-file records format")
    records = meta["records"]
    if not 0 <= record < len(records):
        raise ValueError(f"record {record} is out of range: {path} holds "
                         f"{len(records)} records")
    grid = meta["mesh"]
    shape = (len(records), grid["intervals"] + 1)
    if path.suffix == ".npy":
        table = np.load(path, mmap_mode="r", allow_pickle=False)
        if table.dtype.str != "<f8" or table.shape != shape:
            raise ValueError(f"{path} is not a <f8 array of shape {shape}")
        values = np.array(table[record])
    else:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            if header != ["F"] * len(records):
                raise ValueError(f"{path} has {len(header)} columns, its "
                                 f"sidecar {len(records)} records")
            values = np.loadtxt(fh, delimiter=",", usecols=record, ndmin=1)
        if values.size != shape[1]:
            raise ValueError(f"{path} holds {values.size} rows of F, the "
                             f"sidecar's mesh needs intervals + 1 = {shape[1]}")
    rec = records[record]
    params = ProblemParams(n=meta["n"], p=rec["p"], eps=meta["eps"])
    prof = Profile(Mesh.uniform(grid["a"], grid["b"], grid["intervals"]),
                   values, params, meta["bc"], newton_iters=rec["newton_iters"])
    rnorm = residual_norm(prof)
    ok = rec["converged"] and rnorm <= rec["residual_norm"]
    return prof.replace(residual_norm=rnorm, converged=ok)
