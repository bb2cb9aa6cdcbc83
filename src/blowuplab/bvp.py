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
(blowuplab.newton) factors the Jacobian, banded with bandwidth 2.  Boundary
conditions are encoded as reflection ghosts (slope conditions) plus value
rows, one BC_RULES entry each:

    dirichlet-far    F = F' = 0 at both ends of [-R, R]
    q-plateau        F = 1, F' = 0 at -R (plateau), F = F' = 0 at R
    symmetry         even reflection at 0 on [0, R], F = F' = 0 at R
    antisymmetry     odd reflection at 0 on [0, R], F = F' = 0 at R

The same module shoots for the periodic orbits about +-1 of the
autonomous p = n+1 equation, and owns the format of every output file:
`write_csv` (17 significant digits) and `write_json` (sorted keys, indent
2), UTF-8 with LF endings.  Stored profiles are one CSV with an `F`
column per profile (one for a solve, one per record for a branch) plus a
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


class ShootingError(RuntimeError):
    """Raised when periodic-orbit shooting fails.

    kind is one of "escape-zero", "diverged", "no-closure".
    """

    def __init__(self, message, kind):
        super().__init__(message)
        self.kind = kind


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
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("mesh nodes must be strictly increasing")
        h = float(nodes[1] - nodes[0])
        if not np.allclose(np.diff(nodes), h, rtol=1e-12, atol=1e-12):
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


def _extended(values: np.ndarray, bc: str) -> np.ndarray:
    """Node values padded with two ghost nodes per side.

    Left ghosts reflect with the bc's ghost_sign (even for slope conditions
    and symmetric profiles, odd for antisymmetric ones); right ghosts encode
    F' = 0 at the far boundary by mirror reflection.
    """
    ext = np.empty(values.size + 4)
    ext[2:-2] = values
    ext[:2] = BC_RULES[bc].ghost_sign * values[2:0:-1]
    ext[-2] = values[-2]
    ext[-1] = values[-3]
    return ext


def _flux(w: np.ndarray, n: float, eps: float) -> np.ndarray:
    return (eps * eps + w * w) ** (0.5 * n) * w


def _flux_prime(w: np.ndarray, n: float, eps: float) -> np.ndarray:
    a = eps * eps + w * w
    return a ** (0.5 * n - 1.0) * (eps * eps + (n + 1.0) * w * w)


def _check_mesh(profile: Profile) -> float:
    if profile.mesh.m < MIN_INTERVALS:
        raise ValueError(f"mesh too coarse: {profile.mesh.m} < {MIN_INTERVALS} intervals")
    return profile.mesh.h


def assemble_residual(profile: Profile) -> np.ndarray:
    """Residual of the regularized equation, one row per node.

    Interior rows hold the discrete equation; boundary rows hold the bc
    value constraints (F(+-R) = 0, F(-R) = 1 for the plateau, F(0) = 0 for
    antisymmetry).  Slope conditions live in the ghost reflections used by
    the interior rows, not in rows of their own.
    """
    h = _check_mesh(profile)
    n, p, eps = profile.params.n, profile.params.p, profile.params.eps
    bt = _beta_tilde(profile.params)
    F = profile.values
    y = profile.mesh.nodes
    ext = _extended(F, profile.bc)
    w = (ext[:-2] - 2.0 * ext[1:-1] + ext[2:]) / h**2       # F'' at nodes -1..m+1
    g = _flux(w, n, eps)
    lap_g = (g[:-2] - 2.0 * g[1:-1] + g[2:]) / h**2         # (flux)'' at nodes 0..m
    dF = (ext[3:-1] - ext[1:-3]) / (2.0 * h)                # F' at nodes 0..m
    res = -lap_g - bt * y * dF - F + np.abs(F) ** (p - 1.0) * F
    pin = BC_RULES[profile.bc].pin
    res[-1] = F[-1]
    if pin is not None:
        res[0] = F[0] - pin
    return res


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
    h = _check_mesh(profile)
    n, p, eps = profile.params.n, profile.params.p, profile.params.eps
    bt = _beta_tilde(profile.params)
    rule = BC_RULES[profile.bc]
    F = profile.values
    y = profile.mesh.nodes
    ext = _extended(F, profile.bc)
    w = (ext[:-2] - 2.0 * ext[1:-1] + ext[2:]) / h**2
    gp = _flux_prime(w, n, eps)                              # g'(F'') at nodes -1..m+1
    h4 = h**4
    gpl, gpc, gpr = gp[:-2], gp[1:-1], gp[2:]                # nodes i-1, i, i+1
    drift = bt * y / (2.0 * h)
    c_m2 = -gpl / h4
    c_m1 = 2.0 * (gpl + gpc) / h4 + drift
    c_0 = -(gpl + 4.0 * gpc + gpr) / h4 - 1.0 + p * np.abs(F) ** (p - 1.0)
    c_p1 = 2.0 * (gpc + gpr) / h4 - drift
    c_p2 = -gpr / h4

    ab = np.zeros((7, F.size))
    ab[2, 2:] = c_p2[:-2]
    ab[3, 1:] = c_p1[:-1]
    ab[4] = c_0
    ab[5, :-1] = c_m1[1:]
    ab[6, :-2] = c_m2[2:]

    # ghost folds: res_0 sees ghosts -1, -2 (a pinned row 0 is overwritten
    # below) and res_1 ghost -1, all with the ghost_sign; res_{m-1} sees
    # ghost m+1, which is node m-1
    ab[3, 1] += rule.ghost_sign * c_m1[0]
    ab[2, 2] += rule.ghost_sign * c_m2[0]
    ab[4, 1] += rule.ghost_sign * c_m2[1]
    ab[4, -2] += c_p2[-2]

    # bc value rows overwrite their equation rows: F = 0 at the right end,
    # the pinned value at node 0
    ab[[6, 5, 4], [-3, -2, -1]] = (0.0, 0.0, 1.0)
    if rule.pin is not None:
        ab[[4, 3, 2], [0, 1, 2]] = (1.0, 0.0, 0.0)
    return ab


# -- Newton solver ----------------------------------------------------------


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-6
    max_iters: int = 200


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
    """Profile by blowuplab.newton, one banded LU (dgbtrf) per iteration.

    Corrections are scaled by max(|F_i|, opts.tol); newton_iters counts
    the LUs.  Failure raises NewtonError with the last iterate, unconverged,
    and the LUs it made.
    """
    if params.eps == 0.0 and params.n > 0.0:
        raise ValueError("eps = 0 with n > 0: degenerate equation, Newton refused")
    work = Profile(guess.mesh, _project_bc(guess.values, guess.bc), params, guess.bc)

    def at(values) -> Profile:
        # pivoting solves the identity bc rows of J only to roundoff
        return work.replace(values=_project_bc(values, work.bc))

    def factor(values, _res):
        lu, piv, info = dgbtrf(assemble_jacobian(at(values)), 2, 2)
        return None if info > 0 else lambda b: dgbtrs(lu, 2, 2, b, piv)[0]

    try:
        values, iters = newton.solve(lambda v: assemble_residual(at(v)), factor,
                                     work.values, opts.tol, opts.tol, opts.max_iters)
    except NewtonError as exc:
        last = at(exc.best)
        last = last.replace(residual_norm=residual_norm(last),
                            newton_iters=exc.newton_iters)
        raise NewtonError(str(exc), last, exc.newton_iters) from None
    sol = at(values)
    return sol.replace(residual_norm=residual_norm(sol), converged=True,
                       newton_iters=iters)


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
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
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


def _spow(x: float, a: float) -> float:
    return math.copysign(abs(x) ** a, x)


def _orbit_rhs(n: float):
    inv = 1.0 / (n + 1.0)

    def rhs(t, u):
        F, F1, w, w1 = u.tolist()
        return [F1, _spow(w, inv), w1, -F + abs(F) ** n * F]

    return rhs


def _orbit_shooter(n: float):
    """Legs of the regional orbit to the section F' = 0, stopped when F
    leaves the oscillation strip toward F = 0 or diverges."""
    return oscillation._Shooter(
        _orbit_rhs(n), 1, ORBIT_ATOL,
        events=(lambda u: u[0] - 0.02, lambda u: abs(u[0]) - 8.0),
        error=lambda message: ShootingError(message, "diverged"))


def _orbit_start(n: float, a: float, b: float) -> tuple:
    return (a, 0.0, _spow(b, n + 1.0), 0.0)


def _terminal_jet(n: float, u) -> tuple:
    F, F1, w, w1 = u
    F2 = _spow(w, 1.0 / (n + 1.0))
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


def _returned(leg):
    """The leg if it reached the section, else its ShootingError."""
    if leg.stop == 0:
        return leg
    if leg.stop == 1:
        raise ShootingError("trajectory escaped to the basin of F = 0",
                            "escape-zero")
    if leg.stop == 2:
        raise ShootingError("trajectory diverged", "diverged")
    raise ShootingError("no section return within the integration budget",
                        "no-closure")


def _half_return(shooter, n: float, a: float):
    """Leg of the zero-energy shot from a to the first maximum of F."""
    return _returned(shooter.cross(_orbit_start(n, a, _zero_energy_b(a, n)), -1))


def shoot_periodic_full(n: float, about: int, a_init: float) -> PeriodicOrbit:
    """Periodic orbit of the autonomous equation oscillating about +-1.

    Shooting runs on the zero-energy manifold of the conserved first
    integral (the level shared with compactly supported profiles), where
    F''(0) is a closed form of F(0) = a.  The equation is reversible, so
    a shot from the symmetric jet (a, 0, b, 0) that reaches another
    symmetric jet (F' = F''' = 0) at its half return closes into a
    periodic orbit by reflection.  The shooter of blowuplab.oscillation
    solves F'''(T/2) = 0 for a, from a_init once the walk below has given
    that a half return.  The full jet must then return to 1e-8.  F' = 0
    only on the section, so the extremes of F are the landings there: the
    minimum a and the maximum F(T/2).  orbit_samples re-runs the orbit to
    give F at any times.
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

    a0 = a_init * about  # mirrored problem oscillates about +1
    shooter = _orbit_shooter(n)

    # walk a0 into the window where the zero-energy shot reaches the
    # opposite extremum: divergence means too much curvature (lower a),
    # escape toward zero means too little (raise a)
    for attempt in range(60):
        try:
            leg = _half_return(shooter, n, a0)
            break
        except ShootingError as exc:
            if exc.kind == "no-closure" or attempt == 59:
                raise
            a0 = a0 * 0.95 if exc.kind == "diverged" else a0 * 1.05 + 1e-3
            if not 0.03 < a0 < 0.999:
                raise

    def residual(x):
        return np.array([_terminal_jet(n, _half_return(shooter, n, x[0]).y)[3]])

    # corrections are measured against the amplitude of the walk's leg
    a = float(oscillation._newton(residual, [a0], [leg.umax[0]])[0][0])
    b = _zero_energy_b(a, n)
    # the shot from the minimum returns to the next minimum, where F' = 0
    # is crossed upward
    legs = shooter.section_return(_orbit_start(n, a, b), 1)
    jetT = _terminal_jet(n, _returned(legs[-1]).y)
    closure = max(abs(p - q) for p, q in zip((a, 0.0, b, 0.0), jetT))
    if closure > 1e-8:
        raise ShootingError(
            f"no closure within iteration budget (jet mismatch {closure:.3e})",
            "no-closure")

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


def save_profile(profiles, csv_path) -> Path:
    """Write profiles as one CSV, an `F` column each, plus a JSON sidecar.

    The profiles must share n, eps, bc and mesh, which the sidecar holds
    once; its `records` list holds each column's p, residual norm,
    convergence and LU count, in column order.  The mesh block replaces
    a `y` column, so the nodes must be exactly `Mesh.uniform(a, b,
    intervals)`; any other mesh (a `full_extension()` one, say) raises
    ValueError.  Returns the sidecar's path.
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
    csv_path = Path(csv_path)
    write_csv(csv_path, ",".join(["F"] * len(profiles)),
              [prof.values for prof in profiles])
    sidecar = csv_path.with_suffix(".json")
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


def load_profile(csv_path, record: int = 0) -> Profile:
    """Load column `record` (0-based) of a stored profile CSV.

    The residual norm is recomputed, never trusted.  The nodes are
    rebuilt from the sidecar's mesh block, the header must name one `F`
    column per sidecar record, and the column must hold one row per node.
    Both round-trip bit for bit, so the profile stays converged only if
    its record says so and the recomputed residual is no larger than
    stored.
    """
    csv_path = Path(csv_path)
    sidecar = csv_path.with_suffix(".json")
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    if "records" not in meta:
        raise ValueError(f"{sidecar} has no records list; it predates the "
                         "one-file records format")
    records = meta["records"]
    if not 0 <= record < len(records):
        raise ValueError(f"record {record} is out of range: {csv_path} holds "
                         f"{len(records)} records")
    grid = meta["mesh"]
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != ["F"] * len(records):
            raise ValueError(f"{csv_path} has {len(header)} columns, its "
                             f"sidecar {len(records)} records")
        values = np.loadtxt(fh, delimiter=",", usecols=record, ndmin=1)
    if values.size != grid["intervals"] + 1:
        raise ValueError(f"{csv_path} holds {values.size} rows of F, the "
                         f"sidecar's mesh needs intervals + 1 = "
                         f"{grid['intervals'] + 1}")
    rec = records[record]
    params = ProblemParams(n=meta["n"], p=rec["p"], eps=meta["eps"])
    prof = Profile(Mesh.uniform(grid["a"], grid["b"], grid["intervals"]),
                   values, params, meta["bc"], newton_iters=rec["newton_iters"])
    rnorm = residual_norm(prof)
    ok = rec["converged"] and rnorm <= rec["residual_norm"]
    return prof.replace(residual_norm=rnorm, converged=ok)
