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
conditions are encoded as reflection ghosts (slope conditions) plus value rows:

    dirichlet-far    F = F' = 0 at both ends of [-R, R]
    q-plateau        F = 1, F' = 0 at -R (plateau), F = F' = 0 at R
    symmetry         even reflection at 0 on [0, R], F = F' = 0 at R
    antisymmetry     odd reflection at 0 on [0, R], F = F' = 0 at R

The same module shoots for the periodic orbits about +-1 of the
autonomous p = n+1 equation, and owns the format of every output file:
`write_csv` (17 significant digits) and `write_json` (sorted keys, indent
2), UTF-8 with LF endings.  A stored profile is an `F`-only CSV plus a
JSON sidecar whose `mesh` block (a, b, intervals) rebuilds the uniform
nodes bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
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
    "linear_limit_residual",
    "solve_profile",
    "eps_continuation",
    "shoot_periodic_full",
    "tail_frequency_estimate",
    "save_profile",
    "load_profile",
    "write_csv",
    "write_json",
]

BC_CHOICES = ("symmetry", "antisymmetry", "q-plateau", "dirichlet-far")
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
        if self.bc not in BC_CHOICES:
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
        if self.bc not in ("symmetry", "antisymmetry"):
            return self
        y = self.mesh.nodes
        if abs(y[0]) > 1e-14:
            raise ValueError("half-domain profile must start at 0")
        sign = 1.0 if self.bc == "symmetry" else -1.0
        nodes = np.concatenate([-y[:0:-1], y])
        values = np.concatenate([sign * self.values[:0:-1], self.values])
        return Profile(Mesh(nodes), values, self.params,
                       "dirichlet-far", self.residual_norm, self.converged,
                       self.newton_iters)


# -- residual and Jacobian -------------------------------------------------


def _beta_tilde(params: ProblemParams) -> float:
    # exact zero in the regional regime so the drift term drops identically
    if params.regime == model.REGIONAL:
        return 0.0
    return model.derive_params(params).beta_tilde


def _extended(values: np.ndarray, bc: str) -> np.ndarray:
    """Node values padded with two ghost nodes per side.

    Left ghosts encode the symmetry class (even for slope conditions and
    symmetric profiles, odd for antisymmetric ones); right ghosts encode
    F' = 0 at the far boundary by mirror reflection.
    """
    ext = np.empty(values.size + 4)
    ext[2:-2] = values
    if bc == "antisymmetry":
        ext[1] = -values[1]
        ext[0] = -values[2]
    else:
        ext[1] = values[1]
        ext[0] = values[2]
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
    _apply_bc_rows(res, F, profile.bc)
    return res


def _apply_bc_rows(res: np.ndarray, F: np.ndarray, bc: str) -> None:
    if bc == "dirichlet-far":
        res[0] = F[0]
        res[-1] = F[-1]
    elif bc == "q-plateau":
        res[0] = F[0] - 1.0
        res[-1] = F[-1]
    elif bc == "antisymmetry":
        res[0] = F[0]
        res[-1] = F[-1]
    else:  # symmetry: node 0 keeps its equation row
        res[-1] = F[-1]


def interior_slice(bc: str) -> slice:
    """Rows carrying the discrete equation (the others are bc rows)."""
    return slice(0, -1) if bc == "symmetry" else slice(1, -1)


def residual_norm(profile: Profile) -> float:
    """Max-norm of the equation rows of the residual."""
    res = assemble_residual(profile)
    return float(np.max(np.abs(res[interior_slice(profile.bc)])))


def assemble_jacobian(profile: Profile) -> np.ndarray:
    """Analytic Jacobian of assemble_residual in (2, 2) banded storage.

    Band storage ab[2 + i - j, j] = dres_i / dF_j.  Ghost dependencies fold
    back into columns 1, 2 (left, with the symmetry sign) and m-1 (right).
    """
    h = _check_mesh(profile)
    n, p, eps = profile.params.n, profile.params.p, profile.params.eps
    bt = _beta_tilde(profile.params)
    F = profile.values
    y = profile.mesh.nodes
    m1 = F.size
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

    ab = np.zeros((5, m1))
    idx = np.arange(m1)
    for off, c in ((-2, c_m2), (-1, c_m1), (0, c_0), (1, c_p1), (2, c_p2)):
        cols = idx + off
        ok = (cols >= 0) & (cols < m1)
        ab[2 - off, cols[ok]] = c[ok]

    # ghost folds: res_1 sees node -1 via c_m2[1]; res_0 (symmetry only)
    # sees nodes -1, -2; res_{m-1} sees node m+1 via c_p2[m-1]
    sign = -1.0 if profile.bc == "antisymmetry" else 1.0
    _band_add(ab, 1, 1, sign * c_m2[1])
    if profile.bc == "symmetry":
        _band_add(ab, 0, 1, c_m1[0])
        _band_add(ab, 0, 2, c_m2[0])
    _band_add(ab, m1 - 2, m1 - 2, c_p2[m1 - 2])

    # bc value rows overwrite their equation rows
    rows = [m1 - 1] if profile.bc == "symmetry" else [0, m1 - 1]
    for i in rows:
        for off in (-2, -1, 0, 1, 2):
            j = i + off
            if 0 <= j < m1:
                ab[2 - off, j] = 0.0
        ab[2, i] = 1.0
    return ab


def _band_add(ab: np.ndarray, i: int, j: int, v: float) -> None:
    ab[2 + i - j, j] += v


def linear_limit_residual(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """The n -> 0 linear-limit operator -D4 - (1/4) y D + I on interior nodes.

    Built from the same composed stencils as assemble_residual, with the
    n = 0 drift coefficient 1/4.  The quartic (y^4 + 24)/sqrt(24) lies in
    its continuum kernel, so applying this to it measures pure
    discretization error.  Rows within reach of the boundary ghosts are
    boundary effects and are not returned.
    """
    h = mesh.h
    F = np.asarray(values, dtype=float)
    ext = _extended(F, "dirichlet-far")
    w = (ext[:-2] - 2.0 * ext[1:-1] + ext[2:]) / h**2
    lap_w = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / h**2
    dF = (ext[3:-1] - ext[1:-3]) / (2.0 * h)
    res = -lap_w - 0.25 * mesh.nodes * dF + F
    return res[2:-2]


# -- Newton solver ----------------------------------------------------------


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-6
    max_iters: int = 200


def _project_bc(values: np.ndarray, bc: str) -> np.ndarray:
    """Pin the bc value rows of a guess exactly."""
    v = np.array(values, dtype=float)
    v[-1] = 0.0
    if bc == "dirichlet-far" or bc == "antisymmetry":
        v[0] = 0.0
    elif bc == "q-plateau":
        v[0] = 1.0
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
        # dgbtrf takes the band below 2 spare rows for the LU fill-in
        ab = np.pad(assemble_jacobian(at(values)), ((2, 0), (0, 0)))
        lu, piv, info = dgbtrf(ab, 2, 2)
        return None if info > 0 else lambda b: dgbtrs(lu, 2, 2, b, piv)[0]

    try:
        values, iters = newton.solve(lambda v: assemble_residual(at(v)), factor,
                                     work.values, opts.tol, opts.tol, opts.max_iters)
    except NewtonError as exc:
        last = at(exc.best)
        last = last.replace(residual_norm=residual_norm(last))
        raise NewtonError(str(exc), last, exc.newton_iters) from None
    sol = at(values)
    return sol.replace(residual_norm=residual_norm(sol), converged=True,
                       newton_iters=iters)


def eps_continuation(params: ProblemParams, guess: Profile, schedule,
                     opts: NewtonOptions = NewtonOptions()) -> Profile:
    """Homotopy in eps: chain of solves, each warm-started from the last.

    The schedule must decrease strictly, start at eps >= 1e-2 and never go
    below the 1e-4 resolution floor.  Returns the profile at the last eps;
    a failing stage's NewtonError propagates, its best iterate at that eps.
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
    profile = guess
    for eps in schedule:
        profile = solve_profile(params.with_eps(eps), profile, opts)
    return profile


# -- tail diagnostics --------------------------------------------------------


def tail_frequency_estimate(profile: Profile) -> tuple[float, float]:
    """Measured vs predicted oscillation frequency in the far tail.

    The measured value is pi over the mean gap between consecutive zeros in
    the last 20% of the mesh; the prediction (sqrt(2)/2) eps^(-n/4) is the
    frequency of the regularization-induced linear oscillation.  Comparing
    the two tells linear tail wiggles apart from genuine interface
    oscillation.
    """
    F = profile.values
    y = profile.mesh.nodes
    k0 = int(math.floor(0.8 * F.size))
    w, yy = F[k0:], y[k0:]
    floor = 1e-12 * max(np.max(np.abs(F)), 1e-300)
    zeros = []
    for i in range(w.size - 1):
        if w[i] * w[i + 1] < 0.0 and max(abs(w[i]), abs(w[i + 1])) > floor:
            zeros.append(yy[i] + (yy[i + 1] - yy[i]) * w[i] / (w[i] - w[i + 1]))
    if len(zeros) < 3:
        raise ValueError(f"too few tail zeros: found {len(zeros)}, need >= 3")
    gaps = np.diff(zeros)
    measured = math.pi / float(np.mean(gaps))
    n, eps = profile.params.n, profile.params.eps
    predicted = (math.sqrt(2.0) / 2.0) * eps ** (-n / 4.0)
    return measured, predicted


# -- periodic orbits of the autonomous regional equation ---------------------


@dataclass(frozen=True)
class PeriodicOrbit:
    """Closed orbit of the autonomous p = n+1 equation about +-1."""

    a: float          # F at the starting minimum (about=+1 convention)
    b: float          # F'' there
    period: float
    min_val: float
    max_val: float
    about: int


def _spow(x: float, a: float) -> float:
    return math.copysign(abs(x) ** a, x)


def _orbit_rhs(n: float):
    inv = 1.0 / (n + 1.0)

    def rhs(t, u):
        F, F1, w, w1 = u
        return (F1, _spow(w, inv), w1, -F + abs(F) ** n * F)

    return rhs


def _orbit_events():
    def escaped(t, u):       # left the oscillation strip toward F = 0
        return u[0] - 0.02
    escaped.terminal = True

    def diverged(t, u):
        return abs(u[0]) - 8.0
    diverged.terminal = True

    return (escaped, diverged)


def _orbit_start(n: float, a: float, b: float) -> tuple:
    return (a, 0.0, _spow(b, n + 1.0), 0.0)


def _orbit_shot(n: float, a: float, b: float, dense: bool = False) -> list:
    """Legs of the shot from the minimum (a, 0, b, 0) to its section return.

    The section is F' = 0, crossed upward at minima of F; the shot runs
    in the mirrored convention about = +1.
    """
    return oscillation._section_return(_orbit_rhs(n), _orbit_start(n, a, b),
                                       1, 1, ORBIT_ATOL, _orbit_events(),
                                       dense)


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
    if leg.t_events[0].size:
        return leg
    if leg.t_events[1].size:
        raise ShootingError("trajectory escaped to the basin of F = 0",
                            "escape-zero")
    if leg.t_events[2].size:
        raise ShootingError("trajectory diverged", "diverged")
    raise ShootingError("no section return within the integration budget",
                        "no-closure")


def _half_return(n: float, a: float):
    """Leg of the zero-energy shot from a to the first maximum of F."""
    return _returned(oscillation._cross(
        _orbit_rhs(n), _orbit_start(n, a, _zero_energy_b(a, n)), 1, -1,
        ORBIT_ATOL, _orbit_events()))


def shoot_periodic_full(n: float, about: int, a_init: float) -> PeriodicOrbit:
    """Periodic orbit of the autonomous equation oscillating about +-1.

    Shooting runs on the zero-energy manifold of the conserved first
    integral (the level shared with compactly supported profiles), where
    F''(0) is a closed form of F(0) = a.  The equation is reversible, so
    a shot from the symmetric jet (a, 0, b, 0) that reaches another
    symmetric jet (F' = F''' = 0) at its half return closes into a
    periodic orbit by reflection.  The shooter of blowuplab.oscillation
    solves F'''(T/2) = 0 for a, from a_init once the walk below has given
    that a half return.  The full jet must then return to 1e-8.
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

    # walk a0 into the window where the zero-energy shot reaches the
    # opposite extremum: divergence means too much curvature (lower a),
    # escape toward zero means too little (raise a)
    for attempt in range(60):
        try:
            leg = _half_return(n, a0)
            break
        except ShootingError as exc:
            if exc.kind == "no-closure" or attempt == 59:
                raise
            a0 = a0 * 0.95 if exc.kind == "diverged" else a0 * 1.05 + 1e-3
            if not 0.03 < a0 < 0.999:
                raise

    def residual(x):
        return np.array([_terminal_jet(n, _half_return(n, x[0]).y[:, -1])[3]])

    # corrections are measured against the amplitude of the walk's leg
    a = float(oscillation._newton(residual, [a0], [np.max(np.abs(leg.y[0]))])[0][0])
    b = _zero_energy_b(a, n)
    legs = _orbit_shot(n, a, b, dense=True)
    jetT = _terminal_jet(n, _returned(legs[-1]).y[:, -1])
    closure = max(abs(p - q) for p, q in zip((a, 0.0, b, 0.0), jetT))
    if closure > 1e-8:
        raise ShootingError(
            f"no closure within iteration budget (jet mismatch {closure:.3e})",
            "no-closure")

    period = float(legs[0].t[-1] + legs[1].t[-1])
    Fs = oscillation._sample_shot(legs, np.linspace(0.0, period, 4001))[0]
    lo_v, hi_v = float(np.min(Fs)), float(np.max(Fs))
    if about == -1:
        return PeriodicOrbit(a=-a, b=-b, period=period,
                             min_val=-hi_v, max_val=-lo_v, about=about)
    return PeriodicOrbit(a=a, b=b, period=period,
                         min_val=lo_v, max_val=hi_v, about=about)


def orbit_samples(orbit: PeriodicOrbit, n: float, num: int = 2001) -> tuple[np.ndarray, np.ndarray]:
    """Re-run the shot of a converged orbit and sample one period of (y, F)."""
    legs = _orbit_shot(n, orbit.a * orbit.about, orbit.b * orbit.about,
                       dense=True)
    ts = np.linspace(0.0, orbit.period, num)
    return ts, orbit.about * oscillation._sample_shot(legs, ts)[0]


# -- serialization ------------------------------------------------------------


def write_csv(path, header: str, columns) -> None:
    """Write columns under a header line: 17 significant digits, LF endings."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    # one %-format over all rows; Python floats format faster than numpy scalars
    body = (",".join(["%.17g"] * table.shape[1]) + "\n") * table.shape[0]
    text = header + "\n" + body % tuple(table.ravel().tolist())
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_json(path, obj) -> None:
    """Write obj as sorted JSON, indented by 2, with a trailing LF."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8", newline="\n")


def save_profile(profile: Profile, csv_path) -> Path:
    """Write the `F` CSV plus a JSON sidecar; return the sidecar's path.

    The sidecar's mesh block replaces a `y` column, so the nodes must be
    exactly `Mesh.uniform(a, b, intervals)`; any other mesh (a
    `full_extension()` one, say) raises ValueError.
    """
    nodes = profile.mesh.nodes
    a, b, m = float(nodes[0]), float(nodes[-1]), profile.mesh.m
    if not np.array_equal(Mesh.uniform(a, b, m).nodes, nodes):
        raise ValueError("profile mesh is not Mesh.uniform(a, b, intervals) "
                         "bit for bit; its nodes cannot be stored as a, b, m")
    csv_path = Path(csv_path)
    write_csv(csv_path, "F", (profile.values,))
    sidecar = csv_path.with_suffix(".json")
    write_json(sidecar, {
        "n": profile.params.n,
        "p": profile.params.p,
        "eps": profile.params.eps,
        "bc": profile.bc,
        "residual_norm": profile.residual_norm,
        "converged": profile.converged,
        "newton_iters": profile.newton_iters,
        "mesh": {"a": a, "b": b, "intervals": m},
    })
    return sidecar


def load_profile(csv_path) -> Profile:
    """Load a profile; the residual norm is recomputed, never trusted.

    The nodes are rebuilt from the sidecar's mesh block and the CSV must
    hold one `F` row per node.  Both round-trip bit for bit, so the
    profile stays converged only if its sidecar says so and the
    recomputed residual is no larger than stored.
    """
    csv_path = Path(csv_path)
    values = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=1)
    meta = json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))
    grid = meta["mesh"]
    if values.ndim != 1 or values.size != grid["intervals"] + 1:
        raise ValueError(f"{csv_path} holds {values.shape[0]} rows of F, the "
                         f"sidecar's mesh needs intervals + 1 = "
                         f"{grid['intervals'] + 1}")
    params = ProblemParams(n=meta["n"], p=meta["p"], eps=meta["eps"])
    prof = Profile(Mesh.uniform(grid["a"], grid["b"], grid["intervals"]),
                   values, params, meta["bc"], newton_iters=meta["newton_iters"])
    rnorm = residual_norm(prof)
    ok = meta["converged"] and rnorm <= meta["residual_norm"]
    return prof.replace(residual_norm=rnorm, converged=ok)
