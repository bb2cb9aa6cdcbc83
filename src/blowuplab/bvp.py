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
reflection ghosts (slope conditions) plus pinned end values, one BC_RULES
entry:

    dirichlet-far    F = F' = 0 at both ends of [-R, R]
    q-plateau        F = 1, F' = 0 at -R (plateau), F = F' = 0 at R
    symmetry         even reflection at 0 on [0, R], F = F' = 0 at R
    antisymmetry     odd reflection at 0 on [0, R], F = F' = 0 at R
    half-period      even reflection at both ends of [0, L], nothing pinned

A pinned node is no unknown: Newton solves the equation on the free nodes
(_free), so its matrix is the band's free block, at p = n+1 on [-R, R] a
multiple of the Hessian of the discrete energy, symmetric.

The last is no Profile's: on it the same stencil and Newton find the
periodic orbits about +-1 of the autonomous p = n+1 equation, with L an
unknown, bordered onto the band by _bordered_solver (block elimination on
the banded LU, which the nonlinear eigenvalue shares).  The module owns
the format of every output file:
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
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from . import model, newton
from .model import ProblemParams
from .newton import NewtonError

__all__ = [
    "Mesh",
    "Profile",
    "NewtonOptions",
    "NewtonError",
    "PeriodicOrbit",
    "assemble_residual",
    "assemble_jacobian",
    "solve_profile",
    "eps_continuation",
    "shoot_periodic_full",
    "orbit_samples",
    "save_profile",
    "load_profile",
    "write_csv",
    "write_json",
]

# per bc, the left ghosts are F_-k = ghost_sign F_k and the right ones even,
# pin is F at node 0 and far F at node m (None: the node is free, see
# _free), and a half-domain bc lives on [0, R], extended to [-R, R] with that
# parity; half-period is the periodic orbit's, every other one a Profile's
BcRule = namedtuple("BcRule", "ghost_sign pin far half_domain")
BC_RULES = {
    "symmetry": BcRule(1.0, None, 0.0, True),
    "antisymmetry": BcRule(-1.0, 0.0, 0.0, True),
    "q-plateau": BcRule(1.0, 1.0, 0.0, False),
    "dirichlet-far": BcRule(1.0, 0.0, 0.0, False),
    "half-period": BcRule(1.0, None, None, False),
}
BC_CHOICES = tuple(bc for bc, rule in BC_RULES.items() if rule.far is not None)
MIN_INTERVALS = 64
# intervals of the periodic orbit's half period
ORBIT_INTERVALS = 1000
# the eps = 0 solves (the periodic orbit, the nonlinear eigenvalue): step in
# n between their Newton stages, and their Newton tolerance (the eigenvalue
# quotient's error is quadratic in the eigenvector's)
N_STAGE = 0.5
TOL = math.sqrt(np.finfo(float).eps)


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
    evaluate(F, a, b) returns the equation at every node 0..m and band(),
    which builds its Jacobian there from that evaluation's F'' (w), flux
    base eps^2 + w^2 and |F|^(p-1).  Pinned nodes are the caller's: a
    solve takes the rows and columns _free(bc) of both.
    """

    def __init__(self, mesh: Mesh, params: ProblemParams, bc: str):
        if mesh.m < MIN_INTERVALS:
            raise ValueError(f"mesh too coarse: {mesh.m} < {MIN_INTERVALS} intervals")
        self.h2, self.h4, self.two_h = mesh.h**2, mesh.h**4, 2.0 * mesh.h
        self.bt = _beta_tilde(params)
        self.bty = self.bt * mesh.nodes
        self.drift = self.bty / self.two_h
        self.n, self.p, self.eps2 = params.n, params.p, params.eps * params.eps
        self.bc, self.sign = bc, BC_RULES[bc].ghost_sign
        self.ext = np.empty(mesh.nodes.size + 4)

    def evaluate(self, values: np.ndarray, a: float = -1.0, b: float = 1.0):
        ext = _extended(values, self.bc, self.ext)
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

        def band():
            h4, drift, sign = self.h4, self.drift, self.sign
            gp = _flux_prime(w, base, self.n, self.eps2)       # nodes -1..m+1
            # row i couples to i-2 .. i+2 through gp at nodes i-1, i, i+1: the outer
            # diagonals read -gp_k / h^4, the inner 2 (gp_k + gp_k+1) / h^4 -+ drift
            outer = gp / -h4
            inner = 2.0 * (gp[:-1] + gp[1:]) / h4
            ab = np.zeros((7, fp.size), order="F")   # LAPACK's: no transposing copy
            ab[2, 2:] = ab[6, :-2] = outer[2:-2]
            ab[3, 1:] = inner[1:-1] - drift[:-1]
            ab[4] = (gp[:-2] + 4.0 * gp[1:-1] + gp[2:]) / -h4 + a + b * self.p * fp
            ab[5, :-1] = inner[1:-1] + drift[1:]

            # ghost folds: res_0 sees ghosts -1, -2 and res_1 ghost -1, all
            # with the ghost_sign; res_{m-1} sees ghost m+1, which is node
            # m-1, and res_m ghosts m+1, m+2, which are nodes m-1, m-2
            ab[3, 1] += sign * (inner[0] + drift[0])
            ab[2, 2] += sign * outer[0]
            ab[4, 1] += sign * outer[1]
            ab[4, -2] += outer[-2]
            ab[5, -2] += inner[-1] - drift[-1]
            ab[6, -3] += outer[-1]
            return ab

        return res, band


def _free(bc: str) -> slice:
    """The nodes that are Newton's unknowns: all but node 0 if the bc sets
    pin and node m if it sets far (half-period keeps every node).  Rows
    and columns alike, so band[:, _free(bc)] is the free block: LAPACK
    reads only the in-matrix part of a band."""
    rule = BC_RULES[bc]
    return slice(0 if rule.pin is None else 1, None if rule.far is None else -1)


def assemble_residual(profile: Profile) -> np.ndarray:
    """Residual of the regularized equation at every node 0..m.

    Slope conditions live in the ghost reflections, value conditions in
    the pinned nodes, which are no unknowns: a solve takes the rows
    _free(bc), and the rows of pinned nodes hold the equation there too.
    """
    return _Stencil(profile.mesh, profile.params, profile.bc).evaluate(profile.values)[0]


def residual_norm(profile: Profile) -> float:
    """Max-norm of the residual on the free nodes (_free), the rows solved."""
    return float(np.max(np.abs(assemble_residual(profile)[_free(profile.bc)])))


def assemble_jacobian(profile: Profile) -> np.ndarray:
    """Analytic Jacobian of assemble_residual in dgbtrf's band layout.

    Entry dres_i / dF_j sits in ab[4 + i - j, j] (kl = ku = 2); rows 0-1
    are zero, the LU's fill-in.  Ghost dependencies fold back into columns
    1, 2 (left, with the bc's ghost_sign) and m-1, m-2 (right).  Newton
    factors its free block, ab[:, _free(bc)].
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


def _bordered_solver(ab: np.ndarray, col: np.ndarray, row: np.ndarray,
                     corner: float = 0.0):
    """b -> z solving [[A, col], [row^T, corner]] z = b (None if A is singular)
    by block elimination on the banded LU (_banded_lu) of A, given in the
    layout of assemble_jacobian or as its free block (rows 0-1 the LU's
    fill-in), plus one step of iterative refinement on the bordered
    residual: accurate whenever the bordered matrix is well conditioned,
    even with A singular to roundoff (Govaerts & Pryce, BIT 30, 1990)."""
    solve_a = _banded_lu(ab)
    if solve_a is None:
        return None
    v = solve_a(col)

    def eliminate(b):
        u = solve_a(b[:-1])
        mu = (row @ u - b[-1]) / (row @ v - corner)
        return np.append(u - mu * v, mu)

    def solve(b):
        z = eliminate(b)
        az = dgbmv(col.size, col.size, 2, 2, 1.0, ab[2:], z[:-1]) + z[-1] * col
        return z + eliminate(b - np.append(az, row @ z[:-1] + corner * z[-1]))

    return solve


def _stages(n0: float, n: float) -> list:
    """Exponents n0, n0 + N_STAGE, ... below n, then n: one Newton stage
    each, warm-started from the last."""
    return [n0 + N_STAGE * k for k in range(math.ceil((n - n0) / N_STAGE))] + [n]


def _project_bc(values: np.ndarray, bc: str) -> np.ndarray:
    """A copy of values with the bc's pinned nodes set exactly."""
    pin = BC_RULES[bc].pin
    v = np.array(values, dtype=float)
    v[-1] = 0.0
    if pin is not None:
        v[0] = pin
    return v


def solve_profile(params: ProblemParams, guess: Profile,
                  opts: NewtonOptions = NewtonOptions()) -> Profile:
    """Profile by blowuplab.newton, one banded LU (_banded_lu) per iteration.

    The unknowns are the free nodes (_free) of one buffer whose pinned
    nodes hold the bc values exactly; residual and band come from one
    _Stencil evaluation per Newton point, restricted to them.  Corrections
    are scaled by max(|F_i|, opts.tol); newton_iters counts the LUs.
    Failure raises NewtonError with the last iterate, unconverged, and the
    LUs it made.
    """
    if params.eps == 0.0 and params.n > 0.0:
        raise ValueError("eps = 0 with n > 0: degenerate equation, Newton refused")
    mesh, bc = guess.mesh, guess.bc
    stencil, free = _Stencil(mesh, params, bc), _free(bc)
    values = _project_bc(guess.values, bc)

    def evaluate(x):
        values[free] = x
        res, band = stencil.evaluate(values)
        return res[free], lambda: _banded_lu(band()[:, free])

    def profile(x, **kw):
        res = evaluate(x)[0]
        return Profile(mesh, values.copy(), params, bc,
                       float(np.max(np.abs(res))), **kw)

    try:
        x, iters = newton.solve(evaluate, values[free], opts.tol, opts.tol,
                                opts.max_iters)
    except NewtonError as exc:
        last = profile(exc.best, newton_iters=exc.newton_iters)
        raise NewtonError(str(exc), last, exc.newton_iters) from None
    return profile(x, converged=True, newton_iters=iters)


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


# -- the periodic orbit of the autonomous regional equation -------------------


@dataclass(frozen=True)
class PeriodicOrbit:
    """Closed orbit of the autonomous p = n+1 equation about +-1; values is
    F on the half period, from F(0) = a to F(period/2), at uniform nodes."""

    a: float          # F at the start, the minimum for about=+1
    b: float          # F'' there
    period: float
    min_val: float    # the extremes of F, at the half period's ends
    max_val: float
    about: int
    values: np.ndarray = field(compare=False, repr=False)
    counts: dict = field(compare=False)  # lus: the LUs of every stage


def _energy_row(F0: float, w0: float, n: float) -> tuple:
    """H = (n+1)/(n+2) |w0|^(n+2) - F0^2/2 + |F0|^(n+2)/(n+2) and its
    partials in F0 and w0: the conserved first integral -w'F' + wF'' -
    |F''|^(n+2)/(n+2) - F^2/2 + |F|^(n+2)/(n+2), w = |F''|^n F'', where F'
    = F''' = 0, F = F0 and F'' = w0.  Orbits gluing onto compactly supported
    profiles share the level H = 0 of the interface state."""
    flux0 = abs(w0) ** n * w0
    return ((n + 1.0) / (n + 2.0) * flux0 * w0 - 0.5 * F0 * F0
            + abs(F0) ** (n + 2.0) / (n + 2.0),
            abs(F0) ** n * F0 - F0, (n + 1.0) * flux0)


def _orbit_system(n: float, m: int):
    """evaluate(x) for blowuplab.newton on the half period, x = (F_0..F_m, L).

    Rows 0..m are the equation at eps = 0, p = n+1, bc half-period, h = L/m;
    row m+1 is H = 0 at node 0 with F''_0 = 2(F_1 - F_0)/h^2.  The fourth-
    order part is homogeneous of degree -(2n+4) in h, so a stencil on unit
    spacing with zero-order coefficients (-c, c), c = h^(2n+4), gives c
    times the equation for every L, and the border column d/dL is closed
    form.  A damped trial at L <= 0 evaluates to NaN, failing Newton's test.
    """
    stencil = _Stencil(Mesh.uniform(0.0, m, m), ProblemParams(n, n + 1.0, 0.0),
                       "half-period")
    k = 2.0 * n + 4.0

    def evaluate(x):
        F, L = x[:-1], x[-1]
        if not L > 0.0:
            return np.full(x.size, math.nan), None
        h2, c = (L / m) ** 2, (L / m) ** k
        res, band = stencil.evaluate(F, -c, c)
        res /= c
        w0 = 2.0 * (F[1] - F[0]) / h2
        energy, dF0, dw0 = _energy_row(F[0], w0, n)

        def factor():
            ab = band()
            ab /= c
            row = np.zeros(F.size)
            row[0], row[1] = dF0 - 2.0 * dw0 / h2, 2.0 * dw0 / h2
            col = (k / -L) * (res - (np.abs(F) ** n - 1.0) * F)
            return _bordered_solver(ab, col, row, dw0 * -2.0 * w0 / L)

        return np.append(res, energy), factor

    return evaluate


def shoot_periodic_full(n: float, about: int, a_init: float) -> PeriodicOrbit:
    """Periodic orbit of the autonomous equation oscillating about +-1.

    The equation is reversible, so a solution on [0, L] with F' = F''' = 0
    at both ends closes into a periodic orbit by reflection: blowuplab.newton
    solves _orbit_system on ORBIT_INTERVALS to TOL, about +1 (the mirror is
    the orbit about -1).  The first stage starts from F = 1 - (1 - a + c)
    cos(pi s/L) + c cos(2 pi s/L) with a = |a_init|, L = pi n^(-1/4) and c
    such that H = 0 (the plain cosine, c = 0, puts its inflection on the
    middle node, where (n+1)|F''|^n vanishes, and fails at 2000 intervals);
    for n > N_STAGE the stages _stages(N_STAGE, n) follow, each from the
    last, then full Newton steps to the rounding floor.  F(0) = a and F(L)
    are the extremes.  A Newton failure raises RuntimeError naming its stage.
    """
    if about not in (1, -1):
        raise ValueError("about must be +1 or -1")
    if a_init == about:
        raise ValueError("a_init equals the equilibrium: constant orbit rejected")
    if not (0.0 < a_init * about < 1.0):
        raise ValueError("a_init must sit strictly between 0 and the equilibrium "
                         f"{about}; got {a_init}")
    if not (math.isfinite(n) and n > 0):
        raise ValueError("n must be finite and positive")

    m = ORBIT_INTERVALS
    stages = _stages(N_STAGE, n) if n > N_STAGE else [n]
    a, n0, L = a_init * about, stages[0], math.pi * stages[0] ** -0.25
    b = ((0.5 * a * a - a ** (n0 + 2.0) / (n0 + 2.0)) * (n0 + 2.0) / (n0 + 1.0)
         ) ** (1.0 / (n0 + 2.0))                      # F''(0) with H = 0
    c = (1.0 - a - b * (L / math.pi) ** 2) / 3.0
    theta = np.linspace(0.0, math.pi, m + 1)
    x = np.append(1.0 - (1.0 - a + c) * np.cos(theta) + c * np.cos(2.0 * theta), L)
    lus = 0
    for nk in stages:
        evaluate = _orbit_system(nk, m)
        try:
            x, iters = newton.solve(evaluate, x, 1.0, TOL, newton.MAX_ITERS)
        except NewtonError as exc:
            raise RuntimeError(f"periodic orbit, stage n = {nk:g}: {exc}") from None
        lus += iters
    # Newton converges with order 1 + n only, at the Hoelder point F'' = 0,
    # so a last correction within TOL can leave an error near TOL; the floor
    # is where a full step stops shrinking tenfold
    step = math.inf
    while True:
        polished, iters = newton.solve(evaluate, x, 1.0, TOL, 1)
        step, last = float(np.max(np.abs(polished - x))), step
        x, lus = polished, lus + iters
        if step > 0.1 * last:
            break
    F, L = about * x[:-1], float(x[-1])
    return PeriodicOrbit(a=float(F[0]), b=2.0 * float(F[1] - F[0]) / (L / m) ** 2,
                         period=2.0 * L, min_val=float(min(F[0], F[-1])),
                         max_val=float(max(F[0], F[-1])), about=about, values=F,
                         counts={"lus": lus})


def orbit_samples(orbit: PeriodicOrbit, ts) -> np.ndarray:
    """F at the times ts of the orbit, F(0) = a: the half period reflected
    and interpolated linearly between its nodes."""
    T = orbit.period
    s = np.mod(np.asarray(ts, dtype=float), T)
    return np.interp(np.minimum(s, T - s), np.linspace(0.0, 0.5 * T, orbit.values.size),
                     orbit.values)


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
