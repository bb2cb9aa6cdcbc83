"""Energy functional, fibering reduction, and first nonlinear eigenvalue.

The autonomous regional equation is the Euler-Lagrange equation of

    E(F) = -1/(n+2) int |F''|^(n+2) - 1/2 int F^2 + 1/(n+2) int |F|^(n+2),

evaluated here with the same second-difference stencil as the BVP solver
and a trapezoid quadrature, so that the discrete gradient of E matches
the eps = 0 discrete residual on interior nodes.

The spherical fibering writes F = r v with v on the constraint set
H_0(v) = -int |v''|^(n+2) + int |v|^(n+2) = 1; minimizing E(r v) over
r > 0 has the closed form r_0(v) = (int v^2)^(1/n) with
H(r_0, v) = -n/(2(n+2)) r_0^(n+2); the reduced functional is int v^2.

The count of critical points on an interval (-R, R) is governed by the
nonlinear eigenvalues of -(|psi''|^n psi'')'' + lambda |psi|^n psi = 0
under clamped conditions; the first one is the minimum of the Rayleigh
quotient int |psi''|^(n+2) / int |psi|^(n+2) and obeys the interval
scaling lambda_k(R) = R^(-4-2n) lambda_k(1).  It is computed by
blowuplab.newton on the discrete Euler-Lagrange system, continued in n,
its pentadiagonal block on a banded LU and its border by block elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from . import bvp, model, newton
from .bvp import Profile

__all__ = [
    "EnergyReport",
    "FiberReport",
    "energy",
    "energy_gradient_pairing",
    "fiber_reduce",
    "fiber_h",
    "first_nonlinear_eigenvalue",
    "count_eigenvalues_below_one",
]

# first_nonlinear_eigenvalue: step in n between Newton stages, and the
# Newton tolerance (the quotient's error is quadratic in the eigenvector's)
N_STAGE = 0.5
TOL = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class EnergyReport:
    bending: float   # -1/(n+2) int |F''|^(n+2)
    mass: float      # -1/2 int F^2
    source: float    # +1/(n+2) int |F|^(n+2)
    total: float


def _require_regional(params):
    if params.regime != model.REGIONAL:
        raise ValueError(
            f"variational machinery needs p = n+1, got n={params.n}, p={params.p}")


def _second_difference(profile: Profile) -> np.ndarray:
    """F'' at every node with the solver's ghost conventions."""
    h = profile.mesh.h
    ext = bvp._extended(profile.values, profile.bc)
    w = (ext[:-2] - 2.0 * ext[1:-1] + ext[2:]) / h**2
    return w[1:-1]


def _trapz(values: np.ndarray, h: float) -> float:
    return float(h * (np.sum(values) - 0.5 * (values[0] + values[-1])))


def energy(profile: Profile) -> EnergyReport:
    """Quadrature of the three energy integrals of a regional profile.

    Half-domain profiles are integrated on their even/odd extension so
    the report always refers to the full interval.
    """
    _require_regional(profile.params)
    prof = profile.full_extension()
    n = prof.params.n
    h = prof.mesh.h
    w = _second_difference(prof)
    F = prof.values
    bending = -_trapz(np.abs(w) ** (n + 2.0), h) / (n + 2.0)
    mass = -0.5 * _trapz(F * F, h)
    source = _trapz(np.abs(F) ** (n + 2.0), h) / (n + 2.0)
    return EnergyReport(bending=bending, mass=mass, source=source,
                        total=bending + mass + source)


def energy_gradient_pairing(profile: Profile, perturbation: np.ndarray) -> tuple[float, float]:
    """Directional derivative of E against the residual pairing.

    Returns (dE, pairing) where dE is the central finite difference of
    the energy along the perturbation and pairing is the trapezoid inner
    product of the eps = 0 discrete residual with the perturbation.  The
    two agree (to quadrature and differencing error) because the equation
    is the Euler-Lagrange equation of E.
    """
    _require_regional(profile.params)
    prof = profile.full_extension()
    delta = np.asarray(perturbation, dtype=float)
    if delta.shape != prof.values.shape:
        raise ValueError("perturbation must match the (extended) profile shape")
    # |w|^(n+2) is only C^(1+n) in w, so the central-difference error decays
    # like t^(1+n): the step must be small
    t = 1e-8 / max(1.0, float(np.max(np.abs(delta))))
    e_plus = energy(prof.replace(values=prof.values + t * delta)).total
    e_minus = energy(prof.replace(values=prof.values - t * delta)).total
    d_energy = (e_plus - e_minus) / (2.0 * t)
    exact = prof.replace(params=prof.params.with_eps(0.0))
    res = bvp.assemble_residual(exact)
    pairing = _trapz(res * delta, prof.mesh.h)
    return d_energy, pairing


@dataclass(frozen=True)
class FiberReport:
    h0: float            # constraint functional H_0(v)
    on_constraint: bool  # |H_0 - 1| <= 1e-6
    r0: float            # (int v^2)^(1/n)
    h_at_r0: float       # -n/(2(n+2)) r0^(n+2)
    h_tilde: float       # int v^2


def fiber_reduce(v: Profile) -> FiberReport:
    """Spherical-fibering data of a candidate constraint function."""
    _require_regional(v.params)
    prof = v.full_extension()
    n = prof.params.n
    h = prof.mesh.h
    w = _second_difference(prof)
    vals = prof.values
    if np.max(np.abs(vals)) == 0.0:
        raise ValueError("fibering needs a nontrivial v")
    h0 = -_trapz(np.abs(w) ** (n + 2.0), h) + _trapz(np.abs(vals) ** (n + 2.0), h)
    h_tilde = _trapz(vals * vals, h)
    r0 = h_tilde ** (1.0 / n)
    h_at_r0 = -n / (2.0 * (n + 2.0)) * r0 ** (n + 2.0)
    return FiberReport(h0=h0, on_constraint=abs(h0 - 1.0) <= 1e-6,
                       r0=r0, h_at_r0=h_at_r0, h_tilde=h_tilde)


def fiber_h(r: float, v: Profile) -> float:
    """H(r, v) = r^(n+2)/(n+2) - r^2/2 int v^2 for admissible v."""
    _require_regional(v.params)
    prof = v.full_extension()
    n = prof.params.n
    h_tilde = _trapz(prof.values * prof.values, prof.mesh.h)
    return r ** (n + 2.0) / (n + 2.0) - 0.5 * r * r * h_tilde


# -- first nonlinear eigenvalue ---------------------------------------------


def _curvature(x: np.ndarray, h: float) -> np.ndarray:
    """W x: psi'' at all m+1 nodes from psi_1..psi_{m-1}, the clamped ends
    entering as zero end nodes and ghost reflections (w_0 = 2 psi_1 / h^2)."""
    ext = np.concatenate(([x[0], 0.0], x, [0.0, x[-1]]))
    return (ext[:-2] - 2.0 * ext[1:-1] + ext[2:]) / (h * h)


def _curvature_adjoint(y: np.ndarray, h: float) -> np.ndarray:
    """W^T y: the second difference of y e, e = (2, 1, ..., 1, 2), inside."""
    ye = np.concatenate(([2.0 * y[0]], y[1:-1], [2.0 * y[-1]]))
    return (ye[:-2] - 2.0 * ye[1:-1] + ye[2:]) / (h * h)


def _block_band(d, cx, lam: float, nk: float, h: float) -> np.ndarray:
    """(nk+1)(W^T diag(d) W - lam diag(cx)) in dgbtrf's layout (kl = ku = 2):
    row 4 + i - j holds entry (i, j), rows 0-1 are the LU's fill-in.  Row j
    of W^T diag(d) W is (d_{j-1}, -2(d_{j-1} + d_j), d~_{j-1} + 4 d_j +
    d~_{j+1}, -2(d_j + d_{j+1}), d_{j+1}) / h^4, with d~ = d e^2."""
    s = (nk + 1.0) / h**4
    dt = np.concatenate(([4.0 * d[0]], d[1:-1], [4.0 * d[-1]]))
    ab = np.zeros((7, cx.size))
    ab[4] = s * (dt[:-2] + 4.0 * d[1:-1] + dt[2:]) - (nk + 1.0) * lam * cx
    ab[3, 1:] = ab[5, :-1] = -2.0 * s * (d[1:-2] + d[2:-1])
    ab[2, 2:] = ab[6, :-2] = s * d[2:-2]
    return ab


def _bordered_solver(ab: np.ndarray, col: np.ndarray, row: np.ndarray):
    """b -> z solving [[A, col], [row^T, 0]] z = b (None if dgbtrf finds A
    singular) by block elimination on the banded LU of A, laid out as by
    _block_band, plus one step of iterative refinement on the bordered
    residual: accurate whenever the bordered matrix is well conditioned,
    even with A singular to roundoff (Govaerts & Pryce, BIT 30, 1990)."""
    lu, piv, info = dgbtrf(ab, 2, 2)
    if info > 0:
        return None
    v = dgbtrs(lu, 2, 2, col, piv)[0]

    def eliminate(b):
        u = dgbtrs(lu, 2, 2, b[:-1], piv)[0]
        mu = (row @ u - b[-1]) / (row @ v)
        return np.append(u - mu * v, mu)

    def solve(b):
        z = eliminate(b)
        az = dgbmv(col.size, col.size, 2, 2, 1.0, ab[2:], z[:-1]) + z[-1] * col
        return z + eliminate(b - np.append(az, row @ z[:-1]))

    return solve


def first_nonlinear_eigenvalue(n: float, R: float, m: int = 400) -> float:
    """Minimum of the clamped Rayleigh quotient on (-R, R).

    The minimizer solves the discrete Euler-Lagrange system

        W^T (c phi(W x)) - lambda c_int phi(x) = 0,   phi(s) = |s|^n s,

    bordered by <x0, x> = <x0, x0>, with x0 the clamped bump.  Each
    blowuplab.newton step solves the bordered system by _bordered_solver
    (the block alone is singular: J x = 0 by homogeneity).  The linear
    eigenvector lies outside the basin for n >= 2.5 on fine meshes, so
    Newton runs in stages n_k = 0, N_STAGE, 2 N_STAGE, ..., n, each from
    the last; the first is the linear pencil W^T C W x = lambda C_int x.
    The quotient of the final x is stationary there, so exact to rounding.
    A Newton failure raises RuntimeError with the quotient of the last
    iterate.
    """
    if n < 0 or R <= 0:
        raise ValueError("need n >= 0 and R > 0")
    if m < 64:
        raise ValueError("mesh too coarse")
    h = 2.0 * R / m
    # trapezoid weights on the full node set
    c = np.full(m + 1, h)
    c[[0, -1]] *= 0.5
    c_int = c[1:-1]

    def quotient(x, nk):
        return float(np.sum(c * np.abs(_curvature(x, h)) ** (nk + 2.0))
                     / np.sum(c_int * np.abs(x) ** (nk + 2.0)))

    # unknowns (x, lambda), from the clamped bump (1 - (y/R)^2)^2 of order one
    x0 = (1.0 - np.linspace(-1.0, 1.0, m + 1)[1:-1] ** 2) ** 2
    z = np.append(x0, quotient(x0, 0.0))
    z_scale = np.append(np.ones(m - 1), z[-1])

    for nk in [N_STAGE * k for k in range(math.ceil(n / N_STAGE))] + [n]:
        def residual(z):
            x, lam = z[:-1], z[-1]
            w = _curvature(x, h)
            return np.append(_curvature_adjoint(c * np.abs(w) ** nk * w, h)
                             - lam * c_int * np.abs(x) ** nk * x, x0 @ (x - x0))

        def factor(z, _r):
            x, lam = z[:-1], z[-1]
            cx = c_int * np.abs(x) ** nk
            ab = _block_band(c * np.abs(_curvature(x, h)) ** nk, cx, lam, nk, h)
            return _bordered_solver(ab, -(cx * x), x0)

        try:
            z, _ = newton.solve(residual, factor, z, z_scale, TOL, newton.MAX_ITERS)
        except newton.NewtonError as exc:
            raise RuntimeError(f"{exc} (stage n = {nk:g}); last quotient "
                               f"{quotient(exc.best[:-1], nk):.6g}") from None
    return quotient(z[:-1], n)


def count_eigenvalues_below_one(n: float, R: float, lambda1_unit: float = None,
                                m: int = 400) -> int:
    """Crude count of nonlinear eigenvalues below 1 on (-R, R).

    Uses the interval scaling law lambda_k(R) = R^(-4-2n) lambda_k(1)
    together with the gluing heuristic lambda_k(1) ~ k^(4+2n) lambda_1(1)
    (the k-th eigenfunction behaves like k copies of the first on
    subintervals of length 1/k).  Grows with R; an estimate, not a
    computation of higher eigenvalues.
    """
    if lambda1_unit is None:
        lambda1_unit = first_nonlinear_eigenvalue(n, 1.0, m)
    power = 4.0 + 2.0 * n
    return max(0, int(math.floor(R / lambda1_unit ** (1.0 / power))))
