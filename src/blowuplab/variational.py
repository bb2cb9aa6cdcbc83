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
blowuplab.newton on the discrete Euler-Lagrange system, which is the
profile solver's stencil (bvp._Stencil) at eps = 0 and p = n+1 with the
zero-order coefficients (0, lambda) in place of the profiles' (-1, 1):
continued in n, the stencil's band on a banded LU and the border by block
elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bvp, model, newton
from .bvp import Profile

__all__ = [
    "EnergyReport",
    "FiberReport",
    "energy",
    "energy_gradient_pairing",
    "fiber_reduce",
    "first_nonlinear_eigenvalue",
]


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


def _second_difference(values: np.ndarray, bc: str, h: float) -> np.ndarray:
    """F'' at every node with the solver's ghost conventions."""
    return bvp._d2(bvp._extended(values, bc), h**2)[1:-1]


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
    F = prof.values
    w = _second_difference(F, prof.bc, h)
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
    r0: float            # (int v^2)^(1/n)
    h_tilde: float       # int v^2


def fiber_reduce(v: Profile) -> FiberReport:
    """Spherical-fibering data of a candidate constraint function, from its
    energy integrals: H_0 = (n+2)(bending + source), int v^2 = -2 mass."""
    rep = energy(v)
    n = v.params.n
    if n <= 0.0:
        raise ValueError("fibering needs n > 0")
    if np.max(np.abs(v.values)) == 0.0:
        raise ValueError("fibering needs a nontrivial v")
    h_tilde = -2.0 * rep.mass
    return FiberReport(h0=(n + 2.0) * (rep.bending + rep.source),
                       r0=h_tilde ** (1.0 / n), h_tilde=h_tilde)


# -- first nonlinear eigenvalue ---------------------------------------------


def first_nonlinear_eigenvalue(n: float, R: float, m: int = 400) -> float:
    """Minimum of the clamped Rayleigh quotient on (-R, R).

    The minimizer solves the discrete Euler-Lagrange system, the profile
    stencil (bvp._Stencil) on Mesh.uniform(-R, R, m) with the clamped ends
    of bc dirichlet-far, eps = 0, p = n+1 and zero-order coefficients
    (a, b) = (0, lambda):

        -(|F''|^n F'')'' + lambda |F|^n F = 0   at nodes 1..m-1,

    in the unknowns x = F_1..F_(m-1) and lambda, bordered by <x0, x> =
    <x0, x0>, with x0 the clamped bump.  One stencil evaluation per
    blowuplab.newton point gives the residual and the factor: the bordered
    system's bvp._bordered_solver on that point's band without its two pinned
    end rows and columns, with border column |x|^n x (the block alone is
    singular: J x = 0 by homogeneity).  The linear eigenvector lies outside
    the basin for n >= 2.5 on fine meshes, so Newton runs in the stages
    n_k = 0, bvp.N_STAGE, 2 bvp.N_STAGE, ..., n of bvp._stages, each from
    the last; the first is the linear pencil.  The quotient of the final x
    is stationary there, so exact to rounding.  A Newton failure raises
    RuntimeError with the quotient of the last iterate.
    """
    if not (math.isfinite(n) and math.isfinite(R) and n >= 0 and R > 0):
        raise ValueError("need finite n >= 0 and R > 0")
    mesh, h = bvp.Mesh.uniform(-R, R, m), 2.0 * R / m
    # built before any use of the mesh: a stencil refuses one too coarse
    stencils = [bvp._Stencil(mesh, model.ProblemParams(nk, nk + 1.0, 0.0), "dirichlet-far")
                for nk in bvp._stages(0.0, n)]
    # trapezoid weights on the full node set
    c = np.full(m + 1, h)
    c[[0, -1]] *= 0.5

    def nodes(z):  # F = (0, x, 0) of z = (x, lambda)
        return np.concatenate(([0.0], z[:-1], [0.0]))

    def quotient(z, nk):
        F = nodes(z)
        w = _second_difference(F, "dirichlet-far", h)
        return float(np.sum(c * np.abs(w) ** (nk + 2.0))
                     / np.sum(c[1:-1] * np.abs(F[1:-1]) ** (nk + 2.0)))

    # unknowns (x, lambda), from the clamped bump (1 - (y/R)^2)^2 of order one
    x0 = (1.0 - np.linspace(-1.0, 1.0, m + 1)[1:-1] ** 2) ** 2
    z = np.append(x0, quotient(np.append(x0, 0.0), 0.0))
    z_scale = np.append(np.ones(m - 1), z[-1])

    for stencil in stencils:
        nk = stencil.n

        def evaluate(z):
            x = z[:-1]
            res, band = stencil.evaluate(nodes(z), 0.0, z[-1])
            return np.append(res[1:-1], x0 @ (x - x0)), lambda: bvp._bordered_solver(
                band()[:, 1:-1], np.abs(x) ** (stencil.p - 1.0) * x, x0)

        try:
            z, _ = newton.solve(evaluate, z, z_scale, bvp.TOL, newton.MAX_ITERS)
        except newton.NewtonError as exc:
            raise RuntimeError(f"{exc} (stage n = {nk:g}); last quotient "
                               f"{quotient(exc.best, nk):.6g}") from None
    return quotient(z, n)
