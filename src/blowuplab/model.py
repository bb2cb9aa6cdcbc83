"""Exponent pair, blow-up regime and closed forms shared by the solvers.

The underlying PDE is the fourth-order quasilinear diffusion equation with
source

    u_t = -(|u_xx|^n u_xx)_xx + |u|^(p-1) u,   n >= 0,  p >= 1,

whose finite-time blow-up is described by separable profiles

    u(x,t) = (T-t)^(-1/(p-1)) f(y),   y = x / (T-t)^beta,
    beta = (p-(n+1)) / (2(n+2)(p-1)).

This module holds the exponent pair (n, p) with its regularization eps,
the regime that the sign of p-(n+1) selects, the exponents of the
algebraic/stretched-exponential tail for p > n+1, and the P_k operator
coefficients used near interfaces.

Sign convention: ``beta`` carries a plus sign on p-(n+1), so beta > 0
for p > n+1 (single-point blow-up), beta = 0 at p = n+1 (regional) and
beta < 0 for p < n+1 (global).  All downstream formulas (tail rates,
linearized drift terms) assume this convention.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "ProblemParams",
    "regime",
    "tail_exponents",
    "pk_coefficients",
]

REGIONAL = "regional"
SINGLE_POINT = "single-point"
GLOBAL = "global"

#: tolerance for deciding p == n+1 in regime classification
_REGIME_ATOL = 1e-13


def regime(n: float, p: float) -> str:
    """Blow-up regime as a pure function of the exponent pair.

    regional iff p = n+1, single-point iff p > n+1, global iff 1 < p < n+1.
    """
    d = p - (n + 1.0)
    if abs(d) <= _REGIME_ATOL:
        return REGIONAL
    return SINGLE_POINT if d > 0 else GLOBAL


@dataclass(frozen=True)
class ProblemParams:
    """Exponent pair (n, p) plus the regularization magnitude eps.

    eps belongs to the problem, not the solver: a residual evaluated with
    eps > 0 unambiguously refers to the regularized equation, eps = 0 to
    the exact degenerate one.
    """

    n: float
    p: float
    eps: float = 1e-2

    def __post_init__(self):
        if not (math.isfinite(self.n) and self.n >= 0):
            raise ValueError(f"n must be finite and >= 0, got {self.n}")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"p must be finite and >= 1, got {self.p}")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")

    @property
    def regime(self) -> str:
        return regime(self.n, self.p)

    def with_eps(self, eps: float) -> "ProblemParams":
        return dataclasses.replace(self, eps=eps)

    def with_p(self, p: float) -> "ProblemParams":
        return dataclasses.replace(self, p=p)


def tail_exponents(params: ProblemParams, C0: float) -> tuple[float, float, float]:
    """Exponents of the non-compact tail f ~ C0 y^gamma + C1 exp(-b0 y^nu).

    Only the single-point regime p > n+1 has such tails.  The rate
    coefficient is

        b0 = (1/nu) * [beta * C0^(-n) / ((n+1) gamma^n (gamma-1)^n)]^(1/3),

    where gamma^n (gamma-1)^n is evaluated as (gamma(gamma-1))^n, positive
    since both factors are negative.  C0^(-n) is read with sign-preserving
    power semantics, so C0 < 0 makes the bracket negative and there is no
    real decay rate: that sign obstruction is reported as an error.
    """
    n, p = params.n, params.p
    if p <= n + 1.0:
        raise ValueError(f"tail exponents need p > n+1, got n={n}, p={p}")
    if C0 == 0.0:
        raise ValueError("C0 must be nonzero")
    excess = p - (n + 1.0)
    gamma = -2.0 * (n + 2.0) / excess
    nu = 2.0 * (n + 2.0) * (p - 1.0) / (3.0 * excess)
    beta = excess / (2.0 * (n + 2.0) * (p - 1.0))
    c0_pow = math.copysign(abs(C0) ** (-n), C0)
    bracket = beta * c0_pow / ((n + 1.0) * (gamma * (gamma - 1.0)) ** n)
    if bracket <= 0.0:
        raise ValueError(
            f"sign obstruction: bracket {bracket:g} <= 0 for C0={C0:g}; "
            "no real decay rate b0 on this tail branch"
        )
    b0 = bracket ** (1.0 / 3.0) / nu
    return gamma, nu, b0


# -- P_k operator algebra -------------------------------------------------
#
# P_0(phi) = phi,  P_{k+1}(phi) = P_k(phi)' + (mu - k) P_k(phi).
# These arise when f = y^mu phi(ln y) is substituted into the interface
# equations; P_k collects the coefficients of phi, phi', ..., phi^(k).


@lru_cache(maxsize=None)
def pk_coefficients(k: int, mu: float) -> tuple:
    """Coefficients (c_0, ..., c_k) with P_k(phi) = sum_j c_j phi^(j).

    Expanded from the recursion, never hand-copied: differentiating
    P_k = sum c_j phi^(j) shifts each coefficient up one slot, so

        c^{k+1}_j = c^k_{j-1} + (mu - k) c^k_j.

    Cached per (k, mu).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    coeffs = [1.0]
    for level in range(k):
        shifted = [0.0] + coeffs
        damped = [(mu - level) * c for c in coeffs] + [0.0]
        coeffs = [a + b for a, b in zip(shifted, damped)]
    return tuple(coeffs)
