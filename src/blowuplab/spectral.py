"""Fundamental kernel and spectral ladder of the rescaled biharmonic flow.

The linear flow u_t = -u_xxxx has the self-similar fundamental solution
b(x,t) = t^(-1/4) F(x/t^(1/4)), where the radial kernel F solves

    B F = -F'''' + (1/4) y F' + (1/4) F = 0,   int_R F dy = 1,

or, after one integration, -F''' + (1/4) y F = 0.  Its Fourier transform is
exactly exp(-k^4), so every derivative is one Fourier integral,

    F^(l)(y) = (1/pi) int_0^inf exp(-k^4) k^l cos(k y + l pi/2) dk,

and one trapezoid sum evaluates it for every order l = 0..MAX_LADDER:
compute_kernel tabulates the whole ladder on [0, L], and off-node values
come from the same sum at signed y.  F oscillates with the envelope
D exp(-d |y|^(4/3)), d = 3 * 2^(-11/3).  The operator B has the point
spectrum lambda_l = -l/4 with eigenfunctions psi_l = (-1)^l F^(l) / sqrt(l!);
the adjoint B* = -D^4 - (1/4) y D has degree-l polynomial eigenfunctions
psi*_l, bi-orthogonal to the psi_l.  Together they generate the countable
family of linear decay patterns u_l(x,t) = e^(-t) t^(-(1+l)/4)
psi_l(x / t^(1/4)), the n -> 0, p -> 1 anchor for the nonlinear profiles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import simpson

__all__ = [
    "KernelTable",
    "AdjointPolynomial",
    "DECAY_RATE",
    "compute_kernel",
    "kernel_derivative",
    "eigenfunction",
    "adjoint_eigenfunction",
    "adjoint_apply",
    "pairing",
    "linear_pattern",
]

#: exact envelope decay rate d = 3 * 2^(-11/3)
DECAY_RATE = 3.0 * 2.0 ** (-11.0 / 3.0)

MAX_LADDER = 12
MAX_PAIRING = 8


@dataclass(frozen=True, eq=False)
class KernelTable:
    """The derivative ladder F^(l), l = 0..MAX_LADDER, tabulated on [0, L].

    ladder[l] holds F^(l) on the nodes; F, F1 and F2 are its rows 0-2.
    scale is the normalization rescale of the raw Fourier sums, which
    off-node evaluation applies as well.
    """

    nodes: np.ndarray
    ladder: np.ndarray
    scale: float
    normalization: float
    decay_fit: tuple  # (D, d) from ln|envelope| least squares

    @property
    def L(self) -> float:
        return float(self.nodes[-1])

    @property
    def F(self) -> np.ndarray:
        return self.ladder[0]

    @property
    def F1(self) -> np.ndarray:
        return self.ladder[1]

    @property
    def F2(self) -> np.ndarray:
        return self.ladder[2]


def _fourier_sum(L: float, y: np.ndarray, orders) -> np.ndarray:
    """Trapezoid sums of (1/pi) int_0^inf exp(-k^4) k^l cos(k y + l pi/2) dk.

    One row per order l, summed on k_j = j dk, dk = pi/(2L).  By Poisson
    summation the only error is the kernel's images 4L away, below roundoff
    on [-L, L] for L >= 15.  The sum stops at the first k_j with
    max(1, k_j^MAX_LADDER) exp(-k_j^4) < eps (k near 2.6), where every
    order of the ladder has converged.
    """
    dk = 0.5 * math.pi / L
    out = np.zeros((len(orders), y.size))
    for j in itertools.count():
        k = j * dk
        decay = math.exp(-k**4)
        if max(1.0, k**MAX_LADDER) * decay < np.finfo(float).eps:
            return out
        # one wavenumber at a time keeps memory O(len(orders) * y.size)
        w = (0.5 if j == 0 else 1.0) * dk * decay / math.pi
        trig = (np.cos(k * y), np.sin(k * y))
        for row, l in zip(out, orders):
            # cos(x + l pi/2) is cos x, -sin x, -cos x, sin x for l mod 4
            row += ((1.0, -1.0, -1.0, 1.0)[l % 4] * w * k**l) * trig[l % 2]


def compute_kernel(L: float = 15.0, N: int = 4000) -> KernelTable:
    """Tabulate the ladder F^(l), l = 0..MAX_LADDER, on N+1 nodes of [0, L].

    Every row is the trapezoid sum of its Fourier integral (_fourier_sum,
    about 1.7 L wavenumbers).  One rescale, chosen so that the Simpson
    quadrature of F is exactly normalized, applies to every row.
    """
    if L < 15.0:
        raise ValueError(f"L must be >= 15, got {L}")
    if N < 2000:
        raise ValueError(f"N must be >= 2000, got {N}")

    nodes = np.linspace(0.0, L, N + 1)
    ladder = _fourier_sum(L, nodes, range(MAX_LADDER + 1))
    scale = 0.5 / simpson(ladder[0], x=nodes)
    ladder *= scale
    return KernelTable(nodes, ladder, scale,
                       normalization=2.0 * simpson(ladder[0], x=nodes),
                       decay_fit=_fit_decay(nodes, ladder[0]))


def _fit_decay(y: np.ndarray, F: np.ndarray) -> tuple:
    """Least-squares fit of ln|F| at envelope peaks against y^(4/3)."""
    sign_changes = np.nonzero(F[:-1] * F[1:] < 0)[0]
    if sign_changes.size == 0:
        raise RuntimeError("kernel has no zeros on the table: cannot fit decay")
    start = sign_changes[0] + 1
    absF = np.abs(F)
    peaks = [i for i in range(max(start, 1), F.size - 1)
             if absF[i] >= absF[i - 1] and absF[i] >= absF[i + 1]
             and absF[i] > 1e-13]
    if len(peaks) < 2:
        raise RuntimeError("too few envelope peaks for a decay fit")
    xs = y[peaks] ** (4.0 / 3.0)
    ys = np.log(absF[peaks])
    slope, intercept = np.polyfit(xs, ys, 1)
    return (float(np.exp(intercept)), float(-slope))


def kernel_derivative(table: KernelTable, k: int, y):
    """F^(k)(y) for k = 0..MAX_LADDER, and 0 beyond |y| = L.

    The table's Fourier sum is evaluated at the signed y and multiplied by
    the table's scale, so the parity (-1)^k follows from the phase.  Beyond
    L the envelope is below any tolerance of interest.
    """
    if not 0 <= k <= MAX_LADDER:
        raise ValueError(f"derivative order {k} must lie in [0, {MAX_LADDER}]")
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    out = table.scale * _fourier_sum(table.L, y_arr, (k,))[0]
    out = np.where(np.abs(y_arr) <= table.L, out, 0.0)
    return float(out[0]) if np.isscalar(y) else out


def _psi_factor(l: int) -> float:
    """(-1)^l / sqrt(l!), the factor from F^(l) to psi_l."""
    return (-1.0) ** l / math.sqrt(math.factorial(l))


def eigenfunction(table: KernelTable, l: int, y):
    """psi_l(y) = (-1)^l F^(l)(y) / sqrt(l!), for l = 0..MAX_LADDER."""
    return _psi_factor(l) * kernel_derivative(table, l, y)


@dataclass(frozen=True)
class AdjointPolynomial:
    """Degree-l polynomial eigenfunction of B* = -D^4 - (1/4) y D.

    rational holds the exact coefficients of sqrt(l!) * psi*_l (ascending
    degree); coeffs is the floating normalized version.
    """

    l: int
    rational: tuple
    coeffs: np.ndarray

    def __call__(self, y):
        return np.polynomial.polynomial.polyval(np.asarray(y, dtype=float),
                                                self.coeffs)


def adjoint_eigenfunction(l: int) -> AdjointPolynomial:
    """psi*_l = (1/sqrt(l!)) sum_{j=0}^{floor(l/4)} D^(4j) y^l / j!  (exact)."""
    if not 0 <= l <= MAX_LADDER:
        raise ValueError(f"adjoint index must lie in [0, {MAX_LADDER}]")
    rational = [Fraction(0)] * (l + 1)
    for j in range(l // 4 + 1):
        deg = l - 4 * j
        rational[deg] += Fraction(math.factorial(l),
                                  math.factorial(deg) * math.factorial(j))
    norm = 1.0 / math.sqrt(math.factorial(l))
    coeffs = np.array([float(c) for c in rational]) * norm
    return AdjointPolynomial(l=l, rational=tuple(rational), coeffs=coeffs)


def adjoint_apply(rational) -> tuple:
    """Apply B* = -D^4 - (1/4) y D to a polynomial, exactly in rationals.

    Input and output are ascending coefficient tuples of Fractions; used to
    check B* psi*_l = -(l/4) psi*_l as a polynomial identity.
    """
    c = [Fraction(x) for x in rational]

    def deriv(a):
        return [Fraction(k) * a[k] for k in range(1, len(a))] or [Fraction(0)]

    d4 = c
    for _ in range(4):
        d4 = deriv(d4)
    d1 = deriv(c)
    y_d1 = [Fraction(0)] + d1  # multiply by y
    out = [Fraction(0)] * len(c)
    for k in range(len(c)):
        v = Fraction(0)
        if k < len(d4):
            v -= d4[k]
        if k < len(y_d1):
            v -= Fraction(1, 4) * y_d1[k]
        out[k] = v
    return tuple(out)


def pairing(table: KernelTable, l: int, k: int) -> float:
    """Duality pairing <psi_l, psi*_k> over [-L, L] by composite Simpson.

    Odd l + k vanishes exactly by parity.  Even integrands are folded onto
    [0, L] and summed on the table nodes over the stored row F^(l).
    """
    if not (0 <= l <= MAX_PAIRING and 0 <= k <= MAX_PAIRING):
        raise ValueError(f"pairing indices must lie in [0, {MAX_PAIRING}]")
    if (l + k) % 2 == 1:
        return 0.0
    y = table.nodes
    vals = _psi_factor(l) * table.ladder[l] * adjoint_eigenfunction(k)(y)
    return float(2.0 * simpson(vals, x=y))


def linear_pattern(table: KernelTable, l: int, x, t, fundamental: bool = False):
    """Decay pattern u_l(x,t) = e^(-t) t^(-(1+l)/4) psi_l(x / t^(1/4)).

    With fundamental=True the e^(-t) factor is dropped; at l = 0 that is
    exactly the fundamental solution b(x, t) of the pure biharmonic flow.
    """
    t = float(t)
    if t <= 0.0:
        raise ValueError("t must be positive")
    xi = np.asarray(x, dtype=float) / t**0.25
    out = t ** (-(1.0 + l) / 4.0) * eigenfunction(table, l, xi)
    if not fundamental:
        out = out * math.exp(-t)
    return float(out) if np.isscalar(x) else out
