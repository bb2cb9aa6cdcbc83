"""Fundamental kernel and spectral ladder of the rescaled biharmonic flow.

The linear flow u_t = -u_xxxx has the self-similar fundamental solution
b(x,t) = t^(-1/4) F(x/t^(1/4)), where the radial kernel F solves

    B F = -F'''' + (1/4) y F' + (1/4) F = 0,   int_R F dy = 1,

or, after one integration, -F''' + (1/4) y F = 0.  Its Fourier transform is
exactly exp(-k^4), so F(y) = (1/pi) int_0^inf exp(-k^4) cos(k y) dk, which
compute_kernel sums by the trapezoid rule with dk = pi/(2L) until
max(1, k^2) exp(-k^4) < eps.  F oscillates with the envelope
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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicHermiteSpline

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
MAX_RECURSION_DEPTH = 40
MAX_PAIRING = 8
#: pairing refinement: agreement of successive Simpson values, doubling cap
PAIRING_TOL = 1e-9
MAX_REFINE = 4


@dataclass(eq=False)
class KernelTable:
    """Kernel values and first two derivatives tabulated on [0, L].

    The even extension F(|y|) is the canonical object: evaluation at
    negative y uses parity, evaluation beyond L returns 0 (the envelope
    is below any tolerance of interest there).
    """

    nodes: np.ndarray
    F: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    normalization: float
    decay_fit: tuple  # (D, d) from ln|envelope| least squares
    _splines: tuple = field(default=None, repr=False)

    @property
    def L(self) -> float:
        return float(self.nodes[-1])

    def _interp(self):
        if self._splines is None:
            y = self.nodes
            F3 = 0.25 * y * self.F  # third derivative from the kernel ODE
            self._splines = (
                CubicHermiteSpline(y, self.F, self.F1),
                CubicHermiteSpline(y, self.F1, self.F2),
                CubicHermiteSpline(y, self.F2, F3),
            )
        return self._splines

    def jet(self, y):
        """(F, F', F'') at |y| with even-extension parity, 0 beyond L."""
        y = np.asarray(y, dtype=float)
        ay = np.abs(y)
        inside = ay <= self.L
        sF, sF1, sF2 = self._interp()
        yc = np.where(inside, ay, self.L)
        sgn = np.where(y < 0, -1.0, 1.0)
        F = np.where(inside, sF(yc), 0.0)
        F1 = np.where(inside, sF1(yc), 0.0) * sgn
        F2 = np.where(inside, sF2(yc), 0.0)
        return F, F1, F2


def compute_kernel(L: float = 15.0, N: int = 4000) -> KernelTable:
    """Tabulate (F, F', F'') on N+1 nodes of [0, L] from the Fourier integral.

    (F, F', F'') = (1/pi) int_0^inf exp(-k^4) (cos, -k sin, -k^2 cos)(k y) dk
    is summed by the trapezoid rule on k_j = j dk, dk = pi/(2L).  By Poisson
    summation its only error is the kernel's images 4L away, below roundoff
    on [0, L] for L >= 15.  The sum stops at the first k_j with
    max(1, k_j^2) exp(-k_j^4) < eps (k near 2.5, about 1.6 L terms).  The
    table is then rescaled so its Simpson quadrature is exactly normalized.
    """
    if L < 15.0:
        raise ValueError(f"L must be >= 15, got {L}")
    if N < 2000:
        raise ValueError(f"N must be >= 2000, got {N}")

    nodes = np.linspace(0.0, L, N + 1)
    dk = 0.5 * math.pi / L
    F, F1, F2 = np.zeros((3, nodes.size))
    for j in itertools.count():
        k = j * dk
        decay = math.exp(-k**4)
        if max(1.0, k * k) * decay < np.finfo(float).eps:
            break
        # one wavenumber at a time keeps memory O(N)
        w = (0.5 if j == 0 else 1.0) * dk * decay / math.pi
        c = np.cos(k * nodes)
        F += w * c
        F1 -= w * k * np.sin(k * nodes)
        F2 -= w * k * k * c

    scale = 0.5 / simpson(F, x=nodes)
    F, F1, F2 = scale * F, scale * F1, scale * F2
    table = KernelTable(nodes, F, F1, F2,
                        normalization=2.0 * simpson(F, x=nodes),
                        decay_fit=(math.nan, math.nan))
    table.decay_fit = _fit_decay(table)
    return table


def _fit_decay(table: KernelTable) -> tuple:
    """Least-squares fit of ln|F| at envelope peaks against y^(4/3)."""
    F, y = table.F, table.nodes
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
    """F^(k)(y) from the stored jet via the exact three-term recursion.

    Differentiating -F''' + (1/4) y F = 0 gives
    F^(k+3) = (1/4) (y F^(k) + k F^(k-1)), so no numerical differentiation
    happens beyond the stored (F, F', F'').  Negative y goes through the
    even-extension parity (-1)^k.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    if k > MAX_RECURSION_DEPTH:
        raise ValueError(f"recursion depth {k} exceeds {MAX_RECURSION_DEPTH}: "
                         "accuracy loss")
    scalar = np.isscalar(y)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    ay = np.abs(y_arr)
    F, F1, F2 = table.jet(ay)
    derivs = [F, F1, F2]
    for j in range(3, k + 1):
        # F^(j) = (1/4) (y F^(j-3) + (j-3) F^(j-4))
        prev = derivs[j - 4] if j >= 4 else np.zeros_like(F)
        derivs.append(0.25 * (ay * derivs[j - 3] + (j - 3) * prev))
    out = derivs[k]
    if k % 2 == 1:
        out = out * np.where(y_arr < 0, -1.0, 1.0)
    return float(out[0]) if scalar else out


def eigenfunction(table: KernelTable, l: int, y):
    """psi_l(y) = (-1)^l F^(l)(y) / sqrt(l!)."""
    if not 0 <= l <= MAX_LADDER:
        raise ValueError(f"eigenfunction index must lie in [0, {MAX_LADDER}]")
    return (-1.0) ** l / math.sqrt(math.factorial(l)) * kernel_derivative(table, l, y)


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
    [0, L]; the sample count doubles until two successive Simpson values
    agree to PAIRING_TOL, else MAX_REFINE doublings report it as stalled.
    """
    if not (0 <= l <= MAX_PAIRING and 0 <= k <= MAX_PAIRING):
        raise ValueError(f"pairing indices must lie in [0, {MAX_PAIRING}]")
    if (l + k) % 2 == 1:
        return 0.0
    poly = adjoint_eigenfunction(k)

    def integral(num):
        y = np.linspace(0.0, table.L, num + 1)
        vals = eigenfunction(table, l, y) * poly(y)
        return 2.0 * simpson(vals, x=y)

    num = max(2048, 2 * ((table.nodes.size - 1) // 2))
    prev = integral(num)
    for _ in range(MAX_REFINE):
        num *= 2
        cur = integral(num)
        if abs(cur - prev) <= PAIRING_TOL:
            return float(cur)
        prev = cur
    raise RuntimeError(f"pairing quadrature stalled for (l, k) = ({l}, {k})")


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
