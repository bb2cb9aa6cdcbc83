"""Fundamental kernel and spectral ladder of the rescaled biharmonic flow.

The linear flow u_t = -u_xxxx has the self-similar fundamental solution
b(x,t) = t^(-1/4) F(x/t^(1/4)), where the radial kernel F solves

    B F = -F'''' + (1/4) y F' + (1/4) F = 0,   int_R F dy = 1,

or, after one integration, -F''' + (1/4) y F = 0.  Its Fourier transform is
exactly exp(-k^4), so every derivative is one Fourier integral,

    F^(l)(y) = (1/pi) int_0^inf exp(-k^4) k^l cos(k y + l pi/2) dk,

and one trapezoid sum evaluates it for every order l = 0..MAX_LADDER.
compute_kernel tabulates the whole ladder on [0, L], where the sum on the
N+1 nodes is a real FFT of length 4N; off-node values come from the same
sum, summed directly at signed y.  Simpson weights, with Cartwright's last
interval for odd N, integrate over the nodes.  F oscillates with the envelope
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
]

#: exact envelope decay rate d = 3 * 2^(-11/3)
DECAY_RATE = 3.0 * 2.0 ** (-11.0 / 3.0)

MAX_LADDER = 12
MAX_PAIRING = 8


@dataclass(frozen=True, eq=False)
class KernelTable:
    """The derivative ladder F^(l), l = 0..MAX_LADDER, tabulated on [0, L].

    ladder[l] holds F^(l) on the nodes, and nodes[-1] is L.  scale is the
    normalization rescale of the raw Fourier sums, which off-node
    evaluation applies as well.
    """

    nodes: np.ndarray
    ladder: np.ndarray
    scale: float
    normalization: float
    decay_fit: tuple  # (D, d) from ln|envelope| least squares


def _weights(L: float) -> tuple:
    """Wavenumbers k_j = j pi/(2L) and the trapezoid weights a[l, j] of every
    order: F^(l)(y) = sum_j a[l, j] cos(k_j y) (l even) or sin (l odd), where
    a[l, j] = s_l w_j k_j^l exp(-k_j^4) / pi and s_l = (1, -1, -1, 1)[l % 4].

    By Poisson summation the only error is the kernel's images 4L away,
    below roundoff on [-L, L] for L >= 15.  The sum stops at the first k_j
    with max(1, k_j^MAX_LADDER) exp(-k_j^4) < eps (k near 2.6), where every
    order of the ladder has converged.
    """
    dk = 0.5 * math.pi / L
    J = next(j for j in itertools.count()
             if max(1.0, (j * dk)**MAX_LADDER) * math.exp(-(j * dk)**4)
             < np.finfo(float).eps)
    k = dk * np.arange(J)
    decay = np.exp(-k**4)
    a = np.array([(1.0, -1.0, -1.0, 1.0)[l % 4] * dk / math.pi * k**l * decay
                  for l in range(MAX_LADDER + 1)])
    a[:, 0] *= 0.5
    return k, a


def _simpson_weights(count: int, h: float) -> np.ndarray:
    """Composite Simpson weights h/3 (1, 4, 2, ..., 2, 4, 1) on count >= 3
    uniform nodes.  An even count ends on Cartwright's last-interval rule
    h (-1/12, 2/3, 5/12), as scipy's simpson does since scipy 1.11."""
    m = count - 1 + count % 2  # nodes under the composite rule, odd
    w = np.zeros(count)
    w[:m:2], w[1:m:2] = 2.0, 4.0
    w[[0, m - 1]] = 1.0
    w *= h / 3.0
    if m < count:
        w[-3:] += h * np.array([-1.0, 8.0, 5.0]) / 12.0
    return w


def compute_kernel(L: float = 15.0, N: int = 4000) -> KernelTable:
    """Tabulate the ladder F^(l), l = 0..MAX_LADDER, on N+1 nodes of [0, L].

    On the nodes y_i = i L/N the phases k_j y_i = 2 pi i j / (4N) are exact,
    so every row of the trapezoid sum (_weights, about 1.7 L wavenumbers) is
    one real FFT of length 4N: the real part for even l, minus the imaginary
    part for odd l.  Wavenumbers past 4N alias onto the nodes exactly and are
    folded in.  One rescale, chosen so that the Simpson weights (odd N: with
    Cartwright's last interval) normalize F exactly, applies to every row.
    """
    if not (math.isfinite(L) and L >= 15.0):
        raise ValueError(f"L must be finite and >= 15, got {L}")
    if N < 2000:
        raise ValueError(f"N must be >= 2000, got {N}")

    nodes = np.linspace(0.0, L, N + 1)
    ladder = np.empty((MAX_LADDER + 1, N + 1))
    k, weights = _weights(L)
    for l, row in enumerate(ladder):
        # one order at a time: a batched transform of all 13 rows measured
        # faster but raised spectral_eigen's peak RSS from 88.4 to 93.1 MB
        a = np.bincount(np.arange(k.size) % (4 * N), weights=weights[l])
        S = np.fft.rfft(a, n=4 * N)[:N + 1]
        row[:] = -S.imag if l % 2 else S.real
    simpson = _simpson_weights(N + 1, L / N)
    scale = 0.5 / (ladder[0] @ simpson)
    ladder *= scale
    return KernelTable(nodes, ladder, scale,
                       normalization=2.0 * (ladder[0] @ simpson),
                       decay_fit=_fit_decay(nodes, ladder[0]))


def _fit_decay(y: np.ndarray, F: np.ndarray) -> tuple:
    """Least-squares fit of ln|F| against y^(4/3) at the peak (argmax of
    |F| > 1e-13) of each lobe between consecutive sign changes: rounding
    ripples on the flat far lobes would add spurious local maxima."""
    starts = np.nonzero(F[:-1] * F[1:] < 0)[0] + 1
    absF = np.abs(F)
    peaks = [i + np.argmax(absF[i:j]) for i, j in zip(starts, starts[1:])]
    peaks = [i for i in peaks if absF[i] > 1e-13]
    if len(peaks) < 2:
        raise RuntimeError("too few complete lobes for a decay fit")
    xs = y[peaks] ** (4.0 / 3.0)
    ys = np.log(absF[peaks])
    slope, intercept = np.polyfit(xs, ys, 1)
    return (float(np.exp(intercept)), float(-slope))


def kernel_derivative(table: KernelTable, k: int, y):
    """F^(k)(y) for k = 0..MAX_LADDER, and 0 beyond |y| = L.

    The table's trapezoid sum is summed directly at the signed y and
    multiplied by the table's scale, so the parity (-1)^k follows from the
    phase.  Beyond L the envelope is below any tolerance of interest.
    """
    if not 0 <= k <= MAX_LADDER:
        raise ValueError(f"derivative order {k} must lie in [0, {MAX_LADDER}]")
    L = float(table.nodes[-1])
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    trig = np.sin if k % 2 else np.cos
    out = np.zeros(y_arr.size)
    waves, weights = _weights(L)
    # one wavenumber at a time keeps memory O(y.size)
    for kj, aj in zip(waves, weights[k]):
        out += aj * trig(kj * y_arr)
    out = np.where(np.abs(y_arr) <= L, table.scale * out, 0.0)
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
    [0, L], the stored row F^(l) times psi*_k, and dotted with the nodes'
    _simpson_weights, which end on Cartwright's rule when N is odd.
    """
    if not (0 <= l <= MAX_PAIRING and 0 <= k <= MAX_PAIRING):
        raise ValueError(f"pairing indices must lie in [0, {MAX_PAIRING}]")
    if (l + k) % 2 == 1:
        return 0.0
    y = table.nodes
    vals = _psi_factor(l) * table.ladder[l] * adjoint_eigenfunction(k)(y)
    return float(2.0 * (vals @ _simpson_weights(y.size, y[-1] / (y.size - 1))))
