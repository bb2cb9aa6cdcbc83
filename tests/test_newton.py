import math

import numpy as np
import pytest

import blowuplab.newton as newton


def scalar(f, df, calls=None):
    """residual and factor of the scalar equation f(x) = 0.

    factor returns None where df vanishes; calls, if given, collects
    every point the residual is evaluated at.
    """
    def residual(x):
        if calls is not None:
            calls.append(float(x[0]))
        return np.array([f(x[0])])

    def factor(x, r):
        d = df(x[0])
        return None if d == 0.0 else (lambda b: b / d)

    return residual, factor


def test_quadratic_convergence_on_smooth_root():
    # x^2 = 2 from x = 1: corrections 0.5, 8e-2, 2.5e-3, 2.1e-6, and the
    # simplified correction after the fourth full step is 1.6e-12
    residual, factor = scalar(lambda x: x * x - 2.0, lambda x: 2.0 * x)
    x, iters = newton.solve(residual, factor, [1.0], 1.0, 1e-10, 50)
    assert iters == 4
    assert x[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_returns_iterate_plus_its_correction():
    # a factor with the wrong slope 2 for x - 1 = 0 halves the distance to
    # the root per step: from x_k = 1 - 2^-k the correction is 2^-(k+1),
    # so the answer is the last visited iterate plus that correction,
    # exactly, and neither the iterate nor the root itself
    calls = []
    residual, _ = scalar(lambda x: x - 1.0, None, calls)
    x, iters = newton.solve(residual, lambda x, r: (lambda b: b / 2.0),
                            [0.0], 1.0, 1e-3, 50)
    last = calls[-1]
    assert x[0] == last + 0.5 * (1.0 - last)
    assert last < x[0] < 1.0
    assert 0.5 * (1.0 - last) <= 1e-3 < 1.0 - last
    assert iters == len(calls) - 1


def test_singular_factor_raises_with_last_iterate():
    # the first full step from 1 is accepted at 1.5, where the factor fails
    residual, factor = scalar(lambda x: x * x - 2.0, lambda x: 2.0 * x)
    seen = []

    def failing(x, r):
        seen.append(float(x[0]))
        return factor(x, r) if len(seen) == 1 else None

    with pytest.raises(newton.NewtonError, match="singular factor at Newton step 1") as exc:
        newton.solve(residual, failing, [1.0], 1.0, 1e-10, 50)
    assert exc.value.best.tolist() == [1.5]


def test_no_real_root_diverges():
    # x^2 + 1 = 0 has no real root: damping drives t below T_MIN
    residual, factor = scalar(lambda x: x * x + 1.0, lambda x: 2.0 * x)
    with pytest.raises(newton.NewtonError, match="divergence") as exc:
        newton.solve(residual, factor, [0.1], 1.0, 1e-10, 50)
    assert np.all(np.isfinite(exc.value.best))


def test_exhausted_budget_raises():
    residual, factor = scalar(lambda x: x * x - 2.0, lambda x: 2.0 * x)
    with pytest.raises(newton.NewtonError, match="no convergence in 2") as exc:
        newton.solve(residual, factor, [1.0], 1.0, 1e-10, 2)
    assert exc.value.best[0] == pytest.approx(17.0 / 12.0, rel=1e-15)
