import math
from fractions import Fraction

import numpy as np
import pytest

import blowuplab.spectral as spectral


def fd_ladder_residual(table, l, h=0.02, y_hi=10.0):
    """|B psi_l - lambda_l psi_l| via independent finite differences.

    psi_l comes from the kernel's Fourier sum, but the operator B is
    applied with 4th-order stencils to the sampled values, so agreement
    genuinely tests the kernel accuracy.
    """
    ye = np.arange(-3 * h, y_hi + 3 * h + 1e-12, h)
    c = spectral.eigenfunction(table, l, ye)
    D1 = (-c[5:-1] + 8 * c[4:-2] - 8 * c[2:-4] + c[1:-5]) / (12 * h)
    D4 = (-c[0:-6] + 12 * c[1:-5] - 39 * c[2:-4] + 56 * c[3:-3]
          - 39 * c[4:-2] + 12 * c[5:-1] - c[6:]) / (6 * h**4)
    yi = ye[3:-3]
    psi = c[3:-3]
    B = -D4 + 0.25 * yi * D1 + 0.25 * psi
    return float(np.max(np.abs(B - (-l / 4.0) * psi)))


class TestKernel:
    def test_normalized(self, kernel_table):
        assert kernel_table.normalization == pytest.approx(1.0, abs=1e-8)

    def test_radial_slope_vanishes_at_origin(self, kernel_table):
        assert abs(kernel_table.ladder[1][0]) <= 1e-10

    def test_decay_rate_matches_wkb_constant(self, kernel_table):
        D, d = kernel_table.decay_fit
        assert D > 0
        assert d == pytest.approx(spectral.DECAY_RATE, rel=0.10)

    def test_decay_fit_ignores_summation_rounding(self, kernel_table_wide):
        # one peak per lobe: the fit of the FFT table and that of the direct
        # sum on the same nodes agree, though their far-tail rounding differs
        t = kernel_table_wide
        direct = spectral.kernel_derivative(t, 0, t.nodes)
        _, d = spectral._fit_decay(t.nodes, direct)
        assert t.decay_fit[1] == pytest.approx(d, rel=1e-4)

    def test_domain_doubling_stability(self, kernel_table, kernel_table_wide):
        # both tables sum the same Fourier integral; they differ only by
        # the normalization rescale, which at L = 15 absorbs ~1e-5 of
        # tail mass (difference 8.6e-6)
        y = np.linspace(0.0, 10.0, 2001)
        diff = np.max(np.abs(spectral.kernel_derivative(kernel_table, 0, y)
                             - spectral.kernel_derivative(kernel_table_wide,
                                                          0, y)))
        assert diff <= 5e-5

    def test_closed_form_values_at_origin(self, kernel_table_wide):
        # F(0) = (1/pi) int exp(-k^4) dk = Gamma(5/4)/pi and
        # F''(0) = -(1/pi) int k^2 exp(-k^4) dk = -Gamma(3/4)/(4 pi)
        F, F1, F2 = kernel_table_wide.ladder[:3, 0]
        assert F == pytest.approx(math.gamma(1.25) / math.pi, rel=1e-13)
        assert F2 == pytest.approx(-math.gamma(0.75) / (4.0 * math.pi),
                                   rel=1e-13)
        assert F1 == 0.0

    def test_truncation_costs_only_normalization(self, kernel_table,
                                                 kernel_table_wide):
        # away from the cutoff the L = 15 table is the wide one rescaled
        y = np.linspace(0.0, 14.0, 2801)
        s = kernel_table.ladder[0][0] / kernel_table_wide.ladder[0][0]
        diff = np.max(np.abs(
            spectral.kernel_derivative(kernel_table, 0, y)
            - s * spectral.kernel_derivative(kernel_table_wide, 0, y)))
        assert diff <= 1e-12

    def test_ode_residual_second_order(self, kernel_table):
        # -F''' + y F / 4 evaluated with independent second-order
        # differencing of the tabulated values: the residual must shrink
        # at the stencil's order (>= 1.9) when the step halves
        def residual(h):
            ye = np.arange(0.5 - 2 * h, 9.5 + 2 * h + 1e-12, h)
            F = spectral.kernel_derivative(kernel_table, 0, ye)
            D3 = (-F[:-4] + 2 * F[1:-3] - 2 * F[3:-1] + F[4:]) / (2 * h**3)
            yi = ye[2:-2]
            return float(np.max(np.abs(-D3 + 0.25 * yi * F[2:-2])))

        errs = [residual(0.02), residual(0.01)]
        assert errs[0] <= 1e-4 and errs[1] <= 1e-5
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_preconditions(self):
        with pytest.raises(ValueError):
            spectral.compute_kernel(10.0, 4000)
        with pytest.raises(ValueError):
            spectral.compute_kernel(15.0, 1000)


class TestDerivativeRecursion:
    def test_third_derivative_is_quarter_y_f(self, kernel_table):
        y = 3.7
        assert spectral.kernel_derivative(kernel_table, 3, y) == pytest.approx(
            0.25 * y * spectral.kernel_derivative(kernel_table, 0, y), rel=1e-12)

    def test_fourth_derivative(self, kernel_table):
        y = 2.9
        F = spectral.kernel_derivative(kernel_table, 0, y)
        F1 = spectral.kernel_derivative(kernel_table, 1, y)
        assert spectral.kernel_derivative(kernel_table, 4, y) == pytest.approx(
            0.25 * (F + y * F1), rel=1e-12)

    def test_depth_guard(self, kernel_table):
        with pytest.raises(ValueError, match="derivative order"):
            spectral.kernel_derivative(kernel_table, spectral.MAX_LADDER + 1,
                                       1.0)

    def test_parity(self, kernel_table):
        y = 1.3
        for k in (0, 1, 2, 5):
            a = spectral.kernel_derivative(kernel_table, k, y)
            b = spectral.kernel_derivative(kernel_table, k, -y)
            assert b == pytest.approx((-1.0) ** k * a, rel=1e-12)


class TestLadder:
    def test_psi0_is_kernel(self, kernel_table):
        y = np.linspace(0, 5, 11)
        assert np.allclose(spectral.eigenfunction(kernel_table, 0, y),
                           spectral.kernel_derivative(kernel_table, 0, y),
                           rtol=1e-13)

    def test_psi1_vanishes_at_origin(self, kernel_table):
        assert abs(spectral.eigenfunction(kernel_table, 1, 0.0)) <= 1e-10

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 4])
    def test_eigen_residual(self, kernel_table_wide, l):
        assert fd_ladder_residual(kernel_table_wide, l) <= 1e-5

    def test_index_range(self, kernel_table):
        with pytest.raises(ValueError):
            spectral.eigenfunction(kernel_table, 13, 0.0)

    def test_table_rows_are_the_off_node_sum(self, kernel_table):
        # the stored ladder and off-node evaluation are one sum: they agree
        # on the nodes, and both vanish beyond L
        y = kernel_table.nodes
        for l in range(spectral.MAX_LADDER + 1):
            assert np.allclose(spectral.kernel_derivative(kernel_table, l, y),
                               kernel_table.ladder[l], rtol=0.0, atol=1e-15)
            assert spectral.kernel_derivative(kernel_table, l,
                                              kernel_table.nodes[-1] + 0.1) == 0.0

    @pytest.mark.parametrize("L, N", [(44.0, 20000), (15.0, 2001),
                                      (15.0, 2047)])
    def test_fft_rows_are_the_direct_sum(self, L, N):
        # the table (a length-4N FFT) and off-node evaluation (the direct
        # sum) read one set of weights, so they agree on the nodes of the
        # wide table and for odd and non-power-of-two N
        table = spectral.compute_kernel(L, N)
        for l in range(spectral.MAX_LADDER + 1):
            assert np.allclose(spectral.kernel_derivative(table, l,
                                                          table.nodes),
                               table.ladder[l], rtol=0.0, atol=1e-15)

    def test_wavenumbers_past_4n_fold_onto_the_nodes(self):
        # at L = 10^4, N = 2000 the sum has ~16,600 wavenumbers, more than
        # the 4N = 8000 of the transform: those past 4N alias onto the nodes
        # exactly (their truncation would cost 4.5e-3) and must be folded in
        table = spectral.compute_kernel(1.0e4, 2000)
        y = table.nodes[::40]
        for l in (0, 3):
            assert np.allclose(spectral.kernel_derivative(table, l, y),
                               table.ladder[l][::40], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("l, y", [(12, 20.0), (12, 30.0), (12, 43.9),
                                      (6, 38.0)])
    def test_matches_quadrature_oracle(self, kernel_table_wide, l, y):
        # F^(l)(y) = (1/pi) int_0^inf exp(-k^4) k^l cos(k y + l pi/2) dk in
        # 40-digit quadrature, at the table node nearest y; high orders far
        # out are where an error that grows with l and y would show.  The
        # import stays here so the acceptance suite, which imports this
        # module, does not need mpmath.
        import mpmath as mp

        nodes = kernel_table_wide.nodes
        y = float(nodes[np.argmin(np.abs(nodes - y))])
        with mp.workdps(40):
            exact = mp.quad(lambda k: mp.exp(-k**4) * k**l
                            * mp.cos(k * y + l * mp.pi / 2),
                            mp.linspace(0, 7, 141)) / mp.pi
        got = spectral.kernel_derivative(kernel_table_wide, l, y)
        assert abs(got - float(exact)) <= 1e-15
        # the tabulated row, one FFT, is closer still
        row = kernel_table_wide.ladder[l][np.searchsorted(nodes, y)]
        assert abs(row - float(exact)) <= 1e-16


class TestSimpsonWeights:
    @pytest.mark.parametrize("count", [3, 5, 7, 2001, 4001])
    def test_exact_for_cubics_on_odd_counts(self, count):
        h = 0.37
        y = h * np.arange(count)
        b = y[-1]
        got = (1.0 - 2.0 * y + 0.5 * y**2 - 0.25 * y**3) @ \
            spectral._simpson_weights(count, h)
        exact = b - b**2 + b**3 / 6.0 - b**4 / 16.0
        assert got == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("count", [4, 6, 8, 2002, 2048])
    def test_exact_for_quadratics_on_even_counts(self, count):
        h = 0.37
        y = h * np.arange(count)
        b = y[-1]
        got = (1.0 - 2.0 * y + 0.5 * y**2) @ spectral._simpson_weights(count, h)
        assert got == pytest.approx(b - b**2 + b**3 / 6.0, rel=1e-13)

    @pytest.mark.parametrize("N", [4000, 2001, 2047])
    def test_matches_scipy_simpson_on_the_ladder(self, N):
        # odd N (an even node count) is where the last-interval rule acts.
        # scipy < 1.11 averages two other end rules there, so on it the
        # oracle is simpson on all nodes but the last plus the exact
        # integral of the parabola through the last three.  The bound is
        # relative to the integral of |F^(l)|, since rows such as l = 2
        # and 4 nearly cancel and would read only rounding against their
        # own value.
        import scipy
        from scipy.integrate import simpson

        cartwright = tuple(map(int, scipy.__version__.split(".")[:2])) >= (1, 11)
        table = spectral.compute_kernel(15.0, N)
        y = table.nodes
        w = spectral._simpson_weights(N + 1, 15.0 / N)
        for row in table.ladder:
            if cartwright or N % 2 == 0:
                oracle = simpson(row, x=y)
            else:
                last = np.polynomial.Polynomial.fit(y[-3:], row[-3:], 2).integ()
                oracle = simpson(row[:-1], x=y[:-1]) + last(y[-1]) - last(y[-2])
            assert abs(row @ w - oracle) <= 1e-14 * (np.abs(row) @ w)


class TestAdjointPolynomials:
    def test_constant(self):
        p = spectral.adjoint_eigenfunction(0)
        assert p.rational == (Fraction(1),)
        assert p(3.0) == 1.0

    def test_linear(self):
        p = spectral.adjoint_eigenfunction(1)
        assert p.rational == (Fraction(0), Fraction(1))

    def test_quartic_closed_form(self):
        p = spectral.adjoint_eigenfunction(4)
        assert p.rational == (Fraction(24), Fraction(0), Fraction(0),
                              Fraction(0), Fraction(1))
        y = 1.7
        assert p(y) == pytest.approx((y**4 + 24.0) / math.sqrt(24.0), rel=1e-15)

    @pytest.mark.parametrize("l", range(9))
    def test_adjoint_identity_exact(self, l):
        # B* psi*_l = -(l/4) psi*_l coefficient-wise in exact rationals
        p = spectral.adjoint_eigenfunction(l)
        image = spectral.adjoint_apply(p.rational)
        expected = tuple(Fraction(-l, 4) * c for c in p.rational)
        assert image == expected

    def test_quartic_in_kernel_of_shifted_adjoint(self):
        # (B* + I) psi*_4 = 0 exactly: lambda_4 = -1
        p = spectral.adjoint_eigenfunction(4)
        image = spectral.adjoint_apply(p.rational)
        shifted = tuple(a + b for a, b in zip(image, p.rational))
        assert all(c == 0 for c in shifted)


class TestPairing:
    def test_normalization_pair(self, kernel_table_wide):
        assert spectral.pairing(kernel_table_wide, 0, 0) == pytest.approx(
            1.0, abs=1e-6)

    def test_first_derivative_integrates_to_zero(self, kernel_table_wide):
        assert abs(spectral.pairing(kernel_table_wide, 1, 0)) <= 1e-6

    def test_odd_parity_exact_zero(self, kernel_table):
        assert spectral.pairing(kernel_table, 2, 1) == 0.0
        assert spectral.pairing(kernel_table, 3, 0) == 0.0

    def test_biorthogonality_matrix(self, kernel_table_wide):
        M = np.array([[spectral.pairing(kernel_table_wide, l, k)
                       for k in range(7)] for l in range(7)])
        assert np.max(np.abs(M - np.eye(7))) <= 1e-5

    def test_lmax_8_defect_is_pinned(self, kernel_table_wide):
        # the 9x9 defect sits near 3.8e-6 (rounding alone moves it by about
        # 1e-6); the quadrature's summation order may move it only by far less
        M = np.array([[spectral.pairing(kernel_table_wide, l, k)
                       for k in range(9)] for l in range(9)])
        assert abs(np.max(np.abs(M - np.eye(9))) - 3.8073e-6) <= 1e-9

    def test_index_guard(self, kernel_table):
        with pytest.raises(ValueError):
            spectral.pairing(kernel_table, 9, 0)
