import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special

from gibbsibp.gibbs_weights import GibbsModel
from gibbsibp.ibp import powerlaw_constant
from gibbsibp.special_functions import (
    MAX_TABLE_DEPTH,
    GfcTable,
    TableSizeError,
    build_gfc_table,
    check_table_depth,
    gfc_rows,
    log_kanter_a,
    log_gamma_ratio,
    log_kanter_a0,
    log_rising_factorial,
    positive_stable_density,
)
from gibbsibp.stick_breaking import structural_density, superposition_intensity
from oracles import gfc_bruteforce, log_scaled_gfc_mp, unsigned_stirling_first

# Frozen oracle values for f_alpha(t): mpmath quadrature (30 dps) of the
# Zolotarev integral representation, cross-checked against Talbot numerical
# inversion of the Laplace transform exp(-s^alpha); the two routes agreed to
# 40 digits.
STABLE_DENSITY_ORACLE = {
    (0.3, 0.5): 0.24064578302542872,
    (0.3, 1.0): 0.11715700256591615,
    (0.3, 2.0): 0.054783242263121489,
    (0.5, 0.5): 0.4839414490382867,
    (0.5, 1.0): 0.2196956447338612,
    (0.5, 2.0): 0.088016331691074869,
    (0.7, 0.5): 0.96511911846936176,
    (0.7, 1.0): 0.38739501014659244,
    (0.7, 2.0): 0.10768834487433713,
}


class TestLogRisingFactorial:
    def test_empty_product(self):
        assert log_rising_factorial(7.3, 0) == 0.0

    def test_integer_product(self):
        # 2 * 3 * 4
        assert log_rising_factorial(2, 3) == pytest.approx(math.log(24), abs=1e-12)

    def test_half_base(self):
        # 0.5 * 1.5
        assert log_rising_factorial(0.5, 2) == pytest.approx(math.log(0.75), abs=1e-12)

    def test_rejects_nonpositive_base(self):
        with pytest.raises(ValueError):
            log_rising_factorial(0.0, 2)
        with pytest.raises(ValueError):
            log_rising_factorial(-1.5, 2)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            log_rising_factorial(1.0, -1)

    @given(
        a=st.floats(min_value=0.05, max_value=20.0),
        n=st.integers(min_value=0, max_value=30),
    )
    def test_matches_linear_space_pochhammer(self, a, n):
        assert log_rising_factorial(a, n) == pytest.approx(
            math.log(special.poch(a, n)), rel=1e-10
        )


class TestGfcTable:
    def test_single_term(self):
        table = build_gfc_table(4, 0.5)
        assert math.exp(table.log_gfc(1, 1)) == pytest.approx(0.5, abs=1e-14)

    def test_n2_k1(self):
        table = build_gfc_table(4, 0.5)
        assert math.exp(table.log_gfc(2, 1)) == pytest.approx(0.25, abs=1e-14)

    def test_n3_k2(self):
        # recursion (2 - 1) * 0.25 + 0.5 * 0.25
        table = build_gfc_table(4, 0.5)
        assert math.exp(table.log_gfc(3, 2)) == pytest.approx(0.375, abs=1e-14)

    def test_diagonal_exact(self):
        for alpha in (0.1, 0.5, 0.9):
            table = build_gfc_table(20, alpha)
            for n in range(1, 21):
                assert table.log_gfc(n, n) == n * math.log(alpha)

    def test_rejects_bad_alpha(self):
        for alpha in (1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                build_gfc_table(5, alpha)

    def test_refuses_depth_past_limit(self):
        # one row past the limit: a missing guard allocates only that much
        with pytest.raises(ValueError, match="MAX_TABLE_DEPTH"):
            build_gfc_table(MAX_TABLE_DEPTH + 1, 0.5)

    def test_out_of_triangle(self):
        table = build_gfc_table(5, 0.5)
        assert table.log_gfc(3, 4) == -np.inf
        assert table.log_gfc(2, 0) == -np.inf
        assert table.log_gfc(0, 0) == 0.0
        with pytest.raises(ValueError):
            table.log_gfc(6, 1)

    def test_rows_stream_the_table(self):
        # the stacked table is its rows, bit for bit; arguments are checked
        # when the rows are asked for, not on the first one
        for alpha in (0.0, 0.25, 0.5, 0.75, 0.95):
            table = build_gfc_table(60, alpha)
            for n, row in enumerate(gfc_rows(60, alpha), start=1):
                assert np.array_equal(row, table.log_row(n))
        with pytest.raises(ValueError, match="alpha"):
            gfc_rows(5, 1.0)

    def test_entries_finite(self):
        table = build_gfc_table(60, 0.3)
        for n in range(1, 61):
            assert np.all(np.isfinite(table.log_row(n)))

    def test_matches_bruteforce(self):
        for alpha in (0.1, 0.5, 0.9):
            table = build_gfc_table(12, alpha)
            for n in range(1, 13):
                for k in range(1, n + 1):
                    exact = gfc_bruteforce(n, k, alpha)
                    assert math.exp(table.log_gfc(n, k)) == pytest.approx(exact, rel=1e-8)

    def test_first_column_closed_form(self):
        # C(n, 1; alpha) = alpha * (1 - alpha)_{n-1}
        for alpha in (0.1, 0.5, 0.9):
            table = build_gfc_table(50, alpha)
            for n in range(1, 51):
                expected = math.log(alpha) + log_rising_factorial(1.0 - alpha, n - 1)
                assert table.log_gfc(n, 1) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_alpha_zero_is_unsigned_stirling_first(self):
        # alpha^{-k} C(n, k; alpha) -> |s(n, k)| as alpha -> 0, while
        # C(n, k; 0) itself is 0 for k >= 1
        n_max = 40
        table = build_gfc_table(n_max, 0.0)
        exact = unsigned_stirling_first(n_max)
        for n in range(1, n_max + 1):
            want = [math.log(exact[n][k]) for k in range(1, n + 1)]
            np.testing.assert_allclose(table.log_row(n), want, rtol=1e-14, atol=0.0)
            assert table.log_row(n)[-1] == 0.0
            assert table.log_gfc(n, 0) == -np.inf
            for k in (1, n):
                assert table.log_gfc(n, k) == -np.inf
        assert table.log_gfc(0, 0) == 0.0

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    def test_scaled_entries_match_extended_precision(self, alpha):
        n_max = 300
        table = build_gfc_table(n_max, alpha)
        exact = log_scaled_gfc_mp(n_max, alpha)
        worst = max(
            float(np.abs(table.log_row(n) - exact[n - 1]).max()) for n in range(1, n_max + 1)
        )
        assert worst <= 1e-11

    def test_immutable(self):
        table = build_gfc_table(5, 0.5)
        with pytest.raises(ValueError):
            table.log_row(3)[0] = 0.0


class TestCheckTableDepth:
    def test_limit_is_inclusive(self):
        check_table_depth(MAX_TABLE_DEPTH)
        with pytest.raises(TableSizeError, match=f"depth {MAX_TABLE_DEPTH + 1} "):
            check_table_depth(MAX_TABLE_DEPTH + 1)

    def test_refusal_is_a_value_error(self):
        # callers that catch ValueError still see the refusal
        assert issubclass(TableSizeError, ValueError)


class TestGfcBruteforce:
    def test_examples(self):
        assert gfc_bruteforce(1, 1, 0.5) == pytest.approx(0.5, abs=1e-14)
        assert gfc_bruteforce(2, 1, 0.5) == pytest.approx(0.25, abs=1e-14)

    def test_zero_column(self):
        for n in (1, 3, 7):
            assert gfc_bruteforce(n, 0, 0.4) == 0.0
        assert gfc_bruteforce(0, 0, 0.4) == 1.0

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            gfc_bruteforce(16, 3, 0.5)


class TestKanterOrigin:
    @pytest.mark.parametrize("alpha", [0.1, 0.37, 0.5, 0.9])
    def test_is_the_infimum_of_the_kernel(self, alpha):
        log_a0 = log_kanter_a0(alpha)
        assert math.exp(log_a0) == pytest.approx(
            alpha ** (alpha / (1.0 - alpha)) * (1.0 - alpha), rel=1e-14
        )
        u = np.linspace(1e-6, math.pi - 1e-6, 2001)
        log_a = log_kanter_a(u, alpha)
        assert np.all(log_a > log_a0)
        # A(u) = A(0+) (1 + O(u^2)) near the origin
        assert log_a[0] - log_a0 < 1e-10


class TestPositiveStableDensity:
    def test_half_closed_form(self):
        assert positive_stable_density(0.5, 1.0) == pytest.approx(0.21970, abs=5e-6)

    def test_vanishes_at_origin(self):
        assert positive_stable_density(0.5, 1e-8) == pytest.approx(0.0, abs=1e-300)
        assert positive_stable_density(0.3, 1e-12) == pytest.approx(0.0, abs=1e-30)

    def test_against_quadrature_oracle(self):
        for (alpha, t), expected in STABLE_DENSITY_ORACLE.items():
            assert positive_stable_density(alpha, t) == pytest.approx(expected, rel=1e-6)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            positive_stable_density(0.5, 0.0)
        with pytest.raises(ValueError):
            positive_stable_density(0.5, -1.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_normalization(self, alpha):
        # split the heavy tail off so the outer quadrature converges
        total = sum(
            integrate.quad(
                lambda t: positive_stable_density(alpha, t), lo, hi, limit=200
            )[0]
            for lo, hi in [(0.0, 1.0), (1.0, 100.0), (100.0, np.inf)]
        )
        assert total == pytest.approx(1.0, abs=1e-4)


class TestLogGammaRatio:
    """log Gamma(theta+1) - log Gamma(theta+alpha) and its three readers
    against mpmath at large theta, where a gammaln difference loses its
    digits (powerlaw_constant(PY(0.5, 1e15)) read 72% off that way)."""

    THETAS = [1e3, 1e8, 1e12, 1e15, 1e100]

    @staticmethod
    def mp_ratio(theta, alpha):
        # enough digits to hold log Gamma(theta+1), of size theta log theta
        with mpmath.workdps(int(math.log10(theta)) + 40):
            t, a = mpmath.mpf(theta), mpmath.mpf(alpha)
            return mpmath.loggamma(t + 1) - mpmath.loggamma(t + a)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.9])
    def test_ratio(self, alpha):
        for theta in self.THETAS:
            want = self.mp_ratio(theta, alpha)
            # poch reads about 1e-13 off at theta 1e3 and to the double past it
            assert abs(log_gamma_ratio(theta, alpha) - want) <= 1e-12 * max(1, abs(want)), theta

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    def test_readers(self, alpha):
        for theta in self.THETAS:
            model = GibbsModel.py(alpha, theta)
            ratio = self.mp_ratio(theta, alpha)
            # 1 - p must hold its digits too
            with mpmath.workdps(int(math.log10(theta)) + 40):
                want = mpmath.exp(ratio) / alpha
                assert abs(powerlaw_constant(model) - want) <= 1e-12 * want, theta
                # p near 1/theta, where the density and intensity live
                p = 1.0 / theta
                a, t, q = mpmath.mpf(alpha), mpmath.mpf(theta), mpmath.mpf(p)
                norm = mpmath.exp(ratio) / mpmath.gamma(1 - a) * q ** -a
                density = norm * (1 - q) ** (t + a - 1)
                intensity = norm * (1 - q) ** (t + a + 2)
                got = structural_density(model, p)
                assert abs(got - density) <= 1e-12 * density, theta
                got = superposition_intensity(model, 3, p)
                assert abs(got - intensity) <= 1e-12 * intensity, theta
