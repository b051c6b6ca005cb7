import math

import numpy as np
import pytest
from scipy import integrate, stats

from gibbsibp.special_functions import log_kanter_a, log_kanter_a0
from gibbsibp.stable_sampling import (
    TiltedStableSpec,
    _sample_tilt_angle,
    sample_positive_stable,
    sample_tilted_stable,
)


def laplace_transform_check(draws, lam, expected):
    values = np.exp(-lam * draws)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean() - expected) < 3 * se


class TestPositiveStable:
    def test_laplace_transform_half(self):
        rng = np.random.default_rng(7)
        draws = sample_positive_stable(0.5, rng, size=1_000_000)
        laplace_transform_check(draws, 1.0, math.exp(-1.0))
        laplace_transform_check(draws, 2.0, math.exp(-math.sqrt(2.0)))

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_laplace_transform_general(self, alpha):
        rng = np.random.default_rng(11)
        draws = sample_positive_stable(alpha, rng, size=500_000)
        laplace_transform_check(draws, 1.0, math.exp(-1.0))

    def test_strictly_positive(self):
        rng = np.random.default_rng(3)
        draws = sample_positive_stable(0.4, rng, size=10_000)
        assert np.all(draws > 0)

    def test_scalar_mode(self):
        rng = np.random.default_rng(3)
        x = sample_positive_stable(0.4, rng)
        assert isinstance(x, float) and x > 0

    def test_rejects_bad_alpha(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_positive_stable(1.0, rng)

    def test_seed_reproducibility(self):
        a = sample_positive_stable(0.6, np.random.default_rng(42), size=50)
        b = sample_positive_stable(0.6, np.random.default_rng(42), size=50)
        np.testing.assert_array_equal(a, b)

    def test_pinned_draws(self):
        # tilt 0 draws a uniform angle, untouched by the tilted envelopes
        draws = sample_positive_stable(0.6, np.random.default_rng(42), size=4)
        assert draws.tolist() == [
            9.132059732874271, 0.38469661124886717, 2.983962915140006, 0.5352561381992798,
        ]


class TestTiltedStable:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TiltedStableSpec(alpha=1.2, tilt=0.5)
        with pytest.raises(ValueError):
            TiltedStableSpec(alpha=0.5, tilt=-0.1)

    def test_inverse_gamma_mean_general_path(self):
        # alpha=1/2, k=3: law is InvGamma(2, scale 1/4) with mean 1/4
        spec = TiltedStableSpec(alpha=0.5, tilt=1.5)
        rng = np.random.default_rng(19)
        draws = sample_tilted_stable(spec, rng, size=1_000_000, method="general")
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.25) < 3 * se

    def test_inverse_gamma_median(self):
        # alpha=1/2, k=1: law is InvGamma(1, scale 1/4) with median 1/(4 log 2)
        spec = TiltedStableSpec(alpha=0.5, tilt=0.5)
        rng = np.random.default_rng(23)
        draws = sample_tilted_stable(spec, rng, size=200_000)
        assert np.median(draws) == pytest.approx(0.25 / math.log(2.0), rel=0.02)

    # tilts 0.05, 0.5, 1.5, 2.5, 300: b alpha = tilt/2 runs from a nearly
    # flat angle envelope to a narrow one
    @pytest.mark.parametrize("k", [0.1, 1, 3, 5, 600])
    def test_inverse_gamma_ks(self, k):
        spec = TiltedStableSpec(alpha=0.5, tilt=0.5 * k)
        rng = np.random.default_rng(100 + int(k))
        draws = sample_tilted_stable(spec, rng, size=100_000, method="general")
        result = stats.kstest(draws, stats.invgamma(a=(k + 1) / 2, scale=0.25).cdf)
        assert result.pvalue > 0.001

    def test_zero_tilt_matches_untilted(self):
        spec = TiltedStableSpec(alpha=0.6, tilt=0.0)
        tilted = sample_tilted_stable(spec, np.random.default_rng(5), size=100_000)
        plain = sample_positive_stable(0.6, np.random.default_rng(6), size=100_000)
        result = stats.ks_2samp(tilted, plain)
        assert result.pvalue > 0.01

    def test_general_path_large_tilt(self):
        # angle rejection must stay correct when b is large
        spec = TiltedStableSpec(alpha=0.5, tilt=30.0)
        rng = np.random.default_rng(40)
        draws = sample_tilted_stable(spec, rng, size=50_000, method="general")
        result = stats.kstest(draws, stats.invgamma(a=30.5, scale=0.25).cdf)
        assert result.pvalue > 0.001

    def test_seed_reproducibility(self):
        spec = TiltedStableSpec(alpha=0.4, tilt=2.0)
        a = sample_tilted_stable(spec, np.random.default_rng(9), size=50)
        b = sample_tilted_stable(spec, np.random.default_rng(9), size=50)
        np.testing.assert_array_equal(a, b)

    def test_rejects_unknown_method(self):
        spec = TiltedStableSpec(alpha=0.4, tilt=2.0)
        with pytest.raises(ValueError):
            sample_tilted_stable(spec, np.random.default_rng(0), method="fancy")


class TestTiltAngle:
    def test_half_normal_envelope_bound(self):
        # _sample_tilt_angle's series argument: log A(u) - log A(0+) has
        # positive Taylor coefficients in u^2, the first alpha/2
        u = np.linspace(1e-6, math.pi - 1e-6, 20_001)
        for alpha in np.arange(1, 100) / 100:
            gap = log_kanter_a(u, alpha) - log_kanter_a0(alpha) - 0.5 * alpha * u * u
            assert gap.min() >= -1e-12, alpha

    @pytest.mark.parametrize("alpha", [0.1, 0.75, 0.95])
    @pytest.mark.parametrize("b", [1e-4, 0.1, 2.0, 25.0])
    def test_angles_follow_their_density(self, alpha, b):
        # density proportional to A(u)^{-b} on (0, pi); at b = 1e-4 the
        # truncated half-normal envelope is nearly flat, at 25 narrow
        u = np.linspace(0.0, math.pi, 40_001)
        density = np.zeros_like(u)
        density[1:-1] = np.exp(-b * (log_kanter_a(u[1:-1], alpha) - log_kanter_a0(alpha)))
        density[0] = 1.0
        cdf = integrate.cumulative_trapezoid(density, u, initial=0.0)
        cdf /= cdf[-1]
        draws, log_a = _sample_tilt_angle(alpha, b, np.random.default_rng(17), 20_000)
        assert draws.size == 20_000 and 0.0 < draws.min() and draws.max() < math.pi
        np.testing.assert_array_equal(log_a, log_kanter_a(draws, alpha))
        assert stats.kstest(draws, lambda x: np.interp(x, u, cdf)).pvalue > 0.001
