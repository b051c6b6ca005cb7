import math

import numpy as np
import pytest
from scipy import integrate, stats

from gibbsibp import gibbs_weights
from gibbsibp.gibbs_weights import GibbsModel
from gibbsibp.ibp import sample_feature_counts
from gibbsibp.special_functions import positive_stable_density
from gibbsibp.stick_breaking import (
    TruncatedProcess,
    construct_truncated,
    draw_bernoulli,
    expected_stick_mass,
    sample_sticks,
    sample_truncated_feature_counts,
    structural_density,
    suggest_rounds,
    superposition_intensity,
)

# mpmath quadrature (30 dps) of [alpha/Gamma(1-alpha)] p^{-alpha}
# int t^{-alpha} e^{beta^alpha - beta t} f_alpha(t(1-p)) dt at alpha = 1/2,
# using the closed-form stable density
NIG_STRUCTURAL_ORACLE = {
    (1.0, 0.1): 1.6711036431254077,
    (1.0, 0.5): 0.76894005097762958,
    (1.0, 0.9): 0.30180479752396539,
    (2.5, 0.1): 1.8844211810588145,
    (2.5, 0.5): 0.71287684935153036,
    (2.5, 0.9): 0.10429314577368439,
}


class TestSampleSticks:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        single = sample_sticks(GibbsModel.dp(1.0), 5, rng)
        assert single.shape == (5,)
        batch = sample_sticks(GibbsModel.py(0.5, 1.0), 3, rng, size=7)
        assert batch.shape == (7, 3)

    def test_dp_first_stick_mean(self):
        rng = np.random.default_rng(1)
        draws = sample_sticks(GibbsModel.dp(1.0), 1, rng, size=100_000)[:, 0]
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) < 3 * se

    def test_py_first_stick_mean(self):
        # P_1 = W_1 ~ beta(1 - alpha, theta + alpha), mean 0.25 here
        rng = np.random.default_rng(2)
        draws = sample_sticks(GibbsModel.py(0.5, 1.0), 1, rng, size=100_000)[:, 0]
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.25) < 3 * se

    def test_mean_matches_product_form(self):
        rng = np.random.default_rng(3)
        for model in (GibbsModel.dp(1.0), GibbsModel.py(0.3, 0.7)):
            draws = sample_sticks(model, 5, rng, size=200_000)
            for i in (1, 2, 5):
                column = draws[:, i - 1]
                se = column.std(ddof=1) / math.sqrt(column.size)
                assert abs(column.mean() - expected_stick_mass(model, i)) < 3.5 * se

    def test_ngg_unsupported(self):
        with pytest.raises(ValueError, match="sequential"):
            sample_sticks(GibbsModel.ngg(0.5, 1.0), 3, np.random.default_rng(0))


class TestExpectedStickMass:
    def test_dp_geometric(self):
        for i in (1, 4, 10):
            assert expected_stick_mass(GibbsModel.dp(1.0), i) == pytest.approx(
                0.5 ** i, rel=1e-12
            )

    def test_decreasing(self):
        values = [expected_stick_mass(GibbsModel.py(0.2, 1.0), i) for i in range(1, 30)]
        assert np.all(np.diff(values) < 0)

    def test_suggest_rounds_threshold(self):
        for model in (GibbsModel.dp(1.0), GibbsModel.py(0.2, 1.0)):
            rounds = suggest_rounds(model, tol=1e-3)
            assert expected_stick_mass(model, rounds) < 1e-3
            assert expected_stick_mass(model, rounds - 1) >= 1e-3
        assert suggest_rounds(GibbsModel.dp(1.0), tol=1e-3) == 10


class TestConstructTruncated:
    def test_zero_rounds(self):
        process = construct_truncated(GibbsModel.dp(1.0), 1.0, 0, np.random.default_rng(0))
        assert len(process.atoms) == 0
        alloc = draw_bernoulli(process, 5, np.random.default_rng(1))
        assert alloc.n == 5 and alloc.dishes == 0

    def test_atom_count_mean(self):
        # Poisson(gamma) atoms per round -> gamma * rounds in expectation
        model, gamma, rounds = GibbsModel.dp(1.0), 1.5, 6
        rng = np.random.default_rng(4)
        counts = np.array(
            [len(construct_truncated(model, gamma, rounds, rng).atoms) for _ in range(4000)]
        )
        target = gamma * rounds
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - target) < 3 * se

    def test_weights_in_unit_interval(self):
        process = construct_truncated(GibbsModel.py(0.2, 1.0), 2.0, 8, np.random.default_rng(5))
        assert np.all(process.weights > 0) and np.all(process.weights <= 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedProcess([0.5], [1.5], 1, 1.0)
        with pytest.raises(ValueError):
            construct_truncated(GibbsModel.dp(1.0), 1.0, -1, np.random.default_rng(0))


class TestCrossConstruction:
    def test_batch_matches_full_draws(self):
        model, gamma, n, rounds = GibbsModel.dp(1.0), 1.0, 20, 10
        rng = np.random.default_rng(6)
        full = np.array(
            [
                draw_bernoulli(construct_truncated(model, gamma, rounds, rng), n, rng).dishes
                for _ in range(3000)
            ]
        )
        batch = sample_truncated_feature_counts(model, gamma, n, rounds, 100_000, seed=7)
        assert stats.ks_2samp(full, batch).pvalue > 0.01

    def test_stick_law_matches_sequential_law(self):
        # DP(theta=1), gamma=1, n=20, depth from the default residual rule
        model, gamma, n = GibbsModel.dp(1.0), 1.0, 20
        rounds = suggest_rounds(model)
        stick = sample_truncated_feature_counts(model, gamma, n, rounds, 100_000, seed=8)
        sequential = sample_feature_counts(model, gamma, n, 100_000, seed=9)
        width = max(int(stick.max()), int(sequential.max())) + 1
        stick_pmf = np.bincount(stick, minlength=width) / stick.size
        seq_pmf = np.bincount(sequential, minlength=width) / sequential.size
        tv = 0.5 * np.abs(stick_pmf - seq_pmf).sum()
        assert tv < 0.02


class TestTruncatedFeatureCounts:
    @pytest.mark.parametrize("model", [GibbsModel.dp(1.0), GibbsModel.py(0.2, 1.0)])
    def test_same_draws_on_any_core_count(self, model, monkeypatch):
        # each round draws from its own child stream and the totals are
        # integer sums, so the threads' share of the rounds cannot matter,
        # with more threads than cores too
        draws = []
        for cores in (1, 2, 5):
            monkeypatch.setattr(gibbs_weights, "_usable_cores", lambda: cores)
            draws.append(sample_truncated_feature_counts(model, 1.0, 20, 12, 5000, seed=3))
        assert draws[0].dtype == np.int64
        assert all(np.array_equal(draws[0], other) for other in draws[1:])

    def test_no_rounds_no_dishes(self):
        counts = sample_truncated_feature_counts(GibbsModel.dp(1.0), 1.0, 20, 0, 7, seed=3)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.zeros(7))

    def test_negative_rounds_refused(self):
        with pytest.raises(ValueError, match="rounds"):
            sample_truncated_feature_counts(GibbsModel.dp(1.0), 1.0, 20, -1, 7, seed=3)


class TestStructuralDensity:
    def test_py_anchor(self):
        value = structural_density(GibbsModel.py(0.5, 1.0), 0.5)
        assert value == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_dp_beta_density(self):
        theta = 2.5
        for p in (0.2, 0.7):
            expected = theta * (1.0 - p) ** (theta - 1.0)
            assert structural_density(GibbsModel.dp(theta), p) == pytest.approx(
                expected, rel=1e-12
            )

    def test_nig_oracle(self):
        for (beta, p), expected in NIG_STRUCTURAL_ORACLE.items():
            value = structural_density(GibbsModel.nig(beta), p)
            assert value == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("alpha, beta", [(0.3, 0.7), (0.8, 5.0)])
    def test_ngg_matches_nested_quadrature(self, alpha, beta):
        # the defining form [alpha/Gamma(1-alpha)] p^{-alpha} int t^{-alpha}
        # e^{beta^alpha - beta t} f_alpha(t(1-p)) dt, an inner quadrature for
        # the stable density inside an outer one
        def nested(p):
            def integrand(t):
                return (
                    t ** -alpha
                    * math.exp(beta ** alpha - beta * t)
                    * positive_stable_density(alpha, t * (1.0 - p))
                )

            split = 1.0 / (1.0 - p)
            head, _ = integrate.quad(integrand, 0.0, split)
            tail, _ = integrate.quad(integrand, split, np.inf)
            return alpha / math.gamma(1.0 - alpha) * p ** -alpha * (head + tail)

        model = GibbsModel.ngg(alpha, beta)
        for p in (0.01, 0.3, 0.9):
            assert structural_density(model, p) == pytest.approx(nested(p), rel=1e-8)

    def test_ngg_half_equals_nig(self):
        ngg = structural_density(GibbsModel.ngg(0.5, 1.0), 0.3)
        nig = structural_density(GibbsModel.nig(1.0), 0.3)
        assert ngg == pytest.approx(nig, rel=1e-12)

    def test_normalization(self):
        for model in (GibbsModel.py(0.3, 0.7), GibbsModel.nig(1.0)):
            total, _ = integrate.quad(
                lambda p: structural_density(model, p), 0.0, 1.0, limit=200
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            structural_density(GibbsModel.dp(1.0), 0.0)
        with pytest.raises(ValueError):
            structural_density(GibbsModel.dp(1.0), 1.0)


class TestSuperpositionIntensity:
    def test_dp_round_zero_mass(self):
        theta = 1.7
        total, _ = integrate.quad(
            lambda p: superposition_intensity(GibbsModel.dp(theta), 0, p), 0.0, 1.0
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_geometric_identity(self):
        # sum_n intensity(n, p) = p^{-1} mu_1(p)
        depths = np.arange(10_000)
        for model in (GibbsModel.dp(1.0), GibbsModel.py(0.5, 1.0)):
            for p in np.linspace(0.01, 0.99, 100):
                total = superposition_intensity(model, depths, p).sum()
                target = structural_density(model, p) / p
                assert total == pytest.approx(target, rel=1e-6)

    def test_decreasing_in_depth(self):
        values = superposition_intensity(GibbsModel.py(0.5, 1.0), np.arange(30), 0.4)
        assert np.all(np.diff(values) < 0)

    def test_ngg_unsupported(self):
        with pytest.raises(ValueError):
            superposition_intensity(GibbsModel.ngg(0.5, 1.0), 0, 0.5)
