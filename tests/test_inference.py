import hashlib
import itertools
import json
import math
import weakref
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from gibbsibp import gibbs_weights, ibp, inference
from gibbsibp.gibbs_weights import (
    SMALLN_MAX,
    ClosedFormPrimitives,
    DrawSummary,
    GibbsModel,
    McConfig,
    McDegeneracyError,
    NggRowPrimitives,
    NggWeightSampler,
    build_primitive_cache,
    build_weight_table,
    depth_primitives,
    expected_blocks,
    log_primitive,
    ngg_weights_smalln,
    primitive,
    py_primitive_closed,
    weight_table_content_hash,
    weight_table_from_sampler,
)
from gibbsibp.ibp import (
    FeatureAllocation,
    _log_joint_counts,
    _SizeHistogram,
    log_joint,
    simulate_ibp,
)
from gibbsibp.inference import (
    GEWEKE_MIN_ROUNDS,
    ChainConfig,
    LatentFactorState,
    Priors,
    SampleArchive,
    ScreenedValue,
    gamma_posterior,
    geweke_check,
    gibbs_sweep,
    initial_state,
    log_likelihood,
    run_chain,
    slice_sample,
    synthesize_data,
)
from gibbsibp.special_functions import TableSizeError, build_gfc_table, log_rising_factorial

LOG_2PI = math.log(2.0 * math.pi)


def make_state(model, z, seed=0, gamma=1.0, p=None, sigma_y=1.0, sigma_w=1.0,
               mc_samples=ChainConfig.mc_samples):
    z = np.asarray(z, dtype=np.uint8)
    n, k = z.shape
    p = p or 2
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, sigma_w, size=(n, k))
    a = rng.standard_normal((k, p))
    if not model.is_closed_form:
        model = replace(model, mc_config=McConfig(mc_samples, seed))
    state = LatentFactorState(
        model, z, w, a, sigma_y, sigma_w, np.ones(p), gamma, rng
    )
    state.refresh_cache()
    return state


class TestLogLikelihood:
    def test_zero_residual(self):
        rng = np.random.default_rng(0)
        z = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
        w = rng.standard_normal((3, 2))
        a = rng.standard_normal((2, 4))
        y = (w * z) @ a
        got = log_likelihood(y, z, w, a, sigma_y=1.0)
        assert got == pytest.approx(-0.5 * 12 * LOG_2PI, rel=1e-14)

    def test_scalar_case(self):
        # n = p = 1, no active features: resid = y
        y = np.array([[2.0]])
        z = np.zeros((1, 0), dtype=np.uint8)
        w = np.zeros((1, 0))
        a = np.zeros((0, 1))
        for sigma in (1.0, 2.0):
            expect = -0.5 * LOG_2PI - math.log(sigma) - 4.0 / (2.0 * sigma ** 2)
            assert log_likelihood(y, z, w, a, sigma) == pytest.approx(expect, rel=1e-14)

    def test_accepts_feature_allocation(self):
        z = np.array([[1], [1]], dtype=np.uint8)
        alloc = FeatureAllocation(z, gamma=1.0)
        w = np.ones((2, 1))
        a = np.ones((1, 3))
        y = np.zeros((2, 3))
        assert log_likelihood(y, alloc, w, a, 1.0) == pytest.approx(
            log_likelihood(y, z, w, a, 1.0)
        )

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            log_likelihood(np.zeros((1, 1)), np.zeros((1, 0), dtype=np.uint8),
                           np.zeros((1, 0)), np.zeros((0, 1)), 0.0)


class TestSynthesizeData:
    SCALES = {"sigma_y": 0.25, "sigma_w": 1.0, "sigma_a": 1.0}

    def dense_plus_singletons(self):
        # two shared features plus a tail of one-off rows
        z = np.zeros((40, 6), dtype=np.uint8)
        z[:20, 0] = 1
        z[10:30, 1] = 1
        for j, row in enumerate(range(32, 36)):
            z[row, 2 + j] = 1
        return z

    def test_shape_and_determinism(self):
        z = self.dense_plus_singletons()
        y1 = synthesize_data(40, 7, z, self.SCALES, seed=5)
        y2 = synthesize_data(40, 7, z, self.SCALES, seed=5)
        assert y1.shape == (40, 7)
        assert np.array_equal(y1, y2)
        assert not np.array_equal(y1, synthesize_data(40, 7, z, self.SCALES, seed=6))

    def test_low_noise_rank_matches_features(self):
        z = self.dense_plus_singletons()
        scales = {"sigma_y": 1e-6, "sigma_w": 1.0, "sigma_a": 1.0}
        y = synthesize_data(40, 12, z, scales, seed=1)
        s = np.linalg.svd(y, compute_uv=False)
        # signal occupies exactly K directions; the gap to noise is huge
        assert s[5] / s[6] > 1e4

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            synthesize_data(5, 2, np.ones((4, 1), dtype=np.uint8), self.SCALES, 0)


class TestDishTakePrior:
    def test_take_probability_anchor(self):
        # n = 4 and a dish two others already take: (2 - 1/2) / (1 + 3)
        model = GibbsModel.py(0.5, 1.0)
        cache = build_primitive_cache(model, 4)
        prior_take = (2 - model.alpha) * cache.g10_n
        assert prior_take == pytest.approx(0.375, rel=1e-12)

    @pytest.mark.parametrize(
        "model",
        [GibbsModel.dp(1.5), GibbsModel.py(0.5, 1.0), GibbsModel.py(0.3, 0.8)],
    )
    def test_conditional_matches_joint_ratios(self, model):
        # the per-element conditional must reproduce the joint's odds for
        # every binary matrix and every entry whose dish survives either way
        gamma = 1.3
        alpha = model.stable_index
        checked = 0
        for n in (2, 3):
            cache = build_primitive_cache(model, n)
            g10 = cache.g10_n
            for width in (1, 2):
                for bits in range(2 ** (width * n)):
                    z = np.array(
                        [(bits >> j) & 1 for j in range(width * n)], dtype=np.uint8
                    ).reshape(n, width)
                    counts = z.sum(axis=0)
                    for i in range(n):
                        for k in range(width):
                            s_minus = counts[k] - z[i, k]
                            if s_minus == 0:
                                continue  # row singleton; a different move owns it
                            if any(counts[j] == 0 for j in range(width) if j != k):
                                continue  # not a valid allocation either way
                            z_on = z.copy()
                            z_on[i, k] = 1
                            z_off = z.copy()
                            z_off[i, k] = 0
                            lj_on = log_joint(
                                FeatureAllocation.from_matrix(z_on, gamma),
                                model, gamma, cache=cache,
                            )
                            lj_off = log_joint(
                                FeatureAllocation.from_matrix(z_off, gamma),
                                model, gamma, cache=cache,
                            )
                            implied = 1.0 / (1.0 + math.exp(lj_off - lj_on))
                            assert implied == pytest.approx(
                                (s_minus - alpha) * g10, abs=1e-10
                            )
                            checked += 1
        assert checked > 100


class TestZLogPrior:
    @pytest.mark.parametrize(
        "model",
        [GibbsModel.dp(1.0), GibbsModel.py(0.4, 0.7), GibbsModel.nig(1.5)],
    )
    def test_matches_log_joint(self, model):
        n, gamma = 9, 1.4
        alloc = simulate_ibp(model, gamma, n, seed=11)
        if model.is_closed_form:
            cache = build_primitive_cache(model, n)
        else:
            state = make_state(model, alloc.matrix, gamma=gamma)
            cache = state.cache
        # the slice moves score raw Z columns, which come in any order
        counts = alloc.counts[::-1]
        got = _log_joint_counts(counts, gamma, cache)
        assert got == log_joint(alloc, model, gamma, cache=cache)


def _closed_form_models():
    # DP, and PY over the corners of its parameter space
    yield GibbsModel.dp(1.0)
    yield GibbsModel.dp(1e3)
    for alpha in (1e-6, 0.5, 0.999):
        for theta in (-0.999 * alpha, 1.0, 1e3):
            yield GibbsModel.py(alpha, theta)


def assert_same_primitives(got, want):
    # the reads one sweep makes at depth n, bit for bit (g_{n-1}(1,0) from
    # n = 2 on: the Z block reads none at n = 1)
    n = want.n
    assert got.n == n and got.alpha == want.alpha
    if n > 1:
        assert got.g10_n == want.g10_n
    assert got.g11_n == want.g11_n
    assert got.expected_blocks == want.expected_blocks
    sizes = np.arange(1, n + 1)
    assert np.array_equal(got.log_gs1_at(sizes), want.log_gs1_at(sizes))


def assert_closed_form_reads(primitives, model, n):
    # depth-n reads of DP/PY primitives against the scalar closed forms
    # (bit for bit: the same expressions in the same order), the generic
    # table primitives and the table's block law
    alpha, theta = model.stable_index, model.theta
    assert primitives.n == n
    assert primitives.g11_n == py_primitive_closed(alpha, theta, n - 1, (1, 1))
    if n > 1:
        assert primitives.g10_n == py_primitive_closed(alpha, theta, n - 1, (1, 0))
    table = build_weight_table(model, n)
    gfc = build_gfc_table(n, alpha)
    assert primitives.expected_blocks == pytest.approx(
        expected_blocks(model, n, table=table, gfc=gfc), rel=1e-10, abs=0.0
    )
    log_gs1 = primitives.log_gs1_at(np.arange(1, n + 1))
    # atol: the table route's log-sum-exp rounds a log near 0 by ~1e-12
    want = [log_primitive(table, gfc, n - s, s, 1) for s in range(1, n)]
    np.testing.assert_allclose(log_gs1[:-1], want, rtol=1e-10, atol=1e-10)
    assert log_gs1[-1] == pytest.approx(table.log_weight(n, 1), rel=1e-10, abs=1e-10)


def _random_allocation(rng, n, gamma):
    # up to 30 dishes with sizes spread over [1, n], several sharing a size
    k = int(rng.integers(0, 31))
    sizes = np.concatenate([rng.integers(1, n + 1, size=k), np.full(k // 3, n)])
    z = np.zeros((n, sizes.size), dtype=np.uint8)
    for col, size in enumerate(sizes.tolist()):
        z[rng.choice(n, size=size, replace=False), col] = 1
    return FeatureAllocation.from_matrix(z, gamma)


class TestClosedFormTrialTerms:
    """Closed-form depth-n primitives against the scalar closed forms, the
    table primitives and mpmath."""

    @pytest.mark.parametrize(
        "model", list(_closed_form_models()), ids=lambda model: model.describe()
    )
    def test_depth_n_reads_match_scalar_primitives(self, model):
        alpha, theta = model.stable_index, model.theta
        for n in (1, 2, 100):
            primitives = ClosedFormPrimitives(model, n)
            assert_closed_form_reads(primitives, model, n)
            # every sequence entry has the bits of the scalar closed form
            for j in range(2, n + 1):
                want = py_primitive_closed(alpha, theta, j - 1, (1, 0))
                assert primitives.g10[j - 1] == want
            for j in range(1, n + 1):
                want = py_primitive_closed(alpha, theta, j - 1, (1, 1))
                assert primitives.g11[j - 1] == want

    @pytest.mark.parametrize(
        "model", list(_closed_form_models()), ids=lambda model: model.describe()
    )
    def test_trial_log_joint_matches_dish_by_dish_sum(self, model):
        # against K log gamma - gamma sum_{m<n} g_m(1,1) + sum over dishes of
        # log (1 - alpha)_{S-1} + log g_{n-S}(S,1), the primitives written
        # out from the gamma functions one dish at a time
        alpha, theta = model.stable_index, model.theta
        rng = np.random.default_rng(17)

        def log_gs1(n, s):
            r = n - s
            return (
                special.gammaln(theta + 1.0) + special.gammaln(theta + alpha + r)
                - special.gammaln(theta + alpha) - special.gammaln(theta + r + s)
            )

        for n in (1, 2, 100, 1000):
            trial = ClosedFormPrimitives(model, n)
            g11_sum = math.fsum(py_primitive_closed(alpha, theta, m, (1, 1)) for m in range(n))
            for _ in range(3):
                gamma = float(rng.uniform(0.1, 5.0))
                alloc = _random_allocation(rng, n, gamma)
                counts = rng.permutation(alloc.counts)
                got = _log_joint_counts(counts, gamma, trial)
                want = alloc.dishes * math.log(gamma) - gamma * g11_sum + math.fsum(
                    log_rising_factorial(1.0 - alpha, s - 1) + log_gs1(n, s)
                    for s in counts.tolist()
                )
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (n, alloc.dishes)
                assert log_joint(alloc, model, gamma, cache=trial) == got

    @pytest.mark.parametrize(
        "model",
        [GibbsModel.dp(1.0), GibbsModel.dp(22.0), GibbsModel.py(0.5, 1.0),
         GibbsModel.py(0.3, 0.8), GibbsModel.py(0.9, 50.0)],
        ids=lambda model: model.describe(),
    )
    def test_expected_blocks_match_closed_form(self, model):
        # E[B_n] = sum_{m<n} g_m(1,1), which calibrate solves for, against
        # DP's theta [psi(theta+n) - psi(theta)] and PY's (theta/alpha)
        # [Gamma(theta+alpha+n) Gamma(theta) / (Gamma(theta+alpha)
        # Gamma(theta+n)) - 1], past the dense tables' depth limit too
        with mpmath.workdps(40):
            t = mpmath.mpf(model.theta)
            for n in (1, 7, 2000, 10_000):
                if model.variant == "DP":
                    want = t * (mpmath.digamma(t + n) - mpmath.digamma(t))
                else:
                    a = mpmath.mpf(model.alpha)
                    log_ratio = (
                        mpmath.loggamma(t + a + n) + mpmath.loggamma(t)
                        - mpmath.loggamma(t + a) - mpmath.loggamma(t + n)
                    )
                    want = t / a * mpmath.expm1(log_ratio)
                got = ClosedFormPrimitives(model, n).expected_blocks
                assert got == pytest.approx(float(want), rel=1e-11), n

    @pytest.mark.parametrize(
        "alpha, theta", [(1e-6, 1e3), (1e-6, -0.999e-6), (0.5, 1.0), (0.999, 1e3)]
    )
    def test_reads_match_extended_precision(self, alpha, theta):
        # the g_m(1,1) sum is a gammaln sum, not the telescoped closed form,
        # which loses ~4e-4 relative at alpha = 1e-6, theta = 1e3
        model = GibbsModel.py(alpha, theta)
        with mpmath.workdps(40):
            a, t = mpmath.mpf(alpha), mpmath.mpf(theta)

            def log_g(r, s):
                return (
                    mpmath.loggamma(t + 1) + mpmath.loggamma(t + a + r)
                    - mpmath.loggamma(t + a) - mpmath.loggamma(t + r + s)
                )

            for n in (1, 2, 100):
                sizes = np.unique([1, (n + 1) // 2, n])
                primitives = ClosedFormPrimitives(model, n)
                g11_sum, log_gs1 = primitives.expected_blocks, primitives.log_gs1_at(sizes)
                want_sum = mpmath.fsum(mpmath.exp(log_g(m, 1)) for m in range(n))
                assert g11_sum == pytest.approx(float(want_sum), rel=1e-12)
                for s, got in zip(sizes.tolist(), log_gs1.tolist()):
                    want = float(log_g(n - s, s))
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _row_trial_models():
    # NGG over the corners of (alpha, beta), and NIG
    for alpha in (0.05, 0.5, 0.95):
        for beta in (0.01, 1.0, 100.0):
            yield GibbsModel.ngg(alpha, beta)
    yield GibbsModel.nig(1.0)


class TestNggRowTrialTerms:
    """NGG/NIG row-n primitives against the scalar primitives of the
    weight table filled from the row, and E[B_n] from row n against
    criterion 7's sum and the block law."""

    @staticmethod
    def assert_reads_match(reads, table, gfc, model, n, rng):
        # g_{n-1}(1,0), g_{n-1}(1,1), and log g_{n-s}(s,1) at every s, s = n
        # (g_0(n,1) = V_{n,1}) among them; E[B_n] = sum_{m<n} g_m(1,1),
        # criterion 7's identity for NGG/NIG
        rel = 1e-12
        if n > 1:
            want = primitive(table, gfc, n - 1, 1, 0)
            assert reads.g10_n == pytest.approx(want, rel=rel, abs=0.0)
            want = primitive(table, gfc, n - 1, 1, 1)
            assert reads.g11_n == pytest.approx(want, rel=rel, abs=0.0)
        else:
            assert reads.g11_n == pytest.approx(1.0, rel=rel, abs=0.0)
        assert reads.expected_blocks == pytest.approx(
            expected_blocks(model, n, table=table, gfc=gfc), rel=rel, abs=0.0
        )
        want_log = [log_primitive(table, gfc, n - s, s, 1) for s in range(1, n)]
        want_log.append(table.log_weight(n, 1))
        got_log = reads.log_gs1_at(np.arange(1, n + 1))
        # the absolute term bounds the primitives' relative error where a
        # log is near 0 (the series gives log V_{1,1} = -2e-61 at some
        # corners)
        np.testing.assert_allclose(got_log, want_log, rtol=rel, atol=rel)
        gamma = float(rng.uniform(0.1, 5.0))
        alloc = _random_allocation(rng, n, gamma)
        got = _log_joint_counts(alloc.counts, gamma, reads)
        want = alloc.dishes * math.log(gamma) - gamma * reads.expected_blocks + math.fsum(
            log_rising_factorial(1.0 - model.stable_index, s - 1) + want_log[s - 1]
            for s in alloc.counts.tolist()
        )
        assert got == pytest.approx(want, rel=rel, abs=0.0), (n, alloc.dishes)

    @pytest.mark.parametrize(
        "model", list(_row_trial_models()), ids=lambda model: model.describe()
    )
    def test_row_reads_match_table_primitives(self, model):
        rng = np.random.default_rng(23)
        alpha = model.stable_index
        exact = ngg_weights_smalln(alpha, model.beta, SMALLN_MAX)
        for n in (1, 2, 12, 100):
            # Monte Carlo rows, against the table filled from them
            sampler = NggWeightSampler(alpha, n, 500, seed=n)
            reads = sampler.row_primitives(model.beta)
            self.assert_reads_match(reads, reads.table, sampler.gfc, model, n, rng)
            if n <= SMALLN_MAX:
                # the exact row of the series
                reads = NggRowPrimitives(exact.log_row(n), sampler.gfc)
                self.assert_reads_match(reads, exact, sampler.gfc, model, n, rng)

    @pytest.mark.parametrize(
        "model", list(_row_trial_models()), ids=lambda model: model.describe()
    )
    def test_sequences_agree_with_depth_reads(self, model):
        # one object's table sequences and its row-n reads: the sum of g11
        # is E[B_n] and g10[n-1] is g10_n, each to 1e-12; log_gs1 is the
        # table's log g_{n-s}(s,1)
        alpha = model.stable_index
        for n in (2, 12, 100):
            primitives = depth_primitives(replace(model, mc_config=McConfig(500, n)), n)
            table, gfc = primitives.table, primitives.draws.gfc
            assert primitives.g11.sum() == pytest.approx(
                primitives.expected_blocks, rel=1e-12, abs=0.0
            )
            assert primitives.g10[n - 1] == pytest.approx(
                primitives.g10_n, rel=1e-12, abs=0.0
            )
            want = [log_primitive(table, gfc, n - s, s, 1) for s in range(1, n)]
            np.testing.assert_allclose(primitives.log_gs1[:-1], want, rtol=1e-12, atol=0.0)
            assert alpha == primitives.alpha == table.alpha

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    def test_sampler_gfc_block_slices(self, alpha):
        # row reads slice the sampler's beta-free GFC block, and the g10 and
        # g11 sequences its depth-(n-1) corner: each leading depth-m slice
        # has the bits of the block of a table built at depth m
        n = 30
        block = NggWeightSampler(alpha, n, 500, seed=3).gfc.log_block(n)
        assert not block.flags.writeable
        for depth in (1, 2, n - 1, n):
            want = build_gfc_table(depth, alpha).log_block(depth)
            assert np.array_equal(block[:depth, :depth], want), depth


def _thinned(draws):
    # thin until successive kept draws are nearly uncorrelated
    for thin in range(1, 21):
        kept = draws[::thin]
        if np.corrcoef(kept[:-1], kept[1:])[0, 1] < 0.1:
            return kept
    raise AssertionError("lag-1 autocorrelation stayed above 0.1 up to thinning 20")


def _grid_cdf(log_density, lo, hi, points=4001):
    # CDF of exp(log_density) on [lo, hi], normalised by trapezoid quadrature;
    # the grid must hold essentially all of the mass
    x = np.linspace(lo, hi, points)
    log_f = np.array([log_density(v) for v in x])
    f = np.exp(log_f - log_f.max())
    assert f[0] < 1e-9 and f[-1] < 1e-9, "grid misses part of the mass"
    cdf = integrate.cumulative_trapezoid(f, x, initial=0.0)
    return lambda v: np.interp(v, x, cdf / cdf[-1])


class TestModelMoves:
    """Each coordinate move against its exact 1-D target at a fixed Z.

    The targets are written out here from ibp.log_joint and the priors
    (alpha ~ U(0, 1); theta + alpha ~ Exp(1); beta ~ Exp(1)), not taken
    from the move.
    """

    N, GAMMA = 10, 1.3

    def chain(self, state, move, start, draws=3000, burn_in=50):
        counts = state.z.sum(axis=0).astype(np.int64)
        x = start
        out = np.empty(draws)
        for i in range(burn_in + draws):
            x = inference._slice_model_move(state, counts, move, x)
            if i >= burn_in:
                out[i - burn_in] = x
        return _thinned(out)

    def allocation(self, model, seed):
        alloc = simulate_ibp(model, self.GAMMA, self.N, seed=seed)
        assert alloc.dishes >= 2
        return alloc

    def ks(self, draws, log_density, lo, hi):
        assert draws.size >= 500
        assert np.all(np.isfinite(draws))
        return stats.kstest(draws, _grid_cdf(log_density, lo, hi)).pvalue

    def test_py_discount(self):
        theta = -0.1  # the support is alpha in (0.1, 1)
        alloc = self.allocation(GibbsModel.py(0.4, theta), seed=3)

        def log_density(x):
            alpha = special.expit(x)
            if theta <= -alpha or alpha >= 1.0:
                return -math.inf
            model = GibbsModel.py(alpha, theta)
            return (
                log_joint(alloc, model, self.GAMMA)
                + math.log(alpha) + math.log1p(-alpha)
            )

        state = make_state(GibbsModel.py(0.4, theta), alloc.matrix, seed=21, gamma=self.GAMMA)
        draws = self.chain(state, "discount", float(special.logit(0.4)))
        assert np.all(special.expit(draws) > -theta)
        assert self.ks(draws, log_density, special.logit(0.1), 14.0) > 0.001

    @pytest.mark.parametrize(
        "model", [GibbsModel.dp(1.0), GibbsModel.py(0.3, 0.5)], ids=["DP", "PY"]
    )
    def test_closed_form_second_parameter(self, model):
        alpha = model.stable_index
        alloc = self.allocation(model, seed=4)

        def log_density(x):
            shifted = math.exp(x)
            trial = (
                GibbsModel.dp(shifted) if model.variant == "DP"
                else GibbsModel.py(alpha, shifted - alpha)
            )
            return log_joint(alloc, trial, self.GAMMA) - shifted + x

        state = make_state(model, alloc.matrix, seed=22, gamma=self.GAMMA)
        draws = self.chain(state, "second", math.log(model.theta + alpha))
        assert self.ks(draws, log_density, -14.0, 4.0) > 0.001

    def test_ngg_beta_on_frozen_draws(self):
        model = GibbsModel.ngg(0.5, 1.0)
        alloc = self.allocation(GibbsModel.py(0.5, 1.0), seed=5)
        state = make_state(model, alloc.matrix, seed=23, gamma=self.GAMMA, mc_samples=2000)
        sampler = state.cache.draws
        gfc = build_gfc_table(self.N, 0.5)

        def log_density(x):
            beta = math.exp(x)
            table = weight_table_from_sampler(sampler, beta)
            trial = GibbsModel.ngg(0.5, beta)
            cache = build_primitive_cache(trial, self.N, table=table, gfc=gfc)
            return log_joint(alloc, trial, self.GAMMA, cache=cache) - beta + x

        draws = self.chain(state, "second", 0.0, draws=2400)
        assert state.cache.draws is sampler  # the move never redraws
        assert self.ks(draws, log_density, -26.0, 4.0) > 0.001

    def test_ngg_discount_keeps_cache_coherent(self):
        model = GibbsModel.ngg(0.5, 1.0)
        alloc = self.allocation(GibbsModel.py(0.5, 1.0), seed=5)
        state = make_state(model, alloc.matrix, seed=24, gamma=self.GAMMA, mc_samples=2000)
        seed = state.cache.draws.seed
        counts = alloc.counts
        x = 0.0
        for _ in range(5):
            x = inference._slice_model_move(state, counts, "discount", x)
            alpha = state.model.alpha
            assert 0.0 < alpha < 1.0 and alpha == special.expit(x)
            # the draws follow alpha from the same seed
            draws = state.cache.draws
            assert draws.seed == seed
            assert draws.alpha == alpha and draws.gfc.alpha == alpha
            primitives = depth_primitives(state.model, state.n, state.cache)
            assert primitives.draws is draws
            assert np.array_equal(state.cache.log_row, primitives.log_row)
            assert_same_primitives(state.cache, primitives)

    def test_ngg_beta_move_scores_trials_from_row_n(self, monkeypatch):
        # every evaluated point but the start, which the state's own
        # primitives score, runs one first-moment pass over the draws; no
        # point runs a second-moment pass, fills a table or builds a cache,
        # and the state adopts the accepted trial's primitives, whose table
        # is the one its frozen draws give at beta
        model = GibbsModel.ngg(0.5, 1.0)
        alloc = self.allocation(GibbsModel.py(0.5, 1.0), seed=5)
        state = make_state(model, alloc.matrix, seed=25, gamma=self.GAMMA, mc_samples=2000)
        start_table = state.table
        passes, fills, caches, evals = {1: [], 2: []}, [], [], []
        row_sums = gibbs_weights._exp_row_sums
        fill = gibbs_weights._mc_weight_table
        build = inference.build_primitive_cache
        slice_move = inference.slice_sample

        def counted_sums(shifted, beta, power):
            passes[power].append(beta)
            return row_sums(shifted, beta, power)

        def counted_fill(*args, **kwargs):
            fills.append(len(evals))
            return fill(*args, **kwargs)

        def counted_build(*args, **kwargs):
            caches.append(len(evals))
            return build(*args, **kwargs)

        def counted_slice(log_density, x0, rng):
            def counted(x):
                evals.append(x)
                return log_density(x)
            return slice_move(counted, x0, rng)

        monkeypatch.setattr(gibbs_weights, "_exp_row_sums", counted_sums)
        monkeypatch.setattr(gibbs_weights, "_mc_weight_table", counted_fill)
        monkeypatch.setattr(inference, "build_primitive_cache", counted_build)
        monkeypatch.setattr(gibbs_weights, "build_primitive_cache", counted_build)
        monkeypatch.setattr(inference, "slice_sample", counted_slice)
        x = inference._slice_model_move(state, alloc.counts, "second", 0.0)
        assert evals[0] == 0.0 and len(passes[1]) == len(evals) - 1
        assert passes[1] == [math.exp(e) for e in evals[1:]]
        assert passes[2] == fills == caches == []
        assert state.model.beta == math.exp(x)
        # a sweep with every move on runs no second-moment pass and builds
        # neither a table nor a cache
        config = ChainConfig(update_alpha=True, update_theta=True, update_scales=True)
        y = np.random.default_rng(9).standard_normal((self.N, 2))
        scored = len(passes[1])
        for _ in range(3):
            gibbs_sweep(state, y, config)
        assert len(passes[1]) > scored
        assert passes[2] == fills == caches == []
        assert state.model.alpha != 0.5  # the discount moved
        monkeypatch.undo()
        primitives = depth_primitives(state.model, state.n, state.cache)
        assert primitives.draws is state.cache.draws
        assert_same_primitives(state.cache, primitives)
        table = state.table
        assert table is not start_table and state.table is table  # filled once
        direct = weight_table_from_sampler(state.cache.draws, state.model.beta)
        assert np.array_equal(table._log, direct._log)
        assert np.array_equal(table._rel_se, direct._rel_se)

    def test_ngg_target_is_one_function_of_beta(self, monkeypatch):
        # the target at the state's own beta (its stored primitives) and at
        # the same beta from a fresh state, as a trial or as its start,
        # agree to the bit
        model = GibbsModel.ngg(0.5, 1.0)
        alloc = self.allocation(GibbsModel.py(0.5, 1.0), seed=5)
        counts = alloc.counts
        state = make_state(model, alloc.matrix, seed=26, gamma=self.GAMMA, mc_samples=2000)
        x = inference._slice_model_move(state, counts, "second", 0.0)
        beta = state.model.beta
        assert beta == math.exp(x) and beta != 1.0
        assert isinstance(state.cache, gibbs_weights.NggRowPrimitives)
        values = []

        def probe(log_density, x0, rng):
            values.append(log_density(x))
            return x

        monkeypatch.setattr(inference, "slice_sample", probe)
        fresh = make_state(model, alloc.matrix, seed=26, gamma=self.GAMMA, mc_samples=2000)
        at_beta = make_state(
            replace(model, beta=beta), alloc.matrix, seed=26, gamma=self.GAMMA,
            mc_samples=2000,
        )
        for chain in (state, fresh, at_beta):
            inference._slice_model_move(chain, counts, "second", x)
        assert math.isfinite(values[0]) and values == [values[0]] * 3

    @pytest.mark.parametrize(
        "model, move, name",
        [
            (GibbsModel.py(0.4, 1.0), "discount", "logit_alpha"),
            (GibbsModel.dp(1.0), "second", "log_theta_plus_alpha"),
            (GibbsModel.ngg(0.5, 1.0), "second", "log_beta"),
        ],
        ids=["discount", "theta", "beta"],
    )
    def test_stuck_move_names_its_coordinate(self, model, move, name, monkeypatch):
        # finite only at the start point: shrinkage must give up by name.
        # Every subclass's log joint ends in _SizeHistogram.log_joint, which
        # _log_joint_counts and the closed-form trials share
        alloc = self.allocation(GibbsModel.py(0.4, 1.0), seed=3)
        state = make_state(model, alloc.matrix, gamma=self.GAMMA, mc_samples=2000)
        calls = []

        def point_mass(*args):
            calls.append(args)
            return 0.0 if len(calls) == 1 else -math.inf

        monkeypatch.setattr(ibp._SizeHistogram, "log_joint", point_mass)
        with pytest.raises(RuntimeError, match=name):
            inference._slice_model_move(state, alloc.counts, move, 0.0)


    @pytest.mark.parametrize(
        "model, move, points",
        [
            (GibbsModel.dp(1.0), "second", (-800.0,)),
            # theta + alpha rounds to 0 at x = -50, theta to -alpha at -800
            (GibbsModel.py(0.4, 1.0), "second", (-50.0, -800.0)),
            # alpha rounds to 0 at x = -800 and to 1 at x = 800
            (GibbsModel.py(0.4, 1.0), "discount", (-800.0, 800.0)),
            # alpha = 0.3 leaves theta = -0.5 below -alpha
            (GibbsModel.py(0.6, -0.5), "discount", (float(special.logit(0.3)),)),
            (GibbsModel.ngg(0.5, 1.0), "second", (-800.0,)),
            (GibbsModel.ngg(0.5, 1.0), "discount", (-800.0, 800.0)),
            (GibbsModel.nig(1.0), "second", (-800.0,)),
        ],
        ids=["dp-theta", "py-theta", "py-discount", "py-discount-theta-bound",
             "ngg-beta", "ngg-discount", "nig-beta"],
    )
    def test_support_edges_score_minus_inf(self, model, move, points, monkeypatch):
        # the move's own target at points whose parameters round onto a
        # bound of the support: -inf, with no error; the state adopts the
        # start point, evaluated last
        alloc = self.allocation(GibbsModel.py(0.4, 1.0), seed=3)
        state = make_state(model, alloc.matrix, gamma=self.GAMMA, mc_samples=2000)
        start = state.model
        values = []

        def probe(log_density, x0, rng):
            values.extend(log_density(x) for x in points)
            assert math.isfinite(float(log_density(x0)))
            return x0

        monkeypatch.setattr(inference, "slice_sample", probe)
        x0 = model.second_coordinate
        if move == "discount":
            x0 = float(special.logit(model.alpha))
        inference._slice_model_move(state, alloc.counts, move, x0)
        assert values == [-math.inf] * len(points)
        if move == "discount":
            assert state.model == replace(start, alpha=float(special.expit(x0)))
        else:
            assert state.model == start.with_second_coordinate(x0)


class TestClosedFormMoves:
    """DP/PY slice moves score trials in closed form and build no cache."""

    @pytest.mark.parametrize(
        "model, move",
        [
            (GibbsModel.dp(1.0), "second"),
            (GibbsModel.py(0.4, 0.7), "second"),
            (GibbsModel.py(0.4, 0.7), "discount"),
        ],
        ids=["DP-theta", "PY-theta", "PY-discount"],
    )
    def test_accepted_cache_is_the_closed_forms(self, model, move, monkeypatch):
        alloc = simulate_ibp(model, 1.3, 10, seed=3)
        state = make_state(model, alloc.matrix, seed=31, gamma=1.3)
        builds = []
        build = inference.build_primitive_cache

        def counted_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(inference, "build_primitive_cache", counted_build)
        x = math.log(model.theta + model.stable_index)
        if move == "discount":
            x = float(special.logit(model.alpha))
        start = state.model
        for _ in range(20):
            x = inference._slice_model_move(state, alloc.counts, move, x)
            assert not builds
            assert state.table is None
            assert isinstance(state.cache, ClosedFormPrimitives)
            # the accepted primitives are the closed forms at the model
            assert_closed_form_reads(state.cache, state.model, state.n)
        assert state.model != start


def reference_slice_model_move(state, counts, move, start):
    """A DP/PY slice move as it was written before trials were scored with
    no objects: every trial builds its GibbsModel and ClosedFormPrimitives
    and scores them with _log_joint_counts."""
    model = state.model
    last = None

    def target(x):
        nonlocal last
        if move == "discount":
            alpha = float(special.expit(x))
            if not 0.0 < alpha < 1.0 or (model.variant == "PY" and model.theta <= -alpha):
                return -math.inf
            trial, terms = replace(model, alpha=alpha), (math.log(alpha), math.log1p(-alpha))
        else:
            trial, terms = model.with_second_coordinate(x), (-math.exp(x), x)
        if trial == state.model and state.cache is not None:
            primitives = state.cache
        else:
            primitives = depth_primitives(trial, state.n, state.cache)
        last = (trial, primitives)
        return _log_joint_counts(counts, state.gamma, primitives) + terms[0] + terms[1]

    x = slice_sample(target, start, state.rng)
    state.model, state.cache = last
    return x


class TestClosedFormScorer:
    """The DP/PY slice trials' scorer against _log_joint_counts and the
    per-trial move it replaces."""

    def test_matches_log_joint_counts_to_the_bit(self):
        rng = np.random.default_rng(11)
        for case in range(3000):
            n = int(rng.integers(1, 301))
            k = int(rng.integers(0, 31))
            counts = rng.integers(1, n + 1, size=k)
            if case % 2:
                alpha = float(rng.uniform(0.01, 0.99))
                # theta in (-alpha, 20]; a third of the cases log-uniform in
                # theta + alpha, down to 1e-12
                if case % 3:
                    gap = (20.0 + alpha) * (1.0 - rng.random())
                else:
                    gap = 10.0 ** rng.uniform(-12.0, math.log10(20.0 + alpha))
                model = GibbsModel.py(alpha, -alpha + gap)
            else:
                model = GibbsModel.dp(20.0 * (1.0 - rng.random()))
            gamma = 0.0 if case % 10 == 3 else float(rng.exponential(3.0))
            dishes = _SizeHistogram(counts, gamma)
            alpha = model.stable_index
            got, terms = inference._closed_form_log_joint(
                dishes, dishes.log_rising(alpha), alpha, model.theta, n
            )
            want = _log_joint_counts(counts, gamma, ClosedFormPrimitives(model, n))
            assert got == want, (case, n, k, model, gamma)
            # with the alpha-free terms given, as a discount move gives them
            lower = (
                gibbs_weights.closed_form_g11_lower(model.theta, n),
                gibbs_weights.closed_form_gs1_lower(model.theta, n, dishes.sizes),
            )
            assert inference._closed_form_log_joint(
                dishes, dishes.log_rising(alpha), alpha, model.theta, n, lower
            )[0] == want
            if k and gamma == 0.0:
                assert got == -math.inf
            else:
                assert math.isfinite(got)
            assert_same_primitives(
                ClosedFormPrimitives(model, n, terms), ClosedFormPrimitives(model, n)
            )

    @pytest.mark.parametrize(
        "model, move",
        [
            (GibbsModel.dp(1.0), "second"),
            (GibbsModel.py(0.4, 0.7), "second"),
            (GibbsModel.py(0.4, 0.7), "discount"),
            (GibbsModel.py(0.6, -0.5), "discount"),
        ],
        ids=["DP-theta", "PY-theta", "PY-discount", "PY-discount-near-support"],
    )
    def test_move_matches_per_trial_reference(self, model, move):
        for seed in range(4):
            alloc = simulate_ibp(model, 2.0, 40, seed=seed)
            state = make_state(model, alloc.matrix, seed=50 + seed, gamma=2.0)
            twin = make_state(model, alloc.matrix, seed=50 + seed, gamma=2.0)
            counts = alloc.counts
            x = math.log(model.theta + model.stable_index)
            if move == "discount":
                x = float(special.logit(model.alpha))
            twin_x = x
            for _ in range(25):
                x = inference._slice_model_move(state, counts, move, x)
                twin_x = reference_slice_model_move(twin, counts, move, twin_x)
                assert x == twin_x
                assert state.model == twin.model
                assert state.rng.bit_generator.state == twin.rng.bit_generator.state
                assert_same_primitives(state.cache, twin.cache)
            assert state.model != model

    @pytest.mark.parametrize(
        "model, move",
        [
            (GibbsModel.dp(1.0), "second"),
            (GibbsModel.py(0.4, 0.7), "second"),
            (GibbsModel.py(0.4, 0.7), "discount"),
        ],
        ids=["DP-theta", "PY-theta", "PY-discount"],
    )
    def test_move_builds_at_most_one_primitives(self, model, move, monkeypatch):
        alloc = simulate_ibp(model, 1.3, 30, seed=7)
        state = make_state(model, alloc.matrix, seed=32, gamma=1.3)
        builds, models = [], []
        build, check = ClosedFormPrimitives.__init__, GibbsModel.__post_init__

        def counted_build(self, *args, **kwargs):
            builds.append(args)
            build(self, *args, **kwargs)

        def counted_model(self):
            models.append(self)
            check(self)

        monkeypatch.setattr(ClosedFormPrimitives, "__init__", counted_build)
        monkeypatch.setattr(GibbsModel, "__post_init__", counted_model)
        x = math.log(model.theta + model.stable_index)
        if move == "discount":
            x = float(special.logit(model.alpha))
        for _ in range(20):
            builds.clear()
            models.clear()
            cache = state.cache
            x = inference._slice_model_move(state, alloc.counts, move, x)
            assert len(builds) <= 1 and len(models) <= 1
            # the state's own primitives stay where the move stays put
            assert (state.cache is cache) == (not builds)


class TestGammaUpdate:
    def five_dish_state(self):
        # n = 3 rows covering five dishes
        z = np.array(
            [[1, 1, 1, 0, 0], [0, 1, 0, 1, 1], [1, 0, 1, 1, 0]], dtype=np.uint8
        )
        return make_state(GibbsModel.dp(1.0), z, seed=3)

    def test_posterior_parameters(self):
        state = self.five_dish_state()
        shape, rate = gamma_posterior(state.dishes, Priors(), state.cache)
        assert shape == pytest.approx(6.0, abs=0)
        assert rate == pytest.approx(1.0 + 11.0 / 6.0, rel=1e-12)

    def test_draws_match_conjugate_law(self):
        state = self.five_dish_state()
        shape, rate = gamma_posterior(state.dishes, Priors(), state.cache)
        config = ChainConfig()
        draws = np.empty(4000)
        from gibbsibp.inference import _resample_gamma

        for i in range(draws.size):
            _resample_gamma(state, config.priors)
            draws[i] = state.gamma
        ks = stats.kstest(draws, stats.gamma(a=shape, scale=1.0 / rate).cdf)
        assert ks.pvalue > 0.001


class TestScaleUpdate:
    def test_draws_match_inverse_gamma_laws(self):
        # with Z, W and A fixed each variance's conditional is
        # IG(1 + m/2, 1 + ssq/2) over the m terms it scales, whatever the
        # current scales, so successive draws are independent
        from gibbsibp.inference import _update_scales

        z = np.array([[1, 0], [1, 1], [0, 1], [1, 1]], dtype=np.uint8)
        state = make_state(GibbsModel.dp(1.0), z, p=3, seed=6)
        y = np.random.default_rng(11).standard_normal((4, 3))
        resid = y - (state.w * state.z) @ state.a
        laws = {
            "sigma_y": (resid.size, float((resid ** 2).sum())),
            "sigma_w": (state.w.size, float((state.w ** 2).sum())),
        }
        for j in range(3):
            laws[f"sigma_a_{j}"] = (state.dishes, float((state.a[:, j] ** 2).sum()))
        draws = {name: np.empty(4000) for name in laws}
        for i in range(4000):
            _update_scales(state, y)
            draws["sigma_y"][i] = state.sigma_y ** 2
            draws["sigma_w"][i] = state.sigma_w ** 2
            for j in range(3):
                draws[f"sigma_a_{j}"][i] = state.sigma_a[j] ** 2
        for name, (m, ssq) in laws.items():
            law = stats.invgamma(a=1.0 + 0.5 * m, scale=1.0 + 0.5 * ssq)
            assert stats.kstest(draws[name], law.cdf).pvalue > 0.001, name


class TestSliceSampler:
    def test_preserves_standard_normal(self):
        # one update started from an exact draw must leave the law invariant
        rng = np.random.default_rng(7)
        logf = lambda x: -0.5 * x * x
        draws = np.array(
            [slice_sample(logf, rng.standard_normal(), rng) for _ in range(2500)]
        )
        ks = stats.kstest(draws, stats.norm.cdf)
        assert ks.pvalue > 0.001

    def test_rejects_bad_start(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            slice_sample(lambda x: -math.inf if x < 10 else 0.0, 0.0, rng)

    def test_shrinkage_is_capped(self):
        # finite only at x0 = 0: shrinkage closes in on 0 without landing on
        # it, so the sampler must give up with an error naming the density
        def point_mass(x):
            return 0.0 if x == 0.0 else -math.inf

        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError, match="point_mass"):
            slice_sample(point_mass, 0.0, rng)


class TestConjugateBlocks:
    def test_weight_update_single_entry_law(self):
        # n = K = p = 1: W | rest is Gaussian with known mean and variance
        model = GibbsModel.dp(1.0)
        a0, y0, sy, sw = 1.5, 2.0, 0.7, 1.3
        y = np.array([[y0]])
        var = 1.0 / (a0 ** 2 / sy ** 2 + 1.0 / sw ** 2)
        mean = var * a0 * y0 / sy ** 2
        from gibbsibp.inference import _resample_w

        state = make_state(model, [[1]], p=1, sigma_y=sy, sigma_w=sw, seed=2)
        state.a = np.array([[a0]])
        draws = np.empty(4000)
        for i in range(draws.size):
            _resample_w(state, y)
            draws[i] = state.w[0, 0]
        ks = stats.kstest(draws, stats.norm(mean, math.sqrt(var)).cdf)
        assert ks.pvalue > 0.001

    def test_loading_update_single_entry_law(self):
        model = GibbsModel.dp(1.0)
        w0, y0, sy, sa = 0.8, -1.0, 0.5, 2.0
        y = np.array([[y0]])
        var = 1.0 / (w0 ** 2 / sy ** 2 + 1.0 / sa ** 2)
        mean = var * w0 * y0 / sy ** 2
        from gibbsibp.inference import _resample_a

        state = make_state(model, [[1]], p=1, sigma_y=sy, seed=4)
        state.sigma_a = np.array([sa])
        state.w = np.array([[w0]])
        draws = np.empty(4000)
        for i in range(draws.size):
            _resample_a(state, y)
            draws[i] = state.a[0, 0]
        ks = stats.kstest(draws, stats.norm(mean, math.sqrt(var)).cdf)
        assert ks.pvalue > 0.001

    def test_inactive_weights_refresh_from_prior(self):
        model = GibbsModel.dp(1.0)
        z = np.array([[1, 0], [1, 1]], dtype=np.uint8)
        state = make_state(model, z, sigma_w=2.0, seed=9)
        y = np.zeros((2, 2))
        from gibbsibp.inference import _resample_w

        draws = np.empty(3000)
        for i in range(draws.size):
            _resample_w(state, y)
            draws[i] = state.w[0, 1]
        ks = stats.kstest(draws, stats.norm(0.0, 2.0).cdf)
        assert ks.pvalue > 0.001


def reference_resample_z(state, y):
    # the per-entry Z block written on p-vectors, dish by dish, one uniform
    # per entry whether or not the entry uses it
    n = state.n
    if n < 2 or state.dishes == 0:
        return
    alpha = state.model.stable_index
    g10 = state.cache.g10_n
    counts = state.z.sum(axis=0).astype(np.int64)
    resid = y - (state.w * state.z) @ state.a
    inv_two_var = 1.0 / (2.0 * state.sigma_y ** 2)
    for k in range(state.dishes):
        for i in range(n):
            u = state.rng.random()
            s_minus = counts[k] - state.z[i, k]
            if s_minus == 0:
                continue
            prior_take = (s_minus - alpha) * g10
            if not 0.0 <= prior_take <= 1.0:
                raise ValueError("dish-take prior left [0, 1]; the primitives are corrupt")
            shift = state.w[i, k] * state.a[k]
            if state.z[i, k]:
                r_on = resid[i]
                r_off = resid[i] + shift
            else:
                r_off = resid[i]
                r_on = resid[i] - shift
            log_odds = (
                math.log(prior_take)
                - math.log1p(-prior_take)
                + (float(r_off @ r_off) - float(r_on @ r_on)) * inv_two_var
            ) if prior_take < 1.0 else math.inf
            take = u < special.expit(log_odds)
            if take != bool(state.z[i, k]):
                counts[k] += 1 if take else -1
                state.z[i, k] = take
            resid[i] = r_on if take else r_off


def reference_resample_w(state, y):
    # one row at a time: inactive weights from the prior, then the
    # conjugate draw of the active ones
    var_y = state.sigma_y ** 2
    for i in range(state.n):
        active = np.nonzero(state.z[i])[0]
        inactive = state.z[i] == 0
        if inactive.any():
            state.w[i, inactive] = state.rng.normal(
                0.0, state.sigma_w, size=int(inactive.sum())
            )
        if active.size == 0:
            continue
        a_act = state.a[active]
        precision = a_act @ a_act.T / var_y + np.eye(active.size) / state.sigma_w ** 2
        chol = np.linalg.cholesky(precision)
        mean = np.linalg.solve(precision, a_act @ y[i] / var_y)
        noise = np.linalg.solve(chol.T, state.rng.standard_normal(active.size))
        state.w[i, active] = mean + noise


def reference_resample_a(state, y):
    # one data column at a time
    k = state.dishes
    if k == 0:
        return
    var_y = state.sigma_y ** 2
    x = state.w * state.z
    xtx = x.T @ x / var_y
    xty = x.T @ y / var_y
    eye = np.eye(k)
    for j in range(state.p):
        precision = xtx + eye / state.sigma_a[j] ** 2
        chol = np.linalg.cholesky(precision)
        mean = np.linalg.solve(precision, xty[:, j])
        noise = np.linalg.solve(chol.T, state.rng.standard_normal(k))
        state.a[:, j] = mean + noise


class TestBlocksAgainstReference:
    """The Z, W and A blocks against their one-entry-at-a-time forms.

    Z and the RNG stream must match exactly; W and A to 1e-12, with the
    same RNG state after.
    """

    def twin_states(self, z, seed, p=5, sigma_y=0.7, model=None):
        model = model or GibbsModel.py(0.5, 1.0)
        fast = make_state(model, z, seed=seed, p=p, sigma_y=sigma_y)
        reference = make_state(model, z, seed=seed, p=p, sigma_y=sigma_y)
        fast.sigma_a = reference.sigma_a = np.linspace(0.5, 2.0, p)
        return fast, reference

    def random_z(self, rng, n, k):
        z = (rng.random((n, k)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        z[rng.integers(n, size=k), np.arange(k)] = 1  # no empty dish
        return z

    def cases(self):
        rng = np.random.default_rng(2024)
        yield np.zeros((6, 0), dtype=np.uint8), rng.standard_normal((6, 5))
        yield np.ones((1, 3), dtype=np.uint8), rng.standard_normal((1, 5))
        yield np.array([[1, 0], [1, 1]], dtype=np.uint8), rng.standard_normal((2, 5))
        # row 0 holds only singletons; row 3 takes nothing
        z = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0], [0, 0, 0, 0]], dtype=np.uint8)
        yield z, rng.standard_normal((4, 5))
        for n, k in ((2, 1), (7, 3), (20, 8), (40, 15)):
            yield self.random_z(rng, n, k), rng.standard_normal((n, 5))

    def run_both(self, block, reference, fast, ref, y):
        block(fast, y)
        reference(ref, y)
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_z_block_exact(self):
        for seed, (z, y) in enumerate(self.cases()):
            fast, ref = self.twin_states(z, seed)
            self.run_both(inference._resample_z, reference_resample_z, fast, ref, y)
            assert np.array_equal(fast.z, ref.z), seed

    def test_z_block_exact_on_many_flips(self):
        # data unrelated to the state: about half the entries flip
        rng = np.random.default_rng(11)
        flips = 0
        for seed in range(20):
            z = self.random_z(rng, 30, 10)
            fast, ref = self.twin_states(z, seed, sigma_y=3.0)
            y = rng.standard_normal((30, 5)) * 3.0
            self.run_both(inference._resample_z, reference_resample_z, fast, ref, y)
            assert np.array_equal(fast.z, ref.z), seed
            flips += int((fast.z != z).sum())
        assert flips > 500

    def test_z_block_exact_past_exp_overflow(self):
        # sigma_Y = 1e-6 on noiseless data: every flip costs a log odds far
        # below -710, where math.exp(-log_odds) overflows
        rng = np.random.default_rng(12)
        z = self.random_z(rng, 12, 4)
        fast, ref = self.twin_states(z, 3, sigma_y=1e-6)
        y = (ref.w * ref.z) @ ref.a
        shift = ref.w[0, 0] * ref.a[0]
        assert float(shift @ shift) / (2.0 * 1e-12) > 710.0
        self.run_both(inference._resample_z, reference_resample_z, fast, ref, y)
        assert np.array_equal(fast.z, ref.z) and np.array_equal(fast.z, z)

    def test_z_block_exact_at_certain_take(self):
        # hand-set DP primitives with g_2(1, 0) = 1/2, the one read the Z
        # block makes: a dish the two other rows take has prior take
        # probability (2 - 0) / 2 = 1, whatever the likelihood says
        model = GibbsModel.dp(1.0)
        z = np.array([[0, 0], [1, 1], [1, 1]], dtype=np.uint8)
        y = np.random.default_rng(13).standard_normal((3, 5)) * 50.0
        fast, ref = self.twin_states(z, 4, model=model)
        for state in (fast, ref):
            state.cache = SimpleNamespace(g10_n=0.5)
        assert (2 - model.stable_index) * fast.cache.g10_n == 1.0
        self.run_both(inference._resample_z, reference_resample_z, fast, ref, y)
        assert np.array_equal(fast.z, ref.z)
        assert fast.z.all()

    def test_z_block_keeps_corrupt_prior_error(self):
        model = GibbsModel.dp(1.0)
        fast, _ = self.twin_states(np.ones((3, 2), dtype=np.uint8), 5, model=model)
        fast.cache = SimpleNamespace(g10_n=0.75)  # (2 - 0) 0.75 > 1
        with pytest.raises(ValueError, match="dish-take prior"):
            inference._resample_z(fast, np.zeros((3, 5)))

    def test_z_block_draws_live_entry_from_full_conditional(self):
        # every entry but (3, 0) is pinned by its likelihood: a flip would
        # cost it more than 50 nats.  Row 3's data sits 0.55 of the way
        # from its off to its on value along w_30 a_0, so (3, 0) has an
        # O(1) likelihood term, and each Z block draws it afresh from
        # expit(prior(s_minus) + lik) given the pinned rest, with
        # s_minus = 3 (rows 0-2 take dish 0 before its turn).
        model = GibbsModel.py(0.5, 1.0)
        z = np.array([[1, 0], [1, 1], [1, 0], [0, 1], [0, 1]], dtype=np.uint8)
        state = make_state(model, z, seed=21, p=6, sigma_y=0.5)
        state.w = np.where(state.w < 0, -3.0, 3.0)
        state.w[3, 0] = 0.6
        y = (state.w * z) @ state.a
        y[3] += 0.55 * state.w[3, 0] * state.a[0]
        resid = y - (state.w * z) @ state.a
        inv_two_var = 1.0 / (2.0 * 0.5 ** 2)
        shift = state.w[:, :, None] * state.a[None]  # (i, k): w_ik a_k
        on_resid = np.where(z[..., None] == 1, resid[:, None], resid[:, None] - shift)
        off_resid = on_resid + shift
        lik = ((off_resid ** 2).sum(-1) - (on_resid ** 2).sum(-1)) * inv_two_var
        pinned = np.ones_like(z, dtype=bool)
        pinned[3, 0] = False
        assert np.all(np.abs(lik[pinned]) > 50.0)
        prior_take = (3 - 0.5) * state.cache.g10_n
        exact = special.expit(special.logit(prior_take) + lik[3, 0])
        assert 0.2 < exact < 0.8
        takes = 0
        reps = 4000
        for _ in range(reps):
            inference._resample_z(state, y)
            assert np.array_equal(state.z[pinned], z[pinned])
            takes += int(state.z[3, 0])
        assert stats.binomtest(takes, reps, exact).pvalue > 1e-3

    def test_w_block_matches(self):
        for seed, (z, y) in enumerate(self.cases()):
            fast, ref = self.twin_states(z, seed)
            self.run_both(inference._resample_w, reference_resample_w, fast, ref, y)
            np.testing.assert_allclose(fast.w, ref.w, rtol=1e-12, atol=1e-12)

    def test_a_block_matches(self):
        for seed, (z, y) in enumerate(self.cases()):
            fast, ref = self.twin_states(z, seed)
            self.run_both(inference._resample_a, reference_resample_a, fast, ref, y)
            np.testing.assert_allclose(fast.a, ref.a, rtol=1e-12, atol=1e-12)


def reference_singleton_move(state, y):
    # the per-row singleton move, drawing in the batched move's order: every
    # row's count, then the proposing rows' weights, their loadings and a
    # uniform per proposing row, then the other rows' weights of the
    # accepted dishes.  Each row's residual and own mask are rebuilt from
    # the current state, which the rows before it have changed.
    n, p, rng = state.n, state.p, state.rng
    rate = state.gamma * state.cache.g11_n
    inv_two_var = 1.0 / (2.0 * state.sigma_y ** 2)
    counts = state.z.sum(axis=0)
    k_new_rows = [int(rng.poisson(rate)) for _ in range(n)]
    proposing = [
        i for i in range(n) if k_new_rows[i] or ((counts == 1) & (state.z[i] == 1)).any()
    ]
    weights = [rng.normal(0.0, state.sigma_w) for i in proposing for _ in range(k_new_rows[i])]
    loadings = [
        rng.standard_normal(p) * state.sigma_a for i in proposing for _ in range(k_new_rows[i])
    ]
    uniforms = [rng.random() for _ in proposing]
    born_rows = []  # the row of each appended dish, in column order
    for i, u in zip(proposing, uniforms):
        k_new = k_new_rows[i]
        w_new, weights = np.array(weights[:k_new]), weights[k_new:]
        a_new, loadings = np.array(loadings[:k_new]).reshape(k_new, p), loadings[k_new:]
        own = (counts == 1) & (state.z[i] == 1)
        assert own.any() or k_new
        row_resid = y[i] - (state.w[i] * state.z[i]) @ state.a
        without_own = row_resid + (state.w[i][own] @ state.a[own])
        proposed = without_own - (w_new @ a_new if k_new else 0.0)
        log_ratio = (
            float(row_resid @ row_resid) - float(proposed @ proposed)
        ) * inv_two_var
        if not math.log(u) < log_ratio:
            continue
        keep = ~own
        fresh_z = np.zeros((n, k_new), dtype=np.uint8)
        fresh_z[i] = 1
        fresh_w = np.zeros((n, k_new))  # the other rows' weights come last
        fresh_w[i] = w_new
        state.z = np.concatenate([state.z[:, keep], fresh_z], axis=1)
        state.w = np.concatenate([state.w[:, keep], fresh_w], axis=1)
        state.a = np.concatenate([state.a[keep], a_new], axis=0)
        counts = np.concatenate([counts[keep], np.ones(k_new, dtype=counts.dtype)])
        born_rows += [i] * k_new
    if born_rows:
        born = len(born_rows)
        fresh = rng.normal(0.0, state.sigma_w, size=(n, born))
        others = np.arange(n)[:, None] != np.array(born_rows)
        state.w[:, state.dishes - born:][others] = fresh[others]


class TestSingletonMove:
    def twin_states(self, z, seed, sigma_y, gamma=3.0, p=4):
        model = GibbsModel.py(0.5, 1.0)
        fast = make_state(model, z, seed=seed, gamma=gamma, p=p, sigma_y=sigma_y)
        ref = make_state(model, z, seed=seed, gamma=gamma, p=p, sigma_y=sigma_y)
        fast.sigma_a = ref.sigma_a = np.linspace(0.5, 2.0, p)
        return fast, ref

    def cases(self):
        rng = np.random.default_rng(7)
        # K = 0
        yield np.zeros((6, 0), dtype=np.uint8), rng.standard_normal((6, 4))
        # rows 0, 2 and 3 own singletons (row 0 two of them), row 1 none
        z = np.array(
            [[1, 1, 1, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 0, 1]],
            dtype=np.uint8,
        )
        yield z, rng.standard_normal((4, 4))
        for n, k in ((8, 5), (25, 12)):
            z = (rng.random((n, k)) < 0.15).astype(np.uint8)
            z[rng.integers(n, size=k), np.arange(k)] = 1
            yield z, rng.standard_normal((n, 4))

    @pytest.mark.parametrize("sigma_y", [1e3, 1.0, 0.3])
    def test_matches_per_row_reference(self, sigma_y):
        # sigma_Y = 1e3 accepts nearly every proposal; smaller values mix
        # accepts and rejects.  z, w, a and the stream match exactly.
        from gibbsibp.inference import _singleton_move

        accepts = 0
        for seed, (z, y) in enumerate(self.cases()):
            fast, ref = self.twin_states(z, seed, sigma_y)
            for _ in range(5):
                before = ref.z.copy()
                _singleton_move(fast, y)
                reference_singleton_move(ref, y)
                assert fast.rng.bit_generator.state == ref.rng.bit_generator.state
                for name in ("z", "w", "a"):
                    got, want = getattr(fast, name), getattr(ref, name)
                    assert got.shape == want.shape and np.array_equal(got, want), name
                accepts += before.shape != ref.z.shape or not np.array_equal(before, ref.z)
        assert accepts >= 5

    def test_flat_likelihood_reaches_poisson_counts(self):
        # with sigma_Y enormous the acceptance ratio is ~1 and each row's
        # singleton count refreshes to Poisson(gamma * g_{n-1}(1, 1)),
        # independently of the other rows' counts
        model = GibbsModel.dp(1.0)
        gamma, n = 6.0, 3
        state = make_state(model, np.eye(n, dtype=np.uint8), gamma=gamma,
                           sigma_y=1e8, seed=6)
        y = np.zeros((n, 2))
        rate = gamma * state.cache.g11_n
        assert rate == pytest.approx(2.0, rel=1e-12)  # g_2(1, 1) = 1/3 under DP(1)
        from gibbsibp.inference import _singleton_move

        counts = np.empty((3000, n), dtype=np.int64)
        for t in range(len(counts)):
            _singleton_move(state, y)
            assert (state.z.sum(axis=0) == 1).all()  # every dish stays a singleton
            counts[t] = state.z.sum(axis=1)
        law = stats.poisson(rate)
        for row in counts.T:
            grid = np.arange(row.max() + 1)
            expected = law.pmf(grid) * row.size
            observed = np.bincount(row, minlength=grid.size).astype(float)
            keep = expected > 5
            chi2 = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
            assert stats.chi2(keep.sum() - 1).sf(chi2) > 0.001
        # each pair of rows against the product of two Poisson laws, with
        # counts of 4 or more pooled
        cap = 4
        pmf = law.pmf(np.arange(cap))
        pmf = np.append(pmf, 1.0 - pmf.sum())
        expected = np.outer(pmf, pmf) * len(counts)
        binned = np.minimum(counts, cap)
        for first, second in itertools.combinations(range(n), 2):
            observed = np.zeros_like(expected)
            np.add.at(observed, (binned[:, first], binned[:, second]), 1.0)
            chi2 = float(((observed - expected) ** 2 / expected).sum())
            assert stats.chi2(expected.size - 1).sf(chi2) > 0.001, (first, second)

    def test_zero_rate_only_deletes(self):
        model = GibbsModel.dp(1.0)
        state = make_state(model, np.eye(3, dtype=np.uint8), gamma=0.0, sigma_y=1e8)
        y = np.zeros((3, 2))
        from gibbsibp.inference import _singleton_move

        for _ in range(50):
            _singleton_move(state, y)
        assert state.dishes == 0


class TestSweepAndChain:
    def test_sweep_never_leaves_empty_dishes(self):
        model = GibbsModel.py(0.4, 1.0)
        rng = np.random.default_rng(3)
        y = rng.standard_normal((15, 3))
        config = ChainConfig(iterations=0, seed=8, update_scales=True,
                             update_theta=True, update_alpha=True)
        state = initial_state(model, y, config)
        for _ in range(25):
            gibbs_sweep(state, y, config)
            counts = state.z.sum(axis=0)
            assert counts.min(initial=1) >= 1
            alloc = state.allocation  # must stay liftable to an allocation
            assert alloc.dishes == state.dishes

    @pytest.mark.parametrize(
        "model, moves",
        [
            (GibbsModel.dp(1.0), dict(update_theta=True)),
            (GibbsModel.py(0.4, 1.0),
             dict(update_alpha=True, update_theta=True, update_scales=True)),
        ],
        ids=["dp", "py"],
    )
    def test_hyper_moves_keep_cache_coherent(self, model, moves, monkeypatch):
        # sweeps build no cache, and the state's primitives are the closed
        # forms at the model they reached
        rng = np.random.default_rng(5)
        y = rng.standard_normal((10, 2))
        config = ChainConfig(iterations=0, seed=1, **moves)
        state = initial_state(model, y, config)

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep built a primitive cache")

        monkeypatch.setattr(inference, "build_primitive_cache", refuse)
        monkeypatch.setattr(gibbs_weights, "build_primitive_cache", refuse)
        for _ in range(10):
            gibbs_sweep(state, y, config)
        assert state.model != model
        assert_closed_form_reads(state.cache, state.model, state.n)

    @pytest.mark.parametrize(
        "model, moves",
        [
            (GibbsModel.ngg(0.5, 1.0), dict(update_alpha=True, update_theta=True)),
            (GibbsModel.nig(1.0), dict(update_theta=True)),
        ],
        ids=["ngg", "nig"],
    )
    def test_manifest_model_rebuilds_final_table(self, model, moves, monkeypatch):
        # the manifest's model names the chain's last frozen draws, so it
        # alone rebuilds the final table and its hash
        states = []
        sweep = inference.gibbs_sweep

        def recorded_sweep(state, y, config):
            states.append(state)
            return sweep(state, y, config)

        monkeypatch.setattr(inference, "gibbs_sweep", recorded_sweep)
        z = np.zeros((30, 3), dtype=np.uint8)
        z[:15, 0] = 1
        z[10:25, 1] = 1
        z[27, 2] = 1
        scales = {"sigma_y": 0.3, "sigma_w": 1.0, "sigma_a": 1.0}
        y = synthesize_data(30, 4, z, scales, seed=8)
        config = ChainConfig(iterations=3, seed=6, sigma_y=0.3, mc_samples=10_000, **moves)
        archive = run_chain(y, model, config)
        state = states[-1]
        payload = json.loads(json.dumps(archive.manifest["model"]))
        rebuilt_model = GibbsModel.from_payload(payload)
        assert rebuilt_model == state.model
        assert rebuilt_model.mc_config.samples == 10_000
        table = build_weight_table(rebuilt_model, state.n)
        assert np.array_equal(table._log, state.table._log)
        assert np.array_equal(table._rel_se, state.table._rel_se)
        assert weight_table_content_hash(table, rebuilt_model) == (
            archive.manifest["weight_table_hash"]
        )

    def test_ngg_state_table_is_its_primitives_table(self):
        # what a benchmark of NGG fits reads after every sweep: the state's
        # table is its primitives' own, filled once from their frozen draws
        # (mc_samples of them), its row n is their row normalised to
        # V_{1,1} = 1, and the log joint under the primitives is finite
        y = np.random.default_rng(8).standard_normal((12, 2))
        config = ChainConfig(seed=4, mc_samples=2000, update_alpha=True, update_theta=True)
        model = GibbsModel.ngg(0.5, 1.0)
        state = initial_state(model, y, config)
        for _ in range(3):
            gibbs_sweep(state, y, config)
        assert state.model.alpha != 0.5 and state.model.beta != 1.0  # both moved
        table = state.table
        assert table is state.cache.table and state.table is table
        assert table.provenance.samples == config.mc_samples
        n = state.n
        shift = table.log_row(n) - state.cache.log_row
        np.testing.assert_allclose(shift, shift[0], rtol=0.0, atol=1e-12)
        law = np.exp(table.log_row(n) + state.cache.draws.gfc.log_row(n))
        np.testing.assert_allclose(law, state.cache.block_law, rtol=1e-12, atol=1e-15)
        log_p = log_joint(state.allocation, state.model, state.gamma, cache=state.cache)
        assert math.isfinite(log_p)

    def test_one_draw_set_alive_at_a_time(self, monkeypatch):
        # every discount trial makes new frozen draws only once the draws
        # they replace are gone, the state's own included
        y = np.random.default_rng(6).standard_normal((12, 2))
        config = ChainConfig(seed=5, mc_samples=2000, update_alpha=True, update_theta=True)
        state = initial_state(GibbsModel.ngg(0.5, 1.0), y, config)
        built = [weakref.ref(state.cache.draws)]
        sampler_class = gibbs_weights.NggWeightSampler

        def watched(alpha, n, samples, seed):
            assert all(ref() is None for ref in built)
            sampler = sampler_class(alpha, n, samples, seed)
            built.append(weakref.ref(sampler))
            return sampler

        monkeypatch.setattr(gibbs_weights, "NggWeightSampler", watched)
        for _ in range(3):
            gibbs_sweep(state, y, config)
        assert len(built) > 4  # the discount trials drew

    def test_beta_moves_keep_the_chains_draws(self, monkeypatch):
        # an NGG chain keeps the draws initial_state made: a beta-only
        # sweep builds no sampler and never reseeds the model's mc_config
        y = np.random.default_rng(7).standard_normal((30, 2))
        config = ChainConfig(seed=3, mc_samples=10_000, update_theta=True)
        state = initial_state(GibbsModel.ngg(0.5, 1.0), y, config)
        sampler = state.cache.draws
        built = []
        sampler_class = gibbs_weights.NggWeightSampler

        def watched(*args):
            built.append(args)
            return sampler_class(*args)

        monkeypatch.setattr(gibbs_weights, "NggWeightSampler", watched)
        betas = set()
        for _ in range(5):
            gibbs_sweep(state, y, config)
            assert state.model.mc_config == McConfig(config.mc_samples, config.seed)
            assert state.cache.draws is sampler
            betas.add(state.model.beta)
        assert built == []
        assert len(betas) > 1  # the move ran

    def test_zero_iterations_archives_initial_state(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((6, 2))
        archive = run_chain(y, GibbsModel.dp(1.0), ChainConfig(iterations=0, seed=4))
        assert len(archive.records) == 1
        assert archive.records[0]["iteration"] == 0
        assert math.isfinite(archive.records[0]["log_joint"])

    def test_determinism(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((8, 2))
        config = ChainConfig(iterations=30, seed=9, update_scales=True)
        a1 = run_chain(y, GibbsModel.py(0.5, 1.0), config)
        a2 = run_chain(y, GibbsModel.py(0.5, 1.0), config)
        assert a1.records == a2.records

    def test_burn_in_and_thinning(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((6, 2))
        config = ChainConfig(iterations=20, burn_in=10, thin=5, seed=3)
        archive = run_chain(y, GibbsModel.dp(1.0), config)
        assert [r["iteration"] for r in archive.records] == [15, 20]

    def test_divergence_aborts(self):
        y = np.full((4, 2), np.nan)
        with pytest.raises(RuntimeError, match="diverged"):
            run_chain(y, GibbsModel.dp(1.0), ChainConfig(iterations=0, seed=0))

    def test_initial_state_draws_z_from_chain_cache(self, monkeypatch):
        # the initial Z of a Monte Carlo model comes from the chain's own
        # frozen-draw tables, never from a separately built weight table
        import gibbsibp.gibbs_weights as gw

        def refuse(*args, **kwargs):
            raise AssertionError("initial_state built a second weight table")

        monkeypatch.setattr(gw, "build_weight_table", refuse)
        y = np.random.default_rng(6).standard_normal((12, 2))
        config = ChainConfig(seed=5, mc_samples=2000)
        state = initial_state(GibbsModel.ngg(0.5, 1.0), y, config)
        assert state.cache.draws.samples == 2000
        assert state.table.provenance.samples == 2000
        assert state.z.shape[0] == 12 and state.w.shape == state.z.shape

    def test_py_initial_state_follows_seed_order(self):
        # Z seed, then W, then A from the chain seed; the closed-form cache
        # is the one simulate_ibp would build itself
        model = GibbsModel.py(0.5, 1.0)
        y = np.random.default_rng(2).standard_normal((30, 3))
        config = ChainConfig(seed=11, sigma_w=0.7)
        state = initial_state(model, y, config)
        rng = np.random.default_rng(11)
        z = simulate_ibp(model, 1.0, 30, seed=int(rng.integers(2 ** 63))).matrix
        w = rng.normal(0.0, 0.7, size=z.shape)
        a = rng.standard_normal((z.shape[1], 3))
        assert np.array_equal(state.z, z)
        assert np.array_equal(state.w, w)
        assert np.array_equal(state.a, a)

    def test_initial_state_accepts_starting_allocation(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((5, 2))
        z0 = np.array([[1, 0]] * 5, dtype=np.uint8)[:, :1]
        state = initial_state(
            GibbsModel.dp(1.0), y, ChainConfig(seed=0), z_init=z0
        )
        assert np.array_equal(state.z, z0)

    @pytest.mark.parametrize("model", [GibbsModel.dp(1.0), GibbsModel.nig(1.0)], ids=["dp", "nig"])
    def test_initial_state_refuses_fixed_discount_move(self, model):
        y = np.zeros((4, 2))
        with pytest.raises(ValueError, match="update_alpha needs a free discount"):
            initial_state(model, y, ChainConfig(update_alpha=True))

    @pytest.mark.parametrize(
        "n, p, k, limit_part",
        # at the limit, then one past it: p K^2 (one full row holds every
        # dish), then n m^2 (every row holds all m = K dishes)
        [(2, 2, 2 ** 13, None), (2, 2, 2 ** 13 + 1, "K = 8193"),
         (2 ** 11, 1, 2 ** 8, None), (2 ** 11 + 1, 1, 2 ** 8, "m = 256")],
        ids=["a-block-at-limit", "a-block-past", "w-block-at-limit", "w-block-past"],
    )
    def test_initial_state_bounds_sweep_arrays(self, n, p, k, limit_part):
        # Z is at most 2 MB; nothing of the sweep's size is allocated
        assert inference.MAX_SWEEP_CELLS == 2 ** 27
        y = np.zeros((n, p))
        z0 = np.ones((n, k), dtype=np.uint8)
        if limit_part is None:
            assert initial_state(GibbsModel.dp(1.0), y, ChainConfig(), z_init=z0).dishes == k
            return
        with pytest.raises(TableSizeError, match=limit_part):
            initial_state(GibbsModel.dp(1.0), y, ChainConfig(), z_init=z0)

    def test_recovers_planted_features(self):
        # small end-to-end fit: posterior K concentrates near the truth.  A
        # chain started from a prior draw sheds dishes for a few hundred
        # sweeps, so the mean is taken after 600 of them
        z = np.zeros((40, 4), dtype=np.uint8)
        z[:25, 0] = 1
        z[10:35, 1] = 1
        z[5:20, 2] = 1
        z[30, 3] = 1
        scales = {"sigma_y": 0.2, "sigma_w": 1.0, "sigma_a": 1.0}
        y = synthesize_data(40, 16, z, scales, seed=12)
        config = ChainConfig(
            iterations=1000, burn_in=600, seed=7,
            sigma_y=0.2, update_gamma=True,
        )
        archive = run_chain(y, GibbsModel.py(0.5, 1.0), config)
        k_draws = archive.column("dishes")
        assert 2.0 <= k_draws.mean() <= 8.0


class TestBetaScreen:
    """The beta move's screen: certified bounds on the log joint that never
    decide a slice comparison against the exact value."""

    N, GAMMA = 30, 2.0

    def state(self, seed=41, mc_samples=20_000):
        alloc = simulate_ibp(GibbsModel.py(0.5, 1.0), self.GAMMA, self.N, seed=seed)
        assert alloc.dishes >= 3
        model = GibbsModel.ngg(0.5, 1.0)
        return alloc.counts, make_state(
            model, alloc.matrix, seed=seed, gamma=self.GAMMA, mc_samples=mc_samples
        )

    def test_never_decides_against_exact(self):
        counts, state = self.state()
        sampler = state.cache.draws
        summary = DrawSummary(sampler)
        dishes = _SizeHistogram(counts, self.GAMMA)
        rng = np.random.default_rng(3)
        decided, undecided = 0, 0
        for i in range(240):
            beta = math.exp(rng.uniform(-5.0, 5.0))
            exact = _log_joint_counts(counts, self.GAMMA, sampler.row_primitives(beta))
            lower, upper = inference._log_joint_bounds(dishes, summary, beta)
            assert lower <= exact <= upper, beta
            # levels far from the exact value and levels within the bounds
            offset = rng.normal() * (2.0 if i % 2 else 10.0 ** rng.uniform(-8.0, -1.0))
            level = exact + offset
            calls = []

            def exact_value():
                calls.append(beta)
                return exact

            above = ScreenedValue(lower, upper, exact_value) > level
            assert above == (exact > level), (beta, offset)
            if calls:
                undecided += 1
            else:
                decided += 1
            # shifted as a slice move shifts it, by a log prior and a
            # Jacobian term: the shifted exact value decides
            shifts = (-math.exp(rng.normal()), rng.normal())
            shifted = ScreenedValue(lower, upper, exact_value) + shifts[0] + shifts[1]
            shifted_level = level + shifts[0] + shifts[1]
            want = exact + shifts[0] + shifts[1]
            assert (shifted > shifted_level) == (want > shifted_level), (beta, offset)
            assert float(shifted) == want
        assert decided >= 120 and undecided >= 10

    def test_slack_covers_every_row_within_eps(self):
        # the bounds hold for any row within eps of the midpoint, not only
        # the exact one: steps of -eps/+eps at every split and random signs
        counts, state = self.state()
        summary = DrawSummary(state.cache.draws)
        rng = np.random.default_rng(8)
        n = self.N
        steps = [np.where(np.arange(n) < j, -1.0, 1.0) for j in range(n + 1)]
        signs = steps + [-s for s in steps] + [rng.choice([-1.0, 1.0], n) for _ in range(40)]
        for beta in np.logspace(-2.0, 2.0, 5):
            midpoint, eps = summary.midpoint_row(beta)
            lower, upper = inference._log_joint_bounds(
                _SizeHistogram(counts, self.GAMMA), summary, beta
            )
            for sign in signs:
                row = NggRowPrimitives(midpoint.log_row + eps * sign, summary._gfc)
                assert lower <= _log_joint_counts(counts, self.GAMMA, row) <= upper

    def test_bounds_without_dishes_at_zero_mass(self):
        # K = 0 and gamma = 0: the log joint is -gamma E[B_n] = 0 exactly
        _, state = self.state()
        summary = DrawSummary(state.cache.draws)
        none = np.zeros(0, dtype=np.int64)
        lower, upper = inference._log_joint_bounds(_SizeHistogram(none, 0.0), summary, 0.7)
        assert lower <= 0.0 <= upper and upper - lower < 1e-6
        dishes = _SizeHistogram(np.array([2, 1]), 0.0)
        assert inference._log_joint_bounds(dishes, summary, 0.7) is None

    def test_screened_move_passes_and_bits(self, monkeypatch):
        # from the second beta move over the same draws on, a move runs one
        # first-moment pass per undecided trial, plus one at the accepted
        # point when the screen decided it; the path and the state's
        # primitives are those of the unscreened move to the bit
        counts, state = self.state()
        _, twin = self.state()
        twin.cache.draws.summary = lambda: None  # never screened
        passes, undecided = [], []
        row_sums = gibbs_weights._exp_row_sums
        exceeds = ScreenedValue.__gt__

        def counted_sums(shifted, beta, power):
            passes.append(power)
            return row_sums(shifted, beta, power)

        def counted_exceeds(value, level):
            undecided.append(not (value.lower > level or value.upper <= level))
            return exceeds(value, level)

        x = twin_x = 0.0
        moves = 12
        for move in range(moves):
            twin_x = inference._slice_model_move(twin, counts, "second", twin_x)
            monkeypatch.setattr(gibbs_weights, "_exp_row_sums", counted_sums)
            monkeypatch.setattr(ScreenedValue, "__gt__", counted_exceeds)
            del passes[:], undecided[:]
            x = inference._slice_model_move(state, counts, "second", x)
            monkeypatch.undo()
            assert x == twin_x and state.model == twin.model
            assert np.array_equal(state.cache.log_row, twin.cache.log_row)
            assert state.model.beta == math.exp(x)
            assert set(passes) <= {1}
            if move == 0:
                assert undecided == []  # the first move builds no summary
            else:
                assert undecided, "a screened move compares at least once"
                accepted_screened = 0 if undecided[-1] else 1
                assert len(passes) == sum(undecided) + accepted_screened
        assert state.table is not None
        assert np.array_equal(state.table._log, twin.table._log)
        assert np.array_equal(state.table._rel_se, twin.table._rel_se)

    def test_nan_row_raises_from_beta_trial(self):
        # a degenerate row has no summary, so a trial takes the direct pass,
        # which refuses it
        counts, state = self.state(mc_samples=2000)
        sampler = state.cache.draws
        shifted = sampler._shifted.copy()
        shifted[4] = np.nan
        sampler._shifted = shifted
        assert sampler.summary() is None  # the first request
        with pytest.raises(McDegeneracyError):
            inference._slice_model_move(state, counts, "second", 0.0)
        assert sampler._summary_requests == 2 and sampler.summary() is None

    @pytest.mark.parametrize(
        "moves, built",
        [(dict(update_theta=True), 1), (dict(update_alpha=True, update_theta=True), 0)],
        ids=["beta", "alpha-beta"],
    )
    def test_summary_only_over_reused_draws(self, moves, built, monkeypatch):
        # a chain that moves alpha has new draws for every beta move and
        # never summarises them; a beta-only chain summarises its one set
        made = []

        class Counted(DrawSummary):
            def __init__(self, sampler):
                made.append(sampler)
                super().__init__(sampler)

        monkeypatch.setattr(gibbs_weights, "DrawSummary", Counted)
        y = np.random.default_rng(9).standard_normal((12, 2))
        config = ChainConfig(seed=4, mc_samples=2000, **moves)
        state = initial_state(GibbsModel.ngg(0.5, 1.0), y, config)
        for _ in range(5):
            gibbs_sweep(state, y, config)
        assert len(made) == built


def _chain_digest(model, n, sweeps, mc_samples, **moves):
    # sha256 over every sweep's beta (or theta), Z, W, A, gamma and log
    # joint, and the weight table content hash the chain ends on
    z = np.zeros((n, 3), dtype=np.uint8)
    z[: n // 2, 0] = 1
    z[n // 4:, 1] = 1
    z[n - 2:, 2] = 1
    scales = {"sigma_y": 0.3, "sigma_w": 1.0, "sigma_a": 1.0}
    y = synthesize_data(n, 4, z, scales, seed=31)
    config = ChainConfig(seed=17, sigma_y=0.3, mc_samples=mc_samples, **moves)
    state = initial_state(model, y, config)
    digest = hashlib.sha256()
    for _ in range(sweeps):
        gibbs_sweep(state, y, config)
        counts = state.z.sum(axis=0)
        log_p = _log_joint_counts(counts, state.gamma, state.cache) + log_likelihood(
            y, state.z, state.w, state.a, state.sigma_y
        )
        for value in (state.model.beta, state.model.stable_index, state.gamma, log_p):
            digest.update(np.float64(value).tobytes())
        for array in (state.z, state.w, state.a):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16], weight_table_content_hash(state.table, state.model)[:16]


class TestChainPins:
    """Seeded NGG/NIG chains with the beta move, pinned sweep by sweep: the
    beta path, Z, W, A, gamma and the log joint, and the final weight table.
    The beta-only chains screen their trials from the second sweep on, so
    a screen that decided one comparison otherwise than the exact value
    would move their pins; the alpha chain never screens.  The pins were
    taken from a copy of the sampler with the screen switched off."""

    @pytest.mark.parametrize(
        "model, n, sweeps, mc_samples, moves, pins",
        [
            (GibbsModel.ngg(0.5, 1.0), 30, 60, 10_000, dict(update_theta=True),
             ("3277f8409142b719", "f17ec0521c19fa74")),
            (GibbsModel.nig(2.0), 30, 60, 10_000, dict(update_theta=True),
             ("b351c1d73e4cfeb4", "60c6d3ec2fd7e0a8")),
            (GibbsModel.ngg(0.5, 1.0), 12, 50, 2000,
             dict(update_alpha=True, update_theta=True),
             ("0cc7e4274f68df96", "03192026740ee75e")),
        ],
        ids=["ngg-beta", "nig-beta", "ngg-alpha-beta"],
    )
    def test_chain_pinned(self, model, n, sweeps, mc_samples, moves, pins):
        assert _chain_digest(model, n, sweeps, mc_samples, **moves) == pins


class TestArchive:
    def make_archive(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((6, 2))
        return run_chain(y, GibbsModel.dp(1.0), ChainConfig(iterations=12, seed=2))

    def test_csv_and_manifest_round_trip(self, tmp_path):
        archive = self.make_archive()
        csv_path = archive.to_csv(tmp_path / "samples.csv")
        rows = [line.split(",") for line in open(csv_path).read().strip().split("\n")]
        assert len(rows) == len(archive.records) + 1
        assert rows[0][0] == "iteration"
        manifest = archive.manifest
        assert manifest["model"] == {"variant": "DP", "theta": 1.0}
        assert len(manifest["cache_hash"]) == 64
        assert manifest["config"]["iterations"] == 12

    def test_column_and_extend(self):
        archive = self.make_archive()
        rng = np.random.default_rng(4)
        y = rng.standard_normal((6, 2))
        other = run_chain(
            y, GibbsModel.dp(1.0), ChainConfig(iterations=5, seed=3, chain_id=1)
        )
        count = len(archive.records)
        archive.extend(other)
        assert len(archive.records) == count + 5
        chains = archive.column("chain")
        assert set(chains) == {0, 1}
        # per-chain ordering preserved
        for cid in (0, 1):
            its = [r["iteration"] for r in archive.records if r["chain"] == cid]
            assert its == sorted(its)


class TestGeweke:
    def test_guards(self):
        config = ChainConfig(update_theta=True)
        with pytest.raises(ValueError):
            geweke_check(GibbsModel.dp(1.0), 4, 2, config, rounds=10)
        # a shorter chain gives the autocorrelation sum too few lags
        with pytest.raises(ValueError, match="rounds"):
            geweke_check(GibbsModel.dp(1.0), 4, 2, ChainConfig(), rounds=GEWEKE_MIN_ROUNDS - 1)
        # a Monte Carlo model runs, at the fewest rounds allowed
        model = GibbsModel.nig(1.0, mc_config=McConfig(10_000, 1))
        scores = geweke_check(model, 4, 2, ChainConfig(), rounds=GEWEKE_MIN_ROUNDS)
        assert all(math.isfinite(z) for z in scores.values())

    @pytest.mark.parametrize("update_scales", [False, True], ids=["fixed", "scales"])
    @pytest.mark.parametrize(
        "model",
        [
            GibbsModel.dp(1.0),
            GibbsModel.py(0.5, 1.0),
            GibbsModel.ngg(0.75, 0.6, mc_config=McConfig(10_000, 1)),
        ],
        ids=["dp", "py", "ngg"],
    )
    def test_marginal_side_matches_prior_states(self, model, update_scales):
        # the lockstep chunks against one _prior_state draw per round
        n, p, rounds = 8, 4, 20_000
        config = ChainConfig(update_scales=update_scales)
        cache = build_primitive_cache(model, n)
        batch = inference._marginal_statistics(
            model, n, p, config, rounds, np.random.default_rng(1), cache
        )
        rng = np.random.default_rng(2)
        held = []
        for r in range(rounds):
            state = inference._prior_state(model, n, p, config, rng, cache=cache)
            held.append(inference._chain_round(state, inference._emit_data(state, rng)))
        single = inference._chain_statistics(held)
        for idx, name in enumerate(inference.GEWEKE_STATISTIC_NAMES):
            p_value = stats.ks_2samp(batch[:, idx], single[:, idx]).pvalue
            assert p_value > 1e-4, f"{name}: KS p = {p_value}"

    def test_marginal_chunks_are_bounded(self, monkeypatch):
        sizes = []
        buffet = inference._lockstep_buffet

        def recording(gammas, *args):
            sizes.append(gammas.size)
            return buffet(gammas, *args)

        monkeypatch.setattr(inference, "_lockstep_buffet", recording)
        model, n, p = GibbsModel.dp(1.0), 8, 4
        cache = build_primitive_cache(model, n)
        out = inference._marginal_statistics(
            model, n, p, ChainConfig(), 10_000, np.random.default_rng(0), cache
        )
        assert out.shape == (10_000, len(inference.GEWEKE_STATISTIC_NAMES))
        assert sum(sizes) == 10_000
        assert max(sizes) * n * p <= inference.GEWEKE_CHUNK

    @pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
    def test_autocorrelation_se_of_ar1(self, phi):
        # x_t = phi x_{t-1} + e_t: the mean's variance is 1/((1-phi)^2 m)
        m = 200_000
        rng = np.random.default_rng(31)
        noise = rng.standard_normal(m)
        x = np.empty(m)
        x[0] = noise[0] / math.sqrt(1.0 - phi * phi)
        for t in range(1, m):
            x[t] = phi * x[t - 1] + noise[t]
        exact = 1.0 / ((1.0 - phi) * math.sqrt(m))
        assert inference._autocorrelation_se(x) == pytest.approx(exact, rel=0.1)

    @pytest.mark.parametrize(
        "model",
        [
            GibbsModel.dp(1.0),
            GibbsModel.ngg(0.5, 1.0, mc_config=McConfig(10_000, 1)),
            GibbsModel.nig(1.0, mc_config=McConfig(10_000, 1)),
        ],
        ids=["dp", "ngg", "nig"],
    )
    def test_smoke_scores_small(self, model):
        # short run; the acceptance suite runs the full-length version
        config = ChainConfig(seed=0, update_gamma=True)
        scores = geweke_check(model, 5, 2, config, rounds=4000, seed=1)
        assert set(scores) >= {"dishes", "gamma", "data_sq_mean"}
        for name, z in scores.items():
            assert abs(z) < 6.0, f"{name}: z = {z}"
