import csv
import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from gibbsibp import ibp
from gibbsibp.gibbs_weights import (
    GibbsModel,
    McConfig,
    build_gfc_table,
    build_primitive_cache,
    build_weight_table,
    expected_blocks,
)
from gibbsibp.ibp import (
    FeatureAllocation,
    _lockstep_buffet,
    expected_features,
    export_allocation_csv,
    export_statistics_csv,
    feature_statistics,
    log_joint,
    log_transition,
    powerlaw_constant,
    sample_feature_counts,
    simulate_ibp,
)
from gibbsibp.special_functions import TableSizeError

# mpmath quadrature (40 dps) of e^{b^a}/Gamma(a) int_b^inf (u-b)^{a-1} e^{-u^a} du,
# the Laplace-transform form of the dish-growth constant; the route reproduces
# the alpha = 1/2 Bessel closed form to 22 digits.  The alpha = 0.05 and 0.95
# entries integrate (u-b)^{a-1} (e^{b^a - u^a} - 1) on [b, b+1] and add 1/a,
# so no quadrature node meets the singular endpoint.
POWERLAW_ORACLE = {
    (0.3, 1.0): 2.067777643296223,
    (0.7, 0.5): 1.399800118852481,
    (0.5, 1.0): 1.846201508070154,
    (0.5, 2.5): 2.142901371206614,
    (0.05, 0.01): 1.8404735872832904047,
    (0.05, 100.0): 2.3137758967550510206,
    (0.95, 0.01): 1.0233852605452369727,
    (0.95, 100.0): 1.3074526623368409469,
}

# simulate_ibp(model, gamma, n, seed=3) -> (dishes, sha256 of the matrix
# bytes, first 16 hex digits), recorded from the customer-by-customer loop
# that preceded the lockstep buffet
SIMULATE_PINS = {
    ("dp", 1, 0.0): (0, "e3b0c44298fc1c14"),
    ("dp", 1, 2.5): (1, "4bf5122f344554c5"),
    ("dp", 20, 0.0): (0, "e3b0c44298fc1c14"),
    ("dp", 20, 2.5): (3, "35f4c6f205f998a8"),
    ("dp", 1000, 0.0): (0, "e3b0c44298fc1c14"),
    ("dp", 1000, 2.5): (11, "89221d0468f3dbad"),
    ("py", 1, 0.0): (0, "e3b0c44298fc1c14"),
    ("py", 1, 2.5): (1, "4bf5122f344554c5"),
    ("py", 20, 0.0): (0, "e3b0c44298fc1c14"),
    ("py", 20, 2.5): (13, "5ffa6cd6d59ec445"),
    ("py", 1000, 0.0): (0, "e3b0c44298fc1c14"),
    ("py", 1000, 2.5): (169, "c5f9fc545007d6f5"),
    ("ngg", 1, 0.0): (0, "e3b0c44298fc1c14"),
    ("ngg", 1, 2.5): (1, "4bf5122f344554c5"),
    ("ngg", 20, 0.0): (0, "e3b0c44298fc1c14"),
    ("ngg", 20, 2.5): (12, "583d7460ae6677c9"),
    ("ngg", 1000, 0.0): (0, "e3b0c44298fc1c14"),
    ("ngg", 1000, 2.5): (150, "bef2b07c99f42ecc"),
}


class TestFeatureAllocation:
    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureAllocation(np.array([[2, 0]]), 1.0)
        with pytest.raises(ValueError):
            FeatureAllocation(np.array([[1, 0], [1, 0]]), 1.0)  # empty dish
        with pytest.raises(ValueError):
            FeatureAllocation(np.array([[0, 1], [1, 1]]), 1.0)  # out of order
        with pytest.raises(ValueError):
            FeatureAllocation(np.array([[1]]), -0.5)

    def test_fields(self):
        alloc = FeatureAllocation(np.array([[1, 1, 0], [0, 1, 1]]), 2.0)
        assert alloc.n == 2 and alloc.dishes == 3
        np.testing.assert_array_equal(alloc.counts, [1, 2, 1])
        with pytest.raises(ValueError):
            alloc.matrix[0, 0] = 0

    def test_empty(self):
        alloc = FeatureAllocation(np.zeros((4, 0)), 1.0)
        assert alloc.n == 4 and alloc.dishes == 0

    @pytest.mark.parametrize(
        "build",
        [FeatureAllocation, FeatureAllocation.from_matrix],
        ids=["init", "from_matrix"],
    )
    @pytest.mark.parametrize("k", [2, 0])
    def test_caller_matrix_stays_writable(self, build, k):
        # a C-contiguous uint8 input (and a 0-column one through
        # from_matrix) needs no conversion; it must still be copied
        z = np.ascontiguousarray(np.array([[1, 0], [1, 1]], dtype=np.uint8)[:, :k])
        alloc = build(z, 1.0)
        assert z.flags.writeable
        assert not alloc.matrix.flags.writeable
        assert not np.shares_memory(z, alloc.matrix)
        np.testing.assert_array_equal(alloc.matrix, z)

    def test_from_matrix_reorders(self):
        shuffled = np.array([[0, 1, 1], [1, 1, 0], [1, 0, 1]])
        alloc = FeatureAllocation.from_matrix(shuffled, 1.0)
        first = alloc.matrix.argmax(axis=0)
        assert np.all(np.diff(first) >= 0)
        np.testing.assert_array_equal(sorted(alloc.counts), sorted([2, 2, 2]))

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1, 2], [0, 1]],  # non-binary entry
            [[1, 0, 1], [1, 0, 0]],  # all-zero dish
            [1, 0, 1],  # 1-D
        ],
        ids=["non-binary", "empty-dish", "one-dimensional"],
    )
    def test_from_matrix_rejects(self, matrix):
        with pytest.raises(ValueError):
            FeatureAllocation.from_matrix(np.array(matrix), 1.0)


class TestSimulateIbp:
    def test_zero_mass_empty(self):
        alloc = simulate_ibp(GibbsModel.dp(1.0), 0.0, 5, seed=0)
        assert alloc.dishes == 0 and alloc.n == 5

    def test_reproducible(self):
        a = simulate_ibp(GibbsModel.py(0.5, 1.0), 1.5, 20, seed=42)
        b = simulate_ibp(GibbsModel.py(0.5, 1.0), 1.5, 20, seed=42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_first_customer_poisson_mean(self):
        # customer 1 tries Poisson(gamma) dishes
        gamma = 2.0
        cache = build_primitive_cache(GibbsModel.dp(1.0), 1)
        draws = np.array(
            [simulate_ibp(GibbsModel.dp(1.0), gamma, 1, seed=s, cache=cache).dishes
             for s in range(20_000)]
        )
        se = math.sqrt(gamma / draws.size)
        assert abs(draws.mean() - gamma) < 3 * se

    def test_dish_growth_harmonic(self):
        # DP(theta=1), gamma=1: E[K_3] = 1 + 1/2 + 1/3
        model = GibbsModel.dp(1.0)
        cache = build_primitive_cache(model, 3)
        draws = np.array(
            [simulate_ibp(model, 1.0, 3, seed=s, cache=cache).dishes
             for s in range(100_000)]
        )
        target = 1.0 + 0.5 + 1.0 / 3.0
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - target) < 3 * se

    def test_refuses_past_cell_limit(self, monkeypatch):
        # the bound n (E[K_n] + 6 (sqrt(E[K_n]) + 1)) is checked before the
        # buffet; small sizes under a lowered limit stand in for large ones
        model, gamma, n = GibbsModel.dp(1.0), 2.0, 10
        expected = expected_features(model, gamma, n)
        bound = n * (expected + ibp.BUFFET_TAIL_SDS * (math.sqrt(expected) + 1.0))
        monkeypatch.setattr(ibp, "MAX_BUFFET_CELLS", math.ceil(bound))
        assert simulate_ibp(model, gamma, n, seed=0).n == n
        monkeypatch.setattr(ibp, "MAX_BUFFET_CELLS", math.floor(bound))
        with pytest.raises(TableSizeError, match=rf"n = {n} customers with E\[K_n\] = "):
            simulate_ibp(model, gamma, n, seed=0)

    def test_refuses_huge_mass_at_the_default_limit(self):
        # E[K_1000] = 10^6 E[B_1000], about 6e7 dishes: 6e10 cells refused
        # before any of them is allocated
        with pytest.raises(TableSizeError, match="MAX_BUFFET_CELLS = 100000000"):
            simulate_ibp(GibbsModel.py(0.5, 1.0), 1e6, 1000, seed=0)

    def test_corrupt_primitives_rejected(self):
        model = GibbsModel.py(0.5, 1.0)
        bad = build_primitive_cache(model, 3)
        bad.g10 = np.full(3, 5.0)  # every dish taken with probability > 1
        with pytest.raises(ValueError, match="corrupt"):
            simulate_ibp(model, 1.0, 3, seed=0, cache=bad)
        with pytest.raises(ValueError, match="corrupt"):
            _lockstep_buffet(np.full(50, 1.0), 3, bad, np.random.default_rng(0))

    def test_outputs_pinned(self):
        ngg = GibbsModel.ngg(0.5, 1.0, mc_config=McConfig(10_000, 1))
        models = {
            "dp": (GibbsModel.dp(1.0), None),
            "py": (GibbsModel.py(0.5, 1.0), None),
            "ngg": (ngg, build_primitive_cache(ngg, 1000)),
        }
        for (name, n, gamma), (dishes, digest) in SIMULATE_PINS.items():
            model, cache = models[name]
            matrix = simulate_ibp(model, gamma, n, seed=3, cache=cache).matrix
            assert matrix.shape == (n, dishes)
            assert hashlib.sha256(matrix.tobytes()).hexdigest()[:16] == digest, (name, n, gamma)

    def test_lockstep_replicates_are_independent_buffets(self):
        # each replicate's columns past its dishes are empty, and its dish
        # totals follow the one-replicate law at its own mass
        model = GibbsModel.py(0.5, 1.0)
        cache = build_primitive_cache(model, 6)
        gammas = np.repeat([0.5, 3.0], 10_000)
        z, dishes = _lockstep_buffet(gammas, 6, cache, np.random.default_rng(8))
        assert z.shape == (gammas.size, 6, dishes.max())
        live = np.arange(z.shape[2]) < dishes[:, None]
        assert np.array_equal(z.any(axis=1), live)
        for gamma, half in zip((0.5, 3.0), (dishes[:10_000], dishes[10_000:])):
            single = [simulate_ibp(model, gamma, 6, seed=s, cache=cache).dishes for s in range(3000)]
            assert stats.ks_2samp(half, single).pvalue > 0.001


class TestSampleFeatureCounts:
    def test_matches_full_simulation(self):
        model = GibbsModel.py(0.5, 1.0)
        cache = build_primitive_cache(model, 20)
        batch = sample_feature_counts(model, 1.0, 20, 20_000, seed=3, cache=cache)
        full = np.array(
            [simulate_ibp(model, 1.0, 20, seed=10_000 + s, cache=cache).dishes
             for s in range(2_000)]
        )
        assert stats.ks_2samp(batch, full).pvalue > 0.01

    def test_poisson_law_of_dish_totals(self):
        # K_20 ~ Poisson(E[K_20]); the dish-taking draws provably cannot
        # change K_n, so the lockstep sampler gives the simulator's K_n law
        model = GibbsModel.py(0.5, 1.0)
        draws = sample_feature_counts(model, 1.0, 20, 100_000, seed=11)
        mean = expected_features(model, 1.0, 20)
        hi = int(draws.max()) + 1
        observed = np.bincount(draws, minlength=hi).astype(float)
        probs = stats.poisson.pmf(np.arange(hi), mean)
        probs[-1] += stats.poisson.sf(hi - 1, mean)
        # pool cells to expected count >= 5
        obs_pool, exp_pool = [], []
        acc_o = acc_e = 0.0
        for o, e in zip(observed, probs * draws.size):
            acc_o += o
            acc_e += e
            if acc_e >= 5.0:
                obs_pool.append(acc_o)
                exp_pool.append(acc_e)
                acc_o = acc_e = 0.0
        obs_pool[-1] += acc_o
        exp_pool[-1] += acc_e
        result = stats.chisquare(obs_pool, f_exp=exp_pool)
        assert result.pvalue > 0.001


class TestLogJoint:
    def test_empty_allocation(self):
        model = GibbsModel.dp(1.0)
        alloc = FeatureAllocation(np.zeros((3, 0)), 1.0)
        expected = -(1.0 + 0.5 + 1.0 / 3.0)
        assert log_joint(alloc, model, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_single_customer_two_dishes(self):
        # gamma^2 e^{-gamma} g_0(1,1)^2 with g_0(1,1) = 1 -> log = -1 at gamma = 1
        alloc = FeatureAllocation(np.array([[1, 1]]), 1.0)
        for model in (GibbsModel.dp(1.0), GibbsModel.py(0.5, 1.0), GibbsModel.py(0.9, 0.1)):
            assert log_joint(alloc, model, 1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_mass(self):
        model = GibbsModel.dp(1.0)
        assert log_joint(FeatureAllocation(np.zeros((2, 0)), 0.0), model, 0.0) == 0.0
        taken = FeatureAllocation(np.array([[1], [0]]), 0.0)
        assert log_joint(taken, model, 0.0) == -math.inf

    def test_row_permutation_invariance_exact(self):
        model = GibbsModel.py(0.5, 1.2)
        alloc = simulate_ibp(model, 1.5, 12, seed=5)
        cache = build_primitive_cache(model, 12)
        reference = log_joint(alloc, model, 1.5, cache=cache)
        rng = np.random.default_rng(0)
        for _ in range(30):
            perm = rng.permutation(12)
            shuffled = FeatureAllocation.from_matrix(alloc.matrix[perm], 1.5)
            assert log_joint(shuffled, model, 1.5, cache=cache) == reference

    def test_cache_depth_mismatch(self):
        model = GibbsModel.dp(1.0)
        cache = build_primitive_cache(model, 5)
        alloc = simulate_ibp(model, 1.0, 4, seed=1)
        with pytest.raises(ValueError):
            log_joint(alloc, model, 1.0, cache=cache)

    @pytest.mark.parametrize(
        "model",
        [GibbsModel.dp(1.0), GibbsModel.py(0.5, 1.0),
         GibbsModel.ngg(0.5, 1.0, McConfig(10_000, 1)), GibbsModel.nig(1.0, McConfig(10_000, 1))],
        ids=lambda model: model.variant,
    )
    def test_returns_float(self, model):
        alloc = FeatureAllocation(np.array([[1, 1, 0], [1, 0, 1], [0, 0, 1]]), 1.3)
        cache = build_primitive_cache(model, 3)
        assert type(log_joint(alloc, model, 1.3, cache=cache)) is float
        assert type(log_joint(alloc, model, 1.3)) is float


class TestModelCacheMismatch:
    # primitives carry their discount, so a cache built for another alpha
    # would mix two models; every public reader refuses it
    READERS = {
        "simulate_ibp": lambda model, alloc, cache: simulate_ibp(
            model, 1.0, 5, seed=0, cache=cache
        ),
        "log_joint": lambda model, alloc, cache: log_joint(alloc, model, 1.0, cache=cache),
        "sample_feature_counts": lambda model, alloc, cache: sample_feature_counts(
            model, 1.0, 5, 10, seed=0, cache=cache
        ),
        "expected_features": lambda model, alloc, cache: expected_features(
            model, 1.0, 5, cache=cache
        ),
    }

    @pytest.mark.parametrize("reader", list(READERS))
    def test_refuses_another_alpha(self, reader):
        cache = build_primitive_cache(GibbsModel.py(0.3, 1.0), 5)
        alloc = FeatureAllocation(np.array([[1], [1], [0], [0], [1]]), 1.0)
        read = self.READERS[reader]
        with pytest.raises(ValueError, match="alpha"):
            read(GibbsModel.py(0.7, 1.0), alloc, cache)
        read(GibbsModel.py(0.3, 1.0), alloc, cache)  # the cache's own model passes


class TestSequentialConsistency:
    @pytest.mark.parametrize(
        "model",
        [GibbsModel.py(0.5, 1.0), GibbsModel.dp(1.5), GibbsModel.py(0.8, -0.3)],
    )
    def test_increments_are_transition_probabilities(self, model):
        gamma = 1.3
        n = 10
        alloc = simulate_ibp(model, gamma, n, seed=9)
        alpha = model.stable_index
        caches = {j: build_primitive_cache(model, j) for j in range(1, n + 1)}
        stats_rec = feature_statistics(alloc)
        trajectory = stats_rec["trajectory"]
        previous = 0.0
        for j in range(1, n + 1):
            k_prev = int(trajectory[j - 2]) if j > 1 else 0
            prefix = FeatureAllocation(alloc.matrix[:j, : int(trajectory[j - 1])], gamma)
            current = log_joint(prefix, model, gamma, cache=caches[j])
            counts = alloc.matrix[: j - 1, :k_prev].sum(axis=0)
            takes = alloc.matrix[j - 1, :k_prev].astype(bool)
            fresh = int(trajectory[j - 1]) - k_prev
            g10, g11 = caches[j].g10_n, caches[j].g11_n  # g10_n is nan at j = 1
            step = log_transition(counts, takes, fresh, gamma, alpha, g10, g11)
            assert current - previous == pytest.approx(step, abs=1e-10)
            previous = current

    def test_ngg_mc_route(self):
        # consistency rests on product identities of the exact weights
        # (g_r(s+1,1) = g_r(s,1) g_{r+s}(1,0) and kin) that a Monte-Carlo
        # table satisfies only to sampling-noise scale, so the bound here is
        # loose where the closed-form models get 1e-10
        model = GibbsModel.ngg(0.5, 1.0, mc_config=McConfig(samples=200_000, seed=0))
        gamma = 1.0
        n = 6
        table = build_weight_table(model, n)
        gfc = build_gfc_table(n, 0.5)
        alloc = simulate_ibp(
            model, gamma, n, seed=2, cache=build_primitive_cache(model, n, table=table, gfc=gfc)
        )
        trajectory = feature_statistics(alloc)["trajectory"]
        slack = 10.0 * max(float(np.max(table.rel_se_row(m))) for m in range(1, n + 1))
        previous = 0.0
        for j in range(1, n + 1):
            cache = build_primitive_cache(model, j, table=table, gfc=gfc)
            k_prev = int(trajectory[j - 2]) if j > 1 else 0
            prefix = FeatureAllocation(alloc.matrix[:j, : int(trajectory[j - 1])], gamma)
            current = log_joint(prefix, model, gamma, cache=cache)
            counts = alloc.matrix[: j - 1, :k_prev].sum(axis=0)
            takes = alloc.matrix[j - 1, :k_prev].astype(bool)
            fresh = int(trajectory[j - 1]) - k_prev
            step = log_transition(
                counts, takes, fresh, gamma, 0.5, cache.g10_n, cache.g11_n
            )
            assert current - previous == pytest.approx(step, abs=slack)
            previous = current


class TestFeatureStatistics:
    def test_single_popular_dish(self):
        alloc = FeatureAllocation(np.ones((4, 1)), 1.0)
        rec = feature_statistics(alloc)
        counts = rec["multiplicity_counts"]
        assert counts[4] == 1 and counts[:4].sum() == 0
        np.testing.assert_array_equal(rec["trajectory"], [1, 1, 1, 1])
        np.testing.assert_array_equal(rec["frequencies"], [1.0])

    def test_identities(self):
        alloc = simulate_ibp(GibbsModel.py(0.5, 1.0), 2.0, 40, seed=21)
        rec = feature_statistics(alloc)
        counts = rec["multiplicity_counts"]
        assert counts.sum() == alloc.dishes
        assert (np.arange(counts.size) * counts).sum() == alloc.counts.sum()
        trajectory = rec["trajectory"]
        assert trajectory[-1] == alloc.dishes
        assert np.all(np.diff(trajectory) >= 0)

    def test_singleton_share_approaches_alpha(self):
        # PY(0.5, 1): K_{n,1}/K_n -> alpha; average over runs at n = 10^4
        model = GibbsModel.py(0.5, 1.0)
        n = 10_000
        cache = build_primitive_cache(model, n)
        ratios = []
        for seed in range(100):
            alloc = simulate_ibp(model, 1.0, n, seed=seed, cache=cache)
            rec = feature_statistics(alloc)
            ratios.append(rec["multiplicity_counts"][1] / alloc.dishes)
        assert abs(np.mean(ratios) - 0.5) < 0.05


class TestExpectedFeatures:
    def test_zero_mass(self):
        assert expected_features(GibbsModel.py(0.5, 1.0), 0.0, 10) == 0.0

    def test_dp_harmonic(self):
        value = expected_features(GibbsModel.dp(1.0), 2.0, 3)
        assert value == pytest.approx(2.0 * (1.0 + 0.5 + 1.0 / 3.0), rel=1e-12)

    @pytest.mark.parametrize(
        "model", [GibbsModel.dp(1.5), GibbsModel.py(0.3, 0.8), GibbsModel.py(0.7, 2.0)]
    )
    def test_matches_expected_blocks(self, model):
        # gamma E[B_n] telescopes into the new-dish rates
        for n in (1, 7, 60):
            lhs = expected_features(model, 1.7, n)
            rhs = 1.7 * expected_blocks(model, n)
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestPowerlawConstant:
    def test_dp_not_applicable(self):
        assert powerlaw_constant(GibbsModel.dp(1.0)) is None

    def test_py_value(self):
        # Gamma(2)/(0.5 Gamma(1.5)) = 2/sqrt(pi/4)/... = 2.2567583...
        value = powerlaw_constant(GibbsModel.py(0.5, 1.0))
        assert value == pytest.approx(1.0 / (0.5 * math.gamma(1.5)), rel=1e-12)
        assert value == pytest.approx(2.2568, rel=1e-4)

    def test_nig_bessel_values(self):
        assert powerlaw_constant(GibbsModel.nig(1.0)) == pytest.approx(
            POWERLAW_ORACLE[(0.5, 1.0)], rel=1e-12
        )
        assert powerlaw_constant(GibbsModel.nig(2.5)) == pytest.approx(
            POWERLAW_ORACLE[(0.5, 2.5)], rel=1e-12
        )

    def test_ngg_quadrature_values(self):
        assert powerlaw_constant(GibbsModel.ngg(0.3, 1.0)) == pytest.approx(
            POWERLAW_ORACLE[(0.3, 1.0)], rel=1e-8
        )
        assert powerlaw_constant(GibbsModel.ngg(0.7, 0.5)) == pytest.approx(
            POWERLAW_ORACLE[(0.7, 0.5)], rel=1e-8
        )

    @pytest.mark.parametrize("alpha", [0.05, 0.95])
    @pytest.mark.parametrize("beta", [0.01, 100.0])
    def test_ngg_extreme_parameters(self, alpha, beta):
        assert powerlaw_constant(GibbsModel.ngg(alpha, beta)) == pytest.approx(
            POWERLAW_ORACLE[(alpha, beta)], rel=1e-10
        )

    def test_quadrature_meets_bessel(self):
        # NGG at alpha = 1/2 runs the generic quadrature; NIG the Bessel form
        assert powerlaw_constant(GibbsModel.ngg(0.5, 1.0)) == pytest.approx(
            powerlaw_constant(GibbsModel.nig(1.0)), rel=1e-8
        )

    def test_growth_matches_constant(self):
        # E[K_n]/n^alpha -> gamma C, within 5% at n = 10^4 for PY(0.5, 1)
        model = GibbsModel.py(0.5, 1.0)
        n = 10_000
        growth = expected_features(model, 1.0, n) / math.sqrt(n)
        assert abs(growth / powerlaw_constant(model) - 1.0) < 0.05


class TestCsvRoundTrips:
    def test_allocation_round_trip(self, tmp_path):
        alloc = simulate_ibp(GibbsModel.py(0.5, 1.0), 1.5, 15, seed=4)
        path = export_allocation_csv(alloc, tmp_path / "alloc.csv")
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["customer"] + [f"dish_{k}" for k in range(1, alloc.dishes + 1)]
        assert [int(row[0]) for row in rows] == list(range(1, alloc.n + 1))
        matrix = np.array([[int(cell) for cell in row[1:]] for row in rows])
        np.testing.assert_array_equal(matrix, alloc.matrix)

    def test_empty_round_trip(self, tmp_path):
        alloc = FeatureAllocation(np.zeros((3, 0)), 1.0)
        path = export_allocation_csv(alloc, tmp_path / "empty.csv")
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [["customer"], ["1"], ["2"], ["3"]]

    def test_statistics_csv(self, tmp_path):
        alloc = simulate_ibp(GibbsModel.dp(1.0), 1.0, 8, seed=6)
        rec = feature_statistics(alloc)
        path = export_statistics_csv(rec, tmp_path / "stats.csv")
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        series = {row["series"] for row in rows}
        assert series == {"dishes_by_customer", "dishes_with_multiplicity", "dish_frequency"}
        trajectory = [int(r["value"]) for r in rows if r["series"] == "dishes_by_customer"]
        np.testing.assert_array_equal(trajectory, rec["trajectory"])
