import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gibbsibp import gibbs_weights
from gibbsibp.gibbs_weights import (
    GibbsModel,
    McConfig,
    NggWeightSampler,
    NormalizationError,
    WeightTable,
    block_count_distribution,
    build_gfc_table,
    build_weight_table,
    weight_row,
    weight_rows,
    weight_table_from_sampler,
)
from gibbsibp.partition import (
    PartitionState,
    log_eppf,
    sample_block_counts,
    sample_partition,
)
from gibbsibp.special_functions import MAX_TABLE_DEPTH, gfc_rows, log_rising_factorial


def compositions(n):
    # ordered tuples of positive integers summing to n
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def pooled_chisquare(observed_counts, probs, min_expected=5.0):
    total = observed_counts.sum()
    expected = probs * total
    obs_pool, exp_pool = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed_counts, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_pool.append(acc_o)
            exp_pool.append(acc_e)
            acc_o = acc_e = 0.0
    obs_pool[-1] += acc_o
    exp_pool[-1] += acc_e
    return stats.chisquare(obs_pool, f_exp=exp_pool)


class TestPartitionState:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionState(3, (1, 1))
        with pytest.raises(ValueError):
            PartitionState(2, (2, 0))
        with pytest.raises(ValueError):
            PartitionState(2, (1, 1), assignments=(1,))

    def test_block_count(self):
        state = PartitionState(4, (2, 1, 1))
        assert state.block_count == 3


class TestUrnStep:
    def test_first_customer_opens_block(self):
        model = GibbsModel.py(0.5, 1.0)
        table = build_weight_table(model, 2)
        state = sample_partition(model, 1, seed=0, table=table)
        assert state.n == 1 and state.block_sizes == (1,)

    def test_new_block_probability_py(self):
        # from one singleton block, a PY(0.5, 1) urn opens a second block
        # with probability V_{2,2}/V_{1,1} = 0.75
        model = GibbsModel.py(0.5, 1.0)
        table = build_weight_table(model, 2)
        counts = sample_block_counts(model, 2, 20_000, seed=123, table=table)
        opened = np.count_nonzero(counts == 2)
        se = math.sqrt(0.75 * 0.25 / 20_000)
        assert abs(opened / 20_000 - 0.75) < 4 * se

    def test_depth_error(self):
        model = GibbsModel.py(0.5, 1.0)
        table = build_weight_table(model, 2)
        with pytest.raises(ValueError, match="depth 2"):
            sample_partition(model, 3, seed=0, table=table)
        with pytest.raises(ValueError, match="depth 2"):
            sample_block_counts(model, 3, 10, seed=0, table=table)


def perturbed_table(table, n=2, k=1):
    # a copy of the table, provenance and rel_se kept, with V_{n,k} scaled
    # by 1 + 1e-6; for PY(0.5, 1) and V_{2,1} the step from one customer in
    # one block then sums to 1 + 2.5e-7
    log_entries = table._log.copy()
    log_entries[n, k] += 1e-6
    return WeightTable(
        table.n_max, table.alpha, log_entries, table.provenance, rel_se=table._rel_se
    )


def perturbed_py_table(n_max):
    return perturbed_table(build_weight_table(GibbsModel.py(0.5, 1.0), n_max))


class TestStepSumCheck:
    def test_partition_refuses_defect(self):
        table = perturbed_py_table(6)
        with pytest.raises(ValueError, match="beyond tolerance"):
            sample_partition(GibbsModel.py(0.5, 1.0), 6, seed=0, table=table)

    def test_partition_refuses_defect_its_draws_never_visit(self):
        # V_{6,6} is read only by the step from five singletons, which the
        # draws of seed 0 never reach; every step up to n is still checked
        model = GibbsModel.py(0.5, 1.0)
        table = build_weight_table(model, 6)
        visited = sample_partition(model, 6, seed=0, table=table).assignments
        assert visited[:5] != (1, 2, 3, 4, 5)
        with pytest.raises(ValueError, match="at n=5, b=5, beyond tolerance"):
            sample_partition(model, 6, seed=0, table=perturbed_table(table, 6, 6))

    def test_block_counts_refuse_defect(self):
        table = perturbed_py_table(6)
        model = GibbsModel.py(0.5, 1.0)
        with pytest.raises(ValueError, match="beyond tolerance"):
            sample_block_counts(model, 6, 10, seed=0, table=table)
        # the unperturbed table passes the same check
        sample_block_counts(model, 6, 10, seed=0, table=build_weight_table(model, 6))

    def test_mc_table_held_to_the_same_tolerance(self):
        # the perturbation is far inside the table's own standard errors
        # and far outside the recursion that every table satisfies
        model = GibbsModel.ngg(0.5, 1.0, mc_config=McConfig(samples=10_000, seed=4))
        table = perturbed_table(build_weight_table(model, 6))
        assert table.provenance.kind == "monte-carlo"
        assert table.rel_se_row(2).min() > 1e-4
        with pytest.raises(ValueError, match="beyond tolerance"):
            sample_partition(model, 6, seed=0, table=table)
        with pytest.raises(ValueError, match="beyond tolerance"):
            sample_block_counts(model, 6, 10, seed=0, table=table)
        with pytest.raises(NormalizationError, match="beyond tolerance"):
            block_count_distribution(model, 2, table=table)

    def test_dp_law_reads_a_given_table(self):
        # DP's block law reads the table it is given, as every subclass does:
        # a perturbed table misses the law's tolerance, and another theta's
        # table gives that theta's law
        dp1 = GibbsModel.dp(1.0)
        perturbed = perturbed_table(build_weight_table(dp1, 6), 6, 3)
        with pytest.raises(NormalizationError, match="beyond tolerance"):
            block_count_distribution(dp1, 6, table=perturbed)
        dp5 = GibbsModel.dp(5.0)
        assert np.array_equal(
            block_count_distribution(dp1, 6, table=build_weight_table(dp5, 6)),
            block_count_distribution(dp5, 6),
        )

    @pytest.mark.parametrize("log_beta", [15.0, 20.0, 23.0])
    def test_mc_tables_pass_at_the_betas_calibrate_visits(self, ngg_sampler_075, log_beta):
        # at large beta the NGG last row sits near beta^alpha - beta min R
        # and the corner V_{n,1} near exp(-1e10); the table must still pass
        # every urn step, the corner (m = n-1, b = 1) included, and every
        # block-count law
        n, alpha = 100, 0.75
        beta = math.exp(log_beta)
        table = weight_table_from_sampler(ngg_sampler_075, beta)
        model = GibbsModel.ngg(alpha, beta, mc_config=McConfig(samples=10_000, seed=2))
        sample_block_counts(model, n, 20, seed=0, table=table)
        sample_partition(model, n, seed=0, table=table)
        gfc = build_gfc_table(n, alpha)
        for depth in range(1, n + 1):
            block_count_distribution(model, depth, table=table, gfc=gfc)


@pytest.fixture(scope="module")
def ngg_sampler_075():
    # one set of frozen NGG(0.75) draws shared by the large-beta cases
    return NggWeightSampler(0.75, 100, 10_000, seed=2)


class TestSamplePartition:
    def test_shape_and_assignments(self):
        state = sample_partition(GibbsModel.py(0.5, 1.0), 25, seed=7)
        assert state.n == 25
        assert sum(state.block_sizes) == 25
        # assignments recount to the block sizes
        sizes = np.bincount(state.assignments)[1:]
        np.testing.assert_array_equal(sizes, state.block_sizes)
        # blocks appear in order
        seen = []
        for a in state.assignments:
            if a not in seen:
                seen.append(a)
        assert seen == sorted(seen)

    def test_reproducible(self):
        a = sample_partition(GibbsModel.dp(2.0), 30, seed=11)
        b = sample_partition(GibbsModel.dp(2.0), 30, seed=11)
        assert a.assignments == b.assignments

    def test_mc_weights_simulate_cleanly(self):
        model = GibbsModel.ngg(0.5, 1.0, mc_config=McConfig(samples=20_000, seed=1))
        state = sample_partition(model, 15, seed=3)
        assert state.n == 15

    @pytest.mark.parametrize(
        "model, pins",
        [
            (GibbsModel.dp(2.0), ("9a359f90876e50de", "83543458448d703b")),
            (GibbsModel.py(0.5, 1.0), ("1789032466ae3805", "ba8eda80d41cfb62")),
            (
                GibbsModel.ngg(0.5, 1.0, mc_config=McConfig(samples=10_000, seed=1)),
                ("5d943e31296bce8c", "19502daf12dca284"),
            ),
        ],
        ids=["DP", "PY", "NGG"],
    )
    def test_seeded_outputs_pinned(self, model, pins):
        # sha256 (first 16 hex digits) of the assignments of seeds 0..19 and
        # of 2000 block counts, recorded from the customer-by-customer urn
        # that preceded the row-by-row one
        table = build_weight_table(model, 40)
        draws = [sample_partition(model, 40, seed, table=table).assignments for seed in range(20)]
        counts = sample_block_counts(model, 40, 2000, seed=3, table=table)
        digests = (
            hashlib.sha256(np.array(draws, dtype=np.int64).tobytes()).hexdigest()[:16],
            hashlib.sha256(counts.astype(np.int64).tobytes()).hexdigest()[:16],
        )
        assert digests == pins


class TestStreamedClosedFormRows:
    # DP and PY read their closed-form weight rows one at a time

    @pytest.mark.parametrize(
        "model, pins",
        [
            (GibbsModel.dp(2.0), ("08a1a5ed863569d0", "16dd2e751d7bd493")),
            (GibbsModel.py(0.5, 1.0), ("117ec85f5836ee41", "96971960fa2731e3")),
            (GibbsModel.py(0.9, -0.5), ("2a97df1b6ce5c900", "7c8c724751849873")),
        ],
        ids=["DP", "PY", "PY-negative-theta"],
    )
    def test_outputs_pinned(self, model, pins):
        # sha256 (first 16 hex digits) of the depth-300 weight table and of
        # seeded urn and EPPF outputs at n = 1, 2, 17, 200, recorded from
        # the samplers that built the dense closed-form table
        table_digest = hashlib.sha256(build_weight_table(model, 300)._log.tobytes())
        urn_digest = hashlib.sha256()
        for n in (1, 2, 17, 200):
            state = sample_partition(model, n, seed=n)
            counts = sample_block_counts(model, n, 500, seed=n + 1)
            for part in (
                np.array(state.assignments, dtype=np.int64),
                counts.astype(np.int64),
                np.array([log_eppf(model, state.block_sizes)]),
            ):
                urn_digest.update(part.tobytes())
        assert (table_digest.hexdigest()[:16], urn_digest.hexdigest()[:16]) == pins

    @pytest.mark.parametrize(
        "model",
        [GibbsModel.dp(2.0), GibbsModel.py(0.5, 1.0), GibbsModel.py(0.9, -0.5)],
        ids=["DP", "PY", "PY-negative-theta"],
    )
    def test_no_table_equals_the_built_table(self, model):
        for n in (1, 2, 17, 200):
            table = build_weight_table(model, n)
            streamed = sample_partition(model, n, seed=n)
            tabled = sample_partition(model, n, seed=n, table=table)
            assert streamed.assignments == tabled.assignments
            assert np.array_equal(
                sample_block_counts(model, n, 500, seed=n + 1),
                sample_block_counts(model, n, 500, seed=n + 1, table=table),
            )
            sizes = streamed.block_sizes
            assert log_eppf(model, sizes) == log_eppf(model, sizes, table=table)

    @pytest.mark.parametrize(
        "model", [GibbsModel.dp(2.0), GibbsModel.py(0.5, 1.0)], ids=["DP", "PY"]
    )
    def test_past_the_table_limit(self, model, monkeypatch):
        # no dense table is built, so the depth limit does not bind
        def refuse(*args, **kwargs):
            raise AssertionError("a weight table was built")

        monkeypatch.setattr(gibbs_weights, "build_weight_table", refuse)
        n = MAX_TABLE_DEPTH + 1
        counts = sample_block_counts(model, n, 50, seed=0)
        assert counts.shape == (50,) and counts.min() >= 1 and counts.max() <= n
        state = sample_partition(model, n, seed=0)
        assert state.n == n
        assert math.isfinite(log_eppf(model, state.block_sizes))


class TestRowNRead:
    # the EPPF and the block law read row n alone, never rows 1..n-1

    @pytest.mark.parametrize("n", [1, 2, 200, 2000])
    @pytest.mark.parametrize(
        "model", [GibbsModel.dp(2.0), GibbsModel.py(0.5, 1.0)], ids=["DP", "PY"]
    )
    def test_bits_of_the_walked_row(self, model, n):
        alpha = model.stable_index
        sizes = (1,) * (min(n, 4) - 1) + (n - min(n, 4) + 1,)
        *_, log_c = gfc_rows(n, alpha)
        table = build_weight_table(model, n)
        for given in (None, table):
            *_, walked = weight_rows(model, n, given)
            assert np.array_equal(weight_row(model, n, given), walked)
            want = walked[len(sizes) - 1]
            for s in sorted(sizes):
                want += log_rising_factorial(1.0 - alpha, s - 1)
            assert log_eppf(model, sizes, table=given) == want
            assert np.array_equal(
                block_count_distribution(model, n, table=given), np.exp(walked + log_c)
            )

    def test_given_table_read_once(self):
        model, n = GibbsModel.py(0.5, 1.0), 200
        table = build_weight_table(model, n)
        reads, log_row = [], table.log_row
        table.log_row = lambda m: reads.append(m) or log_row(m)
        weight_row(model, n, table)
        log_eppf(model, (150, 50), table=table)
        block_count_distribution(model, n, table=table)
        assert reads == [n, n, n]

    def test_arguments_checked_at_the_call(self):
        model = GibbsModel.py(0.5, 1.0)
        for n in (0, 2.5):
            with pytest.raises(ValueError, match="positive integer"):
                weight_row(model, n)
        with pytest.raises(ValueError, match="depth 2 cannot serve n = 3"):
            weight_row(model, 3, build_weight_table(model, 2))


class TestSampleBlockCounts:
    def test_matches_loop_sampler_marginally(self):
        model = GibbsModel.py(0.5, 1.0)
        table = build_weight_table(model, 12)
        batch = sample_block_counts(model, 12, 4000, seed=5, table=table)
        loop = np.array(
            [sample_partition(model, 12, seed=1000 + i, table=table).block_count for i in range(1000)]
        )
        assert stats.ks_2samp(batch, loop).pvalue > 0.01

    def test_chisquare_block_law_n50(self):
        model = GibbsModel.py(0.5, 1.0)
        counts = sample_block_counts(model, 50, 100_000, seed=9)
        probs = block_count_distribution(model, 50)
        observed = np.bincount(counts, minlength=51)[1:]
        result = pooled_chisquare(observed.astype(float), probs)
        assert result.pvalue > 0.001

    def test_total_variation_n200(self):
        model = GibbsModel.py(0.5, 1.0)
        counts = sample_block_counts(model, 200, 100_000, seed=17)
        probs = block_count_distribution(model, 200)
        empirical = np.bincount(counts, minlength=201)[1:] / counts.size
        tv = 0.5 * np.abs(empirical - probs).sum()
        assert tv < 0.01


class TestLogEppf:
    def test_singleton(self):
        for model in (GibbsModel.dp(1.0), GibbsModel.py(0.5, 1.0)):
            assert log_eppf(model, (1,)) == pytest.approx(0.0, abs=1e-12)

    def test_py_two_one(self):
        assert log_eppf(GibbsModel.py(0.5, 1.0), (2, 1)) == pytest.approx(
            math.log(0.125), abs=1e-12
        )

    def test_invalid_composition(self):
        with pytest.raises(ValueError):
            log_eppf(GibbsModel.dp(1.0), (2, 0))
        with pytest.raises(ValueError):
            log_eppf(GibbsModel.dp(1.0), ())

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetry_exact(self, sizes, seed):
        model = GibbsModel.py(0.3, 0.7)
        table = build_weight_table(model, sum(sizes))
        perm = list(sizes)
        np.random.default_rng(seed).shuffle(perm)
        assert log_eppf(model, sizes, table=table) == log_eppf(model, perm, table=table)

    @pytest.mark.parametrize(
        "model", [GibbsModel.py(0.5, 1.0), GibbsModel.dp(1.5), GibbsModel.py(0.9, -0.5)]
    )
    def test_sequential_consistency(self, model):
        # f(n_1..n_k) = sum_j f(..n_j+1..) + f(n_1..n_k, 1), enumerated exactly
        table = build_weight_table(model, 8)
        for n in range(1, 8):
            for comp in compositions(n):
                lhs = math.exp(log_eppf(model, comp, table=table))
                rhs = math.exp(log_eppf(model, comp + (1,), table=table))
                for j in range(len(comp)):
                    extended = comp[:j] + (comp[j] + 1,) + comp[j + 1:]
                    rhs += math.exp(log_eppf(model, extended, table=table))
                assert rhs == pytest.approx(lhs, rel=1e-11)

    def test_normalization_by_enumeration(self):
        # EPPF sums to 1 over set partitions of [n]; compositions overcount
        # each unordered block multiset by permutations of (distinct) sizes,
        # so enumerate labeled set partitions directly via assignment vectors
        model = GibbsModel.py(0.4, 0.9)
        n = 6
        table = build_weight_table(model, n)
        total = 0.0
        for labels in itertools.product(range(n), repeat=n - 1):
            # canonical growth labels: customer i may only open block <= max+1
            assignment = (0,) + labels
            sizes = []
            ok = True
            for a in assignment:
                if a < len(sizes):
                    sizes[a] += 1
                elif a == len(sizes):
                    sizes.append(1)
                else:
                    ok = False
                    break
            if ok:
                total += math.exp(log_eppf(model, sizes, table=table))
        assert total == pytest.approx(1.0, rel=1e-10)
