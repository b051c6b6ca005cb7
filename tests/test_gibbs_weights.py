import io
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from gibbsibp import gibbs_weights
from gibbsibp.gibbs_weights import (
    MAX_FROZEN_DRAWS,
    SUMMARY_BINS,
    SUMMARY_HEAD,
    SUMMARY_ROUNDING,
    check_frozen_draws,
    DrawSummary,
    GibbsModel,
    McConfig,
    McDegeneracyError,
    NggWeightSampler,
    NormalizationError,
    Provenance,
    _calibrate,
    block_count_distribution,
    build_primitive_cache,
    build_weight_table,
    calibrate,
    depth_primitives,
    expected_blocks,
    load_weight_table,
    log_primitive,
    ngg_last_row_mc,
    ngg_weights_smalln,
    persistence_probability,
    primitive,
    primitive_cache_content_hash,
    py_primitive_closed,
    save_weight_table,
    table_cache_path,
    weight_rows,
    weight_table_content_hash,
    weight_table_from_sampler,
)
from gibbsibp.special_functions import MAX_TABLE_DEPTH, TableSizeError, build_gfc_table
from oracles import py_g11_mp, py_log_gs1_mp
from gibbsibp.stable_sampling import TiltedStableSpec, sample_tilted_stable

# Frozen oracle values for NGG weights: mpmath quadrature (30 dps) of
# V_{n,k} = (alpha^k/Gamma(n)) e^{beta^alpha} int_beta^inf (u-beta)^{n-1}
# u^{k alpha - n} e^{-u^alpha} du, an independent route from the series.
NGG_WEIGHT_ORACLE = {
    (0.5, 1.0): {
        (2, 1): 0.59634736232319407,
        (2, 2): 0.70182631883840296,
        (3, 2): 0.27636973912880222,
        (4, 3): 0.12404232528128959,
        (5, 1): 0.011047967326675494,
    },
    (0.3, 0.5): {
        (2, 1): 0.76334508106665535,
        (2, 2): 0.46565844325334124,
        (3, 2): 0.21134938355394724,
        (4, 3): 0.054312989814652529,
        (5, 1): 0.021793987296575784,
    },
    (0.7, 2.0): {
        (2, 1): 0.40083175365740141,
        (2, 2): 0.87975047390277956,
        (3, 2): 0.26206556022760565,
        (4, 3): 0.17036376538299923,
        (5, 1): 0.0034952582025098199,
    },
}


def recursion_residual(table):
    # scale-free residual |1 - [(n - alpha k) V_{n+1,k} + V_{n+1,k+1}] / V_{n,k}|
    worst = 0.0
    for n in range(1, table.n_max):
        k = np.arange(1, n + 1)
        log_vn = table.log_row(n)
        log_next = table.log_row(n + 1)
        r1 = np.exp(np.log(n - table.alpha * k) + log_next[:n] - log_vn)
        r2 = np.exp(log_next[1:n + 1] - log_vn)
        worst = max(worst, float(np.max(np.abs(1.0 - r1 - r2))))
    return worst


class TestGibbsModel:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            GibbsModel.dp(0.0)
        with pytest.raises(ValueError):
            GibbsModel.py(1.2, 1.0)
        with pytest.raises(ValueError):
            GibbsModel.py(0.5, -0.6)
        with pytest.raises(ValueError):
            GibbsModel.ngg(0.5, 0.0)
        with pytest.raises(ValueError):
            GibbsModel.nig(-1.0)
        with pytest.raises(ValueError):
            GibbsModel(variant="XX", theta=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_parameters(self, value):
        # nan passes every comparison-based bound, and inf passes theta > 0
        cases = [
            ("theta", lambda: GibbsModel.dp(value)),
            ("theta", lambda: GibbsModel.py(0.5, value)),
            ("alpha", lambda: GibbsModel.py(value, 1.0)),
            ("alpha", lambda: GibbsModel.ngg(value, 1.0)),
            ("beta", lambda: GibbsModel.ngg(0.5, value)),
            ("beta", lambda: GibbsModel.nig(value)),
        ]
        for name, build in cases:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                build()

    def test_py_theta_above_negative_alpha(self):
        model = GibbsModel.py(0.5, -0.4)
        assert model.theta == -0.4

    def test_nig_is_ngg_half(self):
        mc = McConfig(samples=20_000, seed=3)
        nig = GibbsModel.nig(2.0, mc_config=mc)
        ngg = GibbsModel.ngg(0.5, 2.0, mc_config=mc)
        assert nig.stable_index == 0.5
        t_nig = build_weight_table(nig, 6)
        t_ngg = build_weight_table(ngg, 6)
        for n in range(1, 7):
            np.testing.assert_allclose(t_nig.log_row(n), t_ngg.log_row(n), rtol=0, atol=0)

    def test_closed_form_families(self):
        # DP/PY weights are closed forms; NGG/NIG come from Monte Carlo draws
        assert GibbsModel.dp(1.0).is_closed_form
        assert GibbsModel.py(0.5, 1.0).is_closed_form
        assert not GibbsModel.ngg(0.5, 1.0).is_closed_form
        assert not GibbsModel.nig(1.0).is_closed_form

    def test_payload_round_trip(self):
        for model in (
            GibbsModel.dp(2.0),
            GibbsModel.py(0.3, 1.5),
            GibbsModel.ngg(0.6, 0.8, mc_config=McConfig(samples=50_000, seed=9)),
            GibbsModel.nig(1.1),
        ):
            assert GibbsModel.from_payload(model.to_payload()) == model


class TestBuildWeightTable:
    def test_refuses_depth_past_limit(self):
        # one row past the limit: a missing guard allocates only that much
        depth = MAX_TABLE_DEPTH + 1
        with pytest.raises(TableSizeError, match="MAX_TABLE_DEPTH"):
            build_weight_table(GibbsModel.py(0.5, 1.0), depth)
        # DP's block law streams its Stirling row and builds no table
        law = block_count_distribution(GibbsModel.dp(1.0), depth)
        assert law.size == depth and abs(law.sum() - 1.0) < 1e-8
        # the chain's tables come from frozen draws, refused before drawing
        with pytest.raises(TableSizeError, match="MAX_TABLE_DEPTH"):
            NggWeightSampler(0.5, depth, 10, seed=0)

    def test_py_anchor_values(self):
        table = build_weight_table(GibbsModel.py(0.5, 1.0), 3)
        assert table.weight(2, 1) == pytest.approx(0.5, abs=1e-14)
        assert table.weight(2, 2) == pytest.approx(0.75, abs=1e-14)

    def test_first_entry_is_one(self):
        for model in (
            GibbsModel.dp(3.0),
            GibbsModel.py(0.4, 0.7),
            GibbsModel.ngg(0.5, 1.0, mc_config=McConfig(samples=20_000, seed=0)),
        ):
            table = build_weight_table(model, 4)
            assert table.log_weight(1, 1) == 0.0

    def test_py_recursion_step(self):
        table = build_weight_table(GibbsModel.py(0.5, 1.0), 2)
        assert (1 - 0.5) * table.weight(2, 1) + table.weight(2, 2) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "model",
        [GibbsModel.dp(1.0), GibbsModel.py(0.5, 1.0), GibbsModel.py(0.9, 0.2)],
    )
    def test_closed_form_recursion_residual(self, model):
        table = build_weight_table(model, 100)
        assert recursion_residual(table) <= 1e-10

    def test_closed_form_entries_finite(self):
        table = build_weight_table(GibbsModel.py(0.2, 5.0), 80)
        for n in range(1, 81):
            assert np.all(np.isfinite(table.log_row(n)))

    def test_mc_table_recursion_exact_by_construction(self):
        model = GibbsModel.ngg(0.5, 1.0, mc_config=McConfig(samples=20_000, seed=1))
        table = build_weight_table(model, 10)
        assert recursion_residual(table) <= 1e-12
        assert table.provenance.kind == "monte-carlo"
        assert table.provenance.samples == 20_000
        for n in range(1, 11):
            assert np.all(np.isfinite(table.log_row(n)))
            assert np.all(table.rel_se_row(n) >= 0.0)

    @given(
        alpha=st.floats(min_value=0.05, max_value=0.95),
        last_row=st.lists(
            st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=60
        ),
        offset=st.floats(min_value=-1e10, max_value=1e10),
    )
    @settings(max_examples=60, deadline=None)
    def test_backward_fill_is_an_exact_triangle(self, alpha, last_row, offset):
        # whatever positive last row the estimator returns, the filled table
        # is the weight triangle of some Gibbs partition: its urn steps and
        # its block-count laws sum to one at every depth, also when the row
        # carries a common offset as large as the one beta = 1e10 gives
        n = len(last_row)
        table = gibbs_weights._mc_weight_table(
            alpha, np.array(last_row) + offset, np.zeros(n),
            Provenance("monte-carlo", 10_000, 0),
        )
        gfc = build_gfc_table(n, alpha)
        for m in range(1, n + 1):
            k = np.arange(1, m + 1)
            if m < n:
                same = np.exp(table.log_row(m + 1)[:m] - table.log_row(m))
                new = np.exp(table.log_row(m + 1)[1:] - table.log_row(m))
                steps = (m - alpha * k) * same + new
                assert np.abs(steps - 1.0).max() <= 1e-10
            law = np.exp(table.log_row(m) + gfc.log_row(m))
            assert abs(law.sum() - 1.0) <= 1e-8

    def test_mc_reproducible(self):
        model = GibbsModel.ngg(0.4, 0.7, mc_config=McConfig(samples=20_000, seed=5))
        t1 = build_weight_table(model, 5)
        t2 = build_weight_table(model, 5)
        np.testing.assert_array_equal(t1.log_row(5), t2.log_row(5))

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            build_weight_table(GibbsModel.dp(1.0), 0)


class TestNggSmallnSeries:
    def test_first_weight_is_one(self):
        for alpha, beta in [(0.3, 0.5), (0.5, 1.0), (0.7, 2.0)]:
            table = ngg_weights_smalln(alpha, beta, 4)
            assert table.log_weight(1, 1) == pytest.approx(0.0, abs=1e-12)

    def test_matches_quadrature_oracle(self):
        for (alpha, beta), entries in NGG_WEIGHT_ORACLE.items():
            table = ngg_weights_smalln(alpha, beta, 5)
            for (n, k), expected in entries.items():
                assert table.weight(n, k) == pytest.approx(expected, rel=1e-12)

    def test_rows_satisfy_recursion(self):
        for alpha, beta in [(0.3, 0.5), (0.5, 1.0), (0.7, 2.0)]:
            table = ngg_weights_smalln(alpha, beta, 8)
            assert recursion_residual(table) <= 1e-6

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            ngg_weights_smalln(0.5, 1.0, 13)


class TestNggLastRowMc:
    def test_within_three_se_of_series(self):
        series = ngg_weights_smalln(0.5, 1.0, 5)
        rng = np.random.default_rng(2)
        log_row, rel_se = ngg_last_row_mc(0.5, 1.0, 5, 200_000, rng)
        for k in range(1, 6):
            estimate = math.exp(log_row[k - 1])
            truth = series.weight(5, k)
            assert abs(estimate - truth) <= 3.0 * rel_se[k - 1] * estimate

    def test_se_scales_with_samples(self):
        _, rel_small = ngg_last_row_mc(0.5, 1.0, 4, 100_000, np.random.default_rng(3))
        _, rel_big = ngg_last_row_mc(0.5, 1.0, 4, 400_000, np.random.default_rng(3))
        ratio = rel_small / rel_big
        assert np.all(ratio > 1.5) and np.all(ratio < 2.7)

    def test_requires_min_samples(self):
        with pytest.raises(ValueError):
            ngg_last_row_mc(0.5, 1.0, 5, 5_000, np.random.default_rng(0))

    def test_reproducible(self):
        r1, _ = ngg_last_row_mc(0.3, 0.5, 6, 20_000, np.random.default_rng(7))
        r2, _ = ngg_last_row_mc(0.3, 0.5, 6, 20_000, np.random.default_rng(7))
        np.testing.assert_array_equal(r1, r2)


class TestPrimitive:
    def test_py_anchor(self):
        table = build_weight_table(GibbsModel.py(0.5, 1.0), 3)
        gfc = build_gfc_table(3, 0.5)
        assert primitive(table, gfc, 1, 1, 0) == pytest.approx(0.5, abs=1e-12)
        assert primitive(table, gfc, 1, 1, 1) == pytest.approx(0.75, abs=1e-12)

    def test_matches_closed_form_grid(self):
        for alpha in (0.1, 0.9):
            gfc = build_gfc_table(30, alpha)
            for theta in (0.1, 10.0):
                table = build_weight_table(GibbsModel.py(alpha, theta), 31)
                for n in range(1, 31):
                    assert primitive(table, gfc, n, 1, 0) == pytest.approx(
                        py_primitive_closed(alpha, theta, n, (1, 0)), rel=1e-8
                    )
                    assert primitive(table, gfc, n, 1, 1) == pytest.approx(
                        py_primitive_closed(alpha, theta, n, (1, 1)), rel=1e-8
                    )

    def test_depth_errors(self):
        table = build_weight_table(GibbsModel.py(0.5, 1.0), 3)
        gfc = build_gfc_table(3, 0.5)
        with pytest.raises(ValueError):
            primitive(table, gfc, 3, 1, 0)
        with pytest.raises(ValueError):
            primitive(table, gfc, 4, 0, 0)

    def test_dp_matches_closed_forms(self):
        # a DP weight table with the alpha = 0 GFC table (unsigned Stirling
        # numbers of the first kind) is a valid generic primitive
        gfc = build_gfc_table(60, 0.0)
        for theta in (0.1, 1.0, 10.0):
            table = build_weight_table(GibbsModel.dp(theta), 61)
            for n in range(1, 61):
                for which in ((1, 0), (1, 1)):
                    want = math.log(py_primitive_closed(0.0, theta, n, which))
                    got = log_primitive(table, gfc, n, *which)
                    assert got == pytest.approx(want, rel=0.0, abs=1e-12), (theta, n, which)

    def test_alpha_mismatch(self):
        table = build_weight_table(GibbsModel.py(0.5, 1.0), 3)
        gfc = build_gfc_table(3, 0.4)
        with pytest.raises(ValueError):
            primitive(table, gfc, 1, 1, 0)


class TestPyPrimitiveClosed:
    def test_dp_special_case(self):
        for n in range(1, 21):
            assert py_primitive_closed(0.0, 1.0, n, (1, 1)) == pytest.approx(
                1.0 / (n + 1), rel=1e-12
            )

    def test_anchors(self):
        assert py_primitive_closed(0.5, 1.0, 1, (1, 0)) == pytest.approx(0.5)
        assert py_primitive_closed(0.5, 1.0, 1, (1, 1)) == pytest.approx(0.75)

    def test_zero_index_new_dish_rate(self):
        assert py_primitive_closed(0.3, 0.8, 0, (1, 1)) == pytest.approx(1.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            py_primitive_closed(0.5, -0.6, 1, (1, 0))
        with pytest.raises(ValueError):
            py_primitive_closed(0.5, 1.0, 1, (2, 0))


class TestBuildPrimitiveCache:
    def test_g11_starts_at_one(self):
        for model in (GibbsModel.dp(2.0), GibbsModel.py(0.5, 1.0)):
            cache = build_primitive_cache(model, 6)
            assert cache.g11[0] == pytest.approx(1.0, abs=1e-12)

    def test_entries_positive(self):
        cache = build_primitive_cache(GibbsModel.py(0.3, 0.5), 12)
        assert np.all(cache.g11 > 0)
        assert np.all(np.isfinite(cache.log_gs1))
        assert np.all(cache.g10[1:] > 0)
        assert math.isnan(cache.g10[0])
        assert cache.g10_n == pytest.approx(1.0 / (0.5 + 11.0), rel=1e-12)

    def test_py_closed_cache_matches_generic_route(self):
        # the PY cache takes the closed-form branch; the generic
        # table-driven primitives must agree with it
        model = GibbsModel.py(0.35, 1.2)
        n = 10
        table = build_weight_table(model, n)
        gfc = build_gfc_table(n - 1, 0.35)
        cache = build_primitive_cache(model, n)
        for j in range(2, n + 1):
            assert cache.g10[j - 1] == pytest.approx(
                primitive(table, gfc, j - 1, 1, 0), rel=1e-10
            )
            assert cache.g11[j - 1] == pytest.approx(
                primitive(table, gfc, j - 1, 1, 1), rel=1e-10
            )
        for s in range(1, n):
            assert math.exp(cache.log_gs1[s - 1]) == pytest.approx(
                primitive(table, gfc, n - s, s, 1), rel=1e-10
            )

    def test_boundary_uses_first_column_weight(self):
        model = GibbsModel.py(0.5, 1.0)
        table = build_weight_table(model, 6)
        cache = build_primitive_cache(model, 6, table=table)
        assert math.exp(cache.log_gs1[5]) == pytest.approx(table.weight(6, 1), rel=1e-12)

    def test_shift_identity(self):
        # g_{n-s}(s+1, 1) = g_{n-s}(s, 1) * g_n(1, 0)
        n = 12
        model = GibbsModel.py(0.4, 0.9)
        table = build_weight_table(model, n + 1)
        gfc = build_gfc_table(n, 0.4)
        cache = build_primitive_cache(model, n, table=table, gfc=gfc)
        g10_n = primitive(table, gfc, n, 1, 0)
        for s in range(1, n):
            lhs = primitive(table, gfc, n - s, s + 1, 1)
            assert lhs == pytest.approx(math.exp(cache.log_gs1[s - 1]) * g10_n, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.0, 0.35, 0.9])
    @pytest.mark.parametrize("theta", [0.05, 1.2, 40.0])
    def test_closed_form_cache_equals_scalar_closed_forms(self, alpha, theta):
        # against 40-digit mpmath, and the gammaln scalar forms within 1e-12
        model = GibbsModel.dp(theta) if alpha == 0.0 else GibbsModel.py(alpha, theta)
        for n in (1, 2, 13, 200):
            cache = build_primitive_cache(model, n)
            g11, _ = py_g11_mp(alpha, theta, n)
            scalar = [py_primitive_closed(alpha, theta, j - 1, (1, 1)) for j in range(1, n + 1)]
            np.testing.assert_allclose(cache.g11, g11, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(cache.g11, scalar, rtol=1e-12, atol=0.0)
            # log g_r(s, 1) = log[Gamma(theta+1) Gamma(theta+alpha+r) /
            #                     (Gamma(theta+alpha) Gamma(theta+r+s))], r = n - s
            log_gs1 = [py_log_gs1_mp(alpha, theta, n, s) for s in range(1, n + 1)]
            scalar = [
                float(
                    special.gammaln(theta + 1.0)
                    + special.gammaln(theta + alpha + (n - s))
                    - special.gammaln(theta + alpha)
                    - special.gammaln(theta + (n - s) + s)
                )
                for s in range(1, n + 1)
            ]
            scale = np.maximum(1.0, np.abs(log_gs1))
            assert np.all(np.abs(cache.log_gs1 - log_gs1) <= 1e-13 * scale)
            assert np.all(np.abs(cache.log_gs1 - scalar) <= 1e-12 * scale)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9])
    def test_mc_cache_matches_scalar_primitives(self, alpha):
        for n in (1, 2, 3, 37, 100):
            table = weight_table_from_sampler(NggWeightSampler(alpha, n, 500, seed=n), 1.0)
            gfc = build_gfc_table(n, alpha)
            cache = build_primitive_cache(GibbsModel.ngg(alpha, 1.0), n, table=table, gfc=gfc)
            assert cache.table is table
            assert math.isnan(cache.g10[0]) and cache.g11[0] == 1.0
            for j in range(2, n + 1):
                assert cache.g10[j - 1] == pytest.approx(
                    primitive(table, gfc, j - 1, 1, 0), rel=1e-12, abs=0.0
                )
                assert cache.g11[j - 1] == pytest.approx(
                    primitive(table, gfc, j - 1, 1, 1), rel=1e-12, abs=0.0
                )
            for s in range(1, n):
                assert cache.log_gs1[s - 1] == pytest.approx(
                    log_primitive(table, gfc, n - s, s, 1), rel=1e-12, abs=0.0
                )
            # row n normalised by its block law, not by the backward fill
            assert cache.log_gs1[n - 1] == pytest.approx(
                table.log_weight(n, 1), rel=1e-12, abs=1e-15
            )

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_mc_cache_matches_logsumexp_form(self, alpha):
        # the max-shifted row sums against scipy's logsumexp over the same
        # masked triangles (the GFC block is -inf above its diagonal)
        for n in (2, 10, 100):
            table = weight_table_from_sampler(NggWeightSampler(alpha, n, 500, seed=n), 1.0)
            gfc = build_gfc_table(n, alpha)
            cache = build_primitive_cache(GibbsModel.ngg(alpha, 1.0), n, table=table, gfc=gfc)
            v = table._log
            log_c = gfc.log_block(n - 1)
            assert np.isneginf(log_c[np.triu_indices(n - 1, 1)]).all()
            g10 = np.exp(special.logsumexp(v[2:n + 1, 1:n] + log_c, axis=1))
            g11 = np.exp(special.logsumexp(v[2:n + 1, 2:n + 1] + log_c, axis=1))
            log_gs1 = special.logsumexp(v[n, 2:n + 1] + log_c, axis=1)[::-1]
            np.testing.assert_allclose(cache.g10[1:], g10, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(cache.g11[1:], g11, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(cache.log_gs1[:-1], log_gs1, rtol=1e-13, atol=0.0)

    def test_mc_cache_rejects_mismatched_tables(self):
        model = GibbsModel.ngg(0.5, 1.0)
        table = weight_table_from_sampler(NggWeightSampler(0.5, 8, 500, seed=1), 1.0)
        with pytest.raises(ValueError):  # weight table too shallow
            build_primitive_cache(model, 9, table=table, gfc=build_gfc_table(8, 0.5))
        with pytest.raises(ValueError, match="GFC table depth"):
            # row n normalises the block law, so depth n - 1 is too shallow
            build_primitive_cache(model, 8, table=table, gfc=build_gfc_table(7, 0.5))
        with pytest.raises(ValueError, match="disagree on alpha"):
            build_primitive_cache(model, 8, table=table, gfc=build_gfc_table(8, 0.4))

    def test_dp_matches_py_limit(self):
        # alpha -> 0 continuity: DP closed forms against PY at tiny alpha
        theta, n = 1.3, 8
        dp_cache = build_primitive_cache(GibbsModel.dp(theta), n)
        py_cache = build_primitive_cache(GibbsModel.py(1e-9, theta), n)
        np.testing.assert_allclose(dp_cache.g11, py_cache.g11, rtol=1e-5)
        np.testing.assert_allclose(
            np.exp(dp_cache.log_gs1), np.exp(py_cache.log_gs1), rtol=1e-5
        )


class TestPrimitivesInterface:
    """ClosedFormPrimitives and NggRowPrimitives answer the same reads, and
    each object's depth-n reads agree with its own sequences."""

    READS = ("n", "alpha", "expected_blocks", "g10_n", "g11_n", "log_gs1_at",
             "g10", "g11", "log_gs1")
    REMOVED = ("g10_for", "g11_for", "gs1_for", "log_gs1_for", "gs1", "log_joint_reads")

    @pytest.mark.parametrize(
        "model",
        [GibbsModel.dp(1.5), GibbsModel.py(0.4, 0.9),
         GibbsModel.ngg(0.3, 2.0, McConfig(500, 4)), GibbsModel.nig(1.0, McConfig(500, 5))],
        ids=lambda model: model.variant,
    )
    def test_reads_agree(self, model):
        for n in (1, 2, 12, 60):
            routes = [depth_primitives(model, n)]
            if not model.is_closed_form:
                # from a given table, as the CLI and Geweke build them
                routes.append(build_primitive_cache(model, n, table=routes[0].table))
            for primitives in routes:
                for name in self.READS:
                    assert hasattr(primitives, name), name
                for name in self.REMOVED:
                    assert not hasattr(primitives, name), name
                assert primitives.n == n
                assert primitives.alpha == model.stable_index
                assert primitives.g11.sum() == pytest.approx(
                    primitives.expected_blocks, rel=1e-12, abs=0.0
                )
                if n > 1:
                    assert primitives.g10[n - 1] == pytest.approx(
                        primitives.g10_n, rel=1e-12, abs=0.0
                    )
                else:
                    assert math.isnan(primitives.g10_n)
                assert np.array_equal(
                    primitives.log_gs1, primitives.log_gs1_at(np.arange(1, n + 1))
                )
                assert type(primitives.expected_blocks) is float


class TestPersistenceProbability:
    def test_trivial_case(self):
        cache = build_primitive_cache(GibbsModel.py(0.5, 1.0), 1)
        assert persistence_probability(cache, 1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_py_diagonal(self):
        cache = build_primitive_cache(GibbsModel.py(0.5, 1.0), 2)
        assert persistence_probability(cache, 2, 2) == pytest.approx(0.25, rel=1e-10)

    def test_ratio_identity(self):
        # g(n+1, s+1) / g(n, s) = (s - alpha) g_n(1, 0)
        alpha, theta = 0.5, 1.0
        model = GibbsModel.py(alpha, theta)
        for n in (3, 17, 50):
            cache_n = build_primitive_cache(model, n)
            cache_n1 = build_primitive_cache(model, n + 1)
            g10_n = py_primitive_closed(alpha, theta, n, (1, 0))
            for s in range(1, n + 1):
                lhs = persistence_probability(cache_n1, n + 1, s + 1)
                rhs = persistence_probability(cache_n, n, s) * (s - alpha) * g10_n
                assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_domain(self):
        cache = build_primitive_cache(GibbsModel.dp(1.0), 4)
        with pytest.raises(ValueError):
            persistence_probability(cache, 4, 5)
        with pytest.raises(ValueError):
            persistence_probability(cache, 3, 2)


class TestWeightRows:
    @pytest.mark.parametrize(
        "model",
        [
            GibbsModel.dp(2.0),
            GibbsModel.py(0.9, -0.5),
            GibbsModel.ngg(0.5, 1.0, mc_config=McConfig(samples=10_000, seed=5)),
        ],
        ids=["DP", "PY", "NGG"],
    )
    def test_rows_are_the_table_rows(self, model):
        # with no table, row m has the bits of row m of build_weight_table
        # at depth n (at any depth for DP and PY); a given table is read
        deep = build_weight_table(model, 9)
        own = deep if model.is_closed_form else build_weight_table(model, 7)
        for rows, table in ((weight_rows(model, 7), own), (weight_rows(model, 7, deep), deep)):
            rows = list(rows)
            assert len(rows) == 7
            for m, row in enumerate(rows, start=1):
                assert np.array_equal(row, table.log_row(m))

    def test_arguments_checked_at_the_call(self):
        model = GibbsModel.py(0.5, 1.0)
        for n in (0, 2.5):
            with pytest.raises(ValueError, match="positive integer"):
                weight_rows(model, n)
        with pytest.raises(ValueError, match="depth 2 cannot serve n = 3"):
            weight_rows(model, 3, build_weight_table(model, 2))


class TestBlockCountDistribution:
    def test_py_n2_anchor(self):
        probs = block_count_distribution(GibbsModel.py(0.5, 1.0), 2)
        np.testing.assert_allclose(probs, [0.25, 0.75], atol=1e-12)

    def test_single_observation(self):
        for model in (GibbsModel.dp(1.0), GibbsModel.py(0.5, 1.0)):
            probs = block_count_distribution(model, 1)
            np.testing.assert_allclose(probs, [1.0], atol=1e-12)

    def test_dp_n3_enumeration(self):
        # |s(3, .)| = (2, 3, 1), (theta)_3 = 6 at theta = 1
        probs = block_count_distribution(GibbsModel.dp(1.0), 3)
        np.testing.assert_allclose(probs, [1 / 3, 1 / 2, 1 / 6], atol=1e-12)

    @pytest.mark.parametrize(
        "model", [GibbsModel.dp(2.0), GibbsModel.py(0.5, 1.0), GibbsModel.py(0.9, 0.1)]
    )
    def test_normalization_closed_form(self, model):
        for n in (10, 120, 200):
            probs = block_count_distribution(model, n)
            assert abs(probs.sum() - 1.0) <= 1e-8

    @pytest.mark.parametrize("alpha, theta", [(0.5, 1.0), (0.2, 5.0), (0.9, -0.5)])
    def test_py_law_reads_row_n_alone(self, alpha, theta, monkeypatch):
        # PY's row n in closed form has the bits of row n of its weight
        # table, so the law is unchanged; no table is built for it
        model = GibbsModel.py(alpha, theta)
        tables = {n: build_weight_table(model, n) for n in (1, 2, 3, 17, 100, 200)}

        def refuse(*args, **kwargs):
            raise AssertionError("the PY law built a weight table")

        monkeypatch.setattr(gibbs_weights, "build_weight_table", refuse)
        for n, table in tables.items():
            assert np.array_equal(
                block_count_distribution(model, n),
                block_count_distribution(model, n, table=table),
            )

    def test_py_law_past_table_depth(self):
        # no depth limit: n = 5000 is beyond MAX_TABLE_DEPTH, and the law's
        # mean is E[B_n] = sum_{m<n} g_m(1,1) in closed form
        n = 5000
        assert n > MAX_TABLE_DEPTH
        model = GibbsModel.py(0.5, 1.0)
        probs = block_count_distribution(model, n)
        assert probs.shape == (n,) and np.all(probs >= 0)
        assert expected_blocks(model, n) == pytest.approx(
            depth_primitives(model, n).expected_blocks, rel=1e-9
        )

    def test_mc_normalization_within_tolerance(self):
        model = GibbsModel.ngg(0.5, 1.0, mc_config=McConfig(samples=50_000, seed=11))
        probs = block_count_distribution(model, 30)
        # tolerance enforcement happens inside; reaching here means it passed
        assert probs.shape == (30,)
        assert np.all(probs >= 0)


def _table_mc_error(model, table):
    # the block law's mean relative standard error in the filled weight
    # table's row n: sum_k P(B_n = k) rel_se_{n,k}
    law = block_count_distribution(model, table.n_max, table=table)
    return float(law @ table.rel_se_row(table.n_max))


class TestExpectedBlocksAndCalibrate:
    def test_expected_blocks_at_one(self):
        for model in (GibbsModel.dp(1.0), GibbsModel.py(0.5, 1.0)):
            assert expected_blocks(model, 1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "model", [GibbsModel.dp(2.0), GibbsModel.py(0.5, 1.0), GibbsModel.py(0.9, -0.5)],
        ids=lambda model: model.describe(),
    )
    def test_closed_forms_read_their_primitives(self, model, monkeypatch):
        # with no table, DP/PY read E[B_n] = sum_{m<n} g_m(1,1) from their
        # primitives and walk no GFC rows; a given table's law is read
        for n in (1, 7, 200):
            table = build_weight_table(model, n)
            law_mean = expected_blocks(model, n, table=table)
            with monkeypatch.context() as patch:
                patch.setattr(gibbs_weights, "gfc_rows", None)
                got = expected_blocks(model, n)
            assert got == depth_primitives(model, n).expected_blocks
            assert got == pytest.approx(law_mean, rel=1e-12)
        with pytest.raises(ValueError, match="positive integer"):
            expected_blocks(model, 2.5)

    def test_dp_harmonic_sum(self):
        assert expected_blocks(GibbsModel.dp(1.0), 3) == pytest.approx(
            1.0 + 0.5 + 1.0 / 3.0, rel=1e-10
        )

    def test_calibrate_py(self):
        theta_star = calibrate("PY", 25.0, 50, alpha=0.5)
        model = GibbsModel.py(0.5, theta_star)
        assert 24.95 <= expected_blocks(model, 50) <= 25.05

    def test_calibrate_dp(self):
        theta_star = calibrate("DP", 5.0, 20)
        assert 4.95 <= expected_blocks(GibbsModel.dp(theta_star), 20) <= 5.05

    def test_calibrate_ngg_runs(self):
        beta_star = calibrate(
            "NGG", 10.0, 20, alpha=0.5, mc_config=McConfig(samples=50_000, seed=2)
        )
        assert beta_star > 0

    @pytest.mark.parametrize("family, alpha", [("PY", 0.5), ("NGG", 0.5)])
    def test_calibrate_reports_achieved_expectation(self, family, alpha):
        # the achieved E[B_n] is the search's own value at the root, equal to
        # the fitted model's depth-n primitives built afresh on the same
        # draws, and within 1e-12 of the weight table's block law
        mc = McConfig(samples=10_000, seed=3)
        param, achieved, mc_error = _calibrate(family, 8.0, 20, alpha, mc)
        assert param == calibrate(family, 8.0, 20, alpha=alpha, mc_config=mc)
        table = None
        if family == "PY":
            model = GibbsModel.py(alpha, param)
            assert mc_error is None
        else:
            model = GibbsModel.ngg(alpha, param, mc_config=mc)
            table = weight_table_from_sampler(
                NggWeightSampler(alpha, 20, mc.samples, mc.seed), param
            )
        primitives = depth_primitives(model, 20)
        assert achieved == primitives.expected_blocks
        assert achieved == pytest.approx(expected_blocks(model, 20, table=table), rel=1e-12)
        if table is not None:
            assert mc_error == 2.0 * float(primitives.block_law @ primitives.rel_se)
            assert mc_error == pytest.approx(_table_mc_error(model, table), rel=1e-12)
            assert 0.0 < mc_error < gibbs_weights.CALIBRATE_MC_ERROR_MAX
        assert abs(achieved - 8.0) <= 0.05

    @pytest.mark.parametrize("family, alpha", [("NGG", 0.3), ("NIG", None)])
    def test_calibrated_model_reaches_achieved_expectation(self, family, alpha):
        # the fitted model's own E[B_n], from its depth-n primitives built
        # afresh, is the value calibrate reports; its weight table's block
        # law agrees within 1e-12
        mc = McConfig(samples=10_000, seed=6)
        param, achieved, _ = _calibrate(family, 6.0, 25, alpha, mc)
        if family == "NGG":
            model = GibbsModel.ngg(alpha, param, mc_config=mc)
        else:
            model = GibbsModel.nig(param, mc_config=mc)
        assert achieved == depth_primitives(model, 25).expected_blocks
        assert achieved == pytest.approx(expected_blocks(model, 25), rel=1e-12)

    @pytest.mark.parametrize(
        "family, alpha", [("DP", None), ("PY", 0.5), ("NGG", 0.75), ("NIG", None)]
    )
    def test_calibrate_builds_no_triangle(self, family, alpha, monkeypatch):
        # the search reads depth-n primitives only: no weight triangle, and
        # for DP/PY no GFC table (an NGG/NIG sampler builds its own)
        def refuse(*args, **kwargs):
            raise AssertionError("calibrate built a triangle")

        monkeypatch.setattr(gibbs_weights, "build_weight_table", refuse)
        monkeypatch.setattr(gibbs_weights, "_mc_weight_table", refuse)
        if family in ("DP", "PY"):
            monkeypatch.setattr(gibbs_weights, "build_gfc_table", refuse)
        mc = McConfig(samples=10_000, seed=1)
        param, achieved, _ = _calibrate(family, 15.0, 30, alpha, mc)
        assert param > 0 and abs(achieved - 15.0) <= 0.05

    def test_calibrate_rejects_unreachable_target(self):
        with pytest.raises(ValueError):
            calibrate("DP", 55.0, 50)
        with pytest.raises(ValueError):
            calibrate("PY", 1.0, 50, alpha=0.5)
        # bracketing climbs past beta = 1e10, where the Monte Carlo tables
        # must still pass the block-count check, so the search ends on its
        # own bracketing error (not a NormalizationError)
        with pytest.raises(ValueError, match="could not bracket"):
            calibrate("NGG", 49.9, 50, alpha=0.5, mc_config=McConfig(samples=10_000, seed=1))

    def test_calibrate_refuses_degenerate_monte_carlo_root(self):
        # E[B_50] on these 10 000 draws equals 49 to 10 digits for every beta
        # in e^13.5..e^16, where the last row's rel_se reaches 1: the root
        # (beta ~ 3.3e6; rounding alone moves it along that plateau) is
        # arbitrary, and the block law's mean rel_se there is 2.0
        with pytest.raises(McDegeneracyError, match="degenerate Monte Carlo surface"):
            calibrate("NGG", 49.0, 50, alpha=0.5, mc_config=McConfig(samples=10_000, seed=1))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_calibrate_reports_small_mc_error(self, seed):
        # the benchmark's NGG case: mean rel_se ~0.002 at the root, the
        # weight table's block-law mean within 1e-12
        mc = McConfig(samples=20_000, seed=seed)
        beta, achieved, mc_error = _calibrate("NGG", 25.0, 50, 0.75, mc)
        assert abs(achieved - 25.0) <= 0.05
        assert 0.0 < mc_error < 0.01
        model = GibbsModel.ngg(0.75, beta, mc_config=mc)
        table = weight_table_from_sampler(NggWeightSampler(0.75, 50, 20_000, seed), beta)
        assert mc_error == pytest.approx(_table_mc_error(model, table), rel=1e-12)

    def test_mc_error_is_twice_the_rows_mean_rel_se(self):
        # on a row of the degenerate plateau above: the filled table's row n
        # carries rel_se_{n,k} + rel_se_{1,1}, and the fill makes rel_se_{1,1}
        # the block law's mean of rel_se_{n,k}
        mc = McConfig(samples=10_000, seed=1)
        sampler = NggWeightSampler(0.5, 50, mc.samples, mc.seed)
        beta = 6.3e5
        primitives = sampler.row_primitives(beta)
        row_error = 2.0 * float(primitives.block_law @ primitives.rel_se)
        table = weight_table_from_sampler(sampler, beta)
        model = GibbsModel.ngg(0.5, beta, mc_config=mc)
        assert row_error == pytest.approx(_table_mc_error(model, table), rel=1e-12)
        assert row_error > gibbs_weights.CALIBRATE_MC_ERROR_MAX

    def test_calibrate_requires_alpha(self):
        with pytest.raises(ValueError):
            calibrate("PY", 10.0, 50)


class TestNggWeightSampler:
    def test_matches_series_within_three_se(self):
        series = ngg_weights_smalln(0.5, 1.0, 5)
        sampler = NggWeightSampler(0.5, 5, 200_000, seed=4)
        log_row, rel_se = sampler.log_last_row(1.0)
        for k in range(1, 6):
            estimate = math.exp(log_row[k - 1])
            truth = series.weight(5, k)
            assert abs(estimate - truth) <= 3.0 * rel_se[k - 1] * estimate

    @pytest.mark.parametrize("beta", [0.01, 1.0, 30.0, 100.0])
    def test_one_pass_moments_match_logsumexp(self, beta):
        # reference: both moments by log-sum-exp over the unshifted log terms
        alpha, n, samples, seed = 0.5, 40, 20_000, 7
        sampler = NggWeightSampler(alpha, n, samples, seed)
        ratios = np.empty((n, samples))
        streams = np.random.default_rng(seed).spawn(n)  # one child stream per row
        for k in range(1, n + 1):
            rng = streams[k - 1]
            spec = TiltedStableSpec(alpha=alpha, tilt=k * alpha)
            x = sample_tilted_stable(spec, rng, size=samples)
            y = np.maximum(rng.beta(k * alpha, n - k * alpha, size=samples), 1e-300)
            ratios[k - 1] = x / y
        log_terms = beta ** alpha - beta * ratios
        log_m1 = special.logsumexp(log_terms, axis=1) - math.log(samples)
        log_m2 = special.logsumexp(2.0 * log_terms, axis=1) - math.log(samples)
        gap = log_m2 - 2.0 * log_m1
        rel = np.zeros_like(gap)
        mask = gap > 1e-15
        log_var = log_m2[mask] + np.log1p(-np.exp(-gap[mask]))
        rel[mask] = np.exp(0.5 * log_var - log_m1[mask] - 0.5 * math.log(samples))
        k = np.arange(1, n + 1)
        log_row = (k - 1) * math.log(alpha) + special.gammaln(k) - special.gammaln(n) + log_m1

        got_row, got_rel = sampler.log_last_row(beta)
        np.testing.assert_allclose(got_row, log_row, rtol=1e-12, atol=0.0)
        # both forms take m2 - m1^2 by cancellation, so compare absolutely
        np.testing.assert_allclose(got_rel, rel, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("block", [1, 25_000, 3 * 10_000, 2 ** 20])
    def test_moments_do_not_depend_on_block_size(self, block, monkeypatch):
        # one, two, three or all seven rows per work buffer: the same bits
        sampler = NggWeightSampler(0.5, 7, 10_000, seed=6)
        want = sampler.log_last_row(0.9)
        monkeypatch.setattr(gibbs_weights, "MOMENT_BLOCK", block)
        got = sampler.log_last_row(0.9)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_beta_sweep_is_deterministic(self):
        sampler = NggWeightSampler(0.4, 6, 20_000, seed=8)
        r1, _ = sampler.log_last_row(0.7)
        r2, _ = sampler.log_last_row(0.7)
        np.testing.assert_array_equal(r1, r2)

    @pytest.mark.parametrize(
        "alpha, beta, n, samples", [(0.5, 1.0, 30, 20_000), (0.3, 0.7, 12, 250_000)]
    )
    def test_same_estimate_as_build_weight_table(self, alpha, beta, n, samples):
        # one estimator: streamed and frozen draws give the same table
        model = GibbsModel.ngg(alpha, beta, McConfig(samples, seed=4))
        streamed = build_weight_table(model, n)
        frozen = weight_table_from_sampler(NggWeightSampler(alpha, n, samples, 4), beta)
        for m in range(1, n + 1):
            assert np.array_equal(streamed.log_row(m), frozen.log_row(m))
            assert np.array_equal(streamed.rel_se_row(m), frozen.rel_se_row(m))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
    def test_draws_do_not_depend_on_worker_count(self, alpha, monkeypatch):
        # one row per moment block, so the moment pass is split across
        # threads as the row fill is
        n, samples, seed, beta = 9, 10_000, 5, 0.8
        model = GibbsModel.ngg(alpha, beta, McConfig(samples, seed))
        monkeypatch.setattr(gibbs_weights, "MOMENT_BLOCK", samples)

        def outputs(workers):
            monkeypatch.setattr(gibbs_weights, "_usable_cores", lambda: workers)
            sampler = NggWeightSampler(alpha, n, samples, seed)
            streamed = build_weight_table(model, n)
            frozen = weight_table_from_sampler(sampler, beta)
            return [
                sampler._shifted, sampler._ratio_min, *sampler.log_last_row(beta),
                *ngg_last_row_mc(alpha, beta, n, samples, np.random.default_rng(seed)),
                streamed._log, streamed._rel_se, frozen._log, frozen._rel_se,
            ]

        one = outputs(1)
        for workers in (2, 3):
            for got, want in zip(outputs(workers), one):
                assert np.array_equal(got, want)
        # the streamed and frozen estimators still give the same table
        assert np.array_equal(one[6], one[8]) and np.array_equal(one[7], one[9])

    def test_worker_exception_reaches_caller(self, monkeypatch):
        # a degenerate row on a worker thread raises McDegeneracyError in
        # the caller, which the CLI maps to exit code 3
        monkeypatch.setattr(gibbs_weights, "_usable_cores", lambda: 2)
        row_minima = NggWeightSampler(0.5, 6, 10_000, seed=2)._ratio_min
        moments = gibbs_weights._shifted_moments

        def row_four_degenerate(shifted, ratio_min, alpha, beta):
            if ratio_min == row_minima[3]:
                raise McDegeneracyError("row 4 underflowed")
            return moments(shifted, ratio_min, alpha, beta)

        monkeypatch.setattr(gibbs_weights, "_shifted_moments", row_four_degenerate)
        with pytest.raises(McDegeneracyError, match="row 4") as raised:
            ngg_last_row_mc(0.5, 1.0, 6, 10_000, np.random.default_rng(2))
        assert raised.type is McDegeneracyError

    def test_moment_block_exception_reaches_caller(self, monkeypatch):
        # the first moment block a worker thread reads raises; the caller's
        # own block waits for it, so the failure is on a worker, and the
        # caller still ends with that exception and no thread left running
        monkeypatch.setattr(gibbs_weights, "_usable_cores", lambda: 2)
        monkeypatch.setattr(gibbs_weights, "MOMENT_BLOCK", 10_000)
        sampler = NggWeightSampler(0.5, 6, 10_000, seed=2)
        worker_read = threading.Event()

        class FailOnWorker(np.ndarray):
            def __getitem__(self, key):
                if threading.current_thread() is threading.main_thread():
                    assert worker_read.wait(timeout=30)
                else:
                    worker_read.set()
                    raise McDegeneracyError("block on a worker underflowed")
                return super().__getitem__(key)

        shifted = sampler._shifted.view(FailOnWorker)
        threads = threading.active_count()
        with pytest.raises(McDegeneracyError, match="on a worker") as raised:
            gibbs_weights._shifted_moments(shifted, sampler._ratio_min, 0.5, 1.0)
        assert raised.type is McDegeneracyError
        assert threading.active_count() == threads

    def test_every_unit_runs_once(self, monkeypatch):
        # more threads than cores and a short switch interval: each unit
        # runs exactly once, and each thread, the caller among them, starts
        # one worker
        monkeypatch.setattr(gibbs_weights, "_usable_cores", lambda: 5)
        units = 3000
        runs = np.zeros(units, dtype=int)
        starts = []

        def start_worker():
            starts.append(threading.get_ident())

            def work(unit):
                runs[unit] += 1

            return work

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            gibbs_weights._run_units(units, start_worker)
        finally:
            sys.setswitchinterval(interval)
        assert np.all(runs == 1)
        assert len(starts) == 5 and threading.get_ident() in starts

    def test_table_builds_leave_no_thread(self, monkeypatch):
        monkeypatch.setattr(gibbs_weights, "_usable_cores", lambda: 3)
        threads = threading.active_count()
        sampler = NggWeightSampler(0.5, 40, 10_000, seed=1)
        weight_table_from_sampler(sampler, 1.0)
        build_weight_table(GibbsModel.ngg(0.5, 1.0, McConfig(10_000, 1)), 12)
        assert threading.active_count() == threads

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [0.01, 0.003])
    def test_overflowing_ratios_are_quiet(self, alpha):
        # at a small alpha some X/Y pass the largest double (and at 0.003
        # some X do); those draws are inf and add exp(-beta inf) = 0
        sampler = NggWeightSampler(alpha, 30, 10_000, seed=2)
        assert np.isinf(sampler._shifted).any()
        table = weight_table_from_sampler(sampler, 1.0)
        for m in range(1, 31):
            assert np.all(np.isfinite(table.log_row(m)))
            assert np.all(np.isfinite(table.rel_se_row(m)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_row_of_only_overflows_is_degenerate(self, monkeypatch):
        # every X of row 1 is the largest double, so every X/Y overflows
        draw = gibbs_weights.sample_tilted_stable

        def huge_first_row(spec, rng, size):
            x = draw(spec, rng, size=size)
            return np.full_like(x, np.finfo(float).max) if spec.tilt == spec.alpha else x

        monkeypatch.setattr(gibbs_weights, "sample_tilted_stable", huge_first_row)
        monkeypatch.setattr(gibbs_weights, "_usable_cores", lambda: 2)
        with pytest.raises(McDegeneracyError):
            ngg_last_row_mc(0.5, 1.0, 6, 10_000, np.random.default_rng(2))
        sampler = NggWeightSampler(0.5, 6, 10_000, seed=2)
        with pytest.raises(McDegeneracyError):
            sampler.log_last_row(1.0)
        with pytest.raises(McDegeneracyError):
            sampler.row_primitives(1.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
    def test_lazy_rel_se_has_the_bits_of_both_passes(self, alpha, monkeypatch):
        # row_primitives sums the first moment alone and computes rel_se on
        # first read: row, rel_se and filled table equal log_last_row's
        # (both passes), the table filled from them and the streamed one
        n, samples, seed, beta = 20, 10_000, 4, 0.8
        sampler = NggWeightSampler(alpha, n, samples, seed)
        log_row, rel_se = sampler.log_last_row(beta)
        passes = []
        row_sums = gibbs_weights._exp_row_sums

        def counted_sums(shifted, beta, power):
            passes.append(power)
            return row_sums(shifted, beta, power)

        monkeypatch.setattr(gibbs_weights, "_exp_row_sums", counted_sums)
        primitives = sampler.row_primitives(beta)
        assert passes == [1]
        assert np.array_equal(primitives.log_row, log_row)
        assert np.array_equal(primitives.rel_se, rel_se)
        assert passes == [1, 2]
        monkeypatch.undo()
        filled = gibbs_weights._mc_weight_table(
            alpha, log_row, rel_se, Provenance("monte-carlo", samples, seed)
        )
        streamed = build_weight_table(GibbsModel.ngg(alpha, beta, McConfig(samples, seed)), n)
        for table in (weight_table_from_sampler(sampler, beta), filled, streamed):
            assert np.array_equal(primitives.table._log, table._log)
            assert np.array_equal(primitives.table._rel_se, table._rel_se)

    def test_calibrate_root_pinned(self):
        # the benchmark's NGG case; the search's trials sum the first moment
        # alone and the root's mc_error reads rel_se: beta, E[B_n] and
        # mc_error keep their bits
        mc = McConfig(samples=20_000, seed=1)
        got = _calibrate("NGG", 25.0, 50, 0.75, mc)
        want = ("0x1.459540691b730p-1", "0x1.9000000000042p+4", "0x1.1aa9329725bb4p-9")
        assert tuple(float.hex(x) for x in got) == want

    def test_underflowed_first_moment_is_degenerate(self, monkeypatch):
        # a slice trial's pass sums the first moment alone and must still
        # refuse an estimate that is not finite
        row_sums = gibbs_weights._exp_row_sums

        def row_three_degenerate(shifted, beta, power):
            sums = row_sums(shifted, beta, power)
            sums[2] = np.nan
            return sums

        sampler = NggWeightSampler(0.5, 6, 10_000, seed=2)
        monkeypatch.setattr(gibbs_weights, "_exp_row_sums", row_three_degenerate)
        with pytest.raises(McDegeneracyError, match="beta=1.5"):
            sampler.row_primitives(1.5)
        with pytest.raises(McDegeneracyError, match="beta=1.5"):
            depth_primitives(GibbsModel.ngg(0.5, 1.5, McConfig(10_000, 2)), 6)

    def test_sampler_tables_pinned(self):
        # content hashes of frozen-draw tables: a change to the draws, their
        # streams or the moment reduction moves them
        mc = McConfig(10_000, 3)
        pins = {
            GibbsModel.ngg(0.5, 1.0, mc): "d4c611b79e6be89e",
            GibbsModel.ngg(0.75, 0.6, mc): "48bfbd21b575f07d",
            GibbsModel.nig(1.0, mc): "2d69ac6077400a9e",
        }
        for model, digest in pins.items():
            sampler = NggWeightSampler(model.stable_index, 30, mc.samples, mc.seed)
            table = weight_table_from_sampler(sampler, model.beta)
            assert weight_table_content_hash(table, model)[:16] == digest, model

    def test_gfc_rows_match_shallower_table(self):
        # a depth-n GFC table holds the depth-(n - 1) rows bit for bit, so
        # the sampler's one table serves depth-n block laws and the
        # depth-(n - 1) reads of the g10 and g11 sequences
        n, alpha = 12, 0.35
        gfc = NggWeightSampler(alpha, n, 1000, seed=3).gfc
        assert (gfc.n_max, gfc.alpha) == (n, alpha)
        shallower = build_gfc_table(n - 1, alpha)
        for m in range(1, n):
            assert np.array_equal(gfc.log_row(m), shallower.log_row(m))
        assert np.array_equal(gfc.log_row(n), build_gfc_table(n, alpha).log_row(n))

    def test_refuses_frozen_draws_past_limit(self, monkeypatch):
        # refused before anything is drawn; the patched fill makes a missing
        # guard fail at once instead of drawing 2^27 values
        def refuse(*args):
            raise AssertionError("drew past the frozen-draw limit")

        monkeypatch.setattr(gibbs_weights, "_fill_shifted_ratio_rows", refuse)
        n = 3
        samples = (MAX_FROZEN_DRAWS + 1) // n
        assert n * samples == MAX_FROZEN_DRAWS + 1
        with pytest.raises(TableSizeError, match="frozen draws") as raised:
            NggWeightSampler(0.5, n, samples, seed=0)
        message = str(raised.value)
        assert f"{n} rows" in message and f"{samples} samples" in message
        assert f"{8 * n * samples} bytes" in message

    def test_frozen_draw_limit_is_inclusive(self):
        n = 2 ** 7
        samples = MAX_FROZEN_DRAWS // n
        assert n * samples == MAX_FROZEN_DRAWS
        check_frozen_draws(n, samples)
        with pytest.raises(TableSizeError, match="frozen draws"):
            check_frozen_draws(n, samples + 1)

    def test_row_sums_past_largest_double_warn_nothing(self):
        # 1e308 times beta 10 passes the largest double: the term is
        # exp(-inf) = 0, the exact limit, and no RuntimeWarning (an error
        # under this suite's filter) reaches the caller
        for power in (1, 2):
            sums = gibbs_weights._exp_row_sums(np.array([[0.0, 1e308, 2.0]]), 10.0, power)
            assert sums.tolist() == [1.0 + math.exp(-20.0 * power)]

    def test_block_distribution_normalized(self):
        sampler = NggWeightSampler(0.5, 8, 20_000, seed=8)
        gfc = build_gfc_table(8, 0.5)
        model = GibbsModel.ngg(0.5, 2.0, mc_config=McConfig(samples=20_000, seed=8))
        probs = block_count_distribution(
            model, 8, table=weight_table_from_sampler(sampler, 2.0), gfc=gfc
        )
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def _overflowing_stable(alpha, spec_rows):
    # sample_tilted_stable whose draws overflow to inf in the rows of tilt
    # k alpha named by spec_rows: {k: "some" | "all but one" | "all"}
    draw = sample_tilted_stable

    def overflowing(spec, rng, size=None):
        x = draw(spec, rng, size=size)
        kind = spec_rows.get(round(spec.tilt / alpha))
        if kind == "some":
            x[::7] = np.inf
        elif kind == "all but one":
            x[1:] = np.inf
        elif kind == "all":
            x[:] = np.inf
        return x

    return overflowing


class TestDrawSummary:
    """The summary's bounds hold the direct pass's log first moment for
    every row, at every beta, overflowed draws included."""

    BETAS = np.logspace(-3.0, 3.0, 13)

    def assert_bounds_hold(self, sampler):
        summary = DrawSummary(sampler)
        assert summary.bounded
        for beta in self.BETAS:
            lower, upper = summary.log_first_moment_bounds(beta)
            direct = gibbs_weights._log_first_moment(
                sampler._shifted, sampler._ratio_min, sampler.alpha, beta
            )
            assert np.all(lower <= direct) and np.all(direct <= upper), beta
            # the midpoint row lies within eps of the exact row
            primitives, eps = summary.midpoint_row(beta)
            exact = sampler.row_primitives(beta).log_row
            assert np.all(np.abs(exact - primitives.log_row) <= eps), beta

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("n", [1, 2, 30, 100])
    def test_bounds_contain_direct_pass(self, alpha, n):
        self.assert_bounds_hold(NggWeightSampler(alpha, n, 10_000, seed=n))

    def test_bounds_hold_with_overflowed_ratios(self, monkeypatch):
        alpha = 0.5
        monkeypatch.setattr(
            gibbs_weights, "sample_tilted_stable",
            _overflowing_stable(alpha, {1: "some", 2: "all but one", 5: "some"}),
        )
        sampler = NggWeightSampler(alpha, 6, 10_000, seed=3)
        shifted = sampler._shifted
        assert np.isinf(shifted[0]).sum() > 1000 and np.isinf(shifted[1]).sum() == 9999
        self.assert_bounds_hold(sampler)

    def test_nan_row_gets_no_summary(self, monkeypatch):
        # a row of only overflowed ratios shifts to nan: no summary bounds
        # it, and the direct pass refuses it
        alpha = 0.5
        monkeypatch.setattr(
            gibbs_weights, "sample_tilted_stable", _overflowing_stable(alpha, {3: "all"})
        )
        sampler = NggWeightSampler(alpha, 6, 10_000, seed=3)
        assert np.all(np.isnan(sampler._shifted[2]))
        assert not DrawSummary(sampler).bounded
        assert sampler.summary() is None and sampler.summary() is None
        with pytest.raises(McDegeneracyError):
            sampler.row_primitives(1.0)

    def test_built_on_second_request(self, monkeypatch):
        built = []

        class Counted(DrawSummary):
            def __init__(self, sampler):
                built.append(sampler)
                super().__init__(sampler)

        monkeypatch.setattr(gibbs_weights, "DrawSummary", Counted)
        sampler = NggWeightSampler(0.5, 100, 20_000, seed=1)
        assert sampler.summary() is None and built == []
        summary = sampler.summary()
        assert isinstance(summary, Counted) and built == [sampler]
        assert sampler.summary() is summary and built == [sampler]
        held = sum(
            getattr(summary, name).nbytes
            for name in ("_head", "_count", "_mean", "_low", "_high", "_low_weight",
                         "_high_weight")
        )
        assert held == 100 * (SUMMARY_HEAD + 6 * SUMMARY_BINS) * 8 <= 2 * 2 ** 20

    def test_few_draws_are_all_head(self):
        # rows no longer than the head are kept whole: the bounds are the
        # row's own sum less and plus the rounding margin
        samples = SUMMARY_HEAD // 2
        sampler = NggWeightSampler(0.5, 4, samples, seed=2)
        summary = DrawSummary(sampler)
        assert summary._head.shape == (4, samples)
        assert not summary._count.any()
        for beta in self.BETAS:
            lower, upper = summary.log_first_moment_bounds(beta)
            top = beta ** 0.5 - beta * sampler._ratio_min
            log_sum = upper - top + math.log(samples)
            size = 1.0 + np.abs(top) + math.log(samples) + log_sum
            assert np.all(upper - lower <= 2.0 * SUMMARY_ROUNDING * size + 1e-12)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = GibbsModel.ngg(0.5, 1.0, mc_config=McConfig(samples=20_000, seed=1))
        table = build_weight_table(model, 8)
        path = save_weight_table(table, model, tmp_path / "t.json")
        loaded, loaded_model = load_weight_table(path)
        assert loaded_model == model
        assert loaded.provenance == table.provenance
        for n in range(1, 9):
            np.testing.assert_array_equal(loaded.log_row(n), table.log_row(n))
            np.testing.assert_array_equal(loaded.rel_se_row(n), table.rel_se_row(n))

    @pytest.mark.parametrize(
        "model",
        [GibbsModel.ngg(0.5, 1.0, mc_config=McConfig(samples=20_000, seed=1)),
         GibbsModel.py(0.5, 1.0)],
        ids=["ngg", "py"],
    )
    def test_file_bytes_are_json_dump(self, model, tmp_path):
        # the one-call encoder writes what json.dump's chunked one writes
        table = build_weight_table(model, 12)
        path = save_weight_table(table, model, tmp_path / "t.json")
        chunked = io.StringIO()
        json.dump(gibbs_weights._table_payload(table, model), chunked)
        assert path.read_bytes() == chunked.getvalue().encode()

    def test_content_hash_distinguishes(self):
        m1 = GibbsModel.py(0.5, 1.0)
        m2 = GibbsModel.py(0.5, 2.0)
        h1 = weight_table_content_hash(build_weight_table(m1, 5), m1)
        h1_again = weight_table_content_hash(build_weight_table(m1, 5), m1)
        h2 = weight_table_content_hash(build_weight_table(m2, 5), m2)
        assert h1 == h1_again
        assert h1 != h2

    def test_cache_keys_follow_payload(self, tmp_path):
        # table paths and cache hashes key on to_payload: equal payloads
        # share them, a different seed does not
        model = GibbsModel.nig(1.0, mc_config=McConfig(samples=10_000, seed=1))
        twin = GibbsModel.from_payload(json.loads(json.dumps(model.to_payload())))
        other = GibbsModel.nig(1.0, mc_config=McConfig(samples=10_000, seed=2))
        assert table_cache_path(twin, 6, tmp_path) == table_cache_path(model, 6, tmp_path)
        assert table_cache_path(other, 6, tmp_path) != table_cache_path(model, 6, tmp_path)
        table = build_weight_table(model, 6)
        cache = build_primitive_cache(model, 6, table=table)
        twin_cache = build_primitive_cache(twin, 6, table=table)
        other_cache = build_primitive_cache(other, 6, table=table)
        digest = primitive_cache_content_hash(cache, model)
        assert primitive_cache_content_hash(twin_cache, twin) == digest
        assert primitive_cache_content_hash(other_cache, other) != digest

    def test_cache_path_in_named_directory(self, tmp_path, monkeypatch):
        # the library has no default location: the environment is the CLI's
        monkeypatch.setenv("GIBBSIBP_CACHE_DIR", str(tmp_path / "env"))
        model = GibbsModel.nig(1.0, mc_config=McConfig(samples=10_000, seed=1))
        path = table_cache_path(model, 6, tmp_path / "named")
        assert path.parent == tmp_path / "named"
        assert path.name.startswith("weights_nig_") and path.suffix == ".json"
        assert table_cache_path(model, 7, tmp_path / "named") != path

    def test_save_makes_the_directory(self, tmp_path):
        model = GibbsModel.py(0.5, 1.0)
        table = build_weight_table(model, 4)
        target = tmp_path / "a" / "b" / "t.json"
        assert save_weight_table(table, model, target) == target
        loaded, loaded_model = load_weight_table(target)
        assert loaded_model == model
        np.testing.assert_array_equal(loaded.log_row(4), table.log_row(4))

    def test_version_check(self, tmp_path):
        model = GibbsModel.dp(1.0)
        table = build_weight_table(model, 3)
        path = save_weight_table(table, model, tmp_path / "t.json")
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_weight_table(path)
