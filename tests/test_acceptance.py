"""End-to-end acceptance checks, one test per numbered criterion.

Each test measures its quantity against the stated tolerance and records a
single PASS/FAIL verdict line; the lines are echoed together after the run
(see conftest) and printed inline under -s. Checks with a runtime budget
assert the elapsed time as part of the verdict. All randomness is seeded,
so a verdict never flips between runs.
"""

import csv
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import record_verdict
from gibbsibp.cli import main
from gibbsibp.gibbs_weights import (
    GibbsModel,
    McConfig,
    block_count_distribution,
    build_primitive_cache,
    build_weight_table,
    calibrate,
    expected_blocks,
    ngg_weights_smalln,
    primitive,
    py_primitive_closed,
)
from gibbsibp.ibp import (
    FeatureAllocation,
    expected_features,
    feature_statistics,
    log_joint,
    log_transition,
    powerlaw_constant,
    sample_feature_counts,
    simulate_ibp,
)
from gibbsibp.inference import (
    ChainConfig,
    LatentFactorState,
    Priors,
    _resample_gamma,
    gamma_posterior,
    geweke_check,
    run_chain,
    synthesize_data,
)
from gibbsibp.special_functions import build_gfc_table
from gibbsibp.stable_sampling import TiltedStableSpec, sample_tilted_stable
from gibbsibp.stick_breaking import (
    sample_truncated_feature_counts,
    structural_density,
    suggest_rounds,
)
from oracles import gfc_bruteforce


def _verdict(num, name, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} — {name}: {detail}"
    record_verdict(line)
    print(line)
    assert ok, line


def test_criterion_01_gfc_table_matches_bruteforce():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.1, 0.5, 0.9):
        table = build_gfc_table(12, alpha)
        for n in range(1, 13):
            for k in range(1, n + 1):
                exact = gfc_bruteforce(n, k, alpha)
                rel = abs(math.exp(table.log_gfc(n, k)) - exact) / exact
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "factorial-coefficient recursion vs alternating-sum oracle",
        worst <= 1e-8 and elapsed < 1.0,
        f"max rel err {worst:.2e} (tol 1e-08, n<=12, alpha in {{0.1,0.5,0.9}}), "
        f"{elapsed:.2f}s (budget 1s)",
    )


def test_criterion_02_weight_recursion_residual():
    worst = 0.0
    for alpha, theta in ((0.5, 1.0), (0.25, 2.0), (0.75, 0.5)):
        table = build_weight_table(GibbsModel.py(alpha, theta), 101)
        for n in range(1, 101):
            k = np.arange(1, n + 1)
            base = table.log_row(n)
            # relative residual of V_{n,k} = (n - alpha k) V_{n+1,k} + V_{n+1,k+1}
            stay = np.exp(np.log(n - alpha * k) + table.log_row(n + 1)[:n] - base)
            up = np.exp(table.log_row(n + 1)[1 : n + 1] - base)
            worst = max(worst, float(np.abs(1.0 - stay - up).max()))
    _verdict(
        2,
        "closed-form weight tables satisfy the forward recursion",
        worst <= 1e-10,
        f"max rel residual {worst:.2e} (tol 1e-10, n<=100, three (alpha,theta) pairs)",
    )


def test_criterion_03_generic_primitives_match_closed_forms():
    grid = [(a, t) for a in (0.2, 0.5, 0.8) for t in (0.5, 1.0, 4.0)]
    grid.append((0.5, -0.25))
    worst = 0.0
    for alpha, theta in grid:
        table = build_weight_table(GibbsModel.py(alpha, theta), 101)
        gfc = build_gfc_table(101, alpha)
        for n in range(1, 101):
            c10 = py_primitive_closed(alpha, theta, n, (1, 0))
            c11 = py_primitive_closed(alpha, theta, n, (1, 1))
            assert c10 == 1.0 / (theta + n)
            worst = max(
                worst,
                abs(primitive(table, gfc, n, 1, 0) - c10) / c10,
                abs(primitive(table, gfc, n, 1, 1) - c11) / c11,
            )
    _verdict(
        3,
        "black-box primitives vs closed forms (incl. g_n(1,0) = 1/(theta+n))",
        worst <= 1e-8,
        f"max rel err {worst:.2e} (tol 1e-08, n<=100, 10-point (alpha,theta) grid)",
    )


def test_criterion_04_block_distributions_normalize():
    worst_exact = 0.0
    for model in (GibbsModel.dp(1.0), GibbsModel.py(0.5, 1.0), GibbsModel.py(0.8, -0.3)):
        table = gfc = None
        if model.variant != "DP":
            table = build_weight_table(model, 200)
            gfc = build_gfc_table(200, model.stable_index)
        for n in range(1, 201):
            probs = block_count_distribution(model, n, table=table, gfc=gfc)
            worst_exact = max(worst_exact, abs(float(probs.sum()) - 1.0))
    ngg = GibbsModel.ngg(0.5, 1.0, mc_config=McConfig(samples=100_000, seed=0))
    table = build_weight_table(ngg, 100)
    gfc = build_gfc_table(100, 0.5)
    # a Monte Carlo table is filled backward by the recursion, so it is the
    # exact triangle of some Gibbs partition and held to the same tolerance
    worst_mc = 0.0
    for n in range(1, 101):
        probs = block_count_distribution(ngg, n, table=table, gfc=gfc)
        worst_mc = max(worst_mc, abs(float(probs.sum()) - 1.0))
    _verdict(
        4,
        "block-count distributions sum to one",
        worst_exact <= 1e-8 and worst_mc <= 1e-8,
        f"exact-table defect {worst_exact:.2e} (tol 1e-08, n<=200); "
        f"Monte-Carlo-table defect {worst_mc:.2e} (tol 1e-08, n<=100, 1e5 draws)",
    )


def test_criterion_05_mc_weights_match_smalln_series():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.3, 0.5):
        for beta in (0.5, 1.0):
            model = GibbsModel.ngg(alpha, beta, mc_config=McConfig(samples=1_000_000, seed=0))
            mc = build_weight_table(model, 10)
            series = ngg_weights_smalln(alpha, beta, 10)
            for n in range(1, 11):
                v_mc = np.exp(mc.log_row(n))
                v_series = np.exp(series.log_row(n))
                se = np.maximum(v_mc * mc.rel_se_row(n), 1e-12)
                worst = max(worst, float((np.abs(v_mc - v_series) / se).max()))
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        "Monte-Carlo weights vs incomplete-gamma series",
        worst <= 3.0 and elapsed < 120.0,
        f"max deviation {worst:.2f} se (tol 3 se, n<=10, (alpha,beta) in "
        f"{{0.3,0.5}}x{{0.5,1}}, 1e6 draws), {elapsed:.0f}s (budget 120s)",
    )


def test_criterion_06_tilted_stable_half_alpha_law():
    worst_p = 1.0
    for k in (1, 3, 5):
        rng = np.random.default_rng(k)
        draws = sample_tilted_stable(TiltedStableSpec(0.5, 0.5 * k), rng, size=100_000)
        law = stats.invgamma(a=0.5 * (k + 1), scale=0.25)
        worst_p = min(worst_p, stats.kstest(draws, law.cdf).pvalue)
    _verdict(
        6,
        "tilted-stable draws at alpha=1/2 follow Inverse-Gamma((k+1)/2, 1/4)",
        worst_p > 0.001,
        f"min KS p-value {worst_p:.3f} (level 0.001, 1e5 draws, k in {{1,3,5}})",
    )


def test_criterion_07_expected_dish_count_identity_and_calibration():
    worst = 0.0
    for model in (GibbsModel.dp(1.0), GibbsModel.py(0.5, 1.0), GibbsModel.py(0.25, 2.0)):
        cache = build_primitive_cache(model, 100)
        table = gfc = None
        if model.variant != "DP":
            table = build_weight_table(model, 100)
            gfc = build_gfc_table(100, model.stable_index)
        for n in range(1, 101):
            lhs = expected_features(model, 1.0, n, cache=cache)
            rhs = expected_blocks(model, n, table=table, gfc=gfc)
            worst = max(worst, abs(lhs - rhs))
    calib_err = 0.0
    for family, alpha in (("DP", None), ("PY", 0.5)):
        fitted = calibrate(family, 25.0, 50, alpha=alpha)
        model = GibbsModel.dp(fitted) if family == "DP" else GibbsModel.py(alpha, fitted)
        for gamma in (1.0, 2.5):
            gap = abs(expected_features(model, gamma, 50) - 25.0 * gamma) / gamma
            calib_err = max(calib_err, gap)
    _verdict(
        7,
        "expected dishes equal mass times expected blocks; calibration hits 25*gamma",
        worst <= 1e-8 and calib_err <= 0.05,
        f"max identity gap {worst:.2e} (tol 1e-08, n<=100); calibrated E[K_50] off "
        f"25*gamma by {calib_err:.2e}*gamma (tol 0.05*gamma)",
    )


def test_criterion_08_power_law_growth_and_tail_ordering(tmp_path):
    model = GibbsModel.py(0.5, 1.0)
    limit = powerlaw_constant(model)
    scaled = expected_features(model, 1.0, 10_000) / 10_000**0.5
    rel_gap = abs(scaled - limit) / limit
    pinned = abs(limit - 2.2568) < 5e-5
    # both families calibrated to E[B_50] = 25; the larger discount should
    # dominate far beyond the anchor and trail behind it
    code = main(
        [
            "stats",
            "--model", "py:alpha=0.25,theta=12.216190",
            "--model", "ngg:alpha=0.75,beta=0.635436",
            "--n-max", "600",
            "--samples", "20000",
            "--seed", "0",
            "--outdir", str(tmp_path),
        ]
    )
    assert code == 0
    curves = {}
    with open(tmp_path / "stats.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            curves.setdefault(row["model"], {})[int(row["n"])] = float(
                row["expected_dishes"]
            )
    py_curve = curves["py:alpha=0.25,theta=12.216190"]
    ngg_curve = curves["ngg:alpha=0.75,beta=0.635436"]
    ordering = ngg_curve[600] > py_curve[600] and py_curve[10] > ngg_curve[10]
    _verdict(
        8,
        "power-law growth constant and calibrated tail ordering",
        rel_gap <= 0.05 and pinned and ordering,
        f"E[K_n]/n^0.5 at n=1e4 off C={limit:.4f} by {rel_gap:.2%} (tol 5%); "
        f"heavier tail at n=600 ({ngg_curve[600]:.1f} vs {py_curve[600]:.1f}) with the "
        f"reverse at n=10 ({py_curve[10]:.2f} vs {ngg_curve[10]:.2f})",
    )


def test_criterion_09_joint_law_row_exchangeable():
    worst = 0.0
    rng = np.random.default_rng(17)
    for model in (GibbsModel.dp(1.0), GibbsModel.py(0.5, 1.0)):
        cache = build_primitive_cache(model, 30)
        alloc = simulate_ibp(model, 1.5, 30, seed=3, cache=cache)
        base = log_joint(alloc, model, 1.5, cache=cache)
        for _ in range(50):
            perm = rng.permutation(30)
            shuffled = FeatureAllocation.from_matrix(alloc.matrix[perm], 1.5)
            worst = max(worst, abs(log_joint(shuffled, model, 1.5, cache=cache) - base))
    _verdict(
        9,
        "joint law invariant under customer permutations",
        worst <= 1e-10,
        f"max |log-joint shift| {worst:.2e} over 100 random permutations (tol 1e-10, n=30)",
    )


def test_criterion_10_joint_increments_are_transition_logprobs():
    worst = 0.0
    gamma, n = 1.3, 12
    for model in (GibbsModel.dp(1.5), GibbsModel.py(0.5, 1.0)):
        alpha = model.stable_index
        caches = {j: build_primitive_cache(model, j) for j in range(1, n + 1)}
        alloc = simulate_ibp(model, gamma, n, seed=9, cache=caches[n])
        trajectory = feature_statistics(alloc)["trajectory"]
        previous = 0.0
        for j in range(1, n + 1):
            k_prev = int(trajectory[j - 2]) if j > 1 else 0
            prefix = FeatureAllocation(alloc.matrix[:j, : int(trajectory[j - 1])], gamma)
            current = log_joint(prefix, model, gamma, cache=caches[j])
            counts = alloc.matrix[: j - 1, :k_prev].sum(axis=0)
            takes = alloc.matrix[j - 1, :k_prev].astype(bool)
            fresh = int(trajectory[j - 1]) - k_prev
            step = log_transition(
                counts, takes, fresh, gamma, alpha, caches[j].g10_n, caches[j].g11_n
            )
            worst = max(worst, abs(current - previous - step))
            previous = current
    _verdict(
        10,
        "joint-law increments equal one-customer transition log-probabilities",
        worst <= 1e-10,
        f"max |increment - transition| {worst:.2e} (tol 1e-10, n=12, two models)",
    )


def test_criterion_11_stick_and_sequential_laws_agree():
    start = time.perf_counter()
    worst_tv = 0.0
    for model in (GibbsModel.dp(1.0), GibbsModel.py(0.2, 1.0)):
        rounds = suggest_rounds(model)
        stick = sample_truncated_feature_counts(model, 1.0, 20, rounds, 100_000, seed=8)
        seq = sample_feature_counts(model, 1.0, 20, 100_000, seed=9)
        width = max(int(stick.max()), int(seq.max())) + 1
        tv = 0.5 * float(
            np.abs(
                np.bincount(stick, minlength=width) / stick.size
                - np.bincount(seq, minlength=width) / seq.size
            ).sum()
        )
        worst_tv = max(worst_tv, tv)
    elapsed = time.perf_counter() - start
    _verdict(
        11,
        "truncated stick-breaking matches the sequential construction",
        worst_tv < 0.02 and elapsed < 120.0,
        f"max total-variation distance {worst_tv:.4f} on the dish-count law at n=20 "
        f"(tol 0.02, 1e5 draws each), {elapsed:.0f}s (budget 120s)",
    )


def test_criterion_12_sampler_joint_distribution_and_conjugacy():
    start = time.perf_counter()
    zscores = geweke_check(
        GibbsModel.dp(1.0), 8, 4, ChainConfig(update_gamma=True), rounds=100_000, seed=0
    )
    worst_z = max(abs(z) for z in zscores.values())

    model = GibbsModel.dp(1.0)
    state = LatentFactorState(
        model,
        np.ones((3, 5), dtype=np.uint8),
        np.zeros((3, 5)),
        np.zeros((5, 4)),
        1.0,
        1.0,
        np.ones(4),
        1.0,
        np.random.default_rng(5),
    )
    state.refresh_cache()
    shape, rate = gamma_posterior(state.dishes, Priors(), state.cache)
    params_ok = shape == 6.0 and rate == pytest.approx(1.0 + 11.0 / 6.0, rel=1e-12)
    draws = np.empty(10_000)
    for i in range(draws.size):
        _resample_gamma(state, Priors())
        draws[i] = state.gamma
    p_value = stats.kstest(draws, stats.gamma(a=shape, scale=1.0 / rate).cdf).pvalue
    elapsed = time.perf_counter() - start
    _verdict(
        12,
        "joint-distribution sampler test and conjugate mass update",
        len(zscores) >= 6 and worst_z < 4.0 and params_ok and p_value > 0.001
        and elapsed < 120.0,
        f"max |z| {worst_z:.2f} over {len(zscores)} statistics (tol 4, 1e5 rounds, "
        f"n=8, p=4); mass-update KS p-value {p_value:.3f} (level 0.001, 1e4 draws), "
        f"{elapsed:.0f}s (budget 120s)",
    )


def test_criterion_13_posterior_recovers_latent_dimension():
    n, p, k_true = 100, 20, 10
    z_true = np.zeros((n, k_true), dtype=np.uint8)
    z_true[:50, 0] = 1
    z_true[25:75, 1] = 1
    for j in range(8):
        z_true[80 + j, 2 + j] = 1
    scales = {"sigma_y": 0.25, "sigma_w": 1.0, "sigma_a": 1.0}
    y = synthesize_data(n, p, z_true, scales, seed=20)
    config = ChainConfig(
        iterations=3600,
        burn_in=600,
        seed=31,
        sigma_y=0.25,
        sigma_w=1.0,
        sigma_a=1.0,
        mc_samples=20_000,
    )
    ok = True
    details = []
    for model in (GibbsModel.py(0.5, 1.0), GibbsModel.ngg(0.5, 1.0)):
        archive = run_chain(y, model, config)
        dishes = archive.column("dishes")
        assert dishes.size == 3000
        low, high = np.percentile(dishes, [2.5, 97.5])
        mean = float(dishes.mean())
        ok = ok and low <= k_true <= high and abs(mean - k_true) <= 0.3 * k_true
        details.append(f"{model.variant} mean {mean:.2f}, 95% CI [{low:.0f}, {high:.0f}]")
    _verdict(
        13,
        "posterior dish count recovers the planted dimension",
        ok,
        "; ".join(details) + " (truth 10, mean tol 30%, 3000 retained draws each)",
    )


def test_criterion_14_structural_densities():
    worst_norm = 0.0
    for model in (GibbsModel.py(0.5, 1.0), GibbsModel.nig(1.0)):
        total, _ = integrate.quad(
            lambda q: structural_density(model, q), 0.0, 1.0, limit=200
        )
        worst_norm = max(worst_norm, abs(total - 1.0))
    anchor_gap = abs(structural_density(GibbsModel.py(0.5, 1.0), 0.5) - 2.0 / math.pi)
    _verdict(
        14,
        "structural densities normalize; half-discount anchor at 2/pi",
        worst_norm <= 1e-6 and anchor_gap <= 1e-9,
        f"max |integral - 1| {worst_norm:.2e} (tol 1e-06); density(0.5) off 2/pi "
        f"by {anchor_gap:.2e} (tol 1e-09)",
    )
