"""Blocked MCMC for the linear-Gaussian latent feature model.

Data model: Y = (W o Z) A + eps with eps_{ij} ~ N(0, sigma_Y^2), weights
W_{ik} ~ N(0, sigma_W^2), loadings A_{kj} ~ N(0, sigma_{A,j}^2), and Z a
Gibbs-type feature allocation.  The sampler touches the allocation prior
only through its primitives at the data size n (read in closed form for
DP/PY and from row n of the weights for NGG/NIG), so every model variant
runs through the same sweep: per-element Z updates, a
Metropolis-Hastings move on each row's singleton dishes, conjugate W/A
updates, conjugate gamma and scale updates, and slice moves for the model
parameters.
"""

import csv
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy import special

from .gibbs_weights import (
    ClosedFormPrimitives,
    McConfig,
    NggWeightSampler,
    build_primitive_cache,
    primitive_cache_content_hash,
    weight_table_content_hash,
)
from .ibp import FeatureAllocation, _lockstep_buffet, _log_joint_counts, simulate_ibp

_LOG_2PI = math.log(2.0 * math.pi)
SLICE_WIDTH = 1.0
STEP_OUT_STEPS = 100
SHRINK_STEPS = 200
# the autocorrelation sum of a shorter Geweke chain has too few lags to mean much
GEWEKE_MIN_ROUNDS = 50
GEWEKE_CHUNK = 2 ** 15  # cells of Y per chunk of marginal-side prior draws


@dataclass(frozen=True)
class Priors:
    """Hyperpriors: gamma ~ Gamma(lambda1, rate=lambda2); alpha ~ uniform(0,1);
    theta + alpha ~ Exp(1) (beta ~ Exp(1) for the tilted variants); variances
    ~ inverse-gamma(1, 1)."""

    lambda1: float = 1.0
    lambda2: float = 1.0


@dataclass
class ChainConfig:
    """Sweep counts, initial scales, and which blocks to update.

    update_theta covers the second model parameter: theta for DP/PY, beta
    for NGG/NIG.  An NGG/NIG chain freezes mc_samples draws per row from the
    chain seed and keeps them for its whole run.
    """

    iterations: int = 1000
    burn_in: int = 0
    thin: int = 1
    seed: int = 0
    priors: Priors = field(default_factory=Priors)
    update_gamma: bool = True
    update_alpha: bool = False
    update_theta: bool = False
    update_scales: bool = False
    sigma_y: float = 1.0
    sigma_w: float = 1.0
    sigma_a: float = 1.0
    gamma_init: float = None
    mc_samples: int = 20_000
    chain_id: int = 0


class LatentFactorState:
    """Mutable chain state; Z is kept raw (columns in arbitrary order) and
    exposed as an order-of-appearance FeatureAllocation on demand.

    Invariants: W is n x K, A is K x p, all scales strictly positive;
    cache holds the model's depth-n primitives (primitives), which every
    sweep block and slice move reads, and sampler the NGG/NIG frozen draws
    they come from.  A PrimitiveCache set by hand serves the sweep blocks.
    """

    def __init__(self, model, z, w, a, sigma_y, sigma_w, sigma_a, gamma, rng):
        sigma_a = np.asarray(sigma_a, dtype=float)
        if sigma_y <= 0 or sigma_w <= 0 or np.any(sigma_a <= 0):
            raise ValueError("scales must be strictly positive")
        if gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {gamma}")
        self.model = model
        self.sigma_y = float(sigma_y)
        self.sigma_w = float(sigma_w)
        self.sigma_a = sigma_a.copy()
        self.gamma = float(gamma)
        self.rng = rng
        self.cache = None
        self.sampler = None
        self._filled = (None, None)  # (primitives, the table filled from them)
        self._set_factors(z, w, a)

    def _set_factors(self, z, w, a):
        """Replace Z, W and A together after checking their shapes."""
        z = np.array(z, dtype=np.uint8, order="C")  # owned, writable copy
        w = np.asarray(w, dtype=float)
        a = np.asarray(a, dtype=float)
        if z.ndim != 2:
            raise ValueError("Z must be a matrix")
        n, k = z.shape
        if w.shape != (n, k):
            raise ValueError(f"W must be {n} x {k}, got {w.shape}")
        if a.ndim != 2 or a.shape[0] != k:
            raise ValueError(f"A must have {k} rows, got {a.shape}")
        if self.sigma_a.shape != (a.shape[1],):
            raise ValueError("sigma_A must hold one scale per data column")
        self.z = z
        self.w = w
        self.a = a

    @property
    def n(self):
        return self.z.shape[0]

    @property
    def dishes(self):
        return self.z.shape[1]

    @property
    def p(self):
        return self.a.shape[1]

    @property
    def allocation(self):
        return FeatureAllocation.from_matrix(self.z, self.gamma)

    def primitives(self, model):
        """(sampler, primitives) of `model` at this state's n: (None,
        ClosedFormPrimitives) for DP/PY; for NGG/NIG the frozen draws its
        mc_config names at its alpha (the state's own if they match) and
        the NggRowPrimitives of their row n at its beta."""
        if model.is_closed_form:
            return None, ClosedFormPrimitives(model, self.n)
        alpha, mc = model.stable_index, model.mc_config
        sampler = self.sampler
        if sampler is None or (sampler.alpha, sampler.samples, sampler.seed) != (
            alpha, mc.samples, mc.seed
        ):
            sampler = NggWeightSampler(alpha, self.n, mc.samples, mc.seed)
        return sampler, sampler.row_primitives(model.beta)

    def refresh_cache(self):
        """Set the sampler and primitives of the current model."""
        self.sampler, self.cache = self.primitives(self.model)

    @property
    def table(self):
        """The NGG/NIG weight triangle filled from the primitives' row, once
        per primitives object; None for DP/PY."""
        if self.sampler is None:
            return None
        if self._filled[0] is not self.cache:
            table = self.sampler.weight_table(self.cache.log_row, self.cache.rel_se)
            self._filled = (self.cache, table)
        return self._filled[1]

    def full_cache(self):
        """The model's PrimitiveCache to depth n (NGG/NIG: from the table),
        which an initial Z's prior draw and a manifest's hash read whole."""
        gfc = None if self.sampler is None else self.sampler.gfc
        return build_primitive_cache(self.model, self.n, table=self.table, gfc=gfc)


def log_likelihood(y, z, w, a, sigma_y):
    """Gaussian log likelihood of Y given the factorization.

    -(np/2) log(2 pi) - np log sigma_Y - ||Y - (W o Z) A||_F^2 / (2 sigma_Y^2).

    Args:
        y: n x p data matrix.
        z: FeatureAllocation or binary matrix.
        w: n x K weights.
        a: K x p loadings.
        sigma_y: noise scale, > 0.
    """
    if sigma_y <= 0:
        raise ValueError(f"sigma_y must be positive, got {sigma_y}")
    z = getattr(z, "matrix", z)
    y = np.asarray(y, dtype=float)
    n, p = y.shape
    resid = y - (w * z) @ a
    return float(
        -0.5 * n * p * _LOG_2PI
        - n * p * math.log(sigma_y)
        - float((resid * resid).sum()) / (2.0 * sigma_y ** 2)
    )


def synthesize_data(n, p, z_true, scales, seed):
    """Draw Y = (W o Z) A + eps from the generative model at a fixed Z.

    Args:
        n, p: data dimensions (must match z_true's rows).
        z_true: FeatureAllocation or binary matrix with n rows.
        scales: mapping with sigma_y, sigma_w, sigma_a (scalar or p-vector).
        seed: RNG seed.
    """
    z = np.asarray(getattr(z_true, "matrix", z_true), dtype=float)
    if z.shape[0] != n:
        raise ValueError(f"z_true must have {n} rows, got {z.shape[0]}")
    k = z.shape[1]
    sigma_a = np.broadcast_to(np.asarray(scales["sigma_a"], dtype=float), (p,))
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, scales["sigma_w"], size=(n, k))
    a = rng.standard_normal((k, p)) * sigma_a
    return (w * z) @ a + rng.normal(0.0, scales["sigma_y"], size=(n, p))


def gamma_posterior(k_n, priors, cache):
    """(shape, rate) of the conjugate gamma update given K_n dishes; the
    rate reads E[B_n] = sum_{m<n} g_m(1,1) of any depth-n primitives."""
    rate = priors.lambda2 + cache.expected_blocks
    return priors.lambda1 + k_n, rate


def slice_sample(log_density, x0, rng):
    """One univariate slice-sampling update (stepping out, then shrinkage).

    Stepping out takes at most STEP_OUT_STEPS steps of SLICE_WIDTH on each
    side.  Shrinkage stops after SHRINK_STEPS rejected points with a
    RuntimeError naming the log density: by then the interval has shrunk
    around x0 by a factor of about e^-SHRINK_STEPS, so the density is not
    the one it was started on (or not deterministic) and looping on would
    never end.  The point returned is the last one log_density was
    evaluated at.
    """
    f0 = log_density(x0)
    if not np.isfinite(f0):
        raise ValueError(f"slice sampler started outside the support (f({x0}) = {f0})")
    log_level = f0 - rng.exponential()
    left = x0 - SLICE_WIDTH * rng.random()
    right = left + SLICE_WIDTH
    steps = STEP_OUT_STEPS
    while steps > 0 and log_density(left) > log_level:
        left -= SLICE_WIDTH
        steps -= 1
    steps = STEP_OUT_STEPS
    while steps > 0 and log_density(right) > log_level:
        right += SLICE_WIDTH
        steps -= 1
    for _ in range(SHRINK_STEPS):
        x1 = left + (right - left) * rng.random()
        if log_density(x1) > log_level:
            return x1
        if x1 < x0:
            left = x1
        else:
            right = x1
    name = getattr(log_density, "__name__", repr(log_density))
    raise RuntimeError(
        f"slice move {name} found no point above its slice level after "
        f"{SHRINK_STEPS} shrinkage steps from x0 = {x0}"
    )


def _resample_z(state, y):
    # Per-element conditional for dishes some other row also takes; row
    # singletons belong to the singleton move.
    #
    # With r the row's residual, a_k row k of A, w = W[i, k],
    # G = A A^T and c = A r, switching (i, k) on moves r to r - w a_k, so
    #   ||r_off||^2 - ||r_on||^2 = 2 w c_k + w^2 G_kk   (z_ik = 1, r = r_on)
    #                            = 2 w c_k - w^2 G_kk   (z_ik = 0, r = r_off)
    # and a flip on moves c by -w G_k (off: +w G_k).  Rows do not share
    # residuals, so every row's c comes from one product R A^T.
    #
    # The uniforms of a row are drawn in one call: the entries that draw
    # one are those with s_minus > 0, and a flip of (i, k) changes no
    # other row's take of any dish, so that set is fixed at row start.
    # One rng.random(m) gives the stream of m single rng.random() calls.
    n, k_dishes = state.z.shape
    if n < 2 or k_dishes == 0:
        return
    alpha = state.model.stable_index
    g10 = state.cache.g10_for(n)
    a = state.a
    gram = (a @ a.T).tolist()
    gram_diag = [gram[k][k] for k in range(k_dishes)]
    c_rows = ((y - (state.w * state.z) @ a) @ a.T).tolist()
    w_rows = state.w.tolist()
    z = state.z
    counts = z.sum(axis=0).tolist()
    inv_two_var = 1.0 / (2.0 * state.sigma_y ** 2)
    random = state.rng.random
    exp, inf = math.exp, math.inf
    prior_log_odds = [None] * n  # by s_minus: log odds of the dish-take prior
    dishes = range(k_dishes)
    for i in range(n):
        z_row = z[i].tolist()
        shared = [k for k in dishes if counts[k] - z_row[k] > 0]
        if not shared:
            continue
        c = c_rows[i]
        w_row = w_rows[i]
        flipped = False
        for u, k in zip(random(len(shared)).tolist(), shared):
            on = z_row[k]
            s_minus = counts[k] - on
            log_prior = prior_log_odds[s_minus]
            if log_prior is None:
                prior_take = (s_minus - alpha) * g10
                if not 0.0 <= prior_take <= 1.0:
                    raise ValueError(
                        "dish-take prior left [0, 1]; the primitives are corrupt"
                    )
                log_prior = (
                    math.log(prior_take) - math.log1p(-prior_take)
                    if prior_take < 1.0 else inf
                )
                prior_log_odds[s_minus] = log_prior
            w = w_row[k]
            if log_prior == inf:
                log_odds = inf
            elif on:
                log_odds = log_prior + (2.0 * w * c[k] + w * w * gram_diag[k]) * inv_two_var
            else:
                log_odds = log_prior + (2.0 * w * c[k] - w * w * gram_diag[k]) * inv_two_var
            # scipy.special.expit bit for bit (log_odds = +-inf too); exp
            # overflows only below -709.78, where expit is 0
            try:
                take = u < 1.0 / (1.0 + exp(-log_odds))
            except OverflowError:
                take = False
            if take != on:
                counts[k] += 1 if take else -1
                z_row[k] = int(take)
                step = -w if take else w
                c = [c_j + step * g_j for c_j, g_j in zip(c, gram[k])]
                flipped = True
        if flipped:
            z[i] = z_row


def _singleton_move(state, y):
    """Replace each row's solely-owned dishes with a Poisson-many fresh set.

    Row i draws k_new ~ Poisson(gamma g_{n-1}(1,1)) and, unless it owns no
    singleton and k_new = 0, fresh weights and loadings from their priors;
    the prior and proposal cancel, leaving the likelihood ratio of the
    row's residual with and without the swap.

    The residual matrix R = Y - (W o Z) A is formed once: a swap in row i
    touches no other row's residual or singletons (its old and new dishes
    are row i's alone), so R and the set of rows owning a singleton, found
    in one pass, stay valid for the rows after i.  The own mask of a row
    that draws is recomputed from the counts, since accepts shift column
    indices.  Rows draw in order, so the random stream is the one the
    per-row form used.
    """
    n = state.n
    rate = state.gamma * state.cache.g11_for(n)
    inv_two_var = 1.0 / (2.0 * state.sigma_y ** 2)
    p = state.p
    rng = state.rng
    counts = state.z.sum(axis=0)
    owners = state.z[:, counts == 1].any(axis=1).tolist()
    resid = y - (state.w * state.z) @ state.a
    poisson = rng.poisson
    for i in range(n):
        k_new = int(poisson(rate))
        if not owners[i] and k_new == 0:
            continue
        w_new = rng.normal(0.0, state.sigma_w, size=k_new)
        a_new = rng.standard_normal((k_new, p)) * state.sigma_a
        own = (counts == 1) & (state.z[i] == 1)
        row_resid = resid[i]
        without_own = row_resid + (state.w[i][own] @ state.a[own])
        proposed = without_own - (w_new @ a_new if k_new else 0.0)
        log_ratio = (
            float(row_resid @ row_resid) - float(proposed @ proposed)
        ) * inv_two_var
        if math.log(rng.random()) >= log_ratio:
            continue
        keep = ~own
        fresh_z = np.zeros((n, k_new), dtype=np.uint8)
        fresh_z[i] = 1
        fresh_w = rng.normal(0.0, state.sigma_w, size=(n, k_new))
        fresh_w[i] = w_new
        state.z = np.ascontiguousarray(
            np.concatenate([state.z[:, keep], fresh_z], axis=1)
        )
        state.w = np.concatenate([state.w[:, keep], fresh_w], axis=1)
        state.a = np.concatenate([state.a[keep], a_new], axis=0)
        counts = np.concatenate([counts[keep], np.ones(k_new, dtype=counts.dtype)])


def _resample_w(state, y):
    # Row i draws K standard normals, as the per-row form did: the first
    # #inactive (times sigma_W) are its inactive weights from the prior,
    # the rest the noise of its active weights.  Rows with the same number
    # of active dishes share one stacked factorisation.
    n, k = state.z.shape
    if k == 0:
        return
    var_y = state.sigma_y ** 2
    draws = state.rng.standard_normal((n, k))
    # per row: inactive columns first, then active ones, each ascending
    order = np.argsort(state.z, axis=1, kind="stable")
    spread = np.empty_like(draws)
    np.put_along_axis(spread, order, draws, axis=1)
    inactive = state.z == 0
    state.w[inactive] = spread[inactive] * state.sigma_w
    sizes = state.z.sum(axis=1)
    for m in np.unique(sizes[sizes > 0]).tolist():
        rows = np.nonzero(sizes == m)[0]
        active = order[rows, k - m:]
        a_act = state.a[active]
        precision = (
            a_act @ a_act.swapaxes(1, 2) / var_y + np.eye(m) / state.sigma_w ** 2
        )
        chol = np.linalg.cholesky(precision)
        mean = np.linalg.solve(precision, a_act @ y[rows, :, None] / var_y)
        noise = np.linalg.solve(
            chol.swapaxes(1, 2), spread[rows[:, None], active][..., None]
        )
        state.w[rows[:, None], active] = (mean + noise)[..., 0]


def _resample_a(state, y):
    # column j draws K standard normals; all p columns share one stacked
    # factorisation
    k = state.dishes
    if k == 0:
        return
    var_y = state.sigma_y ** 2
    x = state.w * state.z
    xtx = x.T @ x / var_y
    xty = x.T @ y / var_y
    # scalar ** squares by pow(), which can differ from an array's x * x in
    # the last bit; squaring each scale as a float keeps the draws bit-equal
    # to the one-column-at-a-time form
    var_a = np.array([scale ** 2 for scale in state.sigma_a.tolist()])
    precision = xtx + np.eye(k) / var_a[:, None, None]
    chol = np.linalg.cholesky(precision)
    mean = np.linalg.solve(precision, xty.T[..., None])
    noise = np.linalg.solve(
        chol.swapaxes(1, 2), state.rng.standard_normal((state.p, k))[..., None]
    )
    state.a[...] = (mean + noise)[..., 0].T


def _resample_gamma(state, priors):
    shape, rate = gamma_posterior(state.dishes, priors, state.cache)
    state.gamma = float(state.rng.gamma(shape, 1.0 / rate))


def _slice_model_move(state, counts, move, start):
    """One slice update of a model coordinate, started at x = start.

    move "discount" runs on x = logit alpha, alpha ~ U(0, 1), with PY's
    theta > -alpha as part of the support.  move "second" runs on
    x = log(theta + alpha) for DP/PY and x = log beta for NGG/NIG, either
    ~ Exp(1).  The target is the log joint of the dish counts
    (ibp._log_joint_counts) under the trial model's primitives plus the
    coordinate's log prior and Jacobian.  Returns the accepted coordinate.

    A trial is scored by its depth-n primitives (LatentFactorState
    .primitives: closed form for DP/PY, one moment pass of the frozen draws
    for NGG/NIG), a trial at the state's own model by the state's, which
    are the same function of the model.  The state adopts the model, draws
    and primitives of the accepted point, the last one slice_sample
    evaluated, and builds nothing more.  A discount trial draws at its own
    alpha from the model's seed, so the state's draws are dropped before a
    trial makes new ones: one set is alive at once.
    """
    model = state.model
    last = None  # the last evaluated point's (model, sampler, primitives)

    def trial(x):
        # (model at x, its log prior + Jacobian terms); None off the support
        if move == "discount":
            alpha = float(special.expit(x))
            if not 0.0 < alpha < 1.0 or (model.variant == "PY" and model.theta <= -alpha):
                return None, None
            return replace(model, alpha=alpha), (math.log(alpha), math.log1p(-alpha))
        value = math.exp(x)
        if model.is_closed_form:
            return replace(model, theta=value - model.stable_index), (-value, x)
        return replace(model, beta=value), (-value, x)

    def target(x):
        nonlocal last
        trial_model, terms = trial(x)
        if trial_model is None:
            return -math.inf
        last = None  # frees the last trial's draws before new ones are made
        if trial_model == state.model and state.cache is not None:
            last = (trial_model, state.sampler, state.cache)
        else:
            if move == "discount":
                # the state's draws go before the trial's are made; a later
                # trial at the state's model draws them again
                state.sampler = state.cache = None
            last = (trial_model,) + state.primitives(trial_model)
        log_p = _log_joint_counts(
            counts, state.n, state.gamma, trial_model.stable_index, last[2]
        )
        return log_p + terms[0] + terms[1]

    if move == "discount":
        target.__name__ = "logit_alpha"
    else:
        target.__name__ = "log_theta_plus_alpha" if model.is_closed_form else "log_beta"
    x = slice_sample(target, start, state.rng)
    state.model, state.sampler, state.cache = last
    return x


def _update_model_params(state, config):
    """Slice moves on the model parameters, one target for every subclass.

    The discount move (update_alpha, PY and NGG), then the second
    parameter move (update_theta: theta for DP/PY, beta for NGG/NIG).  An
    NGG/NIG chain keeps the frozen draws of its mc_config, so each (alpha,
    beta) names one weight table: an exact MCMC for the IBP they define.
    """
    counts = state.z.sum(axis=0).astype(np.int64)
    if config.update_alpha and state.model.variant in ("PY", "NGG"):
        _slice_model_move(
            state, counts, "discount", float(special.logit(state.model.alpha))
        )
    if config.update_theta:
        model = state.model
        start = math.log(
            model.theta + model.stable_index if model.is_closed_form else model.beta
        )
        _slice_model_move(state, counts, "second", start)


def _update_scales(state, y):
    # conjugate variance draws under inverse-gamma(1, 1) priors: a variance
    # scaling m zero-mean normal terms with sum of squares ssq has
    # v | rest ~ IG(1 + m/2, 1 + ssq/2)
    rng = state.rng
    resid = y - (state.w * state.z) @ state.a
    ssq_y = float((resid * resid).sum())
    state.sigma_y = math.sqrt((1.0 + 0.5 * ssq_y) / rng.gamma(1.0 + 0.5 * resid.size))
    ssq_w = float((state.w * state.w).sum())
    state.sigma_w = math.sqrt((1.0 + 0.5 * ssq_w) / rng.gamma(1.0 + 0.5 * state.w.size))
    ssq_a = (state.a * state.a).sum(axis=0)
    state.sigma_a[:] = np.sqrt(
        (1.0 + 0.5 * ssq_a) / rng.gamma(1.0 + 0.5 * state.dishes, size=state.p)
    )


def gibbs_sweep(state, y, config):
    """One full sweep over all enabled blocks; mutates and returns state."""
    _resample_z(state, y)
    _singleton_move(state, y)
    _resample_w(state, y)
    _resample_a(state, y)
    if config.update_gamma:
        _resample_gamma(state, config.priors)
    if config.update_alpha or config.update_theta:
        _update_model_params(state, config)
    if config.update_scales:
        _update_scales(state, y)
    return state


def initial_state(model, y, config, z_init=None):
    """Prior-flavored starting point for a chain on data y; an NGG/NIG
    chain's model takes mc_config McConfig(config.mc_samples, config.seed)."""
    y = np.asarray(y, dtype=float)
    n, p = y.shape
    rng = np.random.default_rng(config.seed)
    gamma = config.gamma_init
    if gamma is None:
        gamma = config.priors.lambda1 / config.priors.lambda2
    sigma_a = np.broadcast_to(np.asarray(config.sigma_a, dtype=float), (p,)).copy()
    if not model.is_closed_form:
        model = replace(model, mc_config=McConfig(config.mc_samples, config.seed))
    # the chain's own primitives serve the prior draw of the initial Z
    state = LatentFactorState(
        model, np.zeros((n, 0)), np.zeros((n, 0)), np.zeros((0, p)),
        config.sigma_y, config.sigma_w, sigma_a, gamma, rng,
    )
    state.refresh_cache()
    if z_init is None:
        z = simulate_ibp(
            model, gamma, n, seed=int(rng.integers(2 ** 63)), cache=state.full_cache()
        ).matrix
    else:
        z = np.asarray(getattr(z_init, "matrix", z_init), dtype=np.uint8)
    k = z.shape[1]
    w = rng.normal(0.0, config.sigma_w, size=(n, k))
    a = rng.standard_normal((k, p)) * sigma_a
    state._set_factors(z, w, a)
    return state


def _record(state, y, iteration):
    lj = _log_joint_counts(
        state.z.sum(axis=0), state.n, state.gamma, state.model.stable_index, state.cache
    )
    ll = log_likelihood(y, state.z, state.w, state.a, state.sigma_y)
    row = {
        "iteration": iteration,
        "chain": 0,
        "dishes": state.dishes,
        "total_takes": int(state.z.sum()),
        "gamma": state.gamma,
        "alpha": state.model.stable_index,
        "Theta": state.model.beta if state.model.beta is not None else state.model.theta,
        "sigma_y": state.sigma_y,
        "sigma_w": state.sigma_w,
        "log_joint": lj + ll,
    }
    for j, value in enumerate(state.sigma_a, start=1):
        row[f"sigma_a_{j}"] = float(value)
    if math.isnan(row["log_joint"]):
        raise RuntimeError(
            f"log joint diverged at iteration {iteration}: "
            f"dishes={state.dishes} gamma={state.gamma} sigma_y={state.sigma_y}"
        )
    return row


class SampleArchive:
    """Retained chain samples plus the run manifest."""

    def __init__(self, records, manifest):
        self.records = list(records)
        self.manifest = dict(manifest)

    def column(self, name):
        return np.array([record[name] for record in self.records])

    def extend(self, other):
        """Append another chain's records (per-chain ordering preserved)."""
        self.records.extend(other.records)
        chains = self.manifest.setdefault("merged_chains", [])
        chains.append(other.manifest)

    def to_csv(self, path):
        path = str(path)
        names = list(self.records[0].keys()) if self.records else ["iteration"]
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=names)
            writer.writeheader()
            writer.writerows(self.records)
        return path


def run_chain(y, model, config, z_init=None):
    """Run one chain and return the archive of retained samples.

    A zero-iteration config archives the initial state only.  A NaN in the
    recorded log joint aborts with diagnostics.
    """
    y = np.asarray(y, dtype=float)
    state = initial_state(model, y, config, z_init=z_init)
    records = []
    if config.iterations == 0:
        row = _record(state, y, 0)
        row["chain"] = config.chain_id
        records.append(row)
    for iteration in range(1, config.iterations + 1):
        gibbs_sweep(state, y, config)
        if iteration > config.burn_in and (iteration - config.burn_in) % config.thin == 0:
            row = _record(state, y, iteration)
            row["chain"] = config.chain_id
            records.append(row)
    manifest = {
        "config": asdict(config),
        "model": state.model.to_payload(),
        "cache_hash": primitive_cache_content_hash(state.full_cache()),
    }
    if state.table is not None:
        manifest["weight_table_hash"] = weight_table_content_hash(state.table, state.model)
    return SampleArchive(records, manifest)


def _emit_data(state, rng):
    noise = rng.standard_normal((state.n, state.p)) * state.sigma_y
    return (state.w * state.z) @ state.a + noise


def _geweke_statistics(dishes, z, wz, a, gamma, y):
    """The GEWEKE_STATISTIC_NAMES of replicates stacked on a leading axis.

    Args:
        dishes, gamma: arrays (replicates,).
        z, wz: Z and W o Z, (replicates, n, k); zero columns past a
            replicate's dishes add nothing.
        a: A, (replicates, k, p), likewise zero past the dishes.
        y: Y, (replicates, n, p).

    Returns:
        array (replicates, len(GEWEKE_STATISTIC_NAMES)).
    """
    cells = (1, 2)
    return np.column_stack(
        [dishes, z.sum(cells), gamma, wz.sum(cells), (a * a).sum(cells),
         y.mean(cells), (y * y).mean(cells)]
    )


def _state_statistics(state, y):
    # _geweke_statistics of one chain state, as its single replicate
    return _geweke_statistics(
        np.array([state.dishes]), state.z[None], (state.w * state.z)[None],
        state.a[None], np.array([state.gamma]), y[None],
    )[0]


GEWEKE_STATISTIC_NAMES = (
    "dishes",
    "total_takes",
    "gamma",
    "weighted_take_sum",
    "loading_sq_norm",
    "data_mean",
    "data_sq_mean",
)


def _prior_state(model, n, p, config, rng, cache=None):
    # one prior draw: the chain side's start, and the reference that
    # _marginal_statistics is tested against
    gamma = float(rng.gamma(config.priors.lambda1, 1.0 / config.priors.lambda2))
    if config.update_scales:
        # variances ~ inverse-gamma(1, 1)
        sigma_y = math.sqrt(1.0 / rng.gamma(1.0))
        sigma_w = math.sqrt(1.0 / rng.gamma(1.0))
        sigma_a = np.sqrt(1.0 / rng.gamma(1.0, size=p))
    else:
        sigma_y = config.sigma_y
        sigma_w = config.sigma_w
        sigma_a = np.broadcast_to(np.asarray(config.sigma_a, dtype=float), (p,)).copy()
    z = simulate_ibp(
        model, gamma, n, seed=int(rng.integers(2 ** 63)), cache=cache
    ).matrix
    k = z.shape[1]
    w = rng.normal(0.0, sigma_w, size=(n, k))
    a = rng.standard_normal((k, p)) * sigma_a
    return LatentFactorState(model, z, w, a, sigma_y, sigma_w, sigma_a, gamma, rng)


def _marginal_statistics(model, n, p, config, rounds, rng, cache):
    """Geweke statistics of `rounds` independent prior draws of (state, Y).

    Chunks of rounds run through one lockstep buffet each, holding
    GEWEKE_CHUNK cells of Y (and Z, W o Z and A of like size) at a time.
    """
    out = np.empty((rounds, len(GEWEKE_STATISTIC_NAMES)))
    step = max(1, GEWEKE_CHUNK // (n * p))
    for first in range(0, rounds, step):
        reps = min(step, rounds - first)
        gamma = rng.gamma(config.priors.lambda1, 1.0 / config.priors.lambda2, size=reps)
        if config.update_scales:
            # variances ~ inverse-gamma(1, 1)
            sigma_y = np.sqrt(1.0 / rng.gamma(1.0, size=reps))
            sigma_w = np.sqrt(1.0 / rng.gamma(1.0, size=reps))
            sigma_a = np.sqrt(1.0 / rng.gamma(1.0, size=(reps, p)))
        else:
            sigma_y = np.full(reps, config.sigma_y)
            sigma_w = np.full(reps, config.sigma_w)
            sigma_a = np.broadcast_to(np.asarray(config.sigma_a, dtype=float), (reps, p))
        z, dishes = _lockstep_buffet(gamma, n, model.stable_index, cache, rng)
        live = np.arange(z.shape[2]) < dishes[:, None]
        wz = rng.standard_normal(z.shape) * sigma_w[:, None, None] * z
        a = rng.standard_normal((reps, z.shape[2], p)) * sigma_a[:, None, :] * live[:, :, None]
        y = wz @ a + rng.standard_normal((reps, n, p)) * sigma_y[:, None, None]
        out[first:first + reps] = _geweke_statistics(dishes, z, wz, a, gamma, y)
    return out


def _autocorrelation_se(draws):
    """Standard error of the mean of a stationary series.

    The asymptotic variance is Geyer's (1992) initial monotone sequence
    estimate: sums of adjacent autocovariance pairs, cut at the first that
    is not positive and made nonincreasing.
    """
    x = np.asarray(draws, dtype=float)
    m = x.size
    spectrum = np.fft.rfft(x - x.mean(), 2 * m)
    acov = np.fft.irfft(spectrum.real ** 2 + spectrum.imag ** 2, 2 * m)[:m] / m
    pairs = acov[: m - m % 2].reshape(-1, 2).sum(axis=1)
    cut = np.flatnonzero(pairs <= 0.0)
    pairs = np.minimum.accumulate(pairs[: cut[0] if cut.size else pairs.size])
    # 2 Gamma_0 - gamma_0 = gamma_0 + 2 gamma_1 < 0 at a strong lag-1 anticorrelation
    return math.sqrt(max(2.0 * pairs.sum() - acov[0], 0.0) / m)


def geweke_check(model, n, p, config, rounds=100_000, seed=0):
    """Joint-distribution sampler test (prior draws vs sweep-then-emit chain).

    The marginal-conditional side draws (state, Y) from the prior; the
    successive-conditional side alternates gibbs_sweep with re-emitting Y.
    Matching joints means every statistic's two means agree; the chain
    side's standard errors come from its autocorrelations
    (_autocorrelation_se).  The marginal side draws its prior states in
    lockstep chunks.  NGG/NIG run on the table of their mc_config's draws.

    Known fault: with config.update_scales, sigma_y^2 ~ IG(1, 1) has no
    finite mean, so data_sq_mean has no finite variance and its z-score has
    no basis; no fixed |z| bound can hold for it.

    Returns:
        dict mapping statistic name -> z-score.
    """
    if config.update_alpha or config.update_theta:
        raise ValueError("the joint-distribution test runs with fixed model parameters")
    if rounds < GEWEKE_MIN_ROUNDS:
        raise ValueError(f"rounds must be at least {GEWEKE_MIN_ROUNDS}")
    rng = np.random.default_rng(seed)
    cache = build_primitive_cache(model, n)
    marginal = _marginal_statistics(model, n, p, config, rounds, rng, cache)

    state = _prior_state(model, n, p, config, rng, cache=cache)
    state.cache = cache
    y = _emit_data(state, rng)
    successive = np.empty_like(marginal)
    for r in range(rounds):
        gibbs_sweep(state, y, config)
        y = _emit_data(state, rng)
        successive[r] = _state_statistics(state, y)

    scores = {}
    for idx, name in enumerate(GEWEKE_STATISTIC_NAMES):
        se_m = marginal[:, idx].std(ddof=1) / math.sqrt(rounds)
        se_s = _autocorrelation_se(successive[:, idx])
        gap = marginal[:, idx].mean() - successive[:, idx].mean()
        scores[name] = float(gap / math.hypot(se_m, se_s))
    return scores
