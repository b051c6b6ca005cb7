"""Blocked MCMC for the linear-Gaussian latent feature model.

Data model: Y = (W o Z) A + eps with eps_{ij} ~ N(0, sigma_Y^2), weights
W_{ik} ~ N(0, sigma_W^2), loadings A_{kj} ~ N(0, sigma_{A,j}^2), and Z a
Gibbs-type feature allocation.  The sampler touches the allocation prior
only through its primitives at the data size n (read in closed form for
DP/PY and from row n of the weights for NGG/NIG), so every model variant
runs through the same sweep: per-element Z updates scanned dish by dish, a
Metropolis-Hastings move on each row's singleton dishes, conjugate W/A
updates, conjugate gamma and scale updates, and slice moves for the model
parameters.
"""

import csv
import functools
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy import special

from . import gibbs_weights
from .gibbs_weights import (
    ClosedFormPrimitives,
    McConfig,
    build_primitive_cache,
    closed_form_log_falling,
    closed_form_log_g11,
    depth_primitives,
    held_draws,
    primitive_cache_content_hash,
    weight_table_content_hash,
)
from .ibp import (
    FeatureAllocation,
    _SizeHistogram,
    _lockstep_buffet,
    _log_joint_counts,
    simulate_ibp,
)
from .special_functions import TableSizeError

_LOG_2PI = math.log(2.0 * math.pi)
SLICE_WIDTH = 1.0
STEP_OUT_STEPS = 100
SHRINK_STEPS = 200
# the autocorrelation sum of a shorter Geweke chain has too few lags to mean much
GEWEKE_MIN_ROUNDS = 50
GEWEKE_CHUNK = 2 ** 15  # cells of Y per chunk of marginal-side prior draws
GEWEKE_CHAIN_CHUNK = 2 ** 12  # cells of Y per chunk of chain-side rounds
MAX_SWEEP_CELLS = 2 ** 27  # doubles in a sweep's largest stacked array: 1 GiB


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
    for NGG/NIG; update_alpha the discount, free in PY and NGG only.  An
    NGG/NIG chain draws mc_samples frozen draws per row from the chain
    seed at its alpha: a beta move reuses them, and an alpha trial draws
    its own at its alpha from the same seed.
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
    cache holds the model's depth-n primitives (depth_primitives), which
    every sweep block and slice move reads; NGG/NIG primitives carry their
    frozen draws and fill their weight table (table) on first read.
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

    def refresh_cache(self):
        """Set the primitives of the current model."""
        self.cache = depth_primitives(self.model, self.n, self.cache)

    @property
    def table(self):
        """The NGG/NIG primitives' weight triangle, filled once per
        primitives object on first read; None for DP/PY."""
        return getattr(self.cache, "table", None)


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
    """One Gibbs update of every entry z_ik, scanned dish by dish.

    An entry whose dish no other row takes at its turn (s_minus = 0) is a
    row singleton, left to the singleton move.  Every other entry takes
    the dish with probability expit(prior(s_minus) + lik_ik): prior(s) is
    the log odds of the dish-take prior (s - alpha) g_{n-1}(1,0), and
    lik_ik = (||r_off||^2 - ||r_on||^2) / (2 sigma_Y^2) for r row i's
    residual.  With u_ik uniform and t_ik = logit(u_ik) - lik_ik, it takes
    iff t_ik < prior(s_minus).

    With w = W[i, k], G = A A^T and c = A r,
      ||r_off||^2 - ||r_on||^2 = 2 w c_k + w^2 G_kk   (z_ik = 1)
                               = 2 w c_k - w^2 G_kk   (z_ik = 0),
    and a flip on moves row i's c by -w G_k (off: +w G_k).  So every t is
    scored at sweep start from one product C = R A^T.  A flip records its
    step (-w on, +w off), and dish k's scores take the flips of the dishes
    before it as one product of row k of G with those steps, which is zero
    for the rows that did not flip.  One rng.random((K, n)) draws a
    uniform for every entry, in scan order, whether or not the entry uses
    it.

    prior(s) rises with s, and s_minus of an entry that is not a
    singleton lies in 1..n-1, so rows that are off with t >= prior(n-1)
    stay off and rows that are on with t < prior(1) stay on, whatever the
    rows before them do.  Only the other rows of a dish enter the scalar
    loop, which carries the dish's count.

    The per-dish work follows the flips: until a row flips, no score
    moves, so the dishes before the first flip skip the product with G
    (subtracting q * 0 leaves t as it was).  The prior's log odds depend
    on (n, alpha, g_{n-1}(1,0)) alone and are computed, and checked for
    every s in 1..n-1, once per such triple (_take_log_odds), before any
    draw.
    """
    n, k_dishes = state.z.shape
    if n < 2 or k_dishes == 0:
        return
    prior = _take_log_odds(n, state.model.stable_index, state.cache.g10_n)
    a, wt, zt = state.a, state.w.T, state.z.T
    gram = a @ a.T
    u = state.rng.random((k_dishes, n))
    with np.errstate(divide="ignore"):
        t = np.log(u) - np.log1p(-u)
    # lik = q (c_k +- w G_kk / 2) with q = 2 w / (2 sigma_Y^2); row k of c
    # holds every row's c_k
    q = wt * (1.0 / state.sigma_y ** 2)
    half_self = wt * (0.5 * gram.diagonal())[:, None]
    c = a @ (y - (state.w * state.z) @ a).T
    t -= q * (c + np.where(zt, half_self, -half_self))
    # an off row can take only if t < prior(n-1), an on row can drop only if
    # t >= prior(1): the live rows are those with (t < reach) != z
    reach = np.where(zt, prior[1], prior[n - 1])
    counts = state.z.sum(axis=0).tolist()
    steps = np.zeros((k_dishes, n))  # a flip of (i, k) moves row i's c by steps[k, i] G_k
    flipped = False
    for k in range(k_dishes):
        t_k = t[k] - q[k] * (gram[k, :k] @ steps[:k]) if flipped else t[k]
        rows = ((t_k < reach[k]) != zt[k]).nonzero()[0]
        if not rows.size:
            continue
        count = counts[k]
        w_k = wt[k]
        for i, t_ik, on in zip(rows.tolist(), t_k[rows].tolist(), zt[k, rows].tolist()):
            s_minus = count - on
            if s_minus and (t_ik < prior[s_minus]) != on:
                count += 1 - 2 * on
                zt[k, i] = 1 - on
                steps[k, i] = w_k[i] if on else -w_k[i]
                flipped = True


@functools.lru_cache(maxsize=4)
def _take_log_odds(n, alpha, g10):
    """The Z block's prior log odds log(p / (1 - p)) of the dish-take prior
    p = (s - alpha) g10, as a tuple indexed by s = 0..n-1 (nan at s = 0).
    Raises ValueError unless p lies in [0, 1] for every s in 1..n-1."""
    # (s - alpha) g10 is linear in s, so its ends bound every s in 1..n-1
    if not (0.0 <= (1 - alpha) * g10 <= 1.0 and 0.0 <= (n - 1 - alpha) * g10 <= 1.0):
        raise ValueError("dish-take prior left [0, 1]; the primitives are corrupt")
    prior_take = (np.arange(1, n) - alpha) * g10
    with np.errstate(divide="ignore"):
        prior = np.log(prior_take) - np.log1p(-prior_take)
    return (math.nan, *prior.tolist())


def _singleton_move(state, y):
    """Replace each row's solely-owned dishes with a Poisson-many fresh set.

    Row i draws k_new ~ Poisson(gamma g_{n-1}(1,1)) and, unless it owns no
    singleton and k_new = 0, fresh weights and loadings from their priors;
    the prior and proposal cancel, leaving the likelihood ratio of the
    row's residual with and without the swap.

    A swap in row i touches no other row's residual or singletons (its old
    and new dishes are row i's alone), so every proposal is scored from
    the residuals at the start of the move, in one pass over the rows that
    propose (those owning a singleton or drawing k_new > 0).  The draws
    come in this order: the n counts; the weights of every proposal, row
    after row, in one normal call; their loadings in one standard_normal
    call; one uniform per proposing row; and, if a row accepts, the other
    rows' weights of the accepted dishes in one normal((n, born)) call.
    Z, W and A are then rebuilt once: the accepting rows' singletons go,
    and their fresh dishes are appended in row order.
    """
    n, p = state.n, state.p
    rng = state.rng
    k_new_rows = rng.poisson(state.gamma * state.cache.g11_n, size=n)
    single = state.z.sum(axis=0) == 1
    owned = state.z[:, single]
    rows = (owned.any(axis=1) | (k_new_rows > 0)).nonzero()[0]
    if not rows.size:
        return
    k_new = k_new_rows[rows]
    w_new = rng.normal(0.0, state.sigma_w, size=int(k_new.sum()))
    a_new = rng.standard_normal((w_new.size, p)) * state.sigma_a
    log_u = np.log(rng.random(rows.size))
    # proposal r's sum of w a over its fresh dishes is row r of spread @ a_new
    owner = np.repeat(np.arange(rows.size), k_new)
    spread = np.zeros((rows.size, w_new.size))
    spread[owner, np.arange(w_new.size)] = w_new
    w, z = state.w[rows], state.z[rows]
    resid = y[rows] - (w * z) @ state.a
    proposed = resid + (w[:, single] * owned[rows]) @ state.a[single] - spread @ a_new
    log_ratio = (
        (resid * resid).sum(axis=1) - (proposed * proposed).sum(axis=1)
    ) * (1.0 / (2.0 * state.sigma_y ** 2))
    accept = log_u < log_ratio
    if not accept.any():
        return
    keep = ~(single & state.z[rows[accept]].any(axis=0))
    born = accept[owner]
    cols, born_rows = np.arange(int(born.sum())), rows[owner[born]]
    fresh_z = np.zeros((n, cols.size), dtype=np.uint8)
    fresh_z[born_rows, cols] = 1
    fresh_w = rng.normal(0.0, state.sigma_w, size=(n, cols.size))
    fresh_w[born_rows, cols] = w_new[born]
    state.z = np.concatenate([state.z[:, keep], fresh_z], axis=1)
    state.w = np.concatenate([state.w[:, keep], fresh_w], axis=1)
    state.a = np.concatenate([state.a[keep], a_new[born]], axis=0)


def _resample_w(state, y):
    """Draw every row's weights from their conditional, in one stacked pass.

    Row i draws K standard normals, as the per-row form did: the first
    #inactive (times sigma_W) are its inactive weights from the prior, the
    rest the noise of its active weights, each in ascending column order.
    The active weights of every row come from one stacked Cholesky
    factorisation of size m, the largest active count: row i's slots are
    its last m columns in that order.  A row with fewer active dishes
    fills its first slots with inactive columns whose loadings are masked
    to zero.  Such a slot is decoupled from the others, with precision
    1/sigma_W^2 and no data term, so its draw is the prior draw sigma_W
    times its normal.  One solve P^-1 (b + L d) gives the conditional mean
    P^-1 b plus the noise L^-T d of the per-row form, so every weight is
    that of a per-row factorisation to within rounding.
    """
    n, k = state.z.shape
    if k == 0:
        return
    var_y = state.sigma_y ** 2
    draws = state.rng.standard_normal((n, k))
    # per row: inactive columns first, then active ones, each ascending
    order = np.argsort(state.z, axis=1, kind="stable")
    sizes = state.z.sum(axis=1)
    m = int(sizes.max())
    draws[:, :k - m] *= state.sigma_w
    if m:
        live = np.arange(m) >= (m - sizes)[:, None]
        a_slots = state.a[order[:, k - m:]] * live[..., None]
        precision = a_slots @ a_slots.swapaxes(1, 2) / var_y + np.eye(m) / state.sigma_w ** 2
        # P^-1 (b + L d) for P = L L^T has mean P^-1 b and covariance P^-1
        chol = np.linalg.cholesky(precision)
        rhs = a_slots @ y[..., None] / var_y + chol @ draws[:, k - m:, None]
        draws[:, k - m:] = np.linalg.solve(precision, rhs)[..., 0]
    state.w[np.arange(n)[:, None], order] = draws


def _resample_a(state, y):
    """Draw every column of the loadings from its conditional, in one
    stacked pass.

    Column j draws K standard normals d.  Its precision P = X^T X /
    sigma_Y^2 + I / sigma_{A,j}^2 (X = W o Z) is factored P = L L^T, and
    one stacked solve P^-1 (b + L d), b = X^T y_j / sigma_Y^2, gives the
    conditional mean P^-1 b plus the noise P^-1 L d = L^-T d, as
    _resample_w does.  The Cholesky factor stays: an eigendecomposition of
    X^T X, shared by every column, would start BLAS threads at K >= 31.
    """
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
    # X^T X / sigma_Y^2 + I / sigma_{A,j}^2 per column: add to the diagonal
    # only, as a stride-(k + 1) view of each flattened K x K block
    precision = np.repeat(xtx[None], state.p, axis=0)
    precision.reshape(state.p, k * k)[:, ::k + 1] += (1.0 / var_a)[:, None]
    chol = np.linalg.cholesky(precision)
    rhs = xty.T[..., None] + chol @ state.rng.standard_normal((state.p, k))[..., None]
    state.a[...] = np.linalg.solve(precision, rhs)[..., 0].T


def _resample_gamma(state, priors):
    shape, rate = gamma_posterior(state.dishes, priors, state.cache)
    state.gamma = float(state.rng.gamma(shape, 1.0 / rate))


def _slice_model_move(state, counts, move, start, dishes=None):
    """One slice update of a model coordinate from x = start; returns the
    accepted x.  move "discount" runs on x = logit alpha, alpha ~ U(0, 1);
    move "second" on x = log(theta + alpha) (DP/PY) or log beta (NGG/NIG),
    either ~ Exp(1).  A point off the support 0 < alpha < 1, theta > -alpha,
    beta > 0 (as where a parameter rounds onto its bound) scores -inf.  The
    target is the log joint of the counts (ibp._log_joint_counts) under the
    trial's depth-n primitives plus the log prior and Jacobian; the state's
    own point is scored by the state's primitives.  The state adopts the
    accepted point, the last one slice_sample evaluated, and only its model
    is built.  The subclasses differ in their scorer's (score, adopt) only:
    score(alpha, second) gives a trial's log joint and what adopt(model,
    held) makes its primitives from;
    DP/PY score in closed form (_closed_form_scorer), NGG/NIG from frozen
    draws (_row_scorer).  dishes, the counts' ibp._SizeHistogram with
    state.gamma, is built unless given: a sweep's two moves share one.
    """
    model, closed = state.model, state.model.is_closed_form
    own = (model.stable_index, model.theta if closed else model.beta)
    if dishes is None:
        dishes = _SizeHistogram(counts, state.gamma)
    scorer = _closed_form_scorer if closed else _row_scorer
    score, adopt = scorer(state, dishes, move)
    last = None  # (alpha, held) of the last trial; None at the state's own point

    def target(x):
        nonlocal last
        if move == "discount":
            alpha, second = float(special.expit(x)), own[1]
            if not 0.0 < alpha < 1.0:
                return -math.inf
            terms = (math.log(alpha), math.log1p(-alpha))
        else:
            alpha, second = own[0], model.second_at(x)
            if second == math.inf:
                return -math.inf
            terms = (-math.exp(x), x)
        if second <= (-alpha if closed else 0.0):
            return -math.inf
        last = None  # frees the last trial's draws before new ones are made
        if (alpha, second) == own and state.cache is not None:
            value = dishes.score(state.cache)
        else:
            value, held = score(alpha, second)
            last = (alpha, held)
        return value + terms[0] + terms[1]

    second_name = "log_theta_plus_alpha" if closed else "log_beta"
    target.__name__ = "logit_alpha" if move == "discount" else second_name
    x = slice_sample(target, start, state.rng)
    if last is not None:
        alpha, held = last
        trial = (model.with_second_coordinate(x) if move == "second"
                 else replace(model, alpha=alpha))
        state.model, state.cache = trial, adopt(trial, held)
    return x


def _closed_form_log_joint(dishes, log_rising, log_falling, alpha, theta, n):
    """_log_joint_counts(counts, gamma, ClosedFormPrimitives(model, n)) to
    the bit for the DP/PY model at (alpha, theta), with no primitives
    object, from dishes = _SizeHistogram(counts, gamma), its
    log_rising(alpha) and closed_form_log_falling(theta, n, dishes.sizes).
    Returns it with the closed_form_log_g11 that ClosedFormPrimitives takes."""
    log_g11 = closed_form_log_g11(alpha, theta, n)
    log_gs1 = log_g11[n - dishes.sizes] - log_falling
    return dishes.log_joint(float(np.exp(log_g11).sum()), log_rising + log_gs1), log_g11


def _closed_form_scorer(state, dishes, move):
    """(score, adopt) of a DP/PY slice move, with no per-trial objects: a
    trial's score is _closed_form_log_joint, with log (1 - alpha)_{s-1}
    computed once per theta move and the alpha-free log_falling once per
    discount move, and adopt builds ClosedFormPrimitives from its log g11."""
    model, n, sizes = state.model, state.n, dishes.sizes
    rising = dishes.log_rising(model.stable_index) if move == "second" else None
    falling = closed_form_log_falling(model.theta, n, sizes) if move == "discount" else None

    def score(alpha, theta):
        log_rising = dishes.log_rising(alpha) if rising is None else rising
        log_falling = closed_form_log_falling(theta, n, sizes) if falling is None else falling
        return _closed_form_log_joint(dishes, log_rising, log_falling, alpha, theta, n)

    return score, lambda trial, log_g11: ClosedFormPrimitives(trial, n, log_g11)


def _row_scorer(state, dishes, move):
    """(score, adopt) of an NGG/NIG slice move.  A trial's primitives come
    from one read of frozen draws that sums the first moment only, and
    adopt takes them as they are.  A beta trial reads the state's draws.
    A discount trial draws at its own alpha from the model's seed, so the
    state's draws go before a trial makes new ones: one set is alive at
    once."""
    n, mc = state.n, state.model.mc_config
    draws = held_draws(state.model, n, state.cache) if move == "second" else None

    def score(alpha, beta):
        if move == "discount":
            state.cache = None  # a later trial at the state's model draws again
        sampler = draws or gibbs_weights.NggWeightSampler(alpha, n, mc.samples, mc.seed)
        primitives = sampler.row_primitives(beta)
        return dishes.score(primitives), primitives

    return score, lambda trial, primitives: primitives


def _update_model_params(state, config):
    """Slice moves on the model parameters, one target for every subclass:
    the discount move (update_alpha; initial_state refuses it for DP and
    NIG), then the second parameter move (update_theta: theta for DP/PY,
    beta for NGG/NIG).  Each NGG/NIG (alpha, beta) names one weight table,
    from the frozen draws of its mc_config: an exact MCMC for its IBP."""
    counts = state.z.sum(axis=0).astype(np.int64)
    dishes = _SizeHistogram(counts, state.gamma)
    if config.update_alpha:
        _slice_model_move(
            state, counts, "discount", float(special.logit(state.model.alpha)), dishes
        )
    if config.update_theta:
        _slice_model_move(state, counts, "second", state.model.second_coordinate, dishes)


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
    chain's model takes mc_config McConfig(config.mc_samples, config.seed).
    Refuses update_alpha where the discount is fixed (DP, NIG), and a start
    Z past MAX_SWEEP_CELLS (_check_sweep_size) before W and A are drawn."""
    if config.update_alpha and model.variant not in ("PY", "NGG"):
        raise ValueError(f"update_alpha needs a free discount (PY, NGG), not {model.describe()}")
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
            model, gamma, n, seed=int(rng.integers(2 ** 63)), cache=state.cache
        ).matrix
    else:
        z = np.asarray(getattr(z_init, "matrix", z_init), dtype=np.uint8)
    _check_sweep_size(z, p)
    k = z.shape[1]
    w = rng.normal(0.0, config.sigma_w, size=(n, k))
    a = rng.standard_normal((k, p)) * sigma_a
    state._set_factors(z, w, a)
    return state


def _check_sweep_size(z, p):
    """Refuse with TableSizeError a start Z whose sweep would stack more than
    MAX_SWEEP_CELLS doubles in one array: the A block's p K x K precisions,
    or the W block's n m x m ones for m the largest row total."""
    (n, k), m = z.shape, int(z.sum(axis=1).max(initial=0))
    if max(p * k * k, n * m * m) > MAX_SWEEP_CELLS:
        raise TableSizeError(
            f"a start with K = {k} dishes, p = {p} columns and m = {m} dishes in its "
            f"fullest row needs {max(p * k * k, n * m * m)} doubles in one sweep array "
            f"(p K^2 or n m^2); the limit is MAX_SWEEP_CELLS = {MAX_SWEEP_CELLS}"
        )


def _record(state, y, iteration):
    lj = _log_joint_counts(state.z.sum(axis=0), state.gamma, state.cache)
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
        "cache_hash": primitive_cache_content_hash(state.cache, state.model),
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


def _chain_round(state, y):
    # what _chain_statistics reads of one chain round: (Z, W o Z, A, gamma,
    # Y), copied, as the next sweep updates Z, W and A in place
    return state.z.copy(), state.w * state.z, state.a.copy(), state.gamma, y


def _chain_statistics(rounds):
    """_geweke_statistics of a list of _chain_round records, stacked with
    their dish columns zero-padded to the largest dish count among them."""
    reps, k = len(rounds), max(z.shape[1] for z, *_ in rounds)
    (n, p) = rounds[0][4].shape
    z = np.zeros((reps, n, k), dtype=np.uint8)
    wz = np.zeros((reps, n, k))
    a = np.zeros((reps, k, p))
    for r, (z_r, wz_r, a_r, _, _) in enumerate(rounds):
        dishes = z_r.shape[1]
        z[r, :, :dishes] = z_r
        wz[r, :, :dishes] = wz_r
        a[r, :dishes] = a_r
    return _geweke_statistics(
        np.array([z_r.shape[1] for z_r, *_ in rounds]), z, wz, a,
        np.array([record[3] for record in rounds]), np.stack([record[4] for record in rounds]),
    )


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
        z, dishes = _lockstep_buffet(gamma, n, cache, rng)
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
    lockstep chunks, and the chain side's statistics are taken in chunks
    of as many rounds (_chain_statistics).  Both read build_primitive_cache(model, n), whose
    NGG/NIG table (of their mc_config's draws) has no frozen-draw limit.

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
    step = max(1, GEWEKE_CHAIN_CHUNK // (n * p))
    held = []
    for r in range(rounds):
        gibbs_sweep(state, y, config)
        y = _emit_data(state, rng)
        held.append(_chain_round(state, y))
        if len(held) == step or r == rounds - 1:
            successive[r + 1 - len(held):r + 1] = _chain_statistics(held)
            held.clear()

    scores = {}
    for idx, name in enumerate(GEWEKE_STATISTIC_NAMES):
        se_m = marginal[:, idx].std(ddof=1) / math.sqrt(rounds)
        se_s = _autocorrelation_se(successive[:, idx])
        gap = marginal[:, idx].mean() - successive[:, idx].mean()
        scores[name] = float(gap / math.hypot(se_m, se_s))
    return scores
