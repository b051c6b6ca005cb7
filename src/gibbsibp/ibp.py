"""Sequential buffet-style simulation of Gibbs-type feature allocations.

Customers enter one at a time; customer n+1 takes existing dish k with
probability (S_{n,k} - alpha) g_n(1,0) and then tries a Poisson(gamma
g_n(1,1)) number of new dishes.  The module also evaluates the joint pmf
of an allocation, summarizes dish statistics, and reports the power-law
constants governing dish growth.
"""

import csv
import math

import numpy as np
from scipy import integrate, special

from .gibbs_weights import build_primitive_cache


class FeatureAllocation:
    """A binary customers-by-dishes matrix with dishes in order of appearance.

    Rows are customers, columns dishes; column k of the matrix records who
    took dish k.  Columns are ordered by the row of their first 1 (ties kept
    in draw order), every dish has at least one taker, and gamma records the
    mass parameter that produced the allocation.

    Args:
        matrix: n x K binary array.
        gamma: mass parameter, >= 0.
    """

    def __init__(self, matrix, gamma):
        matrix = np.array(matrix, dtype=np.uint8, order="C")  # a copy: the caller's stays writable
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
        if matrix.size and matrix.max() > 1:
            raise ValueError("matrix entries must be 0 or 1")
        if gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {gamma}")
        if matrix.shape[1]:
            counts = matrix.sum(axis=0)
            if counts.min() < 1:
                raise ValueError("every dish needs at least one taker")
            first = matrix.argmax(axis=0)
            if np.any(np.diff(first) < 0):
                raise ValueError("columns must be ordered by first appearance")
        matrix.flags.writeable = False
        self.matrix = matrix
        self.gamma = float(gamma)

    @property
    def n(self):
        return self.matrix.shape[0]

    @property
    def dishes(self):
        return self.matrix.shape[1]

    @property
    def counts(self):
        """Per-dish taker counts S_{n,k}."""
        return self.matrix.sum(axis=0).astype(np.int64)

    @classmethod
    def from_matrix(cls, matrix, gamma):
        """Build an allocation from a matrix in arbitrary column order."""
        matrix = np.asarray(matrix, dtype=np.uint8)
        if matrix.ndim == 2 and matrix.size:
            # an empty dish has argmax 0 and sorts first; __init__ rejects it
            matrix = matrix[:, np.argsort(matrix.argmax(axis=0), kind="stable")]
        return cls(matrix, gamma)


def simulate_ibp(model, gamma, n, seed, cache=None):
    """Simulate n customers of the buffet process.

    Args:
        model: GibbsModel supplying the primitives.
        gamma: mass parameter, >= 0.
        n: number of customers, >= 1.
        seed: RNG seed.
        cache: optional PrimitiveCache of depth >= n.

    Returns:
        FeatureAllocation with dishes in order of appearance (ties within a
        customer kept in draw order).
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if cache is None:
        cache = build_primitive_cache(model, n)
    if cache.n < n:
        raise ValueError(f"cache depth {cache.n} cannot serve n = {n}")
    z, _ = _lockstep_buffet(
        np.array([float(gamma)]), n, model.stable_index, cache, np.random.default_rng(seed)
    )
    return FeatureAllocation(z[0], gamma)


def _lockstep_buffet(gammas, n, alpha, cache, rng):
    """Run one buffet of n customers per entry of gammas (its mass), all
    replicates a customer at a time.

    Replicate r's dishes fill the first dishes[r] slots of its row in order
    of appearance. An empty slot holds the count alpha, so its probability
    (count - alpha) g_n(1,0) is exactly 0 and no uniform can take it. At one
    replicate, rng.random((1, k)) draws what rng.random(k) does and
    rng.poisson of a one-entry rate array what the scalar rate does, so
    simulate_ibp keeps the stream of a customer-by-customer loop.

    Returns:
        (z, dishes): uint8 array (replicates, n, max dishes) with zero
        columns past each replicate's dishes, and the int array of dishes.
    """
    reps = gammas.size
    counts = np.full((reps, 16), float(alpha))
    slot = np.arange(16)
    dishes = np.zeros(reps, dtype=np.int64)
    width = 0
    fresh_by_customer = np.zeros((n, reps), dtype=np.int64)
    steps = []
    rates = gammas[:, None] * cache.g11[:n]
    for i in range(n):
        if width:
            g10 = cache.g10[i]
            probs = (counts[:, :width] - alpha) * g10
            # counts - alpha >= 0, so only a negative g10 makes probs negative
            if g10 < 0.0 or probs.max() > 1.0:
                raise ValueError(
                    "per-dish probability left [0, 1]; the primitives are corrupt"
                )
            takes = rng.random((reps, width)) < probs
            counts[:, :width] += takes
            steps.append(takes)
        fresh = rng.poisson(rates[:, i])
        if fresh.any():
            dishes = dishes + fresh
            width = max(width, int(dishes.max()))
            if width > slot.size:
                counts = np.pad(counts, ((0, 0), (0, width + slot.size)), constant_values=alpha)
                slot = np.arange(counts.shape[1])
            # taken slots hold counts >= 1 and empty ones alpha < 1
            np.maximum(counts, slot < dishes[:, None], out=counts)
            fresh_by_customer[i] = fresh
    seen = fresh_by_customer.T.cumsum(axis=1)[:, :, None]
    k = np.arange(width)
    z = ((k < seen) & (k >= seen - fresh_by_customer.T[:, :, None])).view(np.uint8)
    for i, takes in enumerate(steps, start=n - len(steps)):
        z[:, i, :takes.shape[1]] |= takes
    return z, dishes


def sample_feature_counts(model, gamma, n, replicates, seed, cache=None):
    """Dish totals K_n from `replicates` independent buffet runs.

    The dish-taking draws cannot change K_n, so each run reduces to its
    per-customer new-dish Poisson counts; those are drawn in lockstep across
    replicates.

    Returns:
        int array of shape (replicates,).
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if cache is None:
        cache = build_primitive_cache(model, n)
    if cache.n < n:
        raise ValueError(f"cache depth {cache.n} cannot serve n = {n}")
    rng = np.random.default_rng(seed)
    means = gamma * cache.g11[:n]
    return rng.poisson(np.broadcast_to(means, (replicates, n))).sum(axis=1)


def log_joint(allocation, model, gamma, cache=None):
    """Log joint pmf of the allocation, dishes labeled by order of appearance.

    K_n log(gamma) - gamma sum_{j<=n} g_{j-1}(1,1)
    + sum_k [log(1-alpha)_{S_k - 1} + log g_{n-S_k}(S_k, 1)],
    the pmf of the first n rows with the diffuse base-measure label
    differentials omitted (downstream uses only ratios and the gamma^{K_n}
    factor, both of which survive the omission).

    Args:
        allocation: FeatureAllocation.
        model: GibbsModel.
        gamma: mass parameter, >= 0.
        cache: optional primitives at depth n = allocation.n: a
            PrimitiveCache, or a depth-n ClosedFormPrimitives or
            NggRowPrimitives (a chain state's cache).
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    n = allocation.n
    if n < 1:
        raise ValueError("allocation must contain at least one customer")
    if cache is None:
        cache = build_primitive_cache(model, n)
    if cache.n != n:
        raise ValueError(f"cache was built for n = {cache.n}, need n = {n}")
    return _log_joint_counts(allocation.counts, n, gamma, model.stable_index, cache)


def _log_joint_counts(counts, n, gamma, alpha, primitives):
    # log_joint from the dish counts S_{n,k} alone, without argument checks.
    # Dishes of one size add the same term, so the sum runs over the
    # histogram of sizes: permutation invariance is exact, and the depth-n
    # primitives (log_joint's cache) are read at the sizes that occur only.
    k_n = len(counts)
    if k_n == 0:
        base = 0.0
    elif gamma == 0.0:
        return -math.inf
    else:
        base = k_n * math.log(gamma)
    histogram = np.bincount(np.asarray(counts, dtype=np.int64))
    sizes = histogram.nonzero()[0]
    multiplicity = histogram[sizes]
    g11_sum, log_gs1 = primitives.log_joint_reads(n, sizes)
    # log (1 - alpha)_{s-1}, exactly 0 at s = 1
    log_rising = special.gammaln((1.0 - alpha) + (sizes - 1)) - special.gammaln(1.0 - alpha)
    return base - gamma * g11_sum + float(multiplicity @ (log_rising + log_gs1))


def log_transition(counts, takes, fresh, gamma, alpha, g10, g11):
    """Log weight of one customer's choices given the dish counts before them.

    counts holds S_{n,k} after n customers, takes their decisions on those
    dishes, fresh the number of new dishes; g10 = g_n(1,0), g11 = g_n(1,1).
    The new-dish factor is exp(-gamma g11) (gamma g11)^fresh without the
    fresh! term: dish labels are fixed by order of appearance, matching
    log_joint.
    """
    counts = np.asarray(counts, dtype=float)
    takes = np.asarray(takes, dtype=bool)
    if counts.shape != takes.shape:
        raise ValueError("counts and takes must align")
    total = 0.0
    if counts.size:
        probs = (counts - alpha) * g10
        if probs.min() < 0.0 or probs.max() > 1.0:
            raise ValueError(
                "per-dish probability left [0, 1]; the primitives are corrupt"
            )
        total += float(np.where(takes, np.log(probs), np.log1p(-probs)).sum())
    rate = gamma * g11
    if fresh:
        total += fresh * math.log(rate)
    return total - rate


def feature_statistics(allocation):
    """Summaries of an allocation for growth and multiplicity diagnostics.

    Returns:
        dict with keys:
            trajectory: K_j for j = 1..n (dishes seen among the first j rows).
            multiplicity_counts: entry j = number of dishes with exactly j
                takers, j = 0..n (entry 0 is always 0).
            frequencies: empirical dish frequencies S_{n,k}/n in dish order.
    """
    n = allocation.n
    counts = allocation.counts
    if allocation.dishes:
        first = allocation.matrix.argmax(axis=0)
        trajectory = np.searchsorted(first, np.arange(n), side="right")
    else:
        trajectory = np.zeros(n, dtype=np.int64)
    return {
        "trajectory": trajectory.astype(np.int64),
        "multiplicity_counts": np.bincount(counts, minlength=n + 1),
        "frequencies": counts / float(n) if n else counts.astype(float),
    }


def expected_features(model, gamma, n, cache=None):
    """E[K_n] = gamma sum_{j=1..n} g_{j-1}(1,1)."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if cache is None:
        cache = build_primitive_cache(model, n)
    if cache.n < n:
        raise ValueError(f"cache depth {cache.n} cannot serve n = {n}")
    return gamma * float(cache.g11[:n].sum())


def powerlaw_constant(model):
    """Leading constant C in E[K_n] ~ gamma C n^alpha.

    PY evaluates Gamma(theta+1)/(alpha Gamma(theta+alpha)); NIG the Bessel
    form (2/sqrt(pi)) sqrt(beta) e^{sqrt(beta)} K_1(sqrt(beta)). NGG's
    constant e^{beta^alpha} int t^{-alpha} e^{-beta t} f_alpha(t) dt becomes
    one integral through t^{-alpha} = Gamma(alpha)^{-1} int s^{alpha-1}
    e^{-st} ds and the stable Laplace transform:

        C = e^{beta^alpha} / Gamma(alpha) int_0^inf s^{alpha-1}
            exp(-(beta+s)^alpha) ds,

    and s = t^{1/alpha} turns the integrand into exp(beta^alpha -
    (beta + t^{1/alpha})^alpha) / alpha, smooth and bounded at t = 0.
    DP dish counts grow logarithmically, so no such constant exists and the
    result is None.
    """
    if model.variant == "DP":
        return None
    alpha = model.stable_index
    if model.variant == "PY":
        theta = model.theta
        return float(
            np.exp(special.gammaln(theta + 1.0) - special.gammaln(theta + alpha))
            / alpha
        )
    beta = model.beta
    if model.variant == "NIG":
        root = math.sqrt(beta)
        # k1e(x) = e^x K_1(x), stable for large beta
        return 2.0 / math.sqrt(math.pi) * root * float(special.k1e(root))

    scale, log_beta = beta ** alpha, math.log(beta)

    def integrand(t):
        # beta^alpha - (beta + s)^alpha = -beta^alpha expm1(alpha log(1 + s/beta)),
        # free of cancellation at s << beta; the log stays finite where s overflows
        growth = alpha * float(np.logaddexp(0.0, math.log(t) / alpha - log_beta)) if t else 0.0
        return math.exp(-scale * math.expm1(min(growth, 700.0)))

    value, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return value / math.gamma(alpha + 1.0)


def export_allocation_csv(allocation, path):
    """Write the allocation as 0/1 rows, one per customer."""
    path = str(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["customer"] + [f"dish_{k}" for k in range(1, allocation.dishes + 1)])
        for i in range(allocation.n):
            writer.writerow([i + 1] + allocation.matrix[i].tolist())
    return path


def export_statistics_csv(statistics, path):
    """Write feature_statistics output in long form: series,index,value."""
    path = str(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "index", "value"])
        for j, value in enumerate(statistics["trajectory"], start=1):
            writer.writerow(["dishes_by_customer", j, int(value)])
        for j, value in enumerate(statistics["multiplicity_counts"]):
            if j:
                writer.writerow(["dishes_with_multiplicity", j, int(value)])
        for k, value in enumerate(statistics["frequencies"], start=1):
            writer.writerow(["dish_frequency", k, float(value)])
    return path
