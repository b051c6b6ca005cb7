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
from scipy import special

from .gibbs_weights import ALPHA_TOL, build_primitive_cache
from .special_functions import TableSizeError, log_gamma_ratio, tilted_stable_integral

# simulate_ibp holds its n x K_n allocation several times over (the
# buffet's matrix and masks, the allocation's copy) as one byte per cell
MAX_BUFFET_CELLS = 10 ** 8
# K_n is Poisson: the refusal reads E[K_n] plus this many standard
# deviations (and as many dishes), past which a draw lands about once in 10^9
BUFFET_TAIL_SDS = 6.0


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
        # a copy: the caller's stays writable
        self._adopt(np.array(matrix, dtype=np.uint8, order="C"), gamma, check_order=True)

    def _adopt(self, matrix, gamma, check_order):
        """Check an owned C-order uint8 matrix, and gamma, and keep both."""
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
            if check_order and np.any(np.diff(matrix.argmax(axis=0)) < 0):
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
        """Build an allocation from a matrix in arbitrary column order.

        Sorting the columns by first appearance makes a fresh array in that
        order, which is kept with no second copy and no order check; every
        other check of the constructor applies."""
        matrix = np.asarray(matrix, dtype=np.uint8)
        if matrix.ndim != 2 or not matrix.size:
            return cls(matrix, gamma)
        # an empty dish has argmax 0 and sorts first; _adopt rejects it
        order = np.argsort(matrix.argmax(axis=0), kind="stable")
        allocation = cls.__new__(cls)
        allocation._adopt(np.ascontiguousarray(matrix[:, order]), gamma, check_order=False)
        return allocation


def _primitives(model, n, cache):
    # `cache`, refused unless it carries the model's alpha; else built at depth n
    if cache is None:
        return build_primitive_cache(model, n)
    if abs(cache.alpha - model.stable_index) > ALPHA_TOL:
        raise ValueError(f"cache alpha {cache.alpha} is not the model's {model.stable_index}")
    return cache


def simulate_ibp(model, gamma, n, seed, cache=None):
    """Simulate n customers of the buffet process.

    Args:
        model: GibbsModel supplying the primitives.
        gamma: mass parameter, >= 0.
        n: number of customers, >= 1.
        seed: RNG seed.
        cache: optional primitives of the model at depth >= n
            (build_primitive_cache, or a chain state's cache); the buffet
            reads their alpha and their g10 and g11 sequences.  A cache
            whose alpha is not the model's is refused.

    Returns:
        FeatureAllocation with dishes in order of appearance (ties within a
        customer kept in draw order).

    Raises TableSizeError, before the buffet runs, where n times the
    Poisson tail bound E[K_n] + BUFFET_TAIL_SDS (sqrt(E[K_n]) + 1) on the
    dishes passes MAX_BUFFET_CELLS.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cache = _primitives(model, n, cache)
    if cache.n < n:
        raise ValueError(f"cache depth {cache.n} cannot serve n = {n}")
    expected = gamma * float(cache.g11[:n].sum())
    if n * (expected + BUFFET_TAIL_SDS * (math.sqrt(expected) + 1.0)) > MAX_BUFFET_CELLS:
        raise TableSizeError(
            f"n = {n} customers with E[K_n] = {expected:.4g} expected dishes would "
            f"fill about {n * expected:.3g} cells; a buffet is limited to "
            f"MAX_BUFFET_CELLS = {MAX_BUFFET_CELLS} cells, tail margin included"
        )
    z, _ = _lockstep_buffet(np.array([float(gamma)]), n, cache, np.random.default_rng(seed))
    return FeatureAllocation(z[0], gamma)


def _lockstep_buffet(gammas, n, cache, rng):
    """Run one buffet of n customers per entry of gammas (its mass), all
    replicates a customer at a time, under the primitives `cache` (depth
    >= n), whose alpha and g10 and g11 sequences it reads.

    Replicate r's dishes fill the first dishes[r] slots of its row in order
    of appearance. An empty slot holds the count alpha, so its probability
    (count - alpha) g_n(1,0) is exactly 0 and no uniform can take it. At one
    replicate, rng.random((1, k)) draws what rng.random(k) does and each
    customer's Poisson draw takes the scalar rate, as a customer-by-customer
    loop does, so simulate_ibp keeps that loop's stream; a scalar rate also
    skips numpy's checks of an array argument, most of a draw's cost.

    Returns:
        (z, dishes): uint8 array (replicates, n, max dishes) with zero
        columns past each replicate's dishes, and the int array of dishes.
    """
    alpha = cache.alpha
    reps = gammas.size
    counts = np.full((reps, 16), float(alpha))
    slot = np.arange(16)
    dishes = np.zeros(reps, dtype=np.int64)
    width = 0
    fresh_by_customer = np.zeros((n, reps), dtype=np.int64)
    steps = []
    rates = gammas[:, None] * cache.g11[:n]
    one_rates = rates[0].tolist() if reps == 1 else None
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
        if one_rates is None:
            fresh = rng.poisson(rates[:, i])
            if not fresh.any():
                continue
        else:
            fresh = rng.poisson(one_rates[i])
            if not fresh:
                continue
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

    K_n is a sum of independent Poisson(gamma g_{j-1}(1,1)) new-dish
    counts, j = 1..n, and the dish-taking draws cannot change it, so it is
    exactly Poisson(E[K_n]) (expected_features, which reads `cache` as
    simulate_ibp does): one draw per replicate.

    Returns:
        int array of shape (replicates,).
    """
    mean = expected_features(model, gamma, n, cache=cache)
    return np.random.default_rng(seed).poisson(mean, size=replicates)


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
        cache: optional primitives of the model at depth n = allocation.n
            (build_primitive_cache, or a chain state's cache), which supply
            alpha and the depth-n reads.  A cache whose alpha is not the
            model's is refused.

    Returns a float.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    n = allocation.n
    if n < 1:
        raise ValueError("allocation must contain at least one customer")
    cache = _primitives(model, n, cache)
    if cache.n != n:
        raise ValueError(f"cache was built for n = {cache.n}, need n = {n}")
    return _log_joint_counts(allocation.counts, gamma, cache)


class _SizeHistogram:
    """Dish counts S_{n,k} and gamma as log_joint reads them: K_n log gamma
    (base; -inf for dishes at gamma = 0) and the histogram of sizes.
    Dishes of one size add the same term, so the sum runs over the sizes
    that occur (sizes, ascending) times how many dishes have each
    (multiplicity, a float array, so the sum is a float dot product with
    no cast per call): permutation invariance is exact, and log
    g_{n-s}(s,1) is read at those sizes only."""

    __slots__ = ("gamma", "base", "sizes", "multiplicity")

    def __init__(self, counts, gamma):
        k_n = len(counts)
        self.gamma = gamma
        if k_n == 0:
            self.base = 0.0
        elif gamma == 0.0:
            self.base = -math.inf
        else:
            self.base = k_n * math.log(gamma)
        histogram = np.bincount(np.asarray(counts, dtype=np.int64))
        self.sizes = histogram.nonzero()[0]
        self.multiplicity = histogram[self.sizes].astype(float)

    def log_rising(self, alpha):
        # log (1 - alpha)_{s-1} at the sizes, exactly 0 at s = 1
        return special.gammaln((1.0 - alpha) + (self.sizes - 1)) - special.gammaln(1.0 - alpha)

    def log_joint(self, expected_blocks, log_terms):
        """The log joint from E[B_n] and each size's log (1 - alpha)_{s-1}
        + log g_{n-s}(s,1); -inf where base is."""
        if self.base == -math.inf:
            return -math.inf
        return (
            self.base - self.gamma * expected_blocks
            + float(self.multiplicity @ log_terms)
        )

    def score(self, primitives):
        """The log joint under depth-n primitives, which supply alpha and
        every g."""
        if self.base == -math.inf:
            return -math.inf
        log_terms = self.log_rising(primitives.alpha) + primitives.log_gs1_at(self.sizes)
        return self.log_joint(primitives.expected_blocks, log_terms)


def _log_joint_counts(counts, gamma, primitives):
    # log_joint from the dish counts alone, without argument checks
    return _SizeHistogram(counts, gamma).score(primitives)


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
    """E[K_n] = gamma sum_{j=1..n} g_{j-1}(1,1), read from `cache` (the
    model's primitives at depth >= n; a cache whose alpha is not the
    model's is refused) or from primitives built at depth n."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    cache = _primitives(model, n, cache)
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
            exp(-(beta+s)^alpha) ds = M(alpha, beta) / Gamma(alpha),

    with M evaluated by special_functions.tilted_stable_integral.
    DP dish counts grow logarithmically, so no such constant exists and the
    result is None.
    """
    if model.variant == "DP":
        return None
    alpha = model.stable_index
    if model.variant == "PY":
        theta = model.theta
        return math.exp(log_gamma_ratio(theta, alpha)) / alpha
    beta = model.beta
    if model.variant == "NIG":
        root = math.sqrt(beta)
        # k1e(x) = e^x K_1(x), stable for large beta
        return 2.0 / math.sqrt(math.pi) * root * float(special.k1e(root))
    # tilted_stable_integral is alpha M(alpha, beta)
    return tilted_stable_integral(alpha, beta) / math.gamma(alpha + 1.0)


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
