"""Stick-breaking and Poisson-superposition views of the feature process.

Round i contributes Poisson(gamma) atoms whose weights are independent
copies of the i-th stick P_i = W_i prod_{j<i}(1-W_j); customers then keep
each atom by an independent uniform comparison.  DP sticks use iid
beta(1, theta) fractions, PY independent beta(1-alpha, theta + j alpha)
ones.  The module also evaluates structural densities (all variants) and
the per-round Poisson intensities (DP/PY).
"""

import itertools
import math

import numpy as np
from scipy import special

from .gibbs_weights import _run_units
from .ibp import FeatureAllocation
from .special_functions import tilted_stable_integral

DEFAULT_RESIDUAL_MASS = 1e-3


def _stick_beta_params(model, j):
    # fraction W_j of the j-th break
    if model.variant == "DP":
        return 1.0, model.theta
    if model.variant == "PY":
        alpha = model.alpha
        return 1.0 - alpha, model.theta + j * alpha
    raise ValueError(
        f"{model.variant} has no independent stick representation; "
        "use the sequential sampler"
    )


def sample_sticks(model, count, rng, size=None):
    """Stick weights P_1..P_count, one independent path per row.

    Args:
        model: DP or PY GibbsModel.
        count: number of sticks per path, >= 1.
        rng: numpy Generator.
        size: optional number of independent paths.

    Returns:
        array of shape (count,) or (size, count).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rows = 1 if size is None else int(size)
    fractions = np.empty((rows, count))
    for j in range(1, count + 1):
        a, b = _stick_beta_params(model, j)
        fractions[:, j - 1] = rng.beta(a, b, size=rows)
    remaining = np.cumprod(1.0 - fractions, axis=1)
    sticks = fractions.copy()
    sticks[:, 1:] *= remaining[:, :-1]
    return sticks[0] if size is None else sticks


def _stick_means(model):
    # E[P_1], E[P_2], ...; the fractions are independent so the means multiply
    total = 1.0
    for j in itertools.count(1):
        a, b = _stick_beta_params(model, j)
        mean = a / (a + b)
        yield total * mean
        total *= 1.0 - mean


def expected_stick_mass(model, i):
    """E[P_i]."""
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    return next(itertools.islice(_stick_means(model), i - 1, None))


def suggest_rounds(model, tol=DEFAULT_RESIDUAL_MASS, max_rounds=100_000):
    """Smallest round count I with E[P_I] < tol."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    for j, mass in enumerate(itertools.islice(_stick_means(model), max_rounds), 1):
        if mass < tol:
            return j
    raise ValueError(f"expected stick mass stays >= {tol} through {max_rounds} rounds")


class TruncatedProcess:
    """Atoms of a stick-breaking construction truncated after `rounds` rounds.

    Labels are uniforms on [0, 1] standing in for a non-atomic base measure;
    only the weights matter downstream.
    """

    def __init__(self, labels, weights, rounds, gamma):
        labels = np.asarray(labels, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if labels.shape != weights.shape or labels.ndim != 1:
            raise ValueError("labels and weights must be equal-length vectors")
        if weights.size and (weights.min() <= 0.0 or weights.max() > 1.0):
            raise ValueError("atom weights must lie in (0, 1]")
        labels.flags.writeable = False
        weights.flags.writeable = False
        self.labels = labels
        self.weights = weights
        self.rounds = int(rounds)
        self.gamma = float(gamma)

    @property
    def atoms(self):
        return list(zip(self.labels.tolist(), self.weights.tolist()))


def construct_truncated(model, gamma, rounds, rng):
    """Draw the first `rounds` rounds of the stick construction.

    Round i holds Poisson(gamma) atoms, each with a fresh stick path
    truncated at its own P_i.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    labels, weights = [], []
    for i in range(1, rounds + 1):
        count = int(rng.poisson(gamma))
        if count == 0:
            continue
        paths = sample_sticks(model, i, rng, size=count)
        weights.append(paths[:, i - 1])
        labels.append(rng.random(count))
    labels = np.concatenate(labels) if labels else np.empty(0)
    weights = np.concatenate(weights) if weights else np.empty(0)
    return TruncatedProcess(labels, weights, rounds, gamma)


def draw_bernoulli(process, n, rng):
    """Thin the atoms by n customers of independent uniform comparisons.

    Returns:
        FeatureAllocation over the dishes taken at least once, columns in
        order of first appearance.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if process.weights.size == 0:
        return FeatureAllocation(np.zeros((n, 0), dtype=np.uint8), process.gamma)
    matrix = (rng.random((n, process.weights.size)) < process.weights).astype(np.uint8)
    matrix = matrix[:, matrix.any(axis=0)]
    return FeatureAllocation.from_matrix(matrix, process.gamma)


def sample_truncated_feature_counts(model, gamma, n, rounds, replicates, seed):
    """Dish totals K_n from `replicates` truncated constructions.

    An atom with weight p survives n customers with probability
    1 - (1-p)^n independently of everything else, so K_n needs only the
    per-atom weights; those are drawn in lockstep across replicates.  The
    seed's stream draws every round's Poisson atom counts; round i draws its
    sticks and comparisons from its own child stream, rng.spawn(rounds)[i-1].
    The rounds run longest first on every usable core (_run_units; numpy's
    beta draws release the GIL), and each thread adds its rounds' dish
    counts into its own integer totals, so the result does not depend on
    the core count.

    Returns:
        int array of shape (replicates,).
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(gamma, size=(replicates, rounds))
    streams = rng.spawn(rounds)
    owners = np.arange(replicates)
    totals = []

    def start_worker():
        total = np.zeros(replicates, dtype=np.int64)
        totals.append(total)

        def run_round(unit):
            i = rounds - unit  # longest first: round i draws paths of i sticks
            round_counts, round_rng = counts[:, i - 1], streams[i - 1]
            atoms = int(round_counts.sum())
            if atoms == 0:
                return
            paths = sample_sticks(model, i, round_rng, size=atoms)
            appear = -np.expm1(n * np.log1p(-paths[:, i - 1]))
            kept = round_rng.random(atoms) < appear
            kept_owners = np.repeat(owners, round_counts)[kept]
            np.add(total, np.bincount(kept_owners, minlength=replicates), out=total)

        return run_round

    _run_units(rounds, start_worker)
    return np.sum(totals, axis=0)


def structural_density(model, p):
    """Density of the limiting frequency of the first dish, at p.

    DP/PY evaluate the beta(1-alpha, theta+alpha) density.  NGG/NIG's
    [alpha/Gamma(1-alpha)] p^{-alpha} int t^{-alpha} e^{beta^alpha - beta t}
    f_alpha(t(1-p)) dt is, with s = beta/(1-p), alpha p^{-alpha}
    (1-p)^{alpha-1} e^{beta^alpha - s^alpha} M(alpha, s) / (Gamma(1-alpha)
    Gamma(alpha)): the integral M of powerlaw_constant, at s for beta
    (special_functions.tilted_stable_integral).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    alpha = model.stable_index
    if model.variant in ("DP", "PY"):
        theta = model.theta
        log_norm = (
            special.gammaln(theta + 1.0)
            - special.gammaln(1.0 - alpha)
            - special.gammaln(theta + alpha)
        )
        return float(
            np.exp(log_norm + (-alpha) * math.log(p) + (theta + alpha - 1.0) * math.log1p(-p))
        )
    beta = model.beta
    s = beta / (1.0 - p)
    # Gamma(1-alpha) Gamma(alpha) = pi / sin(pi alpha)
    return (
        math.sin(math.pi * alpha) / math.pi
        * p ** -alpha * (1.0 - p) ** (alpha - 1.0)
        * math.exp(beta ** alpha - s ** alpha)
        * tilted_stable_integral(alpha, s)
    )


def superposition_intensity(model, depth, p):
    """Per-round Poisson intensity (per unit base-measure mass) at depth n.

    [Gamma(1+theta)/(Gamma(1-alpha) Gamma(theta+alpha))]
    p^{-alpha} (1-p)^{theta+alpha+n-1}; round n of the superposition view
    sees the atoms no earlier customer took.  DP/PY only.
    """
    if model.variant not in ("DP", "PY"):
        raise ValueError(f"superposition intensities cover DP/PY, not {model.variant}")
    depth = np.asarray(depth)
    if np.any(depth < 0):
        raise ValueError("depth must be >= 0")
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("p must lie in (0, 1)")
    alpha = model.stable_index
    theta = model.theta
    log_norm = (
        special.gammaln(theta + 1.0)
        - special.gammaln(1.0 - alpha)
        - special.gammaln(theta + alpha)
    )
    value = np.exp(
        log_norm - alpha * np.log(p) + (theta + alpha + depth - 1.0) * np.log1p(-p)
    )
    return float(value) if value.ndim == 0 else value

