"""Gibbs-type random partitions: the urn scheme, whose steps one checked
generator computes for both samplers (a partition of [n], or block counts
only), and the exchangeable partition probability function.

All three read the weights through gibbs_weights.weight_rows, one row at a
time (the EPPF reads only row n, through weight_row): the rows of a given
table, or for DP and PY the closed-form rows in O(n) memory with no depth
limit, or for NGG/NIG the rows of a table built to depth n."""

import numpy as np

from .gibbs_weights import weight_row, weight_rows
from .special_functions import log_rising_factorial

STEP_TOL = 1e-10
# stored logs round to a few ulps, so a step may also miss 1 by this much per
# unit of its largest |log V| (NGG corners reach |log V| = 1e10 at beta = 1e10)
LOG_ROUNDING = 4.0 * np.finfo(float).eps


class PartitionState:
    """State of the urn scheme after n customers.

    block_sizes lists the occupancy N_{n,k} of each block in order of
    appearance; assignments optionally records each customer's block id
    (1-based, in appearance order).
    """

    def __init__(self, n, block_sizes, assignments=None):
        block_sizes = tuple(int(s) for s in block_sizes)
        if any(s < 1 for s in block_sizes):
            raise ValueError("every block must hold at least one customer")
        if sum(block_sizes) != n:
            raise ValueError(f"block sizes {block_sizes} do not sum to n = {n}")
        if assignments is not None:
            assignments = tuple(int(a) for a in assignments)
            if len(assignments) != n:
                raise ValueError("assignments must list one block per customer")
        self.n = int(n)
        self.block_sizes = block_sizes
        self.assignments = assignments

    @property
    def block_count(self):
        return len(self.block_sizes)

    def __repr__(self):
        return f"PartitionState(n={self.n}, block_sizes={self.block_sizes})"


def _urn_steps(rows, alpha):
    """The urn's steps along the weight rows m = 1..n of weight_rows, one
    step from each row m = 1..n-1 and the next.

    From m customers in b blocks, customer m+1 joins a block of size N with
    probability (N - alpha) V_{m+1,b}/V_{m,b} and opens a new block with
    probability V_{m+1,b+1}/V_{m,b}.  Row m yields (same, new) over b = 1..m:
    those two ratios, each divided by the step sum (m - alpha b) same + new.
    Weight rows satisfy the recursion (Monte Carlo tables are filled
    backward by it), so each sum must be 1 within STEP_TOL, plus
    LOG_ROUNDING per unit of the largest |log V| among its three weights;
    the first row that misses raises ValueError.
    """
    log_v = next(rows)
    for m, log_next in enumerate(rows, start=1):
        log_same, log_new = log_next[:m], log_next[1:]
        same, new = np.exp(log_same - log_v), np.exp(log_new - log_v)
        total = (m - alpha * np.arange(1, m + 1)) * same + new
        tol = STEP_TOL + LOG_ROUNDING * np.max(np.abs([log_v, log_same, log_new]), axis=0)
        excess = np.abs(total - 1.0) - tol
        if excess.max() > 0.0:
            b = int(np.argmax(excess))
            raise ValueError(
                f"urn step probabilities sum to 1{total[b] - 1.0:+.3e} at n={m}, "
                f"b={b + 1}, beyond tolerance"
            )
        yield same / total, new / total
        log_v = log_next


def sample_partition(model, n, seed, table=None):
    """Simulate a partition of [n] by iterating the urn from empty: each
    customer draws from its step in a row of _urn_steps, renormalized.
    Returns a PartitionState with per-customer assignments recorded."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    alpha = model.stable_index
    rng = np.random.default_rng(seed)
    sizes, assignments = [1], [1]
    for same, new in _urn_steps(weight_rows(model, n, table), alpha):
        b = len(sizes)
        probs = np.append((np.array(sizes, dtype=float) - alpha) * same[b - 1], new[b - 1])
        choice = int(rng.choice(b + 1, p=probs / probs.sum()))
        if choice == b:
            sizes.append(0)
        sizes[choice] += 1
        assignments.append(choice + 1)
    return PartitionState(n, sizes, assignments)


def sample_block_counts(model, n, replicates, seed, table=None):
    """Block counts B_n of `replicates` independent urn runs.

    B_n is a Markov chain on its own (a new block opens with probability
    V_{m+1,b+1}/V_{m,b} whatever the block sizes), so the replicates advance
    in lockstep as one vector, one row of _urn_steps at a time.
    """
    if n < 1 or replicates < 1:
        raise ValueError("n and replicates must be positive")
    rng = np.random.default_rng(seed)
    blocks = np.ones(int(replicates), dtype=np.int64)
    for _, new in _urn_steps(weight_rows(model, n, table), model.stable_index):
        blocks += rng.random(blocks.size) < new[blocks - 1]
    return blocks


def log_eppf(model, block_sizes, table=None):
    """log of the exchangeable partition probability at a composition.

    log f = log V_{n,k} + sum_l log (1-alpha)_{n_l - 1}, n = sum of sizes.
    """
    sizes = tuple(int(s) for s in block_sizes)
    if len(sizes) == 0 or any(s < 1 for s in sizes):
        raise ValueError(f"block sizes must be positive integers, got {block_sizes}")
    n, k = sum(sizes), len(sizes)
    alpha = model.stable_index
    log_f = weight_row(model, n, table)[k - 1]
    # summing in sorted order makes permutation invariance exact, not just
    # up to float reassociation
    for s in sorted(sizes):
        log_f += log_rising_factorial(1.0 - alpha, s - 1)
    return float(log_f)

