"""Gibbs-type random partitions: urn-scheme simulation and the exchangeable
partition probability function."""

import math

import numpy as np

from .gibbs_weights import build_weight_table
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

    def __init__(self, n=0, block_sizes=(), assignments=None):
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


def _step_tol(log_vn, log_same, log_new):
    # tolerance on the step sum from V_{n,b} to V_{n+1,b} and V_{n+1,b+1}
    return STEP_TOL + LOG_ROUNDING * np.max(np.abs([log_vn, log_same, log_new]), axis=0)


def urn_step(state, table, alpha, rng):
    """Advance the urn by one customer and return the new state.

    Customer n+1 joins existing block k with probability
    (V_{n+1,B_n}/V_{n,B_n}) (N_{n,k} - alpha) and opens a new block with
    probability V_{n+1,B_n+1}/V_{n,B_n}.  Every weight table satisfies
    the recursion (Monte Carlo tables are filled backward by it), so the
    step probabilities must sum to 1 within STEP_TOL (plus LOG_ROUNDING
    per unit of |log V|); they are divided by their sum before the draw.
    """
    n, b = state.n, state.block_count
    if n == 0:
        assignments = (1,) if state.assignments is not None else None
        return PartitionState(1, (1,), assignments)
    if table.n_max < n + 1:
        raise ValueError(f"weight table depth {table.n_max} cannot serve step to n = {n + 1}")
    log_vn = table.log_weight(n, b)
    log_same, log_new = table.log_weight(n + 1, b), table.log_weight(n + 1, b + 1)
    probs = np.empty(b + 1)
    probs[:b] = (np.asarray(state.block_sizes, dtype=float) - alpha) * math.exp(log_same - log_vn)
    probs[b] = math.exp(log_new - log_vn)
    total = probs.sum()
    if abs(total - 1.0) > _step_tol(log_vn, log_same, log_new):
        raise ValueError(
            f"urn step probabilities sum to 1{total - 1.0:+.3e} at n={n}, beyond tolerance"
        )
    choice = int(rng.choice(b + 1, p=probs / total))
    sizes = list(state.block_sizes)
    if choice == b:
        sizes.append(1)
    else:
        sizes[choice] += 1
    assignments = None
    if state.assignments is not None:
        assignments = state.assignments + (choice + 1,)
    return PartitionState(n + 1, sizes, assignments)


def sample_partition(model, n, seed, table=None):
    """Simulate a partition of [n] by iterating the urn from empty.

    Returns a PartitionState with per-customer assignments recorded.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if table is None:
        table = build_weight_table(model, n)
    rng = np.random.default_rng(seed)
    state = PartitionState(assignments=())
    for _ in range(n):
        state = urn_step(state, table, model.stable_index, rng)
    return state


def sample_block_counts(model, n, replicates, seed, table=None):
    """Block counts B_n of `replicates` independent urn runs.

    B_n is a Markov chain on its own: after m customers in b blocks the next
    customer opens a new block with probability V_{m+1,b+1}/V_{m,b},
    whatever the block sizes, so the replicates advance in lockstep as one
    vector of block counts.  The urn's step-sum check is then the recursion
    (m - alpha b) V_{m+1,b}/V_{m,b} + V_{m+1,b+1}/V_{m,b} = 1, checked once
    over the triangle with urn_step's tolerance; steps are renormalized as
    urn_step renormalizes them.
    """
    if n < 1 or replicates < 1:
        raise ValueError("n and replicates must be positive")
    if table is None:
        table = build_weight_table(model, n)
    if table.n_max < n:
        raise ValueError(f"weight table depth {table.n_max} cannot serve n = {n}")
    alpha = model.stable_index
    # zeros outside the triangle keep the unreachable steps (b > m) finite
    log_v = np.zeros((n + 1, n + 1))
    for row in range(1, n + 1):
        log_v[row, 1:row + 1] = table.log_row(row)
    # entry [m-1, b-1] holds the step from m customers in b blocks
    m, b = np.ogrid[1:n, 1:n]
    same = np.exp(log_v[2:, 1:n] - log_v[1:n, 1:n])
    new = np.exp(log_v[2:, 2:] - log_v[1:n, 1:n])
    total = np.where(b <= m, (m - alpha * b) * same + new, 1.0)
    excess = np.abs(total - 1.0) - _step_tol(log_v[1:n, 1:n], log_v[2:, 1:n], log_v[2:, 2:])
    if excess.size and excess.max() > 0.0:
        worst = int(np.argmax(excess.max(axis=1))) + 1
        raise ValueError(
            f"urn step probabilities off by {excess.max():.3e} beyond tolerance at n={worst}"
        )
    p_new = new / total
    rng = np.random.default_rng(seed)
    blocks = np.ones(int(replicates), dtype=np.int64)
    for step in p_new:
        blocks += rng.random(blocks.size) < step[blocks - 1]
    return blocks


def log_eppf(model, block_sizes, table=None):
    """log of the exchangeable partition probability at a composition.

    log f = log V_{n,k} + sum_l log (1-alpha)_{n_l - 1}, n = sum of sizes.
    """
    sizes = tuple(int(s) for s in block_sizes)
    if len(sizes) == 0 or any(s < 1 for s in sizes):
        raise ValueError(f"block sizes must be positive integers, got {block_sizes}")
    n, k = sum(sizes), len(sizes)
    if table is None:
        table = build_weight_table(model, n)
    alpha = model.stable_index
    log_f = table.log_weight(n, k)
    # summing in sorted order makes permutation invariance exact, not just
    # up to float reassociation
    for s in sorted(sizes):
        log_f += log_rising_factorial(1.0 - alpha, s - 1)
    return float(log_f)

