"""Gibbs-type weight tables, black-box primitives, block-count
distributions, and hyperparameter calibration.

Every subclass is driven by the triangular weights V_{n,k} (V_{1,1} = 1,
forward recursion V_{n,k} = (n - alpha k) V_{n+1,k} + V_{n+1,k+1}) and the
primitives g_n(z1, z2) = sum_k V_{n+z1,k+z2} alpha^{-k} C(n,k;alpha).
"""

import hashlib
import json
import math
import os
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import special

# scipy.optimize (_calibrate) and mpmath (ngg_weights_smalln) are imported
# inside their one caller, so importing the package does not load them

from .special_functions import (
    TableSizeError,
    build_gfc_table,
    check_table_depth,
    gfc_rows,
    log_rising_factorial,
)
from .stable_sampling import TiltedStableSpec, sample_tilted_stable

VARIANTS = ("DP", "PY", "NGG", "NIG")
SMALLN_MAX = 12
MIN_MC_SAMPLES = 10_000
TABLE_FORMAT_VERSION = 1
BLOCK_LAW_TOL = 1e-8
ALPHA_TOL = 1e-12  # largest gap between two alphas taken as one discount
# calibrate refuses an NGG/NIG root whose block law has a mean relative
# standard error sum_k P(B_n = k) rel_se_{n,k} this large
CALIBRATE_MC_ERROR_MAX = 0.5
MAX_FROZEN_DRAWS = 2 ** 27  # doubles an NggWeightSampler holds: 1 GiB
# a Monte Carlo row's segments (_Segments): sorted draws per segment, the
# highest power each keeps and the largest beta x half-width read by powers;
# their remainder bound e^{2 tau} tau^{M+1} / (M+1)! is 6.1e-17 < 2^-53
SEGMENT = 1000
SEGMENT_POWERS = 18
SEGMENT_REACH = 1.0


class McDegeneracyError(RuntimeError):
    """Monte Carlo weight estimation produced unusable (underflowed) values."""


class NormalizationError(RuntimeError):
    """A probability vector failed its normalization tolerance."""


@dataclass(frozen=True)
class McConfig:
    """Sample count and seed for Monte Carlo weight estimation."""

    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")


@dataclass(frozen=True)
class GibbsModel:
    """One subclass of the Gibbs-type family with its parameters.

    Variants: DP(theta > 0); PY(alpha in (0,1), theta > -alpha);
    NGG(alpha in (0,1), beta > 0); NIG(beta > 0), which behaves identically
    to NGG(1/2, beta) in every operation. mc_config only matters for the
    Monte Carlo variants; a chain (inference.initial_state) replaces it with
    McConfig(config.mc_samples, config.seed).
    """

    variant: str
    theta: float = None
    alpha: float = None
    beta: float = None
    mc_config: McConfig = field(default_factory=McConfig)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("theta", "alpha", "beta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.variant == "DP":
            if self.theta is None or self.theta <= 0:
                raise ValueError(f"DP requires theta > 0, got {self.theta}")
        elif self.variant == "PY":
            if self.alpha is None or not 0 < self.alpha < 1:
                raise ValueError(f"PY requires alpha in (0, 1), got {self.alpha}")
            if self.theta is None or self.theta <= -self.alpha:
                raise ValueError(f"PY requires theta > -alpha, got theta={self.theta}")
        elif self.variant == "NGG":
            if self.alpha is None or not 0 < self.alpha < 1:
                raise ValueError(f"NGG requires alpha in (0, 1), got {self.alpha}")
            if self.beta is None or self.beta <= 0:
                raise ValueError(f"NGG requires beta > 0, got {self.beta}")
        elif self.variant == "NIG":
            if self.beta is None or self.beta <= 0:
                raise ValueError(f"NIG requires beta > 0, got {self.beta}")
            if self.alpha not in (None, 0.5):
                raise ValueError("NIG fixes alpha = 1/2")

    @classmethod
    def dp(cls, theta):
        return cls(variant="DP", theta=theta)

    @classmethod
    def py(cls, alpha, theta):
        return cls(variant="PY", alpha=alpha, theta=theta)

    @classmethod
    def ngg(cls, alpha, beta, mc_config=McConfig()):
        return cls(variant="NGG", alpha=alpha, beta=beta, mc_config=mc_config)

    @classmethod
    def nig(cls, beta, mc_config=McConfig()):
        return cls(variant="NIG", beta=beta, mc_config=mc_config)

    @property
    def stable_index(self):
        """The discount alpha driving power-law behavior (0 for DP, 1/2 for NIG)."""
        if self.variant == "DP":
            return 0.0
        if self.variant == "NIG":
            return 0.5
        return self.alpha

    @property
    def is_closed_form(self):
        return self.variant in ("DP", "PY")

    @property
    def second_coordinate(self):
        """log(theta + alpha) for DP/PY, log beta for NGG/NIG: the line the
        second slice move and calibrate search, with no domain boundary."""
        if self.is_closed_form:
            return math.log(self.theta + self.stable_index)
        return math.log(self.beta)

    def second_at(self, x):
        """The second parameter at second coordinate x: theta = e^x - alpha
        for DP/PY, beta = e^x for NGG/NIG; inf where e^x overflows."""
        try:
            scale = math.exp(x)
        except OverflowError:
            return math.inf
        return scale - self.stable_index if self.is_closed_form else scale

    def with_second_coordinate(self, x):
        """This model with its second coordinate at x."""
        if self.is_closed_form:
            return replace(self, theta=self.second_at(x))
        return replace(self, beta=self.second_at(x))

    def describe(self):
        if self.variant == "DP":
            return f"DP(theta={self.theta:g})"
        if self.variant == "PY":
            return f"PY(alpha={self.alpha:g}, theta={self.theta:g})"
        if self.variant == "NGG":
            return f"NGG(alpha={self.alpha:g}, beta={self.beta:g})"
        return f"NIG(beta={self.beta:g})"

    def to_payload(self):
        """The model's one identity, mc_config included for NGG/NIG: run
        manifests, table cache paths and content hashes key on it."""
        payload = {"variant": self.variant}
        if self.theta is not None:
            payload["theta"] = float(self.theta)
        if self.variant in ("PY", "NGG"):
            payload["alpha"] = float(self.alpha)
        if self.beta is not None:
            payload["beta"] = float(self.beta)
        if not self.is_closed_form:
            payload["mc_samples"] = int(self.mc_config.samples)
            payload["mc_seed"] = int(self.mc_config.seed)
        return payload

    @classmethod
    def from_payload(cls, payload):
        mc = McConfig(
            samples=int(payload.get("mc_samples", McConfig().samples)),
            seed=int(payload.get("mc_seed", McConfig().seed)),
        )
        return cls(
            variant=payload["variant"],
            theta=payload.get("theta"),
            alpha=payload.get("alpha"),
            beta=payload.get("beta"),
            mc_config=mc,
        )


@dataclass(frozen=True)
class Provenance:
    """How a weight table was produced."""

    kind: str  # "closed-form" | "small-n-series" | "monte-carlo"
    samples: int = None
    seed: int = None

    def to_payload(self):
        payload = {"kind": self.kind}
        if self.kind == "monte-carlo":
            payload["samples"] = int(self.samples)
            payload["seed"] = int(self.seed)
        return payload


class WeightTable:
    """Triangular array of log Gibbs weights V_{n,k}, 1 <= k <= n <= n_max.

    Monte Carlo tables carry per-entry relative standard errors; closed-form
    and series tables have rel_se None. Immutable after construction.
    """

    def __init__(self, n_max, alpha, log_entries, provenance, rel_se=None):
        self.n_max = int(n_max)
        self.alpha = float(alpha)
        log_entries.flags.writeable = False
        self._log = log_entries
        self.provenance = provenance
        if rel_se is not None:
            rel_se.flags.writeable = False
        self._rel_se = rel_se

    def log_weight(self, n, k):
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must lie in [1, {self.n_max}], got {n}")
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {k}")
        return float(self._log[n, k])

    def weight(self, n, k):
        return math.exp(self.log_weight(n, k))

    def log_row(self, n):
        """log V_{n,k} for k = 1..n."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must lie in [1, {self.n_max}], got {n}")
        return self._log[n, 1:n + 1]

    def rel_se_row(self, n):
        """Relative standard errors for row n; None for exact tables."""
        if self._rel_se is None:
            return None
        return self._rel_se[n, 1:n + 1]


def _closed_form_log_numerators(variant, alpha, theta, n_max):
    # PY: V_{n,k} = prod_{l=1}^{k-1}(theta + l alpha) / (theta+1)_{n-1};
    # DP is the alpha -> 0 limit with numerator theta^{k-1}.  Returns the
    # log numerators for k = 1..n_max; the running sum makes those for
    # k <= n the same bits at any n_max >= n
    if variant == "DP":
        return np.arange(n_max) * math.log(theta)
    steps = np.log(theta + alpha * np.arange(1, n_max))
    return np.concatenate(([0.0], np.cumsum(steps)))


def _usable_cores():
    # cores this process may run on
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _run_units(units, start_worker):
    """Run units 0..units-1 on min(_usable_cores(), units) threads, the
    caller among them; numpy's loops release the GIL, so they overlap.

    start_worker() is called once on each thread and returns the function
    that thread applies to every unit it takes.  Units are handed out one
    at a time from a lock-guarded counter, so a thread on a slow core takes
    fewer.  A one-unit call runs inline.  The first exception raised on any
    thread stops the hand-out and reaches the caller unchanged once every
    thread has finished: no thread outlives the call.
    """
    lock = threading.Lock()
    taken = 0
    errors = []

    def drain():
        nonlocal taken
        try:
            work = start_worker()
            while True:
                with lock:
                    if errors or taken == units:
                        return
                    unit = taken
                    taken += 1
                work(unit)
        except BaseException as exc:  # re-raised in the caller below
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=drain)
        for _ in range(min(_usable_cores(), units) - 1)
    ]
    for thread in threads:
        thread.start()
    drain()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _fill_shifted_ratio_rows(alpha, n, samples, rng, fill):
    """Call fill(k, R - min R, min R) for k = 1..n with the draws of R = X/Y
    behind V_{n,k}: X is tilted stable (tilt k alpha) and Y ~ Beta(k alpha,
    n - k alpha), so no draw involves beta.

    Row k draws from its own child stream, rng.spawn(n)[k - 1], so every
    row depends on the seed alone, whatever the number of usable cores
    (`taskset` limits them).  The rows run on every usable core through
    _run_units, and fill runs on the thread that drew the row.  An
    exception raised on any thread reaches the caller unchanged.
    """
    streams = rng.spawn(n)

    def fill_row(unit):
        k = unit + 1
        row_rng = streams[unit]
        spec = TiltedStableSpec(alpha=alpha, tilt=k * alpha)
        # numpy keeps errstate per thread and a new thread starts from the
        # default, so it is set here.  Overflow: a ratio past the largest
        # double is inf, and its term exp(-beta inf) = 0 is the exact limit.
        # Invalid: a row of only inf ratios shifts to nan, which the moment
        # read refuses with McDegeneracyError.
        with np.errstate(over="ignore", invalid="ignore"):
            # X is drawn before Y
            ratios = sample_tilted_stable(spec, row_rng, size=samples) / np.maximum(
                row_rng.beta(k * alpha, n - k * alpha, size=samples), 1e-300
            )
            ratio_min = ratios.min()
            ratios -= ratio_min
        fill(k, ratios, ratio_min)

    _run_units(n, lambda: fill_row)


def _log_prefactor(alpha, n):
    # log[alpha^{k-1} Gamma(k) / Gamma(n)] for k = 1..n
    k = np.arange(1, n + 1)
    return (k - 1) * math.log(alpha) + special.gammaln(k) - special.gammaln(n)


class _Segments:
    """Rows of draws S = R - min R in a beta-free form that sums exp(-beta S)
    per row at any beta (exp_sums): the one read of a Monte Carlo row.

    set_row sorts a row and cuts it into segments of SEGMENT consecutive
    draws, the last padded with inf.  Each segment keeps its draws, its
    centre c and half-width h over its draws that are not +inf, and the
    power sums sum_s u^m / m! of u = (s - c) / h in [-1, 1] for m = 0..M
    (M = SEGMENT_POWERS; u = 0 where h = 0), which cannot overflow.  An inf
    draw (an overflowed ratio) adds exp(-beta inf) = 0 and is left out of
    them; a nan row (one of only inf ratios) gives nan sums.
    """

    @staticmethod
    def footprint(rows, samples):
        """Doubles held for `rows` rows of `samples` draws."""
        return rows * -(-samples // SEGMENT) * (SEGMENT + SEGMENT_POWERS + 3)

    def __init__(self, rows, samples):
        self.samples = samples
        segments = -(-samples // SEGMENT)
        self.draws = np.full((rows, segments, SEGMENT), np.inf)
        self.centre = np.empty((rows, segments))
        self.half = np.empty((rows, segments))
        self.powers = np.empty((SEGMENT_POWERS + 1, rows, segments))

    def set_row(self, i, shifted):
        """Build row i from its draws shifted (R - min R, any order)."""
        samples = self.samples
        draws = self.draws[i]
        flat = draws.reshape(-1)
        flat[:samples] = shifted
        flat[:samples].sort()  # inf after every finite draw, nan last
        if np.isnan(flat[samples - 1]):
            self.centre[i] = self.half[i] = self.powers[:, i] = np.nan
            return
        finite = int(np.searchsorted(flat, np.inf))
        count = np.clip(finite - SEGMENT * np.arange(len(draws)), 0, SEGMENT)
        occupied = count > 0
        low = np.where(occupied, draws[:, 0], 0.0)
        high = np.where(occupied, draws[np.arange(len(draws)), count - 1], 0.0)
        half = 0.5 * (high - low)
        centre = self.centre[i] = low + half
        self.half[i] = half
        u = draws - centre[:, None]
        u /= np.where(half > 0.0, half, 1.0)[:, None]
        u.reshape(-1)[finite:] = 0.0
        powers = self.powers[:, i]
        powers[0] = count
        powers[1] = u.sum(axis=1)
        term = u * u
        for m in range(2, SEGMENT_POWERS + 1):
            powers[m] = term.sum(axis=1) / math.factorial(m)
            term *= u

    def exp_sums(self, beta):
        """sum exp(-beta s) over each row's draws s.

        A segment with t = beta h <= tau (SEGMENT_REACH) is read as
        exp(-beta c) sum_{m<=M} (-t)^m sum_s u^m / m!, by Horner's rule.
        Each term exp(-t u) misses its Taylor tail, at most e^tau
        tau^{M+1} / (M+1)!, and is at least e^-tau, so the segment's sum
        is off by at most e^{2 tau} tau^{M+1} / (M+1)! of itself: 6.1e-17
        at tau 1 and M 18, under the 2^-53 rounding of a double.  Every
        other segment sums its exps directly.
        Each segment's sum, and each row's sum of its segments, does not
        depend on the other rows, so a row held alone and one held with
        others give the same bits.  The row minimum's term is exactly 1,
        so no finite sum is below 1.
        """
        # beta h, beta c or beta s past the largest double is inf, whose term
        # exp(-inf) = 0 is the exact limit
        with np.errstate(over="ignore"):
            t = beta * self.half
            narrow = t <= SEGMENT_REACH  # false for nan
            # Horner over every segment, at t clipped to tau so that no
            # wide segment overflows; a wide one's value is replaced below
            x = -np.minimum(t, SEGMENT_REACH)
            poly = self.powers[-1] * x
            for coefficient in self.powers[-2:0:-1]:
                poly += coefficient
                poly *= x
            poly += self.powers[0]
            sums = np.exp(-beta * self.centre)
            sums *= poly
            # every term of a segment whose least draw has beta s >= 746
            # is exp(-beta s) = 0, so only the others are summed
            low = self.draws[..., 0]
            dead = beta * low >= 746.0
            sums[~narrow] = 0.0
            wide = np.flatnonzero(~(narrow | dead))
            draws, flat = self.draws.reshape(-1, SEGMENT), sums.reshape(-1)
            # about 2^14 terms (128 KiB) at a time, which malloc serves from
            # memory it holds, with no fresh pages to fault in
            step = max(1, 2 ** 14 // SEGMENT)
            for first in range(0, wide.size, step):
                chunk = wide[first:first + step]
                terms = draws[chunk]
                np.multiply(terms, -beta, out=terms)
                flat[chunk] = np.exp(terms, out=terms).sum(axis=1)
        return sums.sum(axis=-1)


def _log_first_moment(segments, ratio_min, alpha, beta):
    """log of the mean of exp(beta^alpha - beta R) per row of draws held as
    _Segments of R - min R beside their minima.  The largest log term of
    a row is beta^alpha - beta min R, known in closed form, and is added
    back after the sum.  A row that is not finite (a row of only inf
    ratios shifts to nan) raises McDegeneracyError.
    """
    top = beta ** alpha - beta * ratio_min
    log_m1 = top + np.log(segments.exp_sums(beta)) - math.log(segments.samples)
    if not np.all(np.isfinite(log_m1)):
        raise McDegeneracyError(
            f"Monte Carlo weight estimate underflowed at alpha={alpha}, beta={beta}"
        )
    return log_m1


def _relative_se(segments, ratio_min, alpha, beta, log_m1):
    """Relative standard error of each row's first moment, log_m1 of
    _log_first_moment on the same draws: the second moment is the sum at
    2 beta."""
    samples = segments.samples
    top = beta ** alpha - beta * ratio_min
    log_m2 = 2.0 * top + np.log(segments.exp_sums(2.0 * beta)) - math.log(samples)
    # var = m2 - m1^2 in log space; Jensen guarantees log_m2 >= 2 log_m1
    gap = log_m2 - 2.0 * log_m1
    rel = np.zeros_like(gap)
    mask = gap > 1e-15
    log_var = log_m2[mask] + np.log1p(-np.exp(-gap[mask]))
    rel[mask] = np.exp(0.5 * log_var - log_m1[mask] - 0.5 * math.log(samples))
    return rel


def _shifted_moments(segments, ratio_min, alpha, beta):
    """(log first moment, relative standard error) per row of _Segments
    beside their minima: _log_first_moment, then _relative_se, as
    ngg_last_row_mc takes them on each row.  A beta trial on frozen draws
    takes the first alone (NggWeightSampler.row_primitives)."""
    log_m1 = _log_first_moment(segments, ratio_min, alpha, beta)
    return log_m1, _relative_se(segments, ratio_min, alpha, beta, log_m1)


def ngg_last_row_mc(alpha, beta, n, samples, rng):
    """Monte Carlo estimates of the log weights in row n for the NGG subclass.

    Uses V_{n,k} = [alpha^{k-1} Gamma(k) / Gamma(n)] E[exp(beta^alpha - beta X/Y)]
    with X polynomially tilted stable (tilt k alpha) and Y ~ Beta(k alpha,
    n - k alpha), for every 1 <= k <= n.  The rows run on every usable
    core (`taskset` limits them), and each thread draws one row k at a
    time, builds its _Segments, reads both moments from them and drops
    them, so memory holds a few rows of `samples` doubles per usable core
    whatever n is; the read is the one NggWeightSampler applies to its
    frozen draws, and for the same seed both give the same row, whatever
    the number of cores.

    Args:
        alpha: stability index in (0, 1).
        beta: exponential tilt parameter, positive.
        n: row index (>= 1).
        samples: Monte Carlo draws per entry, at least 10^4.
        rng: numpy Generator; row k draws from rng.spawn(n)[k - 1].

    Returns:
        (log_row, rel_se): arrays of length n holding log V-hat_{n,k} and the
        relative standard error of each estimate.

    Raises:
        McDegeneracyError: if an estimate underflowed to zero.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    samples = int(samples)
    log_m1, rel_se = np.empty(n), np.empty(n)

    def reduce_row(k, shifted, ratio_min):
        segments = _Segments(1, samples)
        segments.set_row(0, shifted)
        log_m1[k - 1:k], rel_se[k - 1:k] = _shifted_moments(
            segments, ratio_min, alpha, beta
        )

    _fill_shifted_ratio_rows(alpha, n, samples, rng, reduce_row)
    return _log_prefactor(alpha, n) + log_m1, rel_se


def _mc_weight_table(alpha, last_log_row, last_rel_se, provenance):
    """Weight triangle from a Monte Carlo estimate of its last row.

    V_{n,k} = (n - alpha k) V_{n+1,k} + V_{n+1,k+1} fills the rows above;
    the summands are positive, so the relative error of each filled entry
    is a convex combination of the two source errors and never grows going
    backward.  The triangle is then rescaled by the estimate of V_{1,1} so
    that V_{1,1} = 1 holds exactly; the rescaling preserves the recursion
    and its uncertainty is folded into the declared relative errors.
    The fill starts from the last row less its largest log (free, given
    the rescaling): at large beta the raw row sits near beta^alpha - beta
    min R, and log sums of that size would round every entry by ~1e-6.
    """
    n_max = len(last_log_row)
    table = np.full((n_max + 1, n_max + 1), -np.inf)
    rel = np.zeros((n_max + 1, n_max + 1))
    table[n_max, 1:n_max + 1] = last_log_row - np.max(last_log_row)
    rel[n_max, 1:n_max + 1] = last_rel_se
    for n in range(n_max - 1, 0, -1):
        k = np.arange(1, n + 1)
        w1 = np.log(n - alpha * k) + table[n + 1, 1:n + 1]
        w2 = table[n + 1, 2:n + 2]
        combined = np.logaddexp(w1, w2)
        table[n, 1:n + 1] = combined
        share1 = np.exp(w1 - combined)
        rel[n, 1:n + 1] = share1 * rel[n + 1, 1:n + 1] + (1.0 - share1) * rel[n + 1, 2:n + 2]
    # -inf entries outside the triangle stay -inf; rel is read only inside it
    table -= table[1, 1]
    rel += rel[1, 1]
    rel[1, 1] = 0.0
    return WeightTable(n_max, alpha, table, provenance, rel_se=rel)


def build_weight_table(model, n_max):
    """Construct the weight triangle for a model up to depth n_max.

    DP and PY stack the closed-form rows of weight_rows. The
    Monte Carlo variants estimate the final row with ngg_last_row_mc and
    fill the rest by the (exact) backward recursion, normalized so that
    V_{1,1} = 1 (see _mc_weight_table).

    Args:
        model: GibbsModel.
        n_max: table depth, a positive integer at most MAX_TABLE_DEPTH.

    Returns:
        WeightTable with provenance recorded.
    """
    if n_max < 1 or n_max != int(n_max):
        raise ValueError(f"n_max must be a positive integer, got {n_max}")
    check_table_depth(n_max)
    n_max = int(n_max)
    if model.is_closed_form:
        log_entries = np.full((n_max + 1, n_max + 1), -np.inf)
        for m, row in enumerate(weight_rows(model, n_max), start=1):
            log_entries[m, 1:m + 1] = row
        return WeightTable(
            n_max, model.stable_index, log_entries, Provenance("closed-form")
        )
    alpha, beta = model.stable_index, model.beta
    mc = model.mc_config
    rng = np.random.default_rng(mc.seed)
    last_log, last_rel = ngg_last_row_mc(alpha, beta, n_max, mc.samples, rng)
    return _mc_weight_table(
        alpha, last_log, last_rel, Provenance("monte-carlo", mc.samples, mc.seed)
    )


def _positive_int(n):
    if n < 1 or n != int(n):
        raise ValueError(f"n must be a positive integer, got {n}")
    return int(n)


def _row_reader(model, n, table):
    # weight_rows' checked arguments: (n, read) where read(m) is row m <= n
    n = _positive_int(n)
    if table is None and model.is_closed_form:
        theta = model.theta
        log_num = _closed_form_log_numerators(model.variant, model.stable_index, theta, n)
        return n, lambda m: log_num[:m] - log_rising_factorial(theta + 1.0, m - 1)
    if table is None:
        table = build_weight_table(model, n)
    elif table.n_max < n:
        raise ValueError(f"weight table depth {table.n_max} cannot serve n = {n}")
    return n, table.log_row


def weight_rows(model, n, table=None):
    """Rows m = 1..n of log V_{m,k}, k = 1..m, one at a time: the twin of
    gfc_rows, and the one reader of weights for the urn, the EPPF and the
    block law.  They are the rows of `table` when one is given, which must
    reach depth n.  Otherwise DP and PY hold one array of closed-form log
    numerators and subtract log (theta+1)_{m-1} per row: O(n) memory, each
    row the bits of row m of build_weight_table, and no depth limit.
    NGG/NIG read the rows of build_weight_table(model, n).  The arguments
    are checked at the call."""
    n, read = _row_reader(model, n, table)
    return (read(m) for m in range(1, n + 1))


def weight_row(model, n, table=None):
    """The last of weight_rows(model, n, table), log V_{n,k} for k = 1..n,
    read without walking rows 1..n-1: the same checks and the same bits."""
    n, read = _row_reader(model, n, table)
    return read(n)


def ngg_weights_smalln(alpha, beta, n_max):
    """NGG weight triangle from the explicit incomplete-gamma series.

    V_{n,k} = e^{beta^alpha} alpha^{k-1} / Gamma(n) *
    sum_{i=0}^{n-1} binom(n-1, i) (-1)^i beta^i Gamma(k - i/alpha; beta^alpha),
    where Gamma(.;.) is the upper incomplete gamma integral (shape first,
    lower limit second) continued to negative shapes. The alternating sum is
    evaluated in extended precision; this is a test oracle, refused past
    n_max = 12.
    """
    if n_max > SMALLN_MAX:
        raise ValueError(f"series is a small-n oracle, refusing n_max > {SMALLN_MAX}")
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    import mpmath

    table = np.full((n_max + 1, n_max + 1), -np.inf)
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha)
        b = mpmath.mpf(beta)
        lower = b ** a
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                acc = mpmath.mpf(0)
                for i in range(n):
                    term = (
                        mpmath.binomial(n - 1, i)
                        * (-1) ** i
                        * b ** i
                        * mpmath.gammainc(k - i / a, lower, mpmath.inf)
                    )
                    acc += term
                value = mpmath.e ** lower * a ** (k - 1) / mpmath.gamma(n) * acc
                if value <= 0:
                    raise McDegeneracyError(
                        f"series produced a nonpositive weight at (n={n}, k={k})"
                    )
                table[n, k] = float(mpmath.log(value))
    return WeightTable(n_max, alpha, table, Provenance("small-n-series"))


def _check_primitive_tables(table, gfc, depth, gfc_depth):
    # the primitives read weight rows up to `depth` and GFC rows up to
    # `gfc_depth`
    if depth > table.n_max:
        raise ValueError(f"weight table depth {table.n_max} cannot serve row {depth}")
    if gfc_depth > gfc.n_max:
        raise ValueError(f"GFC table depth {gfc.n_max} cannot serve row {gfc_depth}")
    if abs(gfc.alpha - table.alpha) > ALPHA_TOL:
        raise ValueError("weight and GFC tables disagree on alpha")


def log_primitive(table, gfc, n, z1, z2):
    """log g_n(z1, z2) from tabulated weights and GFCs.

    g_n(z1, z2) = sum_{k=1..n} V_{n+z1, k+z2} alpha^{-k} C(n, k; alpha),
    evaluated by log-sum-exp over the GFC table's stored row (every summand
    is positive for alpha in [0, 1), DP's alpha = 0 included); the log scale
    matters because g_n(s, 1) decays roughly like n^{alpha-s}.

    Args:
        table: WeightTable covering depth n + z1.
        gfc: GfcTable covering depth n, with matching alpha.
        n: base count, >= 1.
        z1, z2: nonnegative integer shifts.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if z1 < 0 or z2 < 0:
        raise ValueError("shifts must be nonnegative")
    _check_primitive_tables(table, gfc, n + z1, n)
    k_count = min(n, n + z1 - z2)  # entries with k + z2 > n + z1 vanish
    if k_count < 1:
        return -math.inf
    log_v = table._log[n + z1, z2 + 1:z2 + k_count + 1]
    return float(special.logsumexp(log_v + gfc.log_row(n)[:k_count]))


def primitive(table, gfc, n, z1, z2):
    """The black-box primitive g_n(z1, z2); see log_primitive."""
    return math.exp(log_primitive(table, gfc, n, z1, z2))


def py_primitive_closed(alpha, theta, n, which):
    """The scalar gammaln reference for the PY primitives (alpha = 0: DP).

    g_n(1,0) = 1/(theta + n); g_n(1,1) = Gamma(theta+1) Gamma(theta+alpha+n)
    / [Gamma(theta+n+1) Gamma(theta+alpha)], whose gammaln terms of size
    theta log theta cancel: for n up to 1000 it is off 40-digit mpmath by
    up to 2e-12 relative at theta = 1e3, 1e-9 at 1e6, 1e-6 at 1e8, 1e-2 at
    1e12 and 100% or more at 1e15 (closed_form_log_g11 keeps its digits).

    Args:
        alpha: discount in [0, 1).
        theta: concentration, > -alpha (and nonzero domain for the gammas).
        n: count; >= 1 for (1,0), >= 0 for (1,1).
        which: the shift pair, (1, 0) or (1, 1).
    """
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if theta <= -alpha:
        raise ValueError(f"theta must exceed -alpha, got {theta}")
    which = tuple(which)
    if which == (1, 0):
        if n < 1:
            raise ValueError("g_n(1,0) requires n >= 1")
        return 1.0 / (theta + n)
    if which == (1, 1):
        if n < 0:
            raise ValueError("g_n(1,1) requires n >= 0")
        if alpha == 0.0 and theta == 0.0:
            raise ValueError("alpha = theta = 0 is outside the domain")
        return float(
            np.exp(
                special.gammaln(theta + 1.0)
                + special.gammaln(theta + alpha + n)
                - special.gammaln(theta + n + 1.0)
                - special.gammaln(theta + alpha)
            )
        )
    raise ValueError(f"which must be (1,0) or (1,1), got {which}")


class _DepthPrimitives:
    """A model's primitives g_m(z1, z2) for a dataset of size n, with its
    discount alpha.

    A sweep reads depth n only, each read no dearer than the object:
    g10_n = g_{n-1}(1,0) (nan at n = 1), g11_n = g_{n-1}(1,1),
    expected_blocks = E[B_n] = sum_{m<n} g_m(1,1) and log_gs1_at(sizes) =
    log g_{n-s}(s,1) at an int array of sizes s in [1, n].  The whole
    sequences, which the buffet, the CLI and run manifests read, are built
    on first use: g10[j-1] = g_{j-1}(1,0) for j = 2..n (entry 0 is nan: an
    empty buffet has no occupied dishes, so g_0(1,0) is never consumed);
    g11[j-1] = g_{j-1}(1,1) for j = 1..n, with g_0(1,1) = 1; log_gs1[s-1] =
    log g_{n-s}(s,1) for s = 1..n, where g_0(n,1) = V_{n,1}.  The last is
    stored in log space: it decays like n^{alpha-s} and underflows long
    before its log does.
    """

    @cached_property
    def log_gs1(self):
        return _frozen(self.log_gs1_at(np.arange(1, self.n + 1)))


def _frozen(array):
    array.flags.writeable = False
    return array


def closed_form_log_g11(alpha, theta, n):
    """log g_m(1,1) for m < n of the DP/PY model at (alpha, theta): the
    running sum of the steps log[(theta+alpha+j) / (theta+1+j)] over j < m,
    taken as log1p((alpha-1) / (theta+1+j)) from j = 1 on (at j = 0 that
    argument rounds to -1 as theta nears -alpha).  No term grows with
    theta, so the sums keep their digits at any theta."""
    steps = np.zeros(n)
    steps[1:2] = math.log((theta + alpha) / (theta + 1.0))  # empty at n = 1
    steps[2:] = np.log1p((alpha - 1.0) / (theta + np.arange(2.0, n)))
    return np.add.accumulate(steps, out=steps)


def closed_form_log_falling(theta, n, sizes):
    """sum_{i=1}^{s-1} log(theta+n-i) at an int array of sizes s in [1, n]:
    log g_{n-s}(1,1) - log g_{n-s}(s,1), free of alpha.  One running sum
    from i = 1 up, so each entry is a direct sum of its s - 1 logs."""
    logs = np.zeros(int(sizes.max(initial=1)))
    logs[1:] = np.log(theta + np.arange(n - 1.0, n - len(logs), -1.0))
    return np.add.accumulate(logs, out=logs)[sizes - 1]


class ClosedFormPrimitives(_DepthPrimitives):
    """A DP/PY model's primitives at depth n in closed form:
    g_m(1,1) = (theta+alpha)_m / (theta+1)_m, g_{n-s}(s,1) =
    g_{n-s}(1,1) / [(theta+n-1) ... (theta+n-s+1)] and g10[m] = g_m(1,0) =
    1/(theta+m).  closed_form_log_g11 and closed_form_log_falling do the
    arithmetic; log_g11, the closed_form_log_g11 of the model at depth n
    where the caller has it, is taken as it is (and frozen in place)."""

    def __init__(self, model, n, log_g11=None):
        self.n = n = _positive_int(n)
        self.alpha, self._theta = alpha, theta = model.stable_index, model.theta
        if log_g11 is None:
            log_g11 = closed_form_log_g11(alpha, theta, n)
        self._log_g11 = _frozen(log_g11)
        self.g11 = _frozen(np.exp(log_g11))
        self.expected_blocks = float(self.g11.sum())
        self.g10_n = 1.0 / (theta + (n - 1)) if n > 1 else math.nan
        self.g11_n = float(self.g11[-1])

    @cached_property
    def g10(self):
        return _frozen(
            np.concatenate([[math.nan], 1.0 / (self._theta + np.arange(1, self.n))])
        )

    def log_gs1_at(self, sizes):
        return self._log_g11[self.n - sizes] - closed_form_log_falling(self._theta, self.n, sizes)


class NggRowPrimitives(_DepthPrimitives):
    """An NGG/NIG model's primitives at depth n from row n of its weights,
    the twin of ClosedFormPrimitives: the depth-n reads need no backward
    fill and no length-n sequence.

    Two identities of the Gibbs urn make row n enough.  The block law sums
    to one, sum_k V_{n,k} alpha^{-k} C(n, k; alpha) = V_{1,1}, so row n
    divided by that sum is row n of the triangle normalised to V_{1,1} = 1
    (the one _mc_weight_table fills), which every g_{n-s}(s,z2) reads; and
    sum_{m<n} g_m(1,1) = E[B_n], the mean of that law (block_law).  A slice
    trial reads alpha, expected_blocks and log_gs1_at only, so those are
    all the constructor computes; block_law, g10_n, g11_n and rel_se are
    computed on first read.  The g10 and g11 sequences read rows 2..n of
    `table`, which is filled from the row on first read unless one is
    given.

    Args:
        log_row: log V_{n,k} for k = 1..n up to one additive constant: the
            raw row of NggWeightSampler.log_last_row, or an exact one.
        gfc: GfcTable at the model's alpha, depth n or deeper (the
            sampler's own); its block holds log[alpha^{-k} C(m, k; alpha)].
        rel_se: the row's relative standard errors, which the weight table
            filled from it carries, or a function of no arguments returning
            them, called on the first read of rel_se; None for an exact row.
        draws: the NggWeightSampler the row was read from, whose samples
            and seed the filled table records.
        table: a weight table of depth n or deeper whose row n is log_row,
            in place of the filled one.
    """

    def __init__(self, log_row, gfc, rel_se=None, draws=None, table=None):
        n = self.n = len(log_row)
        self.alpha = float(gfc.alpha)
        self.log_row = log_row
        self._rel_se = rel_se
        self.draws = draws
        if table is not None:
            self.table = table
        self._log_c = gfc.log_block(n)
        shifted = log_row - np.max(log_row)
        law = shifted + gfc.log_row(n)
        top = law.max()
        self._mass = np.exp(law - top)
        self._total = self._mass.sum()
        self._log_v = shifted - (top + math.log(self._total))  # V_{1,1} = 1
        self.expected_blocks = float(np.dot(np.arange(1, n + 1), self._mass) / self._total)

    @cached_property
    def rel_se(self):
        return self._rel_se() if callable(self._rel_se) else self._rel_se

    @cached_property
    def block_law(self):
        return self._mass / self._total

    @cached_property
    def g11_n(self):
        return float(np.exp(self.log_gs1_at(np.array([1]))[0]))

    @cached_property
    def g10_n(self):
        # g_{n-1}(1,0) = sum_{k<n} V_{n,k} alpha^{-k} C(n-1, k; alpha)
        n = self.n
        if n == 1:
            return math.nan
        terms = self._log_v[:-1] + self._log_c[n - 2, :n - 1]
        return float(np.exp(_log_sum_exp_rows(terms[None])[0]))

    @cached_property
    def table(self):
        if self.draws is None:
            raise ValueError("primitives of a row with no draws have no table to fill")
        return _mc_weight_table(
            self.alpha, self.log_row, self.rel_se,
            Provenance("monte-carlo", self.draws.samples, self.draws.seed),
        )

    @cached_property
    def g10(self):
        return self._table_sequence(0, math.nan)

    @cached_property
    def g11(self):
        return self._table_sequence(1, 1.0)

    def _table_sequence(self, z2, head):
        # [head, g_1(1,z2), ..., g_{n-1}(1,z2)] from rows 2..n of the table;
        # the GFC block is -inf for k > m, which masks each row's sum to the
        # k <= m that log_primitive sums over
        n, v = self.n, self.table._log
        terms = v[2:n + 1, 1 + z2:n + z2] + self._log_c[:n - 1, :n - 1]
        return _frozen(np.concatenate([[head], np.exp(_log_sum_exp_rows(terms))]))

    def log_gs1_at(self, sizes):
        # log g_{n-s}(s,1) = log sum_k V_{n,k+1} alpha^{-k} C(n-s, k; alpha)
        # from row n of the weights; g_0(n,1) = V_{n,1}
        n, log_v = self.n, self._log_v
        log_gs1 = np.full(len(sizes), log_v[0])
        inner = sizes < n
        log_gs1[inner] = _log_sum_exp_rows(
            log_v[1:] + self._log_c[n - 1 - sizes[inner], :n - 1]
        )
        return log_gs1


def build_primitive_cache(model, n, table=None, gfc=None):
    """The primitives of `model` for a dataset of size n.

    DP and PY give ClosedFormPrimitives (the closed forms keep large n
    cheap); NGG/NIG the NggRowPrimitives of row n of their weight table,
    which their g10 and g11 sequences read.  The weight table (built by
    build_weight_table unless supplied) must reach depth n, and so must the
    GFC table (built unless supplied), whose row n normalises the block
    law.  py_primitive_closed and log_primitive are the scalar forms of the
    same primitives (the first a reference that loses digits at large
    theta).
    """
    n = _positive_int(n)
    if model.is_closed_form:
        return ClosedFormPrimitives(model, n)
    if table is None:
        table = build_weight_table(model, n)
    if gfc is None:
        gfc = build_gfc_table(n, model.stable_index)
    _check_primitive_tables(table, gfc, n, n)
    return NggRowPrimitives(table.log_row(n), gfc, table.rel_se_row(n), table=table)


def _log_sum_exp_rows(terms):
    # log sum exp along each row, shifted by the row max; -inf terms add
    # nothing and a row of -inf stays -inf
    top = terms.max(axis=1, initial=-math.inf)
    shift = np.where(np.isneginf(top), 0.0, top)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(terms - shift[:, None]).sum(axis=1)) + shift


def persistence_probability(cache, n, s):
    """g(n, s) = (1 - alpha)_{s-1} g_{n-s}(s, 1): the probability that one
    fixed dish is taken by all of the first s of n customers and no other
    dish is ever taken.

    cache is the model's depth-n primitives, which supply alpha and
    log_gs1[s-1]; the diagonal case is g(n, n) = (1 - alpha)_{n-1} V_{n,1}.
    """
    if n != cache.n:
        raise ValueError(f"cache was built for n = {cache.n}, got n = {n}")
    if not 1 <= s <= n:
        raise ValueError(f"s must lie in [1, {n}], got {s}")
    return math.exp(log_rising_factorial(1.0 - cache.alpha, s - 1) + cache.log_gs1[s - 1])


def block_count_distribution(model, n, table=None, gfc=None):
    """Distribution of the number of blocks B_n over k = 1..n.

    Pr{B_n = k} = V_{n,k} alpha^{-k} C(n, k; alpha): the weight row
    weight_row(model, n, table) times row n of the GFC table, or of
    gfc_rows when none is given.  So a given table is read for every
    subclass, and DP and PY build no table and have no depth limit.  The
    returned vector is the raw evaluation; a NormalizationError signals
    that it missed summing to one beyond 1e-8.  Every weight table
    satisfies the recursion (Monte Carlo tables are filled backward by it),
    so the tolerance is the same for all of them.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    log_v = weight_row(model, n, table)
    if gfc is not None:
        log_c = gfc.log_row(n)
    else:
        for log_c in gfc_rows(n, model.stable_index):
            pass
    probs = np.exp(log_v + log_c)
    defect = abs(float(probs.sum()) - 1.0)
    if defect > BLOCK_LAW_TOL:
        raise NormalizationError(
            f"block-count distribution for {model.describe()} at n={n} sums to "
            f"1{defect:+.3e}, beyond tolerance {BLOCK_LAW_TOL:.3e}"
        )
    return probs


def expected_blocks(model, n, table=None, gfc=None):
    """E[B_n] = sum_k k Pr{B_n = k} over block_count_distribution; DP and
    PY with no table read their primitives' sum_{m<n} g_m(1,1) instead, in
    O(n) (the law's mean differs from it in its last bits)."""
    if table is None and model.is_closed_form:
        return ClosedFormPrimitives(model, n).expected_blocks
    probs = block_count_distribution(model, n, table=table, gfc=gfc)
    return float(np.dot(np.arange(1, n + 1), probs))


def check_frozen_draws(n, samples):
    """Refuse frozen draws whose sampler would hold more than
    MAX_FROZEN_DRAWS doubles, segment sums included, with TableSizeError."""
    held = _Segments.footprint(n, samples)
    if held > MAX_FROZEN_DRAWS:
        raise TableSizeError(
            f"{n} rows x {samples} samples of frozen draws need {8 * held} bytes "
            f"with their segment sums; they are limited to MAX_FROZEN_DRAWS = "
            f"{MAX_FROZEN_DRAWS} doubles"
        )


class NggWeightSampler:
    """Frozen Monte Carlo draws for re-evaluating NGG weights as beta moves.

    The stable and beta-distributed draws behind the last-row estimator do
    not involve beta, so freezing the ratios R = X/Y once per block count
    makes every subsequent beta evaluation a cheap deterministic read
    (used by calibration and by hyperparameter moves during inference).
    The draws are those of ngg_last_row_mc for the same seed, and each row k
    is stored shifted, R - min_k R, as the _Segments that the shared read
    takes, beside its minimum.  The rows are drawn and cut into segments
    on every usable core (`taskset` limits them); a beta read runs on one
    thread, and draws and tables do not depend on the number of cores.
    gfc, the depth-n GFC table at alpha, is beta-free too and built once;
    every row read (row_primitives) reads its stored block
    log[alpha^{-k} C(m, k; alpha)] for m, k = 1..n.  The segments hold a
    little over 8 n samples bytes; past MAX_FROZEN_DRAWS doubles the
    sampler raises TableSizeError before allocating or drawing any.
    """

    def __init__(self, alpha, n, samples, seed):
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        check_table_depth(n)  # its weight tables are n deep
        check_frozen_draws(n, samples)
        self.alpha = float(alpha)
        self.n = int(n)
        self.samples = int(samples)
        self.seed = int(seed)
        self._segments = _Segments(n, self.samples)
        self._ratio_min = np.empty(n)

        def store_row(k, shifted, ratio_min):
            self._segments.set_row(k - 1, shifted)
            self._ratio_min[k - 1] = ratio_min

        _fill_shifted_ratio_rows(
            alpha, n, self.samples, np.random.default_rng(seed), store_row
        )
        self._ratio_min.flags.writeable = False
        self._log_prefactor = _log_prefactor(alpha, n)
        self.gfc = build_gfc_table(n, alpha)

    def log_last_row(self, beta):
        """(log_row, rel_se) for row n at this beta, from the frozen draws:
        both moment reads."""
        primitives = self.row_primitives(beta)
        return primitives.log_row, primitives.rel_se

    def row_primitives(self, beta):
        """NggRowPrimitives of row n at this beta from one read of the
        draws, which sums the first moment only: all a slice trial reads.
        They carry these draws; their rel_se, the second-moment read, is
        computed on first read, with the bits of log_last_row's, and their
        weight table is filled on first read."""
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        segments, ratio_min = self._segments, self._ratio_min
        log_m1 = _log_first_moment(segments, ratio_min, self.alpha, beta)

        def rel_se():
            return _relative_se(segments, ratio_min, self.alpha, beta, log_m1)

        return NggRowPrimitives(self._log_prefactor + log_m1, self.gfc, rel_se, draws=self)


def weight_table_from_sampler(sampler, beta):
    """Weight triangle at `beta` from a sampler's frozen draws, built as
    build_weight_table builds a Monte Carlo one: deterministic in beta."""
    return sampler.row_primitives(beta).table


def held_draws(model, n, held):
    """The frozen draws of the primitives `held` if they are the ones an
    NGG/NIG model's mc_config names at its alpha and n, else None."""
    draws = (model.stable_index, n, model.mc_config.samples, model.mc_config.seed)
    sampler = getattr(held, "draws", None)
    if sampler is None or (sampler.alpha, sampler.n, sampler.samples, sampler.seed) != draws:
        return None
    return sampler


def depth_primitives(model, n, held=None):
    """The primitives of `model` at depth n: ClosedFormPrimitives for DP/PY;
    for NGG/NIG, the NggRowPrimitives at its beta of the frozen draws its
    mc_config names at its alpha and n, reusing the draws of the primitives
    `held` when they are those."""
    n = _positive_int(n)
    if model.is_closed_form:
        return ClosedFormPrimitives(model, n)
    sampler = held_draws(model, n, held)
    if sampler is None:
        mc = model.mc_config
        sampler = NggWeightSampler(model.stable_index, n, mc.samples, mc.seed)
    return sampler.row_primitives(model.beta)


def calibrate(family, target, n, alpha=None, mc_config=None):
    """Find the free parameter value giving E[B_n] = target within 0.05.

    DP and PY solve for theta; NGG and NIG solve for beta.  E[B_n], read
    from the model's depth_primitives (no table for DP/PY), is monotone
    increasing in its second_coordinate, so the root is bracketed by
    doubling and polished with Brent's method.  NGG/NIG read one frozen
    set of draws (common random numbers), making the search deterministic;
    the quoted tolerance is then relative to that Monte Carlo surface.
    Where that surface is too noisy to resolve beta (the mean relative
    standard error of the filled table's block law at the root, sum_k
    P(B_n = k) rel_se_{n,k}, reaches CALIBRATE_MC_ERROR_MAX) the root is
    refused with McDegeneracyError.

    Args:
        family: one of "DP", "PY", "NGG", "NIG".
        target: desired expected block count (check_calibration_target).
        n: partition size the expectation refers to.
        alpha: discount, required for PY and NGG.
        mc_config: McConfig for the Monte Carlo variants.

    Returns:
        The calibrated parameter (theta or beta).
    """
    return _calibrate(family, target, n, alpha, mc_config)[0]


def check_calibration_target(family, target, n, alpha=None, mc_config=None):
    """Refuse with ValueError a target outside (floor, n), the range of
    E[B_n] over the family's free parameter.  The floor is 1 for DP/PY; for
    NGG/NIG it is the beta -> 0 limit, E[B_n] of PY(alpha, 0), checked after
    the size limits of the n-deep frozen draws a search would read."""
    floor = 1.0
    if family in ("NGG", "NIG"):
        check_table_depth(n)
        check_frozen_draws(n, (mc_config or McConfig()).samples)
        limit = GibbsModel.py(0.5 if family == "NIG" else alpha, 0.0)
        floor = ClosedFormPrimitives(limit, n).expected_blocks
    if not floor < target < n:
        raise ValueError(
            f"E[B_{n}] of {family} is confined to ({floor:.5g}, {n}); "
            f"target {target} is unreachable"
        )


def _calibrate(family, target, n, alpha, mc_config):
    # calibrate's search; also returns the E[B_n] reached at the root and,
    # for NGG/NIG, the Monte Carlo error of the block law there (None for
    # DP/PY)
    if family not in VARIANTS:
        raise ValueError(f"family must be one of {VARIANTS}, got {family!r}")
    if family in ("PY", "NGG") and alpha is None:
        raise ValueError(f"{family} calibration requires alpha")
    check_calibration_target(family, target, n, alpha, mc_config)
    from scipy import optimize

    if family == "DP":
        base = GibbsModel.dp(1.0)
    elif family == "PY":
        base = GibbsModel.py(alpha, 1.0)
    elif family == "NGG":
        base = GibbsModel.ngg(alpha, 1.0, mc_config or McConfig())
    else:
        base = GibbsModel.nig(1.0, mc_config or McConfig())
    held = None  # the last point's primitives, whose NGG/NIG draws every point reads

    def fitted(t):
        nonlocal held
        model = base.with_second_coordinate(t)
        held = depth_primitives(model, n, held)
        return model, held

    def objective(t):
        return fitted(t)[1].expected_blocks - target

    lo, hi = 0.0, 1.0
    f_lo, f_hi = objective(lo), objective(hi)
    for _ in range(80):
        if f_lo <= 0.0:
            break
        hi, f_hi = lo, f_lo
        lo -= 2.0
        f_lo = objective(lo)
    else:
        raise ValueError(f"could not bracket target {target} from below")
    for _ in range(80):
        if f_hi >= 0.0:
            break
        lo, f_lo = hi, f_hi
        hi += 2.0
        f_hi = objective(hi)
    else:
        raise ValueError(f"could not bracket target {target} from above")
    t_star = optimize.brentq(objective, lo, hi, xtol=1e-12)
    model, primitives = fitted(t_star)
    achieved = primitives.expected_blocks
    residual = achieved - target
    if abs(residual) > 0.05:
        raise ValueError(
            f"calibration stalled: |E[B_{n}] - {target}| = {abs(residual):.4f} > 0.05"
        )
    mc_error = None
    if not model.is_closed_form:
        # row n of the filled table carries rel_se_{n,k} + rel_se_{1,1}, and
        # the fill makes rel_se_{1,1} = sum_k P(B_n = k) rel_se_{n,k}
        mc_error = 2.0 * float(primitives.block_law @ primitives.rel_se)
        if not mc_error < CALIBRATE_MC_ERROR_MAX:
            raise McDegeneracyError(
                f"calibration root beta={model.beta:.6g} lies on a degenerate Monte "
                f"Carlo surface: sum_k P(B_{n}=k) rel_se_{{{n},k}} = {mc_error:.3g} "
                f"(limit {CALIBRATE_MC_ERROR_MAX}), so E[B_{n}] there does not "
                f"resolve beta; use more samples or a lower target"
            )
    param = model.theta if model.is_closed_form else model.beta
    return float(param), achieved, mc_error


def _table_payload(table, model):
    rows = [list(map(float, table.log_row(n))) for n in range(1, table.n_max + 1)]
    payload = {
        "format_version": TABLE_FORMAT_VERSION,
        "model": model.to_payload() if model is not None else None,
        "n_max": table.n_max,
        "alpha": table.alpha,
        "provenance": table.provenance.to_payload(),
        "log_entries": rows,
    }
    if table._rel_se is not None:
        payload["rel_se"] = [
            list(map(float, table.rel_se_row(n))) for n in range(1, table.n_max + 1)
        ]
    else:
        payload["rel_se"] = None
    return payload


def weight_table_content_hash(table, model=None):
    """Stable content hash of a table for run manifests."""
    doc = json.dumps(_table_payload(table, model), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def primitive_cache_content_hash(cache, model):
    """Stable content hash of a model's primitives for run manifests."""
    doc = json.dumps(
        {
            "model": model.to_payload(),
            "n": cache.n,
            "g10": cache.g10.tolist(),
            "g11": cache.g11.tolist(),
            "log_gs1": cache.log_gs1.tolist(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(doc.encode()).hexdigest()


def table_cache_path(model, n_max, directory):
    """Cache file path in `directory`, keyed by the model's payload
    (mc_config included) and n_max."""
    key = json.dumps(
        ["weights", TABLE_FORMAT_VERSION, model.to_payload(), int(n_max)], sort_keys=True
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return Path(directory) / f"weights_{model.variant.lower()}_{digest}.json"


def save_weight_table(table, model, path):
    """Serialize a table (with provenance) to a versioned JSON cache file.
    json.dumps encodes in one call to the C encoder, about twice as fast as
    json.dump's chunks, with the same bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_table_payload(table, model)))
    return path


def load_weight_table(path):
    """Load a serialized table; returns (WeightTable, model-or-None)."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format_version") != TABLE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported table format version {payload.get('format_version')}"
        )
    n_max = int(payload["n_max"])
    log_entries = np.full((n_max + 1, n_max + 1), -np.inf)
    for n in range(1, n_max + 1):
        log_entries[n, 1:n + 1] = payload["log_entries"][n - 1]
    rel = None
    if payload["rel_se"] is not None:
        rel = np.zeros((n_max + 1, n_max + 1))
        for n in range(1, n_max + 1):
            rel[n, 1:n + 1] = payload["rel_se"][n - 1]
    prov_payload = payload["provenance"]
    provenance = Provenance(
        prov_payload["kind"],
        prov_payload.get("samples"),
        prov_payload.get("seed"),
    )
    table = WeightTable(n_max, payload["alpha"], log_entries, provenance, rel_se=rel)
    model = GibbsModel.from_payload(payload["model"]) if payload["model"] else None
    return table, model
