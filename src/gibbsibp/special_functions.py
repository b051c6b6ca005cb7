"""Log-space special functions: rising factorials, generalized factorial
coefficients, positive stable densities and the tilted stable integral."""

import math

import numpy as np
from scipy import special

# scipy.integrate and scipy.optimize are imported inside the two functions
# that use them, so importing the package does not load them

# Weight and GFC tables are dense (n+1) x (n+1) float64 arrays: 32 MB each
# at this depth, 0.8 GB at n = 10^4.
MAX_TABLE_DEPTH = 2000


class TableSizeError(ValueError):
    """A table or a set of frozen draws past its size limit, refused before
    anything is allocated or drawn."""


def check_table_depth(n_max):
    """Refuse a dense table deeper than MAX_TABLE_DEPTH with TableSizeError."""
    if n_max > MAX_TABLE_DEPTH:
        raise TableSizeError(
            f"a table of depth {n_max} would take {8 * (n_max + 1) ** 2 / 1e6:.0f} MB; "
            f"dense tables are limited to depth MAX_TABLE_DEPTH = {MAX_TABLE_DEPTH}"
        )


def log_rising_factorial(a, n):
    """Log of the rising factorial (a)_n = Gamma(a+n)/Gamma(a).

    Args:
        a: base, must be positive.
        n: number of factors, a nonnegative integer.

    Returns:
        log[(a)_n]; exactly 0.0 when n == 0.
    """
    if a <= 0:
        raise ValueError(f"rising factorial base must be positive, got {a}")
    if n != int(n) or n < 0:
        raise ValueError(f"rising factorial order must be a nonnegative integer, got {n}")
    if n == 0:
        return 0.0
    return float(special.gammaln(a + n) - special.gammaln(a))


def log_gamma_ratio(theta, alpha):
    """log Gamma(theta+1) - log Gamma(theta+alpha) for alpha in [0, 1) and
    theta > -alpha: log (theta+alpha)_{1-alpha} by scipy's poch, which
    keeps its digits where the gammaln difference, of size theta log theta,
    loses them.  Past theta 1e17 it is (1-alpha) log theta + alpha
    (1-alpha) / (2 theta), whose next term is O(theta^-2)."""
    if theta > 1e17:
        return (1.0 - alpha) * math.log(theta) + alpha * (1.0 - alpha) / (2.0 * theta)
    return math.log(special.poch(theta + alpha, 1.0 - alpha))


class GfcTable:
    """Triangular array of log[alpha^{-k} C(n, k; alpha)], 1 <= k <= n <= n_max.

    The scaled generalized factorial coefficients form Gnedin and Pitman's
    generalized Stirling triangle, which the primitives and block-count laws
    read; at alpha = 0 they are the unsigned Stirling numbers of the first
    kind |s(n, k)|.  They are positive for alpha in [0, 1), so the stored
    logs are finite.  Instances are immutable after construction and safe to
    share.
    """

    def __init__(self, n_max, alpha, log_entries):
        self.n_max = n_max
        self.alpha = alpha
        log_entries.flags.writeable = False
        self._log = log_entries

    def log_gfc(self, n, k):
        """log C(n, k; alpha) itself (not the stored alpha^{-k} form); -inf
        where the coefficient is zero (k=0 with n >= 1, k > n, or k >= 1 at
        alpha = 0)."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must lie in [0, {self.n_max}], got {n}")
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")
        if k > n or (k > 0 and self.alpha == 0.0):
            return -np.inf
        return float(self._log[n, k]) + (k * math.log(self.alpha) if k else 0.0)

    def log_row(self, n):
        """Row of log[alpha^{-k} C(n, k; alpha)] for k = 1..n as an array."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must lie in [1, {self.n_max}], got {n}")
        return self._log[n, 1:n + 1]

    def log_block(self, n):
        """log[alpha^{-k} C(m, k; alpha)] for 1 <= m, k <= n as an n x n
        array (row m-1, column k-1); the entries with k > m are -inf."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must lie in [0, {self.n_max}], got {n}")
        return self._log[1:n + 1, 1:n + 1]


def gfc_rows(n_max, alpha):
    """Rows n = 1..n_max of log S(n, k), k = 1..n, of the generalized
    Stirling triangle S(n, k) = alpha^{-k} C(n, k; alpha), alpha in [0, 1),
    one at a time: S(n+1, k) = (n - alpha k) S(n, k) + S(n, k-1) from S(1, 1)
    = 1, both summands nonnegative (at alpha = 0, the unsigned Stirling
    numbers of the first kind).  The arguments are checked at the call."""
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if n_max < 1 or n_max != int(n_max):
        raise ValueError(f"n_max must be a positive integer, got {n_max}")

    def rows():
        row = np.zeros(1)
        yield row
        for n in range(1, int(n_max)):
            # n - alpha*k > 0 for every k <= n since alpha < 1
            keep = np.log(n - alpha * np.arange(1, n + 1)) + row
            row = np.append(np.logaddexp(keep, np.append(-np.inf, row[:-1])), 0.0)
            yield row

    return rows()


def build_gfc_table(n_max, alpha):
    """GfcTable of the rows of gfc_rows up to n_max (at most
    MAX_TABLE_DEPTH), stacked into a dense table with log C(0, 0) = 0."""
    rows = gfc_rows(n_max, alpha)
    check_table_depth(n_max)
    n_max = int(n_max)
    table = np.full((n_max + 1, n_max + 1), -np.inf)
    table[0, 0] = 0.0
    for n, row in enumerate(rows, start=1):
        table[n, 1:n + 1] = row
    return GfcTable(n_max, alpha, table)


def log_kanter_a(u, alpha):
    """log A(u) for the Zolotarev/Kanter kernel on (0, pi):
    A(u) = [sin(alpha u)/sin u]^{alpha/(1-alpha)} sin((1-alpha)u)/sin u.

    A is increasing from A(0+) (log_kanter_a0) to infinity at u = pi; it
    drives both Kanter's sampler and the integral form of the positive
    stable density.
    """
    log_sin_u = np.log(np.sin(u))
    return (
        alpha / (1.0 - alpha) * (np.log(np.sin(alpha * u)) - log_sin_u)
        + np.log(np.sin((1.0 - alpha) * u))
        - log_sin_u
    )


def log_kanter_a0(alpha):
    """log A(0+) = log[alpha^{alpha/(1-alpha)} (1-alpha)], the infimum of
    the Kanter kernel A on (0, pi)."""
    return alpha / (1.0 - alpha) * math.log(alpha) + math.log1p(-alpha)


def positive_stable_density(alpha, t):
    """Density f_alpha(t) of the positive stable law with Laplace transform
    exp(-lambda^alpha).

    Uses the closed form at alpha = 1/2 and the Zolotarev integral
    representation with adaptive quadrature otherwise. The integration
    variable is y = -log(pi - u), which keeps the quadrature accurate when
    the integrand concentrates near u = pi (large t), and the integral is
    split at the interior maximum where A(u) = alpha * t^{alpha/(1-alpha)}.

    Args:
        alpha: stability index in (0, 1).
        t: evaluation point, must be positive.

    Returns:
        f_alpha(t).
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if t <= 0:
        raise ValueError(f"density argument must be positive, got {t}")
    if alpha == 0.5:
        return t ** -1.5 * math.exp(-1.0 / (4.0 * t)) / (2.0 * math.sqrt(math.pi))
    from scipy import integrate, optimize

    scale = t ** (-alpha / (1.0 - alpha))
    log_t_term = -math.log(t) / (1.0 - alpha)
    lo = -math.log(math.pi)

    def integrand(y):
        log_a = log_kanter_a(math.pi - np.exp(-y), alpha)
        # combine prefactor and exponent so tiny t cannot produce inf * 0
        return np.exp(-scale * np.exp(log_a) + log_a + log_t_term - y)

    # the exponent -scale*A + log A peaks where A = alpha/scale, provided
    # that exceeds A(0+)
    target = alpha / scale
    if target > math.exp(log_kanter_a0(alpha)) * (1.0 + 1e-9):
        # A(pi - e^{-y}) grows like K e^{y/(1-alpha)} near u = pi
        log_k = (alpha / (1.0 - alpha)) * math.log(math.sin(alpha * math.pi)) + math.log(
            math.sin((1.0 - alpha) * math.pi)
        )
        hi = max((1.0 - alpha) * (math.log(target) - log_k) + 10.0, lo + 1.0)
        y_peak = optimize.brentq(
            lambda y: log_kanter_a(math.pi - math.exp(-y), alpha) - math.log(target),
            lo + 1e-12,
            hi,
        )
        value = integrate.quad(integrand, lo, y_peak, limit=200)[0]
        value += integrate.quad(integrand, y_peak, np.inf, limit=200)[0]
    else:
        value = integrate.quad(integrand, lo, np.inf, limit=200)[0]
    return alpha / (1.0 - alpha) / math.pi * value


def tilted_stable_integral(alpha, s):
    """alpha M(alpha, s) for alpha in (0, 1) and s > 0, where M(alpha, s) =
    int_0^inf r^{alpha-1} exp(s^alpha - (s + r)^alpha) dr = Gamma(alpha)
    int_0^inf t^{-alpha} e^{s^alpha - s t} f_alpha(t) dt.  The substitution
    r = t^{1/alpha} leaves one adaptive quadrature of a smooth integrand
    bounded by 1: int_0^inf exp(s^alpha - (s + t^{1/alpha})^alpha) dt.
    """
    from scipy import integrate

    scale, log_s = s ** alpha, math.log(s)

    def integrand(t):
        # s^alpha - (s + r)^alpha = -s^alpha expm1(alpha log(1 + r/s)), free
        # of cancellation at r << s; the log stays finite where r overflows
        growth = alpha * float(np.logaddexp(0.0, math.log(t) / alpha - log_s)) if t else 0.0
        return math.exp(-scale * math.expm1(min(growth, 700.0)))

    value, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return value
