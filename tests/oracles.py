"""Exact oracles the tests compare the library against."""

import math

import mpmath

BRUTEFORCE_MAX_N = 15


def gfc_bruteforce(n, k, alpha):
    """Generalized factorial coefficient by the explicit alternating sum.

    C(n, k; alpha) = (1/k!) sum_{i=0}^k (-1)^i binom(k, i) (-i alpha)_n,
    evaluated in extended precision: the alternating terms exceed the result
    by many orders (the corner C(n, n; alpha) = alpha^n is built from terms
    of size n!), so a double-precision sum keeps only the leading digits.
    Refused past n = 15.
    """
    if n > BRUTEFORCE_MAX_N:
        raise ValueError(f"bruteforce sum is unreliable past n={BRUTEFORCE_MAX_N}, got {n}")
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k == 0:
        return 1.0 if n == 0 else 0.0
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha)
        total = mpmath.mpf(0)
        for i in range(k + 1):
            total += (-1) ** i * mpmath.binomial(k, i) * mpmath.rf(-i * a, n)
        return float(total / mpmath.factorial(k))


def unsigned_stirling_first(n_max):
    """Exact unsigned Stirling numbers of the first kind |s(n, k)| for
    0 <= k <= n <= n_max, as Python integers: rows of
    |s(n+1, k)| = n |s(n, k)| + |s(n, k-1)| from |s(0, 0)| = 1."""
    rows = [[1]]
    for n in range(n_max):
        prev = rows[-1] + [0]
        rows.append([n * prev[0]] + [n * prev[k] + prev[k - 1] for k in range(1, n + 2)])
    return rows


def log_scaled_gfc_mp(n_max, alpha, dps=50):
    """log[alpha^{-k} C(n, k; alpha)] for 1 <= k <= n <= n_max as nested
    lists (row n-1, entry k-1), by the generalized Stirling recursion
    S(n+1, k) = (n - alpha k) S(n, k) + S(n, k-1), S(n, n) = 1, in `dps`
    decimal digits; every summand is positive, so the recursion loses no
    digits to cancellation."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        row = [mpmath.mpf(1)]  # S(1, 1)
        logs = [[0.0]]
        for n in range(1, n_max):
            row = [
                (n - a * k) * row[k - 1] + (row[k - 2] if k > 1 else 0)
                for k in range(1, n + 1)
            ]
            row.append(mpmath.mpf(1))
            logs.append([float(mpmath.log(value)) for value in row])
        return logs


def _closed_form_dps(theta, dps):
    # the log Gamma terms of size theta log theta cancel to a log of order
    # one, so they need log10 theta more digits than the result
    return dps + max(0, math.ceil(math.log10(abs(theta)))) if theta else dps


def py_g11_mp(alpha, theta, n, dps=40):
    """g_m(1,1) = prod_{j<m} (theta+alpha+j) / (theta+1+j) for m < n of the
    PY model (alpha = 0: DP), as floats of the dps-digit running product,
    and their sum E[B_n] rounded once."""
    with mpmath.workdps(_closed_form_dps(theta, dps)):
        a, t = mpmath.mpf(alpha), mpmath.mpf(theta)
        g, g11 = mpmath.mpf(1), []
        for m in range(n):
            g11.append(g)
            g *= (t + a + m) / (t + 1 + m)
        return [float(value) for value in g11], float(mpmath.fsum(g11))


def py_log_gs1_mp(alpha, theta, n, s, dps=40):
    """log g_{n-s}(s,1) = log[Gamma(theta+1) Gamma(theta+alpha+n-s) /
    (Gamma(theta+alpha) Gamma(theta+n))] of the PY model (alpha = 0: DP)
    in dps digits plus log10 theta."""
    with mpmath.workdps(_closed_form_dps(theta, dps)):
        a, t = mpmath.mpf(alpha), mpmath.mpf(theta)
        return float(
            mpmath.loggamma(t + 1) + mpmath.loggamma(t + a + n - s)
            - mpmath.loggamma(t + a) - mpmath.loggamma(t + n)
        )
