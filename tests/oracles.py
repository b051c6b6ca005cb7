"""Exact oracles the tests compare the library against."""

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
