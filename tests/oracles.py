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
