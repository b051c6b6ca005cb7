"""Random variate generation for positive alpha-stable laws and their
polynomially tilted relatives."""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .special_functions import log_kanter_a, log_kanter_a0


@dataclass(frozen=True)
class TiltedStableSpec:
    """Parameters of a polynomially tilted positive stable law.

    The target density is proportional to x^{-tilt} f_alpha(x) where f_alpha
    is the positive stable density with Laplace transform exp(-lambda^alpha).
    At tilt = k*alpha the normalizing constant is Gamma(k alpha + 1)/Gamma(k+1).
    """

    alpha: float
    tilt: float

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.tilt < 0:
            raise ValueError(f"tilt must be nonnegative, got {self.tilt}")


def sample_positive_stable(alpha, rng, size=None):
    """Draw from the positive stable law with Laplace transform exp(-lambda^alpha).

    Uses Kanter's transformation X = (A(U)/E)^{(1-alpha)/alpha} with
    U ~ Uniform(0, pi) and E ~ Exp(1): sample_tilted_stable's general path
    at tilt 0, where its Gamma(1) draw is E.

    Args:
        alpha: stability index in (0, 1).
        rng: numpy Generator.
        size: None for a scalar, else number of draws.

    Returns:
        float or array of strictly positive draws.
    """
    return sample_tilted_stable(TiltedStableSpec(alpha, 0.0), rng, size, method="general")


def _sample_tilt_angle(alpha, b, rng, m):
    """m angles U from the density on (0, pi) proportional to A(u)^{-b},
    returned as the pair (U, log A(U)).

    Write s(x) = log(sin x / x) = -x^2/6 - x^4/180 - ..., whose Taylor
    coefficients in x^2 are all negative. Then

        log A(u) - log A(0+) = alpha/(1-alpha) [s(alpha u) - s(u)]
                               + s((1-alpha) u) - s(u),

    and each of its coefficients in u^2 is -c_k [alpha/(1-alpha)
    (1 - alpha^{2k}) + 1 - (1-alpha)^{2k}] > 0 with c_k that of s; the
    first is alpha/2. So A(u)^{-b} <= A(0+)^{-b} exp(-b alpha u^2 / 2) on
    (0, pi): the half-normal of variance 1/(b alpha) truncated to (0, pi),
    drawn by inverse CDF, is an exact envelope at every b > 0 (Devroye 2009
    bounds the same kernel). Its mass min(pi, sqrt(pi/(2 b alpha))) is
    never above the uniform envelope's pi, so it accepts at least as often.
    """
    log_a0 = log_kanter_a0(alpha)
    sigma = 1.0 / math.sqrt(b * alpha)
    # the proposal's CDF on (0, pi) is (ndtr(u/sigma) - 1/2) / mass
    mass = special.ndtr(math.pi / sigma) - 0.5
    out = np.empty((2, m))
    filled = 0
    rate = 1.0  # acceptance per proposal, re-estimated each round
    while filled < m:
        chunk = int((m - filled) / rate * 1.05) + 64
        # u = 0 (a zero uniform) or u >= pi (rounding) give NaN or huge
        # log A, which the test below rejects
        u = sigma * special.ndtri(0.5 + mass * rng.random(chunk))
        log_a = log_kanter_a(u, alpha)
        excess = b * (log_a - log_a0 - 0.5 * alpha * u * u)
        keep = rng.standard_exponential(chunk) > excess
        got = np.flatnonzero(keep)[:m - filled]
        out[0, filled:filled + got.size] = u[got]
        out[1, filled:filled + got.size] = log_a[got]
        filled += got.size
        rate = max(got.size, 1) / chunk
    return out


def sample_tilted_stable(spec, rng, size=None, method="auto"):
    """Draw from the polynomially tilted positive stable law of `spec`.

    The sampler is exact: conditional on an angle U drawn from the density
    proportional to A(U)^{-b} on (0, pi), with b = tilt (1-alpha)/alpha, the
    transformed draw X = (A(U)/G)^{(1-alpha)/alpha} with G ~ Gamma(1 + b) has
    the target law. At tilt = 0 this reduces to Kanter's untilted sampler.
    The angle is drawn by rejection from a truncated half-normal envelope.

    Args:
        spec: TiltedStableSpec with the stability index and tilt exponent.
        rng: numpy Generator.
        size: None for a scalar, else number of draws.
        method: "auto" uses the inverse-gamma closed form at alpha = 1/2;
            "general" forces the angle-decomposition path at any alpha.

    Returns:
        float or array of strictly positive draws.
    """
    if method not in ("auto", "general"):
        raise ValueError(f"unknown method {method!r}")
    alpha, tilt = spec.alpha, spec.tilt
    m = 1 if size is None else int(size)
    if method == "auto" and alpha == 0.5:
        # x^{-tilt} f_{1/2}(x) is inverse-gamma with shape tilt + 1/2, scale 1/4
        x = 0.25 / rng.gamma(tilt + 0.5, size=m)
    else:
        b = tilt * (1.0 - alpha) / alpha
        if b == 0.0:
            log_a = log_kanter_a(rng.uniform(1e-12, math.pi - 1e-12, size=m), alpha)
        else:
            _, log_a = _sample_tilt_angle(alpha, b, rng, m)
        g = np.maximum(rng.gamma(1.0 + b, size=m), 1e-300)
        x = np.exp((1.0 - alpha) / alpha * (log_a - np.log(g)))
    return float(x[0]) if size is None else x
