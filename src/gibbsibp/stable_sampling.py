"""Random variate generation for positive alpha-stable laws and their
polynomially tilted relatives."""

import math
from dataclasses import dataclass

import numpy as np

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
    # density on (0, pi) proportional to A(u)^{-b}; A is increasing, so a
    # uniform proposal with envelope A(0+)^{-b} is exact
    log_a0 = log_kanter_a0(alpha)
    out = np.empty(m)
    filled = 0
    # uniform-proposal acceptance is ~ 1/sqrt(2 pi b alpha (1-alpha)) for
    # large b, so oversample accordingly
    rate_guess = max(min(1.0, 1.0 / math.sqrt(2.0 * math.pi * b * alpha * (1.0 - alpha))), 1e-3)
    while filled < m:
        chunk = int((m - filled) / rate_guess * 1.2) + 64
        u = rng.uniform(1e-12, math.pi - 1e-12, size=chunk)
        log_ratio = b * (log_a0 - log_kanter_a(u, alpha))
        keep = np.log(rng.uniform(size=chunk)) < log_ratio
        got = u[keep]
        take = min(got.size, m - filled)
        out[filled:filled + take] = got[:take]
        filled += take
    return out


def sample_tilted_stable(spec, rng, size=None, method="auto"):
    """Draw from the polynomially tilted positive stable law of `spec`.

    The sampler is exact: conditional on an angle U drawn from the density
    proportional to A(U)^{-b} on (0, pi), with b = tilt (1-alpha)/alpha, the
    transformed draw X = (A(U)/G)^{(1-alpha)/alpha} with G ~ Gamma(1 + b) has
    the target law. At tilt = 0 this reduces to Kanter's untilted sampler.

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
            u = rng.uniform(1e-12, math.pi - 1e-12, size=m)
        else:
            u = _sample_tilt_angle(alpha, b, rng, m)
        g = np.maximum(rng.gamma(1.0 + b, size=m), 1e-300)
        x = np.exp((1.0 - alpha) / alpha * (log_kanter_a(u, alpha) - np.log(g)))
    return float(x[0]) if size is None else x
