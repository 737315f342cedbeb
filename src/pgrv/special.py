"""Numerically stable special functions shared by every sampler.

All functions are pure and safe to call concurrently.  ``utan`` and
``log_cosh`` take numpy arrays too; the rest are float arithmetic on
:mod:`math`, so that drawing loads no scipy.
"""

import math

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "utan",
    "log_cosh",
    "inverse_gaussian_log_cdf",
    "log_ndtr",
    "gammaincc",
    "UTAN_SINGULARITY",
]

# First singularity of tan(sqrt(s)) sits at sqrt(s) = pi/2.
UTAN_SINGULARITY = np.pi ** 2 / 4.0

# Below this the direct quotient loses digits to 0/0 cancellation; a
# 3-term Taylor series is exact to well under 1e-12 there.
_UTAN_TAYLOR_CUT = 1e-6

_LOG2 = np.log(2.0)
_LOG_2PI = math.log(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)
_EPS = 2.0 ** -52
# Q(a, x) term cap: near x = a either expansion takes about sqrt(78 a) terms
_GAMMAINCC_MAX_TERMS = 100_000


def utan(s):
    """Evaluate tan(sqrt(s))/sqrt(s), continued through s=0.

    For s < 0 this is tanh(sqrt(-s))/sqrt(-s) (the same analytic
    function); the value at 0 is 1.  Strictly increasing on its domain
    (-inf, pi^2/4).

    Parameters
    ----------
    s : float or array_like
        Argument(s); every entry must satisfy s < pi^2/4.

    Returns
    -------
    float or ndarray
    """
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    if np.any(s >= UTAN_SINGULARITY):
        raise ValueError("utan: argument must be below pi^2/4")
    out = np.empty_like(s)
    tiny = np.abs(s) < _UTAN_TAYLOR_CUT
    st = s[tiny]
    out[tiny] = 1.0 + st / 3.0 + 2.0 * st * st / 15.0
    pos = (s >= _UTAN_TAYLOR_CUT)
    rp = np.sqrt(s[pos])
    out[pos] = np.tan(rp) / rp
    neg = (s <= -_UTAN_TAYLOR_CUT)
    rn = np.sqrt(-s[neg])
    out[neg] = np.tanh(rn) / rn
    return float(out[0]) if scalar else out


def log_cosh(z):
    """Overflow-free log(cosh(z)), valid over the whole double range.

    Computed as |z| + log1p(exp(-2|z|)) - log 2.
    """
    z = np.abs(np.asarray(z, dtype=float))
    return z + np.log1p(np.exp(-2.0 * z)) - _LOG2


def log_ndtr(x):
    """log Phi(x) of a float, by ``math.erfc`` down to -20 and below that
    by ten terms of the asymptotic series in 1/x^2."""
    if x > 0.0:  # Phi near 1
        return math.log1p(-0.5 * math.erfc(x * _SQRT1_2))
    if x > -20.0:
        return math.log(0.5 * math.erfc(-x * _SQRT1_2))
    series, r = 1.0, 1.0 / (x * x)
    for k in range(19, 0, -2):  # Horner over (-1)^i (2i-1)!! x^{-2i}
        series = 1.0 - k * r * series
    return math.log(series) - 0.5 * x * x - math.log(-x) - 0.5 * _LOG_2PI


def inverse_gaussian_log_cdf(x, mu, lam):
    """log of the inverse-Gaussian distribution function at a float x.

    Uses the two-Phi representation
        F(x) = Phi(sqrt(lam/x)(x/mu - 1)) + exp(2 lam/mu) Phi(-sqrt(lam/x)(x/mu + 1))
    with both terms combined in log space, so large lam/mu does not
    overflow.  ``mu=inf`` is accepted and gives the zero-drift limit
    2 Phi(-sqrt(lam/x)); other non-positive, infinite or NaN arguments
    raise ValueError.
    """
    x, mu, lam = float(x), float(mu), float(lam)
    if not (0.0 < x < math.inf and mu > 0.0 and 0.0 < lam < math.inf):
        raise ValueError("inverse_gaussian_log_cdf: arguments must be positive")
    # x/mu and 2 lam/mu are exactly 0 at mu=inf: the zero-drift limit
    rt = math.sqrt(lam / x)
    ratio = x / mu
    return float(np.logaddexp(log_ndtr(rt * (ratio - 1.0)),
                              2.0 * lam / mu + log_ndtr(-rt * (ratio + 1.0))))


def gammaincc(a, x):
    """Regularised upper incomplete gamma Q(a, x) of finite a > 0, x >= 0:
    e^-x at a = 1, erfc(sqrt x) at a = 1/2, else x^a e^-x/Gamma(a) times the
    series of P = 1 - Q below x = a + 1 (x = 5 too at a >= 1), else
    Legendre's continued fraction.  Within 1e-12 relative of scipy's
    gammaincc for 1 <= a <= 170, 3e-11 up to a = 1e4, where Q > 1e-250 (the
    prefactor's log cancels near x = a); ConvergenceError past the term cap."""
    a, x = float(a), float(x)
    if not (0.0 < a < math.inf and 0.0 <= x < math.inf):  # NaN fails too
        raise ValueError("gammaincc: requires finite a > 0 and x >= 0")
    if a == 1.0 or a == 0.5:
        return math.exp(-x) if a == 1.0 else math.erfc(math.sqrt(x))
    front = math.exp(a * math.log(x) - x - math.lgamma(a)) if x else 0.0
    # cheaper terms win below x = 5 at a <= 4; there Q > e^-5 for a >= 1
    if x < a + 1.0 or (a >= 1.0 and x < 5.0):
        term = total = 1.0 / a
        for n in range(1, _GAMMAINCC_MAX_TERMS):
            term *= x / (a + n)
            total += term
            if term <= total * _EPS:
                return 1.0 - front * total
    else:
        b, c = x + 1.0 - a, 1e300
        cf = d = 1.0 / b
        for n in range(1, _GAMMAINCC_MAX_TERMS):
            an, b = n * (a - n), b + 2.0
            d = 1.0 / ((an * d + b) or 1e-300)
            c = (b + an / c) or 1e-300
            cf *= d * c
            if abs(d * c - 1.0) < _EPS:
                return front * cf
    raise ConvergenceError(f"gammaincc({a!r}, {x!r}) did not converge")
