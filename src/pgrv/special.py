"""Numerically stable scalar special functions shared by every sampler.

All functions accept floats or numpy arrays and are pure; they are safe to
call concurrently.  Log-gamma and normal log-CDF evaluations are backed
by scipy.special.
"""

import math

import numpy as np
from scipy import special as sc

__all__ = [
    "utan",
    "log_cosh",
    "inverse_gaussian_log_cdf",
    "log_gamma_fn",
    "UTAN_SINGULARITY",
]

# First singularity of tan(sqrt(s)) sits at sqrt(s) = pi/2.
UTAN_SINGULARITY = np.pi ** 2 / 4.0

# Below this the direct quotient loses digits to 0/0 cancellation; a
# 3-term Taylor series is exact to well under 1e-12 there.
_UTAN_TAYLOR_CUT = 1e-6

_LOG2 = np.log(2.0)


def _logaddexp(a, b):
    """``np.logaddexp`` of two floats, by the same steps: numpy computes
    it with libm's exp and log1p, not its SIMD loops, so the bits agree
    at a fraction of the cost of a ufunc call."""
    if a == b:
        # equal infinities give themselves, without a nan from inf - inf
        return a + math.log(2.0)
    d = a - b
    if d > 0.0:
        return a + math.log1p(math.exp(-d))
    if d <= 0.0:
        return b + math.log1p(math.exp(d))
    return d  # nan


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


def inverse_gaussian_log_cdf(x, mu, lam):
    """log of the inverse-Gaussian distribution function.

    Uses the two-Phi representation
        F(x) = Phi(sqrt(lam/x)(x/mu - 1)) + exp(2 lam/mu) Phi(-sqrt(lam/x)(x/mu + 1))
    with both terms combined in log space, so large lam/mu does not
    overflow.  ``mu=inf`` is accepted and gives the zero-drift limit
    2 Phi(-sqrt(lam/x)).  Float arguments cost float arithmetic (with
    the bits of the array path) and give a float; arrays broadcast.
    """
    bad = (x <= 0.0) | (mu <= 0.0) | (lam <= 0.0)
    floats = type(bad) is bool
    if bad if floats else bad.any():
        raise ValueError("inverse_gaussian_log_cdf: arguments must be positive")
    # x/mu and 2 lam/mu are exactly 0 at mu=inf: the zero-drift limit
    rt = math.sqrt(lam / x) if floats else np.sqrt(lam / x)
    ratio = x / mu
    a = sc.log_ndtr(rt * (ratio - 1.0))
    b = 2.0 * lam / mu + sc.log_ndtr(-rt * (ratio + 1.0))
    if floats:
        return _logaddexp(float(a), float(b))
    out = np.logaddexp(a, b)
    return float(out) if out.ndim == 0 else out


def log_gamma_fn(x):
    """log Gamma(x) for x > 0."""
    bad = x <= 0.0
    if bad if type(bad) is bool else bad.any():
        raise ValueError("log_gamma_fn: argument must be positive")
    out = sc.gammaln(x)
    return float(out) if out.ndim == 0 else out
