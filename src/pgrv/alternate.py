"""Direct J*(h, z) sampler for real shapes h in [1, 4], plus the
sum-decomposition that extends it to any h >= 1.

The proposal pastes the inverse-Gaussian-type left kernel and the gamma
right kernel at the mass-minimizing point t(h) (interpolated from a
precomputed table).  Draws are decided by the series decider of
:mod:`pgrv.devroye` under this module's coefficient policy: unlike the
unit-shape case the coefficients may increase before they decrease, so
decisions wait until the observed coefficient ratio has dropped below one
("decreasing" flag); from that point the partial sums bracket the density.

Domination of the density by the pasted kernel is numerically verified
(at every t(h) node and midpoint, by the test suite), not proven.  While
sampling, a lower partial sum above the kernel aborts the draw instead
of returning biased output; decisions the double sums cannot resolve
are taken against f/a_0 summed in mpmath.
"""

import math

import numpy as np

from . import devroye
from .density import (
    TRUNC_H_MAX,
    TRUNC_H_MIN,
    _log_kernel_ell_unit,
    _log_kernel_r_unit,
    _trusted_ratio_sum,
    build_mixture,
    coef_ratio,
    trunc_lookup,
    verify_domination,  # unused here: the benchmark tracer wraps this name
)
from .rng import (
    _fill_by_rejection,
    _two_piece,
    sample_truncated_gamma,
    sample_truncated_inverse_gaussian,
)
from .special import log_cosh

__all__ = ["sample_jstar_alt_batch", "sample_jstar_real_batch",
           "acceptance_probability"]

# untilted rate of the right kernel piece (pi^2/8)
_LAM0 = np.pi ** 2 / 8.0


def acceptance_probability(h, z):
    """Exact acceptance probability sech^h(z)/(p+q) of one proposal."""
    mix = build_mixture(trunc_lookup(h), h, z)
    return float(np.exp(-h * log_cosh(z) - np.logaddexp(mix.log_p, mix.log_q)))


class _RatioCoefficients:
    """The real-shape coefficient policy for the series decider.

    The left-series coefficients follow from a_0 by :func:`coef_ratio`.
    They may increase before they decrease, so a slot takes no decision
    until its ratio has dropped below one; the ``decreasing`` flag
    latches then, because the ratio falls with n.  The bound is the
    pasted kernel, not a_0, so the decider checks domination.

    Every coefficient and the bound are divided by a_0(x), the bound
    formed in log space: a_0 underflows at the proposals x ~ h/z once
    h z passes about 1,500, but k/a_0 and the ratios a_n/a_0 do not.
    """

    counter_keys = (None, "series_terms_max")

    def __init__(self, h, trunc):
        self.h = h
        self.trunc = trunc

    def exact_sum(self, x):
        # far below a double's resolution: mpmath always decides
        return _trusted_ratio_sum(x, self.h, 1e-20)

    def start(self, x):
        # acceptance compares against the fully untilted kernel and
        # series: the cosh^h(z) e^{-x z^2/2} factor cancels, so the right
        # piece here carries the z=0 rate (the proposal draw keeps the
        # tilted one)
        log_a0 = _log_kernel_ell_unit(x, self.h)
        if isinstance(x, float):
            log_k = (log_a0 if x < self.trunc
                     else _log_kernel_r_unit(x, self.h, _LAM0))
            self.a, self.decreasing = 1.0, False
            return float(np.exp(log_k - log_a0)), 1.0
        log_k = np.where(x < self.trunc, log_a0,
                         _log_kernel_r_unit(x, self.h, _LAM0))
        self.a = np.ones(x.shape)
        self.decreasing = np.zeros(x.shape, dtype=bool)
        return np.exp(log_k - log_a0), self.a

    def step(self, n, x, idx):
        r = coef_ratio(n - 1, x, self.h)
        if idx is None:
            self.a = a = self.a * r
            self.decreasing = dec = self.decreasing or r < 1.0
            return a, dec
        self.a[idx] = a = self.a[idx] * r
        self.decreasing[idx] = dec = self.decreasing[idx] | (r < 1.0)
        return a, dec


def sample_jstar_alt_batch(h, z, size, rng, counters=None):
    """Fill an array with J*(h, z) draws for a single shape h in [1, 4];
    ``size=None`` gives one float."""
    h = float(h)
    z = float(abs(z))
    if not (TRUNC_H_MIN <= h <= TRUNC_H_MAX):
        raise ValueError("sample_jstar_alt_batch: h must lie in [1, 4]")
    mix = build_mixture(trunc_lookup(h), h, z)
    mu = np.inf if z == 0.0 else h / z
    policy = _RatioCoefficients(h, mix.trunc)

    def draw_right(m):
        if h == 1.0:
            return mix.trunc + rng.exponential(m) / mix.lam_z
        return sample_truncated_gamma(h, mix.lam_z, mix.trunc, rng, size=m)

    propose = _two_piece(
        rng, mix.left_fraction,
        lambda m: sample_truncated_inverse_gaussian(mu, h * h, mix.trunc, rng,
                                                    size=m),
        draw_right, counters)
    return _fill_by_rejection(
        size, propose,
        lambda x: devroye._series_decide(x, rng, policy, counters), counters)


def _pieces(h):
    """Equal-piece decomposition: m parts of shape h/m, each in (1, 4]."""
    m = max(1, math.ceil(h / TRUNC_H_MAX))
    return m, h / m


def sample_jstar_real_batch(h, z, size, rng, counters=None):
    """J*(h, z) draws for any real h >= 1.

    Shapes above 4 are drawn as a sum of m = ceil(h/4) independent
    equal-shape pieces; equal pieces keep the worst per-piece acceptance
    constant as small as possible.  ``size=None`` gives one float.
    """
    h = float(h)
    if h < TRUNC_H_MIN:
        raise ValueError("sample_jstar_real_batch: h must be >= 1")
    m, piece = _pieces(h)
    if m == 1:
        return sample_jstar_alt_batch(h, z, size, rng, counters=counters)
    k = 1 if size is None else int(size)
    draws = sample_jstar_alt_batch(piece, z, m * k, rng, counters=counters)
    sums = draws.reshape(k, m).sum(axis=1)
    return float(sums[0]) if size is None else sums
