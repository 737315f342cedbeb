"""Direct J*(h, z) sampler for real shapes h in [1, 4], and the
sum-decomposition that extends it to any h >= 1 in the same entry.

The proposal pastes the inverse-Gaussian-type left kernel and the gamma
right kernel at the mass-minimizing point t(h) (interpolated from a
precomputed table).  Draws run through the skeleton of
:mod:`pgrv.devroye` with this module's right piece and coefficient
policy.  Unlike the unit-shape case the coefficients may increase before
they decrease, so a slot takes no decision while its coefficient ratio
is at least one; the ratio falls with n, so once it is below one the
partial sums bracket the density.

Domination of the density by the pasted kernel is numerically verified
(at every t(h) node and midpoint, by the test suite), not proven.  While
sampling, a lower partial sum above the kernel aborts the draw instead
of returning biased output; decisions the double sums cannot resolve
are taken against f/a_0 summed in mpmath.
"""

import functools
import math

import numpy as np

from . import devroye
from .density import (
    TRUNC_H_MAX,
    TRUNC_H_MIN,
    _coef_ratio_parts,
    _log_kernel_ell_unit,
    _log_kernel_r_unit,
    _trusted_ratio_sum,
    build_mixture,
    trunc_lookup,
    verify_domination,  # unused here: the benchmark tracer wraps this name
)
from .rng import (
    sample_truncated_gamma,
    # unused here: the benchmark tracer wraps this name
    sample_truncated_inverse_gaussian,
)
from .special import log_cosh

__all__ = ["sample_jstar_alt_batch", "acceptance_probability"]

# untilted rate of the right kernel piece (pi^2/8)
_LAM0 = np.pi ** 2 / 8.0


def acceptance_probability(h, z):
    """Exact acceptance probability sech^h(z)/(p+q) of one proposal."""
    mix = build_mixture(trunc_lookup(h), h, z)
    return float(np.exp(-h * log_cosh(z) - np.logaddexp(mix.log_p, mix.log_q)))


class _RatioCoefficients:
    """The real-shape coefficient policy for the series decider.

    The left-series coefficients follow from a_0 by :func:`coef_ratio`.
    They may increase before they decrease, so a step says "decreasing"
    only once its ratio is below one; the ratio falls with n, so it
    stays below one from there on.  The bound is the pasted kernel, not
    a_0, so the decider checks domination.

    Every coefficient and the bound are divided by a_0(x), the bound
    formed in log space: a_0 underflows at the proposals x ~ h/z once
    h z passes about 1,500, but k/a_0 and the ratios a_n/a_0 do not.
    A step costs one ``exp``: coef_ratio's x-free parts are cached.
    """

    counter_keys = (None, "series_terms_max")

    def __init__(self, h, trunc):
        self.h = h
        self.trunc = trunc

    def exact_sum(self, x):
        # far below a double's resolution: mpmath always decides
        return _trusted_ratio_sum(x, self.h, 1e-20)

    def bound(self, x):
        # acceptance compares against the fully untilted kernel and
        # series: the cosh^h(z) e^{-x z^2/2} factor cancels, so the right
        # piece here carries the z=0 rate (the proposal draw keeps the
        # tilted one); left of the paste point the bound is a_0 itself
        if isinstance(x, float) and x < self.trunc:
            return 1.0
        log_a0 = _log_kernel_ell_unit(x, self.h)
        log_r = _log_kernel_r_unit(x, self.h, _LAM0)
        if isinstance(x, float):
            return float(np.exp(log_r - log_a0))
        return np.exp(np.where(x < self.trunc, log_a0, log_r) - log_a0)

    def step(self, n, x, a_prev):
        front, rate = _cached_ratio_parts(n - 1, self.h)
        r = front * np.exp(-(2 / x) * rate)
        return a_prev * r, r < 1.0


_cached_ratio_parts = functools.lru_cache(maxsize=4096)(_coef_ratio_parts)


def _pieces(h):
    """Equal-piece decomposition: m parts of shape h/m, each in (1, 4]."""
    m = max(1, math.ceil(h / TRUNC_H_MAX))
    return m, h / m


def sample_jstar_alt_batch(h, z, size, rng, counters=None):
    """Fill an array with J*(h, z) draws for any real h >= 1;
    ``size=None`` gives one float.

    Shapes above 4 are drawn as a sum of m = ceil(h/4) independent
    equal-shape pieces, all m*k of them from one mixture in one run of
    the skeleton; equal pieces keep the worst per-piece acceptance
    constant as small as possible.
    """
    h = float(h)
    if not (TRUNC_H_MIN <= h < math.inf):
        raise ValueError("sample_jstar_alt_batch: h must be finite and >= 1")
    m, piece = _pieces(h)
    mix = build_mixture(trunc_lookup(piece), piece, z)
    policy = _RatioCoefficients(piece, mix.trunc)
    draw_right = None if piece == 1.0 else (lambda k: sample_truncated_gamma(
        piece, mix.lam_z, mix.trunc, rng, size=k))
    if m == 1:
        return devroye._sample_pasted(mix, policy, draw_right, size, rng,
                                      counters)
    return devroye._sum_pieces(m, size, lambda k: devroye._sample_pasted(
        mix, policy, draw_right, k, rng, counters))
