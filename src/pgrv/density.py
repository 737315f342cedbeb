"""Exact density machinery for the J*(h, z) family.

The J*(h) density is an alternating series of inverse-Gaussian-type
terms; tilting by z multiplies it by cosh^h(z) exp(-x z^2/2).  This
module provides the density, the one coefficient-ratio recurrence and
the one partial-sum routine built on it (numpy or mpmath arithmetic),
the proposal mixture of the left/right bounding kernels, the one t(h)
table the samplers read ([1, 4] by 0.0025, then log-spaced to 64;
``pgrv table`` prints it), analytic moments, the gamma-convolution
sampler (the route below shape 1, and the validation oracle; it sets its
own term count), and the numerical domination check for the bounding
kernels.  The series coefficients and the kernels are kept as untilted
logs, the form the samplers use.
The series cancels deep in the right tail (no correct double digit near
x = 35); every caller that sums it goes through :func:`_trusted_ratio_sum`.

Everything here is pure and thread-safe except :func:`sample_gamma_sum`,
which consumes an RngStream.  The t(h) table ships as the package file
``trunc_table.csv``, the roots of ell(x|h) = r(x|h) at zero tilt; the
tests solve them with scipy and hold the file to that solver bit for
bit.  It is read once at import and read-only afterwards, so no draw
solves a root and the package needs no scipy to draw.
"""

import bisect
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError
from .special import (
    _logaddexp,
    gammaincc,
    inverse_gaussian_log_cdf,
    log_cosh,
    log_gamma_fn,
)

__all__ = [
    "JStarParams",
    "ProposalMixture",
    "c_index",
    "coef_ratio",
    "density",
    "sample_gamma_sum",
    "jstar_mean",
    "jstar_var",
    "tilt_rate",
    "trunc_lookup",
    "default_trunc_table",
    "DominationReport",
    "verify_domination",
]

# Python floats with numpy's bits, so float arithmetic stays in floats
_LOG2 = float(np.log(2.0))
_LOG_2PI = float(np.log(2.0 * np.pi))
_LOG_HALF_PI = float(np.log(np.pi / 2.0))

TRUNC_H_MIN = 1.0
TRUNC_H_MAX = 64.0

# Relative slack allowed before a bounding-kernel ratio counts as a
# domination failure.
DOMINATION_SLACK = 1e-9

# Stopping rule of the ratio sums: relative increment, and the term cap
_SUM_REL_TOL = 1e-17
_SUM_MAX_TERMS = 10_000

# Rounding bound of a ratio sum, per eps * sum |terms|: against mpmath,
# double partial sums erred by at most 1.6 units over 24,000 random
# (h, x) in [1, 4] x [1, 400], and 2.1 over 80,000 in (4, 64] x [0.01h,
# 20h] at the sums the decider compares (earlier ones err by up to 5.9)
_SUM_ULPS = 4.0
SUM_ROUNDING = _SUM_ULPS * float(np.finfo(float).eps)


@dataclass(frozen=True)
class JStarParams:
    """Shape h > 0 and tilt z >= 0 identifying a J*(h, z) target.

    A negative tilt is folded to |z|: the density depends on z only
    through z^2 and cosh(z).
    """

    h: float
    z: float = 0.0

    def __post_init__(self):
        if not (self.h > 0.0) or not math.isfinite(self.h):
            raise ValueError("JStarParams: shape h must be positive and finite")
        if not math.isfinite(self.z):
            raise ValueError("JStarParams: tilt z must be finite")
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "z", float(abs(self.z)))


def c_index(n):
    """n-th factorization rate (pi^2/2)(n + 1/2)^2 of the untilted family."""
    n = np.asarray(n, dtype=float)
    out = 0.5 * np.pi ** 2 * (n + 0.5) ** 2
    return float(out) if out.ndim == 0 else out


def tilt_rate(z):
    """Rate pi^2/8 + z^2/2 of the right-hand (gamma) bounding kernel."""
    return np.pi ** 2 / 8.0 + 0.5 * float(z) ** 2


def coef_ratio(n, x, h):
    """Ratio a_{n+1}/a_n of successive left-series coefficients, for x > 0.

    Independent of the tilt.  Strictly decreasing in n and increasing in
    x, so once it drops below 1 the coefficients decrease for every
    larger n.  The arithmetic follows ``x``: numpy for floats and arrays,
    mpmath (at its working precision) for an ``mpf``.
    """
    if h < 1:
        raise ValueError("coef_ratio: requires h >= 1")
    front, rate = _coef_ratio_parts(n, h)
    return front * getattr(x, "context", np).exp(-(2 / x) * rate)


def _coef_ratio_parts(n, h):
    """(front, rate): :func:`coef_ratio` is front * exp(-(2/x) rate)."""
    return (1 + (h - 1) / (n + 1)) * (1 + 2 / (2 * n + h)), (2 * n + h) + 1


def _ratio_sum(x, h, rel_tol, max_terms):
    """Alternating sum of the coefficient ratios t_n = a_n/a_0, i.e. f/a_0.

    Returns (sum, its rounding bound ``_SUM_ULPS`` * eps * sum |terms|).
    Working with ratios keeps the arithmetic well scaled even where a_0
    itself would under- or overflow.  ``x`` may be a float, an array
    (summed until every entry has converged) or an mpmath ``mpf``, whose
    working precision sets eps.
    """
    ctx = getattr(x, "context", None)
    eps, floor = (ctx.eps, 0) if ctx else (np.finfo(float).eps, 1e-300)
    t = s = absum = 1.0
    sign = -1.0
    for n in range(max_terms):
        r = coef_ratio(n, x, h)
        t = t * r
        s = s + sign * t
        absum = absum + t
        sign = -sign
        if np.all(r < 1.0) and np.all(t <= rel_tol * abs(s) + floor):
            return s, _SUM_ULPS * eps * absum
    raise ConvergenceError(
        f"ratio series did not converge within {max_terms} terms"
    )


def _trusted_ratio_sum(x, h, rel_err, log_scale=0.0):
    """f/a_0 times e^``log_scale`` at x > 0 to relative error ``rel_err``.

    ``x`` and ``log_scale`` broadcast to one array, which is summed in
    doubles; a scalar ``x`` is summed as a one-element array and returned
    as a float.  The double sum stands where its rounding bound is at
    most ``rel_err`` times its value.  Every other point is re-summed in
    mpmath, in one private context per call, with digits for the
    cancellation if f/a_0 ~ min(1, r/ell) (f <= min(ell, r), and f/r
    tends to 1), then twice as many until mpmath's bound meets
    ``rel_err``; it is scaled before it is rounded to a double, so
    f/r = f/a_0 * ell/r stays finite where ell/r overflows a double.
    """
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s, err = _ratio_sum(x, h, _SUM_REL_TOL, _SUM_MAX_TERMS)
    redo = err > rel_err * np.abs(s)
    log_scale = np.broadcast_to(log_scale, s.shape)
    s *= np.exp(np.where(redo, 0.0, log_scale))
    if redo.any():
        import mpmath

        ctx = mpmath.MPContext()  # private, so no shared precision changes
        lost = np.maximum(0.0, _log_kernel_ell_unit(x[redo], h)
                          - _log_kernel_r_unit(x[redo], h, tilt_rate(0.0)))
        for i, lost_i in zip(np.nonzero(redo)[0].tolist(), lost.tolist()):
            si, ei = s[i], err[i]
            dps = (10.0 + lost_i / math.log(10.0)
                   + math.log10(ei / (rel_err * np.finfo(float).eps)))
            while ei > rel_err * abs(si):
                ctx.dps, dps = math.ceil(dps), 2.0 * dps
                si, ei = _ratio_sum(ctx.mpf(float(x[i])), ctx.mpf(float(h)),
                                    rel_err / 16.0, _SUM_MAX_TERMS)
            s[i] = float(si * ctx.exp(float(log_scale[i])))
    return float(s[0]) if scalar else s


def density(x, params):
    """Density of J*(h, z) at finite x > 0, for shapes h >= 1.

    The alternating series is summed until the relative increment falls
    below 1e-17; a :class:`ConvergenceError` is raised when 10,000 terms
    do not suffice.  The series is proven to converge only for h >= 1
    (see :func:`coef_ratio`), so smaller shapes raise ValueError.  The
    result is good to about 1e-12 relative at every x: where the double
    sum cancels, deep in the right tail, it is re-summed in mpmath
    (:func:`_trusted_ratio_sum`).

    Where the tilted right kernel cosh^h(z) e^{-x z^2/2} r(x | h) rounds
    to zero, so does f, and 0.0 is returned without a sum: f <= r at
    every x for h >= 1.  J* is G + R with G ~ Gamma(h, pi^2/8), its first
    term, and R >= 0 independent of G, so f(x) = E g(x - R) for the
    Gamma density g.  With h >= 1, (x - R)^{h-1} <= x^{h-1}, hence
    g(x - R) <= g(x) e^{pi^2 R/8}, and E e^{pi^2 R/8}
    = prod_{k>=1} (1 - (2k+1)^{-2})^{-h} = (4/pi)^h, which turns g into r.
    """
    x = float(x)
    if not (0.0 < x < math.inf):
        raise ValueError(f"density: x must be positive and finite, got {x}")
    h, z = params.h, params.z
    if h < 1.0:
        raise ValueError(f"density: shape h={h} is below 1, where the "
                         "series is not known to converge")
    tilt = h * log_cosh(z) - 0.5 * x * z * z
    if np.exp(tilt + _log_kernel_r_unit(x, h, tilt_rate(0.0))) == 0.0:
        return 0.0
    s = _trusted_ratio_sum(x, h, 1e-12)
    if s <= 0.0:
        return 0.0
    log_f = tilt + _log_kernel_ell_unit(x, h) + np.log(s)
    return float(np.exp(log_f))


@functools.lru_cache(maxsize=16)
def _gamma_sum_rates(n_terms):
    """The untilted rates c_0, ..., c_{n_terms-1}, shared read-only."""
    c = c_index(np.arange(n_terms))
    c.flags.writeable = False
    return c


# the term-count rule of sample_gamma_sum: N = max(20, ceil(2/h))
_GAMMA_SUM_MIN_TERMS = 20
_GAMMA_SUM_MIN_HN = 2.0


def sample_gamma_sum(params, rng, size=None):
    """Gamma-convolution draw: sum_{n<N} g_n / d_n(z) plus one gamma
    remainder standing in for the dropped terms.

    The g_n are iid Gamma(h, 1), and N = max(20, ceil(2/h)), with h
    floored at 1e-4.  The remainder is a gamma variate with the mean and
    variance of sum_{n>=N} g_n / d_n(z), that is
    ``jstar_mean``/``jstar_var`` minus the explicit terms' share; it is
    skipped when either moment rounds to zero or below.  So every draw
    has the exact mean and variance of J*(h, z), and only the shape
    beyond the variance is approximate:

    - Third cumulant.  Every cumulant is h times a sum over n, so its
      relative error does not depend on h.  With 20 terms it is at most
      1.5e-5 of the total for PG tilts |z| <= 20, 1.6% at 100, 8.8% at
      200 and 28% at 1e3, tending to a third (too small) as |z| grows
      and the remainder carries all the variance.
    - KS distance.  The remainder's shape is about 3 h N at z = 0; below
      h N = 2 it puts too much mass near 0 (KS distance to a long
      reference 0.015 at h N = 0.5, 0.075 at 0.2, 0.55 at 0.02), hence
      the 2/h terms.  With h N >= 2 and N >= 20, the distance stayed at
      or below 0.018 at h = 1e-4, 1e-3, 0.01, 0.05, 0.1 and 0.5 and PG
      |z| = 0, 20, 1e3 and 1e5, the largest at h = 1e-3 and at h = 0.05,
      |z| = 1e3.  (Samples of 20,000-50,000 draws against 10,000-20,000
      reference draws of at least 20,000 terms, so distances below about
      0.01-0.017 are noise.)
    - Underflow.  h N >= 2 also keeps a draw from underflowing to
      exactly 0, which a lone Gamma(h) term does with chance about
      e^{-740 h} (0.93 at h = 1e-4).  N stops growing at h = 1e-4
      (20,000 terms); no bound is claimed below.
    """
    h = params.h
    n_terms = max(_GAMMA_SUM_MIN_TERMS,
                  math.ceil(_GAMMA_SUM_MIN_HN / max(h, 1e-4)))
    w = 1.0 / (_gamma_sum_rates(n_terms) + 0.5 * params.z * params.z)
    tail_mean = jstar_mean(params) - h * float(np.add.reduce(w))
    tail_var = jstar_var(params) - h * float(w @ w)
    if size is None:
        x = float(rng.gamma(h, size=n_terms) @ w)
    else:
        x = np.empty(int(size))
        chunk = max(1, 4_000_000 // n_terms)
        for lo in range(0, x.size, chunk):
            hi = min(lo + chunk, x.size)
            x[lo:hi] = rng.gamma(h, size=(hi - lo, n_terms)) @ w
    if tail_mean > 0.0 and tail_var > 0.0:
        x += (rng.gamma(tail_mean * tail_mean / tail_var, size=size)
              * (tail_var / tail_mean))
    return x


def _mean_factor(z):
    # tanh(z)/z, with a series through z^4 where the quotient cancels
    z = abs(float(z))
    if z < 1e-4:
        z2 = z * z
        return 1.0 - z2 / 3.0 + 2.0 * z2 * z2 / 15.0
    return np.tanh(z) / z


def _var_factor(z):
    # (z tanh^2 z - z + tanh z)/z^3 -> 2/3 at z=0
    z = abs(float(z))
    if z < 0.01:
        z2 = z * z
        return 2.0 / 3.0 - 8.0 * z2 / 15.0 + 34.0 * z2 * z2 / 105.0
    t = np.tanh(z)
    return (z * t * t - z + t) / z ** 3


def jstar_mean(params):
    """E[J*(h, z)] = h tanh(z)/z (h at z = 0)."""
    return params.h * _mean_factor(params.z)


def jstar_var(params):
    """Var[J*(h, z)] = h (z tanh^2 z - z + tanh z)/z^3 (2h/3 at z = 0)."""
    return params.h * _var_factor(params.z)


@functools.lru_cache(maxsize=1024)
def _log_kernel_consts(h):
    # the x-free parts of the two log kernels below, as they sum them
    return (h * _LOG2 + np.log(h) - 0.5 * _LOG_2PI,
            h * _LOG_HALF_PI - log_gamma_fn(h))


def _log_kernel_ell_unit(x, h):
    """log of the untilted left bounding kernel 2^h (h/sqrt(2 pi))
    x^{-3/2} e^{-h^2/(2x)}: the leading coefficient a_0^L(x | h), and 2^h
    times an inverse-gamma(1/2, h^2/2) density.  Tilting multiplies it by
    cosh^h(z) e^{-x z^2/2}."""
    return _log_kernel_consts(h)[0] - 1.5 * np.log(x) - h * h / (2.0 * x)


def _log_kernel_r_unit(x, h, lam_z):
    """log of the right bounding kernel (pi/2)^h x^{h-1} e^{-lam_z x}/Gamma(h),
    proportional to a Gamma(h, lam_z) density; the tilted kernel has
    lam_z = :func:`tilt_rate` (z) and a cosh^h(z) factor."""
    return _log_kernel_consts(h)[1] + (h - 1.0) * np.log(x) - lam_z * x


class ProposalMixture(NamedTuple):
    """Two-component bounding-kernel mixture pasted at ``trunc``.

    Left of the paste point the kernel is inverse-Gaussian type
    (IG(mu=h/z, lam=h^2); the inverse-gamma limit at z=0), right of it a
    Gamma(h, lam_z).  The masses are kept as logs ``log_p``/``log_q``,
    so p/(p+q) stays defined where both underflow at large h z.  They
    omit the common cosh^h(z) factor, which cancels from both the
    component probability and the acceptance ratio.  ``left_fraction``
    is p/(p+q), the chance that a proposal comes from the left kernel.

    A tuple, not a frozen dataclass: the exact samplers build one per
    batch, and a tuple costs half as much to build.  One draw builds one
    only where its side choice cannot be squeezed (:mod:`pgrv.devroye`).
    """

    trunc: float
    log_p: float
    log_q: float
    left_fraction: float
    h: float
    z: float
    lam_z: float


def build_mixture(trunc, h, z):
    """The :class:`ProposalMixture` of J*(h, |z|) pasted at ``trunc``.

    The exact samplers build one per batch, so it runs on floats.  Its
    values keep the bits of numpy's arithmetic: ``exp`` and ``log``
    stay numpy's, whose results can differ from :mod:`math`'s in the
    last ulp.  ``trunc`` and ``h`` must be finite and positive, ``z`` finite.
    """
    trunc, h, z = float(trunc), float(h), abs(float(z))
    if not (0.0 < trunc < math.inf and 0.0 < h < math.inf and z < math.inf):
        raise ValueError("build_mixture: needs finite trunc, h > 0 and z")
    lam_z = tilt_rate(z)
    if z == 0.0:
        log_p = h * _LOG2 + np.log(gammaincc(0.5, h * h / (2.0 * trunc)))
    else:
        log_p = (h * (_LOG2 - z)
                 + inverse_gaussian_log_cdf(trunc, h / z, h * h))
    q_tail = gammaincc(h, lam_z * trunc)
    # once the tail underflows, q/p < e^-500 and the fraction is exactly 1
    log_q = (h * (_LOG_HALF_PI - np.log(lam_z)) + np.log(q_tail)
             if q_tail > 0.0 else -math.inf)
    log_p, log_q = float(log_p), float(log_q)
    left_fraction = float(np.exp(log_p - _logaddexp(log_p, log_q)))
    return ProposalMixture(trunc, log_p, log_q, left_fraction, h, z, lam_z)


def _read_trunc_table():
    """(h array, t array, h list, t list) of the shipped table: the
    ``%.17g`` rows of ``pgrv table``, which parse back to the bits the
    solver found."""
    path = Path(__file__).with_name("trunc_table.csv")
    hs, ts = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    hs.flags.writeable = ts.flags.writeable = False
    return hs, ts, hs.tolist(), ts.tolist()


_TRUNC_TABLE = _read_trunc_table()


def default_trunc_table():
    """The ``(h, t)`` table the samplers read, loaded at import from the
    package file and shared read-only."""
    return _TRUNC_TABLE[:2]


# unused here: the benchmark tracer wraps this name (its
# ``density.trunc_table`` span, which no draw reaches); it goes once the
# tracer drops that target
build_trunc_table = default_trunc_table


def trunc_lookup(h):
    """Paste point t(h), linearly interpolated in the built-in table.

    The bracketing row is found by bisection on the stored nodes, so the
    grid need not be uniform; the slope and offset steps are
    ``np.interp``'s, so the result has its bits, on Python floats.
    """
    h = float(h)
    _, _, hs, ts = _TRUNC_TABLE
    if not (hs[0] <= h <= hs[-1]):
        raise ValueError(
            f"trunc_lookup: h={h} outside table range [{hs[0]}, {hs[-1]}]")
    j = bisect.bisect_right(hs, h) - 1
    if hs[j] == h:
        return ts[j]
    return (ts[j + 1] - ts[j]) / (hs[j + 1] - hs[j]) * (h - hs[j]) + ts[j]


@dataclass(frozen=True)
class DominationReport:
    """Grid evidence that both bounding kernels dominate the density.

    ``rho_left = f/ell`` and ``rho_right = f/r`` are tilt-free.  ``passed``
    requires both maxima to stay within DOMINATION_SLACK of 1.
    """

    h: float
    x: np.ndarray
    rho_left: np.ndarray
    rho_right: np.ndarray

    @property
    def max_rho_left(self):
        return float(self.rho_left.max())

    @property
    def max_rho_right(self):
        return float(self.rho_right.max())

    @property
    def passed(self):
        lim = 1.0 + DOMINATION_SLACK
        return self.max_rho_left <= lim and self.max_rho_right <= lim


def verify_domination(h, x_grid=None):
    """Evaluate f/ell and f/r over a grid of finite x > 0 and report
    their maxima.

    Both come from the ratio sum f/a_0 of :func:`_trusted_ratio_sum`, to
    a hundredth of DOMINATION_SLACK.  Past x ~ 580 ell/r overflows a
    double and f/ell underflows, so there f/r is summed directly, scaled
    by ell/r, and f/ell follows from it.  The default grid is 2,000
    points on [0.01, 20], stretched by h/4 above h = 4.
    """
    h = float(h)
    if not (TRUNC_H_MIN <= h <= TRUNC_H_MAX):
        raise ValueError("verify_domination: h must lie in [1, 64]")
    if x_grid is None:
        x_grid = (np.logspace(np.log10(0.01), np.log10(20.0), 2000)
                  * max(1.0, h / 4.0))
    x = np.asarray(x_grid, dtype=float)
    if not np.all((x > 0.0) & (x < math.inf)):
        raise ValueError("verify_domination: every x must be positive and "
                         "finite")
    log_lr = _log_kernel_ell_unit(x, h) - _log_kernel_r_unit(x, h,
                                                              tilt_rate(0.0))
    scale = np.where(log_lr > 700.0, log_lr, 0.0)
    s = np.maximum(_trusted_ratio_sum(x, h, DOMINATION_SLACK / 100, scale),
                   0.0)
    rho_left, rho_right = s * np.exp(-scale), s * np.exp(log_lr - scale)
    return DominationReport(h=h, x=x, rho_left=rho_left, rho_right=rho_right)
