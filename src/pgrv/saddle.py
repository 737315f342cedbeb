"""Approximate J*(n, z) sampler for large shapes via the saddlepoint
(steepest-descent) density and a two-piece inverse-Gaussian/gamma
envelope.

The cumulant generating function of the unit-shape variate is
K(s) = log cosh(z) - log cos(sqrt(2u)), u = s - z^2/2, with
K'(s) = utan(2u) and K''(s) = x^2 + (1-x)/(2u) at x = K'(s).  The
saddlepoint density of the shape-n mean is
sqrt(n/(2 pi)) K''(s(x))^{-1/2} exp(n [K(s(x)) - s(x) x]).

Rather than bounding the kernel itself, the envelope bounds the exponent
phi(x) = K(s(x)) - s(x) x after subtracting the tail-shape correction
delta(x) = 1/(2 x_c) - 1/(2x) left of the paste point x_c and log(x/x_c)
right of it; the corrected function eta = phi - delta is concave on each
side of x_c, so two tangent lines enclose it.  Folding the correction
back in turns the pieces into inverse-Gaussian and gamma kernels, with
the K'' factor absorbed by the ratio bounds alpha_l, alpha_r.  Every constant is kept in log space: shapes up to a few
hundred would otherwise overflow Gamma(n) and e^{n b}.

Envelopes are immutable and cached per (n, z); building one runs a
pointwise dominance spot check and refuses to return an envelope that
fails it.  A build makes one vectorised root solve (:func:`_solve_u_vec`),
shared by the tangent points, the paste point and the spot-check points;
the sampler's accept test solves its candidates the same way, inside
:func:`_log_sp_vec`.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .density import _mean_factor
from .errors import ConvergenceError, EnvelopeValidityError
from .rng import (
    _fill_by_rejection,
    _two_piece,
    sample_truncated_gamma,
    sample_truncated_inverse_gaussian,
)
from .special import gammaincc, inverse_gaussian_log_cdf, log_cosh, utan

__all__ = [
    "U_MAX",
    "SaddleEnvelope",
    "cgf",
    "cgf_p1",
    "cgf_p2",
    "build_envelope",
    "sample_saddle_batch",
    "check_curvature_monotonicity",
]

# K blows up as u -> pi^2/8 (cos sqrt(2u) hits zero).
U_MAX = np.pi ** 2 / 8.0

_LOG_2PI = np.log(2.0 * np.pi)

_ENVELOPE_SLACK = 1e-9

# Stopping rule of the saddle solve: |utan(2u) - x| <= _SOLVE_TOL max(1, x),
# within _SOLVE_MAX_ITER safeguarded Newton steps
_SOLVE_TOL = 1e-12
_SOLVE_MAX_ITER = 200


def _check_u_domain(u):
    if np.any(u >= U_MAX):
        raise ValueError("cgf: shifted argument u = s - z^2/2 must be below pi^2/8")


def cgf(s, z):
    """Cumulant generating function K(s) of J*(1, z); K(0) = 0."""
    s = np.asarray(s, dtype=float)
    u = s - 0.5 * float(z) ** 2
    _check_u_domain(u)
    # log cos(sqrt(2u)), continued to log cosh(sqrt(-2u)) for u < 0
    u2 = 2.0 * u
    log_cos = np.zeros_like(u2)
    pos, neg = u2 > 0, u2 < 0
    log_cos[pos] = np.log(np.cos(np.sqrt(u2[pos])))
    log_cos[neg] = log_cosh(np.sqrt(-u2[neg]))
    out = log_cosh(z) - log_cos
    return float(out) if out.ndim == 0 else out


def cgf_p1(s, z):
    """K'(s) = utan(2u); strictly increasing (K is strictly convex)."""
    s = np.asarray(s, dtype=float)
    u = s - 0.5 * float(z) ** 2
    _check_u_domain(u)
    return utan(2.0 * u)


def _k2_from_utan(t, u2):
    """K'' = t^2 - (t - 1)/(2u) from t = utan(2u), with a series for the
    quotient where it cancels."""
    t = np.asarray(t, dtype=float)
    quot = np.empty_like(u2)
    tiny = np.abs(u2) < 1e-3
    st = u2[tiny]
    quot[tiny] = 1.0 / 3.0 + 2.0 * st / 15.0 + 17.0 * st * st / 315.0
    big = ~tiny
    quot[big] = (t[big] - 1.0) / u2[big]
    return t * t - quot


def cgf_p2(s, z):
    """K''(s) = x^2 + (1 - x)/(2u) at x = K'(s); equals 2/3 at u = 0."""
    s = np.asarray(s, dtype=float)
    u2 = 2.0 * (s - 0.5 * float(z) ** 2)
    _check_u_domain(u2 / 2.0)
    out = _k2_from_utan(utan(u2), u2)
    return float(out) if np.ndim(out) == 0 else out


def _u_bracket(x):
    """Brackets (lo, hi) containing the roots of utan(2u) = x, and seeds."""
    left = x < 1.0
    inv = -0.5 / (x * x)
    theta = 0.5 * np.pi - 1.0 / (np.pi * x)
    lo = np.where(left, inv - 1.0, 0.0)
    hi = np.where(left, 0.0, 0.5 * theta * theta)
    newton = 1.5 * (x - 1.0)
    seed = np.where(
        left,
        np.where(x > 0.8, np.maximum(lo + 1e-12, np.minimum(-1e-18, newton)),
                 inv),
        np.maximum(np.minimum(newton, 0.95 * hi), 1e-18))
    return lo, hi, seed


def _solve_u_vec(x):
    """Solve utan(2u) = x elementwise by safeguarded Newton, for x > 0.

    The root is the shifted dual u = s - z^2/2 of the saddle K'(s) = x:
    u < 0 for x < 1, 0 < u < pi^2/8 for x > 1, and u = 0 exactly at x = 1.

    Each element iterates on its own, so solving an array gives the same
    roots, bit for bit, as solving its elements one at a time.
    """
    shape = np.shape(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi, u = _u_bracket(x)
    exact = x == 1.0
    u[exact] = 0.0
    active = np.nonzero(~exact)[0]
    target = _SOLVE_TOL * np.maximum(1.0, x)
    for _ in range(_SOLVE_MAX_ITER):
        if active.size == 0:
            return u.reshape(shape)
        ua = u[active]
        u2 = 2.0 * ua
        t = utan(u2)
        f = t - x[active]
        done = np.abs(f) <= target[active]
        pos = f > 0.0
        hi[active[pos]] = np.minimum(hi[active[pos]], ua[pos])
        neg = ~pos
        lo[active[neg]] = np.maximum(lo[active[neg]], ua[neg])
        k2 = _k2_from_utan(t, u2)
        step = np.where(k2 > 0.0, f / np.where(k2 > 0.0, k2, 1.0), np.inf)
        un = ua - step
        bad = ~((lo[active] < un) & (un < hi[active]))
        un[bad] = 0.5 * (lo[active][bad] + hi[active][bad])
        u[active] = np.where(done, ua, un)
        active = active[~done]
    raise ConvergenceError("saddle solve did not converge")


@dataclass(frozen=True)
class SaddleEnvelope:
    """Precomputed envelope of the shape-n saddlepoint density.

    The left piece (x <= x_c) is kappa_l times an IG(1/sqrt(rho_l), n)
    density; the right piece is kappa_r times a Gamma(n, n rho_r)
    density.  All masses are stored as logs.
    """

    n: float
    z: float
    m: float
    x_l: float
    x_c: float
    x_r: float
    slope_l: float
    intercept_l: float
    slope_r: float
    intercept_r: float
    rho_l: float
    rho_r: float
    alpha_l: float
    alpha_r: float
    log_kappa_l: float
    log_kappa_r: float
    log_mass_left: float
    log_mass_right: float
    left_fraction: float

    @property
    def ig_mu(self):
        return 1.0 / np.sqrt(self.rho_l)

    @property
    def gamma_rate(self):
        return self.n * self.rho_r


def _log_envelope(env, x):
    """log of the bounding kernel k(x), vectorized."""
    x = np.asarray(x, dtype=float)
    n = env.n
    out = np.empty_like(x)
    L = x <= env.x_c
    out[L] = (0.5 * (np.log(n) - _LOG_2PI) - 0.5 * np.log(env.alpha_l)
              + n / (2.0 * env.x_c) - 1.5 * np.log(x[L]) - n / (2.0 * x[L])
              + n * (env.intercept_l + env.slope_l * x[L]))
    R = ~L
    out[R] = (0.5 * (np.log(n) - _LOG_2PI) - 0.5 * np.log(env.alpha_r)
              - n * np.log(env.x_c) + (n - 1.0) * np.log(x[R])
              + n * (env.intercept_r + env.slope_r * x[R]))
    return out


def _log_sp_at(x, u, n, z):
    """log saddlepoint density at x, given the solved shifted dual u."""
    s = u + 0.5 * float(z) ** 2
    k2 = cgf_p2(s, z)
    return (0.5 * (np.log(n) - _LOG_2PI) - 0.5 * np.log(k2)
            + n * (cgf(s, z) - s * x))


def _log_sp_vec(x, n, z):
    """log saddlepoint density of J*(n, z)/n at x, saddles solved here."""
    x = np.asarray(x, dtype=float)
    return _log_sp_at(x, _solve_u_vec(x), n, z)


@lru_cache(maxsize=512)
def _build_envelope_cached(n, z):
    m = _mean_factor(z)
    x_l = m
    x_c = 1.1 * m
    x_r = 1.2 * m
    spots = np.concatenate([
        np.logspace(np.log10(m / 20.0), np.log10(20.0 * m), 24),
        np.array([0.5 * m, x_l, x_c * (1.0 - 1e-9), x_c * (1.0 + 1e-9), x_r]),
    ])
    # one root solve for the tangent points, the paste point and the spots
    u = _solve_u_vec(np.concatenate([[x_l, x_r, x_c], spots]))
    s_l, s_r, s_c = u[:3] + 0.5 * z ** 2

    # tangent of eta at x_l (left piece): eta' = phi' - 1/(2x^2), phi' = -s
    slope_l = -s_l - 0.5 / (x_l * x_l)
    eta_l = (cgf(s_l, z) - s_l * x_l) - (0.5 / x_c - 0.5 / x_l)
    intercept_l = eta_l - slope_l * x_l

    # tangent of eta at x_r (right piece): eta' = phi' - 1/x
    slope_r = -s_r - 1.0 / x_r
    eta_r = (cgf(s_r, z) - s_r * x_r) - np.log(x_r / x_c)
    intercept_r = eta_r - slope_r * x_r

    rho_l = -2.0 * slope_l
    rho_r = -slope_r
    if rho_l <= 0.0 or rho_r <= 0.0:  # pragma: no cover - guaranteed by x_l = m
        raise EnvelopeValidityError("tangent slopes must be negative")

    # ratio bounds, tightest constants consistent with the monotonicity
    # of K''/x^3 (decreasing) and K''/x^2 (increasing)
    k2_c = cgf_p2(s_c, z)
    alpha_l = k2_c / x_c ** 3
    alpha_r = k2_c / x_c ** 2

    log_kappa_l = (-0.5 * np.log(alpha_l) + n / (2.0 * x_c)
                   + n * intercept_l - n * np.sqrt(rho_l))
    log_kappa_r = (0.5 * (np.log(n) - _LOG_2PI) - 0.5 * np.log(alpha_r)
                   - n * np.log(x_c) + n * intercept_r
                   + math.lgamma(n) - n * np.log(n * rho_r))

    ig_mu = 1.0 / np.sqrt(rho_l)
    log_mass_left = log_kappa_l + inverse_gaussian_log_cdf(x_c, ig_mu, n)
    tail = gammaincc(n, n * rho_r * x_c)
    log_mass_right = (log_kappa_r + np.log(tail)) if tail > 0.0 else -np.inf
    log_total = np.logaddexp(log_mass_left, log_mass_right)
    left_fraction = float(np.exp(log_mass_left - log_total))

    env = SaddleEnvelope(
        n=n, z=z, m=m, x_l=x_l, x_c=x_c, x_r=x_r,
        slope_l=float(slope_l), intercept_l=float(intercept_l),
        slope_r=float(slope_r), intercept_r=float(intercept_r),
        rho_l=float(rho_l), rho_r=float(rho_r),
        alpha_l=float(alpha_l), alpha_r=float(alpha_r),
        log_kappa_l=float(log_kappa_l), log_kappa_r=float(log_kappa_r),
        log_mass_left=float(log_mass_left),
        log_mass_right=float(log_mass_right),
        left_fraction=left_fraction,
    )

    # dominance spot check before the envelope is allowed out the door
    gap = _log_envelope(env, spots) - _log_sp_at(spots, u[3:], n, z)
    if gap.min() < np.log1p(-_ENVELOPE_SLACK):
        raise EnvelopeValidityError(
            f"saddlepoint envelope fails dominance at n={n}, z={z} "
            f"(worst log gap {gap.min():.3e})"
        )
    return env


def build_envelope(n, z):
    """Envelope for the shape-n saddlepoint density, cached per (n, z).

    Raises ValueError unless n is finite and positive and z finite, and
    :class:`EnvelopeValidityError` if the construction fails its
    dominance spot check.
    """
    n, z = float(n), float(abs(z))
    if not (0.0 < n < math.inf and z < math.inf):  # NaN fails too
        raise ValueError("build_envelope: n must be finite and positive, "
                         "z finite")
    return _build_envelope_cached(n, z)


def sample_saddle_batch(n, z, size, rng, counters=None):
    """Fill an array with approximate J*(n, z) draws (saddlepoint method);
    ``size=None`` gives one float.

    Intended for large shapes (n of order 10 and up); the relative density
    error of the saddlepoint approximation decays like 1/n.
    """
    n = float(n)
    z = float(abs(z))
    env = build_envelope(n, z)
    propose = _two_piece(
        rng, env.left_fraction,
        lambda m: sample_truncated_inverse_gaussian(env.ig_mu, n, env.x_c, rng,
                                                    size=m),
        lambda m: sample_truncated_gamma(n, env.gamma_rate, env.x_c, rng,
                                         size=m),
        counters)

    def accept(x):
        return (np.log(rng.uniform(x.size)) + _log_envelope(env, x)
                <= _log_sp_vec(x, n, z))

    return n * _fill_by_rejection(size, propose, accept, counters)


def check_curvature_monotonicity(z):
    """Grid check of the curvature-ratio monotonicity the envelope relies on.

    Over 2,000 log-spaced points from m/50 to 50 m (m = E[J*(1, z)]),
    checks that K''(s(x))/x^2 is increasing and K''(s(x))/x^3 is
    decreasing and that both stay at or below 1.  Returns a dict of
    booleans, one per property; it never warns, and ``pgrv validate``
    reports a failure as a failing row.  There is no known proof of these
    monotonicities, which is why the envelope additionally spot-checks
    dominance at build time.
    """
    z = float(abs(z))
    m = _mean_factor(z)
    x = np.logspace(np.log10(m / 50.0), np.log10(50.0 * m), 2000)
    u = _solve_u_vec(x)
    k2 = cgf_p2(u + 0.5 * z * z, z)
    r2 = k2 / x ** 2
    r3 = k2 / x ** 3
    # both ratios live in (0, 1]; 1e-10 absorbs solver/rounding noise on
    # the saturated plateaus while catching any real reversal
    noise = 1e-10
    return {
        "ratio_x2_increasing": bool(np.all(np.diff(r2) >= -noise)),
        "ratio_x2_bounded": bool(r2.max() <= 1.0 + 1e-9),
        "ratio_x3_decreasing": bool(np.all(np.diff(r3) <= noise)),
        "ratio_x3_bounded": bool(r3.max() <= 1.0 + 1e-9),
    }
