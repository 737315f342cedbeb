"""Public Polya-Gamma interface: PG(b, z) sampling, moments, and the
hybrid method dispatcher.

PG(b, z) = J*(b, z/2)/4, so every draw is produced by one of the J*
samplers and rescaled.  The hybrid rule picks the sampler by shape and
batch size: unit-draw summation for integer b up to ``DEVROYE_MAX``, the
direct real-shape sampler below ``ALTERNATE_MAX``, the saddlepoint
method up to ``SADDLE_MAX``, and a moment-matched normal beyond that.
The saddlepoint builds an envelope for every (b, z) before its first
draw, which only a batch of at least ``SADDLE_MIN_SIZE`` draws repays;
smaller batches, and every single draw, of shapes in
[``ALTERNATE_MAX``, ``SADDLE_MAX``] take the exact real-shape sampler
instead.  Shapes below 1 sit outside every exact sampler's validated
range and fall back to the gamma-convolution: a few explicit terms and a
moment-matched gamma remainder.  That method (like the saddlepoint and
normal routes) is approximate, which :attr:`Method.is_exact` records.

The sign of z is irrelevant (the density depends on z^2 and cosh), so
|z| is used throughout.
"""

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import alternate, devroye, saddle
from .density import JStarParams, jstar_mean, jstar_var, sample_gamma_sum
from .rng import MAX_REJECTION_ROUNDS, _fill_by_rejection

__all__ = [
    "PgParams",
    "Method",
    "DEVROYE_MAX",
    "ALTERNATE_MAX",
    "SADDLE_MAX",
    "SADDLE_MIN_SIZE",
    "choose_method",
    "sample_pg",
    "sample_pg_batch",
    "pg_mean",
    "pg_var",
]

@dataclass(frozen=True, init=False)
class PgParams:
    """Shape b > 0 and tilt z (any sign) of a PG(b, z) target."""

    b: float
    z: float = 0.0

    def __init__(self, b, z=0.0):
        # one call, with no __post_init__ or object.__setattr__: the
        # generated __init__ cost twice as much per PG call
        if not (b > 0.0) or not math.isfinite(b):
            raise ValueError("PgParams: shape b must be positive and finite")
        if not math.isfinite(z):
            raise ValueError("PgParams: tilt z must be finite")
        fields = self.__dict__  # frozen: __setattr__ raises
        fields["b"], fields["z"] = float(b), float(z)

    @property
    def jstar(self):
        """The equivalent J* target (shape b, tilt |z|/2)."""
        return JStarParams(self.b, abs(self.z) / 2.0)


class Method(str, Enum):
    """Sampling routes understood by the dispatcher."""

    DEVROYE = "devroye"
    ALTERNATE = "alternate"
    SADDLEPOINT = "saddlepoint"
    NORMAL = "normal-approx"
    GAMMA_SUM = "gamma-sum"

    @property
    def is_exact(self):
        """Whether draws follow the target law exactly (up to float error)."""
        return self in (Method.DEVROYE, Method.ALTERNATE)


# Shape cutoffs of the hybrid rule; DEVROYE_MAX applies to integer
# shapes only.
DEVROYE_MAX = 2
ALTERNATE_MAX = 13.0
SADDLE_MAX = 170.0

# Smallest batch the hybrid rule sends to the saddlepoint route; below it
# the saddlepoint shapes take the exact alternate sampler.  It is the
# smallest n of the ROADMAP's PR 5 crossover table (CPU time per call, a
# new tilt for every call) at which the saddlepoint beats the alternate
# sampler by 1.5x or more at some shape of its range: b = 169.5, 0.76x
# at n = 128 and 1.88x at n = 512.  Only shapes near 170 meet that bar at
# this size; at b = 13.5-40.5 the saddlepoint is still slower at n = 512.
SADDLE_MIN_SIZE = 512


def _batch_size(size, caller):
    """``size`` as an int; ValueError unless it is an integer >= 0 (a
    float or a bool is not)."""
    try:
        n = operator.index(size)
    except TypeError:
        n = -1
    if n < 0 or isinstance(size, bool):
        raise ValueError(
            f"{caller}: size must be an integer >= 0, got {size!r}")
    return n


def choose_method(b, size=None):
    """Pick the sampling route for shape b under the hybrid rule.

    ``size`` is the number of draws the route is asked for, an integer
    >= 0; below ``SADDLE_MIN_SIZE`` the saddlepoint shapes go to the
    alternate sampler.  ``size=None`` gives the answer by shape alone.
    """
    b = float(b)
    if not (b > 0.0) or not math.isfinite(b):
        raise ValueError("choose_method: b must be positive and finite")
    if size is not None:
        size = _batch_size(size, "choose_method")
    return _route(b, size)


def _route(b, size):
    # choose_method for a checked float shape and int (or None) size
    if b < 1.0:
        return Method.GAMMA_SUM
    if b == int(b) and b <= DEVROYE_MAX:
        return Method.DEVROYE
    if b < ALTERNATE_MAX:
        return Method.ALTERNATE
    if b <= SADDLE_MAX:
        if size is not None and size < SADDLE_MIN_SIZE:
            return Method.ALTERNATE
        return Method.SADDLEPOINT
    return Method.NORMAL


def _validate_method(method, b):
    if method is Method.DEVROYE and b != int(b):
        raise ValueError("devroye method requires an integer shape b")
    if method in (Method.ALTERNATE, Method.SADDLEPOINT) and b < 1.0:
        raise ValueError(f"{method.value} method requires shape b >= 1")


def _resolve_method(method, b, size):
    if method is None or method == "auto":
        return _route(b, size)
    method = Method(method)
    _validate_method(method, b)
    return method


def pg_mean(params):
    """E[PG(b, z)] = (b/(2z)) tanh(z/2); b/4 at z = 0."""
    return jstar_mean(params.jstar) / 4.0


def pg_var(params):
    """Var[PG(b, z)], from the gamma-convolution second moment."""
    return jstar_var(params.jstar) / 16.0


def _sample_normal(params, rng, size=None):
    """Moment-matched normal approximation, resampled to stay positive.

    Intended for very large shapes, where the mass below zero is
    astronomically small and the resampling loop never triggers in
    practice.
    """
    mean = pg_mean(params)
    sd = np.sqrt(pg_var(params))
    return _fill_by_rejection(size, lambda k: mean + sd * rng.normal(k),
                              lambda x: x > 0.0,
                              max_rounds=MAX_REJECTION_ROUNDS)


def _draw(m, params, rng, size):
    """PG(b, z) draws on route ``m``; ``size=None`` gives one float."""
    if m is Method.NORMAL:
        return _sample_normal(params, rng, size)
    b, zj = params.b, abs(params.z) / 2.0
    if m is Method.DEVROYE:
        x = devroye.sample_jstar_int_batch(int(b), zj, size, rng)
    elif m is Method.ALTERNATE:
        x = alternate.sample_jstar_alt_batch(b, zj, size, rng)
    elif m is Method.SADDLEPOINT:
        x = saddle.sample_saddle_batch(b, zj, size, rng)
    else:
        x = sample_gamma_sum(params.jstar, rng, size=size)
    x /= 4.0
    return x


def sample_pg(params, rng, method="auto"):
    """One draw from PG(b, z), as a float.

    The hybrid rule sees a batch of one, so it never picks the
    saddlepoint route.  ``method`` overrides the rule; invalid
    method/shape pairings (e.g. devroye with a non-integer shape) raise
    ValueError.  On the exact routes (devroye, alternate) the draw runs
    on floats end to end, its J* pieces one after another, with the
    draws and stream state of a batch of one.
    """
    m = _resolve_method(method, params.b, 1)
    return float(_draw(m, params, rng, None))


def sample_pg_batch(params, rng, size, method="auto"):
    """A fresh 1-d array of ``size`` PG(b, z) draws.

    The hybrid rule picks the route from the shape and this batch's
    length.  ``size=0`` gives an empty array; a negative size, or one
    that is not an integer (a float, a bool), raises ValueError.
    """
    n = _batch_size(size, "sample_pg_batch")
    if n == 0:
        return np.empty(0)
    return _draw(_resolve_method(method, params.b, n), params, rng, n)
