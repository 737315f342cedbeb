"""Exact J*(1, z) sampler, integer-shape J*(n, z) by summation, and the
path both exact J* samplers share: one skeleton, the alternating-series
decider it runs, and the sums of pieces for multi-piece shapes.

The unit-shape density has two alternating-series representations whose
coefficients decrease on overlapping intervals; pasting them at
t = 2/pi makes every coefficient sequence decreasing, so a draw from the
leading-coefficient proposal can be accepted or rejected after finitely
many partial sums.  The proposal is a truncated inverse-Gaussian /
truncated-exponential mixture.

The skeleton :func:`_sample_pasted` also runs the real-shape sampler of
:mod:`pgrv.alternate`; the two differ only in the mixture (paste point),
the right piece and the coefficient policy.  A policy is stateless:
``bound(x)`` gives k(x)/a_0(x) and ``step(n, x, a_prev)`` gives
(a_n/a_0, whether the coefficients decrease from n on).  The decider
keeps every per-slot sum.  The accept/reject comparison uses the
untilted coefficients: the common factor cosh^h(z) e^{-x z^2/2} cancels
between the uniform's upper bound and the partial sums.

The decider :func:`_series_decide` runs the series on whole arrays of
candidates, arrays of one included, such as the last pending slot of a
batch.  One draw (``size`` None or 1) runs in :func:`_sample_one`, one
flat float loop that picks the side, draws the piece and decides it
each round on floats with :func:`_decide_one` (:func:`_decide_unit`
under devroye's policy, with the steps inlined), and sums its pieces one
after another; the float deciders take the array decider's decisions
with its counters.  Only a batch of multi-piece draws goes through
:func:`_sum_pieces`.

One draw squeezes its side choice (Devroye 1986, II.3) on a grid of
nodes h_i = 2^(i/16), |z| = j/32, each the left fraction lf = p/(p+q)
pasted at t(h_i).  lf rises with |z| at fixed h, as t(h) does not depend
on z: against x = t the tilt e^{-x z^2/2} weighs the left kernel up and
the right one down.  At |z| >= 1 it rises with h too (the tests certify
it), so at h = 1 a cell's two nodes bracket lf, and between nodes its
corners (i, j) and (i + 1, j + 1) do.  Only a side uniform inside its
cell's band, or a request off the grid, builds the mixture.
"""

import bisect
import functools

import numpy as np

from .density import (DOMINATION_SLACK, SUM_ROUNDING, build_mixture,
                      tilt_rate, trunc_lookup)
from .errors import DominationViolationError, IterationCapError
from .rng import (
    MAX_PROPOSAL_ROUNDS,
    _budget_error,
    _fill_by_rejection,
    _two_piece,
    sample_truncated_inverse_gaussian,
)

__all__ = ["TRUNC_POINT", "sample_jstar1_batch", "sample_jstar_int_batch"]

# Paste point between the two series representations; also where the two
# leading coefficients are equal.
TRUNC_POINT = 2.0 / np.pi

_MAX_SERIES_TERMS = 500

# Proposals this close to zero are rejected outright: their acceptance
# probability is negligible and the series is numerically unstable there.
_X_FLOOR = 1e-12

# a_n/a_0 = (2n + 1) e^{-n(n+1) r(x)}: r = 2/x left of the paste point,
# pi^2 x/2 right of it
_HALF_PI_SQ = 0.5 * np.pi ** 2


class _PastedCoefficients:
    """Devroye's coefficient policy for shape 1: the bound is a_0(x)
    itself, and the pasted coefficients decrease from n = 1.

    Every coefficient is divided by a_0(x), so the bound is 1: a_0
    underflows below x = 6.7e-4, where large tilts put the proposals,
    but a_n/a_0 = (2n + 1) e^{-n(n+1) r(x)} does not.  The samplers use
    the one instance ``_PASTED``, which :func:`_decide_unit` decides on
    floats without calling it.
    """

    exact_sum = None
    counter_keys = ("series_index_sum", "series_index_max")

    def bound(self, x):
        return 1.0

    def step(self, n, x, a_prev):
        rate = np.where(x <= TRUNC_POINT, 2.0 / x, _HALF_PI_SQ * x)
        return (2.0 * n + 1.0) * np.exp(-n * (n + 1.0) * rate), True


_PASTED = _PastedCoefficients()

# the squeeze grid of the module docstring: h_i and |z| per unit
_LF_H_NODES = [2.0 ** (i / 16) for i in range(97)]
_LF_PER_UNIT = 32
_LF_END = 16.0
_LF_MARGIN = 1e-9


def _lf_band(h, z):
    """The band of the cell that holds (h, |z| = ``z``): on the h = 1 row
    below ``_LF_END``, between nodes at 1 <= z < 4, h < 64; else None."""
    if h == 1.0 and z < _LF_END:  # NaN and inf fail
        return _lf_cell(0, int(z * _LF_PER_UNIT), 0)
    if 1.0 <= z < 4.0 and h < _LF_H_NODES[-1]:
        return _lf_cell(bisect.bisect_right(_LF_H_NODES, h) - 1,
                        int(z * _LF_PER_UNIT), 1)
    return None


@functools.lru_cache(maxsize=None)  # the grid bounds it: 9,728 cells
def _lf_cell(i, j, di):
    """lf at nodes (i, j) and (i + di, j + 1), widened by ``_LF_MARGIN``;
    built on the cell's first use, so importing builds no cell."""
    lo, hi = (build_mixture(trunc_lookup(h), h, k / _LF_PER_UNIT).left_fraction
              for h, k in ((_LF_H_NODES[i], j), (_LF_H_NODES[i + di], j + 1)))
    return lo - _LF_MARGIN, hi + _LF_MARGIN


def _series_decide(x, rng, policy, counters=None):
    """Accept mask for the candidates ``x``, by the alternating series.

    The policy's coefficients are divided by a_0(x), so S_0 = 1.
    ``policy.bound(x)`` is the untilted bounding kernel k(x) over a_0; a
    uniform u on (0, k(x)) is drawn per candidate.  ``policy.step(n, x,
    a)`` turns a_{n-1} into a_n and says whether the coefficients
    decrease from n on.  Only then do the partial sums S_n bracket the
    density: accept at the first odd n with u <= S_n, reject at the first
    even n with u >= S_n.

    Under a policy with an ``exact_sum`` (the alternate one), a slot
    whose |u - S_n| is within S_n's rounding bound, ``SUM_ROUNDING`` *
    sum |terms|, or whose bracketing odd sum exceeds k (beyond slack) is
    decided by f/a_0 = ``policy.exact_sum(x)`` and counted in
    ``exact_decisions``: accept iff u <= f/a_0, and raise
    :class:`DominationViolationError` if f/a_0 exceeds k.
    """
    u = rng.uniform(x.size)
    bound = policy.bound(np.maximum(x, _X_FLOOR))
    u = u * bound
    accept = np.zeros(x.shape, dtype=bool)
    # an underflowed bound means the density vanished there; reject
    # rather than let 0 <= 0 accept a zero-density point.  The series
    # runs on the undecided slots idx only: x, u, the coefficient a, the
    # sum s and the exact rule's lim and absum are gathered to them and
    # shrink as slots decide.
    idx = np.nonzero((x > _X_FLOOR) & (bound > 0.0))[0]
    x, u = x[idx], u[idx]
    a = s = np.ones(idx.size)
    if exact := policy.exact_sum is not None:
        lim, absum = bound[idx] * (1.0 + DOMINATION_SLACK), np.ones(idx.size)
    term_sum = term_max = n_exact = 0
    for n in range(1, _MAX_SERIES_TERMS + 1):
        if not idx.size:
            break
        a, can = policy.step(n, x, a)
        # once the increments vanish the current sum decides (a measure-
        # zero event): an odd sum that does not accept rejects, an even
        # sum that does not reject accepts
        vanished = can & (a <= 1e-300)
        if n % 2:
            s = s - a
            hit = can & (u <= s)
            accept[idx[hit]] = True
        else:
            s = s + a
            hit = can & (u >= s)
            accept[idx[vanished & ~hit]] = True
        decided = hit | vanished
        if exact:
            absum += a
            gap = u - s
            close = np.abs(gap, out=gap) <= absum * SUM_ROUNDING
            if n % 2:
                # only odd sums are checked: even ones may exceed k
                # legitimately past a paste point
                close |= s > lim
            if close.any() and (close := close & can).any():
                for i in np.nonzero(close)[0].tolist():
                    accept[idx[i]] = _decide_exactly(x[i], u[i], lim[i],
                                                     policy)
                n_exact += np.count_nonzero(close)
                decided |= close
        n_decided = np.count_nonzero(decided)
        if n_decided:
            term_sum += n * n_decided
            term_max = n
            keep = ~decided
            idx = idx[keep]
            if idx.size:
                x, u, a, s = x[keep], u[keep], a[keep], s[keep]
                if exact:
                    lim, absum = lim[keep], absum[keep]
    if idx.size:
        raise _series_cap_error()
    if counters is not None and term_max:
        _count_terms(counters, policy, term_sum, term_max, n_exact)
    return accept


def _decide_one(x, u, policy, counters):
    """:func:`_series_decide` for one float candidate ``x`` and its
    uniform ``u`` on (0, 1), on floats, for :func:`_sample_one`.

    It takes the same decisions at the same n and raises the same errors
    as the array path does for that slot.
    """
    if policy is _PASTED:
        return _decide_unit(x, u, counters)
    bound = policy.bound(max(x, _X_FLOOR))
    u = u * bound
    if not (x > _X_FLOOR and bound > 0.0):
        return False
    exact = policy.exact_sum is not None
    lim = bound * (1.0 + DOMINATION_SLACK)
    a = s = absum = 1.0
    for n in range(1, _MAX_SERIES_TERMS + 1):
        a, can = policy.step(n, x, a)
        vanished = can and a <= 1e-300
        if n % 2:
            s = s - a
            hit = can and u <= s
            accept = hit
        else:
            s = s + a
            hit = can and u >= s
            accept = vanished and not hit
        if exact:
            absum = absum + a
            if can and (abs(u - s) <= absum * SUM_ROUNDING
                        or n % 2 and s > lim):
                if counters is not None:
                    _count_terms(counters, policy, n, n, 1)
                return _decide_exactly(x, u, lim, policy)
        if hit or vanished:
            if counters is not None:
                _count_terms(counters, policy, n, n)
            return bool(accept)
    raise _series_cap_error()


def _decide_unit(x, u, counters):
    """:func:`_decide_one` under ``_PASTED``, with its steps inlined: the
    bound is 1, every step decreases and the rate does not depend on n."""
    if not x > _X_FLOOR:
        return False
    rate = 2.0 / x if x <= TRUNC_POINT else _HALF_PI_SQ * x
    s = 1.0
    for n in range(1, _MAX_SERIES_TERMS + 1):
        a = (2.0 * n + 1.0) * np.exp(-n * (n + 1.0) * rate)
        s = s - a if n % 2 else s + a
        # an odd sum accepts at u <= s, an even one rejects at u >= s; once
        # the terms vanish the current sum decides
        if (u <= s if n % 2 else u >= s) or a <= 1e-300:
            if counters is not None:
                _count_terms(counters, _PASTED, n, n)
            return bool(u <= s if n % 2 else u < s)
    raise _series_cap_error()


def _decide_exactly(x, u, lim, policy):
    f = policy.exact_sum(x)
    if f > lim:
        raise DominationViolationError(
            f"the density exceeds the bounding kernel at x={x!r}")
    return u <= f


def _series_cap_error():
    return IterationCapError(
        f"alternating series failed to decide within {_MAX_SERIES_TERMS} terms"
    )


def _count_terms(counters, policy, term_sum, term_max, n_exact=0):
    # decision terms, under the policy's (sum, max) counter keys
    sum_key, max_key = policy.counter_keys
    if sum_key:
        counters[sum_key] = counters.get(sum_key, 0) + term_sum
    counters[max_key] = max(counters.get(max_key, 0), term_max)
    if n_exact:
        key = "exact_decisions"
        counters[key] = counters.get(key, 0) + n_exact


def _sample_pasted(trunc, h, z, policy, draw_right, size, rng, counters,
                   pieces=1):
    """Exact J*(h, z) draws from the mixture pasted at ``trunc``, each the
    sum of ``pieces`` candidates; ``size=None`` gives one float.

    A proposal comes from the truncated IG(h/z, h^2) left piece with
    probability lf = p/(p+q), else from ``draw_right(m)`` (``None``: the
    exponential tail right of ``trunc``, the gamma piece at h = 1), and
    ``policy`` decides it.  One draw (``size`` None or 1) runs
    :func:`_sample_one`; a batch builds the mixture once, and a batch of
    sums runs :func:`_sum_pieces`.
    """
    if size is None or size == 1:
        x = _sample_one(trunc, h, z, policy, draw_right, rng, counters,
                        pieces)
        return x if size is None else np.array([x])
    if pieces > 1:
        return _sum_pieces(pieces, size, lambda k: _sample_pasted(
            trunc, h, z, policy, draw_right, k, rng, counters))
    mix = build_mixture(trunc, h, z)
    mu = np.inf if mix.z == 0.0 else mix.h / mix.z
    if draw_right is None:
        def draw_right(m):
            return mix.trunc + rng.exponential(m) / mix.lam_z
    propose = _two_piece(
        rng, mix.left_fraction,
        lambda m: sample_truncated_inverse_gaussian(
            mu, mix.h * mix.h, mix.trunc, rng, size=m),
        draw_right, counters)
    return _fill_by_rejection(
        size, propose, lambda x: _series_decide(x, rng, policy, counters),
        counters, MAX_PROPOSAL_ROUNDS)


def _sample_one(trunc, h, z, policy, draw_right, rng, counters, pieces):
    """One draw of :func:`_sample_pasted` as a flat float loop: the sum of
    ``pieces`` accepted candidates, each found in the rounds that
    _fill_by_rejection, _two_piece and _series_decide run for one slot,
    with their stream use, counters and its own round budget.  ``z`` is
    |z|.  A side uniform below the band of :func:`_lf_band` goes left,
    one at or above it right; one inside builds the mixture once, closing
    the band on its left fraction.  Off the grid the mixture is built
    first, and its band is the exact fraction.
    """
    lo, hi = _lf_band(h, z) or (build_mixture(trunc, h, z).left_fraction,) * 2
    mu = np.inf if z == 0.0 else h / z
    total = 0.0
    for _ in range(pieces):
        for _ in range(MAX_PROPOSAL_ROUNDS):
            u = rng.uniform()
            if lo <= u < hi:
                lo = hi = build_mixture(trunc, h, z).left_fraction
            left = u < lo
            if counters is not None:
                counters["proposals"] = counters.get("proposals", 0) + 1
                counters["left_proposals"] = (
                    counters.get("left_proposals", 0) + left)
            if left:
                x = sample_truncated_inverse_gaussian(mu, h * h, trunc, rng)
            elif draw_right is None:
                x = trunc + rng.exponential() / tilt_rate(z)
            else:
                x = draw_right(None)
            ok = bool(_decide_one(x, rng.uniform(), policy, counters))
            if counters is not None:
                counters["accepted"] = counters.get("accepted", 0) + ok
            if ok:
                break
        else:
            raise _budget_error(MAX_PROPOSAL_ROUNDS)
        total += x
    return total


def _sum_pieces(m, size, draw):
    """A batch of ``size`` sums of ``m`` >= 2 independent pieces each,
    ``draw(k)`` giving an array of k pieces."""
    return draw(m * size).reshape(size, m).sum(axis=1)


def sample_jstar1_batch(z, size, rng, counters=None, pieces=1):
    """Fill an array with exact J*(1, z) draws, or with sums of ``pieces``
    of them; ``size=None`` gives one float."""
    z = abs(float(z))
    if size is None:
        return _sample_one(TRUNC_POINT, 1.0, z, _PASTED, None, rng, counters,
                           pieces)
    return _sample_pasted(TRUNC_POINT, 1.0, z, _PASTED, None, size, rng,
                          counters, pieces)


def sample_jstar_int_batch(n, z, size, rng, counters=None):
    """Exact J*(n, z) draws for integer n >= 1, by summing unit draws;
    ``size=None`` gives one float."""
    n = int(n)
    if n < 1:
        raise ValueError("sample_jstar_int_batch: n must be an integer >= 1")
    return sample_jstar1_batch(z, size, rng, counters=counters, pieces=n)
