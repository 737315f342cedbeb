"""Seedable RNG stream, the truncated proposal draws, and the rejection
engine every sampler fills its output with.

Every sampler in the package draws exclusively from an :class:`RngStream`,
which wraps a PCG64 generator: identical seed, identical draw sequence.
A stream is single-owner -- never share one instance between threads;
derive independent substreams with :meth:`RngStream.spawn` instead.

:func:`_fill_by_rejection` is the one rejection loop: the samplers and the
truncated inverse-Gaussian and gamma draws (the gamma by Dagpunar's 1978
rejection) differ only in the proposal and the accept test they hand it.  It
runs every round on arrays, the first round's candidates becoming the output
without a copy; a batch's last pending slots run as arrays of one.  One draw
per call, as in a Gibbs sweep where every tilt differs, is ``size=None`` (the
convention of the :class:`RngStream` draws).  The engine runs it as an array
of one and returns its float; the saddlepoint and normal routes take that
path.  The truncated draws run one draw (``size`` None, or 1 wrapped as an
array) as a straight float loop instead, without the engine, and the J*
samplers run theirs in :func:`pgrv.devroye._sample_one`, one piece after
another for a multi-piece draw (devroye at b >= 2, the alternate sampler at
b > 4).  The straight loops consume the stream as the engine's arrays of one
do and give bit-identical draws; the float code uses numpy's ``exp``/``log``,
whose results can differ from :mod:`math` in the last ulp.
"""

import math

import numpy as np

from .errors import IterationCapError

__all__ = [
    "RngStream",
    "sample_truncated_inverse_gaussian",
    "sample_truncated_gamma",
]

# Rejection loops bail out after this many whole-array retry rounds; each
# round redraws every still-pending slot, so the per-draw attempt budget
# is far larger than the round count suggests.  Proposal kernels get the
# smaller budget, the J* samplers built on them the larger one.
MAX_REJECTION_ROUNDS = 10_000
MAX_PROPOSAL_ROUNDS = 1_000_000

class RngStream:
    """Deterministic uniform random source (PCG64 behind the scenes).

    Parameters
    ----------
    seed : int
        64-bit unsigned seed.  Identical seeds produce identical draw
        sequences.
    """

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._ss = np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.PCG64(self._ss))

    def __repr__(self):
        # a spawned child shares its root's seed; its spawn key tells it apart
        key = self._ss.spawn_key
        return (f"RngStream(seed={self.seed}, spawn_key={key})" if key
                else f"RngStream(seed={self.seed})")

    def spawn(self, n):
        """Return ``n`` independent child streams (deterministic in seed)."""
        children = self._ss.spawn(n)
        out = []
        for child in children:
            s = object.__new__(RngStream)
            s.seed = self.seed
            s._ss = child
            s._gen = np.random.Generator(np.random.PCG64(child))
            out.append(s)
        return out

    # -- primitive draws ---------------------------------------------------

    def uniform(self, size=None):
        """Uniform draw(s) strictly inside (0, 1)."""
        u = self._gen.random(size)
        if size is None:
            while u == 0.0:
                u = self._gen.random()
            return u
        while np.count_nonzero(u) < u.size:
            zero = u == 0.0
            u[zero] = self._gen.random(np.count_nonzero(zero))
        return u

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def exponential(self, size=None):
        return self._gen.standard_exponential(size)

    def gamma(self, shape, size=None):
        return self._gen.gamma(shape, size=size)

    def wald(self, mu, lam, size=None):
        return self._gen.wald(mu, lam, size=size)


def _fill_by_rejection(size, propose, accept, counters=None,
                       max_rounds=MAX_PROPOSAL_ROUNDS):
    """Fill ``size`` slots by rejection sampling and return them.

    Each round ``propose(k)`` draws an array of candidates for the k
    still-pending slots and ``accept(x)`` returns the mask of those kept;
    the rest are redrawn next round.  ``size=None`` fills one slot as an
    array of one and returns its float.  Raises
    :class:`IterationCapError` when slots are still pending after
    ``max_rounds`` rounds.  ``counters``, when given, accumulates
    ``proposals`` and ``accepted``.
    """
    n, pending = (1 if size is None else int(size)), None
    if n == 0:
        return np.empty(0)
    for _ in range(max_rounds):
        k = n if pending is None else pending.size
        if counters is not None:
            counters["proposals"] = counters.get("proposals", 0) + k
        x = propose(k)
        ok = accept(x)
        n_ok = np.count_nonzero(ok)
        if counters is not None:
            counters["accepted"] = counters.get("accepted", 0) + n_ok
        if pending is None:
            out = x  # first round: later ones redraw only rejected slots
            pending = np.nonzero(~ok)[0] if n_ok < k else ok[:0]
        elif n_ok:
            out[pending[ok]] = x[ok]
            pending = pending[~ok]
        if not pending.size:
            return float(out[0]) if size is None else out
    raise _budget_error(max_rounds)


def _budget_error(max_rounds):
    return IterationCapError(
        f"rejection sampler exhausted its budget of {max_rounds} rounds")


def _two_piece(rng, left_fraction, draw_left, draw_right, counters=None):
    """``propose`` for :func:`_fill_by_rejection`: each candidate comes
    from ``draw_left(m)`` with probability ``left_fraction``, else from
    ``draw_right(m)``; ``counters`` accumulates ``left_proposals``."""
    def propose(k):
        take_left = rng.uniform(k) < left_fraction
        n_left = np.count_nonzero(take_left)
        if counters is not None:
            counters["left_proposals"] = (counters.get("left_proposals", 0)
                                          + n_left)
        if n_left == k:
            return draw_left(k)
        if n_left == 0:
            return draw_right(k)
        x = np.empty(k)
        x[take_left] = draw_left(n_left)
        x[~take_left] = draw_right(k - n_left)
        return x

    return propose


def sample_truncated_inverse_gaussian(mu, lam, right, rng, size=None):
    """Exact draw(s) from IG(mu, lam) conditioned on (0, right).

    ``mu=inf`` is accepted and means the zero-drift limit (the kernel
    x^(-3/2) exp(-lam/(2x))).  Raises :class:`IterationCapError` when the
    rejection loop exhausts its budget of ``MAX_REJECTION_ROUNDS``
    rounds, which signals a numerically hopeless parameter combination.

    Notes
    -----
    Everything is rescaled to lam=1 first (X ~ IG(mu, lam) iff
    X/lam ~ IG(mu/lam, 1)).  When the mean sits within the bound, most of
    the untruncated mass lies below it, and unconditioned draws are
    thinned on {x < right}.  Otherwise the proposal is the zero-drift
    kernel on (0, right) -- realized exactly by X = right/(1 + right*E1)^2
    with E1 ~ Exp(1) accepted when E1^2 <= 2 E2 / right -- thinned with
    the drift factor exp(-x/(2 mu^2)); ``mu=inf`` skips the thinning.
    """
    if not (mu > 0.0 and lam > 0.0 and right > 0.0):  # NaN fails too
        raise ValueError("sample_truncated_inverse_gaussian: parameters "
                         "must be positive")
    mu, right = mu / lam, right / lam
    # exactly 0 at mu=inf: no drift to thin with
    inv_two_musq = 0.5 / (mu * mu)
    if size is None or size == 1:
        # the rounds of the kernels below on floats, size 1 as an array of
        # one; a candidate the kernel rejects still draws its thinning uniform
        for _ in range(MAX_REJECTION_ROUNDS):
            if mu <= right:
                x = rng.wald(mu, 1.0)
                if x < right:
                    break
                continue
            e1 = rng.exponential()
            ok = e1 * e1 <= 2.0 * rng.exponential() / right
            d = 1.0 + right * e1
            x = right / (d * d)
            if inv_two_musq > 0.0:
                ok = rng.uniform() <= np.exp(-x * inv_two_musq) and ok
            if ok:
                break
        else:
            raise _budget_error(MAX_REJECTION_ROUNDS)
        return lam * x if size is None else np.array([lam * x])

    def propose_kernel(k):
        e1 = rng.exponential(k)
        kernel_ok = e1 * e1 <= 2.0 * rng.exponential(k) / right
        # a candidate the kernel rejects is moved outside (0, right]
        d = 1.0 + right * e1
        return np.where(kernel_ok, right / (d * d), np.inf)

    def accept_kernel(x):
        ok = x <= right
        if inv_two_musq > 0.0:
            ok &= rng.uniform(x.size) <= np.exp(-x * inv_two_musq)
        return ok

    if mu > right:
        propose, accept = propose_kernel, accept_kernel
    else:
        propose, accept = (lambda k: rng.wald(mu, 1.0, size=k),
                           lambda x: x < right)
    return lam * _fill_by_rejection(size, propose, accept,
                                    max_rounds=MAX_REJECTION_ROUNDS)


def sample_truncated_gamma(shape, rate, left, rng, size=None):
    """Exact draw(s) from Gamma(shape, rate) conditioned on (left, inf).

    Rejection at rate 1 with the cut c = rate*left (Dagpunar 1978).  At or
    below the mode (c <= a - 1 for the shape a, or c <= a(1 - a) if a < 1)
    Gamma(a) draws are kept above c.  Above it y = c + E/beta, with
    beta = (c - a + sqrt((c - a)^2 + 4c))/(2c) (1 if a <= 1), is kept if
    log U <= (a-1) log(y/y*) - (1-beta)(y - y*) at the ratio's peak
    y* = (a-1)/(1-beta) (c if a <= 1).  For a >= 1 over half the proposals
    are kept (0.52 at a = 170), and any cut > 0 works: no tail mass is formed.
    """
    if not all(0.0 < v < math.inf for v in (shape, rate, left)):
        raise ValueError("sample_truncated_gamma: inputs must be finite, > 0")
    a, c = float(shape), rate * left
    below_mode = c <= (a - 1.0 if a >= 1.0 else a * (1.0 - a))
    if not below_mode:
        peak = 0.5 * (c + a + math.sqrt((c - a) ** 2 + 4 * c)) if a > 1 else c
        slope = max(a - 1.0, 0.0) / peak  # 1 - beta, without cancelling
    if size is None or size == 1:
        # propose and accept below, on floats; size 1 gets an array of one
        for _ in range(MAX_REJECTION_ROUNDS):
            if below_mode:
                y = rng.gamma(a)
                if y > c:
                    break
            else:
                y = c + rng.exponential() / (1.0 - slope)
                if np.log(rng.uniform()) <= ((a - 1.0) * np.log(y / peak)
                                             - slope * (y - peak)):
                    break
        else:
            raise _budget_error(MAX_REJECTION_ROUNDS)
        return y / rate if size is None else np.array([y / rate])
    if below_mode:
        propose, accept = lambda k: rng.gamma(a, size=k), lambda y: y > c
    else:
        def propose(k):
            return c + rng.exponential(k) / (1.0 - slope)

        def accept(y):
            u = rng.uniform(y.size)
            return np.log(u) <= ((a - 1.0) * np.log(y / peak)
                                 - slope * (y - peak))
    return _fill_by_rejection(size, propose, accept,
                              max_rounds=MAX_REJECTION_ROUNDS) / rate
