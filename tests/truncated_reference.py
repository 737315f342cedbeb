"""References for one truncated draw: the rejection engine's array of
one, with the kernels of the truncated draws' batch path and the round
budget the module holds when the reference runs.  ``size`` None and 1 both
run the truncated draws' float loop; these pin that loop to the engine.
"""

import numpy as np

from pgrv import rng as rng_module
from pgrv.errors import IterationCapError
from pgrv.rng import RngStream, _fill_by_rejection


def _fill_one(propose, accept):
    return _fill_by_rejection(1, propose, accept,
                              max_rounds=rng_module.MAX_REJECTION_ROUNDS)


def engine_truncated_ig(mu, lam, right, rng):
    mu, right = mu / lam, right / lam
    inv_two_musq = 0.5 / (mu * mu)
    if mu <= right:
        propose, accept = (lambda k: rng.wald(mu, 1.0, size=k),
                           lambda x: x < right)
    else:
        def propose(k):
            e1 = rng.exponential(k)
            ok = e1 * e1 <= 2.0 * rng.exponential(k) / right
            d = 1.0 + right * e1
            return np.where(ok, right / (d * d), np.inf)

        def accept(x):
            ok = x <= right
            if inv_two_musq > 0.0:
                ok &= rng.uniform(x.size) <= np.exp(-x * inv_two_musq)
            return ok
    return lam * _fill_one(propose, accept)


def engine_truncated_gamma(a, rate, left, rng):
    c = rate * left
    if c <= (a - 1.0 if a >= 1.0 else a * (1.0 - a)):
        propose, accept = lambda k: rng.gamma(a, size=k), lambda y: y > c
    else:
        peak = (0.5 * (c + a + np.sqrt((c - a) ** 2 + 4 * c)) if a > 1
                else c)
        slope = max(a - 1.0, 0.0) / peak

        def propose(k):
            return c + rng.exponential(k) / (1.0 - slope)

        def accept(y):
            return np.log(rng.uniform(y.size)) <= (
                (a - 1.0) * np.log(y / peak) - slope * (y - peak))
    return _fill_one(propose, accept) / rate


def one_draw_paths(draw, engine, args, seeds=20):
    """Check one draw at size None, at size 1 and by the engine reference
    over ``seeds`` seeds: each gives the same bits, or the same budget
    error, and leaves the same next uniform.  Returns the outcomes seen
    (float.hex strings and error messages)."""
    outcomes = set()
    for seed in range(seeds):
        results = []
        for size in (None, 1, "engine"):
            rng = RngStream(seed)
            try:
                if size == "engine":
                    x = engine(*args, rng)
                else:
                    x = draw(*args, rng, size=size)
                    assert type(x) is (float if size is None
                                       else np.ndarray)
                x = float(x if size is None else x[0]).hex()
            except IterationCapError as exc:
                x = str(exc)
            results.append((x, rng.uniform()))
        assert results[0] == results[1] == results[2]
        outcomes.add(results[0][0])
    return outcomes
