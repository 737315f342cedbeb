"""The fixed-length gamma-convolution oracle of the KS tests.

``pgrv.density.sample_gamma_sum`` picks its own term count, 20 at the
shapes these tests use.  The exact samplers are compared against a
200-term sum instead: this is that sampler's arithmetic and stream use,
with the term count as an argument and a batch size required.
"""

import numpy as np

from pgrv.density import c_index, jstar_mean, jstar_var


def gamma_sum_oracle(params, n_terms, rng, size):
    """``size`` draws of sum_{n<n_terms} g_n / d_n(z) plus a gamma
    remainder with the dropped terms' mean and variance."""
    h = params.h
    w = 1.0 / (c_index(np.arange(n_terms)) + 0.5 * params.z * params.z)
    tail_mean = jstar_mean(params) - h * float(np.add.reduce(w))
    tail_var = jstar_var(params) - h * float(w @ w)
    x = np.empty(size)
    chunk = max(1, 4_000_000 // n_terms)
    for lo in range(0, size, chunk):
        hi = min(lo + chunk, size)
        x[lo:hi] = rng.gamma(h, size=(hi - lo, n_terms)) @ w
    if tail_mean > 0.0 and tail_var > 0.0:
        x += (rng.gamma(tail_mean * tail_mean / tail_var, size=size)
              * (tail_var / tail_mean))
    return x
