"""Real-shape sampler: cross-agreement with the unit-shape sampler,
moments, acceptance rates, and the shape decomposition."""

import math

import numpy as np
import pytest
from scipy import stats as spstats
from scipy.integrate import quad

from pgrv import devroye
from pgrv.alternate import (
    _RatioCoefficients,
    _pieces,
    acceptance_probability,
    sample_jstar_alt_batch,
)
from pgrv.density import (
    JStarParams,
    _log_kernel_ell_unit,
    _log_kernel_r_unit,
    build_mixture,
    coef_ratio,
    density,
    jstar_mean,
    jstar_var,
    tilt_rate,
    trunc_lookup,
)
from pgrv.devroye import sample_jstar1_batch
from pgrv.rng import RngStream

from gamma_sum_oracle import gamma_sum_oracle

N = 100_000
KS_LEVEL = 0.001


def test_unit_shape_agrees_with_devroye():
    a = sample_jstar_alt_batch(1.0, 0.0, N, RngStream(0))
    b = sample_jstar1_batch(0.0, N, RngStream(1))
    assert spstats.ks_2samp(a, b).pvalue > KS_LEVEL


def test_unit_shape_agrees_with_devroye_tilted():
    a = sample_jstar_alt_batch(1.0, 2.0, N, RngStream(2))
    b = sample_jstar1_batch(2.0, N, RngStream(3))
    assert spstats.ks_2samp(a, b).pvalue > KS_LEVEL


def test_mean_fractional_shape():
    p = JStarParams(2.5, 1.0)
    x = sample_jstar_alt_batch(2.5, 1.0, N, RngStream(4))
    se = x.std(ddof=1) / np.sqrt(N)
    assert abs(x.mean() - jstar_mean(p)) < 4 * se


def test_variance_shape_four():
    x = sample_jstar_alt_batch(4.0, 0.0, N, RngStream(5))
    assert abs(x.var(ddof=1) / jstar_var(JStarParams(4.0, 0.0)) - 1.0) < 0.05


def test_ks_against_gamma_sum_oracle():
    rng = RngStream(6)
    draws = sample_jstar_alt_batch(3.5, 0.5, N, rng)
    oracle = gamma_sum_oracle(JStarParams(3.5, 0.5), 200, rng, N)
    assert spstats.ks_2samp(draws, oracle).pvalue > KS_LEVEL


def test_shape_domain():
    # every h >= 1 is drawn, shapes above 4 as a sum of pieces
    for h in (0.8, 0.9, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and >= 1"):
            sample_jstar_alt_batch(h, 0.0, 1, RngStream(0))
    assert sample_jstar_alt_batch(4.2, 0.0, 1, RngStream(0)).shape == (1,)


def test_scalar_draw():
    v = sample_jstar_alt_batch(2.0, 0.5, 1, RngStream(7))
    assert v.shape == (1,) and v[0] > 0


class TestPieces:
    def test_boundary_is_single_piece(self):
        assert _pieces(4.0) == (1, 4.0)

    def test_decomposition_ranges(self):
        for h in (4.1, 7.2, 10.0, 16.0, 37.3):
            m, piece = _pieces(h)
            assert m * piece == pytest.approx(h, rel=1e-15)
            assert 1.0 < piece <= 4.0

    def test_sum_shape_ten(self):
        x = sample_jstar_alt_batch(10.0, 0.0, N, RngStream(8))
        se = x.std(ddof=1) / np.sqrt(N)
        assert abs(x.mean() - 10.0) < 4 * se

    def test_sum_fractional(self):
        x = sample_jstar_alt_batch(7.2, 2.0, N, RngStream(9))
        se = x.std(ddof=1) / np.sqrt(N)
        assert abs(x.mean() - 7.2 * np.tanh(2.0) / 2.0) < 4 * se


class TestAcceptance:
    @pytest.mark.parametrize("h,z,seed", [(1.0, 0.0, 10), (2.0, 1.0, 11),
                                          (4.0, 0.0, 12)])
    def test_rate_times_mass_matches_quadrature(self, h, z, seed):
        # acceptance * (p+q) equals the tilted-but-uncosh'd density mass,
        # computed here by quadrature
        counters = {}
        sample_jstar_alt_batch(h, z, N, RngStream(seed), counters=counters)
        rate = counters["accepted"] / counters["proposals"]
        mix = build_mixture(trunc_lookup(h), h, z)
        pm, qm = np.exp(mix.log_p), np.exp(mix.log_q)
        p0 = JStarParams(h, 0.0)
        mass, err = quad(
            lambda x: np.exp(-x * z * z / 2.0) * density(x, p0),
            0.0, 80.0, limit=400)
        se = np.sqrt(rate * (1 - rate) / counters["proposals"])
        assert abs(rate * (pm + qm) - mass) < 4 * se * (pm + qm) + 10 * err

    def test_rate_decreases_with_shape(self):
        rates = []
        for i, h in enumerate((1.0, 2.0, 3.0, 4.0)):
            counters = {}
            sample_jstar_alt_batch(h, 0.0, N, RngStream(20 + i),
                                   counters=counters)
            rates.append(counters["accepted"] / counters["proposals"])
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_exact_rate_formula_decreases(self):
        vals = [acceptance_probability(h, 0.0) for h in (1.0, 2.0, 3.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("h", [1.0, 2.5, 4.0])
def test_series_decides_where_a0_underflows(h):
    # at h z = 2,000 the kernel and a_0 are below the smallest double at
    # the proposals x ~ h/z; the policy runs on a_n/a_0, so its bound
    # there is 1 and the first odd partial sum accepts
    x = np.array([h / (2000.0 / h)])
    bound = _RatioCoefficients(h, trunc_lookup(h)).bound(x)
    assert bound.tolist() == [1.0]
    counters = {}
    accept = devroye._series_decide(
        x, RngStream(0), _RatioCoefficients(h, trunc_lookup(h)), counters)
    assert accept.tolist() == [True]
    assert counters["series_terms_max"] == 1


@pytest.mark.parametrize("h", [1.0, 1.7, 2.5, 4.0])
def test_policy_keeps_the_bits_of_the_full_expressions(h):
    # the policy's cached x-free constants keep the bits of the full
    # kernel and coef_ratio expressions, in its bound and its steps
    t = trunc_lookup(h)
    policy = _RatioCoefficients(h, t)
    x = np.concatenate([np.geomspace(0.01, 50.0, 200),
                        np.nextafter(t, [0.0, 1.0]), [t]])
    log2, log_2pi = float(np.log(2.0)), float(np.log(2.0 * np.pi))
    log_a0 = (h * log2 + np.log(h) - 0.5 * log_2pi
              - 1.5 * np.log(x) - h * h / (2.0 * x))
    log_r = (h * float(np.log(np.pi / 2.0)) - math.lgamma(h)
             + (h - 1.0) * np.log(x) - tilt_rate(0.0) * x)
    assert np.array_equal(_log_kernel_ell_unit(x, h), log_a0)
    assert np.array_equal(_log_kernel_r_unit(x, h, tilt_rate(0.0)), log_r)
    want = np.exp(np.where(x < t, log_a0, log_r) - log_a0)
    assert np.array_equal(policy.bound(x), want)
    assert [policy.bound(v) for v in x.tolist()] == want.tolist()
    for n in range(1, 40):
        r = coef_ratio(n - 1, x, h)
        a, decreasing = policy.step(n, x, 1.0)
        assert np.array_equal(a, r) and np.array_equal(decreasing, r < 1.0)
        assert [policy.step(n, v, 1.0)[0] for v in x[::20].tolist()] == (
            r[::20].tolist())


def test_proposal_support_respects_paste_point():
    # left component lands below t(h), right component above it; check
    # via the pooled draws covering both sides
    x = sample_jstar_alt_batch(2.5, 1.0, 50_000, RngStream(13))
    t = trunc_lookup(2.5)
    assert x.min() > 0.0
    assert (x < t).any() and (x > t).any()
