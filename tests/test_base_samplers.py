"""RNG stream contract and the proposal draws built on it: determinism,
support, and distributional correctness (KS at the 0.001 level, fixed
seeds)."""

import numpy as np
import pytest
from scipy import stats as spstats
from scipy.integrate import quad

from pgrv import PgParams, alternate, saddle, sample_pg, sample_pg_batch
from pgrv.errors import IterationCapError
from pgrv.rng import (
    RngStream,
    sample_truncated_gamma,
    sample_truncated_inverse_gaussian,
)
from pgrv.special import inverse_gaussian_log_cdf

from truncated_reference import (
    engine_truncated_gamma,
    engine_truncated_ig,
    one_draw_paths,
)

N = 100_000
KS_LEVEL = 0.001


def inverse_gaussian_cdf(x, mu, lam):
    # the function takes floats; arrays are evaluated element by element
    return np.exp(np.vectorize(inverse_gaussian_log_cdf, otypes=[float])(
        x, mu, lam))


def test_determinism_scalar_and_batch():
    a, b = RngStream(42), RngStream(42)
    assert a.uniform() == b.uniform()
    assert np.array_equal(a.uniform(1000), b.uniform(1000))
    c = RngStream(43)
    assert not np.array_equal(RngStream(42).uniform(10), c.uniform(10))


def test_spawn_deterministic_and_distinct():
    kids1 = RngStream(7).spawn(3)
    kids2 = RngStream(7).spawn(3)
    for k1, k2 in zip(kids1, kids2):
        assert np.array_equal(k1.uniform(50), k2.uniform(50))
    assert not np.array_equal(kids1[0].uniform(50), kids1[1].uniform(50))


def test_spawned_children_show_their_spawn_key():
    # a child shares its parent's seed but not its draws, so its repr
    # names the spawn key; a root stream's repr is unchanged
    parent = RngStream(1)
    kids = parent.spawn(2)
    assert repr(parent) == "RngStream(seed=1)"
    assert repr(kids[0]) == "RngStream(seed=1, spawn_key=(0,))"
    assert len({repr(parent), repr(kids[0]), repr(kids[1])}) == 3
    assert repr(kids[1].spawn(1)[0]) == "RngStream(seed=1, spawn_key=(1, 0))"


class TestUniform:
    def test_open_support(self):
        u = RngStream(0).uniform(1_000_000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_mean(self):
        u = RngStream(1).uniform(N)
        se = 1.0 / np.sqrt(12.0 * N)
        assert abs(u.mean() - 0.5) < 4 * se

    def test_ks(self):
        u = RngStream(2).uniform(N)
        assert spstats.kstest(u, "uniform").pvalue > KS_LEVEL

    def test_exact_zero_redrawn_scalar(self):
        s = RngStream(5)
        want = RngStream(5)._gen.random()
        s._gen = _ZeroFirst(s._gen)
        assert s.uniform() == want
        assert s._gen.sizes == [None, None]

    def test_exact_zeros_redrawn_array(self):
        s = RngStream(5)
        want = RngStream(5)._gen.random(2)
        s._gen = _ZeroFirst(s._gen)
        assert s.uniform(3).tolist() == [0.5, want[0], want[1]]
        assert s._gen.sizes == [3, 2]


class _ZeroFirst:
    """Generator stub: the first draw holds exact zeros (0.0, or
    [0.5, 0.0, 0.0] for an array), later draws come from ``gen``."""

    def __init__(self, gen):
        self.gen = gen
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        if len(self.sizes) > 1:
            return self.gen.random(size)
        return 0.0 if size is None else np.array([0.5, 0.0, 0.0])


class TestNormal:
    def test_moments(self):
        x = RngStream(3).normal(N)
        assert abs(x.mean()) < 4 / np.sqrt(N)
        assert abs(x.var(ddof=1) - 1.0) < 0.05

    def test_median_symmetry(self):
        x = RngStream(4).normal(N)
        se_median = 1.2533 / np.sqrt(N)
        assert abs(np.median(x)) < 4 * se_median

    def test_scalar(self):
        assert isinstance(RngStream(5).normal(), float)


def test_positive_support_stress():
    # a million draws per unbounded-positive sampler stay inside (0, inf)
    assert RngStream(90).gamma(0.7, size=1_000_000).min() > 0.0
    assert RngStream(91).wald(1.5, 0.8, size=1_000_000).min() > 0.0


class TestGamma:
    # RngStream.gamma has unit rate; a rate is applied by division
    def test_mean(self):
        x = RngStream(6).gamma(2.0, size=N) / 3.0
        se = np.sqrt(2.0 / 9.0 / N)
        assert abs(x.mean() - 2.0 / 3.0) < 4 * se

    def test_unit_variance(self):
        x = RngStream(7).gamma(1.0, size=N)
        assert abs(x.var(ddof=1) - 1.0) < 0.05

    def test_rate_scaling(self):
        x = RngStream(8).gamma(1.7, size=N) / 2.3
        law = spstats.gamma(1.7, scale=1.0 / 2.3)
        assert spstats.kstest(x, law.cdf).pvalue > KS_LEVEL

    def test_small_shape(self):
        x = RngStream(10).gamma(0.4, size=N)
        assert x.min() > 0.0
        se = np.sqrt(0.4 / N)
        assert abs(x.mean() - 0.4) < 4 * se


class TestInverseGaussian:
    def test_mean(self):
        x = RngStream(11).wald(1.0, 1.0, size=N)
        se = np.sqrt(1.0 / N)  # var = mu^3/lam = 1
        assert abs(x.mean() - 1.0) < 4 * se

    def test_variance(self):
        x = RngStream(12).wald(2.0, 4.0, size=N)
        assert abs(x.var(ddof=1) - 2.0) < 0.05 * 2.0

    def test_ks_against_cdf(self):
        x = RngStream(13).wald(1.0, 1.0, size=N)
        res = spstats.kstest(x, lambda t: inverse_gaussian_cdf(t, 1.0, 1.0))
        assert res.pvalue > KS_LEVEL


class TestTruncatedExponential:
    # the unit-shape right piece: left + Exp(1)/rate, as the samplers draw it
    def test_support(self):
        x = 0.5 + RngStream(14).exponential(1_000_000) / 2.0
        assert x.min() > 0.5

    def test_memorylessness_mean(self):
        x = 0.5 + RngStream(15).exponential(N) / 2.0
        se = 0.5 / np.sqrt(N)
        assert abs(x.mean() - 1.0) < 4 * se

    def test_large_rate(self):
        rate = 50.0
        x = 1.0 + RngStream(16).exponential(N) / rate
        se = (1.0 / rate) / np.sqrt(N)
        assert abs((x - 1.0).mean() - 1.0 / rate) < 4 * se


def _trunc_ig_cdf(xs, mu, lam, right):
    total = inverse_gaussian_cdf(right, mu, lam)
    return inverse_gaussian_cdf(np.minimum(xs, right), mu, lam) / total


class TestTruncatedInverseGaussian:
    RIGHT = 0.64

    def test_support_both_regimes(self):
        for mu, seed in [(10.0, 17), (0.3, 18)]:
            x = sample_truncated_inverse_gaussian(mu, 1.0, self.RIGHT,
                                                  RngStream(seed),
                                                  size=1_000_000)
            assert x.min() > 0.0 and x.max() < self.RIGHT

    @pytest.mark.parametrize("mu,seed", [(10.0, 19), (0.3, 20)])
    def test_ks_against_truncated_cdf(self, mu, seed):
        # the analytic CDF is itself quadrature-verified in test_special
        x = sample_truncated_inverse_gaussian(mu, 1.0, self.RIGHT,
                                              RngStream(seed), size=N)
        res = spstats.kstest(
            x, lambda t: _trunc_ig_cdf(t, mu, 1.0, self.RIGHT))
        assert res.pvalue > KS_LEVEL

    def test_truncated_cdf_matches_quadrature(self):
        def pdf(t, mu):
            return np.sqrt(1.0 / (2 * np.pi * t ** 3)) * np.exp(
                -((t - mu) ** 2) / (2 * mu * mu * t))

        for mu in (10.0, 0.3):
            num, _ = quad(pdf, 0, 0.3, args=(mu,))
            den, _ = quad(pdf, 0, self.RIGHT, args=(mu,))
            assert _trunc_ig_cdf(np.array(0.3), mu, 1.0, self.RIGHT) == \
                pytest.approx(num / den, abs=1e-8)

    def test_general_lambda_scaling(self):
        # IG(mu, lam) truncated draws should match scaled lam=1 draws in law
        a = sample_truncated_inverse_gaussian(2.0, 5.0, 1.5, RngStream(21),
                                              size=N)
        res = spstats.kstest(a, lambda t: _trunc_ig_cdf(t, 2.0, 5.0, 1.5))
        assert res.pvalue > KS_LEVEL

    def test_zero_drift_mu_inf(self):
        x = sample_truncated_inverse_gaussian(np.inf, 1.0, self.RIGHT,
                                              RngStream(22), size=50_000)
        assert x.max() < self.RIGHT

    def test_iteration_cap(self, monkeypatch):
        # the cap is read when the draw runs
        monkeypatch.setattr("pgrv.rng.MAX_REJECTION_ROUNDS", 2)
        with pytest.raises(IterationCapError, match="budget of 2 rounds"):
            sample_truncated_inverse_gaussian(1e9, 1e-6, 1e8, RngStream(23),
                                              size=4)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sample_truncated_inverse_gaussian(1.0, 1.0, -0.5, RngStream(0))

    @pytest.mark.parametrize("mu,lam,right", [
        (np.nan, 1.0, 0.64), (1.0, np.nan, 0.64), (1.0, 1.0, np.nan)])
    def test_nan_rejected(self, mu, lam, right):
        with pytest.raises(ValueError):
            sample_truncated_inverse_gaussian(mu, lam, right, RngStream(0),
                                              size=4)

    @pytest.mark.parametrize("mu,lam,right", [
        (10.0, 1.0, 0.64), (0.3, 1.0, 0.64), (np.inf, 1.0, 0.64),
        (2.0, 5.0, 1.5), (10.0, 5.0, 0.64)])
    def test_one_draw_matches_batch_of_one(self, mu, lam, right):
        # the zero-drift kernel with and without thinning, and Wald
        # draws: size=None runs the float loop and size=1 the batch path,
        # both with the bits and stream state of the engine's array of one
        one_draw_paths(sample_truncated_inverse_gaussian,
                       engine_truncated_ig, (mu, lam, right))

    @pytest.mark.parametrize("mu,right", [(1e9, 0.64), (0.64, 0.64),
                                          (2.0, 1.5)])
    def test_one_draw_budget_matches_batch_of_one(self, mu, right,
                                                  monkeypatch):
        # a one-round budget, for the zero-drift kernel with and without
        # thinning and for Wald draws: size None and 1 raise where the
        # engine does, with its message, and otherwise draw its bits
        monkeypatch.setattr("pgrv.rng.MAX_REJECTION_ROUNDS", 1)
        outcomes = one_draw_paths(sample_truncated_inverse_gaussian,
                                  engine_truncated_ig, (mu, 5.0, right),
                                  seeds=60)
        assert ("rejection sampler exhausted its budget of 1 rounds"
                in outcomes)
        assert len(outcomes) > 1

    def test_infinite_right_bound_accepted(self):
        # right=inf is the untruncated law (mu=inf: test_zero_drift_mu_inf)
        x = sample_truncated_inverse_gaussian(1.0, 1.0, np.inf, RngStream(26),
                                              size=1000)
        assert np.all(np.isfinite(x) & (x > 0.0))


def _trunc_gamma_cdf(shape, rate, left):
    base = spstats.gamma(shape, scale=1.0 / rate)
    tail = base.sf(left)

    def cdf(t):
        return (base.cdf(np.maximum(t, left)) - base.cdf(left)) / tail

    return cdf


class _GammaPieceDrawn(Exception):
    """Raised by a stub standing in for the truncated gamma draw."""


class TestTruncatedGamma:
    def test_support(self):
        x = sample_truncated_gamma(2.5, 1.5, 0.8, RngStream(24),
                                   size=1_000_000)
        assert x.min() > 0.8

    def test_ks_against_truncated_cdf(self):
        shape, rate, left = 2.5, 1.5, 0.8
        x = sample_truncated_gamma(shape, rate, left, RngStream(25), size=N)
        cdf = _trunc_gamma_cdf(shape, rate, left)
        assert spstats.kstest(x, cdf).pvalue > KS_LEVEL

    # (shape, rate, left, seed): cut c = rate*left below the mode
    # shape - 1 (Gamma proposals), above it (shifted exponential
    # proposals), at shape exactly 1, and at shape 0.5 on both sides of
    # its switch at c = 0.25
    @pytest.mark.parametrize("shape,rate,left,seed", [
        (40.0, 2.0, 15.0, 27),
        (3.5, 1.4, 3.5, 28),
        (1.0, 0.7, 2.0, 29),
        (0.5, 2.0, 0.5, 30),
        (0.5, 1.0, 0.1, 31),
    ])
    def test_ks_both_proposals(self, shape, rate, left, seed):
        x = sample_truncated_gamma(shape, rate, left, RngStream(seed), size=N)
        assert x.min() > left
        cdf = _trunc_gamma_cdf(shape, rate, left)
        assert spstats.kstest(x, cdf).pvalue > KS_LEVEL

    def test_ks_far_cut(self):
        # c = 1e3: the tail mass underflows, so the CDF is the closed
        # form 1 - Q(3, t)/Q(3, c), with Q(3, y) = e^-y (1 + y + y^2/2),
        # written in d = t - c
        c = 1e3
        x = sample_truncated_gamma(3.0, 1.0, c, RngStream(32), size=N)
        assert x.min() > c

        def cdf(t):
            d = np.maximum(t, c) - c
            return -np.expm1(-d) - np.exp(-d) * d * (1.0 + c + 0.5 * d) / (
                1.0 + c + 0.5 * c * c)

        assert spstats.kstest(x, cdf).pvalue > KS_LEVEL

    def test_far_tail_mean(self):
        # E[Y - c | Y > c] = 1 + 1/(1 + c) for Y ~ Gamma(2, 1)
        c = 1e6
        x = sample_truncated_gamma(2.0, 1.0, c, RngStream(33), size=N)
        assert np.all(np.isfinite(x) & (x > c))
        excess = x - c
        se = excess.std(ddof=1) / np.sqrt(N)
        assert abs(excess.mean() - (1.0 + 1.0 / (1.0 + c))) < 5 * se

    @pytest.mark.parametrize("shape,rate,left", [
        (40.0, 2.0, 15.0), (3.5, 1.4, 3.5), (1.0, 0.7, 2.0),
        (0.5, 2.0, 0.5), (0.5, 1.0, 0.1), (2.0, 1.0, 1e6)])
    def test_one_draw_matches_batch_of_one(self, shape, rate, left):
        # size=None runs the rejection on floats and size=1 on arrays; both
        # must give the bits and leave the stream state of the engine's
        # array of one
        one_draw_paths(sample_truncated_gamma, engine_truncated_gamma,
                       (shape, rate, left))

    @pytest.mark.parametrize("shape,left", [(2.5, 1.4), (2.5, 3.0)])
    def test_one_draw_budget_matches_batch_of_one(self, shape, left,
                                                  monkeypatch):
        # a one-round budget, below the mode (Gamma proposals) and above
        # it (shifted exponential): size None and 1 raise where the
        # engine does, with its message, and otherwise draw its bits
        monkeypatch.setattr("pgrv.rng.MAX_REJECTION_ROUNDS", 1)
        outcomes = one_draw_paths(sample_truncated_gamma,
                                  engine_truncated_gamma, (shape, 1.0, left),
                                  seeds=60)
        assert ("rejection sampler exhausted its budget of 1 rounds"
                in outcomes)
        assert len(outcomes) > 1

    @pytest.mark.parametrize("shape,rate,left", [
        (np.nan, 1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, np.nan),
        (np.inf, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, np.inf),
        (-np.inf, 1.0, 1.0), (1.0, 1.0, -np.inf), (0.0, 1.0, 1.0)])
    def test_bad_parameters_rejected(self, shape, rate, left):
        with pytest.raises(ValueError):
            sample_truncated_gamma(shape, rate, left, RngStream(0), size=4)

    @pytest.mark.parametrize("b,z,method,size", [
        (2.5, 200.0, "alternate", None),
        (2.5, 200.0, "alternate", 64),
        (40.0, 2000.0, "saddlepoint", 600),
    ])
    def test_routes_never_draw_an_underflowing_tail(self, b, z, method, size,
                                                    monkeypatch):
        # where the gamma tail underflows, both routes weigh the right
        # piece at exactly 0 (same gammaincc), so it is never proposed
        def refuse(*args, **kwargs):
            raise _GammaPieceDrawn
        monkeypatch.setattr(alternate, "sample_truncated_gamma", refuse)
        monkeypatch.setattr(saddle, "sample_truncated_gamma", refuse)
        p = PgParams(b, z)
        x = (sample_pg(p, RngStream(3), method=method) if size is None
             else sample_pg_batch(p, RngStream(3), size, method=method))
        assert np.all(np.isfinite(x) & (np.asarray(x) > 0.0))
