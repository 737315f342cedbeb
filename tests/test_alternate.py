"""Real-shape sampler: cross-agreement with the unit-shape sampler,
moments, acceptance rates, and the shape decomposition."""

import math

import numpy as np
import pytest
from scipy import stats as spstats
from scipy.integrate import quad

from pgrv import PgParams, devroye, sample_pg
from pgrv.alternate import (
    _CAP_EDGES,
    _CAPS,
    _RatioCoefficients,
    _pieces,
    sample_jstar_alt_batch,
)
from pgrv.density import (
    TRUNC_H_MAX,
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
from pgrv.special import log_cosh

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


class TestTiltAdaptivePieces:
    """One draw takes pieces of up to H*(|z|); a batch keeps ceil(h/4)."""

    def test_cap_table(self):
        # a step function starting at 4, rising, and inside the table
        assert len(_CAPS) == len(_CAP_EDGES) + 1 and _CAPS[0] == 4.0
        assert list(_CAP_EDGES) == sorted(set(_CAP_EDGES))
        assert all(a < b for a, b in zip(_CAPS, _CAPS[1:]))
        assert _CAPS[-1] <= TRUNC_H_MAX

    @pytest.mark.parametrize("h", [4.0, 6.5, 40.5, 100.5, 169.5])
    def test_each_step_edge(self, h):
        # below an edge the lower cap holds, from the edge on the next one
        for i, edge in enumerate(_CAP_EDGES):
            for z, cap in ((np.nextafter(edge, 0.0), _CAPS[i]),
                           (edge, _CAPS[i + 1]), (-edge, _CAPS[i + 1])):
                m, piece = _pieces(h, z)
                assert m == max(1, math.ceil(h / cap)), (edge, z)
                assert piece == h / m and piece <= cap

    @pytest.mark.parametrize("h", [4.0, 6.5, 40.5, 169.5])
    def test_batches_and_low_tilts_keep_four(self, h):
        four = (max(1, math.ceil(h / 4.0)), h / max(1, math.ceil(h / 4.0)))
        assert _pieces(h) == _pieces(h, None) == _pieces(h, 0.0) == four
        assert _pieces(h, np.nextafter(_CAP_EDGES[0], 0.0)) == four

    def test_only_one_draw_takes_the_cap(self, monkeypatch):
        # the skeleton sees m = ceil(h/H*) pieces for size None and 1 and
        # m = ceil(h/4) for a batch
        seen = []
        real = devroye._sample_pasted

        def spy(trunc, h, z, policy, draw_right, size, rng, counters,
                pieces=1):
            seen.append((size, pieces, h))
            return real(trunc, h, z, policy, draw_right, size, rng, counters,
                        pieces)

        monkeypatch.setattr(devroye, "_sample_pasted", spy)
        h, z = 100.5, 3.0
        m, piece = _pieces(h, z)
        assert m < math.ceil(h / 4.0) and piece > 4.0
        first = []
        for size in (None, 1, 2, 5):
            sample_jstar_alt_batch(h, z, size, RngStream(3))
            first.append(seen[0])  # a batch of sums recurses for k*m
            seen.clear()
        four = math.ceil(h / 4.0)
        assert first == [(None, m, piece), (1, m, piece),
                         (2, four, h / four), (5, four, h / four)]


def _exact_lf(h, z):
    return build_mixture(trunc_lookup(h), h, z).left_fraction


class TestSideChoiceSqueeze:
    """One draw at 1 <= z_J < 4 and a piece below 64 takes its side from
    the band of its (h, z_J) cell; only a uniform inside builds."""

    H_NODES = [2.0 ** (i / 16) for i in range(97)]
    Z_NODES = [1.0 + j / 32 for j in range(97)]

    def test_bands_hold_the_exact_fraction(self):
        # the certificate: at every node and the floats next to it on
        # both axes, and at 40,000 random (h, z_J), the exact left
        # fraction lies in the band of the cell that holds the point (at
        # h = 1, the band of the h = 1 row)
        assert devroye._LF_H_NODES == self.H_NODES
        points = [(h, z) for h0 in self.H_NODES for z0 in self.Z_NODES
                  for h in (math.nextafter(h0, 0.0), h0,
                            math.nextafter(h0, 65.0))
                  for z in (math.nextafter(z0, 0.0), z0,
                            math.nextafter(z0, 5.0))
                  if 1.0 <= h < 64.0 and 1.0 <= z < 4.0]
        rng = np.random.default_rng(26)
        points += zip((2.0 ** rng.uniform(0.0, 6.0, 40_000)).tolist(),
                      rng.uniform(1.0, 4.0, 40_000).tolist())
        for h, z in points:
            lo, hi = devroye._lf_band(h, z)
            assert lo <= _exact_lf(h, z) <= hi, (h, z)

    def test_fraction_rises_with_shape(self):
        # the band's premise between nodes: at every z_J node, lf does
        # not fall along 8 shapes per cell.  It falls by 3.6e-15 once,
        # where it rounds to 1; a fall past 1e-12 (a thousandth of the
        # margin) would be more than rounding
        hs = [2.0 ** (k / 128) for k in range(8 * 96 + 1)]
        for z in self.Z_NODES:
            lf = np.array([_exact_lf(h, z) for h in hs])
            assert np.diff(lf).min() >= -1e-12, z

    def test_draws_keep_their_bits(self, monkeypatch):
        # on a ladder over every h node and z_J across 1 and 4, and at
        # pieces of 64, one draw gives the draws, counters and stream
        # state of the exact mixture, the band of a draw off the grid
        tilts = [math.nextafter(1.0, 0.0), 1.0, 1.6, 2.7,
                 math.nextafter(4.0, 0.0), 4.0]
        ladder = [(h, z) for h in self.H_NODES for z in tilts]
        ladder += [(64.0, 3.0), (128.0, -3.5), (101.0, 2.5)]

        def draws():
            out = []
            for k, (h, z) in enumerate(ladder):
                rng, counters = RngStream(k), {}
                x = sample_jstar_alt_batch(h, z, (None, 1)[k % 2], rng,
                                           counters)
                out.append((float(np.asarray(x).item()).hex(), counters,
                            rng.uniform()))
            return out

        got = draws()
        monkeypatch.setattr(devroye, "_lf_band", lambda h, z: None)
        for point, a, b in zip(ladder, got, draws(), strict=True):
            assert a == b, point

    def test_few_draws_build_a_mixture(self, monkeypatch):
        # after a warm-up pass has built the cells, a build comes from a
        # uniform inside a band or a tilt off the grid (z_J < 1 here)
        zs = np.random.default_rng(27).normal(3.3, 0.5, 2000).tolist()
        rng = RngStream(27)
        for z in zs:
            sample_pg(PgParams(10.5, z), rng)
        calls = []

        def spy(*args):
            calls.append(args)
            return build_mixture(*args)

        monkeypatch.setattr(devroye, "build_mixture", spy)
        for z in zs:
            sample_pg(PgParams(10.5, z), rng)
        assert 0 < len(calls) < 0.03 * len(zs)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("size", [None, 1, 5])
    def test_non_finite_tilt_rejected(self, z, size):
        # NaN fails the squeeze's range check, and the build rejects it
        with pytest.raises(ValueError,
                           match="build_mixture: needs finite trunc"):
            sample_jstar_alt_batch(10.5, z, size, RngStream(28))


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
        # the exact acceptance probability sech^h(z)/(p+q) of one proposal
        def acceptance_probability(h, z):
            mix = build_mixture(trunc_lookup(h), h, z)
            return float(np.exp(-h * log_cosh(z)
                                - np.logaddexp(mix.log_p, mix.log_q)))

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
