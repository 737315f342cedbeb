"""Special-function layer: values, stability, and quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc
from scipy.integrate import quad

from pgrv import special
from pgrv.errors import ConvergenceError
from pgrv.special import (
    UTAN_SINGULARITY,
    gammaincc,
    inverse_gaussian_log_cdf,
    log_cosh,
    log_ndtr,
    utan,
)


def inverse_gaussian_cdf(x, mu, lam):
    # the function takes floats; arrays are evaluated element by element
    return np.exp(np.vectorize(inverse_gaussian_log_cdf, otypes=[float])(
        x, mu, lam))


def ig_pdf(x, mu, lam):
    return math.sqrt(lam / (2.0 * math.pi * x ** 3)) * math.exp(
        -lam * (x - mu) ** 2 / (2.0 * mu ** 2 * x))


class TestUtan:
    def test_value_at_zero(self):
        assert utan(0.0) == 1.0

    def test_negative_branch_is_tanh(self):
        assert utan(-1.0) == pytest.approx(math.tanh(1.0), rel=1e-14)
        assert utan(-4.0) == pytest.approx(math.tanh(2.0) / 2.0, rel=1e-14)

    def test_positive_branch_is_tan(self):
        assert utan(1.0) == pytest.approx(math.tan(1.0), rel=1e-14)

    def test_taylor_region(self):
        s = 1e-8
        assert utan(s) == pytest.approx(1.0 + s / 3.0, abs=1e-12)
        assert utan(-s) == pytest.approx(1.0 - s / 3.0, abs=1e-12)

    def test_continuity_at_taylor_cut(self):
        for s in (1e-6, -1e-6):
            below = utan(s * (1 - 1e-9))
            above = utan(s * (1 + 1e-9))
            assert below == pytest.approx(above, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            utan(UTAN_SINGULARITY)
        with pytest.raises(ValueError):
            utan(np.array([0.0, 3.0]))

    def test_vectorized(self):
        s = np.array([-2.0, 0.0, 1.0])
        out = utan(s)
        assert out.shape == (3,)
        assert out[1] == 1.0

    @given(st.floats(min_value=-50.0, max_value=UTAN_SINGULARITY - 1e-9),
           st.floats(min_value=1e-9, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing(self, s1, gap):
        s2 = min(s1 + gap, UTAN_SINGULARITY - 1e-9)
        if s2 > s1:
            assert utan(s1) < utan(s2)


class TestLogCosh:
    def test_zero(self):
        assert log_cosh(0.0) == 0.0

    def test_even(self):
        assert log_cosh(-3.0) == log_cosh(3.0)

    def test_large_argument(self):
        # cosh z ~ e^z/2 for large z
        assert log_cosh(800.0) == pytest.approx(800.0 - math.log(2.0),
                                                rel=1e-12)

    def test_matches_direct_in_safe_range(self):
        for z in (0.1, 1.0, 5.0, 20.0):
            assert log_cosh(z) == pytest.approx(math.log(math.cosh(z)),
                                                rel=1e-14)

    @given(st.floats(min_value=-700.0, max_value=700.0))
    @settings(max_examples=200, deadline=None)
    def test_asymptote_gap_bounded(self, z):
        gap = log_cosh(z) - (abs(z) - math.log(2.0))
        assert -1e-15 <= gap <= math.log(2.0) + 1e-15


class TestInverseGaussianCdf:
    def test_total_mass(self):
        assert inverse_gaussian_cdf(1e12, 1.0, 1.0) == pytest.approx(1.0,
                                                                     abs=1e-12)

    @pytest.mark.parametrize("x,mu,lam", [(1.0, 1.0, 1.0), (0.5, 2.0, 4.0)])
    def test_quadrature_oracle(self, x, mu, lam):
        val, err = quad(ig_pdf, 0.0, x, args=(mu, lam))
        assert inverse_gaussian_cdf(x, mu, lam) == pytest.approx(
            val, abs=1e-8 + 10 * err)

    def test_quadrature_grid(self):
        xs = [0.1, 0.5, 1.0, 2.0, 5.0]
        mus = [0.3, 1.0, 2.0, 5.0, 10.0]
        lams = [0.5, 1.0, 2.0, 4.0, 10.0]
        for x in xs:
            for mu in mus:
                for lam in lams:
                    want, err = quad(ig_pdf, 0.0, x, args=(mu, lam),
                                     limit=200)
                    got = inverse_gaussian_cdf(x, mu, lam)
                    assert got == pytest.approx(want, abs=1e-8 + 10 * err)

    def test_increasing_in_x(self):
        xs = np.linspace(0.05, 6.0, 60)
        vals = inverse_gaussian_cdf(xs, 1.5, 2.0)
        assert np.all(np.diff(vals) > 0)

    def test_zero_drift_limit(self):
        # mu=inf collapses to 2 Phi(-sqrt(lam/x))
        got = inverse_gaussian_cdf(0.7, np.inf, 1.0)
        want = math.erfc(math.sqrt(1.0 / (2.0 * 0.7)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_domain_errors(self):
        for bad in [(-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -2.0),
                    (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0),
                    (1.0, 1.0, math.nan), (math.inf, 1.0, 1.0),
                    (1.0, 1.0, math.inf)]:
            with pytest.raises(ValueError):
                inverse_gaussian_log_cdf(*bad)

    def test_scalar_matches_array(self):
        # each float call gives a float that matches the two-Phi formula
        # evaluated on arrays with scipy's log_ndtr and np.logaddexp; the
        # grid includes the zero-drift limit mu=inf and large lam/mu,
        # where the drift term dominates
        xs = np.array([1e-3, 0.05, 0.64, 1.0, 7.5, 300.0])
        mus = np.array([1e-4, 0.01, 0.5, 2.0, 1e3, np.inf])
        lams = np.array([1e-2, 1.0, 16.0, 1e4])
        x, mu, lam = np.meshgrid(xs, mus, lams, indexing="ij")
        rt, ratio = np.sqrt(lam / x), x / mu
        arr = np.logaddexp(sc.log_ndtr(rt * (ratio - 1.0)),
                           2.0 * lam / mu + sc.log_ndtr(-rt * (ratio + 1.0)))
        for i in np.ndindex(x.shape):
            got = inverse_gaussian_log_cdf(float(x[i]), float(mu[i]),
                                           float(lam[i]))
            assert type(got) is float
            assert got == pytest.approx(arr[i], rel=1e-13, abs=1e-15), i
        # the zero-drift limit log 2 Phi(-sqrt(lam/x))
        got = inverse_gaussian_log_cdf(0.7, np.inf, 3.0)
        assert got == pytest.approx(
            math.log(math.erfc(math.sqrt(3.0 / (2.0 * 0.7)))), rel=1e-14)


class TestLogNdtr:
    def test_matches_scipy(self):
        # both branch cuts (-20, 0) and both ends of the range
        xs = np.concatenate([
            -np.geomspace(1e-8, 1e8, 2000), np.linspace(-40.0, 37.0, 5001),
            np.geomspace(1e-8, 37.0, 500),
            np.nextafter([-20.0, -20.0, 0.0, 0.0], [-21.0, 0.0, -1.0, 1.0])])
        for x in xs.tolist():
            want = sc.log_ndtr(x)
            assert log_ndtr(x) == pytest.approx(want, rel=1e-12, abs=0), x

    def test_values(self):
        assert log_ndtr(0.0) == -math.log(2.0)
        assert log_ndtr(40.0) == 0.0
        assert log_ndtr(-1e200) == -math.inf


class TestGammaincc:
    @staticmethod
    def worst_rel_error(shapes, xs):
        worst = 0.0
        for a in shapes:
            for x in xs:
                want = float(sc.gammaincc(a, x))
                if want > 1e-250:
                    got = gammaincc(a, x)
                    worst = max(worst, abs(got - want) / want)
        return worst

    def test_matches_scipy(self):
        # both expansions, either side of their switch at x = a + 1 (and
        # x = 5 for a >= 1), and the closed forms
        shapes = ([0.5] + np.linspace(1.0, 4.0, 25).tolist()
                  + np.geomspace(1.0, 170.0, 40).tolist())
        xs = np.geomspace(1e-2, 1e5, 150).tolist()
        assert self.worst_rel_error(shapes, xs) < 1e-12
        for a in shapes:
            near = np.nextafter([a + 1.0, 5.0], [[0.0], [np.inf]]).ravel()
            near = near.tolist() + [0.9 * a, a, 1.1 * a, a + 1.0, 5.0]
            assert self.worst_rel_error([a], near) < 1e-12, a

    def test_large_shapes_stated_bound(self):
        # the prefactor's log cancels near x = a: 3e-11 up to a = 1e4
        shapes = np.geomspace(170.0, 1e4, 12).tolist()
        xs = np.geomspace(1e-2, 1e5, 120).tolist()
        assert self.worst_rel_error(shapes, xs) < 3e-11

    def test_closed_forms_and_ends(self):
        for x in (0.0, 0.3, 7.0, 800.0):
            assert gammaincc(1.0, x) == math.exp(-x)
            assert gammaincc(0.5, x) == math.erfc(math.sqrt(x))
        assert gammaincc(2.5, 0.0) == 1.0
        assert gammaincc(2.5, 1e5) == 0.0

    @pytest.mark.parametrize("a,x", [
        (math.nan, 1.0), (2.0, math.nan), (0.0, 1.0), (-1.0, 1.0),
        (math.inf, 1.0), (2.0, -1.0), (2.0, math.inf)])
    def test_bad_arguments(self, a, x):
        with pytest.raises(ValueError):
            gammaincc(a, x)

    @pytest.mark.parametrize("x", [1.5, 40.0])  # series, continued fraction
    def test_term_cap(self, x, monkeypatch):
        monkeypatch.setattr(special, "_GAMMAINCC_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError):
            gammaincc(2.5, x)
