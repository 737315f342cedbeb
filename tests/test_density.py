"""Density machinery: series coefficients, partial sums, kernels, weights,
truncation table, moments, and the domination check.

The kernels are tested in the untilted log form the samplers run
(``_log_kernel_*_unit``).  The samplers step the series coefficients by
their ratio (:func:`coef_ratio`) and never form a_n itself; the closed
form of a_n is kept here, as the reference :func:`log_coef_left_ref`.

Expected values marked by a comment come from the independent oracle
stated next to them (quadrature, a second series representation, or the
gamma-convolution series), computed here rather than trusted.
"""

import functools
import hashlib
from importlib import import_module
import math
from pathlib import Path
import sys
import warnings

import numpy as np
import pytest
from scipy import stats as spstats
from scipy.integrate import quad

from pgrv.density import (
    DOMINATION_SLACK,
    JStarParams,
    SUM_ROUNDING,
    TRUNC_H_MAX,
    build_mixture,
    c_index,
    coef_ratio,
    default_trunc_table,
    density,
    jstar_mean,
    jstar_var,
    sample_gamma_sum,
    tilt_rate,
    trunc_lookup,
    verify_domination,
    _gamma_sum_rates,
    _log_kernel_ell_unit,
    _log_kernel_r_unit,
    _ratio_sum,
    _trusted_ratio_sum,
)
from pgrv import devroye
from pgrv.alternate import _RatioCoefficients
from pgrv.devroye import TRUNC_POINT, _PastedCoefficients
from pgrv.errors import ConvergenceError
from pgrv.rng import RngStream

from gamma_sum_oracle import gamma_sum_oracle
from trunc_table_oracle import build_trunc_table, solve_trunc_point

TRUNC1 = 2.0 / np.pi
# by module name: the package namespace shadows ``pgrv.density``
density_module = import_module("pgrv.density")


def series_moment_oracle(h, z, n_terms=1_000_000):
    """Mean and variance from the gamma-convolution rates, with an
    Euler-Maclaurin tail estimate for the slowly converging mean."""
    n = np.arange(n_terms, dtype=float)
    d = 0.5 * np.pi ** 2 * (n + 0.5) ** 2 + 0.5 * z * z
    mean_head = np.sum(1.0 / d)
    # tail of sum 2/((pi (t+1/2))^2 + z^2) from t = n_terms
    edge = np.pi * (n_terms + 0.5)
    if z > 0:
        integral = (2.0 / (np.pi * z)) * math.atan(z / edge)
    else:
        integral = 2.0 / (np.pi * edge)
    f_edge = 2.0 / (edge ** 2 + z * z)
    mean_tail = integral + 0.5 * f_edge
    # the squared-rate series tail is below 1e-18; ignore it
    var_head = np.sum(1.0 / d ** 2)
    return h * (mean_head + mean_tail), h * var_head


def right_series_h1(x, z=0.0, n_terms=60):
    """Second (exponential-kernel) representation of the unit-shape
    density; converges fast for x above the paste point."""
    n = np.arange(n_terms, dtype=float)
    terms = (np.pi * (n + 0.5)
             * np.exp(-((n + 0.5) ** 2) * np.pi ** 2 * x / 2.0))
    val = np.sum(terms * (-1.0) ** n)
    return float(np.cosh(z) * np.exp(-x * z * z / 2.0) * val)


def mp_ratio_ref(x, h, dps=320):
    """f/a_0 = sum_n (-1)^n a_n/a_0 of the left series, in mpmath at a
    fixed 320 digits, from the closed form
    a_n/a_0 = Gamma(n+h)/(Gamma(h) n!) (2n+h)/h e^{-((2n+h)^2-h^2)/(2x)}.
    Enough for x <= 400, where the terms reach 1e5 and f/a_0 1e-207.
    Returns an ``mpf`` at that precision."""
    import mpmath as mp

    with mp.workdps(dps):
        x, h = mp.mpf(x), mp.mpf(h)
        s = mp.mpf(0)
        for n in range(100_000):
            t = (mp.exp(mp.loggamma(n + h) - mp.loggamma(h)
                        - mp.loggamma(n + 1) - ((2 * n + h) ** 2 - h * h)
                        / (2 * x)) * (2 * n + h) / h)
            s += t if n % 2 == 0 else -t
            if n > 2 * h and t < abs(s) * mp.mpf(10) ** -40:
                return +s
    raise AssertionError("reference series did not converge")


def mp_density_ref(x, h):
    """Untilted J*(h) density: the left kernel a_0 (closed form) times
    :func:`mp_ratio_ref`, in mpmath."""
    import mpmath as mp

    with mp.workdps(320):
        xm, hm = mp.mpf(x), mp.mpf(h)
        a0 = (2 ** hm * hm / mp.sqrt(2 * mp.pi) * xm ** mp.mpf(-1.5)
              * mp.exp(-hm * hm / (2 * xm)))
        return float(a0 * mp_ratio_ref(x, h))


def mp_right_kernel_ref(x, h):
    """Untilted right kernel (pi/2)^h x^{h-1} e^{-pi^2 x/8}/Gamma(h), in
    mpmath."""
    import mpmath as mp

    with mp.workdps(320):
        xm, hm = mp.mpf(x), mp.mpf(h)
        return ((mp.pi / 2) ** hm * xm ** (hm - 1)
                * mp.exp(-mp.pi ** 2 * xm / 8) / mp.gamma(hm))


def mp_right_ratio_ref(x, h):
    """f/r at zero tilt: :func:`mp_ratio_ref` times ell/r, with as many
    digits as the left series cancels, log10(ell/r) (535 at x = 1000, on
    top of 40 spare)."""
    import mpmath as mp

    def log_ell_over_r():
        xm, hm = mp.mpf(x), mp.mpf(h)
        log_ell = (hm * mp.log(2) + mp.log(hm) - mp.log(2 * mp.pi) / 2
                   - 1.5 * mp.log(xm) - hm * hm / (2 * xm))
        log_r = (hm * mp.log(mp.pi / 2) - mp.loggamma(hm)
                 + (hm - 1) * mp.log(xm) - mp.pi ** 2 * xm / 8)
        return log_ell - log_r

    with mp.workdps(30):
        dps = 40 + max(0, int(log_ell_over_r() / mp.log(10)))
    with mp.workdps(dps):
        return float(mp_ratio_ref(x, h, dps) * mp.exp(log_ell_over_r()))


def log_coef_left_ref(n, x, h):
    """log of the untilted left coefficient a_n^L(x | h): 2^h
    Gamma(n + h)/(Gamma(h) n!) (2n + h)/sqrt(2 pi) x^{-3/2}
    e^{-(2n + h)^2/(2x)}."""
    return (h * math.log(2.0) - math.lgamma(h)
            + math.lgamma(n + h) - math.lgamma(n + 1.0)
            + math.log(2.0 * n + h)
            - 0.5 * math.log(2.0 * math.pi) - 1.5 * math.log(x)
            - (2.0 * n + h) ** 2 / (2.0 * x))


def ell_ref(x, h):
    """Untilted left kernel: 2^h times an inverse-gamma(1/2, h^2/2) pdf."""
    return 2.0 ** h * spstats.invgamma(0.5, scale=h * h / 2.0).pdf(x)


def r_ref(x, h, z=0.0):
    """Right kernel over cosh^h(z): ((pi/2)/lam)^h times a Gamma(h, lam)
    pdf, lam = pi^2/8 + z^2/2."""
    lam = np.pi ** 2 / 8.0 + 0.5 * z * z
    return ((np.pi / 2.0) / lam) ** h * spstats.gamma(h, scale=1.0 / lam).pdf(x)


class TestIndices:
    def test_c0(self):
        assert c_index(0) == pytest.approx(np.pi ** 2 / 8.0, rel=1e-15)

    def test_c1(self):
        assert c_index(1) == pytest.approx(9.0 * np.pi ** 2 / 8.0, rel=1e-15)

    def test_ratio_is_odd_square(self):
        for n in range(6):
            assert c_index(n) / c_index(0) == pytest.approx((2 * n + 1) ** 2,
                                                            rel=1e-13)

    def test_d_reduces_to_c(self):
        # the gamma-sum route's rates d_n(z) = c_n + z^2/2, at z = 0
        rates = _gamma_sum_rates(4)
        assert np.array_equal(rates, [c_index(n) for n in range(4)])
        assert not rates.flags.writeable

    def test_d_values(self):
        # d_0(z) is the right kernel's rate; d_3(1) as the route forms it
        assert tilt_rate(2.0) == pytest.approx(np.pi ** 2 / 8.0 + 2.0,
                                               rel=1e-15)
        assert _gamma_sum_rates(4)[3] + 0.5 * 1.0 ** 2 == pytest.approx(
            49.0 * np.pi ** 2 / 8.0 + 0.5, rel=1e-15)


class TestCoefficients:
    def test_left_unit_shape_closed_form(self):
        for x in (0.2, 1.0, 3.0):
            for n in range(4):
                want = (np.pi * (n + 0.5) * (2.0 / (np.pi * x)) ** 1.5
                        * np.exp(-2.0 * (n + 0.5) ** 2 / x))
                got = np.exp(log_coef_left_ref(n, x, 1.0))
                assert got == pytest.approx(want, rel=1e-12)

    def test_tilt_factorization(self):
        # tilted and divided by cosh^h(z), the left kernel a_0 is 2^h e^{-hz}
        # times the IG(h/z, h^2) density the left proposal draws from (the
        # density's own tilt factor: TestDensity.test_tilt_consistency)
        for (h, z, x) in [(2.5, 1.0, 0.7), (1.0, 3.0, 1.2), (4.0, 0.5, 2.0)]:
            got = np.exp(_log_kernel_ell_unit(x, h) - x * z * z / 2.0)
            ig = spstats.invgauss((h / z) / (h * h), scale=h * h)
            want = 2.0 ** h * np.exp(-h * z) * ig.pdf(x)
            assert got == pytest.approx(want, rel=1e-12)

    def test_ratio_matches_quotient(self):
        for (h, x) in [(1.0, 0.5), (2.5, 1.3), (4.0, 3.0)]:
            for n in range(5):
                direct = np.exp(log_coef_left_ref(n + 1, x, h)
                                - log_coef_left_ref(n, x, h))
                assert coef_ratio(n, x, h) == pytest.approx(direct, rel=1e-12)

    def test_ratio_unit_shape_form(self):
        for n in range(4):
            for x in (0.5, 2.0):
                want = (1 + 2.0 / (2 * n + 1)) * np.exp(-(2.0 / x) * (2 * n + 2))
                assert coef_ratio(n, x, 1.0) == pytest.approx(want, rel=1e-13)

    def test_ratio_decreasing_in_n_increasing_in_x(self):
        n = np.arange(30)
        for h in (1.0, 2.3, 4.0):
            r = coef_ratio(n, 1.7, h)
            assert np.all(np.diff(r) < 0)
        x = np.linspace(0.2, 8.0, 40)
        r = coef_ratio(3, x, 2.0)
        assert np.all(np.diff(r) > 0)

    def test_ratio_once_below_one_stays(self):
        # the fact the series decider relies on, in the double arithmetic
        # it steps: the coefficients decrease or are unimodal at every
        # third t(h) node, x from _X_FLOOR to where the alternate bound
        # underflows (x ~ 620), and every ratio index the decider reaches
        hs, _ = default_trunc_table()
        ns = np.arange(devroye._MAX_SERIES_TERMS)[:, None]
        for h in hs[::3].tolist():
            xs = np.geomspace(100.0, 2000.0, 400)
            top = xs[np.argmax(
                _RatioCoefficients(h, trunc_lookup(h)).bound(xs) == 0.0)]
            x = np.geomspace(devroye._X_FLOOR, top, 300)
            below = coef_ratio(ns, x, h) < 1.0
            assert np.array_equal(np.logical_or.accumulate(below), below), h

    def test_right_h1_formula(self):
        # right of the paste point the unit-shape policy steps the right
        # series pi (n+1/2) e^{-(n+1/2)^2 pi^2 x/2}, over its n = 0 term
        policy = _PastedCoefficients()
        for x in (0.7, 1.5):
            def right(n):
                return (np.pi * (n + 0.5)
                        * np.exp(-((n + 0.5) ** 2) * np.pi ** 2 * x / 2.0))

            coef = 1.0
            for n in range(1, 4):
                coef, decreasing = policy.step(n, x, coef)
                assert decreasing
                assert coef == pytest.approx(right(n) / right(0), rel=1e-13)

    def test_left_right_equal_at_paste_point(self):
        # at t = 2/pi both unit-shape series start at (pi/2) e^{-pi/4}: the
        # left coefficient, and the right kernel pasted there at h = 1
        want = np.log(np.pi / 2.0) - np.pi / 4.0
        assert log_coef_left_ref(0, TRUNC_POINT, 1.0) == pytest.approx(
            want, abs=1e-12)
        assert _log_kernel_r_unit(TRUNC_POINT, 1.0, tilt_rate(0.0)) == (
            pytest.approx(want, abs=1e-12))

    def test_right_decreasing_at_x1(self):
        policy = _PastedCoefficients()
        vals = [1.0]
        for n in range(1, 10):
            vals.append(policy.step(n, 1.0, vals[-1])[0])
        assert np.all(np.diff(vals) < 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            coef_ratio(0, 1.0, 0.5)


def partial_sums(x, h, terms):
    """Untilted partial sums S_0..S_terms at x, divided by a_0(x), and the
    "decreasing" flags, as the series decider forms them from the
    real-shape sampler's coefficient policy (S_0 = a_0/a_0 = 1)."""
    policy = _RatioCoefficients(h, trunc_lookup(h))
    xs = np.array([x])
    coef = np.ones(1)
    s = 1.0
    sums, flags = [s], [False]
    for n in range(1, terms + 1):
        coef, decreasing = policy.step(n, xs, coef)
        s = s - coef[0] if n % 2 else s + coef[0]
        sums.append(s)
        flags.append(bool(decreasing[0]))
    return sums, flags


class TestPartialSums:
    def test_start_is_leading_coefficient(self):
        # the policy runs on a_n/a_0: S_0 is 1 and the bound is the
        # pasted kernel over a_0 (t(2) = 2.02: left piece at 0.3, right
        # piece at 3.0)
        sums, flags = partial_sums(1.1, 2.0, 0)
        assert sums[0] == 1.0
        assert not flags[0]
        x = np.array([0.3, 3.0])
        bound = _RatioCoefficients(2.0, trunc_lookup(2.0)).bound(x)
        want = np.array([1.0, r_ref(3.0, 2.0) / ell_ref(3.0, 2.0)])
        assert bound == pytest.approx(want, rel=1e-13)

    def test_first_step_decreases(self):
        sums, _ = partial_sums(0.8, 1.0, 1)
        assert sums[1] < sums[0]

    def test_convergence_unit_shape(self):
        sums, _ = partial_sums(1.0, 1.0, 12)
        assert abs(sums[12] - sums[11]) < 1e-12 * sums[11]

    def test_decreasing_flag_latches(self):
        # coefficients rise before they fall at this (x, h); the policy
        # keeps no flag, yet once a step says "decreasing" every later
        # one does
        _, flags = partial_sums(20.0, 4.0, 40)
        first = flags.index(True)
        assert first > 1
        assert all(flags[first:])

    def test_bracketing_after_flag(self):
        # once the flag is set, even sums sit above the density and odd
        # sums below it (the policy is untilted, so the tilt factor
        # cancels, and divided by a_0)
        for (h, z) in [(2.5, 0.0), (4.0, 1.0)]:
            p = JStarParams(h, z)
            for x in np.geomspace(0.1, 5.0, 12):
                f = (density(x, p) / (np.cosh(z) ** h * np.exp(-x * z * z / 2))
                     / np.exp(log_coef_left_ref(0, x, h)))
                sums, flags = partial_sums(x, h, 60)
                for n, (s, flag) in enumerate(zip(sums, flags)):
                    if flag:
                        if n % 2:
                            assert s <= f * (1 + 1e-12) + 1e-300
                        else:
                            assert s >= f * (1 - 1e-12) - 1e-300

    def test_rounding_bound_on_log_segment(self):
        # the decider trusts a double partial sum S_n only where it is
        # farther than SUM_ROUNDING * sum_{k<=n} |t_k| from u.  On the log
        # segment the terms rise far above S_0 before they fall; at every
        # sum the decider compares (the ratio below one) the double sum
        # is still within that bound of the exact one.  The exact terms
        # come from the closed form of a_n/a_0 (see mp_ratio_ref)
        import mpmath as mp

        rs = np.random.default_rng(25)
        hs = np.exp(rs.uniform(np.log(4.0), np.log(64.0), 150))
        xs = hs * np.exp(rs.uniform(np.log(0.01), np.log(20.0), 150))
        worst = 0.0
        with mp.workdps(40):
            for h, x in zip(hs.tolist(), xs.tolist()):
                policy = _RatioCoefficients(h, trunc_lookup(h))
                a = s = absum = 1.0
                log_t, exact, H = mp.mpf(0), mp.mpf(1), mp.mpf(h)
                for n in range(1, 1000):
                    a, can = policy.step(n, x, a)
                    s = s - a if n % 2 else s + a
                    absum += a
                    log_t += (mp.log((n - 1 + H) / n * (2 * n + H)
                                     / (2 * n - 2 + H))
                              - ((2 * n + H) ** 2 - (2 * n - 2 + H) ** 2)
                              / (2 * mp.mpf(x)))
                    exact += (-1) ** n * mp.exp(log_t)
                    if can:
                        worst = max(worst, float(abs(s - exact)) / absum)
                        if a <= 1e-17 * abs(s):
                            break
                else:
                    raise AssertionError("series did not converge")
        # measured over 80,000 points: at most 2.1 eps
        assert 0.0 < worst <= SUM_ROUNDING

    @pytest.mark.parametrize("h", [1.5, 2.5, 4.0, 16.0, 64.0])
    def test_decider_exact_in_far_right_tail(self, h):
        # past x ~ 30 (x ~ 4h on the log segment, whose terms rise far
        # above S_0) the partial sums cancel in double precision; every
        # decision must still be u k <= f/a_0, with no domination raise,
        # and the array decider on one-element, short and long arrays and
        # the float decider of the one-draw loop must agree.  f/a_0
        # depends on x only, so each point is summed in mpmath once
        policy = _RatioCoefficients(h, trunc_lookup(h))
        policy.exact_sum = functools.lru_cache(policy.exact_sum)
        lo, hi = {16.0: (64.0, 160.0), 64.0: (256.0, 384.0)}.get(h, (20, 60))
        xs = np.geomspace(lo, hi, 17)
        ref = [mp_ratio_ref(x, h) for x in xs.tolist()]
        bound = policy.bound(xs)
        decided = []
        for seed in range(10):
            u = RngStream(seed).uniform(xs.size) * bound
            want = [bool(ui <= f) for ui, f in zip(u.tolist(), ref)]
            runs = []
            for chunks in (np.array_split(xs, xs.size),   # one at a time
                           np.array_split(xs, 3),
                           [xs]):
                rng, counters = RngStream(seed), {}
                mask = []
                for c in chunks:
                    mask += devroye._series_decide(c, rng, policy,
                                                   counters).tolist()
                runs.append((mask, counters, rng.uniform()))
            rng, counters = RngStream(seed), {}
            mask = [bool(devroye._decide_one(x, ui, policy, counters))
                    for x, ui in zip(xs.tolist(),
                                     rng.uniform(xs.size).tolist())]
            runs.append((mask, counters, rng.uniform()))
            assert runs[0] == runs[1] == runs[2] == runs[3], seed
            assert runs[0][0] == want, seed
            assert runs[0][1]["exact_decisions"] > 0
            decided += want
        assert any(decided) and not all(decided)


class TestDensity:
    def test_normalization_unit_shape(self):
        val, err = quad(lambda x: density(x, JStarParams(1.0, 0.0)),
                        0.0, 60.0, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8 + 10 * err)

    @pytest.mark.parametrize("h,z", [(1.0, 0.0), (2.5, 1.0), (4.0, 2.0),
                                     (2.5, 0.0), (4.0, 1.0), (1.0, 1.0)])
    def test_normalization_grid(self, h, z):
        p = JStarParams(h, z)
        val, err = quad(lambda x: density(x, p), 0.0, 80.0, limit=400)
        assert val == pytest.approx(1.0, abs=1e-8 + 10 * err)

    def test_mean_by_quadrature(self):
        p = JStarParams(2.5, 1.0)
        val, err = quad(lambda x: x * density(x, p), 0.0, 80.0, limit=400)
        assert val == pytest.approx(jstar_mean(p), abs=1e-6 + 10 * err)

    def test_matches_right_series_unit_shape(self):
        for x in (0.5, 1.0, 2.0):
            got = density(x, JStarParams(1.0, 0.0))
            assert got == pytest.approx(right_series_h1(x), rel=1e-10)

    def test_tilt_consistency(self):
        for h in (1.0, 2.5, 4.0):
            for z in (0.5, 1.0, 3.0):
                for x in (0.3, 1.0, 2.5):
                    lhs = density(x, JStarParams(h, z))
                    rhs = (np.cosh(z) ** h * np.exp(-x * z * z / 2.0)
                           * density(x, JStarParams(h, 0.0)))
                    assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_extended_precision_agrees(self):
        # the ratio sum in mpmath arithmetic, times a_0 = the left kernel
        import mpmath as mp

        for (h, x) in [(1.0, 1.0), (2.5, 3.0), (4.0, 0.5)]:
            with mp.workdps(50):
                s, _ = _ratio_sum(mp.mpf(x), mp.mpf(h), mp.mpf(10) ** -50,
                                  100_000)
            exact = ell_ref(x, h) * float(s)
            assert density(x, JStarParams(h, 0.0)) == pytest.approx(
                exact, rel=1e-11)

    @pytest.mark.parametrize("h", [1.5, 2.5, 4.0])
    def test_far_right_tail_matches_extended_precision(self, h):
        # the double sum has no correct digit left past x = 35; the
        # helper re-sums those points in mpmath
        x = [34.0, 40.0, 60.0, 100.0]
        got = [density(xi, JStarParams(h, 0.0)) for xi in x]
        np.testing.assert_allclose(got, [mp_density_ref(xi, h) for xi in x],
                                   rtol=1e-10, atol=0.0)

    def test_underflowing_density_skips_the_sum(self, monkeypatch):
        # f <= r, so where the right kernel rounds to zero f does too, and
        # no mpmath digits are spent on it; at x = 600 f is a subnormal
        p = JStarParams(2.5, 0.0)
        want = float(mp_right_ratio_ref(600.0, 2.5)
                     * mp_right_kernel_ref(600.0, 2.5))
        assert density(600.0, p) == pytest.approx(want, rel=1e-6)

        def refuse(*args, **kwargs):
            raise AssertionError("summed a density that rounds to zero")

        monkeypatch.setattr(sys.modules["pgrv.density"], "_trusted_ratio_sum",
                            refuse)
        assert density(1000.0, p) == 0.0
        assert density(3000.0, p) == 0.0
        assert density(1000.0, JStarParams(4.0, 3.0)) == 0.0

    def test_domain_and_convergence_errors(self):
        with pytest.raises(ValueError):
            density(0.0, JStarParams(1.0, 0.0))
        # refused up front, not summed to the term cap
        for x in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                density(x, JStarParams(2.5, 0.0))
        with pytest.raises(ValueError, match="density: shape h=0.5"):
            density(1.0, JStarParams(0.5, 0.0))
        with pytest.raises(ConvergenceError):
            _ratio_sum(50.0, 1.0, 1e-13, 5)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            JStarParams(0.0, 0.0)
        assert JStarParams(1.0, -2.0).z == 2.0


class TestGammaSum:
    # the remainder gamma carries the dropped terms' mean and variance,
    # so the draws have J*'s whatever the explicit term count; ``terms``
    # patches the sampler's count rule to give exactly that many
    @pytest.fixture
    def terms(self, request, monkeypatch):
        module = sys.modules["pgrv.density"]
        monkeypatch.setattr(module, "_GAMMA_SUM_MIN_TERMS", request.param)
        monkeypatch.setattr(module, "_GAMMA_SUM_MIN_HN", 0.0)
        return request.param

    @pytest.mark.parametrize("terms", [1, 10, 200], indirect=True)
    def test_mean_is_exact(self, terms):
        p = JStarParams(2.0, 1.0)
        draws = sample_gamma_sum(p, RngStream(5), size=100_000)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - jstar_mean(p)) < 4 * se

    @pytest.mark.parametrize("terms", [1, 10, 200], indirect=True)
    def test_variance_is_exact(self, terms):
        p = JStarParams(1.5, 0.5)
        draws = sample_gamma_sum(p, RngStream(7), size=100_000)
        assert draws.var(ddof=1) / jstar_var(p) == pytest.approx(1.0,
                                                                 abs=0.03)

    @pytest.mark.parametrize("h,terms", [(4.0, 20), (0.1, 20), (0.09, 23),
                                         (0.05, 40), (1e-3, 2000),
                                         (1e-4, 20_000), (1e-6, 20_000)])
    def test_term_count_rule(self, h, terms):
        # max(20, ceil(2/h)) explicit Gamma(h) terms, h floored at 1e-4
        sizes = []

        class Recorder(RngStream):
            def gamma(self, shape, size=None):
                sizes.append(size)
                return super().gamma(shape, size=size)

        sample_gamma_sum(JStarParams(h, 0.5), Recorder(0))
        one = sizes[0]
        sizes.clear()
        sample_gamma_sum(JStarParams(h, 0.5), Recorder(0), size=3)
        assert (one, sizes[0]) == (terms, (3, terms))

    def test_unit_shape_200_terms(self):
        # the 200-term oracle of the exact samplers' KS tests
        draws = gamma_sum_oracle(JStarParams(1.0, 0.0), 200, RngStream(6),
                                 100_000)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 4 * se

    def test_scalar_draw(self):
        v = sample_gamma_sum(JStarParams(1.0, 0.0), RngStream(8))
        assert isinstance(v, float) and v > 0


class TestMoments:
    @pytest.mark.parametrize("h,z", [(1.0, 0.0), (3.0, 2.0), (2.5, 1.0),
                                     (0.5, 0.7), (16.0, 0.5)])
    def test_closed_forms_match_series(self, h, z):
        mean_o, var_o = series_moment_oracle(h, z)
        p = JStarParams(h, z)
        assert jstar_mean(p) == pytest.approx(mean_o, rel=1e-10)
        assert jstar_var(p) == pytest.approx(var_o, rel=1e-10)

    def test_unit_values(self):
        assert jstar_mean(JStarParams(1.0, 0.0)) == pytest.approx(1.0,
                                                                  rel=1e-13)
        # sum 1/c_n^2 = 2/3 by the series oracle
        _, var_o = series_moment_oracle(1.0, 0.0)
        assert var_o == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert jstar_var(JStarParams(1.0, 0.0)) == pytest.approx(2.0 / 3.0,
                                                                 rel=1e-13)

    def test_series_switch_accurate_both_sides(self):
        # both branches around the small-z series cut agree with an
        # extended-precision reference
        import mpmath as mp

        for z in (0.009999, 0.010001, 9.9e-5, 1.01e-4):
            with mp.workdps(60):
                zm = mp.mpf(z)
                t = mp.tanh(zm)
                mean_ref = float(t / zm)
                var_ref = float((zm * t * t - zm + t) / zm ** 3)
            assert jstar_mean(JStarParams(1.0, z)) == pytest.approx(
                mean_ref, rel=1e-11)
            assert jstar_var(JStarParams(1.0, z)) == pytest.approx(
                var_ref, rel=1e-11)


class TestKernels:
    def test_left_is_scaled_inverse_gamma_at_zero_tilt(self):
        for h in (1.0, 2.5, 4.0):
            for x in (0.3, 1.0, 2.0):
                assert np.exp(_log_kernel_ell_unit(x, h)) == pytest.approx(
                    ell_ref(x, h), rel=1e-12)

    def test_left_equals_leading_coefficient(self):
        for h in (1.0, 2.5, 4.0):
            for x in (0.2, 0.6):
                assert np.exp(_log_kernel_ell_unit(x, h)) == pytest.approx(
                    np.exp(log_coef_left_ref(0, x, h)), rel=1e-13)

    def test_right_is_scaled_gamma(self):
        h, z = 2.5, 1.0
        for x in (0.5, 1.5, 4.0):
            got = np.exp(_log_kernel_r_unit(x, h, tilt_rate(z)))
            assert got == pytest.approx(r_ref(x, h, z), rel=1e-12)


class TestMixtureWeights:
    @staticmethod
    def kernel_masses(h, z, t):
        """Quadrature of the tilted kernels over cosh^h(z), either side
        of t, with their error estimates."""
        left = quad(lambda x: np.exp(_log_kernel_ell_unit(x, h)
                                     - x * z * z / 2.0), 0.0, t)
        right = quad(lambda x: np.exp(_log_kernel_r_unit(x, h, tilt_rate(z))),
                     t, np.inf)
        return left, right

    def test_total_mass_matches_quadrature(self):
        mix = build_mixture(TRUNC1, 1.0, 0.0)
        (left, el), (right, er) = self.kernel_masses(1.0, 0.0, TRUNC1)
        assert np.exp(mix.log_p) == pytest.approx(left, abs=1e-8 + 10 * el)
        assert np.exp(mix.log_q) == pytest.approx(right, abs=1e-8 + 10 * er)

    def test_total_mass_tilted(self):
        # the masses omit cosh^h(z), and so do the kernels integrated here
        mix = build_mixture(1.0, 2.0, 1.5)
        (left, el), (right, er) = self.kernel_masses(2.0, 1.5, 1.0)
        assert np.exp(mix.log_p) == pytest.approx(left, abs=1e-8 + 10 * el)
        assert np.exp(mix.log_q) == pytest.approx(right, abs=1e-8 + 10 * er)

    def test_continuity_in_tilt(self):
        for h in (1.0, 3.0):
            p0 = np.exp(build_mixture(0.8, h, 0.0).log_p)
            p1 = np.exp(build_mixture(0.8, h, 1e-8).log_p)
            assert p1 == pytest.approx(p0, rel=1e-6)

    def test_right_mass_closed_form(self):
        # Q(1, x) = e^-x turns the right mass into (4/pi) e^{-pi/4}
        qm = np.exp(build_mixture(TRUNC1, 1.0, 0.0).log_q)
        assert qm == pytest.approx((4.0 / np.pi) * np.exp(-np.pi / 4.0),
                                   rel=1e-12)

    def test_left_mass_untilted_is_erfc(self):
        # p = 2^h Q(1/2, h^2/(2t)) = 2^h erfc(h/sqrt(2t)) at z = 0
        for h in (1.0, 2.5, 4.0):
            for t in (0.3, 0.64, 2.0):
                pm = np.exp(build_mixture(t, h, 0.0).log_p)
                want = 2.0 ** h * math.erfc(h / math.sqrt(2.0 * t))
                assert pm == pytest.approx(want, rel=1e-12)

    def test_right_mass_exponential_tail(self):
        # at h = 1, Q(1, x) = e^-x: q = (pi/2)/lam_z e^{-lam_z t}
        for z in (0.0, 1.0, 3.0):
            lam = tilt_rate(z)
            for t in (0.1, 0.64, 5.0):
                qm = np.exp(build_mixture(t, 1.0, z).log_q)
                want = (np.pi / 2.0) / lam * math.exp(-lam * t)
                assert qm == pytest.approx(want, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            build_mixture(0.0, 1.0, 0.0)

    @pytest.mark.parametrize("trunc,h,z", [
        (math.nan, 1.0, 0.5), (math.inf, 1.0, 0.5), (0.64, math.nan, 0.5),
        (0.64, math.inf, 0.5), (0.64, 0.0, 0.5), (0.64, 1.0, math.nan),
        (0.64, 1.0, math.inf), (0.64, 1.0, -math.inf)])
    def test_non_finite_inputs_rejected(self, trunc, h, z):
        # each of these used to give a NaN mixture without an error
        with pytest.raises(ValueError):
            build_mixture(trunc, h, z)

    def test_left_fraction_stored_bit_for_bit(self):
        # stored once, computed on floats, it equals numpy's formula bit
        # for bit; the grid reaches log_q = -inf (the right tail mass
        # underflows) and z = 1e5
        underflowed = 0
        for h in (1.0, 1.5, 2.5, 3.875, 4.0):
            t = TRUNC1 if h == 1.0 else trunc_lookup(h)
            for z in (0.0, 1e-8, 0.3, 1.0, 4.0, 40.0, 1e3, 1e5):
                mix = build_mixture(t, h, z)
                want = np.exp(mix.log_p - np.logaddexp(mix.log_p, mix.log_q))
                assert type(mix.left_fraction) is float
                assert mix.left_fraction.hex() == float(want).hex(), (h, z)
                underflowed += mix.log_q == -np.inf
        assert underflowed


class TestTruncationPoint:
    def test_unit_shape_value(self):
        assert solve_trunc_point(1.0) == pytest.approx(TRUNC1, abs=1e-6)

    # 9.7 and above: the root lies past the [0.05, 10] bracket of [1, 4]
    @pytest.mark.parametrize("h", [1.0, 2.0, 4.0, 9.7, 64.0])
    def test_kernels_equal_at_root(self, h):
        t = solve_trunc_point(h)
        assert ell_ref(t, h) == pytest.approx(r_ref(t, h), rel=1e-9)

    @pytest.mark.parametrize("h", [1.5, 3.0, 20.0])
    def test_minimizes_total_mass(self, h):
        t = solve_trunc_point(h)

        def total(tt):
            mix = build_mixture(tt, h, 0.0)
            return np.exp(mix.log_p) + np.exp(mix.log_q)

        assert total(t - 0.05) > total(t)
        assert total(t + 0.05) > total(t)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            solve_trunc_point(0.9)
        with pytest.raises(ValueError):
            solve_trunc_point(64.5)


class TestTruncTable:
    """The one built-in t(h) table that trunc_lookup interpolates in."""

    def test_grid_shape(self):
        # [1, 4] by 0.0025, then 8 nodes per doubling to 64, each a
        # multiple of 1/1024
        hs, ts = default_trunc_table()
        assert hs.size == ts.size == 1201 + 32
        assert hs[0] == 1.0 and hs[1200] == 4.0 and hs[-1] == TRUNC_H_MAX
        assert np.all(np.diff(hs) > 0.0)
        log_hs = hs[1201:]
        assert np.all(log_hs * 1024.0 == np.round(log_hs * 1024.0))
        np.testing.assert_allclose(np.diff(np.log2(hs[1200:])), 1.0 / 8.0,
                                   atol=2e-4)

    def test_linear_segment_keeps_its_rows(self):
        # the 1,201 rows on [1, 4] that alternate draws at b <= 4 (and
        # at tilts below the first piece-cap step) read keep their bits
        shipped = Path(density_module.__file__).with_name("trunc_table.csv")
        head = "".join(shipped.read_text().splitlines(True)[:1202])
        assert hashlib.sha256(head.encode()).hexdigest() == (
            "d0e9c84c059c09f8a841863eae885b698de8386e310468056cff4a77a6dce64e")

    def test_on_grid_exact(self):
        # the shipped file is the solver's table, bit for bit, on all
        # 1,233 rows
        hs, ts = default_trunc_table()
        solved_hs, solved_ts = build_trunc_table()
        stale = ("src/pgrv/trunc_table.csv differs from "
                 "trunc_table_oracle.build_trunc_table()")
        assert hs.size == solved_hs.size == 1233
        assert np.array_equal(hs, solved_hs), stale
        assert np.array_equal(ts, solved_ts), stale
        assert all(trunc_lookup(h) == t for h, t in zip(hs, ts))

    @pytest.mark.parametrize("h", [2.345, 1.019, 1.0042, 3.7771, 4.18,
                                   9.9, 33.3, 63.2])
    def test_default_table_interpolation_error(self, h):
        # off the grid; t(h) curves hardest just above h = 1
        assert trunc_lookup(h) == pytest.approx(solve_trunc_point(h),
                                                abs=1e-4)

    def test_smoothness(self):
        # t(h) rises and is concave: its secant slopes fall from about 4
        # at h = 1 to about 1.03 at h = 64
        hs, ts = default_trunc_table()
        assert np.all(np.abs(np.diff(ts[:1201])) < 0.05)
        slopes = np.diff(ts) / np.diff(hs)
        assert np.all(np.diff(slopes) < 0.0)
        assert 1.0 < slopes[-1] < slopes[0] < 4.1

    def test_range_error(self):
        with pytest.raises(ValueError):
            trunc_lookup(0.99)
        with pytest.raises(ValueError):
            trunc_lookup(64.01)

    def test_module_level_lookup(self):
        assert trunc_lookup(1.0) == pytest.approx(TRUNC1, abs=1e-6)

    def test_read_only(self):
        hs, ts = default_trunc_table()
        with pytest.raises(ValueError):
            ts[0] = 0.5

    def test_lookup_has_np_interp_bits(self):
        # every node, every midpoint, both float neighbours of each node
        # and 200k uniform points on [1, 4], 20k on [4, 64]
        hs, ts = default_trunc_table()
        pts = np.concatenate([
            hs, (hs[:-1] + hs[1:]) / 2.0, np.nextafter(hs[1:], 0.0),
            np.nextafter(hs[:-1], 65.0),
            np.random.default_rng(0).uniform(1.0, 4.0, 200_000),
            np.random.default_rng(1).uniform(4.0, 64.0, 20_000)])
        got = np.array([trunc_lookup(h) for h in pts.tolist()])
        assert pts.size == 204_801 + 4 * 32 + 20_000
        assert np.array_equal(got, np.interp(pts, hs, ts))
        assert type(trunc_lookup(2.0)) is float


class TestTrustedSum:
    @pytest.mark.parametrize("h", [1.0, 2.5, 4.0])
    def test_array_equals_elementwise_scalar_calls(self, h):
        # with verify_domination's tolerance and scale, so that both the
        # double route and the mpmath route run, and e^{log_scale}
        # overflows a double past x ~ 580
        x = np.geomspace(0.05, 1000.0, 60)
        rel_err = DOMINATION_SLACK / 100
        log_lr = _log_kernel_ell_unit(x, h) - _log_kernel_r_unit(
            x, h, tilt_rate(0.0))
        scale = np.where(log_lr > 700.0, log_lr, 0.0)
        s, err = _ratio_sum(x, h, 1e-17, 10_000)
        in_doubles = err <= rel_err * np.abs(s)
        assert in_doubles.any() and not in_doubles.all()
        assert scale.max() > 700.0
        got = _trusted_ratio_sum(x, h, rel_err, scale)
        want = [_trusted_ratio_sum(xi, h, rel_err, li)
                for xi, li in zip(x.tolist(), scale.tolist())]
        assert all(type(w) is float for w in want)
        assert got.tolist() == want


class TestDomination:
    @pytest.mark.parametrize("h", [1.0, 4.0])
    def test_bounded_by_one(self, h):
        report = verify_domination(h)
        assert report.max_rho_left <= 1.0 + 1e-9
        assert report.max_rho_right <= 1.0 + 1e-9
        assert report.passed

    def test_monotone_along_grid(self):
        # f/ell falls from 1 toward 0 as x grows; f/r climbs from 0 to 1
        report = verify_domination(2.0)
        assert np.all(np.diff(report.rho_left) <= 1e-12)
        assert np.all(np.diff(report.rho_right) >= -1e-12)

    def test_family_monotone_in_shape(self):
        # at fixed x the f/ell curve rises with h and the f/r curve falls
        grid = np.geomspace(0.05, 8.0, 40)
        reports = [verify_domination(h, grid) for h in (1.0, 2.0, 3.0, 4.0)]
        for lo, hi in zip(reports, reports[1:]):
            assert np.all(hi.rho_left >= lo.rho_left - 1e-12)
            assert np.all(hi.rho_right <= lo.rho_right + 1e-12)

    @pytest.mark.parametrize("h", [1.5, 2.5, 4.0])
    def test_far_right_tail_matches_extended_precision(self, h):
        # f/r approaches 1 from below; f/ell falls to 1e-207 at x = 400
        import mpmath as mp

        x = [60.0, 100.0, 200.0, 400.0]
        report = verify_domination(h, x)
        assert report.passed
        with mp.workdps(320):
            want = [float(mp_density_ref(xi, h) / mp_right_kernel_ref(xi, h))
                    for xi in x]
        np.testing.assert_allclose(report.rho_right, want, rtol=1e-9)
        assert np.all(report.rho_right < 1.0)

    @pytest.mark.parametrize("h", [1.0, 2.5, 4.0])
    def test_far_right_tail_past_double_range(self, h):
        # past x ~ 580 ell/r overflows a double and f/ell underflows; f/r
        # must still come out right, without a floating-point warning
        x = [600.0, 1000.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = verify_domination(h, x)
        assert report.passed
        np.testing.assert_allclose(
            report.rho_right, [mp_right_ratio_ref(xi, h) for xi in x],
            rtol=1e-9)
        assert np.all(report.rho_right < 1.0)

    def test_kernels_dominate_at_every_table_node_and_midpoint(self):
        # the certificate behind the alternate sampler: both kernels
        # dominate on a 200-point grid over [0.02, 10] at each t(h) node
        # and midpoint on [1, 4]; the decider's odd-sum check guards
        # every draw
        hs = default_trunc_table()[0][:1201]
        shapes = np.concatenate([hs, (hs[:-1] + hs[1:]) / 2.0])
        grid = np.logspace(np.log10(0.02), np.log10(10.0), 200)
        assert shapes.size == 2401
        failed = [h for h in shapes.tolist()
                  if not verify_domination(h, grid).passed]
        assert failed == []

    def test_kernels_dominate_at_every_log_node_and_midpoint(self):
        # the same certificate on (4, 64], with the grid scaled to the
        # shape: 60 points over [0.01 h, 5 h], where the left kernel
        # binds (f/ell -> 1 as x -> 0) and the proposals land, and x =
        # 20 h, where f/r has climbed to 0.53 at h = 64 (0.97 at 4.36).
        # A right kernel half as large fails there at every shape
        hs = default_trunc_table()[0][1200:]
        shapes = np.concatenate([hs[1:], (hs[:-1] + hs[1:]) / 2.0])
        assert shapes.size == 64
        worst_right = 1.0
        for h in shapes.tolist():
            grid = np.append(np.geomspace(0.01 * h, 5.0 * h, 60), 20.0 * h)
            report = verify_domination(h, grid)
            assert report.passed, h
            worst_right = min(worst_right, report.max_rho_right)
        assert worst_right > 0.5

    def test_domain_error(self):
        with pytest.raises(ValueError):
            verify_domination(0.5)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_grid_must_be_positive_and_finite(self, bad):
        # refused, not reported as a fake ratio or summed to the term cap
        with pytest.raises(ValueError, match="positive and finite"):
            verify_domination(2.5, [bad, 1.0])
