"""Saddlepoint machinery: CGF derivatives, saddle solver, dual-function
geometry, envelope dominance, density accuracy, and the sampler.

The saddle solve and the saddlepoint density are tested in the private
forms the sampler runs (``_solve_u_vec``, ``_log_sp_vec``); the dual
phi and the corrected exponent eta are formed here from them.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from pgrv.density import JStarParams, density, jstar_mean, jstar_var
from pgrv.rng import RngStream
from pgrv.saddle import (
    U_MAX,
    build_envelope,
    cgf,
    cgf_p1,
    cgf_p2,
    check_curvature_monotonicity,
    sample_saddle_batch,
    _log_envelope,
    _log_sp_vec,
    _solve_u_vec,
    _u_bracket,
)

N = 100_000

FD_GRID_S = [-2.0, -0.5, 0.0, 0.3]
FD_GRID_Z = [0.0, 1.0, 3.0]


def saddle_s(x, z):
    """The saddle s of K'(s) = x, from the sampler's shifted-dual solve."""
    return _solve_u_vec(x) + 0.5 * z * z


def phi(x, z):
    """The concave dual phi(x) = K(s(x)) - s(x) x."""
    s = saddle_s(x, z)
    return cgf(s, z) - s * x


def eta(x, z, x_c):
    """phi minus the tail-shape correction delta of the module docstring."""
    x = np.asarray(x, dtype=float)
    delta = np.where(x <= x_c, 0.5 / x_c - 0.5 / x, np.log(x / x_c))
    return phi(x, z) - delta


def sp_density(x, n, z):
    """The saddlepoint density, from the sampler's log form."""
    return float(np.exp(_log_sp_vec(x, n, z)))


class TestCgf:
    def test_value_at_origin(self):
        for z in (0.0, 0.5, 2.0, 5.0):
            assert cgf(0.0, z) == pytest.approx(0.0, abs=1e-14)

    def test_first_derivative_at_origin(self):
        assert cgf_p1(0.0, 0.0) == 1.0
        for z in (0.5, 2.0):
            assert cgf_p1(0.0, z) == pytest.approx(np.tanh(z) / z, rel=1e-12)

    def test_second_derivative_at_origin(self):
        # K''(0) = 2/3 at zero tilt (second cumulant of the unit shape)
        assert cgf_p2(0.0, 0.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert jstar_var(JStarParams(1.0, 0.0)) == pytest.approx(2.0 / 3.0,
                                                                 rel=1e-13)

    def test_derivatives_match_finite_differences(self):
        for z in FD_GRID_Z:
            for s in FD_GRID_S:
                if s - 0.5 * z * z >= U_MAX - 0.01:
                    continue
                h = 1e-6 * max(1.0, abs(s))
                fd1 = (cgf(s + h, z) - cgf(s - h, z)) / (2 * h)
                assert fd1 == pytest.approx(cgf_p1(s, z), rel=1e-6)
                fd2 = (cgf_p1(s + h, z) - cgf_p1(s - h, z)) / (2 * h)
                assert fd2 == pytest.approx(cgf_p2(s, z), rel=1e-6)

    def test_strict_convexity(self):
        s = np.linspace(-5.0, U_MAX - 1e-3, 200)
        vals = cgf_p1(s, 0.0)
        assert np.all(np.diff(vals) > 0)

    def test_boundary_blowup_and_decay(self):
        assert cgf_p1(U_MAX - 1e-7, 0.0) > 1e3
        assert cgf_p1(-1e7, 0.0) < 1e-3

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cgf(U_MAX, 0.0)
        with pytest.raises(ValueError):
            cgf_p2(U_MAX + 1.0, 0.0)


class TestSolveSaddle:
    def test_mode_maps_to_zero_dual(self):
        for z in (0.5, 2.0):
            assert abs(saddle_s(np.tanh(z) / z, z)) < 1e-10

    def test_unit_mean_zero_tilt(self):
        assert _solve_u_vec(1.0) == 0.0
        assert _solve_u_vec(np.array([0.5, 1.0, 2.0]))[1] == 0.0

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("z", [0.0, 1.0])
    def test_round_trip(self, x, z):
        s = saddle_s(x, z)
        assert cgf_p1(s, z) == pytest.approx(x, abs=1e-10 * max(1.0, x))

    def test_sign_structure(self):
        u = _solve_u_vec(np.array([0.5, 2.0]))
        assert u[0] < 0 < u[1] < U_MAX

    # crosses every bracket branch: x < 0.8, 0.8 < x < 1, x == 1, x > 1
    BRANCH_GRID = np.concatenate([
        np.geomspace(1e-3, 0.79, 25), np.linspace(0.81, 0.999, 12), [1.0],
        np.geomspace(1.0 + 1e-6, 1e3, 25),
    ])

    def test_bracket_matches_scalar_reference(self):
        def scalar_bracket(x):
            if x < 1.0:
                lo = -0.5 / (x * x) - 1.0
                hi = 0.0
                seed = max(lo + 1e-12, min(-1e-18, 1.5 * (x - 1.0))) \
                    if x > 0.8 else -0.5 / (x * x)
            else:
                lo = 0.0
                theta = 0.5 * np.pi - 1.0 / (np.pi * x)
                hi = 0.5 * theta * theta
                seed = max(min(1.5 * (x - 1.0), 0.95 * hi), 1e-18)
            return lo, hi, seed

        xs = self.BRANCH_GRID
        want = np.array([scalar_bracket(float(x)) for x in xs]).T
        assert np.array_equal(np.array(_u_bracket(xs)), want)

    def test_array_solve_matches_elementwise(self):
        xs = self.BRANCH_GRID
        one_by_one = np.array([_solve_u_vec(np.array([x]))[0] for x in xs])
        assert np.array_equal(_solve_u_vec(xs), one_by_one)


class TestDualFunctions:
    def test_phi_vanishes_at_mode(self):
        assert phi(1.0, 0.0) == pytest.approx(0.0, abs=1e-13)
        for z in (0.5, 2.0):
            assert phi(np.tanh(z) / z, z) == pytest.approx(0.0, abs=1e-12)

    def test_phi_prime_is_negative_dual(self):
        for x in (0.5, 1.5):
            z = 1.0
            h = 1e-6
            fd = (phi(x + h, z) - phi(x - h, z)) / (2 * h)
            assert fd == pytest.approx(-saddle_s(x, z), rel=1e-6, abs=1e-9)

    def test_delta_continuous_and_zero_at_center(self):
        # with its K'' constant and tangent line taken off, each piece of
        # the envelope's log kernel is n delta(x) - c log x (c = 3/2 left,
        # 1 right), so delta is continuous and vanishes at x_c
        n = 8.0
        for z in (0.0, 1.0, 4.0):
            env = build_envelope(n, z)
            xc = env.x_c

            def delta(x):
                left = x <= xc
                k2 = np.where(left, env.alpha_l, env.alpha_r)
                line = np.where(left, env.intercept_l + env.slope_l * x,
                                env.intercept_r + env.slope_r * x)
                rest = (0.5 * np.log(n / (2 * np.pi)) - 0.5 * np.log(k2)
                        - np.where(left, 1.5, 1.0) * np.log(x) + n * line)
                return (_log_envelope(env, x) - rest) / n

            assert delta(np.array([xc]))[0] == pytest.approx(0.0, abs=1e-12)
            near = delta(np.array([xc * (1 - 1e-12), xc * (1 + 1e-12)]))
            assert near == pytest.approx(0.0, abs=1e-11)
            xs = np.array([0.5 * xc, 2.0 * xc])
            assert delta(xs) == pytest.approx(
                [0.5 / xc - 0.5 / xs[0], np.log(xs[1] / xc)], abs=1e-12)

    def test_delta_one_sided_derivatives(self):
        # the stored tangent slopes are eta'(x) = -s(x) - delta'(x), with
        # delta' = 1/(2x^2) left of x_c and 1/x right of it
        for z in (0.0, 1.0, 4.0):
            env = build_envelope(8.0, z)
            h = 1e-6 * env.m
            for x, slope in ((env.x_l, env.slope_l), (env.x_r, env.slope_r)):
                fd = (eta(x + h, z, env.x_c)
                      - eta(x - h, z, env.x_c)) / (2 * h)
                assert fd == pytest.approx(slope, rel=1e-6, abs=1e-9)
            assert env.slope_l == pytest.approx(
                -saddle_s(env.x_l, z) - 0.5 / env.x_l ** 2, rel=1e-12)
            assert env.slope_r == pytest.approx(
                -saddle_s(env.x_r, z) - 1.0 / env.x_r, rel=1e-12)

    @pytest.mark.parametrize("z", [0.0, 1.0, 4.0])
    def test_eta_concave_each_side(self, z):
        m = np.tanh(z) / z if z > 0 else 1.0
        xc = 1.1 * m
        for lo, hi in [(m / 10, xc), (xc, 10 * m)]:
            xs = np.linspace(lo, hi, 500)
            vals = eta(xs, z, xc)
            second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
            assert np.all(second <= 1e-9)

    @pytest.mark.parametrize("z", [0.0, 1.0, 4.0])
    def test_tangents_dominate_eta(self, z):
        # and touch it at the tangent points
        env = build_envelope(8.0, z)
        xs = np.geomspace(env.m / 20, env.x_c, 200)
        line = env.intercept_l + env.slope_l * xs
        assert np.all(line >= eta(xs, z, env.x_c) - 1e-10)
        xs = np.geomspace(env.x_c, 20 * env.m, 200)
        line = env.intercept_r + env.slope_r * xs
        assert np.all(line >= eta(xs, z, env.x_c) - 1e-10)
        touch = eta(np.array([env.x_l, env.x_r]), z, env.x_c)
        assert touch == pytest.approx(
            [env.intercept_l + env.slope_l * env.x_l,
             env.intercept_r + env.slope_r * env.x_r], abs=1e-12)


class TestCurvatureBounds:
    @pytest.mark.parametrize("z", [0.0, 1.0, 4.0])
    def test_alpha_bounds_hold(self, z):
        env = build_envelope(8.0, z)
        xs = np.geomspace(env.m / 50, env.x_c, 400)
        k2 = cgf_p2(saddle_s(xs, z), z)
        ratio3 = k2 / xs ** 3
        assert np.all(ratio3 >= env.alpha_l - 1e-12)
        assert np.all(ratio3 <= 1.0 + 1e-9)
        xs = np.geomspace(env.x_c, 50 * env.m, 400)
        k2 = cgf_p2(saddle_s(xs, z), z)
        ratio2 = k2 / xs ** 2
        assert np.all(ratio2 >= env.alpha_r - 1e-12)
        assert np.all(ratio2 <= 1.0 + 1e-9)

    @pytest.mark.parametrize("z", [0.0, 1.0, 4.0])
    def test_monotonicity_check_clean(self, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = check_curvature_monotonicity(z)
        assert all(result.values())

    def test_monotonicity_check_reports_failure(self, monkeypatch):
        # K''/x in place of K'' turns K''/x^2 into K''/x^3, which
        # decreases: the check must report that in its dict, not warn
        from pgrv import saddle

        true_p2 = saddle.cgf_p2
        monkeypatch.setattr(saddle, "cgf_p2",
                            lambda s, z: true_p2(s, z) / cgf_p1(s, z))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = check_curvature_monotonicity(1.0)
        assert result["ratio_x2_increasing"] is False
        assert not all(result.values())


class TestEnvelope:
    def test_zero_tilt_geometry(self):
        env = build_envelope(16.0, 0.0)
        assert env.m == 1.0
        assert env.rho_l == pytest.approx(1.0, abs=1e-10)
        assert env.ig_mu == pytest.approx(1.0, abs=1e-10)
        assert env.x_c == pytest.approx(1.1)
        assert env.x_r == pytest.approx(1.2)

    @pytest.mark.parametrize("n,z", [(4.0, 0.0), (16.0, 1.0), (64.0, 2.0)])
    def test_dominates_on_grid(self, n, z):
        env = build_envelope(n, z)
        xs = np.logspace(np.log10(env.m / 20), np.log10(20 * env.m), 2000)
        gap = _log_envelope(env, xs) - _log_sp_vec(xs, n, z)
        assert gap.min() >= np.log1p(-1e-9)

    def test_mode_matches_at_large_shape(self):
        env = build_envelope(256.0, 1.0)
        xs = np.linspace(env.m * 0.8, env.m * 1.2, 4001)
        k = _log_envelope(env, xs)
        assert xs[np.argmax(k)] == pytest.approx(env.m, rel=0.02)

    def test_cache_returns_same_object(self):
        assert build_envelope(32.0, 0.5) is build_envelope(32.0, 0.5)

    def test_fresh_envelope_solves_once(self, monkeypatch):
        from pgrv import saddle

        calls = []
        solve = saddle._solve_u_vec

        def counting_solve(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(saddle, "_solve_u_vec", counting_solve)
        saddle._build_envelope_cached.cache_clear()
        build_envelope(24.0, 0.8)
        assert len(calls) == 1

    def test_validation(self):
        # the envelope checks its own inputs: a non-finite n used to fail
        # inside a special function, and a non-finite z as a numerical
        # failure (ConvergenceError) instead of a usage error
        bad = [(0.0, 0.0), (-3.0, 1.0), (-0.0, 1.0), (math.nan, 1.0),
               (math.inf, 1.0), (-math.inf, 1.0), (8.0, math.nan),
               (8.0, math.inf), (8.0, -math.inf)]
        for n, z in bad:
            with pytest.raises(ValueError, match="build_envelope"):
                build_envelope(n, z)


class TestSpDensity:
    def test_unit_value_at_mode(self):
        # sqrt(1/2pi) * K''(0)^{-1/2} with K''(0) = 2/3
        want = np.sqrt(1.0 / (2 * np.pi)) * np.sqrt(3.0 / 2.0)
        assert sp_density(1.0, 1.0, 0.0) == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(0.48860251190292, rel=1e-12)

    def test_approximately_normalized(self):
        val, err = quad(lambda x: sp_density(x, 16.0, 0.0), 1e-6, 30.0,
                        limit=200)
        assert abs(val - 1.0) < 0.02

    def test_pointwise_against_exact_density(self):
        # the shape-16 mean has exact density 16 * f(16 x | 16)
        p = JStarParams(16.0, 0.0)
        for x in np.linspace(0.6, 1.6, 11):
            exact = 16.0 * density(16.0 * x, p)
            assert sp_density(x, 16.0, 0.0) == pytest.approx(exact, rel=0.03)

    def test_log_form_consistent(self):
        # the log form against sqrt(n/2pi) K''^{-1/2} e^{n phi}, formed
        # directly; an array of points gives the same values
        n, z = 32.0, 1.0
        xs = np.array([0.5, 0.9, 1.3])
        want = (np.sqrt(n / (2 * np.pi)) / np.sqrt(cgf_p2(saddle_s(xs, z), z))
                * np.exp(n * phi(xs, z)))
        assert np.exp(_log_sp_vec(xs, n, z)) == pytest.approx(want, rel=1e-12)
        assert sp_density(0.9, n, z) == pytest.approx(want[1], rel=1e-12)

    def test_normalized_mean_bias_decays(self):
        # deterministic counterpart of the sampling bias check: the mean
        # of the normalized approximation approaches the true mean like 1/n
        errs = []
        for n in (16.0, 64.0, 256.0):
            m = np.tanh(1.0) / 1.0
            f = lambda x: sp_density(x, n, 1.0)
            zmass, _ = quad(f, 1e-6, 30 * m, limit=300)
            mean, _ = quad(lambda x: x * f(x), 1e-6, 30 * m, limit=300)
            errs.append(abs(mean / zmass / m - 1.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-5


class TestSampler:
    def test_mean_shape_16(self):
        x = sample_saddle_batch(16.0, 0.0, N, RngStream(30))
        se = x.std(ddof=1) / np.sqrt(N)
        tol = max(4 * se, 0.01 * 16.0)
        assert abs(x.mean() - 16.0) < tol

    def test_mean_shape_64_tilted(self):
        x = sample_saddle_batch(64.0, 1.0, N, RngStream(31))
        want = 64.0 * np.tanh(1.0)
        se = x.std(ddof=1) / np.sqrt(N)
        tol = max(4 * se, 0.005 * want)
        assert abs(x.mean() - want) < tol

    def test_variance_sane(self):
        x = sample_saddle_batch(64.0, 1.0, N, RngStream(32))
        want = jstar_var(JStarParams(64.0, 1.0))
        assert abs(x.var(ddof=1) / want - 1.0) < 0.05

    def test_bias_shrinks_with_shape(self):
        # fixed-seed comparison; the deterministic decay is established in
        # TestSpDensity.test_normalized_mean_bias_decays
        errs = []
        for n in (16.0, 64.0):
            x = sample_saddle_batch(n, 1.0, N, RngStream(3))
            exact = jstar_mean(JStarParams(n, 1.0))
            errs.append(abs(x.mean() / exact - 1.0))
        assert errs[0] > errs[1]

    def test_scalar_draw(self):
        v = sample_saddle_batch(20.0, 0.5, 1, RngStream(33))
        assert v.shape == (1,) and v[0] > 0

    def test_one_draw_matches_batch_of_one(self):
        # both decide a float candidate, as a one-element array; same
        # bits, and the same stream state afterwards
        for seed in range(20):
            results = []
            for size in (None, 1):
                rng = RngStream(seed)
                x = sample_saddle_batch(20.0, 0.5, size, rng)
                x = float(x if size is None else x[0])
                results.append((x.hex(), rng.uniform()))
            assert results[0] == results[1]

    def test_acceptance_rate_reasonable(self):
        counters = {}
        sample_saddle_batch(32.0, 0.5, 20_000, RngStream(34),
                            counters=counters)
        rate = counters["accepted"] / counters["proposals"]
        assert 0.2 < rate <= 1.0
