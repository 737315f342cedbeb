"""Public PG interface: moments, hybrid dispatch, scaling, and the
normal approximation."""

import dataclasses
from importlib import import_module
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgrv.density import JStarParams, sample_gamma_sum
from pgrv import devroye
from pgrv.devroye import sample_jstar1_batch
from pgrv.errors import (
    ConvergenceError,
    DominationViolationError,
    EnvelopeValidityError,
    IterationCapError,
)
from pgrv.pg import (
    ALTERNATE_MAX,
    DEVROYE_MAX,
    Method,
    SADDLE_MAX,
    SADDLE_MIN_SIZE,
    PgParams,
    choose_method,
    pg_mean,
    pg_var,
    sample_pg,
    sample_pg_batch,
)
from pgrv.rng import RngStream

# by module name: the package namespace shadows ``pgrv.density`` with the
# function ``density``
density = import_module("pgrv.density")

N = 100_000
CUT = SADDLE_MIN_SIZE
# one draw per route: gamma-sum, devroye, alternate (one J* piece and
# several), saddlepoint, normal
ROUTE_DRAWS = [(0.5, None), (1.0, None), (2.5, None), (48.5, None),
               (20.0, 512), (190.5, None)]


def series_pg_moments(b, z, n_terms=1_000_000):
    """PG moments from the gamma-convolution rates of J*(b, z/2)/4."""
    import math

    zh = abs(z) / 2.0
    n = np.arange(n_terms, dtype=float)
    d = 0.5 * np.pi ** 2 * (n + 0.5) ** 2 + 0.5 * zh * zh
    edge = np.pi * (n_terms + 0.5)
    if zh > 0:
        tail = (2.0 / (np.pi * zh)) * math.atan(zh / edge)
    else:
        tail = 2.0 / (np.pi * edge)
    tail += 0.5 * 2.0 / (edge ** 2 + zh * zh)
    mean = b * (np.sum(1.0 / d) + tail) / 4.0
    var = b * np.sum(1.0 / d ** 2) / 16.0
    return mean, var


class TestMoments:
    def test_quarter_at_unit_shape(self):
        assert pg_mean(PgParams(1.0, 0.0)) == pytest.approx(0.25, rel=1e-13)

    def test_mean_closed_form(self):
        # (b/(2z)) tanh(z/2), cross-checked against the series oracle
        got = pg_mean(PgParams(2.0, 3.0))
        assert got == pytest.approx((2.0 / 6.0) * np.tanh(1.5), rel=1e-13)
        want, _ = series_pg_moments(2.0, 3.0)
        assert got == pytest.approx(want, rel=1e-10)

    def test_var_against_series(self):
        _, want = series_pg_moments(1.0, 0.0)
        assert pg_var(PgParams(1.0, 0.0)) == pytest.approx(want, rel=1e-10)
        assert pg_var(PgParams(1.0, 0.0)) == pytest.approx(1.0 / 24.0,
                                                           rel=1e-12)

    def test_tilt_sign_irrelevant(self):
        assert pg_mean(PgParams(2.0, -3.0)) == pg_mean(PgParams(2.0, 3.0))
        assert pg_var(PgParams(2.0, -3.0)) == pg_var(PgParams(2.0, 3.0))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PgParams(0.0, 1.0)
        with pytest.raises(ValueError):
            PgParams(1.0, np.inf)

    @pytest.mark.parametrize("b,z", [
        ("2", 1.0), (2.0, "1"), (None, 1.0), (2.0, None), (math.nan, 1.0),
        (2.0, math.nan), (math.inf, 1.0), (-math.inf, 1.0), (2.0, math.inf),
        (2.0, -math.inf), (0.0, 1.0), (-0.0, 1.0), (-2.0, 1.0)])
    def test_params_reject_as_the_generated_init_did(self, b, z):
        # the hand-written __init__ raises the type and message of the
        # dataclass-generated __init__ with its __post_init__ check
        @dataclasses.dataclass(frozen=True)
        class Generated:
            b: float
            z: float = 0.0

            def __post_init__(self):
                if not (self.b > 0.0) or not math.isfinite(self.b):
                    raise ValueError(
                        "PgParams: shape b must be positive and finite")
                if not math.isfinite(self.z):
                    raise ValueError("PgParams: tilt z must be finite")

        with pytest.raises(Exception) as want:
            Generated(b, z)
        with pytest.raises(want.type) as got:
            PgParams(b, z)
        assert str(got.value) == str(want.value)
        assert want.type in (TypeError, ValueError)

    def test_params_stay_a_frozen_dataclass(self):
        p = PgParams(2, -1)
        assert type(p.b) is float and type(p.z) is float
        assert repr(p) == "PgParams(b=2.0, z=-1.0)"
        assert p == PgParams(2.0, -1.0) and p != PgParams(2.0, 1.0)
        assert hash(p) == hash(PgParams(b=2.0, z=-1.0))
        assert PgParams(3.5) == PgParams(3.5, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.b = 3.0
        assert dataclasses.replace(p, z=0.5) == PgParams(2.0, 0.5)
        assert [f.name for f in dataclasses.fields(p)] == ["b", "z"]


class TestDispatch:
    @pytest.mark.parametrize("b,want", [
        (1.0, Method.DEVROYE),
        (2.0, Method.DEVROYE),
        (2.5, Method.ALTERNATE),
        (12.9, Method.ALTERNATE),
        (13.0, Method.SADDLEPOINT),
        (170.0, Method.SADDLEPOINT),
        (170.5, Method.NORMAL),
        (0.5, Method.GAMMA_SUM),
        (3.0, Method.ALTERNATE),
    ])
    def test_threshold_probe(self, b, want):
        assert choose_method(b) is want

    def test_break_points_are_the_module_constants(self):
        assert choose_method(float(DEVROYE_MAX)) is Method.DEVROYE
        assert choose_method(DEVROYE_MAX + 1.0) is Method.ALTERNATE
        below = np.nextafter(ALTERNATE_MAX, 0.0)
        assert choose_method(below) is Method.ALTERNATE
        assert choose_method(ALTERNATE_MAX) is Method.SADDLEPOINT
        assert choose_method(SADDLE_MAX) is Method.SADDLEPOINT
        above = np.nextafter(SADDLE_MAX, np.inf)
        assert choose_method(above) is Method.NORMAL

    @pytest.mark.parametrize("b", [float("inf"), float("nan"),
                                   float("-inf"), 0.0, -1.0])
    def test_shape_must_be_positive_and_finite(self, b):
        with pytest.raises(ValueError, match="positive and finite"):
            choose_method(b)

    @pytest.mark.parametrize("b", [0.5, 1.0, 20.0, 200.0])
    def test_size_must_be_an_integer_at_least_zero(self, b):
        # a negative or fractional batch is refused, not routed
        for size in (-5, -1, 2.5, 512.0, True, "512"):
            with pytest.raises(ValueError, match="integer >= 0"):
                choose_method(b, size=size)
        assert choose_method(b, size=0) is choose_method(b, np.int64(0))

    @pytest.mark.parametrize("b", [13.0, 13.5, 40.0, 100.5, 170.0])
    def test_small_batches_of_saddle_shapes_take_alternate(self, b):
        for size in (1, 2, CUT - 1):
            assert choose_method(b, size=size) is Method.ALTERNATE
        for size in (CUT, 4 * CUT, 10 ** 6):
            assert choose_method(b, size=size) is Method.SADDLEPOINT
        assert choose_method(b, size=None) is Method.SADDLEPOINT

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 2.5, 12.9])
    def test_size_leaves_smaller_shapes_alone(self, b):
        for size in (1, CUT - 1, CUT, 10 ** 6):
            assert choose_method(b, size=size) is choose_method(b)

    @pytest.mark.parametrize("b", [170.5, 1e4])
    def test_normal_above_saddle_max_at_any_size(self, b):
        for size in (None, 1, CUT - 1, CUT, 10 ** 6):
            assert choose_method(b, size=size) is Method.NORMAL

    def test_method_shape_mismatch(self):
        with pytest.raises(ValueError):
            sample_pg(PgParams(2.5, 0.0), RngStream(0), method="devroye")
        with pytest.raises(ValueError):
            sample_pg(PgParams(0.5, 0.0), RngStream(0), method="saddlepoint")
        with pytest.raises(ValueError):
            sample_pg(PgParams(0.5, 0.0), RngStream(0), method="alternate")

    def test_exactness_metadata(self):
        assert Method.DEVROYE.is_exact and Method.ALTERNATE.is_exact
        assert not Method.GAMMA_SUM.is_exact
        assert not Method.SADDLEPOINT.is_exact
        assert not Method.NORMAL.is_exact


class TestSampling:
    def test_unit_shape_mean(self):
        x = sample_pg_batch(PgParams(1.0, 0.0), RngStream(1), size=N)
        se = x.std(ddof=1) / np.sqrt(N)
        assert abs(x.mean() - 0.25) < 4 * se

    def test_fractional_shape_mean(self):
        p = PgParams(3.5, 1.0)
        x = sample_pg_batch(p, RngStream(2), size=N)
        se = x.std(ddof=1) / np.sqrt(N)
        assert abs(x.mean() - pg_mean(p)) < 4 * se

    def test_large_shape_mean(self):
        p = PgParams(200.0, 0.0)
        x = sample_pg_batch(p, RngStream(3), size=N)
        se = x.std(ddof=1) / np.sqrt(N)
        assert abs(x.mean() - 50.0) < max(4 * se, 0.01 * 50.0)

    def test_scalar_matches_distribution(self):
        draws = np.array([sample_pg(PgParams(1.0, 0.5), RngStream(seed))
                          for seed in range(400)])
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - pg_mean(PgParams(1.0, 0.5))) < 4 * se

    def test_negative_tilt_same_law(self):
        a = sample_pg_batch(PgParams(2.0, 1.5), RngStream(4), size=N)
        b = sample_pg_batch(PgParams(2.0, -1.5), RngStream(4), size=N)
        assert np.array_equal(a, b)

    def test_gamma_sum_scaling_identity(self):
        # forced gamma-sum draws are the oracle draws over 4, draw for draw
        p = PgParams(2.5, 1.0)
        a = sample_pg(p, RngStream(7), method="gamma-sum")
        b = sample_gamma_sum(JStarParams(2.5, 0.5), RngStream(7)) / 4.0
        assert a == b
        av = sample_pg_batch(p, RngStream(8), size=100, method="gamma-sum")
        bv = sample_gamma_sum(JStarParams(2.5, 0.5), RngStream(8),
                              size=100) / 4.0
        assert np.array_equal(av, bv)

    def test_pg_scaling_identity_statistical(self):
        # mean of J*(b, z/2)/4 draws equals the PG mean
        b, z = 2.0, 1.0
        draws = sample_jstar1_batch(z / 2.0, 2 * N, RngStream(9))
        x = draws.reshape(N, 2).sum(axis=1) / 4.0
        se = x.std(ddof=1) / np.sqrt(N)
        assert abs(x.mean() - pg_mean(PgParams(b, z))) < 4 * se

    def test_method_agreement_at_handover(self):
        # alternate vs saddlepoint either side of the b=13 threshold:
        # moment comparison with a 1% allowance for saddlepoint bias
        p = PgParams(12.0, 1.0)
        a = sample_pg_batch(p, RngStream(10), size=N, method="alternate")
        s = sample_pg_batch(p, RngStream(11), size=N, method="saddlepoint")
        assert abs(s.mean() / a.mean() - 1.0) < 0.01
        assert abs(s.var(ddof=1) / a.var(ddof=1) - 1.0) < 0.05

    def test_small_shape_gamma_sum(self):
        p = PgParams(0.5, 1.0)
        x = sample_pg_batch(p, RngStream(12), size=N)
        se = x.std(ddof=1) / np.sqrt(N)
        assert abs(x.mean() - pg_mean(p)) < 4 * se

    @pytest.mark.parametrize("z", [0.0, 1.0, 1e3, 1e5, 1e8])
    @pytest.mark.parametrize("b", [1e-4, 0.01, 0.1, 0.5, 0.9])
    def test_gamma_sum_domain(self, b, z):
        # below b = 1 down to 1e-4 and up to PG z = 1e8: draws are finite
        # and positive, and the mean is unbiased (the remainder carries
        # the dropped terms; without it the mean z-score at z = 1e3 is
        # in the thousands).  At b = 1e-4 the law is too heavy-tailed
        # for a 2,000-draw mean to say anything.
        p = PgParams(b, z)
        rng = RngStream(17)
        one = [sample_pg(p, rng) for _ in range(5)]
        x = sample_pg_batch(p, rng, size=2000)
        assert all(np.isfinite(v) and v > 0.0 for v in one)
        assert np.all(np.isfinite(x) & (x > 0.0))
        if b >= 0.01:
            score = (x.mean() - pg_mean(p)) / np.sqrt(pg_var(p) / x.size)
            assert abs(score) <= 5.0, score

    def test_batch_buffer_contract(self):
        res = sample_pg_batch(PgParams(1.0, 0.0), RngStream(13), size=500)
        assert res.shape == (500,) and res.dtype == np.float64
        assert res.min() > 0
        empty = sample_pg_batch(PgParams(1.0, 0.0), RngStream(14), size=0)
        assert empty.shape == (0,)
        with pytest.raises(ValueError):
            sample_pg_batch(PgParams(1.0, 0.0), RngStream(15), size=-1)
        # a size that is not an integer is refused, not truncated
        for size in (2.5, 2.0, True, "3", np.True_):
            with pytest.raises(ValueError, match="integer"):
                sample_pg_batch(PgParams(1.0, 0.0), RngStream(15), size=size)
        three = sample_pg_batch(PgParams(1.0, 0.0), RngStream(15),
                                size=np.int64(3))
        assert three.shape == (3,)
        with pytest.raises(TypeError):
            sample_pg_batch(PgParams(1.0, 0.0), RngStream(15))

    def test_all_paths_positive_support(self):
        for b, method in [(1.0, "devroye"), (2.5, "alternate"),
                          (20.0, "saddlepoint"), (0.5, "gamma-sum"),
                          (300.0, "normal-approx")]:
            x = sample_pg_batch(PgParams(b, 1.0), RngStream(16), size=5000,
                                method=method)
            assert x.min() > 0.0

    @pytest.mark.parametrize("b", [13.5, 40.0, 170.0])
    def test_auto_route_follows_batch_size(self, b):
        # one draw and a batch below the cut are the alternate sampler's
        # draws bit for bit, a batch at the cut the saddlepoint's
        p = PgParams(b, 3.4)
        rng, ref = RngStream(18), RngStream(18)
        for _ in range(3):
            assert sample_pg(p, rng) == sample_pg(p, ref, method="alternate")
        for size, method in ((CUT - 1, "alternate"), (CUT, "saddlepoint")):
            got = sample_pg_batch(p, rng, size=size)
            want = sample_pg_batch(p, ref, size=size, method=method)
            assert np.array_equal(got, want)
        assert rng.uniform() == ref.uniform()

    @pytest.mark.parametrize("b,z", [(100.0, 1e5), (14.0, 1e8), (40.0, 1e6)])
    def test_single_draws_where_saddle_envelope_fails(self, b, z):
        # the saddlepoint envelope fails its dominance spot check at these
        # tilts (EnvelopeValidityError); one draw takes the exact route
        p = PgParams(b, z)
        rng = RngStream(19)
        x = np.array([sample_pg(p, rng) for _ in range(200)])
        assert np.all(np.isfinite(x)) and x.min() > 0.0
        score = (x.mean() - pg_mean(p)) / np.sqrt(pg_var(p) / x.size)
        assert abs(score) <= 5.0

    @pytest.mark.parametrize("b,z,method", [(1.0, 1e5, "devroye"),
                                            (2.5, 1e3, "alternate"),
                                            (2.5, 4e3, "alternate")])
    def test_large_tilt_with_underflowing_masses(self, b, z, method):
        # both mixture masses underflow to 0 here, so the component
        # fraction must come from their logs, not from p/(p+q); at
        # PG(2.5, 4e3) the kernel and a_0 underflow at the proposals too,
        # so the series must run on a_n/a_0
        p = PgParams(b, z)
        n = 4000
        x = sample_pg_batch(p, RngStream(17), size=n, method=method)
        assert np.all(np.isfinite(x)) and x.min() > 0.0
        score = (x.mean() - pg_mean(p)) / np.sqrt(pg_var(p) / n)
        assert abs(score) <= 5.0

    # the last three take pieces above 4 (alternate._pieces), which a
    # batch never does
    @pytest.mark.parametrize("b,z", [(2.0, 1.0), (7.3, 3.0), (40.5, 3.0),
                                     (15.5, 1e3), (40.5, 3.3), (100.5, 4.0),
                                     (169.5, 6.0)])
    def test_multi_piece_single_draw_moments(self, b, z):
        # one draw at a time sums its pieces in the float loop: the mean
        # within 5 SE, the variance within 4 SE of the sample variance
        p = PgParams(b, z)
        rng = RngStream(23)
        x = np.array([sample_pg(p, rng) for _ in range(4000)])
        score = (x.mean() - pg_mean(p)) / np.sqrt(pg_var(p) / x.size)
        assert abs(score) <= 5.0, score
        dev = x - x.mean()
        var_se = np.sqrt((np.mean(dev ** 4) - np.mean(dev ** 2) ** 2)
                         / x.size)
        assert abs(x.var(ddof=1) - pg_var(p)) <= 4.0 * var_se

    def test_single_piece_draws_skip_the_piece_sum(self, monkeypatch):
        # one J* piece (devroye at b = 1, alternate at b <= 4) goes to
        # its sampler directly; one multi-piece draw sums its pieces in
        # the float loop, and only a batch of sums reaches the piece sum
        # and the rejection engine
        reached = []

        def spy(name):
            real = getattr(devroye, name)
            return lambda *args: reached.append(name) or real(*args)

        for name in ("_sum_pieces", "_fill_by_rejection"):
            monkeypatch.setattr(devroye, name, spy(name))
        rng = RngStream(5)
        x = sample_pg_batch(PgParams(1.0, 0.7), rng, 50)
        assert x.shape == (50,) and x.min() > 0.0
        assert reached == ["_fill_by_rejection"]
        reached.clear()
        for b in (1.0, 2.0, 2.5, 7.5, 40.5):
            assert sample_pg(PgParams(b, 0.7), rng) > 0.0
            assert sample_pg_batch(PgParams(b, 0.7), rng, 1)[0] > 0.0
        assert reached == []
        for b in (2.0, 7.5):
            sample_pg_batch(PgParams(b, 0.7), rng, 2)
            assert reached == ["_sum_pieces", "_fill_by_rejection"]
            reached.clear()

    @pytest.mark.parametrize("b,z,method", [(40.0, 1.0, "saddlepoint"),
                                            (169.5, 30.0, "saddlepoint"),
                                            (190.5, 1.0, "auto")])
    def test_engine_single_draw_matches_batch_of_one(self, b, z, method):
        # the rejection engine runs one draw as an array of one and
        # returns its float: the saddlepoint route forced on one draw,
        # and one draw on the normal route
        p = PgParams(b, z)
        for seed in range(50):
            a, c = RngStream(seed), RngStream(seed)
            x = sample_pg(p, a, method=method)
            y = sample_pg_batch(p, c, 1, method=method)
            assert type(x) is float and x.hex() == float(y[0]).hex()
            assert a.uniform() == c.uniform()

    def test_no_draw_solves_a_trunc_point(self, monkeypatch):
        # t(h) comes from the table read at import: the package has no
        # solver, and no route reads or builds the table again
        def solve(*_):
            raise AssertionError("a draw solved t(h)")

        assert not hasattr(density, "solve_trunc_point")
        for name in ("build_trunc_table", "default_trunc_table",
                     "_read_trunc_table"):
            monkeypatch.setattr(density, name, solve)
        assert {choose_method(b, n) for b, n in ROUTE_DRAWS} == set(Method)
        rng = RngStream(4)
        for b, n in ROUTE_DRAWS:
            p = PgParams(b, 0.5)
            x = sample_pg(p, rng) if n is None else sample_pg_batch(p, rng, n)
            assert np.all(np.isfinite(x)) and np.min(x) > 0.0

    def test_no_route_loads_a_root_finder(self):
        # a fresh interpreter draws on every route without loading
        # scipy.optimize or scipy.special, and ``pgrv sample`` leaves
        # scipy.stats to the KS suite
        proc = subprocess.run(
            [sys.executable, "-c", "import os, sys, pgrv\n"
             "from pgrv.cli import main\n"
             "rng = pgrv.RngStream(1)\n"
             f"for b, n in {ROUTE_DRAWS!r}:\n"
             "    p = pgrv.PgParams(b, 0.3)\n"
             "    pgrv.sample_pg(p, rng) if n is None else "
             "pgrv.sample_pg_batch(p, rng, n)\n"
             "print('scipy.optimize' in sys.modules, "
             "'scipy.special' in sys.modules)\n"
             "main(['sample', '--b', '2.5', '--z', '1', '--n', '5', "
             "'--out', os.devnull])\n"
             "print('scipy.optimize' in sys.modules, "
             "'scipy.special' in sys.modules, "
             "'scipy.stats' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.stdout == "False False\nFalse False False\n", proc.stderr


class TestNormalApprox:
    def test_moments(self):
        p = PgParams(500.0, 0.0)
        x = sample_pg_batch(p, RngStream(20), size=N, method="normal-approx")
        se = x.std(ddof=1) / np.sqrt(N)
        assert abs(x.mean() - 125.0) < 4 * se
        assert abs(x.var(ddof=1) / pg_var(p) - 1.0) < 0.05

    def test_positive_support(self):
        x = sample_pg_batch(PgParams(500.0, 1.0), RngStream(21), size=N,
                            method="normal-approx")
        assert x.min() > 0.0

    def test_scalar(self):
        assert sample_pg(PgParams(300.0, 0.0), RngStream(22),
                         method="normal-approx") > 0.0


# -- the whole domain, one draw at a time: b in [1e-4, 1e4] and |z| in
# [0, 1e8], both log-uniform.  Batches are left out while the saddlepoint
# still refuses some large tilts with EnvelopeValidityError

_TYPED_ERRORS = (ConvergenceError, DominationViolationError,
                 EnvelopeValidityError, IterationCapError)


@settings(max_examples=200, deadline=None)
@given(b=st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e),
       z=st.one_of(st.just(0.0), st.floats(-4.0, 8.0).map(lambda e: 10.0 ** e)),
       sign=st.sampled_from([1.0, -1.0]), seed=st.integers(0, 2 ** 32 - 1))
@example(b=1e-4, z=0.0, sign=1.0, seed=0)
@example(b=1e4, z=1e8, sign=-1.0, seed=0)
@example(b=169.9, z=1e8, sign=1.0, seed=0)
def test_one_draw_over_the_domain(b, z, sign, seed):
    # a finite, positive draw, or one of the package's typed errors
    try:
        x = sample_pg(PgParams(b, sign * z), RngStream(seed))
    except _TYPED_ERRORS:
        return
    assert isinstance(x, float) and math.isfinite(x) and x > 0.0
