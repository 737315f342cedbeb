"""Command-line tool: draw samples, run the benchmark grid, run the
validation suites, and print the paste points t(h).  All output is CSV.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 numerical
failure.  All statistical output is deterministic for a fixed seed; only
the timing columns of ``bench`` vary between runs.
"""

import argparse
import contextlib
import csv
import statistics
import sys
import time

import numpy as np

from . import saddle
from .density import (
    DOMINATION_SLACK,
    default_trunc_table,
    sample_gamma_sum,
    verify_domination,
)
from .errors import (
    ConvergenceError,
    DominationViolationError,
    EnvelopeValidityError,
    IterationCapError,
)
from .pg import (
    ALTERNATE_MAX,
    Method,
    PgParams,
    SADDLE_MAX,
    choose_method,
    pg_mean,
    pg_var,
    sample_pg,
    sample_pg_batch,
)
from .rng import RngStream

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

BENCH_GRID_B = [1, 2, 3, 4, 10, 12, 14, 16, 18, 20, 30, 40, 50, 100]
BENCH_GRID_Z = [0.0, 0.1, 0.5, 1.0, 2.0, 10.0]

_METHOD_CHOICES = ["auto"] + [m.value for m in Method]


def _parse_grid(text):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}") from exc


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pgrv",
        description="Polya-Gamma random variate sampling, benchmarking, "
                    "and validation.",
    )
    # the table is deterministic, so only the drawing commands take a seed
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default 0)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-",
                     help="output path ('-' for stdout, the default)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[seeded, out],
                       help="draw PG(b, z) variates")
    p.add_argument("--b", type=float, required=True, help="shape b > 0")
    p.add_argument("--z", type=float, default=0.0, help="tilt z (any sign)")
    p.add_argument("--n", type=int, default=1, help="number of draws")
    p.add_argument("--method", choices=_METHOD_CHOICES, default="auto")
    p.add_argument("--format", choices=["plain", "csv"], default="plain")

    p = sub.add_parser("bench", parents=[seeded, out],
                       help="time every applicable method over a (b, z) grid")
    p.add_argument("--grid-b", type=_parse_grid,
                   default=[float(b) for b in BENCH_GRID_B])
    p.add_argument("--grid-z", type=_parse_grid, default=list(BENCH_GRID_Z))
    p.add_argument("--n", type=int, default=10_000, help="draws per cell")
    p.add_argument("--reps", type=int, default=3,
                   help="timing repetitions per cell (median reported)")

    p = sub.add_parser("validate", parents=[seeded, out],
                       help="run the statistical/numerical validation suites")
    p.add_argument("--suites", default=",".join(_SUITES),
                   help="comma-separated subset of: " + ", ".join(_SUITES))
    p.add_argument("--n", type=int, default=100_000,
                   help="draws per statistical test")

    sub.add_parser("table", parents=[out],
                   help="print the built-in t(h) table as CSV")

    return parser


def _out(spec):
    """Output sink for ``with``: the file at ``spec``, or stdout for '-'."""
    if spec in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(spec, "w", newline="")


def _cmd_sample(args):
    params = PgParams(args.b, args.z)
    if args.n < 1:
        raise ValueError("sample: --n must be >= 1")
    rng = RngStream(args.seed)
    draws = sample_pg_batch(params, rng, size=args.n, method=args.method)
    with _out(args.out) as fh:
        if args.format == "csv":
            fh.write("draw\n")
        for v in draws:
            fh.write(f"{v:.17g}\n")
    return EXIT_OK


def _bench_methods(b, z):
    """Methods benchmarked at one grid cell.

    The saddlepoint row starts where the hybrid rule hands over to it;
    below that its approximation error would contaminate the smoke
    moment check that every row doubles as.
    """
    methods = []
    if b >= 1.0 and b == int(b):
        methods.append(Method.DEVROYE)
    if b >= 1.0:
        methods.append(Method.ALTERNATE)
    if b >= ALTERNATE_MAX:
        methods.append(Method.SADDLEPOINT)
    if b > SADDLE_MAX:
        methods.append(Method.NORMAL)
    methods.append(Method.GAMMA_SUM)
    return methods


def _cmd_bench(args):
    if not args.grid_b or not args.grid_z:
        raise ValueError("bench: grids must be nonempty")
    if args.n < 1:
        raise ValueError("bench: --n must be >= 1")
    if args.reps < 1:
        raise ValueError("bench: --reps must be >= 1")
    cells = []
    for b in args.grid_b:
        for z in args.grid_z:
            for m in _bench_methods(b, z):
                cells.append((m.value, float(b), float(z)))
    cells.sort()
    rows = []
    for index, (method, b, z) in enumerate(cells):
        cell_seed = args.seed ^ index
        params = PgParams(b, z)
        m = Method(method)
        # per-cell reusable setup (kept out of the timed section)
        t0 = time.perf_counter()
        if m is Method.SADDLEPOINT:
            saddle._build_envelope_cached.cache_clear()
            saddle.build_envelope(b, abs(z) / 2.0)
        setup_seconds = time.perf_counter() - t0
        times = []
        draws = None
        for _ in range(args.reps):
            rng = RngStream(cell_seed)
            t0 = time.perf_counter()
            draws = sample_pg_batch(params, rng, size=args.n, method=m)
            times.append(time.perf_counter() - t0)
        wall = statistics.median(times)
        rows.append({
            "method": method,
            "b": b,
            "z": z,
            "n_draws": args.n,
            "setup_seconds": setup_seconds,
            "wall_seconds": wall,
            "draws_per_sec": args.n / wall if wall > 0 else float("inf"),
            "sample_mean": float(draws.mean()),
            "sample_var": float(draws.var(ddof=1)),
            "seed": cell_seed,
        })
    fields = ["method", "b", "z", "n_draws", "setup_seconds", "wall_seconds",
              "draws_per_sec", "sample_mean", "sample_var", "seed"]
    with _out(args.out) as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        for r in rows:
            w.writerow({k: (f"{v:.6g}" if isinstance(v, float) else v)
                        for k, v in r.items()})
    # best-method pivot (one row per b, one column per z)
    best = {}
    for r in rows:
        key = (r["b"], r["z"])
        if key not in best or r["draws_per_sec"] > best[key]["draws_per_sec"]:
            best[key] = r
    pivot_fh = sys.stdout
    if args.out in (None, "-"):
        pivot_fh.write("\n")
    pivot = csv.writer(pivot_fh)
    zs = sorted(set(z for (_, z) in best))
    pivot.writerow(["b"] + [f"z={z:g}" for z in zs])
    for b in sorted(set(b for (b, _) in best)):
        pivot.writerow([f"{b:g}"] + [best[(b, z)]["method"] for z in zs])
    return EXIT_OK


def _record(records, suite, test, b, z, statistic, threshold,
            higher_is_better=False):
    records.append({"suite": suite, "test": test, "b": b, "z": z,
                    "statistic": statistic, "threshold": threshold,
                    "higher_is_better": higher_is_better})


def _suite_moments(records, n, seed):
    grid_b = [1.0, 2.0, 3.5, 12.0, 50.0]
    grid_z = [0.0, 1.0]
    cells = [(b, z, 101 * i + j) for i, b in enumerate(grid_b)
             for j, z in enumerate(grid_z)]
    # the gamma-sum route at large tilts, where a dropped series tail
    # shows as bias
    cells += [(0.5, 1e3, 101 * 5), (0.5, 1e5, 101 * 5 + 1)]
    # one draw at a time on the alternate route (pieces above 4; a batch
    # keeps 4), at the squeeze grid's corners and at z_J = 0.99 below it
    one_draw = [(b, z, 101 * 6 + i) for i, (b, z) in enumerate(
        [(40.5, 3.3), (169.5, 6.0), (10.5, 2.0), (63.5, 7.9), (10.5, 1.98)])]
    for b, z, stream in cells + one_draw:
        params = PgParams(b, z)
        rng = RngStream(seed ^ stream)
        one = (b, z, stream) in one_draw
        draws = (np.array([sample_pg(params, rng) for _ in range(n)]) if one
                 else sample_pg_batch(params, rng, size=n))
        m_exact = pg_mean(params)
        v_exact = pg_var(params)
        se = np.sqrt(v_exact / n)
        saddle_ran = not one and choose_method(b, n) is Method.SADDLEPOINT
        allow = 0.01 * m_exact if saddle_ran else 0.0
        prefix = "one-draw-" if one else ""
        _record(records, "moments", prefix + "mean", b, z,
                abs(float(draws.mean()) - m_exact), 4.0 * se + allow)
        _record(records, "moments", prefix + "variance", b, z,
                abs(float(draws.var(ddof=1)) / v_exact - 1.0), 0.05)


def _suite_ks(records, n, seed):
    from scipy import stats as spstats  # only this suite needs it

    for i, (b, z) in enumerate([(1.0, 0.0), (1.0, 2.0), (2.0, 1.0),
                                (3.5, 0.5)]):
        params = PgParams(b, z)
        rng = RngStream(seed ^ (977 * (i + 1)))
        draws = sample_pg_batch(params, rng, size=n)
        oracle = sample_gamma_sum(params.jstar, rng, size=n) / 4.0
        _record(records, "ks", "vs-gamma-sum-oracle", b, z,
                float(spstats.ks_2samp(draws, oracle).pvalue), 0.001, True)


def _suite_domination(records, *_):
    # [1, 4] by 0.1, then two nodes of the log segment, on the default
    # grid stretched by h/4
    for h in np.arange(1.0, 4.0 + 1e-9, 0.1).tolist() + [16.0, 64.0]:
        h = round(float(h), 10)
        report = verify_domination(h)
        _record(records, "domination", "max-f-over-left-kernel", h, 0.0,
                report.max_rho_left, 1.0 + DOMINATION_SLACK)
        _record(records, "domination", "max-f-over-right-kernel", h, 0.0,
                report.max_rho_right, 1.0 + DOMINATION_SLACK)
    # the far right tail, where a double sum has no correct digit left
    # and, past x ~ 580, ell/r overflows a double: f/r stays below 1 and
    # rises towards it (0.88 at x = 20, h = 4).  Log-segment shapes take
    # x = 20h and 25h (f/r is 0.53 at 20h, h = 64; mpmath is slow past it)
    far = np.concatenate([np.geomspace(20.0, 200.0, 25), [400.0, 600.0, 1e3]])
    for h in [1.0, 2.5, 4.0, 16.0, 64.0]:
        xs = far if h <= 4.0 else h * np.array([20.0, 25.0])
        rho = verify_domination(h, xs).rho_right
        _record(records, "domination", "max-f-over-right-kernel-far-tail",
                h, 0.0, float(rho.max()), 1.0 + DOMINATION_SLACK)
        _record(records, "domination", "min-f-over-right-kernel-far-tail",
                h, 0.0, float(rho.min()), 0.5, True)


def _suite_envelope(records, *_):
    for (b, z) in [(4.0, 0.0), (13.0, 0.0), (16.0, 1.0), (64.0, 2.0),
                   (170.0, 0.5)]:
        env = saddle.build_envelope(b, z)
        xs = np.logspace(np.log10(env.m / 20.0), np.log10(20.0 * env.m), 2000)
        gap = saddle._log_envelope(env, xs) - saddle._log_sp_vec(xs, b, z)
        _record(records, "envelope", "log-dominance-gap", b, z,
                float(gap.min()), float(np.log1p(-saddle._ENVELOPE_SLACK)),
                True)


def _suite_conjecture(records, *_):
    for z in [0.0, 1.0, 4.0]:
        result = saddle.check_curvature_monotonicity(z)
        _record(records, "conjecture", "curvature-ratio-monotonicity", 0.0,
                z, 1.0 if all(result.values()) else 0.0, 0.5, True)


def _suite_cgf(records, *_):
    worst = 0.0
    for z in [0.0, 1.0, 3.0]:
        for s in [-2.0, -0.5, 0.0, 0.3]:
            if s - 0.5 * z * z >= saddle.U_MAX - 0.01:
                continue
            step = 1e-6 * max(1.0, abs(s))
            fd1 = (saddle.cgf(s + step, z) - saddle.cgf(s - step, z)) / (2 * step)
            fd2 = (saddle.cgf_p1(s + step, z) - saddle.cgf_p1(s - step, z)) / (2 * step)
            worst = max(worst,
                        abs(fd1 / saddle.cgf_p1(s, z) - 1.0),
                        abs(fd2 / saddle.cgf_p2(s, z) - 1.0))
    _record(records, "cgf", "derivatives-vs-finite-difference", 0.0, 0.0,
            worst, 1e-6)


# every suite appends its rows; they print in this order
_SUITES = {
    "moments": _suite_moments,
    "ks": _suite_ks,
    "domination": _suite_domination,
    "envelope": _suite_envelope,
    "conjecture": _suite_conjecture,
    "cgf": _suite_cgf,
}


def _cmd_validate(args):
    suites = {s.strip() for s in args.suites.split(",") if s.strip()}
    if not suites:
        raise ValueError("validate: --suites names no suite")
    unknown = suites - set(_SUITES)
    if unknown:
        raise ValueError(f"validate: unknown suites {sorted(unknown)}")
    if args.n < 2:
        raise ValueError("validate: --n must be >= 2")
    records = []
    for name, suite in _SUITES.items():
        if name in suites:
            suite(records, args.n, args.seed)

    failed = []
    with _out(args.out) as fh:
        w = csv.writer(fh)
        w.writerow(["suite", "test", "b", "z", "statistic", "threshold",
                    "pass"])
        for r in records:
            if r["higher_is_better"]:
                ok = r["statistic"] > r["threshold"]
            else:
                ok = r["statistic"] <= r["threshold"]
            if not ok:
                failed.append(r)
            w.writerow([r["suite"], r["test"], f"{r['b']:g}", f"{r['z']:g}",
                        f"{r['statistic']:.6g}", f"{r['threshold']:.6g}",
                        "pass" if ok else "FAIL"])
    for r in failed:
        print(f"FAILED: {r['suite']}/{r['test']} at b={r['b']:g} z={r['z']:g} "
              f"(statistic {r['statistic']:.6g}, threshold {r['threshold']:.6g})",
              file=sys.stderr)
    return EXIT_VALIDATION if failed else EXIT_OK


def _cmd_table(args):
    with _out(args.out) as fh:
        fh.write("h,t\n")
        for h, t in zip(*default_trunc_table()):
            fh.write(f"{h:.17g},{t:.17g}\n")
    return EXIT_OK


_COMMANDS = {
    "sample": _cmd_sample,
    "bench": _cmd_bench,
    "validate": _cmd_validate,
    "table": _cmd_table,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, IterationCapError, DominationViolationError,
            EnvelopeValidityError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
