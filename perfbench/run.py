"""Gibbs-sweep benchmark of pgrv (see README.md in this directory).

    python3 perfbench/run.py --workload logit_gibbs --seed 1 --seconds 35 --trace 0

Run from anywhere; it imports pgrv from the ``src`` directory next to
this one and exits with code 2 if that is missing.  The last line of
standard output is the result as JSON; the line before it is the run's
details (environment, check verdicts, failures).  Exit code 1 means the
output check failed.

--trace 0 measures the end-to-end metrics.  --trace 1 runs the chain
untraced for half of --seconds, then reruns the same sweeps from the
same seed with spans and counters on, checks that both produced the
same draws bit for bit, and reports the per-layer metrics.
"""

import os
import sys

# One compute thread: the beta update must not start BLAS threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

# Exception types counted by name in the traced output; others go to
# fail.other.
FAIL_TYPES = ("ValueError", "ZeroDivisionError", "FloatingPointError",
              "ConvergenceError", "IterationCapError",
              "DominationViolationError", "EnvelopeValidityError")


def import_pgrv():
    """Import pgrv from this checkout's src, never from anywhere else."""
    if not (SRC / "pgrv" / "__init__.py").is_file():
        print(f"perfbench: no pgrv package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import pgrv
    if Path(pgrv.__file__).resolve().parent != (SRC / "pgrv").resolve():
        print(f"perfbench: imported pgrv from {pgrv.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return pgrv


def git_commit():
    """HEAD of this checkout read from .git, or 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "commit": git_commit()}


def measure_setup(jobs, seed, probes):
    """Median set-up seconds over ``probes`` fresh processes, one at a time."""
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(jobs),
             str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
            env=os.environ, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def run_phase(wl, check, seconds=None, sweeps=None, tracer=None):
    """Closed loop of sweeps, for ``seconds`` or for exactly ``sweeps``.

    Returns the wall time of each sweep and a digest of its draws.
    """
    times, digests = [], []
    deadline = time.perf_counter() + (seconds or 0.0)
    while sweeps is None or len(times) < sweeps:
        if tracer is not None:
            tracer.sweep = len(times)
            span = tracer.open("model.sweep")
        t0 = time.perf_counter()
        omega = wl.sweep()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
        times.append(t1 - t0)
        digests.append(hashlib.blake2b(omega.tobytes(), digest_size=16).hexdigest())
        check.add(omega, wl)
        if sweeps is None and time.perf_counter() >= deadline:
            break
    return times, digests


def tail(times):
    """Highest percentile with at least ten sweeps beyond it.

    Returns (seconds, percentile, sweeps beyond); with ten sweeps or fewer
    it falls back to the fastest sweep.
    """
    s = sorted(times)
    k = max(1, len(s) - 10)
    return s[k - 1], 100.0 * k / len(s), len(s) - k


def end_to_end(wl, check, times, setup_s):
    t_tail, pct, beyond = tail(times)
    draws = wl.shapes.shape[0] * len(times)
    metrics = {
        "draws_per_s": (draws / sum(times), "1/s"),
        "sweep_ms_p50": (1e3 * statistics.median(times), "ms"),
        "sweep_ms_tail": (1e3 * t_tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - check.failed / check.attempted, "ratio"),
    }
    details = {"sweeps": len(times), "tail_percentile": pct, "tail_beyond": beyond,
               "sweep_s": times}
    return metrics, details


def per_layer(tracer, wl, k, misses, overhead):
    """Per-layer metrics of the traced sweeps 0..k-1 (per-sweep means), and
    set-up layer totals that include the traced set-up."""
    sweeps = tracer.layer_table(range(k))
    whole = tracer.layer_table([-1, *range(k)])
    zero = (0, 0.0, 0.0)
    ctr = tracer.counters

    def calls(span, table=sweeps, per=k):
        return table.get(span, zero)[0] / per

    def total(span, table=sweeps, per=k):
        return table.get(span, zero)[1] / per

    def self_s(span):
        return sweeps.get(span, zero)[2] / k

    def ratio(a, b):
        return a / b if b else 0.0

    def counter(layer, key):
        return ctr.get(layer, {}).get(key, 0)

    m = {
        "pg.calls": (calls("pg"), "count", "pg"),
        "pg.self_s": (self_s("pg"), "s", "pg"),
    }
    for route, share in wl.route_share().items():
        m[f"pg.route_share.{route}"] = (share, "ratio", None)
    for layer in ("devroye", "alternate", "saddle"):
        m[f"{layer}.s"] = (total(layer), "s", layer)
        m[f"{layer}.self_s"] = (self_s(layer), "s", layer)
        m[f"{layer}.proposals"] = (counter(layer, "proposals") / k, "count", layer)
        m[f"{layer}.accept_ratio"] = (ratio(counter(layer, "accepted"),
                                            counter(layer, "proposals")), "ratio", layer)
    m.update({
        "devroye.series_terms_mean": (ratio(counter("devroye", "series_index_sum"),
                                            counter("devroye", "proposals")),
                                      "terms", "devroye"),
        "alternate.series_terms_max": (counter("alternate", "series_terms_max"),
                                       "terms", "alternate"),
        "alternate.guard_runs": (calls("alternate.guard", whole, 1), "count",
                                 "alternate.guard"),
        "alternate.guard_s": (total("alternate.guard", whole, 1), "s", "alternate.guard"),
        "saddle.envelope_calls": (calls("saddle.envelope"), "count", "saddle.envelope"),
        "saddle.envelope_misses": (None if misses is None else misses / k, "count",
                                   "saddle.envelope"),
        "saddle.envelope_s": (total("saddle.envelope"), "s", "saddle.envelope"),
        "saddle.solve_calls": (calls("saddle.solve"), "count", "saddle.solve"),
        "saddle.solve_s": (total("saddle.solve"), "s", "saddle.solve"),
        "density.mixture_calls": (calls("density.mixture"), "count", "density.mixture"),
        "density.mixture_s": (total("density.mixture"), "s", "density.mixture"),
        "density.trunc_lookup_s": (total("density.trunc_lookup"), "s",
                                   "density.trunc_lookup"),
        "density.trunc_table_s": (total("density.trunc_table", whole, 1), "s",
                                  "density.trunc_table"),
        "density.gamma_sum_calls": (calls("density.gamma_sum"), "count",
                                    "density.gamma_sum"),
        "density.gamma_sum_s": (total("density.gamma_sum"), "s", "density.gamma_sum"),
        "rng.tig_calls": (calls("rng.tig"), "count", "rng.tig"),
        "rng.tig_draws": (counter("rng.tig", "draws") / k, "count", "rng.tig"),
        "rng.tig_s": (total("rng.tig"), "s", "rng.tig"),
        "rng.tgamma_calls": (calls("rng.tgamma"), "count", "rng.tgamma"),
        "rng.tgamma_s": (total("rng.tgamma"), "s", "rng.tgamma"),
        "model.beta_s": (total("model.beta"), "s", "model.beta"),
        "model.pg_share": (ratio(total("pg"), total("model.sweep")), "ratio", "pg"),
        "trace.overhead": (overhead, "ratio", None),
        "trace.sweeps": (k, "count", None),
    })
    by_type = wl.failures.by_type
    for name in FAIL_TYPES:
        m[f"fail.{name}"] = (by_type.get(name, 0), "count", None)
    m["fail.other"] = (sum(v for t, v in by_type.items() if t not in FAIL_TYPES),
                       "count", None)
    return m


def render(metrics, missing):
    """Metrics as JSON objects; a metric whose wrap target is missing, or
    whose source could not be read, is reported as absent."""
    out = {}
    for name, (value, unit, *span) in metrics.items():
        gone = missing.get(span[0]) if span and span[0] else None
        if gone is not None or value is None:
            out[name] = {"value": None, "unit": unit,
                         "absent": gone or "pgrv.saddle._build_envelope_cached.cache_info"}
        else:
            out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs and one set-up probe (smoke run)")
    args = ap.parse_args(argv)

    pgrv = import_pgrv()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
    check = workloads.OutputCheck()
    jobs = wl.setup_jobs()
    setup_rng = pgrv.RngStream(args.seed).spawn(1)[0]
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(), "setup_jobs": jobs}

    if args.trace == 0:
        setup_s, probe_s = measure_setup(jobs, args.seed, 1 if args.tiny else SETUP_PROBES)
        workloads.run_setup(jobs, setup_rng)
        times, _ = run_phase(wl, check, seconds=args.seconds)
        metrics, details = end_to_end(wl, check, times, setup_s)
        info.update(details, setup_probes_s=probe_s)
        identical, missing = True, {}
    else:
        from tracer import Tracer, envelope_misses
        tr = Tracer()
        tr.install()
        workloads.run_setup(jobs, setup_rng)
        tr.remove()
        for c in tr.counters.values():
            c.clear()
        plain, plain_digests = run_phase(wl, check, seconds=args.seconds / 2.0)
        wl.restart()
        wl.failures = workloads.Failures()
        tr.install()
        misses0 = envelope_misses()
        traced, traced_digests = run_phase(wl, check, sweeps=len(plain), tracer=tr)
        misses = None if misses0 is None else envelope_misses() - misses0
        tr.remove()
        identical, missing = traced_digests == plain_digests, tr.missing
        k = len(traced)
        overhead = (k / sum(traced)) / (len(plain) / sum(plain))
        metrics = per_layer(tr, wl, k, misses, overhead)
        info.update(sweeps=k, untraced_draws_per_s=len(plain) * wl.shapes.shape[0] / sum(plain),
                    missing_targets=tr.missing, draws_identical=identical)

    verdicts = check.verdicts()
    correct = identical and all(v[0] for v in verdicts.values())
    info["check"] = {r: {"passed": p, "T": t, "draws": n, "bad_draws": bad}
                     for r, (p, t, n, bad) in verdicts.items()}
    info["failed_routes"] = [r for r, v in verdicts.items() if not v[0]]
    info["failures"] = wl.failures.by_type
    info["failure_messages"] = wl.failures.first_message
    if args.trace == 1:
        OUT_DIR.mkdir(exist_ok=True)
        tr.save(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz", json.dumps(info))
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": check.attempted,
                      "failed": check.failed,
                      "metrics": render(metrics, missing)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
