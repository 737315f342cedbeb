"""Workloads of the Gibbs-sweep benchmark and the output check.

Every workload is built from a seed alone and hands ``pgrv`` nothing but
the generated (b, z) inputs.  ``sweep()`` runs one closed-loop sweep and
returns its PG draws; afterwards ``tilts`` holds the z of each draw and
``failed`` marks the draws whose call raised, so the caller can check
the draws outside the timed region.

The library is reached only through ``draw_pg`` (one PG(b, z) draw) and
``draw_pg_batch`` (a homogeneous batch).  The tracer wraps these two
module attributes as the ``pg`` layer, so PgParams construction, the
hybrid rule and the rescaling all count as dispatch.  When
``sample_pg_batch`` takes arrays of b and z, ``omega_update`` is the one
function to change.
"""

import numpy as np

import pgrv

WORKLOADS = ("logit_gibbs", "negbin_gibbs", "batch_grid")
ROUTES = tuple(m.value for m in pgrv.Method)

LOGIT_N, LOGIT_P = 10_000, 10
NEGBIN_N, NEGBIN_P, NEGBIN_R = 1000, 5, 0.5
# Mean count r * E[exp(psi)] = 15 for psi = x'beta0 with these slopes.
NEGBIN_SLOPES = (0.25, -0.25, 0.25, -0.25)
NEGBIN_INTERCEPT = float(np.log(30.0) - 0.5 * sum(s * s for s in NEGBIN_SLOPES))
PRIOR_VAR = 100.0

# (b, draws per sweep): each cell took about 25 ms on a 2-core x86 machine
# (Python 3.11, numpy 2.4) when the benchmark was written, so that no
# cell dominates a sweep.
BATCH_CELLS = ((0.5, 1500), (1.0, 80_000), (2.0, 40_000), (3.5, 18_000),
               (12.0, 8500), (20.0, 4200), (100.0, 4600))
BATCH_Z = 1.0


def draw_pg(b, z, rng):
    """One PG(b, z) draw through the public scalar interface."""
    return pgrv.sample_pg(pgrv.PgParams(b, z), rng)


def draw_pg_batch(b, z, n, rng):
    """n PG(b, z) draws through the public batch interface."""
    return pgrv.sample_pg_batch(pgrv.PgParams(b, z), rng, size=n)


def pg_moments(b, z):
    """Exact mean and variance of PG(b, z), vectorized.

    mean = b tanh(z/2)/(2z), var = b (sinh z - z) sech^2(z/2)/(4 z^3),
    with Taylor series near z = 0, where both quotients cancel.
    """
    b = np.asarray(b, dtype=float)
    z = np.abs(np.asarray(z, dtype=float))
    small = z < 1e-2
    zs = np.where(small, 1.0, z)
    mean = np.where(small, b * (0.25 - z * z / 48.0),
                    b * np.tanh(zs / 2.0) / (2.0 * zs))
    var = np.where(small, b * (1.0 / 24.0 - z * z / 60.0),
                   b * (np.sinh(zs) - zs) / (4.0 * zs ** 3 * np.cosh(zs / 2.0) ** 2))
    return mean, var


class Failures:
    """Draws whose call raised, counted by exception type."""

    def __init__(self):
        self.by_type = {}
        self.first_message = {}

    def add(self, exc, n=1):
        kind = type(exc).__name__
        self.by_type[kind] = self.by_type.get(kind, 0) + n
        self.first_message.setdefault(kind, str(exc))


def omega_update(b, z, rng, out, failed, failures):
    """Draw out[i] ~ PG(b[i], z[i]) one observation at a time.

    A draw that raises is replaced by its exact mean, so the chain goes on.
    """
    for i in range(b.shape[0]):
        try:
            out[i] = draw_pg(b[i], z[i], rng)
        except Exception as exc:  # boundary: count it and keep sampling
            out[i] = pg_moments(b[i], z[i])[0]
            failed[i] = True
            failures.add(exc)


def beta_update(X, kappa, omega, prior_prec, rng):
    """Draw beta | omega ~ N(P^-1 X'kappa, P^-1), P = X' diag(omega) X + prior."""
    prec = X.T @ (X * omega[:, None]) + prior_prec
    chol = np.linalg.cholesky(prec)
    mean = np.linalg.solve(prec, X.T @ kappa)
    return mean + np.linalg.solve(chol.T, rng.standard_normal(X.shape[1]))


class Workload:
    """Inputs shared by every workload: the shape and route of each draw."""

    def __init__(self, shapes, seed):
        self.shapes = shapes
        self.routes = np.array([pgrv.choose_method(b).value for b in shapes])
        self.route_masks = {r: self.routes == r for r in np.unique(self.routes)}
        self.seed = seed
        self.failures = Failures()
        self.restart()

    def route_share(self):
        n = self.shapes.shape[0]
        return {r: float(np.count_nonzero(self.routes == r)) / n for r in ROUTES}


class GibbsWorkload(Workload):
    """PG-augmented Gibbs sampler; the chain starts at the true beta."""

    def __init__(self, X, shapes, kappa, beta0, seed):
        self.X = X
        self.kappa = kappa
        self.beta0 = beta0
        self.prior_prec = np.eye(X.shape[1]) / PRIOR_VAR
        super().__init__(shapes, seed)

    def restart(self):
        """Rewind the chain and both random streams to their seeded state."""
        self.rng = pgrv.RngStream(self.seed)
        self.beta_rng = np.random.default_rng([self.seed, 1])
        self.beta = self.beta0.copy()

    def setup_jobs(self):
        """(kind, b, z) of the first observation on each route, in input order."""
        z0 = self.X @ self.beta0
        seen = {}
        for i, route in enumerate(self.routes):
            seen.setdefault(route, ("one", float(self.shapes[i]), float(z0[i])))
        return list(seen.values())

    def sweep(self):
        n = self.shapes.shape[0]
        self.tilts = self.X @ self.beta
        self.failed = np.zeros(n, dtype=bool)
        omega = np.empty(n)
        omega_update(self.shapes, self.tilts, self.rng, omega, self.failed,
                     self.failures)
        self.beta = beta_update(self.X, self.kappa, omega, self.prior_prec,
                                self.beta_rng)
        return omega


def logit_gibbs(seed, n=LOGIT_N, p=LOGIT_P):
    data = np.random.default_rng([seed, 0])
    X = np.column_stack([np.ones(n), data.standard_normal((n, p - 1))])
    beta0 = np.linspace(-0.5, 0.5, p)
    y = data.random(n) < 1.0 / (1.0 + np.exp(-(X @ beta0)))
    return GibbsWorkload(X, np.ones(n), y - 0.5, beta0, seed)


def negbin_gibbs(seed, n=NEGBIN_N, p=NEGBIN_P):
    from scipy.stats import nbinom  # here, so set-up probes do not pay for it
    data = np.random.default_rng([seed, 0])
    X = np.column_stack([np.ones(n), data.standard_normal((n, p - 1))])
    beta0 = np.array((NEGBIN_INTERCEPT,) + NEGBIN_SLOPES[:p - 1])
    # Each y_i is NB with mean r e^psi_i, drawn by inversion from its own
    # slice of (0, 1), the slices in random order: the marginals are exact
    # and the route mix, which sets the sweep cost, varies little by seed.
    u = (data.permutation(n) + data.random(n)) / n
    y = nbinom.ppf(u, NEGBIN_R, 1.0 / (1.0 + np.exp(X @ beta0))).astype(int)
    return GibbsWorkload(X, y + NEGBIN_R, (y - NEGBIN_R) / 2.0, beta0, seed)


class BatchGridWorkload(Workload):
    """Homogeneous batches PG(b, 1) over a fixed shape grid, automatic routing."""

    def __init__(self, seed, scale=1.0):
        self.cells = [(b, max(1, int(n * scale))) for b, n in BATCH_CELLS]
        shapes = np.concatenate([np.full(n, b) for b, n in self.cells])
        self.tilts = np.full(shapes.shape[0], BATCH_Z)
        super().__init__(shapes, seed)

    def restart(self):
        self.rng = pgrv.RngStream(self.seed)

    def setup_jobs(self):
        """(kind, b, z) of the first cell on each route, in grid order."""
        seen = {}
        for b, _ in self.cells:
            seen.setdefault(pgrv.choose_method(b), ("batch", b, BATCH_Z))
        return list(seen.values())

    def sweep(self):
        parts, failed = [], []
        for b, n in self.cells:
            try:
                parts.append(draw_pg_batch(b, BATCH_Z, n, self.rng))
                failed.append(np.zeros(n, dtype=bool))
            except Exception as exc:  # boundary: count it and keep sampling
                parts.append(np.full(n, pg_moments(b, BATCH_Z)[0]))
                failed.append(np.ones(n, dtype=bool))
                self.failures.add(exc, n)
        self.failed = np.concatenate(failed)
        return np.concatenate(parts)


def build(name, seed, tiny=False):
    """The named workload; ``tiny`` shrinks it for the smoke run."""
    if name == "logit_gibbs":
        return logit_gibbs(seed, n=500 if tiny else LOGIT_N)
    if name == "negbin_gibbs":
        return negbin_gibbs(seed, n=100 if tiny else NEGBIN_N)
    if name == "batch_grid":
        return BatchGridWorkload(seed, scale=0.02 if tiny else 1.0)
    raise ValueError(f"unknown workload {name!r}")


def run_setup(jobs, rng):
    """The first draw on each route, as the workload makes it."""
    for kind, b, z in jobs:
        if kind == "one":
            draw_pg(b, z, rng)
        else:
            draw_pg_batch(b, z, 1, rng)


def stated_rel_error(route, b):
    """Stated bound on the relative error of an approximate route's mean.

    gamma-sum: the 200-term truncation defect 2/(pi^2 * 200) documented in
    pgrv.pg.  saddlepoint: relative density error of order 1/b, with the
    constant taken as 1.  normal-approx is moment-matched; only its
    positivity resampling biases it, negligibly above b = 170.  The exact
    routes get no allowance.
    """
    if route == "gamma-sum":
        return np.full(b.shape, 2.0 / (np.pi ** 2 * 200))
    if route == "saddlepoint":
        return 1.0 / b
    return np.zeros(b.shape)


# |T| above this fails an exact route: a false alarm has probability 6e-7
# per route and run.
Z_LIMIT = 5.0


class OutputCheck:
    """Per-route sums for T = sum(omega - mean)/sqrt(sum var), and the count
    of draws that were not finite and positive."""

    def __init__(self):
        self.sums = {r: np.zeros(4) for r in ROUTES}
        self.bad = dict.fromkeys(ROUTES, 0)
        self.attempted = 0
        self.failed = 0

    def add(self, draws, wl):
        """Accumulate one sweep of ``wl``; draws whose call raised are left out."""
        self.attempted += draws.shape[0]
        self.failed += int(np.count_nonzero(wl.failed))
        ok = np.isfinite(draws) & (draws > 0.0)
        for r, sel in wl.route_masks.items():
            sel = sel & ~wl.failed
            good = sel & ok
            self.bad[r] += int(np.count_nonzero(sel & ~ok))
            mean, var = pg_moments(wl.shapes[good], wl.tilts[good])
            self.sums[r] += (np.sum(draws[good] - mean), np.sum(var),
                             np.sum(stated_rel_error(r, wl.shapes[good]) * mean),
                             np.count_nonzero(good))

    def verdicts(self):
        """{route: (passed, T, draws checked, bad draws)} for each route used."""
        out = {}
        for r, (dev, var, allow, n) in self.sums.items():
            if n == 0 and self.bad[r] == 0:
                continue
            t = dev / np.sqrt(var) if var > 0.0 else 0.0
            passed = (abs(dev) <= allow + Z_LIMIT * np.sqrt(var)
                      and self.bad[r] == 0)
            out[r] = (bool(passed), float(t), int(n), self.bad[r])
        return out
