"""Spans and counters recorded from outside the library.

The tracer replaces module attributes with timing wrappers.  It wraps
the attribute that callers actually resolve: the samplers import names
directly (``from .density import build_mixture``), so the wrapper goes on
``pgrv.devroye.build_mixture``, not only on ``pgrv.density``.  Wrappers
consume no random numbers, so traced draws equal untraced ones.

Each span records its name, start, end, parent span and sweep id.  Spans
stay in memory until the run ends.  Self time is a span's duration minus
the durations of its direct children.
"""

from array import array
from importlib import import_module
import time

import numpy as np

import workloads

# Looked up by module name: the package namespace shadows ``pgrv.density``
# with the function ``density``.
devroye, alternate, saddle, density, pg = (
    import_module(f"pgrv.{m}") for m in ("devroye", "alternate", "saddle", "density", "pg"))

# (module, attribute, span name, layer whose counters the call receives)
TARGETS = (
    (workloads, "draw_pg", "pg", None),
    (workloads, "draw_pg_batch", "pg", None),
    (workloads, "beta_update", "model.beta", None),
    (devroye, "sample_jstar1_batch", "devroye", "devroye"),
    (alternate, "sample_jstar_alt_batch", "alternate", "alternate"),
    (alternate, "verify_domination", "alternate.guard", None),
    (saddle, "sample_saddle_batch", "saddle", "saddle"),
    (saddle, "build_envelope", "saddle.envelope", None),
    (saddle, "_solve_u_vec", "saddle.solve", None),
    (devroye, "build_mixture", "density.mixture", None),
    (alternate, "build_mixture", "density.mixture", None),
    (alternate, "trunc_lookup", "density.trunc_lookup", None),
    (density, "build_trunc_table", "density.trunc_table", None),
    (pg, "sample_gamma_sum", "density.gamma_sum", None),
    (devroye, "sample_truncated_inverse_gaussian", "rng.tig", "rng.tig"),
    (alternate, "sample_truncated_inverse_gaussian", "rng.tig", "rng.tig"),
    (saddle, "sample_truncated_inverse_gaussian", "rng.tig", "rng.tig"),
    (alternate, "sample_truncated_gamma", "rng.tgamma", None),
    (saddle, "sample_truncated_gamma", "rng.tgamma", None),
)

SETUP_SWEEP = -1


def envelope_misses():
    """Misses of the saddle envelope cache so far, or None without one."""
    cached = getattr(saddle, "_build_envelope_cached", None)
    info = getattr(cached, "cache_info", None)
    return None if info is None else info().misses


class Tracer:
    """In-memory span recorder with wrappers it can install and remove."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.kind = array("i")
        self.parent = array("i")
        self.sweep_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self.missing = {}
        self._stack = [-1]
        self._saved = []
        self.sweep = SETUP_SWEEP

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        idx = len(self.kind)
        self.kind.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.sweep_of.append(self.sweep)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, layer):
        kind = self._id(name)
        counters = None if layer is None else self.counters.setdefault(layer, {})
        tig = layer == "rng.tig"
        span_kind, span_parent, span_sweep = self.kind, self.parent, self.sweep_of
        starts, ends, stack, clock = self.start, self.end, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if tig:
                counters["draws"] = counters.get("draws", 0) + (kwargs.get("size") or 1)
            elif counters is not None and kwargs.get("counters") is None:
                kwargs["counters"] = counters
            idx = len(span_kind)
            span_kind.append(kind)
            span_parent.append(stack[-1])
            span_sweep.append(self.sweep)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target present; record the names that are missing."""
        for module, attr, name, layer in TARGETS:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing[name] = f"{module.__name__}.{attr}"
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, layer))

    def remove(self):
        """Put back the original attributes."""
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _arrays(self):
        return (np.array(self.kind, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.sweep_of, dtype=np.int32),
                np.array(self.start), np.array(self.end))

    def layer_table(self, sweeps):
        """{span name: (calls, total s, self s)} over spans in ``sweeps``."""
        kind, parent, sweep, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.shape[0])
        self_time = dur - child
        sel = np.isin(sweep, list(sweeps))
        out = {}
        for k, name in enumerate(self.names):
            m = sel & (kind == k)
            out[name] = (int(m.sum()), float(dur[m].sum()), float(self_time[m].sum()))
        return out

    def save(self, path, meta):
        """Write every span and the run's metadata to ``path`` (.npz)."""
        kind, parent, sweep, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), kind=kind,
                            parent=parent, sweep=sweep, start=start, end=end,
                            meta=np.array(meta))
