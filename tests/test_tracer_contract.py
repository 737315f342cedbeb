"""The benchmark tracer's hold on the library.

``perfbench/tracer.py`` times module attributes it wraps from outside
the package, so a sampler that stops calling a wrapped name loses its
per-layer metric without an error; ``perfbench/smoke.py`` checks only
the metric names.  This test installs the tracer in-process, draws once
on every route, and checks that each wrapped name resolves, each span is
reached and the counters the benchmark reports are filled.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

import pgrv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# spans no draw reaches: the tracer still wraps the domination check
# the sampler no longer calls, and the t(h) table build that the shipped
# table replaced
UNREACHED = {"alternate.guard", "density.trunc_table"}


def _import_perfbench(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_span_and_counter_is_reached():
    workloads = _import_perfbench("workloads")
    tracer = _import_perfbench("tracer").Tracer()
    tracer.install()
    try:
        rng = pgrv.RngStream(1)
        # devroye, alternate (one piece and several), gamma-sum, normal
        for b in (1.0, 2.5, 15.5, 60.5, 0.5, 200.0):
            workloads.draw_pg(b, 0.5, rng)
        workloads.draw_pg_batch(100.0, 0.5, 600, rng)  # saddlepoint
        x = np.random.default_rng(2).normal(size=(20, 3))
        workloads.beta_update(x, np.zeros(20), np.ones(20), np.eye(3),
                              np.random.default_rng(3))
    finally:
        tracer.remove()
    assert tracer.missing == {}
    calls = {name: row[0] for name, row in
             tracer.layer_table([tracer.sweep]).items()}
    assert {name for name, n in calls.items() if n == 0} <= UNREACHED
    assert set(calls) > UNREACHED
    counters = tracer.counters
    assert {"proposals", "accepted", "left_proposals", "series_index_sum",
            "series_index_max"} <= set(counters["devroye"])
    assert "series_terms_max" in counters["alternate"]
    assert counters["rng.tig"]["draws"] > 0
