"""Public names: every exported name resolves, and the settable
sampler inputs and test-only wrappers that were removed stay removed."""

import importlib
import inspect

import pytest

import pgrv
from pgrv import alternate, devroye, saddle
from pgrv.density import ProposalMixture, density, verify_domination
from pgrv.rng import sample_truncated_inverse_gaussian

density_module = importlib.import_module("pgrv.density")

MODULES = ["alternate", "cli", "density", "devroye", "errors", "pg", "rng",
           "saddle", "special"]
REMOVED = ["SamplerThresholds", "DEFAULT_THRESHOLDS", "load_trunc_table",
           "save_trunc_table", "set_default_trunc_table", "TruncTable",
           # linear-space copies of the formulas the samplers run in log
           # space, which only tests called
           "d_index", "coef_left", "coef_right_h1", "kernel_ell", "kernel_r",
           "CgfPoint", "solve_saddle", "phi", "delta", "eta", "sp_density",
           "log_sp_density",
           # a second alternate entry, a second normal entry, and the
           # gamma-sum term count, which the sampler now sets itself
           "sample_jstar_real_batch", "sample_pg_normal", "GAMMA_SUM_TERMS",
           "_gamma_sum_terms",
           # the truncated gamma is drawn by rejection and needs no tail
           # mass, so nothing raises the tail-underflow error any more
           "TailUnderflowError",
           # the alternate sampler's exact acceptance rate, which only a
           # test computes
           "acceptance_probability"]


def _modules_with_all():
    mods = [pgrv] + [importlib.import_module(f"pgrv.{m}") for m in MODULES]
    return [m for m in mods if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", _modules_with_all(),
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("module", _modules_with_all(),
                         ids=lambda m: m.__name__)
def test_removed_names_not_exported(module):
    assert set(REMOVED).isdisjoint(module.__all__)
    assert not any(hasattr(module, n) for n in REMOVED)



def test_removed_attributes_and_options_stay_removed():
    assert not hasattr(ProposalMixture, "p_mass")
    assert not hasattr(ProposalMixture, "q_mass")
    assert list(inspect.signature(density).parameters) == ["x", "params"]
    assert "max_rounds" not in inspect.signature(
        sample_truncated_inverse_gaussian).parameters
    # domination is certified by the test suite, not per shape at run
    # time, and the check always refines the cancelled points
    assert list(inspect.signature(verify_domination).parameters) == [
        "h", "x_grid"]
    assert not hasattr(alternate, "_domination_guard")
    # the saddle checks' test-only grid and warning switch, the solver's
    # tolerances, and the a_n formula no sampler reads
    assert list(inspect.signature(
        saddle.check_curvature_monotonicity).parameters) == ["z"]
    assert list(inspect.signature(saddle._solve_u_vec).parameters) == ["x"]
    assert not hasattr(density_module, "_log_coef_left_unit")
    assert list(inspect.signature(
        density_module.sample_gamma_sum).parameters) == ["params", "rng",
                                                         "size"]
    # one lazily built band table in devroye serves every one-draw
    # side-choice squeeze
    assert not hasattr(ProposalMixture, "band")
    assert not hasattr(alternate, "_Squeeze")
    assert not hasattr(alternate, "_lf_band")
    assert not hasattr(devroye, "_LF_BANDS")
    assert not hasattr(devroye, "_LF_NODES")
