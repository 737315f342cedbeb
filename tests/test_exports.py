"""Public names: every exported name resolves, and the settable
sampler inputs that were removed stay removed."""

import importlib

import pytest

import pgrv

MODULES = ["alternate", "cli", "density", "devroye", "errors", "pg", "rng",
           "saddle", "special"]
REMOVED = ["SamplerThresholds", "DEFAULT_THRESHOLDS", "load_trunc_table",
           "save_trunc_table", "set_default_trunc_table", "TruncTable"]


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

