"""The package namespace: every name in fueter.__all__ exists, listed once, and is documented."""

import importlib
import re
from pathlib import Path

import pytest

import fueter

README = Path(__file__).resolve().parents[1] / "README.md"

# Oracles behind the acceptance checks: importable from their modules, not from the package.
MODULE_HELPERS = {
    "fueter.oracles": ("unit_sphere_area", "cauchy_kernel", "example1_oracle", "example2_oracle",
                       "SphereQuadrature", "sphere_cauchy_integral"),
    "fueter.radial": ("coeff_a", "coeff_row", "nested_antiderivative_oracle"),
    "fueter.forward": ("laplacian_oracle",),
}


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fueter import *", namespace)  # raises AttributeError on a stale entry
    assert [name for name in fueter.__all__ if name not in namespace] == []


def test_exports_listed_once():
    assert len(fueter.__all__) == len(set(fueter.__all__))


def test_every_export_is_documented():
    text = README.read_text()
    undocumented = [name for name in fueter.__all__
                    if not name.startswith("__") and not re.search(rf"\b{name}\b", text)]
    assert undocumented == []


@pytest.mark.parametrize("module", sorted(MODULE_HELPERS))
def test_helpers_live_in_their_modules(module):
    names = MODULE_HELPERS[module]
    assert all(callable(getattr(importlib.import_module(module), name)) for name in names)
    assert [name for name in names if name in fueter.__all__ or hasattr(fueter, name)] == []
