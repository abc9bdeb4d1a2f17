"""Every name a rischan module exports resolves on that module."""

import importlib
import pkgutil

import pytest

import rischan

# private modules export nothing, and ``__main__`` runs the CLI on import
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(rischan.__path__, "rischan.")
    if not info.name.rpartition(".")[2].startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
