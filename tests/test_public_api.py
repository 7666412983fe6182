"""The public names each module exports exist."""
import importlib
import pkgutil

import pytest

import elflow

MODULES = ["elflow"] + [f"elflow.{m.name}" for m in pkgutil.iter_modules(elflow.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
