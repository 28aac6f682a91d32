"""Every name that a taskinfo module lists in ``__all__`` exists, so a
deleted function cannot leave a dangling export behind."""

import importlib
import pkgutil

import pytest

import taskinfo

MODULES = ["taskinfo"] + sorted(
    f"taskinfo.{m.name}" for m in pkgutil.iter_modules(taskinfo.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} has no __all__"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
