"""The public names of the package and of each of its modules."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import communifind

MODULES = ["communifind"] + [f"communifind.{m.name}" for m in pkgutil.iter_modules(communifind.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a name left in __all__ after its definition is gone breaks only
    # `from module import *`
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
