"""Every exported name resolves, so ``from framelab... import *`` works."""

import importlib
import pkgutil

import pytest

import framelab

MODULES = [
    "framelab",
    *(
        f"framelab.{info.name}"
        for info in pkgutil.iter_modules(framelab.__path__)
        if info.name != "__main__"
    ),
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
