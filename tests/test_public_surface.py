"""The public surface: every exported name resolves, and is exported once."""

import importlib
import pkgutil

import pytest

import paretorecords

MODULES = ["paretorecords"] + [
    f"paretorecords.{info.name}" for info in pkgutil.iter_modules(paretorecords.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(
        n for n in set(exported) if exported.count(n) > 1
    )
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
