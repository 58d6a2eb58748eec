"""Each module's __all__ is its public API."""

import importlib
import inspect
import pkgutil

import pytest

import choqlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(choqlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_the_public_api(name):
    # every public function or class a module defines is in its __all__,
    # and every name in __all__ exists
    mod = importlib.import_module(f"choqlab.{name}")
    exported = mod.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []
    defined = [n for n, obj in vars(mod).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__]
    assert [n for n in defined if n not in exported] == []
