import importlib
import pkgutil

import pytest

import viscmin

MODULES = sorted(m.name for m in pkgutil.iter_modules(viscmin.__path__))


@pytest.mark.parametrize("module", [None] + MODULES)
def test_all_names_resolve(module):
    mod = viscmin if module is None \
        else importlib.import_module(f"viscmin.{module}")
    # cli, io and continuation export nothing by __all__
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []
