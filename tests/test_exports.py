import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_package_import_loads_no_numpy():
    # viscmin.cli pins the BLAS threads before numpy loads, which only
    # works if importing the package itself loads no numpy
    src = os.path.dirname(os.path.dirname(viscmin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, viscmin; "
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cli_import_loads_no_scipy():
    # the library runs on numpy alone; scipy is a test-side oracle only
    src = os.path.dirname(os.path.dirname(viscmin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, viscmin.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
