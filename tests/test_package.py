"""The public API is stated once, in each module's `__all__`, and the
package namespace republishes all of it."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import moninc

# the modules `import moninc` loads; perfbench's set-up clock times that
# import, so a package that stopped loading them would fake a set-up gain
PACKAGE_MODULES = ("core", "harness", "merit", "oracle", "policy",
                   "problems", "solvers", "theory")


def test_import_loads_exactly_the_package_modules():
    script = ("import sys, moninc\n"
              "print(' '.join(sorted(m for m in sys.modules\n"
              "                      if m.startswith('moninc.'))))\n")
    src = os.path.dirname(os.path.dirname(moninc.__file__))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"moninc.{name}"
                                   for name in PACKAGE_MODULES]


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_all_names_every_public_definition(name):
    module = importlib.import_module(f"moninc.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), attr
    defined = {attr for attr, obj in vars(module).items()
               if not attr.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert defined <= set(module.__all__)


def test_package_republishes_every_module_api():
    for name in PACKAGE_MODULES:
        module = getattr(moninc, name)
        missing = set(module.__all__) - set(moninc.__all__)
        assert not missing, f"moninc.{name}: {sorted(missing)}"
        for attr in module.__all__:
            assert getattr(moninc, attr) is getattr(module, attr)
