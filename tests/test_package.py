"""The package re-exports nothing: each module imports on its own, as the README shows."""

import doctest
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import braidkit

SRC = os.path.dirname(os.path.dirname(braidkit.__file__))
MODULES = sorted(m.name for m in pkgutil.iter_modules(braidkit.__path__))


def fresh_python(code: str) -> str:
    """Standard output of `code` run in a new interpreter that imports from src/."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_module():
    out = fresh_python("import braidkit, sys; "
                       "print([m for m in sys.modules if m.startswith('braidkit.')])")
    assert out == "[]\n"


def test_the_module_list_is_found():
    assert set(MODULES) >= {"bands", "cli", "freegroup", "hurwitz", "normalform", "perms",
                            "planar", "rewriting", "verify", "words"}


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_on_its_own(name):
    assert fresh_python(f"import braidkit.{name}; print('ok')") == "ok\n"


def test_the_readme_example_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert (result.failed, result.attempted) == (0, 4)
