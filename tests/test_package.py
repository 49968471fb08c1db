"""The package re-exports nothing: each module imports on its own, as the README shows."""

import ast
import doctest
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import braidkit
from child_env import child_env

MODULES = sorted(m.name for m in pkgutil.iter_modules(braidkit.__path__))
ROOT = Path(__file__).resolve().parent.parent


def fresh_python(code: str) -> str:
    """Standard output of `code` run in a new interpreter that imports from src/."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_module():
    out = fresh_python("import braidkit, sys; "
                       "print([m for m in sys.modules if m.startswith('braidkit.')])")
    assert out == "[]\n"


def test_the_module_list_is_found():
    assert set(MODULES) >= {"bands", "cli", "freegroup", "hurwitz", "normalform", "planar",
                            "rewriting", "verify", "words"}


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_on_its_own(name):
    assert fresh_python(f"import braidkit.{name}; print('ok')") == "ok\n"


def test_the_readme_example_runs():
    readme = ROOT / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert (result.failed, result.attempted) == (0, 4)


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, "from __future__" aside."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path, sys\nfrom a import b as c, d\nd(os)\n") == ["sys", "c"]


SOURCES = sorted([*ROOT.glob("src/braidkit/*.py"), *ROOT.glob("tests/*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_names(sources) -> list[str]:
    """The private module-level functions and classes, and private methods, no source reads.

    A name counts as read wherever any of the sources holds it as a name,
    an attribute or an imported name; names are matched alone, not by
    module.  Dunder names are not private.
    """
    trees = [ast.parse(source) for source in sources]
    defined = [item.name
               for tree in trees for node in tree.body
               for item in ([node, *node.body] if isinstance(node, ast.ClassDef) else [node])
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and item.name.startswith("_") and not item.name.endswith("__")]
    read = {name for tree in trees for node in ast.walk(tree)
            for name in (getattr(node, "id", None), getattr(node, "attr", None),
                         node.name if isinstance(node, ast.alias) else None)}
    return [name for name in defined if name not in read]


def test_unreferenced_private_names_are_found():
    sources = ["def _used(): pass\n"
               "class _Gone:\n"
               "    def __init__(self): self._called()\n"
               "    def _called(self): pass\n"
               "    def _left(self): pass\n",
               "from a import _used\n"]
    assert unreferenced_private_names(sources) == ["_Gone", "_left"]


def test_every_private_definition_in_src_is_referenced():
    sources = [path.read_text() for path in ROOT.glob("src/braidkit/*.py")]
    assert unreferenced_private_names(sources) == []
