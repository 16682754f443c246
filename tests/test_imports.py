"""Module boundary: a module under src/xscene/ uses only the public names
of the other xscene modules."""

import ast
from pathlib import Path

import xscene

SRC = Path(xscene.__file__).parent


def private_imports(source):
    """(module, name) for every `_`-prefixed name the source imports from
    an xscene module, relatively or by the package name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "xscene":
            continue
        found += [(module, alias.name) for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_no_module_imports_private_names_of_another():
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        found = private_imports(path.read_text(encoding="utf-8"))
        if found:
            offenders[path.name] = found
    assert offenders == {}


def test_private_imports_are_found():
    source = ("from .disagreement import _as_batch, symmetric_kl\n"
              "from xscene.nn import _check_labels\n"
              "from os.path import _get_sep\n"
              "from . import cli\n")
    assert private_imports(source) == [("disagreement", "_as_batch"),
                                       ("xscene.nn", "_check_labels")]
