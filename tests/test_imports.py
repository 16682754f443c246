"""Module boundary: a module under src/xscene/ uses only the public names
of the other xscene modules. Also a linter's duplicate-definition check:
no module under src/xscene/ or tests/ defines a name twice in one body."""

import ast
from pathlib import Path

import xscene

SRC = Path(xscene.__file__).parent
TESTS = Path(__file__).parent


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


def duplicate_definitions(source):
    """(line, name) for every function or class that redefines a name
    already defined in the same module or class body; the later
    definition silently replaces the earlier one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef)):
            continue
        seen = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if stmt.name in seen:
                    found.append((stmt.lineno, stmt.name))
                seen.add(stmt.name)
    return found


def test_no_module_defines_a_name_twice():
    offenders = {}
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
        found = duplicate_definitions(path.read_text(encoding="utf-8"))
        if found:
            offenders[path.name] = found
    assert offenders == {}


def test_duplicate_definitions_are_found():
    source = ("class TestA:\n"
              "    def test_x(self): pass\n"
              "    def test_x(self): pass\n"
              "class TestA:\n"
              "    def test_y(self): pass\n"
              "def f(): pass\n"
              "class B:\n"
              "    def f(self): pass\n")
    assert duplicate_definitions(source) == [(4, "TestA"), (3, "test_x")]
