"""Module boundary: a module under src/xscene/ uses only the public names
of the other xscene modules. Also a linter's duplicate-definition check:
no module under src/xscene/ or tests/ defines a name twice in one body,
and a dead-code check: every top-level function and class under
src/xscene/ is referred to by the program or the benchmark, not only by
tests."""

import ast
from pathlib import Path

import xscene

SRC = Path(xscene.__file__).parent
TESTS = Path(__file__).parent
BENCH = TESTS.parent / "bench"


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


def references(node):
    """Every name `node` refers to: a Name, an Attribute, an imported name
    or a string constant (the benchmark's tracer names its targets by
    string)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def unreferenced_definitions(defining, referring):
    """Names of the top-level functions and classes in the `defining`
    sources that no source in `defining` or `referring` refers to outside
    the definition's own body."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    trees = [ast.parse(source) for source in defining]
    defined = {stmt.name for tree in trees for stmt in tree.body
               if isinstance(stmt, defs)}
    used = set()
    for tree in [*trees, *map(ast.parse, referring)]:
        for stmt in tree.body:
            own = {stmt.name} if isinstance(stmt, defs) else set()
            used |= references(stmt) - own
    return defined - used


# definitions that only tests call, each with the reason it stays
ONLY_TESTS_CALL = {
    "distance_correlation": "acceptance check 4 grades it, and ROADMAP "
                            "item 2 logs it as a phase-end diagnostic",
}


def test_every_definition_has_a_program_caller():
    # equality, so an entry that gained a caller fails too
    src, bench = ([path.read_text(encoding="utf-8")
                   for path in sorted(folder.glob("*.py"))]
                  for folder in (SRC, BENCH))
    assert unreferenced_definitions(src, bench) == set(ONLY_TESTS_CALL)


def test_unreferenced_definitions_are_found():
    defining = ("def called(): pass\n"
                "def recursive(n): return recursive(n - 1)\n"
                "class Alone:\n"
                "    def make(self): return Alone()\n"
                "def by_attribute(): pass\n"
                "def by_string(): pass\n"
                "def imported(): pass\n"
                "called()\n")
    referring = ("from m import imported\n"
                 "m.by_attribute()\n"
                 "patch(m, 'by_string')\n")
    assert unreferenced_definitions([defining], [referring]) == {
        "recursive", "Alone"}
