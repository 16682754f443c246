"""Module boundary: a module under src/xscene/ uses only the public names
of the other xscene modules. Also a linter's duplicate-definition check:
no module under src/xscene/ or tests/ defines a name twice in one body;
a dead-code check: every top-level function and class, and every method
and property of a class, under src/xscene/ is referred to by the program
or the benchmark, not only by tests; and a traceback check: every `raise`
under src/xscene/ raises a class that the CLI turns into exit code 2, and
every class in errors.py is raised."""

import ast
import builtins
from pathlib import Path

import xscene
import xscene.cli
import xscene.errors

SRC = Path(xscene.__file__).parent
TESTS = Path(__file__).parent
BENCH = TESTS.parent / "bench"


def sources(folder):
    return [path.read_text(encoding="utf-8") for path in sorted(folder.glob("*.py"))]


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
    found = unreferenced_definitions(sources(SRC), sources(BENCH))
    assert found == set(ONLY_TESTS_CALL)


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


def unreferenced_members(defining, referring):
    """`Class.name` for every method and property, dunders aside, of a
    top-level class in the `defining` sources that no source in `defining`
    or `referring` refers to outside the member's own body."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    trees = [ast.parse(source) for source in defining]
    members = {(cls.name, stmt.name) for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) for stmt in cls.body
               if isinstance(stmt, defs) and not stmt.name.startswith("__")}
    used = set()
    for tree in [*trees, *map(ast.parse, referring)]:
        for stmt in tree.body:
            for unit in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
                own = {unit.name} if isinstance(unit, defs) else set()
                used |= references(unit) - own
    return {f"{cls}.{name}" for cls, name in members if name not in used}


def test_every_member_has_a_program_caller():
    assert unreferenced_members(sources(SRC), sources(BENCH)) == set()


def test_unreferenced_members_are_found():
    defining = ("class A:\n"
                "    def __init__(self): pass\n"
                "    def called(self): return self.helper()\n"
                "    def helper(self): pass\n"
                "    def recursive(self): return self.recursive()\n"
                "    @property\n"
                "    def unread(self): return 1\n"
                "    @property\n"
                "    def read(self): return 2\n"
                "    @classmethod\n"
                "    def make(cls): return cls()\n"
                "def f(a):\n"
                "    return a.called(), a.read\n")
    referring = "patch(A, 'make')\n"
    assert unreferenced_members([defining], [referring]) == {
        "A.recursive", "A.unread"}


def raised_names(source):
    """(line, function, name) for every `raise` that names what it raises:
    the name of the class it raises or calls, or of the variable it
    raises, with the function the statement is in ("" at module level).
    A bare `raise` re-raises what a handler caught and is left out."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else exc.id
                found.append((child.lineno, function, name))
            visit(child, function)

    visit(ast.parse(source), "")
    return found


def uncaught_raises(source, scope, caught, allowed):
    """(line, name) for every raise in `source` whose name, looked up in
    `scope`, is not a subclass of one of the `caught` classes, unless
    (function, name) is in `allowed`."""
    return [(line, name) for line, function, name in raised_names(source)
            if (function, name) not in allowed
            and not (isinstance(scope.get(name), type)
                     and issubclass(scope[name], caught))]


def exit_2_classes():
    """The exception classes that cli.main's handlers turn into exit 2."""
    tree = ast.parse(Path(xscene.cli.__file__).read_text(encoding="utf-8"))
    main = next(stmt for stmt in tree.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "main")
    scope = {**vars(builtins), **vars(xscene.cli)}
    return tuple(scope[node.id] for handler in ast.walk(main)
                 if isinstance(handler, ast.ExceptHandler)
                 for node in ast.walk(handler.type) if isinstance(node, ast.Name))


# raises of a parameter, not a class, each with the reason it exits 2
RAISED_PARAMETERS = {
    ("_decode_json", "error"): "its callers pass ConfigError and ParseError",
}


def test_every_raise_exits_2():
    # every exception class the program raises is a builtin or in errors.py
    scope = {**vars(builtins), **vars(xscene.errors)}
    caught = exit_2_classes()
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        found = uncaught_raises(path.read_text(encoding="utf-8"), scope, caught,
                                RAISED_PARAMETERS)
        if found:
            offenders[path.name] = found
    assert offenders == {}


def test_uncaught_raises_are_found():
    source = ("def f(x):\n"
              "    if x:\n"
              "        raise IndexError('x')\n"
              "    raise errors.ZeroDivisionError\n"
              "def g(error):\n"
              "    try:\n"
              "        raise KeyError\n"
              "    except KeyError:\n"
              "        raise\n"
              "    raise error('allowed here')\n"
              "def h(error):\n"
              "    raise error('not here')\n"
              "raise Undefined()\n")
    scope = vars(builtins)
    assert uncaught_raises(source, scope, (LookupError,), {("g", "error")}) == [
        (4, "ZeroDivisionError"), (12, "error"), (13, "Undefined")]


def unraised_classes(errors_source, raising):
    """The classes defined in `errors_source` that no `raise` in the
    `raising` sources names."""
    defined = {stmt.name for stmt in ast.parse(errors_source).body
               if isinstance(stmt, ast.ClassDef)}
    raised = {name for source in raising for _, _, name in raised_names(source)}
    return defined - raised


def test_every_error_class_is_raised():
    errors = Path(xscene.errors.__file__).read_text(encoding="utf-8")
    assert unraised_classes(errors, sources(SRC)) == set()


def test_unraised_classes_are_found():
    errors = ("class Raised(ValueError): pass\n"
              "class ByAttribute(ValueError): pass\n"
              "class OnlyCaught(ValueError): pass\n"
              "class OnlyNamed(ValueError): pass\n")
    raising = ("def f():\n"
               "    try:\n"
               "        raise Raised('x')\n"
               "    except OnlyCaught:\n"
               "        raise errors.ByAttribute\n"
               "KINDS = (OnlyNamed,)\n")
    assert unraised_classes(errors, [raising]) == {"OnlyCaught", "OnlyNamed"}
