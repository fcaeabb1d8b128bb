"""Checks on the ``superchar`` modules, parsed with ``ast`` only, without
importing.

Every name a module imports with ``from ... import`` is used in that
module; ``__init__.py`` is skipped there, since its imports are the
package's re-exports.

No module relies on the interpreter's teardown, which ``cli.run`` skips
with ``os._exit``: none imports ``atexit`` (whose handlers would never
run), ``threading``, ``concurrent`` or ``multiprocessing`` (whose workers
would never be joined), or defines ``__del__`` (which would never be
called).

No module imports ``argparse`` or ``pathlib`` when it is itself imported,
only inside a function that needs it: the CLI reads a well-formed command
line without argparse, and only ``load_spec`` reads a path.

Every keyed build of a group goes through ``BuiltGroup.cached``: no
attribute named ``cache`` is read or written outside
``BuiltGroup.__init__`` and ``BuiltGroup.cached``, and nothing is
defined as ``_cached``, so one hook there sees every such build.

``triangular.straight_line`` is the one place code is generated: no
other code names the builtins ``exec``, ``eval`` or ``compile``, neither
bare nor as an attribute of ``builtins``.

No definition is dead: every module-level function or class and every
method that is not a dunder is read by name (as a name or an attribute)
in some module other than ``__init__.py``, or imported or read as an
attribute by ``perfbench/layers.py``, or listed in ``UNREAD`` with the
reason it stays.  The match is by bare name, so a local variable of the
same name hides a dead definition; the guard catches wrappers that
nothing reads at all."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "superchar"
LAYERS = ROOT / "perfbench" / "layers.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))
TEARDOWN_MODULES = {"atexit", "threading", "concurrent", "multiprocessing"}


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def _unused_imports(tree):
    """The bound names of ``from ... import`` statements that no Name in
    the module reads, a quoted annotation included."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    quoted = [
        ast.parse(node.value, mode="eval")
        for annotation in _annotations(tree)
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    used = {
        node.id
        for root in [tree, *quoted]
        for node in ast.walk(root)
        if isinstance(node, ast.Name)
    }
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_from_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "from x import a, b as c, d, e\n"
        "def f(y: 'e') -> int:\n"
        "    return a.g(d, 'c')\n"
    )
    assert _unused_imports(ast.parse(source)) == ["c"]


def _teardown_reliance(tree):
    """What in the module needs the interpreter's teardown: each imported
    module of TEARDOWN_MODULES and each ``__del__`` defined, in source
    order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.name == "__del__":
            found.append((node.lineno, "__del__"))
            continue
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] in TEARDOWN_MODULES]
    return [what for _, what in sorted(found)]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_nothing_needs_interpreter_teardown(path):
    assert _teardown_reliance(ast.parse(path.read_text(), str(path))) == []


def test_teardown_reliance_is_found():
    source = (
        "import atexit\n"
        "import os, threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from multiprocessing import Pool\n"
        "from .threading import x\n"
        "class C:\n"
        "    def __del__(self):\n"
        "        pass\n"
        "atexit.register(print)\n"
    )
    assert _teardown_reliance(ast.parse(source)) == [
        "atexit",
        "threading",
        "concurrent.futures",
        "multiprocessing",
        "__del__",
    ]


LAZY_IMPORTS = {"argparse", "pathlib"}


def _eager_imports(tree):
    """Each module of LAZY_IMPORTS imported outside every function body,
    that is, when the module itself is imported, in source order."""
    in_functions = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda)
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in in_functions:
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] in LAZY_IMPORTS]
    return [what for _, what in sorted(found)]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_argparse_and_pathlib_are_imported_only_where_used(path):
    assert _eager_imports(ast.parse(path.read_text(), str(path))) == []


def test_eager_imports_are_found():
    source = (
        "import os, argparse\n"
        "from pathlib import Path\n"
        "from .pathlib import x\n"
        "class C:\n"
        "    import pathlib.posix\n"
        "    def run(self):\n"
        "        import argparse\n"
        "def f():\n"
        "    from pathlib import Path\n"
        "if x:\n"
        "    import argparse as a\n"
    )
    assert _eager_imports(ast.parse(source)) == ["argparse", "pathlib", "pathlib.posix", "argparse"]


def _stray_caches(tree):
    """Each ``.cache`` attribute outside ``BuiltGroup.__init__`` and
    ``BuiltGroup.cached`` and each definition named ``_cached``, in
    source order."""
    allowed = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "BuiltGroup"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "cached")
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "cache" and id(node) not in allowed:
            found.append((node.lineno, ".cache"))
        elif "_cached" in (getattr(node, "name", None), getattr(node, "id", None)):
            found.append((node.lineno, "_cached"))  # a def, class, import or name
    return [what for _, what in sorted(found)]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_every_keyed_build_goes_through_built_group_cached(path):
    assert _stray_caches(ast.parse(path.read_text(), str(path))) == []


def test_stray_caches_are_found():
    source = (
        "from .orbits import _cached\n"
        "class BuiltGroup:\n"
        "    def __init__(self):\n"
        "        self.cache = {}\n"
        "    def cached(self, key, build):\n"
        "        return self.cache.setdefault(key, build())\n"
        "    def other(self):\n"
        "        return self.cache\n"
        "def _cached(bg, key, build):\n"
        "    return bg.cache[key]\n"
        "_cached = None\n"
    )
    found = ["_cached", ".cache", "_cached", ".cache", "_cached"]
    assert _stray_caches(ast.parse(source)) == found


GENERATORS = {"exec", "eval", "compile"}


def _generated_code(tree, allowed_function=None):
    """Each name of GENERATORS read outside the function named
    ``allowed_function``, bare or as ``builtins.<name>``, in source
    order."""
    allowed = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == allowed_function
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Name) and node.id in GENERATORS:
            found.append((node.lineno, node.id))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in GENERATORS
            and isinstance(node.value, ast.Name)
            and node.value.id == "builtins"
        ):
            found.append((node.lineno, f"builtins.{node.attr}"))
    return [what for _, what in sorted(found)]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_code_is_generated_only_in_straight_line(path):
    allowed = "straight_line" if path.name == "triangular.py" else None
    assert _generated_code(ast.parse(path.read_text(), str(path)), allowed) == []


def test_generated_code_is_found():
    source = (
        "import builtins, re\n"
        "def straight_line(src):\n"
        "    exec(src, {})\n"
        "def other(src):\n"
        "    run = eval\n"
        "    builtins.exec(src)\n"
        "    return compile(src, '<s>', 'exec'), re.compile(src)\n"
    )
    tree = ast.parse(source)
    assert _generated_code(tree, "straight_line") == ["eval", "builtins.exec", "compile"]
    assert _generated_code(tree) == ["exec", "eval", "builtins.exec", "compile"]


# definitions that no module reads by name, by "module.qualified name", and
# why each stays
UNREAD = {
    "__init__.__getattr__": "the interpreter calls it for an export not yet imported (PEP 562)",
    "cyclotomic.CycloValue.conjugate": "the tests' reference for conjugate_lift",
}


def _definitions(tree):
    """(qualified name, name) of each module-level function or class and
    each method of a module-level class that is not a dunder."""
    defs = ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef | ast.AsyncFunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def _read_names(tree):
    """Every name the module loads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name | ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _layers_names(tree):
    """Every name the tracer imports from superchar or reads as an
    attribute."""
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("superchar")
        for alias in node.names
    }
    return imported | {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _dead_definitions(modules, layers, unread=()):
    """The "module.qualified name" of each definition in ``modules``, a
    {stem: tree} map, that no module other than ``__init__`` reads, that
    ``layers`` neither imports nor reads, and that ``unread`` does not
    list."""
    read = _layers_names(layers).union(
        *(_read_names(tree) for stem, tree in modules.items() if stem != "__init__")
    )
    return [
        f"{stem}.{qualified}"
        for stem, tree in modules.items()
        for qualified, name in _definitions(tree)
        if name not in read and f"{stem}.{qualified}" not in unread
    ]


def test_every_definition_is_read():
    modules = {path.stem: ast.parse(path.read_text(), str(path)) for path in ALL_MODULES}
    layers = ast.parse(LAYERS.read_text(), str(LAYERS))
    assert _dead_definitions(modules, layers, UNREAD) == []
    # each entry of UNREAD names a definition that is still there
    defined = {f"{stem}.{q}" for stem, tree in modules.items() for q, _ in _definitions(tree)}
    assert set(UNREAD) <= defined


def test_dead_definitions_are_found():
    source = (
        "class A:\n"
        "    def used(self):\n"
        "        return self.traced()\n"
        "    def unused(self):\n"
        "        pass\n"
        "    def traced(self):\n"
        "        pass\n"
        "    def listed(self):\n"
        "        pass\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "def helper():\n"
        "    return A().used()\n"
        "def exported():\n"
        "    pass\n"
        "def imported():\n"
        "    pass\n"
    )
    modules = {
        "m": ast.parse(source),
        "n": ast.parse("def f():\n    return helper\n"),
        "__init__": ast.parse("from .m import exported\nexported\n"),
    }
    layers = ast.parse("from superchar.m import imported\nx.traced\n")
    found = _dead_definitions(modules, layers, {"m.A.listed"})
    assert found == ["m.A.unused", "m.exported", "n.f"]
