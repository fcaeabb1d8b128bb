"""Every name a ``superchar`` module imports with ``from ... import`` is
used in that module.  ``__init__.py`` is skipped: its imports are the
package's re-exports.  Parsed with ``ast`` only, without importing."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "superchar"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
