"""The benchmark's per-layer tracer (perfbench/layers.py) imports library
functions by name and is never changed with the library.  Parse it without
running it and check that every name it imports from superchar resolves, so
deleting or renaming one of them fails here first; then run its two modes
on small specs, since it also reads attributes such as ``bg.U``."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "perfbench" / "layers.py"


def _superchar_imports(tree):
    """(module, name) for every `from superchar... import name`, and
    (module, None) for every `import superchar...`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if node.module.split(".")[0] == "superchar":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "superchar":
                    yield alias.name, None


def test_layers_imports_resolve():
    found = list(_superchar_imports(ast.parse(LAYERS.read_text(), str(LAYERS))))
    assert ("superchar.sct", "conjugation_index") in found
    missing = []
    for module_name, name in found:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            missing.append(f"{module_name}.{name}")
    assert not missing, missing


# UU3(F_9) builds the log record and has kdim = 2
@pytest.mark.parametrize("spec", ["verify:UO:4:3", "verify:UT:3:3", "verify:UU:3:3"])
def test_layers_setup_and_trace_run(spec):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")

    def layers(*args):
        done = subprocess.run(
            [sys.executable, str(LAYERS), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    layers("setup", spec)
    out = json.loads(layers("trace", spec, "--probe-seed", "1"))
    assert out["ok"] is True
