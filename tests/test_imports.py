"""What the pearl modules import: SciPy is a test-only dependency that
no pearl module may load, and every imported name is used."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pearl
from test_tracer import _load_tracer


def test_pearl_loads_no_scipy():
    """A fresh interpreter imports the program's entry modules and finds
    no SciPy loaded: a stray top-level import would cost every run about
    70 MB of resident memory."""
    code = ("import sys, pearl.ftl, pearl.adversary, pearl.bench, pearl.cli; "
            "assert 'scipy' not in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('scipy'))[:5]")
    src = str(Path(pearl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_every_import_is_used():
    """Each name a pearl module imports is used in it.  The one exception
    is a name the benchmark tracer wraps in that module, imported by a
    statement marked ``# noqa: F401``."""
    wrapped = {}
    for module, name, _ in _load_tracer()._FUNCTIONS:
        wrapped.setdefault(module.__name__, set()).add(name)
    unused = []
    for path in sorted(Path(pearl.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        module = f"pearl.{path.stem}"
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            noqa = any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name in used or (
                        noqa and name in wrapped.get(module, ())):
                    continue
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
