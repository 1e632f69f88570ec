"""SciPy is a test-only dependency: no pearl module may load it."""

import os
import subprocess
import sys
from pathlib import Path

import pearl


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
