"""Importing the library loads no module that only a rare path needs: the
Monte Carlo bounds import their thread pool, and the piecewise search's
fallback its logging, where they use them."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = ("concurrent.futures", "logging")


def test_import_loads_no_deferred_module():
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import bicacomp\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    added = proc.stdout.split()
    assert "bicacomp.search" in added and "bicacomp.bounds" in added
    assert [name for name in DEFERRED if name in added] == []
