"""The benchmark's layer tracer looks up package names with getattr.

``perfbench/tracing.py`` ``install`` replaces named functions in ``ssdr.cli``,
``ssdr.experiments``, ``ssdr.reduction`` and ``ssdr.qda``. A refactor that
drops or renames one of them must fail here, not only in a traced benchmark
run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_name_it_patches():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import tracing; "
            "tracing.install(tracing.Tracer(), [])")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
