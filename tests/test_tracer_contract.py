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


def _run_traced(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter after installing the tracer,
    whose list of final simple-penalty MRY fits is named ``fits``."""
    setup = ("import sys; sys.path.insert(0, 'perfbench'); import tracing; "
             "fits = []; tracing.install(tracing.Tracer(), fits)\n")
    return subprocess.run([sys.executable, "-c", setup + code], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True, timeout=120)


def test_tracer_finds_every_name_it_patches():
    proc = _run_traced("")
    assert proc.returncode == 0, proc.stderr


def test_tracer_sees_every_final_mry_fit_of_a_tuned_cv_study():
    # the benchmark's graphical-lasso optimality check reads the final fits
    # the tracer records; it must see one per (fold, class) of every repeat
    code = """
import numpy as np
from ssdr.datamodel import LabeledDataset
from ssdr.estimators import PrecisionEstimatorSpec
from ssdr import experiments
rng = np.random.default_rng(3)
ds = LabeledDataset(
    np.vstack([rng.normal(size=(12, 3)) + 2.0 * c for c in range(3)]),
    np.repeat(np.arange(3), 12))
experiments._LAMBDA_GRID_SIZE = 3
pl = experiments.PipelineSpec(name="m", dims=(1, 2),
                              estimator=PrecisionEstimatorSpec(kind="mry"))
rep = experiments.repeated_kfold_cv(ds, pl, folds=3, repeats=2, seed=0,
                                    threads=1, inner_folds=2)
assert not rep.has_failures()
print(len(fits))
"""
    proc = _run_traced(code)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) == 2 * 3 * 3
