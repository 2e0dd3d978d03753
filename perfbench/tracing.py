"""Layer timing from outside the program.

``install`` replaces the names that ``ssdr.cli``, ``ssdr.experiments``,
``ssdr.reduction`` and ``ssdr.qda`` look up at call time with wrappers that
record one span per call: name, start, end, parent span, work-unit id and a
few counts. Spans stay in memory until the child process writes them out.
``layer_metrics`` turns spans into the per-layer metrics, per work unit.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# span fields
NAME, START, END, PARENT, UNIT, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.unit = None
        self._stack = []

    def wrap(self, name, fn, note=None):
        """Wrap fn in a span; note(args, result, exc) returns the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            out = exc = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                extra = note(args, out, exc) if note else None
                self.spans[idx] = [name, start, end, parent, self.unit, extra]

        return traced

    def wrap_unit(self, fn, unit_of):
        """Wrap a work-unit worker; spans inside it carry its unit id."""
        inner = self.wrap("experiments.unit", fn)

        @functools.wraps(fn)
        def unit(args):
            self.unit = unit_of(args)
            try:
                return inner(args)
            finally:
                self.unit = None

        return unit


def install(tracer: Tracer, mry_fits: list) -> None:
    """Patch the package's call-time lookups with tracing wrappers.

    Final simple-penalty MRY fits are appended to mry_fits as
    (S, Omega, lambda, admm_tol) for the optimality check.
    """
    from ssdr import cli, experiments, qda, reduction
    from ssdr.errors import ConvergenceError

    def tuning_note(args, out, exc):
        if out is not None:
            return {"iters": out.diagnostics.iterations, "outcome": "converged"}
        if isinstance(exc, ConvergenceError):
            return {"iters": exc.iterations, "outcome": "cap"}
        return {"iters": 0, "outcome": "error"}

    def final_fit_note(args, out, exc):
        if out is None:
            return {"iters": 0}
        cs, spec = args
        if spec.kind == "mry" and spec.mry_penalty == "simple":
            mry_fits.append((cs.cov.copy(), out.omega.copy(),
                             spec.mry_lambda, spec.admm_tol))
        return {"iters": out.diagnostics.iterations}

    def scores_note(args, out, exc):
        model, x = args
        n = 1 if getattr(x, "ndim", 2) == 1 else len(x)
        k, p = model.k, model.p
        # per row and class: subtract the mean (p), matrix-vector product
        # (2p^2), dot product (2p), add the constant (1)
        return {"points": n * k, "flops": n * k * (2 * p * p + 3 * p + 1)}

    def patch(module, attr, name, note=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), note))

    patch(cli, "run_mc_study", "experiments.study")
    patch(cli, "repeated_kfold_cv", "experiments.study")
    patch(cli, "load_csv", "datamodel.load_csv")
    experiments._mc_replicate_worker = tracer.wrap_unit(
        experiments._mc_replicate_worker, lambda args: args[2])
    experiments._cv_repeat_worker = tracer.wrap_unit(
        experiments._cv_repeat_worker, lambda args: args[4])
    patch(experiments, "mry", "estimators.mry_tuning", tuning_note)
    patch(experiments, "tune_lambda", "experiments.tune_lambda")
    patch(experiments, "build_discriminant_matrix",
          "reduction.build_discriminant_matrix")
    patch(experiments, "discriminant_matrix_from",
          "reduction.discriminant_matrix_from")
    patch(reduction, "discriminant_matrix_from",
          "reduction.discriminant_matrix_from")
    patch(reduction, "estimate", "estimators.final_fit", final_fit_note)
    patch(experiments, "svd_full", "numerics.svd_full")
    patch(experiments, "summarize", "datamodel.summarize")
    patch(experiments, "standardize", "datamodel.standardize")
    patch(qda, "fit", "qda.fit")
    patch(qda, "estimate", "estimators.qda_fit_estimate")
    patch(qda, "scores", "qda.scores", scores_note)
    # cli.main last: the child calls the wrapped name
    patch(cli, "main", "cli.main")


# (metric, unit) in the order they are reported
PER_LAYER = (
    ("estimators.mry_tuning.calls", "calls/unit"),
    ("estimators.mry_tuning.s", "s/unit"),
    ("estimators.mry_tuning.iters", "iters/unit"),
    ("estimators.mry_tuning.converged", "calls/unit"),
    ("estimators.mry_tuning.failed_at_cap", "calls/unit"),
    ("estimators.mry_tuning.wasted_s", "s/unit"),
    ("estimators.mry_tuning.converged_ratio", "ratio"),
    ("experiments.tune_lambda.calls", "calls/unit"),
    ("experiments.tune_lambda.self_s", "s/unit"),
    ("estimators.final_fit.calls", "calls/unit"),
    ("estimators.final_fit.s", "s/unit"),
    ("estimators.final_fit.iters", "iters/unit"),
    ("qda.fit.calls", "calls/unit"),
    ("qda.fit.self_s", "s/unit"),
    ("estimators.qda_fit_estimate.calls", "calls/unit"),
    ("estimators.qda_fit_estimate.s", "s/unit"),
    ("qda.scores.calls", "calls/unit"),
    ("qda.scores.s", "s/unit"),
    ("qda.scores.points", "points/unit"),
    ("qda.scores.flops_computed", "flop/unit"),
    ("reduction.build_discriminant_matrix.calls", "calls/unit"),
    ("reduction.build_discriminant_matrix.self_s", "s/unit"),
    ("reduction.discriminant_matrix_from.calls", "calls/unit"),
    ("reduction.discriminant_matrix_from.s", "s/unit"),
    ("numerics.svd_full.calls", "calls/unit"),
    ("numerics.svd_full.s", "s/unit"),
    ("datamodel.summarize.calls", "calls/unit"),
    ("datamodel.summarize.s", "s/unit"),
    ("datamodel.standardize.calls", "calls/unit"),
    ("datamodel.standardize.s", "s/unit"),
    ("datamodel.load_csv.s", "s/unit"),
    ("experiments.self_s", "s/unit"),
    ("cli.self_s", "s/unit"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(spans: list, units: int) -> dict:
    """Per-layer metrics from spans, divided by the number of work units.

    A span's self time is its duration minus the durations of its children;
    spans of one process run one at a time, so children never overlap.
    """
    child_s = defaultdict(float)
    for sp in spans:
        if sp[PARENT] >= 0:
            child_s[sp[PARENT]] += sp[END] - sp[START]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    for i, sp in enumerate(spans):
        name, dur = sp[NAME], sp[END] - sp[START]
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur - child_s[i]
        for key, val in (sp[EXTRA] or {}).items():
            if key == "outcome":
                counts[f"{name}.{val}"] += 1
                if val == "cap":
                    counts[f"{name}.wasted_s"] += dur
            else:
                counts[f"{name}.{key}"] += val

    tune = "estimators.mry_tuning"
    raw = {
        f"{tune}.calls": calls[tune],
        f"{tune}.s": total[tune],
        f"{tune}.iters": counts[f"{tune}.iters"],
        f"{tune}.converged": counts[f"{tune}.converged"],
        f"{tune}.failed_at_cap": counts[f"{tune}.cap"],
        f"{tune}.wasted_s": counts[f"{tune}.wasted_s"],
        "experiments.tune_lambda.calls": calls["experiments.tune_lambda"],
        "experiments.tune_lambda.self_s": self_s["experiments.tune_lambda"],
        "estimators.final_fit.calls": calls["estimators.final_fit"],
        "estimators.final_fit.s": total["estimators.final_fit"],
        "estimators.final_fit.iters": counts["estimators.final_fit.iters"],
        "qda.fit.calls": calls["qda.fit"],
        "qda.fit.self_s": self_s["qda.fit"],
        "estimators.qda_fit_estimate.calls":
            calls["estimators.qda_fit_estimate"],
        "estimators.qda_fit_estimate.s": total["estimators.qda_fit_estimate"],
        "qda.scores.calls": calls["qda.scores"],
        "qda.scores.s": total["qda.scores"],
        "qda.scores.points": counts["qda.scores.points"],
        "qda.scores.flops_computed": counts["qda.scores.flops"],
        "reduction.build_discriminant_matrix.calls":
            calls["reduction.build_discriminant_matrix"],
        "reduction.build_discriminant_matrix.self_s":
            self_s["reduction.build_discriminant_matrix"],
        "reduction.discriminant_matrix_from.calls":
            calls["reduction.discriminant_matrix_from"],
        "reduction.discriminant_matrix_from.s":
            total["reduction.discriminant_matrix_from"],
        "numerics.svd_full.calls": calls["numerics.svd_full"],
        "numerics.svd_full.s": total["numerics.svd_full"],
        "datamodel.summarize.calls": calls["datamodel.summarize"],
        "datamodel.summarize.s": total["datamodel.summarize"],
        "datamodel.standardize.calls": calls["datamodel.standardize"],
        "datamodel.standardize.s": total["datamodel.standardize"],
        "datamodel.load_csv.s": total["datamodel.load_csv"],
        "experiments.self_s":
            self_s["experiments.study"] + self_s["experiments.unit"],
        "cli.self_s": self_s["cli.main"],
    }
    out = {name: val / units for name, val in raw.items()}
    out[f"{tune}.converged_ratio"] = (
        counts[f"{tune}.converged"] / calls[tune] if calls[tune] else 0.0)
    return out
