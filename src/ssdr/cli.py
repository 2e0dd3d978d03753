"""Command-line surface: simulate, cv, select-dim, report.

Runs are reproducible from their own output: every emitted JSON report
embeds the tool version, the fully resolved configuration, and the master
seed. Exit codes: 0 success, 2 success with recorded estimator failures,
1 fatal error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import numbers
import os
import sys
from pathlib import Path

from . import __version__
from .datamodel import load_csv
from .errors import SchemaVersionError, SsdrError
from .estimators import IS_COUNT, PrecisionEstimatorSpec
from .experiments import (
    PipelineSpec,
    repeated_kfold_cv,
    run_mc_study,
    select_dimension,
    simulation_config,
)
from .qda import REPORT_SCHEMA_VERSION, CerReport

CONFIG_SCHEMA_VERSION = 1

ESTIMATOR_ALIASES = {
    "sample": "sample_inverse",
    "sample_inverse": "sample_inverse",
    "haff": "haff",
    "wang": "wang",
    "bodnar": "bodnar",
    "mry": "mry",
}

# A pipeline's config keys: each maps to the PrecisionEstimatorSpec or
# PipelineSpec field it sets ("estimator" takes an ESTIMATOR_ALIASES name).
# Any other key is rejected, so a report's resolved config never records a
# setting the run ignored.
ESTIMATOR_KEYS = {
    "estimator": "kind",
    "lambda": "mry_lambda",
    "penalty": "mry_penalty",
    "gamma": "mry_gamma",
    "standardize_mean": "mry_standardize_mean",
    "bodnar_target": "bodnar_target",
    "admm_max_iters": "admm_max_iters",
    "admm_tol": "admm_tol",
}
PIPELINE_KEYS = {
    "name": "name",
    "dims": "dims",
    "standardize": "standardize",
    "tune": "tune_mry_lambda",
}
# The config key that sets each spec field, to name it in errors.
KEY_OF_FIELD = {field: key
                for key, field in {**ESTIMATOR_KEYS, **PIPELINE_KEYS}.items()}
# (test, requirement) of the top-level simulate values that a file or a
# flag sets; a pipeline entry is checked when it is built
SIMULATE_RULES = {
    "name": (lambda v: isinstance(v, str), "a string"),
    "config_id": IS_COUNT,
    "n_policy": (lambda v: isinstance(v, str) or IS_COUNT[0](v),
                 "a policy name or an integer >= 1"),
    "replicates": IS_COUNT,
    "seed": (lambda v: isinstance(v, numbers.Integral)
             and not isinstance(v, bool) and v >= 0, "an integer >= 0"),
    "pool_size": IS_COUNT,
    "pipelines": (lambda v: isinstance(v, list), "a list of pipelines"),
}
# Top-level keys of a simulate config file. "command" and "n_i" are
# recorded in every simulate report's resolved config; a file may carry
# them so that config re-runs, but they must agree with the run.
SIMULATE_KEYS = ("schema_version", "command", "n_i", *SIMULATE_RULES)


class UsageError(SsdrError):
    """Bad flags or configuration file contents."""


def resolve_threads(requested: int | None) -> int:
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("SSDR_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"SSDR_THREADS={env!r} is not an integer") from None
    return os.cpu_count() or 1


def _reject_unknown_keys(d: dict, accepted, where: str) -> None:
    unknown = sorted(set(d) - set(accepted))
    if unknown:
        raise UsageError(
            f"{where}: unknown keys {unknown} (accepted: {sorted(accepted)})")


def _pipeline_from_dict(d: dict, where: str, p: int) -> PipelineSpec:
    """Build and validate one pipeline from its config keys.

    ``where`` names the pipeline in error messages; ``p`` is the run's
    dimension, against which ``dims`` is checked.
    """
    if not isinstance(d, dict):
        raise UsageError(f"{where}: must be an object of keys, got {d!r}")
    _reject_unknown_keys(d, {**ESTIMATOR_KEYS, **PIPELINE_KEYS}, where)
    kind = d.get("estimator", "sample")
    if kind not in ESTIMATOR_ALIASES:
        raise UsageError(
            f"{where}: unknown estimator {kind!r} "
            f"(choose from {sorted(ESTIMATOR_ALIASES)})"
        )
    est = {field: d[key] for key, field in ESTIMATOR_KEYS.items() if key in d}
    est["kind"] = ESTIMATOR_ALIASES[kind]
    fields = {field: d[key] for key, field in PIPELINE_KEYS.items() if key in d}
    dims = fields.pop("dims", "all")
    if dims == "all":
        fields["dims"] = None
    else:
        try:
            fields["dims"] = tuple(int(r) for r in dims)
        except (TypeError, ValueError):
            raise UsageError(
                f"{where}: dims must be 'all' or a list of ints") from None
    try:
        spec = PrecisionEstimatorSpec(**est)
        fields["name"] = fields.get("name") or f"ssdr_{spec.kind}"
        pl = PipelineSpec(estimator=spec, **fields)
        pl.resolved_dims(p)  # validate against this run's dimension
    except SsdrError as exc:
        key = KEY_OF_FIELD.get(getattr(exc, "field", None))
        raise UsageError(f"{where}{'.' + key if key else ''}: {exc}") from exc
    return pl


def _load_json_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"{path}: must hold a JSON object of keys")
    version = cfg.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise UsageError(
            f"{path}: schema_version {version!r}, expected {CONFIG_SCHEMA_VERSION}"
        )
    return cfg


def _write_report_files(report: CerReport, out_dir: Path, name: str,
                        resolved_config: dict) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    payload["tool_version"] = __version__
    payload["resolved_config"] = resolved_config
    payload["created_at"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    report_path = out_dir / f"{name}_report.json"
    report_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    summary_path = out_dir / f"{name}_summary.csv"
    _write_summary_csv(report, summary_path, run=name)
    return report_path, summary_path


_SUMMARY_FIELDS = ["method", "r", "n", "median", "mean", "sd", "failures"]
# identifying columns so the CSV alone names its run, seed, and tool version
_CONTEXT_FIELDS = ["run", "seed", "schema_version", "tool_version"]


def _write_summary_csv(report: CerReport, path: Path, run: str) -> None:
    context = {
        "run": run,
        "seed": report.metadata.get("master_seed", ""),
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool_version": __version__,
    }
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SUMMARY_FIELDS + _CONTEXT_FIELDS)
        writer.writeheader()
        for row in report.summary_rows():
            out = {k: ("" if row[k] is None else row[k])
                   for k in _SUMMARY_FIELDS}
            writer.writerow({**out, **context})


def _exit_code(report: CerReport) -> int:
    return 2 if report.has_failures() else 0


def cmd_simulate(args) -> int:
    file_cfg = _load_json_config(args.config) if args.config else {}
    _reject_unknown_keys(file_cfg, SIMULATE_KEYS, args.config)
    flags = {"config_id": args.config_id, "n_policy": args.n_policy,
             "replicates": args.replicates, "seed": args.seed}
    # flag > file > default
    run = {"n_policy": "2p", "replicates": 200, "pool_size": 5000,
           "pipelines": [], **file_cfg,
           **{key: value for key, value in flags.items() if value is not None}}
    for key, (ok, requirement) in SIMULATE_RULES.items():
        if key in run and not ok(run[key]):
            raise UsageError(f"{key} must be {requirement}, got {run[key]!r}")
    if "config_id" not in run:
        raise UsageError("config_id is required (flag --config-id or config file)")
    if "seed" not in run:
        run["seed"] = int.from_bytes(os.urandom(4), "little")
        print(f"note: no seed given; using master seed {run['seed']}")
    name = args.name or run.get("name") or f"cfg{run['config_id']}"

    try:
        cfg = simulation_config(run["config_id"], run["n_policy"],
                                replicates=run["replicates"],
                                master_seed=run["seed"],
                                pool_size=run["pool_size"])
    except SsdrError as exc:
        raise UsageError(f"config_id/n_policy: {exc}") from exc
    for key, value in (("command", "simulate"), ("n_i", cfg.n_i)):
        if file_cfg.get(key, value) != value:
            raise UsageError(f"{args.config}: {key} is {file_cfg[key]!r}, "
                             f"but this run has {value!r}")

    pipelines = [
        _pipeline_from_dict(d, f"pipelines[{i}]", cfg.p)
        for i, d in enumerate(run["pipelines"])
    ]
    threads = resolve_threads(args.threads)
    report = run_mc_study(cfg, pipelines, threads=threads)
    report.metadata["threads"] = threads

    resolved = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "command": "simulate",
        "name": name,
        "config_id": cfg.config_id,
        "n_policy": run["n_policy"],
        "n_i": cfg.n_i,
        "replicates": cfg.replicates,
        "seed": cfg.master_seed,
        "pool_size": cfg.pool_size,
        "pipelines": run["pipelines"],
    }
    report_path, summary_path = _write_report_files(
        report, Path(args.out_dir), name, resolved)
    print(f"wrote {report_path}")
    print(f"wrote {summary_path}")
    return _exit_code(report)


def cmd_cv(args) -> int:
    label_col = args.label_column
    if label_col is not None:
        try:
            label_col = int(label_col)
        except ValueError:
            pass  # column name
    else:
        label_col = -1
    ds = load_csv(args.data, label_column=label_col,
                  header=not args.no_header)
    pipeline_cfg = {
        "estimator": args.estimator,
        "lambda": args.mry_lambda,
        "penalty": args.mry_penalty,
        "gamma": args.mry_gamma,
        "standardize_mean": args.mry_standardize_mean,
        "dims": args.r if args.r == "all" else args.r.split(","),
        "standardize": args.standardize,
        "tune": not args.no_tune,
    }
    pipeline = _pipeline_from_dict(pipeline_cfg, "cv", ds.p)
    if pipeline.dims is not None:
        pipeline_cfg["dims"] = list(pipeline.dims)
    name = args.name or Path(args.data).stem
    seed = args.seed
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "little")
        print(f"note: no seed given; using master seed {seed}")
    threads = resolve_threads(args.threads)
    report = repeated_kfold_cv(ds, pipeline, folds=args.folds,
                               repeats=args.repeats, seed=seed,
                               threads=threads, inner_folds=args.inner_folds,
                               jitter_sigma=args.jitter)
    report.metadata["dataset"] = name
    report.metadata["threads"] = threads

    resolved = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "command": "cv",
        "name": name,
        "data": str(args.data),
        "label_column": args.label_column,
        "header": not args.no_header,
        "folds": args.folds,
        "inner_folds": args.inner_folds,
        "jitter": args.jitter,
        "repeats": args.repeats,
        "seed": seed,
        "pipeline": pipeline_cfg,
    }
    report_path, summary_path = _write_report_files(
        report, Path(args.out_dir), name, resolved)

    # Per-method table: best dimension, its median rate and SD
    table_path = Path(args.out_dir) / f"{name}_table.csv"
    with open(table_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "method", "median_cer", "sd", "r_star",
                         "seed", "tool_version"])
        full = report.cell("qda_full", None).summary()
        writer.writerow([name, "qda_full", full["median"], full["sd"], "",
                         seed, __version__])
        # with every repeat failed there is no dimension to select
        r_star, best = "", {"median": float("nan"), "sd": float("nan")}
        if any(c.rates for c in report.cells if c.method == pipeline.name):
            r_star, _ = select_dimension(report, method=pipeline.name)
            best = report.cell(pipeline.name, r_star).summary()
        writer.writerow([name, pipeline.name, best["median"], best["sd"],
                         r_star, seed, __version__])
    print(f"wrote {report_path}")
    print(f"wrote {summary_path}")
    print(f"wrote {table_path}")
    return _exit_code(report)


def _load_report(path) -> CerReport:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"report file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return CerReport.from_dict(payload)
    except SchemaVersionError as exc:
        raise SchemaVersionError(f"{path}: {exc}") from exc


def cmd_select_dim(args) -> int:
    report = _load_report(args.report)
    methods = [m for m in report.methods() if m != "qda_full"] \
        if args.method is None else [args.method]
    if not methods:
        raise UsageError(f"{args.report}: no dimension sweeps to select from")
    for method in methods:
        cells = [c for c in report.cells if c.method == method]
        if cells and not any(c.rates for c in cells):  # every unit failed
            print(f"{method}: no rates, {cells[0].failures} failed units")
            continue
        r_star, median = select_dimension(report, method=method)
        print(f"{method}: r_star={r_star} median_cer={median:.6f}")
    return _exit_code(report)


def cmd_report(args) -> int:
    rows = []
    for path in args.reports:
        report = _load_report(path)
        dataset = report.metadata.get("dataset") \
            or report.metadata.get("config_id", Path(path).stem)
        for row in report.summary_rows():
            rows.append({"dataset": str(dataset),
                         "seed": report.metadata.get("master_seed", ""),
                         "source": str(path), **row})
    rows.sort(key=lambda r: (r["dataset"], r["method"],
                             -1 if r["r"] is None else r["r"]))
    fields = ["dataset"] + _SUMMARY_FIELDS + ["seed", "source"]
    out = Path(args.out)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row[k] is None else row[k])
                             for k in fields})
    print(f"wrote {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; 2 means partial failure here
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ssdr", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--config", help="JSON config file")
    sim.add_argument("--config-id", type=int, choices=[1, 2, 3, 4])
    sim.add_argument("--n-policy", choices=["p+1", "2p", "6p"])
    sim.add_argument("--replicates", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--name")
    sim.add_argument("--out-dir", default=".")
    sim.add_argument("--threads", type=int)
    sim.set_defaults(func=cmd_simulate)

    cv = sub.add_parser("cv", help="repeated stratified k-fold CV on a CSV dataset")
    cv.add_argument("--data", required=True)
    cv.add_argument("--label-column", help="name or index (default: last column)")
    cv.add_argument("--no-header", action="store_true")
    cv.add_argument("--estimator", default="sample",
                    choices=sorted(set(ESTIMATOR_ALIASES)))
    cv.add_argument("--r", default="all",
                    help="'all' or comma-separated dimensions")
    cv.add_argument("--folds", type=int, default=10)
    cv.add_argument("--repeats", type=int, default=50)
    cv.add_argument("--seed", type=int)
    cv.add_argument("--standardize", action="store_true")
    cv.add_argument("--jitter", type=float, default=None,
                    help="sigma of N(0, sigma^2) noise applied once before CV")
    cv.add_argument("--mry-lambda", type=float, default=0.1)
    cv.add_argument("--mry-penalty", default="simple", choices=["simple", "qda"])
    cv.add_argument("--mry-gamma", type=float, default=1.0)
    cv.add_argument("--mry-standardize-mean", action="store_true")
    cv.add_argument("--no-tune", action="store_true",
                    help="skip lambda tuning, use --mry-lambda as given")
    cv.add_argument("--inner-folds", type=int, default=5)
    cv.add_argument("--name")
    cv.add_argument("--out-dir", default=".")
    cv.add_argument("--threads", type=int)
    cv.set_defaults(func=cmd_cv)

    sel = sub.add_parser("select-dim", help="print the best dimension per method")
    sel.add_argument("--report", required=True)
    sel.add_argument("--method")
    sel.set_defaults(func=cmd_select_dim)

    rep = sub.add_parser("report", help="merge report JSONs into one CSV")
    rep.add_argument("reports", nargs="+")
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SsdrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
