import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssdr import cli
from ssdr.cli import main, resolve_threads
from ssdr.datamodel import LabeledDataset, write_csv
from ssdr.estimators import PrecisionEstimatorSpec
from ssdr.experiments import PipelineSpec, repeated_kfold_cv, run_mc_study


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_blob_csv(path, rng, n_per=40, p=3, spread=8.0):
    feats, labels = [], []
    for c in range(2):
        feats.append(rng.normal(size=(n_per, p)) + spread * c)
        labels.append(np.full(n_per, c))
    ds = LabeledDataset(np.vstack(feats), np.concatenate(labels))
    write_csv(ds, path)
    return ds


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestSimulate:
    def test_smoke_and_outputs(self, tmp_path):
        code = run_cli("simulate", "--config-id", 1, "--n-policy", "2p",
                       "--replicates", 3, "--seed", 7,
                       "--out-dir", tmp_path, "--threads", 1)
        assert code == 0
        payload = load_json(tmp_path / "cfg1_report.json")
        assert payload["tool_version"]
        assert payload["resolved_config"]["seed"] == 7
        assert payload["metadata"]["master_seed"] == 7
        assert "created_at" in payload
        with open(tmp_path / "cfg1_summary.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["method"] == "qda_full"
        assert rows[0]["n"] == "3"
        # the summary alone names its run, seed, and tool version
        assert rows[0]["seed"] == "7"
        assert rows[0]["tool_version"] == payload["tool_version"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "config_id": 1,
            "n_policy": "2p",
            "replicates": 99,
            "seed": 5,
            "name": "demo",
            "pipelines": [
                {"name": "ssdr_sample", "estimator": "sample", "dims": [1, 10]},
            ],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run_cli("simulate", "--config", cfg_path, "--replicates", 2,
                       "--out-dir", tmp_path, "--threads", 1)
        assert code == 0
        payload = load_json(tmp_path / "demo_report.json")
        assert payload["metadata"]["replicates"] == 2  # flag wins
        methods = {c["method"] for c in payload["cells"]}
        assert methods == {"qda_full", "ssdr_sample"}

    def test_repeat_invocation_identical_except_timestamp(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            code = run_cli("simulate", "--config-id", 1, "--n-policy", "2p",
                           "--replicates", 3, "--seed", 11,
                           "--out-dir", tmp_path / sub, "--threads", 1)
            assert code == 0
        a = load_json(tmp_path / "a" / "cfg1_report.json")
        b = load_json(tmp_path / "b" / "cfg1_report.json")
        a.pop("created_at")
        b.pop("created_at")
        assert a == b

    def test_unknown_config_id_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"config_id": 5, "seed": 1}))
        code = run_cli("simulate", "--config", cfg_path, "--out-dir", tmp_path)
        assert code == 1
        assert "config_id" in capsys.readouterr().err

    def test_partial_estimator_failure_exit_code(self, tmp_path):
        cfg = {
            "config_id": 1,
            "n_policy": "p+1",
            "seed": 3,
            "pipelines": [{"name": "ssdr_haff", "estimator": "haff",
                           "dims": [1]}],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run_cli("simulate", "--config", cfg_path, "--replicates", 2,
                       "--out-dir", tmp_path, "--threads", 1)
        assert code == 2  # haff cannot fit at n_i = p + 1

    def test_missing_config_id_is_usage_error(self, tmp_path, capsys):
        code = run_cli("simulate", "--out-dir", tmp_path, "--seed", 1)
        assert code == 1

    def test_auto_seed_echoed(self, tmp_path, capsys):
        code = run_cli("simulate", "--config-id", 1, "--n-policy", "2p",
                       "--replicates", 2, "--out-dir", tmp_path,
                       "--threads", 1)
        assert code == 0
        out = capsys.readouterr().out
        assert "master seed" in out


class TestCv:
    def test_smoke_table_and_invariance(self, tmp_path):
        rng = np.random.default_rng(0)
        data = tmp_path / "blobs.csv"
        write_blob_csv(data, rng)
        code = run_cli("cv", "--data", data, "--estimator", "sample",
                       "--folds", 5, "--repeats", 2, "--seed", 9,
                       "--out-dir", tmp_path, "--threads", 1)
        assert code == 0
        payload = load_json(tmp_path / "blobs_report.json")
        cells = {(c["method"], c["r"]): c["rates"] for c in payload["cells"]}
        # full-dimension projection reproduces full-feature QDA exactly
        np.testing.assert_allclose(cells[("ssdr_sample_inverse", 3)],
                                   cells[("qda_full", None)], atol=1e-10)
        with open(tmp_path / "blobs_table.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["method"] == "qda_full"
        assert rows[1]["r_star"] != ""

    def test_stratification_error_is_fatal(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        feats = np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(4, 2))])
        ds = LabeledDataset(feats, [0] * 30 + [1] * 4)
        data = tmp_path / "small.csv"
        write_csv(ds, data)
        code = run_cli("cv", "--data", data, "--folds", 10, "--repeats", 1,
                       "--seed", 1, "--out-dir", tmp_path)
        assert code == 1
        assert "fewer than" in capsys.readouterr().err

    def test_missing_data_file_is_fatal(self, tmp_path, capsys):
        code = run_cli("cv", "--data", tmp_path / "missing.csv",
                       "--out-dir", tmp_path, "--seed", 1)
        assert code == 1
        assert "missing.csv" in capsys.readouterr().err

    def test_negative_seed_is_fatal(self, tmp_path, capsys):
        data = tmp_path / "blobs.csv"
        write_blob_csv(data, np.random.default_rng(0))
        code = run_cli("cv", "--data", data, "--seed", -1, "--folds", 5,
                       "--repeats", 1, "--out-dir", tmp_path, "--threads", 1)
        assert code == 1
        err = capsys.readouterr().err
        assert "error: seed must be an integer >= 0, got -1\n" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*_report.json"))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_degenerate_training_fold_is_recorded(self, tmp_path, threads):
        # column 2 is zero except in one row: the training fold without that
        # row cannot be studentized, which fails that fold's cells only
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(60, 3))
        feats[:, 2] = 0.0
        feats[0, 2] = 1.0
        data = tmp_path / "degenerate.csv"
        write_csv(LabeledDataset(feats, [0] * 30 + [1] * 30), data)
        code = run_cli("cv", "--data", data, "--standardize", "--folds", 5,
                       "--repeats", 2, "--seed", 3, "--out-dir", tmp_path,
                       "--threads", threads)
        assert code == 2
        payload = load_json(tmp_path / "degenerate_report.json")
        failures = {(c["method"], c["r"]): c["failures"]
                    for c in payload["cells"]}
        assert failures[("qda_full", None)] == 2
        assert failures[("ssdr_sample_inverse", 1)] == 2

    def test_cv_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        data = tmp_path / "blobs.csv"
        write_blob_csv(data, rng)
        reports = []
        for sub in ("x", "y"):
            (tmp_path / sub).mkdir()
            code = run_cli("cv", "--data", data, "--estimator", "sample",
                           "--folds", 5, "--repeats", 2, "--seed", 21,
                           "--r", "1,2", "--out-dir", tmp_path / sub,
                           "--threads", 1)
            assert code == 0
            payload = load_json(tmp_path / sub / "blobs_report.json")
            payload.pop("created_at")
            reports.append(payload)
        assert reports[0] == reports[1]

    def test_resolved_config_rebuilds_the_pipeline(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(6)
        data = tmp_path / "blobs.csv"
        ds = write_blob_csv(data, rng)
        ran = []

        def spy(data_set, pipeline, **kwargs):
            ran.append((pipeline, kwargs))
            return repeated_kfold_cv(data_set, pipeline, **kwargs)

        monkeypatch.setattr(cli, "repeated_kfold_cv", spy)
        code = run_cli("cv", "--data", data, "--estimator", "mry",
                       "--mry-lambda", 0.3, "--mry-penalty", "qda",
                       "--mry-gamma", 2.0, "--mry-standardize-mean",
                       "--no-tune", "--inner-folds", 3, "--r", "1,2",
                       "--standardize", "--jitter", 1e-6, "--folds", 5,
                       "--repeats", 1, "--seed", 8, "--out-dir", tmp_path,
                       "--threads", 1)
        assert code in (0, 2)
        resolved = load_json(tmp_path / "blobs_report.json")["resolved_config"]
        assert resolved["header"] is True
        pipeline = resolved["pipeline"]
        assert pipeline["lambda"] == 0.3 and pipeline["penalty"] == "qda"
        assert pipeline["tune"] is False and pipeline["dims"] == [1, 2]
        ran_pipeline, ran_kwargs = ran[0]
        assert cli._pipeline_from_dict(pipeline, "cv", ds.p) == ran_pipeline
        assert resolved["inner_folds"] == ran_kwargs["inner_folds"] == 3
        assert resolved["jitter"] == ran_kwargs["jitter_sigma"] == 1e-6

    def test_bad_dimension_list_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        data = tmp_path / "blobs.csv"
        write_blob_csv(data, rng)
        code = run_cli("cv", "--data", data, "--r", "1,x", "--seed", 1,
                       "--out-dir", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "dims" in err
        assert "pipelines[" not in err  # cv has no config file

    def test_repeated_dimension_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        data = tmp_path / "blobs.csv"
        write_blob_csv(data, rng)
        code = run_cli("cv", "--data", data, "--r", "1,1", "--seed", 1,
                       "--out-dir", tmp_path)
        assert code == 1
        assert "repeat" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--folds", 0), ("--folds", 1), ("--inner-folds", 1),
        ("--repeats", 0)])
    def test_bad_counts_are_usage_errors(self, tmp_path, capsys, flag, value):
        rng = np.random.default_rng(7)
        data = tmp_path / "blobs.csv"
        write_blob_csv(data, rng)
        code = run_cli("cv", "--data", data, "--estimator", "mry",
                       "--folds", 5, "--repeats", 1, flag, value,
                       "--seed", 1, "--out-dir", tmp_path, "--threads", 1)
        assert code == 1
        err = capsys.readouterr().err
        least = 1 if flag == "--repeats" else 2
        assert f"error: {flag[2:].replace('-', '_')} must be an integer " \
            f">= {least}, got {value}\n" in err
        assert not (tmp_path / "blobs_report.json").exists()


class TestConfigSchema:
    """Each config key sets one spec field, and a run ignores no key."""

    def test_key_tables_name_real_fields(self):
        estimator_fields = {f.name for f in
                            dataclasses.fields(PrecisionEstimatorSpec)}
        pipeline_fields = {f.name for f in dataclasses.fields(PipelineSpec)}
        assert set(cli.ESTIMATOR_KEYS.values()) == estimator_fields
        # the estimator keys together build PipelineSpec.estimator
        assert set(cli.PIPELINE_KEYS.values()) | {"estimator"} \
            == pipeline_fields
        assert cli.ESTIMATOR_KEYS["estimator"] == "kind"
        assert not set(cli.ESTIMATOR_KEYS) & set(cli.PIPELINE_KEYS)

    def test_resolved_pipelines_rebuild_the_run(self, tmp_path, monkeypatch):
        ran = []

        def spy(cfg, pipelines, **kwargs):
            ran.append(pipelines)
            return run_mc_study(cfg, pipelines, **kwargs)

        monkeypatch.setattr(cli, "run_mc_study", spy)
        cfg = {
            "config_id": 1, "n_policy": "2p", "seed": 2, "replicates": 1,
            "pipelines": [
                {"estimator": "bodnar", "bodnar_target": "diagonal_of_s",
                 "standardize": True, "dims": [1, 3]},
                {"name": "m", "estimator": "mry", "lambda": 0.2,
                 "penalty": "qda", "gamma": 2.0, "standardize_mean": True,
                 "admm_tol": 1e-5, "admm_max_iters": 500, "tune": True,
                 "dims": "all"},
            ],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run_cli("simulate", "--config", cfg_path,
                       "--out-dir", tmp_path, "--threads", 1)
        assert code == 0
        resolved = load_json(tmp_path / "cfg1_report.json")["resolved_config"]
        rebuilt = [cli._pipeline_from_dict(d, f"pipelines[{i}]", 10)
                   for i, d in enumerate(resolved["pipelines"])]
        assert rebuilt == ran[0]
        assert ran[0][1].estimator.mry_gamma == 2.0

    def test_resolved_config_re_runs_identically(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "config_id": 2, "n_policy": 12, "seed": 4, "replicates": 2,
            "pool_size": 500, "name": "first",
            "pipelines": [{"estimator": "wang", "dims": [1, 2]}]}))
        assert run_cli("simulate", "--config", cfg_path, "--out-dir",
                       tmp_path, "--threads", 1) in (0, 2)
        first = load_json(tmp_path / "first_report.json")
        again = tmp_path / "again.json"
        again.write_text(json.dumps(first["resolved_config"]))
        (tmp_path / "re").mkdir()
        assert run_cli("simulate", "--config", again, "--out-dir",
                       tmp_path / "re", "--threads", 1) in (0, 2)
        second = load_json(tmp_path / "re" / "first_report.json")
        for payload in (first, second):
            payload.pop("created_at")
        assert second == first
        # a recorded n_i that this run would not use is an error
        again.write_text(json.dumps({**first["resolved_config"], "n_i": 20}))
        assert run_cli("simulate", "--config", again, "--out-dir",
                       tmp_path / "re", "--threads", 1) == 1

    @pytest.mark.parametrize("where, key, config", [
        ("pipelines[0]", "lamda",
         {"pipelines": [{"estimator": "mry", "lamda": 5}]}),
        ("pipelines[0]", "jitter_sigma",
         {"pipelines": [{"jitter_sigma": 0.5}]}),
        ("pipelines[1]", "tune_mry_lambda",
         {"pipelines": [{}, {"tune_mry_lambda": False}]}),
        ("cfg.json", "replicate", {"replicate": 3}),
        # the tuning grid is fixed; its size is not a setting
        ("pipelines[0]", "lambda_grid_size",
         {"pipelines": [{"estimator": "mry", "lambda_grid_size": 5}]}),
    ])
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, where, key,
                                        config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"config_id": 1, "n_policy": "2p", "seed": 1, "replicates": 1,
             **config}))
        code = run_cli("simulate", "--config", cfg_path,
                       "--out-dir", tmp_path, "--threads", 1)
        assert code == 1
        err = capsys.readouterr().err
        assert where in err and repr(key) in err
        assert not (tmp_path / "cfg1_report.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("admm_max_iters", 0),
        ("admm_tol", 0),
        ("standardize", "no"),
        ("tune", "no"),
        ("standardize_mean", 1),
    ])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, key, value):
        # "tune": false leaves the admm keys to the final fit alone
        pipeline = {"estimator": "mry", "tune": False, key: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"config_id": 1, "n_policy": "2p", "seed": 1, "replicates": 1,
             "pipelines": [pipeline]}))
        code = run_cli("simulate", "--config", cfg_path,
                       "--out-dir", tmp_path, "--threads", 1)
        assert code == 1
        err = capsys.readouterr().err
        assert f"pipelines[0].{key}:" in err and repr(value) in err
        assert not (tmp_path / "cfg1_report.json").exists()

    @pytest.mark.parametrize("key, config, flags", [
        ("replicates", {"replicates": "abc"}, []),
        ("config_id", {"config_id": 1.5}, []),
        ("seed", {"seed": "7"}, []),
        ("seed", {}, ["--seed", -1]),
        ("pool_size", {"pool_size": 2.5}, []),
        ("n_policy", {"n_policy": [12]}, []),
        ("name", {"name": ["run"]}, []),
        ("pipelines", {"pipelines": 3}, []),
        ("pipelines[0]", {"pipelines": [3]}, []),
        ("JSON object", [{"config_id": 1}], []),
        # a dimension list of non-integers never runs as its truncation
        ("pipelines[0].dims", {"pipelines": [{"dims": [1.5, "2"]}]}, []),
    ])
    def test_bad_top_level_value_is_usage_error(self, tmp_path, capsys, key,
                                                config, flags):
        if isinstance(config, dict):
            config = {"config_id": 1, "n_policy": "2p", "seed": 1,
                      "replicates": 1, **config}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = run_cli("simulate", "--config", cfg_path, *flags,
                       "--out-dir", tmp_path, "--threads", 1)
        assert code == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not list(tmp_path.glob("*_report.json"))


class TestSelectDimAndReport:
    @pytest.fixture()
    def report_path(self, tmp_path):
        rng = np.random.default_rng(3)
        data = tmp_path / "blobs.csv"
        write_blob_csv(data, rng)
        code = run_cli("cv", "--data", data, "--estimator", "sample",
                       "--folds", 5, "--repeats", 2, "--seed", 4,
                       "--out-dir", tmp_path, "--threads", 1)
        assert code == 0
        return tmp_path / "blobs_report.json"

    def test_select_dim_prints_r_star(self, report_path, capsys):
        code = run_cli("select-dim", "--report", report_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "ssdr_sample_inverse" in out
        assert "r_star=" in out

    def test_select_dim_missing_file(self, tmp_path, capsys):
        code = run_cli("select-dim", "--report", tmp_path / "nope.json")
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_select_dim_without_sweeps(self, tmp_path, capsys):
        code = run_cli("simulate", "--config-id", 1, "--n-policy", "2p",
                       "--replicates", 2, "--seed", 1,
                       "--out-dir", tmp_path, "--threads", 1)
        assert code == 0
        code = run_cli("select-dim", "--report",
                       tmp_path / "cfg1_report.json")
        assert code == 1
        assert "no dimension sweeps" in capsys.readouterr().err

    def test_select_dim_with_a_pipeline_that_failed_every_unit(
            self, tmp_path, capsys):
        # haff needs n_i > p + 2, so at n_i = p + 1 every replicate fails
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "config_id": 1, "n_policy": "p+1", "replicates": 2, "seed": 1,
            "pipelines": [{"estimator": "haff"}, {"estimator": "sample"}]}))
        code = run_cli("simulate", "--config", cfg, "--out-dir", tmp_path,
                       "--threads", 1)
        assert code == 2
        capsys.readouterr()
        code = run_cli("select-dim", "--report",
                       tmp_path / "cfg1_report.json")
        assert code == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "ssdr_haff: no rates, 2 failed units"
        assert lines[1].startswith("ssdr_sample_inverse: r_star=")
        assert len(lines) == 2

    def test_report_merges_sorted(self, report_path, tmp_path):
        out = tmp_path / "merged.csv"
        code = run_cli("report", report_path, report_path, "--out", out)
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        datasets = [r["dataset"] for r in rows]
        assert datasets == sorted(datasets)
        assert any(r["method"] == "qda_full" for r in rows)

    def test_report_schema_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 999, "cells": []}))
        code = run_cli("report", bad, "--out", tmp_path / "m.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert "schema" in err.lower()
        assert "bad.json" in err


class TestThreads:
    def test_flag_wins(self):
        assert resolve_threads(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("SSDR_THREADS", "5")
        assert resolve_threads(None) == 5

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("SSDR_THREADS", "lots")
        from ssdr.cli import UsageError
        with pytest.raises(UsageError):
            resolve_threads(None)

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("SSDR_THREADS", raising=False)
        assert resolve_threads(None) >= 1


def test_studies_load_no_scipy_and_no_module_after_import(tmp_path):
    # start-up is import time: scipy is never loaded, and a study loads no
    # module of its own (numpy 2 imports numpy.random on first use, and
    # np.median imports numpy.ma)
    write_blob_csv(tmp_path / "blobs.csv", np.random.default_rng(8))
    code = f"""
import sys
from ssdr import cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
before = set(sys.modules)
out = {str(tmp_path)!r}
assert cli.main(["simulate", "--config-id", "1", "--n-policy", "p+1",
                 "--replicates", "2", "--seed", "3", "--threads", "1",
                 "--out-dir", out]) == 0
assert cli.main(["cv", "--data", out + "/blobs.csv", "--estimator", "mry",
                 "--standardize", "--jitter", "1e-5", "--folds", "3",
                 "--inner-folds", "2", "--repeats", "1", "--seed", "4",
                 "--threads", "1", "--out-dir", out]) == 0
print(sorted(set(sys.modules) - before))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
