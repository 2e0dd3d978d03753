"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them live).
The Monte Carlo criteria share seed-fixed 200-replicate studies; the
real-data criterion needs the public Breast Cancer and Penguins CSVs and
skips with instructions when they are not supplied (see README, "Real
data").
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ssdr.cli import main as cli_main
from ssdr.datamodel import ClassSummary, load_csv
from ssdr.errors import DegeneracyError
from ssdr.estimators import (
    PrecisionEstimatorSpec,
    bodnar,
    haff,
    mry,
    wang,
)
from ssdr.experiments import (
    PipelineSpec,
    repeated_kfold_cv,
    run_mc_study,
    select_dimension,
    simulation_config,
)
from ssdr.reduction import (
    qda_invariance_check,
    random_theorem_fixture,
    subspace_identity_residuals,
)

SEED = 20240812
THREADS = min(2, os.cpu_count() or 1)
SAMPLE = PrecisionEstimatorSpec(kind="sample_inverse")


def data_dir() -> Path:
    env = os.environ.get("SSDR_DATA_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


def _passed(line: str) -> None:
    print(f"\nACCEPTANCE PASS: {line}")


# ---------------------------------------------------------------------------
# shared Monte Carlo studies (seed-fixed, 200 replicates)

MRY_SIMPLE = PrecisionEstimatorSpec(kind="mry", mry_lambda=0.1,
                                    mry_penalty="simple")
MRY_QDA = PrecisionEstimatorSpec(kind="mry", mry_lambda=0.1,
                                 mry_penalty="qda", mry_gamma=1.0)


@pytest.fixture(scope="module")
def mc_runs():
    cache = {}

    def run(config_id, policy, estimator=None, dims=None, name="ssdr_mry"):
        key = (config_id, policy, estimator is not None)
        if key not in cache:
            cfg = simulation_config(config_id, policy, replicates=200,
                                    master_seed=SEED)
            pipelines = []
            if estimator is not None:
                pipelines = [PipelineSpec(name=name, estimator=estimator,
                                          dims=dims)]
            cache[key] = run_mc_study(cfg, pipelines, threads=THREADS)
        return cache[key]

    return run


def test_criterion_1_theorem_reproduction():
    started = time.monotonic()
    rng = np.random.default_rng(SEED)
    fixtures = checked = 0
    while fixtures < 20:
        p = int(rng.integers(4, 13))
        k = int(rng.integers(2, 4))
        q = int(rng.integers(1, p))
        fix = random_theorem_fixture(p, k, q, rng=rng)
        assert fix.q < fix.p
        x = rng.normal(size=(10_000, p)) * 2.0
        res = qda_invariance_check(fix, x)
        non_tied = res.gap_full >= 1e-12
        assert np.array_equal(res.argmin_full[non_tied],
                              res.argmin_reduced[non_tied]), \
            f"decision mismatch on fixture p={p} k={k} q={fix.q}"
        fixtures += 1
        checked += int(non_tied.sum())
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    _passed(f"criterion 1: full/reduced QDA argmins agree on 100% of "
            f"{checked} non-tied points across 20 fixtures "
            f"({elapsed:.1f}s)")


def test_criterion_2_identity_suite():
    started = time.monotonic()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for i in range(100):
        p = int(rng.integers(4, 13))
        k = int(rng.integers(2, 4))
        q = int(rng.integers(1, p))
        fix = random_theorem_fixture(p, k, q, rng=rng)
        res = subspace_identity_residuals(fix)
        worst = max(worst, max(res.values()))
        assert max(res.values()) <= 1e-8, (i, res)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    _passed(f"criterion 2: all six subspace identities hold to 1e-8 "
            f"relative over 100 random fixtures (worst {worst:.2e}, "
            f"{elapsed:.1f}s)")


def test_criterion_3_estimator_oracles():
    cs_eye = ClassSummary(class_id=0, n_i=10, mean=np.zeros(2),
                          cov=np.eye(2), prior=1.0)
    out = haff(cs_eye)
    np.testing.assert_allclose(out.omega, 7.0 * np.eye(2), atol=1e-12)

    out = wang(cs_eye)
    np.testing.assert_allclose(out.omega, 0.91125 * np.eye(2), atol=1e-9)

    cs_diag = ClassSummary(class_id=0, n_i=10, mean=np.zeros(2),
                           cov=np.diag([1.0, 2.0]), prior=1.0)
    out = bodnar(cs_diag)
    np.testing.assert_allclose(out.omega, np.diag([0.35, 0.85]), atol=1e-9)
    assert not out.diagnostics.repaired

    with pytest.raises(DegeneracyError):
        bodnar(cs_eye)
    _passed("criterion 3: Haff/Wang/Bodnar closed-form oracles and the "
            "Bodnar degeneracy error all match")


def test_criterion_4_mry_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(SEED + 2)

    def random_spd_5(rng):
        g = rng.normal(size=(5, 5))
        s = g @ g.T / 5 + 0.5 * np.eye(5)
        return (s + s.T) / 2

    # (a) saturation: lambda above every off-diagonal magnitude forces the
    # inverse-diagonal solution; solve tightly so solver error stays well
    # below the 1e-6 oracle tolerance
    for _ in range(100):
        s = random_spd_5(rng)
        off = np.abs(s - np.diag(np.diag(s))).max()
        spec = PrecisionEstimatorSpec(kind="mry", mry_lambda=1.05 * off,
                                      admm_tol=1e-8)
        cs = ClassSummary(class_id=0, n_i=30, mean=np.zeros(5),
                          cov=s, prior=1.0)
        out = mry(cs, spec)
        np.testing.assert_allclose(out.omega, np.diag(1.0 / np.diag(s)),
                                   atol=1e-6)

    # (b) vanishing penalty recovers the sample inverse
    for _ in range(100):
        s = random_spd_5(rng)
        cs = ClassSummary(class_id=0, n_i=30, mean=np.zeros(5),
                          cov=s, prior=1.0)
        out = mry(cs, PrecisionEstimatorSpec(kind="mry", mry_lambda=1e-10,
                                             admm_tol=1e-8))
        np.testing.assert_allclose(out.omega, np.linalg.inv(s), atol=1e-5)

    # (c) KKT stationarity residual at convergence
    worst = 0.0
    for _ in range(100):
        s = random_spd_5(rng)
        lam = float(rng.uniform(0.02, 0.4))
        cs = ClassSummary(class_id=0, n_i=30, mean=rng.normal(size=5),
                          cov=s, prior=1.0)
        out = mry(cs, PrecisionEstimatorSpec(kind="mry", mry_lambda=lam))
        worst = max(worst, out.diagnostics.kkt_residual)
        assert out.diagnostics.kkt_residual <= 1e-4

    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    _passed(f"criterion 4: saturation to diag(S)^-1 (1e-6), tiny-lambda "
            f"recovery of S^-1 (1e-5), and KKT <= 1e-4 (worst {worst:.2e}) "
            f"on 100 instances each ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_5_mc_baselines(mc_runs):
    started = time.monotonic()
    targets = {
        (1, "p+1"): (0.4167, 0.03),
        (1, "2p"): (0.1858, 0.03),
        (1, "6p"): (0.0866, 0.03),
        (2, "p+1"): (0.5856, 0.04),
        (2, "2p"): (0.4433, 0.04),
        (2, "6p"): (0.3379, 0.04),
    }
    observed = {}
    for (cid, policy), (target, tol) in targets.items():
        if policy == "p+1":
            est = MRY_SIMPLE if cid == 1 else MRY_QDA  # shared with criterion 6
            rep = mc_runs(cid, policy, estimator=est)
        else:
            rep = mc_runs(cid, policy)
        med = float(np.median(rep.cell("qda_full", None).rates))
        observed[(cid, policy)] = med
        assert abs(med - target) <= tol, \
            f"config {cid} n={policy}: median {med:.4f} vs {target} +/- {tol}"
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"
    pretty = {f"cfg{c} {n}": round(m, 4) for (c, n), m in observed.items()}
    _passed(f"criterion 5: full-QDA medians at 200 replicates match the "
            f"reference values: {pretty} ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_6_mc_ordering(mc_runs):
    margins = {}
    for cid, est, dims in [(1, MRY_SIMPLE, None), (2, MRY_QDA, None),
                           (4, MRY_QDA, tuple(range(1, 11)))]:
        rep = mc_runs(cid, "p+1", estimator=est, dims=dims)
        full = float(np.median(rep.cell("qda_full", None).rates))
        r_star, best = select_dimension(rep, method="ssdr_mry")
        margins[cid] = (full, best, r_star)
        assert best <= full - 0.05, \
            f"config {cid}: best {best:.4f} at r={r_star} vs full {full:.4f}"
        if cid == 2:
            assert r_star == 2, f"config 2 best r={r_star}, expected 2"
    pretty = {f"cfg{c}": f"full={f:.3f} best={b:.3f}@r={r}"
              for c, (f, b, r) in margins.items()}
    _passed(f"criterion 6: MRY pipeline beats full QDA by >= 0.05 at "
            f"n=p+1 in configs 1, 2, 4; config 2 optimum at r=2: {pretty}")


def test_criterion_7_rotation_invariance():
    worst = 0.0
    for cid, policy, reps in [(1, "2p", 20), (3, "2p", 10)]:
        cfg = simulation_config(cid, policy, replicates=reps,
                                master_seed=SEED + 3)
        pl = PipelineSpec(name="ssdr_sample", estimator=SAMPLE,
                          dims=(cfg.p,))
        rep = run_mc_study(cfg, [pl], threads=THREADS)
        full = np.array(rep.cell("qda_full", None).rates)
        rotated = np.array(rep.cell("ssdr_sample", cfg.p).rates)
        assert full.size == reps and rotated.size == reps
        worst = max(worst, float(np.max(np.abs(full - rotated))))
        assert np.all(np.abs(full - rotated) <= 1e-10)

    rng = np.random.default_rng(SEED + 4)
    feats = np.vstack([rng.normal(size=(60, 4)),
                       rng.normal(size=(60, 4)) + 1.5])
    from ssdr.datamodel import LabeledDataset

    ds = LabeledDataset(feats, [0] * 60 + [1] * 60)
    pl = PipelineSpec(name="ssdr_sample", estimator=SAMPLE, dims=(4,))
    rep = repeated_kfold_cv(ds, pl, folds=10, repeats=5, seed=SEED + 5,
                            threads=THREADS)
    full = np.array(rep.cell("qda_full", None).rates)
    rotated = np.array(rep.cell("ssdr_sample", 4).rates)
    worst = max(worst, float(np.max(np.abs(full - rotated))))
    assert np.all(np.abs(full - rotated) <= 1e-10)
    _passed(f"criterion 7: full-dimension projection reproduces full-feature "
            f"QDA on every replicate tested (worst |diff| {worst:.1e})")


@pytest.mark.skipif(
    not (data_dir() / "breast_cancer.csv").exists(),
    reason="user-supplied dataset missing: place the 683-row, 9-feature "
           "Breast Cancer CSV (label in the last column) at "
           "tests/data/breast_cancer.csv or $SSDR_DATA_DIR/breast_cancer.csv",
)
def test_criterion_8a_breast_cancer():
    ds = load_csv(data_dir() / "breast_cancer.csv", label_column=-1)
    assert ds.k == 2, "expected the two-class Breast Cancer data"
    est = PrecisionEstimatorSpec(kind="mry", mry_lambda=0.1,
                                 mry_penalty="qda", mry_gamma=1.0,
                                 mry_standardize_mean=True)
    pl = PipelineSpec(name="ssdr_mry", estimator=est)
    rep = repeated_kfold_cv(ds, pl, folds=10, repeats=50, seed=SEED,
                            threads=THREADS)
    full = float(np.median(rep.cell("qda_full", None).rates))
    assert abs(full - 0.0497) <= 0.015, f"full QDA median {full:.4f}"
    r_star, best = select_dimension(rep, method="ssdr_mry")
    assert r_star == 2, f"selected r={r_star}, expected 2"
    assert best <= 0.045, f"pipeline median {best:.4f} at r={r_star}"
    _passed(f"criterion 8a: Breast Cancer full={full:.4f}, "
            f"pipeline={best:.4f} at r*={r_star}")


@pytest.mark.skipif(
    not (data_dir() / "penguins.csv").exists(),
    reason="user-supplied dataset missing: place the 333-row complete-case "
           "Penguins CSV (numeric features, species label in the last "
           "column) at tests/data/penguins.csv or "
           "$SSDR_DATA_DIR/penguins.csv",
)
def test_criterion_8b_penguins():
    ds = load_csv(data_dir() / "penguins.csv", label_column=-1)
    assert ds.k == 3, "expected the three-species Penguins data"
    est = PrecisionEstimatorSpec(kind="mry", mry_lambda=0.1,
                                 mry_penalty="qda", mry_gamma=1.0,
                                 mry_standardize_mean=True)
    pl = PipelineSpec(name="ssdr_mry", estimator=est, standardize=True)
    rep = repeated_kfold_cv(ds, pl, folds=10, repeats=50, seed=SEED,
                            threads=THREADS)
    full = float(np.median(rep.cell("qda_full", None).rates))
    assert abs(full - 0.081) <= 0.02, f"full QDA median {full:.4f}"
    r_star, best = select_dimension(rep, method="ssdr_mry")
    assert r_star <= 5 and best <= 0.01, \
        f"pipeline median {best:.4f} at r={r_star}"
    _passed(f"criterion 8b: Penguins full={full:.4f}, "
            f"pipeline={best:.4f} at r*={r_star}")


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "config_id": 1,
        "n_policy": "2p",
        "replicates": 4,
        "seed": SEED,
        "name": "det",
        "pipelines": [
            {"name": "ssdr_mry", "estimator": "mry", "penalty": "simple",
             "dims": [1, 2, 10]},
        ],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    payloads = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        out.mkdir()
        code = cli_main(["simulate", "--config", str(cfg_path),
                         "--out-dir", str(out), "--threads", str(THREADS)])
        assert code == 0
        payload = json.loads((out / "det_report.json").read_text())
        payload.pop("created_at")
        payloads.append(payload)
    assert payloads[0] == payloads[1]

    rng = np.random.default_rng(SEED + 6)
    feats = np.vstack([rng.normal(size=(50, 3)),
                       rng.normal(size=(50, 3)) + 4.0])
    from ssdr.datamodel import LabeledDataset, write_csv

    csv_path = tmp_path / "blobs.csv"
    write_csv(LabeledDataset(feats, [0] * 50 + [1] * 50), csv_path)
    cv_payloads = []
    for sub in ("cv1", "cv2"):
        out = tmp_path / sub
        out.mkdir()
        code = cli_main(["cv", "--data", str(csv_path), "--estimator", "mry",
                         "--folds", "5", "--repeats", "2",
                         "--seed", str(SEED), "--out-dir", str(out),
                         "--threads", str(THREADS)])
        assert code == 0
        payload = json.loads((out / "blobs_report.json").read_text())
        payload.pop("created_at")
        cv_payloads.append(payload)
    assert cv_payloads[0] == cv_payloads[1]
    _passed("criterion 9: repeated simulate and cv invocations produce "
            "identical per-replicate error lists")
