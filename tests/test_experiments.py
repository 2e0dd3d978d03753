from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from ssdr import estimators, experiments, qda
from ssdr.datamodel import ClassSummary, LabeledDataset, summarize
from ssdr.errors import (
    ConvergenceError,
    InvalidInputError,
    SsdrError,
    StratificationError,
    TuningError,
)
from ssdr.estimators import PrecisionEstimatorSpec, mry
from ssdr.experiments import (
    _SWEEP_BLOCK_ROWS,
    PipelineSpec,
    _Split,
    _stratified_fold_ids,
    _sweep_cers,
    lambda_grid,
    mvn_sample,
    repeated_kfold_cv,
    run_mc_study,
    select_dimension,
    simulation_config,
    tune_lambda,
)
from ssdr.numerics import svd_full
from ssdr.qda import CerReport
from ssdr.reduction import discriminant_matrix_from

SAMPLE = PrecisionEstimatorSpec(kind="sample_inverse")


_LOGDET_PROX = estimators._logdet_prox


def _nan_prox(e, t):
    q, d = _LOGDET_PROX(e, t)
    return q, np.full_like(d, np.nan)


def _serial_grid_scores(sub, val, pipeline, grid, failures):
    """Reference for tuning on one split: candidates from the largest
    penalty down, classes fitted one at a time by ``mry``, each warm started
    from the final ADMM state of its last fit; a failed class ends its
    candidate, and the classes after it are not fitted at that penalty.
    Appends (lambda, class id) of each failure to ``failures``."""
    summaries = summarize(sub)
    warm = {cs.class_id: None for cs in summaries}
    base = replace(
        pipeline.estimator,
        admm_tol=max(pipeline.estimator.admm_tol, experiments._TUNING_ADMM_TOL),
        admm_max_iters=min(pipeline.estimator.admm_max_iters,
                           experiments._TUNING_ADMM_MAX_ITERS))
    scores = {}
    for lam in sorted(grid, reverse=True):
        spec = base.with_lambda(lam)
        scores[float(lam)] = None
        omegas = []
        for cs in summaries:
            try:
                fitted = mry(cs, spec, warm_start=warm[cs.class_id])
            except SsdrError:
                failures.append((float(lam), cs.class_id))
                break
            warm[cs.class_id] = fitted.state
            omegas.append(fitted.omega)
        else:
            try:
                u_full, _, _ = svd_full(discriminant_matrix_from(
                    [cs.mean for cs in summaries],
                    [cs.cov for cs in summaries], omegas))
                cers, = _sweep_cers([(summaries, val, u_full,
                                      pipeline.resolved_dims(sub.p))])
            except SsdrError:
                continue
            vals = [v for v in cers.values() if v is not None]
            scores[float(lam)] = min(vals) if vals else None
    return scores


def _select_lambda(grid, per_split):
    """The largest penalty of least mean score over splits that all scored."""
    best_lam, best_score = None, np.inf
    for lam in grid:
        vals = [s[float(lam)] for s in per_split]
        if all(v is not None for v in vals) and np.mean(vals) <= best_score:
            best_lam, best_score = float(lam), float(np.mean(vals))
    return best_lam


def _tune_one(ds, pipeline, rng, inner_folds=None):
    """``tune_lambda`` on one training set: its penalty, or its error
    raised."""
    lam, = tune_lambda([_Split(ds, None)], pipeline, [rng], inner_folds)
    if isinstance(lam, SsdrError):
        raise lam
    return lam


def blobs(rng, n_per=40, p=3, k=2, spread=8.0):
    feats, labels = [], []
    for c in range(k):
        feats.append(rng.normal(size=(n_per, p)) + spread * c)
        labels.append(np.full(n_per, c))
    return LabeledDataset(np.vstack(feats), np.concatenate(labels))


class TestPipelineSpec:
    @pytest.mark.parametrize("field, value", [
        ("standardize", "no"), ("tune_mry_lambda", None), ("name", 3),
        ("estimator", "mry"), ("dims", (1.5,)), ("dims", "12"),
    ])
    def test_bad_setting_value_names_its_field(self, field, value):
        with pytest.raises(InvalidInputError, match=field) as info:
            PipelineSpec(**{"name": "m", "estimator": SAMPLE, field: value})
        assert info.value.field == field


@pytest.mark.parametrize("entry, field, value", [
    ("simulation_config", "replicates", "3"),
    ("simulation_config", "replicates", 2.5),
    ("simulation_config", "master_seed", 1.5),
    ("simulation_config", "n_policy", [12]),
    ("simulation_config", "n_policy", 12.7),
    ("simulation_config", "config_id", True),
    ("simulation_config", "pool_size", 20),  # n_i = 20 needs a larger pool
    ("repeated_kfold_cv", "folds", 2.5),
    ("repeated_kfold_cv", "repeats", 1.5),
    ("repeated_kfold_cv", "seed", 0.5),
    ("repeated_kfold_cv", "threads", "2"),
    ("repeated_kfold_cv", "jitter_sigma", "abc"),
    ("repeated_kfold_cv", "pipeline", "m"),
    ("run_mc_study", "pipelines", ["m"]),
    ("run_mc_study", "threads", 1.5),
])
def test_bad_entry_point_setting_names_its_field(entry, field, value):
    # a study's settings are checked where they enter, never deep in a unit
    calls = {
        "simulation_config": lambda kw: simulation_config(
            **{"config_id": 1, "n_policy": "2p", **kw}),
        "repeated_kfold_cv": lambda kw: repeated_kfold_cv(**{
            "ds": blobs(np.random.default_rng(0)), "folds": 5, "repeats": 1,
            "pipeline": PipelineSpec(name="m", estimator=SAMPLE, dims=(1,)),
            **kw}),
        "run_mc_study": lambda kw: run_mc_study(
            simulation_config(1, "2p", replicates=1), **{"pipelines": [], **kw}),
    }
    with pytest.raises(InvalidInputError, match=field) as info:
        calls[entry]({field: value})
    assert info.value.field == field


class TestMvnSample:
    def test_mean_within_clt_bound(self):
        x = mvn_sample(np.array([1.0, -2.0]), np.eye(2), 100_000, seed=0)
        err = np.abs(x.mean(axis=0) - [1.0, -2.0])
        assert np.all(err < 3.0 / np.sqrt(100_000))

    def test_empty_draw(self):
        x = mvn_sample(np.zeros(3), np.eye(3), 0, seed=0)
        assert x.shape == (0, 3)

    def test_deterministic(self):
        a = mvn_sample(np.zeros(2), np.eye(2), 50, seed=42)
        b = mvn_sample(np.zeros(2), np.eye(2), 50, seed=42)
        assert np.array_equal(a, b)

    def test_covariance_factor_applied(self):
        cov = np.array([[4.0, 1.0], [1.0, 2.0]])
        x = mvn_sample(np.zeros(2), cov, 200_000, seed=1)
        np.testing.assert_allclose(np.cov(x, rowvar=False), cov, atol=0.05)


class TestSimulationConfig:
    def test_shapes(self):
        for cid, p, k in [(1, 10, 2), (2, 10, 3), (3, 10, 3), (4, 50, 2)]:
            cfg = simulation_config(cid, "2p", replicates=5, master_seed=0)
            assert (cfg.p, cfg.k) == (p, k)
            assert cfg.n_i == 2 * p
            for c in cfg.covs:
                assert np.linalg.eigvalsh(np.asarray(c))[0] > 0

    def test_n_policies(self):
        assert simulation_config(1, "p+1").n_i == 11
        assert simulation_config(1, "6p").n_i == 60
        assert simulation_config(1, 25).n_i == 25

    def test_unknown_config_rejected(self):
        with pytest.raises(InvalidInputError):
            simulation_config(5, "2p")

    def test_config4_parameters_drawn_once_per_seed(self):
        a = simulation_config(4, "p+1", master_seed=9)
        b = simulation_config(4, "2p", master_seed=9)
        c = simulation_config(4, "p+1", master_seed=10)
        assert np.array_equal(a.means[1], b.means[1])
        assert not np.array_equal(a.means[1], c.means[1])
        assert np.all((a.means[1] >= 0) & (a.means[1] <= 1))


def _blas_threads(_):
    return experiments._openblas()[0]()


class TestParallelMap:
    def test_each_process_runs_blas_on_one_thread(self):
        # pool workers set one BLAS thread as they start, an in-process map
        # sets one for its run, and the caller keeps its own count
        blas = experiments._openblas()
        if blas is None:
            pytest.skip("numpy's BLAS exports no known thread-count symbol")
        get, set_ = blas
        before = get()
        set_(2)
        try:
            assert experiments._parallel_map(_blas_threads, [0, 1], 2) == [1, 1]
            assert get() == 2
            assert experiments._parallel_map(_blas_threads, [0], 1) == [1]
            assert get() == 2
        finally:
            set_(before)


class TestRunMcStudy:
    def test_deterministic_across_runs_and_threads(self):
        cfg = simulation_config(1, "2p", replicates=6, master_seed=5)
        pl = PipelineSpec(name="ssdr_sample", estimator=SAMPLE, dims=(1, 10))
        r1 = run_mc_study(cfg, [pl], threads=1)
        r2 = run_mc_study(cfg, [pl], threads=2)
        for cell in r1.cells:
            assert r2.cell(cell.method, cell.r).rates == cell.rates

    def test_rotation_invariance_at_full_dimension(self):
        cfg = simulation_config(1, "2p", replicates=8, master_seed=6)
        pl = PipelineSpec(name="ssdr_sample", estimator=SAMPLE, dims=(10,))
        rep = run_mc_study(cfg, [pl], threads=1)
        full = np.array(rep.cell("qda_full", None).rates)
        rotated = np.array(rep.cell("ssdr_sample", 10).rates)
        np.testing.assert_allclose(rotated, full, atol=1e-10)

    def test_estimator_failures_recorded_not_fatal(self):
        # haff needs n > p + 2; at n_i = p + 1 every replicate fails
        cfg = simulation_config(1, "p+1", replicates=3, master_seed=7)
        pl = PipelineSpec(name="ssdr_haff",
                          estimator=PrecisionEstimatorSpec(kind="haff"),
                          dims=(1, 2))
        rep = run_mc_study(cfg, [pl], threads=1)
        assert rep.cell("ssdr_haff", 1).failures == 3
        assert rep.cell("ssdr_haff", 1).rates == []
        assert rep.cell("qda_full", None).failures == 0
        assert rep.has_failures()

    def test_tuning_set_up_failure_recorded_not_fatal(self):
        # gamma^2 underflows, so B B' = mu mu' is singular and every tuning
        # solve fails at set-up, for every training set of the call at once
        cfg = simulation_config(1, "p+1", replicates=2, master_seed=7,
                                pool_size=200)
        pl = PipelineSpec(name="m", dims=(1, 2),
                          estimator=PrecisionEstimatorSpec(
                              kind="mry", mry_penalty="qda", mry_gamma=1e-200))
        rep = run_mc_study(cfg, [pl], threads=1)
        assert rep.cell("m", 1).failures == 2
        assert rep.cell("qda_full", None).failures == 0

    def test_raw_training_set_is_summarized_once(self, monkeypatch):
        # qda_full and every pipeline that does not studentize share the
        # replicate's raw split; a studentizing one summarizes its own
        summarize_, sizes = experiments.summarize, []
        monkeypatch.setattr(experiments, "summarize",
                            lambda ds: sizes.append(ds.n) or summarize_(ds))
        cfg = simulation_config(1, "2p", replicates=1, master_seed=5)
        pipelines = [PipelineSpec(name=kind, dims=(1, 2),
                                  estimator=PrecisionEstimatorSpec(kind=kind))
                     for kind in ("sample_inverse", "haff", "wang")]
        pipelines.append(PipelineSpec(name="std", estimator=SAMPLE,
                                      dims=(1, 2), standardize=True))
        rep = run_mc_study(cfg, pipelines, threads=1)
        assert not rep.has_failures()
        assert sizes == [2 * cfg.n_i] * 2

    def test_svd_failure_recorded_not_fatal(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        cfg = simulation_config(1, "2p", replicates=2, master_seed=7)
        pl = PipelineSpec(name="m", estimator=SAMPLE, dims=(1, 2))
        rep = run_mc_study(cfg, [pl], threads=1)
        assert rep.cell("m", 1).failures == 2
        assert rep.cell("qda_full", None).failures == 0

    def test_qda_full_fails_when_training_classes_are_singular(self):
        # n_i = p = 10, so every class's ML covariance is exactly singular
        # and only roundoff could pass its pivots; qda_full is missing in
        # every replicate, as every r >= n_i of a sweep is
        cfg = simulation_config(1, 10, replicates=10, master_seed=3,
                                pool_size=600)
        rep = run_mc_study(cfg, [], threads=1)
        assert rep.cell("qda_full", None).failures == 10
        assert rep.cell("qda_full", None).rates == []

    def test_bayes_oracle_with_large_training_set(self):
        cfg = simulation_config(1, 2000, replicates=3, master_seed=8)
        rep = run_mc_study(cfg, [], threads=1)
        med = np.median(rep.cell("qda_full", None).rates)
        assert med == pytest.approx(norm.cdf(-np.sqrt(10) / 2), abs=0.01)

    def test_duplicate_pipeline_names_rejected(self):
        cfg = simulation_config(1, "2p", replicates=2)
        pl = PipelineSpec(name="x", estimator=SAMPLE, dims=(1,))
        with pytest.raises(InvalidInputError):
            run_mc_study(cfg, [pl, pl], threads=1)

    def test_repeated_dimension_rejected(self):
        # a repeat would put two rates per replicate into one cell
        cfg = simulation_config(1, "2p", replicates=3)
        pl = PipelineSpec(name="x", estimator=SAMPLE, dims=(1, 1, 2))
        with pytest.raises(InvalidInputError, match="repeat"):
            pl.resolved_dims(cfg.p)
        with pytest.raises(InvalidInputError, match="repeat"):
            run_mc_study(cfg, [pl], threads=1)

    # Misclassified test rows per replicate, [qda_full, r = 1, 2, ...], of
    # tuned MRY-QDA studies at n_i = p + 1, master seed 20240812. A change
    # to the ADMM arithmetic that moves only roundoff keeps every one.
    GOLDEN_MISSES = {
        (2, None): [
            [8773, 5318, 5433, 6066, 6182, 6804, 7274, 8111, 8347, 8401, 8773],
            [9851, 5136, 4383, 5042, 5164, 5448, 5613, 5779, 6042, 7979, 9851],
            [8121, 5121, 4142, 4701, 4964, 5673, 6468, 6804, 7074, 8077, 8121],
            [9107, 5335, 5040, 5346, 5648, 5816, 6303, 6941, 7176, 8024, 9107],
            [8989, 5995, 4565, 5227, 5997, 6339, 7217, 7660, 7994, 8632, 8989],
            [8469, 7753, 5337, 6108, 6483, 7135, 7473, 8226, 7311, 8360, 8469],
        ],
        (4, tuple(range(1, 11))): [
            [4891, 1030, 967, 1104, 1184, 1192, 1317, 1317, 1378, 1418, 1446],
        ],
    }

    @pytest.mark.parametrize("config_id, dims", list(GOLDEN_MISSES),
                             ids=["config2", "config4"])
    def test_tuned_mry_qda_rates_are_pinned(self, config_id, dims):
        golden = self.GOLDEN_MISSES[config_id, dims]
        cfg = simulation_config(config_id, "p+1", replicates=len(golden),
                                master_seed=20240812)
        pl = PipelineSpec(name="m", dims=dims, estimator=PrecisionEstimatorSpec(
            kind="mry", mry_penalty="qda", mry_gamma=1.0))
        rep = run_mc_study(cfg, [pl], threads=1)
        n_test = cfg.k * (cfg.pool_size - cfg.n_i)
        cells = [rep.cell("qda_full", None)] + [
            rep.cell("m", r) for r in pl.resolved_dims(cfg.p)]
        got = [[cell.rates[j] for cell in cells] for j in range(len(golden))]
        assert got == [[m / n_test for m in row] for row in golden]

    def test_metadata_freezes_protocol(self):
        cfg = simulation_config(4, "p+1", replicates=1, master_seed=13)
        rep = run_mc_study(cfg, [], threads=1)
        meta = rep.metadata
        assert meta["master_seed"] == 13
        assert meta["n_i"] == 51
        np.testing.assert_allclose(meta["means"][1], cfg.means[1])


class TestRepeatedKfoldCv:
    def test_separable_blobs_near_zero(self):
        rng = np.random.default_rng(9)
        ds = blobs(rng, n_per=40, spread=10.0)
        pl = PipelineSpec(name="ssdr_sample", estimator=SAMPLE, dims=(1, 2))
        rep = repeated_kfold_cv(ds, pl, folds=5, repeats=3, seed=1, threads=1)
        assert np.median(rep.cell("ssdr_sample", 1).rates) <= 0.01
        assert np.median(rep.cell("qda_full", None).rates) <= 0.01

    def test_label_shuffled_data_near_half(self):
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(300, 3))
        labels = np.array([0, 1] * 150)
        ds = LabeledDataset(feats, labels)
        pl = PipelineSpec(name="ssdr_sample", estimator=SAMPLE, dims=(1,))
        rep = repeated_kfold_cv(ds, pl, folds=10, repeats=5, seed=2, threads=1)
        assert np.median(rep.cell("qda_full", None).rates) == \
            pytest.approx(0.5, abs=0.05)

    def test_deterministic_fold_assignment(self):
        rng = np.random.default_rng(11)
        ds = blobs(rng)
        pl = PipelineSpec(name="ssdr_sample", estimator=SAMPLE, dims=(1,))
        r1 = repeated_kfold_cv(ds, pl, folds=5, repeats=1, seed=3, threads=1)
        r2 = repeated_kfold_cv(ds, pl, folds=5, repeats=1, seed=3, threads=1)
        for cell in r1.cells:
            assert r2.cell(cell.method, cell.r).rates == cell.rates

    def test_stratification_error_for_small_class(self):
        feats = np.vstack([np.random.default_rng(0).normal(size=(20, 2)),
                           np.zeros((5, 2))])
        ds = LabeledDataset(feats, [0] * 20 + [1] * 5)
        pl = PipelineSpec(name="ssdr_sample", estimator=SAMPLE, dims=(1,))
        with pytest.raises(StratificationError):
            repeated_kfold_cv(ds, pl, folds=10, repeats=1, seed=0, threads=1)

    def test_fold_ids_preserve_proportions(self):
        labels = np.array([0] * 40 + [1] * 20)
        ids = _stratified_fold_ids(labels, 5, np.random.default_rng(0))
        for f in range(5):
            assert np.sum((ids == f) & (labels == 0)) == 8
            assert np.sum((ids == f) & (labels == 1)) == 4

    def test_jitter_seed_recorded(self):
        rng = np.random.default_rng(12)
        ds = blobs(rng, n_per=30)
        pl = PipelineSpec(name="ssdr_sample", estimator=SAMPLE, dims=(1,))
        rep = repeated_kfold_cv(ds, pl, folds=5, repeats=1, seed=4, threads=1,
                                jitter_sigma=1e-5)
        assert rep.metadata["jitter_sigma"] == 1e-5
        assert isinstance(rep.metadata["jitter_seed"], int)

    def test_repeat_studentizes_each_fold_once_and_tunes_all_together(
            self, monkeypatch):
        # one studentization per fold serves the pipeline and qda_full; one
        # tune_lambda call serves every training fold of the repeat
        standardize, tune = experiments.standardize, experiments.tune_lambda
        studentized, tuned = [], []

        def counting_standardize(train, test):
            studentized.append(train.n)
            return standardize(train, test)

        def counting_tune(trains, *args):
            tuned.append(len(trains))
            return tune(trains, *args)

        monkeypatch.setattr(experiments, "standardize", counting_standardize)
        monkeypatch.setattr(experiments, "tune_lambda", counting_tune)
        monkeypatch.setattr(experiments, "_LAMBDA_GRID_SIZE", 3)
        ds = blobs(np.random.default_rng(14), n_per=30, p=3, spread=3.0)
        pl = PipelineSpec(name="m", dims=(1, 2), standardize=True,
                          estimator=PrecisionEstimatorSpec(kind="mry"))
        rep = repeated_kfold_cv(ds, pl, folds=4, repeats=1, seed=6,
                                threads=1, inner_folds=3)
        assert len(studentized) == 4 and tuned == [4]
        assert rep.cell("m", 1).rates and rep.cell("qda_full", None).rates

    def test_negative_seed_is_rejected(self):
        ds = blobs(np.random.default_rng(0))
        pl = PipelineSpec(name="ssdr_sample", estimator=SAMPLE, dims=(1,))
        with pytest.raises(InvalidInputError,
                           match=r"^seed must be an integer >= 0, got -1$"):
            repeated_kfold_cv(ds, pl, folds=5, repeats=1, seed=-1,
                              jitter_sigma=1e-5)
        with pytest.raises(
                InvalidInputError,
                match=r"^master_seed must be an integer >= 0, got -1$"):
            simulation_config(4, "2p", master_seed=-1)

    def test_only_full_width_rows_are_summarized(self, monkeypatch):
        # the sweep rotates class summaries onto the basis, so no step of a
        # tuned repeat summarizes projected rows
        summarize_, widths = experiments.summarize, []

        def spy_summarize(ds):
            widths.append(ds.p)
            return summarize_(ds)

        monkeypatch.setattr(experiments, "summarize", spy_summarize)
        monkeypatch.setattr(experiments, "_LAMBDA_GRID_SIZE", 3)
        ds = blobs(np.random.default_rng(21), n_per=30, p=4, k=3, spread=3.0)
        pl = PipelineSpec(name="m", dims=(1, 2),
                          estimator=PrecisionEstimatorSpec(kind="mry"))
        out = experiments._cv_repeat_worker((ds, pl, 3, 0, 0, (1, 2), 3))
        assert out[("m", 1)] is not None and out[("m", 2)] is not None
        assert widths and set(widths) == {4}

    @pytest.mark.parametrize("standardize", [False, True])
    def test_each_training_fold_is_summarized_once(self, monkeypatch,
                                                   standardize):
        # the tuning grid, the final fit and qda_full share a fold's
        # summaries; a studentizing repeat never summarizes the raw fold
        summarize_, sizes = experiments.summarize, []
        monkeypatch.setattr(experiments, "summarize",
                            lambda ds: sizes.append(ds.n) or summarize_(ds))
        monkeypatch.setattr(experiments, "_LAMBDA_GRID_SIZE", 3)
        ds = blobs(np.random.default_rng(21), n_per=30, p=4, k=3, spread=3.0)
        pl = PipelineSpec(name="m", dims=(1, 2), standardize=standardize,
                          estimator=PrecisionEstimatorSpec(kind="mry"))
        experiments._cv_repeat_worker((ds, pl, 3, 0, 0, (1, 2), 3))
        # three training folds of 60 rows, and three inner splits of each
        assert sizes.count(60) == 3 and len(sizes) == 3 + 3 * 3

    # Per-repeat rates, [qda_full, r = 1, 2, 3, 4], of a tuned simple-MRY CV
    # study with studentizing, jitter and inner folds on _golden_cv_set. A
    # change that moves only roundoff keeps every one.
    GOLDEN_RATES = [
        [0.019047619047619046, 0.3047619047619047, 0.18095238095238092,
         0.1619047619047619, 0.019047619047619046],
        [0.019047619047619046, 0.34285714285714286, 0.17142857142857143,
         0.15238095238095237, 0.019047619047619046],
    ]

    @staticmethod
    def _golden_cv_set():
        rng = np.random.default_rng(20241020)
        feats, labels = [], []
        for c, (n, shift) in enumerate(zip((40, 30, 35), (0.0, 1.5, -1.0))):
            scale = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
            feats.append(rng.normal(size=(n, 4)) @ scale + shift * np.arange(4))
            labels.append(np.full(n, c))
        return LabeledDataset(np.vstack(feats), np.concatenate(labels))

    def test_tuned_mry_cv_rates_are_pinned(self):
        pl = PipelineSpec(name="m", standardize=True,
                          estimator=PrecisionEstimatorSpec(kind="mry"))
        rep = repeated_kfold_cv(self._golden_cv_set(), pl, folds=5,
                                repeats=2, seed=31, threads=1, inner_folds=3,
                                jitter_sigma=1e-5)
        cells = [rep.cell("qda_full", None)] + [
            rep.cell("m", r) for r in range(1, 5)]
        assert [[cell.rates[j] for cell in cells] for j in range(2)] == \
            self.GOLDEN_RATES

    def test_rotation_invariance_at_full_dimension(self):
        rng = np.random.default_rng(13)
        ds = blobs(rng, n_per=50, p=4, spread=2.0)
        pl = PipelineSpec(name="ssdr_sample", estimator=SAMPLE, dims=(4,))
        rep = repeated_kfold_cv(ds, pl, folds=5, repeats=2, seed=5, threads=1)
        full = np.array(rep.cell("qda_full", None).rates)
        rotated = np.array(rep.cell("ssdr_sample", 4).rates)
        np.testing.assert_allclose(rotated, full, atol=1e-10)


def reference_sweep(train, test, u_full, dims):
    """Per-r reduced QDA: leading-block summaries, sample-inverse fit, score."""
    rotated = summarize(train.with_features(train.features @ u_full))
    rot_test = test.features @ u_full
    out = {}
    for r in dims:
        subs = [ClassSummary(class_id=c.class_id, n_i=c.n_i, mean=c.mean[:r],
                             cov=np.array(c.cov[:r, :r]), prior=c.prior)
                for c in rotated]
        try:
            model = qda.fit(subs, SAMPLE)
        except SsdrError:
            out[r] = None
            continue
        out[r] = qda.conditional_error_rate(
            model, test.with_features(rot_test[:, :r]))
    return out


def sweep_problem(rng, p, n_train, blocks):
    """Train/test split of len(n_train) Gaussian classes of p features, and
    a random orthogonal basis; the test set spans ``blocks`` full scoring
    blocks and ends mid-block."""
    k = len(n_train)
    n_test = blocks * _SWEEP_BLOCK_ROWS // k + 101
    parts = []
    for c, n in enumerate(n_train):
        scale = rng.normal(size=(p, p)) + 2.0 * np.eye(p)
        mean = rng.normal(scale=1.5, size=p)
        parts.append((rng.normal(size=(n + n_test, p)) @ scale + mean, c, n))
    train = LabeledDataset(np.vstack([x[:n] for x, _, n in parts]),
                           np.concatenate([[c] * n for _, c, n in parts]))
    test = LabeledDataset(np.vstack([x[n:] for x, _, n in parts]),
                          np.repeat(np.arange(k), n_test))
    u_full, _ = np.linalg.qr(rng.normal(size=(p, p)))
    return train, test, u_full, tuple(range(1, p + 1))


@st.composite
def sweep_problems(draw, n_lo, n_hi):
    """A ``sweep_problem`` of k = 2 or 3 classes, p <= 5 and a test set of
    one full scoring block and a part."""
    k = draw(st.sampled_from([2, 3]))
    p = draw(st.integers(2, 5))
    n_train = [draw(st.integers(n_lo(p), n_hi(p))) for _ in range(k)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return sweep_problem(rng, p, n_train, blocks=1)


class TestSweepCers:
    @settings(max_examples=25, deadline=None)
    @given(sweep_problems(n_lo=lambda p: p + 1, n_hi=lambda p: p + 8))
    def test_matches_per_r_fits_when_classes_exceed_p(self, problem):
        train, test, u_full, dims = problem
        assert test.n > _SWEEP_BLOCK_ROWS and test.n % _SWEEP_BLOCK_ROWS
        got, = _sweep_cers([(summarize(train), test, u_full, dims)])
        assert got == reference_sweep(train, test, u_full, dims)
        assert None not in got.values()

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_per_r_fits_at_benchmark_scale(self, k):
        # p = 50, n_i = 2p and r = 1..50 as in the benchmark's sweep, so the
        # scoring products run at its sizes, over three blocks and a part
        train, test, u_full, dims = sweep_problem(
            np.random.default_rng(50 + k), 50, [100] * k, blocks=3)
        assert test.n > 3 * _SWEEP_BLOCK_ROWS and test.n % _SWEEP_BLOCK_ROWS
        got, = _sweep_cers([(summarize(train), test, u_full, dims)])
        assert got == reference_sweep(train, test, u_full, dims)
        assert None not in got.values()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(sweep_problems(n_lo=lambda p: p + 1, n_hi=lambda p: p + 8),
           st.floats(0.0, 10.0), st.integers(0, 2**32 - 1))
    def test_rates_are_translation_invariant(self, problem, size, seed):
        # one vector added to every training and test row moves each class
        # mean and test row alike; with the basis fixed it cancels in the
        # whitened projection A x - a
        train, test, u_full, dims = problem
        direction = np.random.default_rng(seed).uniform(
            -1.0, 1.0, size=train.p)
        shift = size * train.features.std(axis=0).max() * direction
        moved = _sweep_cers([(
            summarize(train.with_features(train.features + shift)),
            test.with_features(test.features + shift), u_full, dims)])
        assert moved == _sweep_cers([(summarize(train), test, u_full, dims)])

    @settings(max_examples=25, deadline=None)
    @given(sweep_problems(n_lo=lambda p: 2, n_hi=lambda p: p))
    def test_dims_past_smallest_class_are_missing(self, problem):
        train, test, u_full, dims = problem
        cap = int(train.class_counts().min()) - 1
        got, = _sweep_cers([(summarize(train), test, u_full, dims)])
        ref = reference_sweep(train, test, u_full, dims)
        assert {r: got[r] for r in dims if r <= cap} == \
            {r: ref[r] for r in dims if r <= cap}
        assert all(got[r] is None for r in dims if r > cap)

    def test_failed_first_pivot_leaves_every_r_missing(self):
        rng = np.random.default_rng(17)
        feats = rng.normal(size=(40, 3))
        feats[:20, 0] = 0.0  # class 0 has no spread along the first axis
        ds = LabeledDataset(feats, [0] * 20 + [1] * 20)
        dims = (1, 2, 3)
        got, = _sweep_cers([(summarize(ds), ds, np.eye(3), dims)])
        assert got == reference_sweep(ds, ds, np.eye(3), dims)
        assert got == {1: None, 2: None, 3: None}

    @settings(max_examples=15, deadline=None)
    @given(sweep_problems(n_lo=lambda p: p + 1, n_hi=lambda p: p + 8),
           st.integers(0, 2**32 - 1))
    def test_test_row_order_is_irrelevant(self, problem, seed):
        train, test, u_full, dims = problem
        perm = np.random.default_rng(seed).permutation(test.n)
        summaries = summarize(train)
        assert _sweep_cers([(summaries, test.subset(perm), u_full, dims)]) \
            == _sweep_cers([(summaries, test, u_full, dims)])


@st.composite
def scoring_jobs(draw):
    """Jobs of k classes and p features that are scored together: class
    summaries, a test set, class precisions and a dimension sweep each, the
    sweeps of mixed widths and in any order.

    A job's kind breaks it on purpose: "pivot" gives its last class a zero
    covariance (the first pivot fails), "small" gives its first class fewer
    than p rows, "nonfinite" puts NaN in a precision, and "svd" marks its
    discriminant matrix for a failing SVD.
    """
    k = draw(st.sampled_from([2, 3]))
    p = draw(st.integers(2, 5))
    kinds = draw(st.lists(st.sampled_from(
        ["plain", "pivot", "small", "nonfinite", "svd"]),
        min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jobs = []
    for kind in kinds:
        dims = tuple(draw(st.lists(st.integers(1, p), min_size=1, max_size=p,
                                   unique=True)))
        summaries, omegas, test_x, test_y = [], [], [], []
        for c in range(k):
            n = int(rng.integers(2, p + 1)) if kind == "small" and c == 0 \
                else int(rng.integers(p + 2, 3 * p + 4))
            x = rng.normal(size=(n, p)) @ (rng.normal(size=(p, p))
                                           + 2.0 * np.eye(p)) + c
            cov = np.zeros((p, p)) if kind == "pivot" and c == k - 1 \
                else np.cov(x, rowvar=False, bias=True)
            summaries.append(ClassSummary(
                class_id=c, n_i=n, mean=x.mean(axis=0),
                cov=(cov + cov.T) / 2, prior=1.0 / k))
            g = rng.normal(size=(p, p))
            omegas.append(g @ g.T + np.eye(p))
            n_test = int(rng.integers(3, 40))
            test_x.append(rng.normal(size=(n_test, p)) + c)
            test_y.append(np.full(n_test, c))
        if kind == "nonfinite":
            omegas[0][0, 0] = np.nan
        jobs.append((kind, summaries, omegas,
                     LabeledDataset(np.vstack(test_x),
                                    np.concatenate(test_y)), dims))
    return jobs


class TestStackedScoring:
    @settings(max_examples=40, deadline=None)
    @given(scoring_jobs())
    def test_each_job_gets_its_result_alone(self, jobs):
        # J jobs and the qda_full job (U = I_p, dims (p,)) of each,
        # assembled, decomposed and swept together, give each job exactly
        # what it gets as the only job
        classes = range(len(jobs[0][1]))
        p = jobs[0][1][0].mean.size
        mhats = discriminant_matrix_from(
            [np.stack([s[c].mean for _, s, _, _, _ in jobs]) for c in classes],
            [np.stack([s[c].cov for _, s, _, _, _ in jobs]) for c in classes],
            [np.stack([o[c] for _, _, o, _, _ in jobs]) for c in classes])
        failing = {m.tobytes() for (kind, *_), m in zip(jobs, mhats)
                   if kind == "svd"}
        svd = np.linalg.svd

        def flaky_svd(a, *args, **kwargs):
            if any(m.tobytes() in failing for m in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "svd", flaky_svd)
            bases = experiments._bases(mhats)
            full = [(s, t, np.eye(p), (p,)) for _, s, _, t, _ in jobs]
            swept = _sweep_cers(full + [
                (s, t, u, dims) for (_, s, _, t, dims), u in zip(jobs, bases)])
            for (kind, s, *_), job, got in zip(jobs, full, swept):
                assert got == _sweep_cers([job])[0]
                if kind in ("pivot", "small"):
                    assert got == {p: None}
                else:
                    assert got[p] is not None
            for (kind, s, o, t, dims), mhat, u, got in zip(
                    jobs, mhats, bases, swept[len(jobs):]):
                alone_mhat = discriminant_matrix_from(
                    [cs.mean for cs in s], [cs.cov for cs in s], o)
                assert alone_mhat.tobytes() == mhat.tobytes()
                alone_u, = experiments._bases(alone_mhat[None])
                assert (u is None) == (alone_u is None)
                assert u is None or u.tobytes() == alone_u.tobytes()
                assert got == _sweep_cers([(s, t, alone_u, dims)])[0]
                if kind in ("nonfinite", "svd"):
                    assert got is None
                elif kind == "pivot":
                    assert set(got.values()) == {None}
                elif kind == "small":
                    assert all(got[r] is None for r in dims
                               if r > s[0].n_i - 1)

    def test_a_work_unit_makes_one_sweep(self, monkeypatch):
        # every pipeline's splits and the qda_full job of each split, a
        # U = I_p job at r = p, share one _sweep_cers call per work unit
        sweep, calls = experiments._sweep_cers, []

        def spy_sweep(jobs):
            calls.append([(u is not None and np.array_equal(u, np.eye(len(u))),
                           dims) for _, _, u, dims in jobs])
            return sweep(jobs)

        monkeypatch.setattr(experiments, "_sweep_cers", spy_sweep)
        cfg = simulation_config(1, "2p", replicates=1, master_seed=5)
        pipelines = [
            PipelineSpec(name="a", estimator=SAMPLE, dims=(1, 2, 3)),
            PipelineSpec(name="b", standardize=True,
                         estimator=PrecisionEstimatorSpec(kind="haff"))]
        out = experiments._mc_replicate_worker((cfg, pipelines, 0))
        assert calls == [[(True, (10,)), (False, (1, 2, 3)),
                          (False, tuple(range(1, 11)))]]
        assert len(out) == 1 + 3 + 10 and None not in out.values()
        calls.clear()
        ds = blobs(np.random.default_rng(21), n_per=30, p=4, k=3, spread=3.0)
        out = experiments._cv_repeat_worker(
            (ds, pipelines[1], 3, 0, 0, (1, 2, 3, 4), 3))
        assert calls == [[(True, (4,))] * 3 + [(False, (1, 2, 3, 4))] * 3]
        assert len(out) == 1 + 4 and None not in out.values()


class TestFullQdaJob:
    @settings(max_examples=25, deadline=None)
    @given(sweep_problems(n_lo=lambda p: p + 1, n_hi=lambda p: p + 8))
    def test_matches_full_feature_qda_fit(self, problem):
        # with every n_i > p, the U = I_p job at r = p is plain QDA on the
        # sample inverses, to the last misclassified row
        train, test, _, _ = problem
        split = _Split(train, test)
        want = qda.conditional_error_rate(qda.fit(split.summaries, SAMPLE),
                                          test)
        assert _sweep_cers([experiments._full_job(split, train.p)]) == \
            [{train.p: want}]

    def test_class_with_n_i_at_most_p_is_missing(self):
        # class 0 has 5 rows in p = 6, so its ML covariance is exactly
        # singular; on this draw qda.fit's pivots pass by roundoff, so
        # scoring qda_full through qda.fit gave it a rate
        p, rng = 6, np.random.default_rng(53)

        def draw(n0, n1):
            return LabeledDataset(
                np.vstack([rng.normal(size=(n0, p)),
                           rng.normal(size=(n1, p)) + 1.0]),
                np.repeat([0, 1], [n0, n1]))

        split = _Split(draw(5, 12), draw(40, 40))
        assert _sweep_cers([experiments._full_job(split, p)]) == [{p: None}]
        assert experiments._full_job(None, p)[2] is None


class TestSelectDimension:
    def _report(self, medians_by_r, method="m"):
        rep = CerReport()
        for r, meds in medians_by_r.items():
            rep.cell(method, r).rates = meds
        return rep

    def test_argmin_of_median(self):
        rep = self._report({1: [0.10], 2: [0.08], 3: [0.09]})
        assert select_dimension(rep) == (2, 0.08)

    def test_tie_prefers_smaller_r(self):
        rep = self._report({1: [0.1], 2: [0.1], 3: [0.1]})
        assert select_dimension(rep)[0] == 1

    def test_empty_report_rejected(self):
        with pytest.raises(InvalidInputError):
            select_dimension(CerReport())

    def test_multiple_methods_need_explicit_choice(self):
        rep = self._report({1: [0.1]}, method="a")
        rep.cell("b", 1).rates = [0.2]
        with pytest.raises(InvalidInputError):
            select_dimension(rep)
        assert select_dimension(rep, method="b") == (1, 0.2)

    def test_full_feature_cell_ignored(self):
        rep = self._report({1: [0.2]})
        rep.cell("qda_full", None).rates = [0.01]
        assert select_dimension(rep, method="m")[0] == 1

    def test_matches_argmin_of_np_median(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            meds = {r: list(rng.integers(0, 6, size=int(rng.integers(1, 12)))
                            / 40.0) for r in range(1, 9)}
            want = min(meds, key=lambda r: (float(np.median(meds[r])), r))
            got = select_dimension(self._report(meds))
            assert got == (want, float(np.median(meds[want])))


class TestTuneLambda:
    def test_grid_anchored_at_largest_off_diagonal_covariance(self):
        rng = np.random.default_rng(14)
        ds = blobs(rng, n_per=30, p=3)
        grid = lambda_grid(summarize(ds))
        assert grid.size == 10
        assert np.all(np.diff(grid) > 0)
        m = max(np.max(np.abs(cs.cov[~np.eye(3, dtype=bool)]))
                for cs in summarize(ds))
        assert grid[0] == pytest.approx(1e-3 * m)
        assert grid[-1] == pytest.approx(m)

    def test_flat_validation_profile_prefers_largest(self, monkeypatch):
        # perfectly separated blobs: every candidate achieves zero error
        monkeypatch.setattr(experiments, "_LAMBDA_GRID_SIZE", 5)
        rng = np.random.default_rng(16)
        ds = blobs(rng, n_per=40, p=3, spread=50.0)
        pl = PipelineSpec(
            name="m",
            estimator=PrecisionEstimatorSpec(kind="mry", mry_lambda=1.0),
            dims=(1, 2))
        lam = _tune_one(ds, pl, np.random.default_rng(1))
        grid = lambda_grid(summarize(ds))
        assert lam == pytest.approx(float(grid[-1]))

    def test_non_finite_candidate_is_dropped(self, monkeypatch):
        # perfectly separated blobs: every candidate scores zero error, so
        # without the poisoned top candidate the next largest one wins
        monkeypatch.setattr(experiments, "_LAMBDA_GRID_SIZE", 5)
        rng = np.random.default_rng(16)
        ds = blobs(rng, n_per=40, p=3, spread=50.0)
        pl = PipelineSpec(
            name="m",
            estimator=PrecisionEstimatorSpec(kind="mry", mry_lambda=1.0),
            dims=(1, 2))
        grid = lambda_grid(summarize(ds))
        poisoned = []

        def batch_poisoning_top(summaries, spec, warm_starts, lambdas):
            top = lambdas[0] == pytest.approx(float(grid[-1]))
            monkeypatch.setattr(estimators, "_logdet_prox",
                                _nan_prox if top else _LOGDET_PROX)
            fits = estimators.mry_batch(summaries, spec, warm_starts, lambdas)
            poisoned.extend(lam for lam, fit in zip(lambdas, fits)
                            if isinstance(fit, SsdrError))
            return fits

        monkeypatch.setattr(experiments, "mry_batch", batch_poisoning_top)
        lam = _tune_one(ds, pl, np.random.default_rng(1))
        assert poisoned
        assert lam == pytest.approx(float(grid[-2]))

    @pytest.mark.parametrize("penalty, seed", [("simple", 1), ("qda", 0)])
    def test_batched_solves_keep_the_serial_warm_start_chain(
            self, monkeypatch, penalty, seed):
        # a small budget makes some classes fail partway down the grid,
        # classes before the last among them; warm-started simple-penalty
        # solves need a smaller one than qda-penalty solves
        ds = blobs(np.random.default_rng(seed), n_per=14, p=4, k=3,
                   spread=2.0)
        max_iters = {"simple": 12, "qda": 50}[penalty]
        monkeypatch.setattr(experiments, "_LAMBDA_GRID_SIZE", 6)
        pl = PipelineSpec(
            name="m", dims=(1, 2, 3, 4),
            estimator=PrecisionEstimatorSpec(kind="mry", mry_penalty=penalty,
                                             admm_max_iters=max_iters))
        grid = lambda_grid(summarize(ds))
        fold_ids = _stratified_fold_ids(ds.labels, 3,
                                        np.random.default_rng(0))
        splits = [(ds.subset(fold_ids != f), ds.subset(fold_ids == f))
                  for f in range(3)]
        failures = []
        expected = [_serial_grid_scores(sub, val, pl, grid, failures)
                    for sub, val in splits]
        assert any(class_id < 2 for _, class_id in failures)
        assert any(v is not None for scores in expected
                   for v in scores.values())

        seen, lams = {}, []
        batch, sweep = experiments.mry_batch, experiments._sweep_cers

        def spy_batch(summaries, spec, warm_starts, lambdas):
            lams.append(lambdas[0])
            return batch(summaries, spec, warm_starts, lambdas)

        def spy_sweep(jobs):
            swept = sweep(jobs)
            for (_, val, _, _), cers in zip(jobs, swept):
                vals = [v for v in (cers or {}).values() if v is not None]
                seen[lams[-1], val.features.tobytes()] = \
                    min(vals) if vals else None
            return swept

        monkeypatch.setattr(experiments, "mry_batch", spy_batch)
        monkeypatch.setattr(experiments, "_sweep_cers", spy_sweep)
        lam = _tune_one(ds, pl, np.random.default_rng(0), inner_folds=3)
        got = [{float(g): seen.get((float(g), val.features.tobytes()))
                for g in grid} for _, val in splits]
        assert got == expected
        assert lam == _select_lambda(grid, expected)

    def test_each_set_is_tuned_as_if_alone(self, monkeypatch):
        # one call over several training sets gives each the penalty, the
        # candidate fits and the scores of its own call, bit for bit, or its
        # own error: here one set has a one-point grid and one a class too
        # small for its inner folds
        rng = np.random.default_rng(20)
        ds = blobs(rng, n_per=30, p=3, k=3, spread=2.5)
        fold_ids = _stratified_fold_ids(ds.labels, 4, rng)
        trains = [ds.subset(fold_ids != f) for f in range(4)]
        keep = (ds.labels != 2) | (np.cumsum(ds.labels == 2) <= 2)
        trains.insert(2, ds.subset(keep))  # class 2 has 2 rows
        monkeypatch.setattr(experiments, "_LAMBDA_GRID_SIZE", 5)
        pl = PipelineSpec(
            name="m", dims=(1, 2, 3),
            estimator=PrecisionEstimatorSpec(kind="mry", admm_max_iters=40))
        one_point = summarize(trains[1])[0].mean.tobytes()
        grid_of, assemble = experiments.lambda_grid, \
            experiments.discriminant_matrix_from
        sweep, seen, omegas = experiments._sweep_cers, {}, []

        def grid(summaries):
            full = grid_of(summaries)
            return full[-1:] if summaries[0].mean.tobytes() == one_point \
                else full

        def spy_assemble(means, covs, stacked):
            # each scored job's class precisions, in the order of the sweep
            omegas[:] = [[o.tobytes() for o in job] for job in zip(*stacked)]
            return assemble(means, covs, stacked)

        def spy_sweep(jobs):
            swept = sweep(jobs)
            assert len(jobs) == len(omegas)
            for (_, val, _, _), cers, job_omegas in zip(jobs, swept, omegas):
                seen.setdefault(val.features.tobytes(), []).append(
                    (cers, job_omegas))
            return swept

        def outcome(lam):
            return (type(lam), str(lam)) if isinstance(lam, SsdrError) else lam

        monkeypatch.setattr(experiments, "lambda_grid", grid)
        monkeypatch.setattr(experiments, "discriminant_matrix_from",
                            spy_assemble)
        monkeypatch.setattr(experiments, "_sweep_cers", spy_sweep)
        together = tune_lambda(
            [_Split(train, None) for train in trains], pl,
            [np.random.default_rng(100 + i) for i in range(len(trains))],
            inner_folds=3)
        seen_together, seen = seen, {}
        alone = [tune_lambda([_Split(train, None)], pl,
                             [np.random.default_rng(100 + i)],
                             inner_folds=3)[0]
                 for i, train in enumerate(trains)]
        assert list(map(outcome, together)) == list(map(outcome, alone))
        assert seen_together == seen
        assert isinstance(together[2], StratificationError)
        assert together[1] == float(grid(summarize(trains[1]))[0])
        assert all(isinstance(together[i], float) for i in (0, 3, 4))
        assert len(seen) == 4 * 3
        assert sum(map(len, seen.values())) == 3 * (1 + 3 * 5)

    @pytest.mark.parametrize("penalty", ["simple", "qda"])
    def test_prox_input_is_exactly_symmetric_along_a_tuning_path(
            self, monkeypatch, penalty):
        # simple mode hands the prox E = rho (Z - U) - S as is: Z, U and S
        # are exactly symmetric and elementwise steps keep E so; qda mode
        # symmetrizes its E first
        symmetric = []

        def spy_prox(e, t):
            symmetric.append(np.array_equal(e, e.transpose(0, 2, 1)))
            return _LOGDET_PROX(e, t)

        monkeypatch.setattr(estimators, "_logdet_prox", spy_prox)
        # ten candidates: an accelerated path of five makes 43 prox calls
        monkeypatch.setattr(experiments, "_LAMBDA_GRID_SIZE", 10)
        ds = blobs(np.random.default_rng(22), n_per=20, p=4, k=3, spread=2.0)
        pl = PipelineSpec(name="m", dims=(1, 2), estimator=PrecisionEstimatorSpec(
            kind="mry", mry_penalty=penalty))
        _tune_one(ds, pl, np.random.default_rng(0), inner_folds=3)
        assert len(symmetric) > 50 and all(symmetric)

    def test_tuning_solves_end_under_the_iteration_cap(self, monkeypatch):
        # the tuning solves of three config 1 n = p+1 replicates: 11 of the
        # 60 ended at the 1,000-iteration cap without acceleration
        outcomes, batch = [], experiments.mry_batch

        def spy_batch(*args):
            fits = batch(*args)
            outcomes.extend(isinstance(f, ConvergenceError) for f in fits)
            return fits

        monkeypatch.setattr(experiments, "mry_batch", spy_batch)
        cfg = simulation_config(1, "p+1", replicates=3, master_seed=20240812)
        pl = PipelineSpec(name="m", estimator=PrecisionEstimatorSpec(
            kind="mry", mry_penalty="simple"))
        run_mc_study(cfg, [pl], threads=1)
        assert len(outcomes) == 60
        assert sum(outcomes) == 0

    def test_all_candidates_failing_raises(self):
        rng = np.random.default_rng(17)
        ds = blobs(rng, n_per=20, p=3)
        pl = PipelineSpec(
            name="m",
            # tuning caps ADMM at the smaller of its own budget and this one
            estimator=PrecisionEstimatorSpec(kind="mry", mry_lambda=1.0,
                                             admm_max_iters=1),
            dims=(1,))  # nothing can converge
        with pytest.raises(TuningError):
            _tune_one(ds, pl, np.random.default_rng(2))

    @pytest.mark.parametrize("penalty", ["simple", "qda"])
    def test_each_tuning_problem_is_set_up_once(self, monkeypatch, penalty):
        # a problem's constants are set up at its first candidate, and its
        # warm state carries them along the penalty path
        cold, set_up = estimators._mry_cold, []
        monkeypatch.setattr(estimators, "_mry_cold",
                            lambda cs, sp: set_up.append(cs) or cold(cs, sp))
        monkeypatch.setattr(experiments, "_LAMBDA_GRID_SIZE", 4)
        ds = blobs(np.random.default_rng(23), n_per=30, p=3, k=3, spread=3.0)
        pl = PipelineSpec(name="m", dims=(1, 2), estimator=PrecisionEstimatorSpec(
            kind="mry", mry_penalty=penalty))
        _tune_one(ds, pl, np.random.default_rng(4), inner_folds=3)
        # three inner splits of three classes
        assert len({id(cs) for cs in set_up}) == len(set_up) == 9

    def test_non_mry_pipeline_rejected(self):
        rng = np.random.default_rng(18)
        ds = blobs(rng)
        pl = PipelineSpec(name="m", estimator=SAMPLE, dims=(1,))
        with pytest.raises(InvalidInputError):
            tune_lambda([_Split(ds, None)], pl, [np.random.default_rng(0)])

    def test_cv_mode_runs(self, monkeypatch):
        monkeypatch.setattr(experiments, "_LAMBDA_GRID_SIZE", 4)
        rng = np.random.default_rng(19)
        ds = blobs(rng, n_per=40, p=3, spread=3.0)
        pl = PipelineSpec(
            name="m",
            estimator=PrecisionEstimatorSpec(kind="mry", mry_lambda=1.0),
            dims=(1, 2, 3))
        lam = _tune_one(ds, pl, np.random.default_rng(3), inner_folds=3)
        assert lam > 0
