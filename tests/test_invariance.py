"""Invariance properties the math guarantees, as property tests.

* Permuting the features permutes the discriminant matrix rows and the
  basis rows, so every (pipeline, r) error rate is unchanged.
* Estimators that depend on S only through its spectrum are rotation
  equivariant: Omega(Q S Q') = Q Omega(S) Q' for orthogonal Q.
* The scale-free ones are also scale equivariant: Omega(c S) = Omega(S) / c.
* MRY is scale equivariant once its penalty scales with S:
  Omega(c S; c lambda) = Omega(S; lambda) / c, for the simple penalty and
  for the QDA penalty with a standardized mean. The tuning grid scales with
  S, lambda_grid(c S) = c lambda_grid(S), so a tuned lambda follows it.

Whole-pipeline rates are not scale invariant, even for sample_inverse: the
discriminant matrix's mean columns scale as 1/c and its covariance columns
as c^2, so no pipeline-level scaling property is tested here.

Wang's beta comes from a ternary search with a finite tolerance, so its
equivariance holds to about 1e-7 rather than to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdr import experiments
from ssdr.datamodel import ClassSummary, LabeledDataset
from ssdr.errors import TuningError
from ssdr.estimators import PrecisionEstimatorSpec, estimate
from ssdr.experiments import (
    PipelineSpec,
    _Split,
    _split_jobs,
    _sweep_cers,
    lambda_grid,
    mvn_sample,
    simulation_config,
)

CLOSED_FORM_TOL = 1e-9
WANG_TOL = 1e-6
GRID_TOL = 1e-12
# ADMM stops on absolute residuals, which scale differently with c, so
# equivariance to 1e-9 needs a tolerance well below it and a moderate c
MRY_TOL = 1e-9
MRY_ADMM_TOL = 1e-11

FIXED_LAMBDA_PIPELINES = [
    PipelineSpec(name=kind, estimator=PrecisionEstimatorSpec(kind=kind))
    for kind in ("sample_inverse", "haff", "wang", "bodnar")
] + [
    PipelineSpec(name=f"mry_{penalty}", tune_mry_lambda=False,
                 estimator=PrecisionEstimatorSpec(kind="mry", mry_lambda=0.3,
                                                  mry_penalty=penalty))
    for penalty in ("simple", "qda")
]


def _draw(cfg, n_per, seed):
    feats, labels = [], []
    for i, (mu, cov) in enumerate(zip(cfg.means, cfg.covs)):
        feats.append(mvn_sample(mu, cov, n_per, (seed, i)))
        labels.append(np.full(n_per, i))
    return LabeledDataset(np.vstack(feats), np.concatenate(labels))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(config_id=st.sampled_from([1, 2, 3]),
       n_policy=st.sampled_from(["p+1", "2p"]),
       seed=st.integers(0, 2**32 - 1),
       perm=st.permutations(range(10)))
def test_feature_permutation_leaves_every_rate_unchanged(config_id, n_policy,
                                                         seed, perm):
    cfg = simulation_config(config_id, n_policy, replicates=1)
    train = _draw(cfg, cfg.n_i, (seed, 0))
    test = _draw(cfg, 100, (seed, 1))
    perm = list(perm)
    for pl in FIXED_LAMBDA_PIPELINES:
        dims = pl.resolved_dims(cfg.p)
        # these pipelines neither tune nor studentize, so need no generator
        base, = _sweep_cers(_split_jobs([_Split(train, test)], pl, [None],
                                        dims))
        permuted, = _sweep_cers(_split_jobs(
            [_Split(train.with_features(train.features[:, perm]),
                    test.with_features(test.features[:, perm]))],
            pl, [None], dims))
        assert permuted == base, pl.name


def _summary(cov, n, mean=None, class_id=0):
    mean = np.zeros(cov.shape[0]) if mean is None else mean
    return ClassSummary(class_id=class_id, n_i=n, mean=mean,
                        cov=(cov + cov.T) / 2, prior=1.0)


@st.composite
def covariances(draw):
    """A sample covariance with n > p + 2 (so haff applies) and its n."""
    p = draw(st.integers(2, 6))
    n = p + 3 + draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, p)) @ rng.normal(size=(p, p))
    x -= x.mean(axis=0)
    return x.T @ x / n, n, rng


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(covariances())
def test_rotation_equivariance(problem):
    s, n, rng = problem
    q, _ = np.linalg.qr(rng.normal(size=s.shape))
    for kind, tol in (("sample_inverse", CLOSED_FORM_TOL),
                      ("haff", CLOSED_FORM_TOL), ("wang", WANG_TOL),
                      ("bodnar", CLOSED_FORM_TOL)):
        spec = PrecisionEstimatorSpec(kind=kind, bodnar_target="identity")
        omega = estimate(_summary(s, n), spec).omega
        rotated = estimate(_summary(q @ s @ q.T, n), spec).omega
        assert _rel(rotated, q @ omega @ q.T) <= tol, kind


@settings(max_examples=40, deadline=None, derandomize=True)
@given(covariances(), st.floats(1e-2, 1e2))
def test_scale_equivariance(problem, c):
    s, n, _ = problem
    for kind, tol in (("sample_inverse", CLOSED_FORM_TOL),
                      ("haff", CLOSED_FORM_TOL), ("wang", WANG_TOL)):
        spec = PrecisionEstimatorSpec(kind=kind)
        omega = estimate(_summary(s, n), spec).omega
        scaled = estimate(_summary(c * s, n), spec).omega
        assert _rel(scaled, omega / c) <= tol, kind


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(covariances(), min_size=1, max_size=3), st.floats(1e-2, 1e2))
def test_lambda_grid_scales_with_the_covariances(problems, c):
    summaries = [_summary(s, n, class_id=i)
                 for i, (s, n, _) in enumerate(problems)]
    scaled = [_summary(c * s, n, class_id=i)
              for i, (s, n, _) in enumerate(problems)]
    grid = lambda_grid(summaries)
    np.testing.assert_allclose(lambda_grid(scaled), c * grid, rtol=GRID_TOL,
                               atol=0)


def test_lambda_grid_falls_back_to_the_diagonal(monkeypatch):
    monkeypatch.setattr(experiments, "_LAMBDA_GRID_SIZE", 4)
    diag = _summary(np.diag([2.0, 5.0, 3.0]), 10)
    np.testing.assert_allclose(lambda_grid([diag]), [0.005, 0.05, 0.5, 5.0],
                               rtol=GRID_TOL)
    monkeypatch.setattr(experiments, "_LAMBDA_GRID_SIZE", 2)
    one = _summary(np.array([[4.0]]), 10)
    assert lambda_grid([one]).tolist() == [0.004, 4.0]
    with pytest.raises(TuningError):
        lambda_grid([_summary(np.zeros((2, 2)), 10)])


@st.composite
def conditioned_covariances(draw):
    """A covariance from covariances() plus its mean eigenvalue times I.

    Its condition number stays below p + 1. ADMM stops on absolute
    residuals, so how closely its Omega approaches the optimum degrades with
    the conditioning of S; this keeps the test about equivariance rather
    than solver accuracy.
    """
    s, n, rng = draw(covariances())
    return s + np.trace(s) / s.shape[0] * np.eye(s.shape[0]), n, rng


@settings(max_examples=20, deadline=None, derandomize=True)
@given(conditioned_covariances(), st.floats(0.1, 10.0), st.floats(0.02, 0.5))
def test_mry_scale_equivariance(problem, c, lam):
    s, n, rng = problem
    mean = rng.normal(size=s.shape[0])
    for penalty in ("simple", "qda"):
        spec = PrecisionEstimatorSpec(
            kind="mry", mry_penalty=penalty, mry_standardize_mean=True,
            mry_lambda=lam, admm_tol=MRY_ADMM_TOL, admm_max_iters=50_000)
        omega = estimate(_summary(s, n, mean), spec).omega
        scaled = estimate(_summary(c * s, n, np.sqrt(c) * mean),
                          spec.with_lambda(c * lam)).omega
        assert _rel(scaled, omega / c) <= MRY_TOL, penalty
