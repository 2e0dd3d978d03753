"""Invariance properties the math guarantees, as property tests.

* Permuting the features permutes the discriminant matrix rows and the
  basis rows, so every (pipeline, r) error rate is unchanged.
* Estimators that depend on S only through its spectrum are rotation
  equivariant: Omega(Q S Q') = Q Omega(S) Q' for orthogonal Q.
* The scale-free ones are also scale equivariant: Omega(c S) = Omega(S) / c.

Wang's beta comes from a ternary search with a finite tolerance, so its
equivariance holds to about 1e-7 rather than to rounding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdr.datamodel import ClassSummary, LabeledDataset
from ssdr.estimators import PrecisionEstimatorSpec, estimate
from ssdr.experiments import (
    PipelineSpec,
    _pipeline_cers,
    mvn_sample,
    simulation_config,
)

CLOSED_FORM_TOL = 1e-9
WANG_TOL = 1e-6

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
        base = _pipeline_cers(train, test, pl, dims, None, None)
        permuted = _pipeline_cers(train.with_features(train.features[:, perm]),
                                  test.with_features(test.features[:, perm]),
                                  pl, dims, None, None)
        assert permuted == base, pl.name


def _summary(cov, n):
    return ClassSummary(class_id=0, n_i=n, mean=np.zeros(cov.shape[0]),
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
