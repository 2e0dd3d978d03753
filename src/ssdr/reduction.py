"""Stabilized dimension reduction for quadratic discriminant classification.

The reduction target is the p x (k-1)(p+1) discriminant matrix whose columns
are the precision-weighted mean differences and the raw covariance
differences against a reference class. Its leading left singular vectors
give an orthonormal projection basis; when the class differences are
confined to a proper subspace that every class covariance maps into itself,
projecting onto that subspace provably preserves the QDA decision for every
observation. ``qda_invariance_check`` and ``subspace_identity_residuals``
make that guarantee executable, and ``random_theorem_fixture`` draws random
populations with exactly this structure.

``discriminant_matrix_from`` is the one place the target is assembled:
``build_discriminant_matrix`` feeds it estimated precisions and
``theorem_fixture`` exact ones. Exact-parameter QDA scores come from
``qda.fit_from_parameters`` and ``qda.scores``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qda
from .datamodel import ClassSummary, LabeledDataset
from .errors import InvalidInputError, TheoremInapplicableError
from .estimators import PrecisionEstimatorSpec, estimate
from .numerics import (
    DEFAULT_RANK_TOL,
    numerical_rank,
    reduced_svd,
    spd_logdet_and_inverse,
    svd_full,
    symmetrize,
)


@dataclass(frozen=True)
class ProjectionBasis:
    """Orthonormal p x r basis plus the full singular spectrum behind it.

    ``beyond_rank`` is set when r exceeds the numerical rank, in which case
    the trailing columns are an orthonormal completion rather than
    directions supported by the data.
    """

    u: np.ndarray
    singular_values: np.ndarray
    numerical_rank: int
    p: int
    r: int
    beyond_rank: bool = False

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.shape != (self.p, self.r):
            raise InvalidInputError(
                f"basis shape {u.shape} != ({self.p}, {self.r})"
            )
        gram = u.T @ u
        if self.r and np.max(np.abs(gram - np.eye(self.r))) > 1e-10:
            raise InvalidInputError("basis columns are not orthonormal")
        sv = np.asarray(self.singular_values, dtype=float)
        if sv.size > 1 and np.any(np.diff(sv) > 1e-12):
            raise InvalidInputError("singular values must be non-increasing")


def discriminant_matrix_from(means, covs, omegas) -> np.ndarray:
    """Assemble the p x (k-1)(p+1) reduction target from class parameters.

    ``means``, ``covs`` and ``omegas`` (precision matrices) are given in
    class order, and the first class is the reference. Mean-direction
    columns are omega_i mu_i - omega_0 mu_0; covariance-difference columns
    are Sigma_i - Sigma_0. Each class's parameters may carry a leading
    stack axis, (J, p), (J, p, p) and (J, p, p), for J targets at once;
    each target of a stack equals its own 2-D result bit for bit.

    The two blocks carry different units: multiplying every feature by c
    scales the mean columns by 1/c and the covariance columns by c^2, which
    reweights them in the SVD. Reduced error rates therefore change with the
    feature units, for every estimator; studentize raw-unit data first.
    """
    k = len(means)
    if k < 2:
        raise InvalidInputError("need at least 2 classes")
    if len(covs) != k or len(omegas) != k:
        raise InvalidInputError("one covariance and precision matrix per class "
                                "is required")
    if any(np.shape(m) != np.shape(means[0]) for m in means):
        raise InvalidInputError("class means disagree on dimension p")
    # omega @ mu as a one-column product, so a stack multiplies per target
    g = [(omegas[i] @ np.asarray(means[i])[..., None])[..., 0] for i in range(k)]
    mean_cols = [(g[i] - g[0])[..., None] for i in range(1, k)]
    cov_cols = [np.asarray(covs[i]) - np.asarray(covs[0]) for i in range(1, k)]
    return np.concatenate(mean_cols + cov_cols, axis=-1)


def build_discriminant_matrix(summaries: list[ClassSummary],
                              spec: PrecisionEstimatorSpec) -> np.ndarray:
    """Reduction target from class summaries and the precisions of ``spec``.

    The reference class is the lowest class_id. Covariance-difference
    columns use the raw ML covariances. Estimator failures propagate
    annotated with the class id.
    """
    summaries = sorted(summaries, key=lambda c: c.class_id)
    omegas = [estimate(cs, spec).omega for cs in summaries]
    return discriminant_matrix_from([cs.mean for cs in summaries],
                                    [cs.cov for cs in summaries], omegas)


def projection_basis(mhat, r: int,
                     rank_tol: float = DEFAULT_RANK_TOL) -> ProjectionBasis:
    """First r left singular vectors of the reduction target.

    r may exceed the numerical rank; the extra columns come from the SVD's
    orthonormal completion and ``beyond_rank`` is flagged.
    """
    u, d, _ = svd_full(mhat)
    p = u.shape[0]
    if not 1 <= r <= p:
        raise InvalidInputError(f"r must be in 1..{p}, got {r}")
    q = numerical_rank(d, rank_tol)
    return ProjectionBasis(
        u=u[:, :r],
        singular_values=d,
        numerical_rank=q,
        p=p,
        r=r,
        beyond_rank=r > q,
    )


def project(basis: ProjectionBasis, ds: LabeledDataset) -> LabeledDataset:
    """Replace features by their coordinates in the basis (n x r)."""
    if ds.p != basis.p:
        raise InvalidInputError(
            f"dataset dimension {ds.p} != basis dimension {basis.p}"
        )
    return ds.with_features(ds.features @ basis.u)


@dataclass(frozen=True)
class TheoremFixture:
    """Exact populations plus the derived projection machinery.

    Holds the true means/covariances/priors, the reduction target built from
    them, its orthonormal basis u (p x q), the projectors onto the subspace
    and its complement, and the complement contrast c = R (I - u u'), where
    R is the (p - q) x p seed matrix.
    """

    means: tuple
    covs: tuple
    priors: np.ndarray
    r_matrix: np.ndarray
    m: np.ndarray
    u: np.ndarray
    q: int
    p_u: np.ndarray
    p_u_perp: np.ndarray
    c: np.ndarray

    @property
    def p(self) -> int:
        return self.u.shape[0]

    @property
    def k(self) -> int:
        return len(self.means)


def theorem_fixture(means, covs, priors=None, r_matrix=None,
                    seed: int = 0) -> TheoremFixture:
    """Build a TheoremFixture from exact parameters.

    Validates that every covariance is SPD and that the complement contrast
    has full row rank p - q. When ``r_matrix`` is omitted, a random Gaussian
    seed matrix is drawn from ``seed``.
    """
    means = tuple(np.asarray(m, dtype=float) for m in means)
    covs = tuple(symmetrize(c) for c in covs)
    k = len(means)
    if k < 2 or len(covs) != k:
        raise InvalidInputError("need k >= 2 classes")
    p = means[0].size
    # raises NotSpdError if a covariance is not SPD
    precisions = [spd_logdet_and_inverse(c)[1] for c in covs]
    if priors is None:
        priors = np.full(k, 1.0 / k)
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (k,) or abs(priors.sum() - 1.0) > 1e-12:
        raise InvalidInputError("priors must be k values summing to 1")

    m = discriminant_matrix_from(means, covs, precisions)
    u, d, _, q = reduced_svd(m)
    if r_matrix is None:
        r_matrix = np.random.default_rng(seed).normal(size=(p - q, p))
    r_matrix = np.asarray(r_matrix, dtype=float)
    if r_matrix.shape != (p - q, p):
        raise InvalidInputError(
            f"R must be ({p - q}, {p}), got {r_matrix.shape}"
        )
    p_u = u @ u.T
    p_u_perp = np.eye(p) - p_u
    c = r_matrix @ p_u_perp
    if q < p:
        rank_c = np.linalg.matrix_rank(c)
        if rank_c != p - q:
            raise InvalidInputError(
                f"complement contrast has rank {rank_c}, expected {p - q}"
            )
    return TheoremFixture(means=means, covs=covs, priors=priors,
                          r_matrix=r_matrix, m=m, u=u, q=q,
                          p_u=p_u, p_u_perp=p_u_perp, c=c)


def random_theorem_fixture(p: int, k: int, q: int, seed=None,
                           rng: np.random.Generator | None = None
                           ) -> TheoremFixture:
    """Draw random populations whose class differences live in a q-subspace.

    Construction: pick a random orthonormal split [Q1 | Q2] of R^p; give
    every class an arbitrary SPD block on span(Q1) but one shared SPD block
    on span(Q2), and means that differ only inside span(Q1). Then the
    reduction target has rank q (generically), its span is invariant under
    every class covariance, and the QDA decision is exactly preserved by the
    projection. Random populations without this structure do not satisfy
    the guarantee.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    if not 1 <= q < p:
        raise InvalidInputError(f"q must be in 1..{p - 1}, got {q}")
    if k < 2:
        raise InvalidInputError("need k >= 2 classes")
    basis, _ = np.linalg.qr(rng.normal(size=(p, p)))
    q1, q2 = basis[:, :q], basis[:, q:]
    tail = rng.normal(size=(p - q, p - q))
    tail = tail @ tail.T + 0.5 * (p - q) * np.eye(p - q)
    shared_mean_tail = rng.normal(size=p - q)
    means, covs = [], []
    for _ in range(k):
        block = rng.normal(size=(q, q))
        block = block @ block.T + 0.5 * q * np.eye(q)
        covs.append(symmetrize(q1 @ block @ q1.T + q2 @ tail @ q2.T))
        means.append(q1 @ rng.normal(size=q) + q2 @ shared_mean_tail)
    priors = rng.uniform(0.5, 1.5, size=k)
    priors = priors / priors.sum()
    r_matrix = rng.normal(size=(p - q, p))
    return theorem_fixture(means, covs, priors, r_matrix=r_matrix)


class InvarianceResult(NamedTuple):
    """Per-point argmins and winner margins for full and reduced QDA."""

    argmin_full: np.ndarray
    argmin_reduced: np.ndarray
    gap_full: np.ndarray
    gap_reduced: np.ndarray


def qda_invariance_check(fix: TheoremFixture, x) -> InvarianceResult:
    """Compare full-space and reduced-space QDA argmins at points x.

    x is a single p-vector or an (m, p) array. The reduced rule scores
    u' x against the projected parameters (u' mu_i, u' Sigma_i u). The gap
    fields hold the difference between the two smallest scores so callers
    can exclude decision-boundary ties. Raises TheoremInapplicableError
    when the reduction target is full rank (no exact reduction exists).
    """
    if fix.q >= fix.p:
        raise TheoremInapplicableError(
            f"reduction target has full rank {fix.q} = p; "
            "the preservation guarantee is void"
        )
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != fix.p:
        raise InvalidInputError(f"points must have dimension {fix.p}")
    full = qda.scores(qda.fit_from_parameters(fix.means, fix.covs, fix.priors), x)
    red_means = [fix.u.T @ m for m in fix.means]
    red_covs = [symmetrize(fix.u.T @ c @ fix.u) for c in fix.covs]
    red = qda.scores(qda.fit_from_parameters(red_means, red_covs, fix.priors),
                     x @ fix.u)

    def gaps(scores):
        part = np.partition(scores, 1, axis=1)
        return part[:, 1] - part[:, 0]

    return InvarianceResult(
        argmin_full=np.argmin(full, axis=1),
        argmin_reduced=np.argmin(red, axis=1),
        gap_full=gaps(full),
        gap_reduced=gaps(red),
    )


def subspace_identity_residuals(fix: TheoremFixture) -> dict[str, float]:
    """Relative residuals of the exact-arithmetic subspace identities.

    With g_i = Sigma_i^-1 mu_i and H_i = Sigma_i, the construction implies,
    exactly: mean contrasts lie in the span; covariance contrasts vanish on
    the complement; the span projector commutes with every H_i; inverting
    after projecting equals projecting the inverse; and the complement
    contrast c sees identical first and second moments in every class. Each
    residual is normalized by the scale of its operands; all should be at
    rounding level for valid fixtures.
    """
    g = [spd_logdet_and_inverse(c)[1] @ m for m, c in zip(fix.means, fix.covs)]
    h = list(fix.covs)
    p_u, perp, c = fix.p_u, fix.p_u_perp, fix.c
    u = fix.u

    def rel(num, scale):
        return float(num / max(scale, 1e-300))

    res = {
        "mean_contrast_in_span": 0.0,
        "cov_contrast_in_span": 0.0,
        "projector_commutes": 0.0,
        "reduced_inverse_consistency": 0.0,
        "complement_mean_equality": 0.0,
        "complement_cov_equality": 0.0,
    }
    for i in range(1, fix.k):
        dg = g[i] - g[0]
        dh = h[i] - h[0]
        res["mean_contrast_in_span"] = max(
            res["mean_contrast_in_span"],
            rel(np.linalg.norm(p_u @ dg - dg), max(np.linalg.norm(dg), 1.0)),
        )
        res["cov_contrast_in_span"] = max(
            res["cov_contrast_in_span"],
            rel(np.linalg.norm(perp @ dh), max(np.linalg.norm(dh), 1.0)),
        )
        res["complement_mean_equality"] = max(
            res["complement_mean_equality"],
            rel(np.linalg.norm(c @ g[i] - c @ g[0]),
                max(np.linalg.norm(c) * max(np.linalg.norm(g[i]), 1.0), 1.0)),
        )
        res["complement_cov_equality"] = max(
            res["complement_cov_equality"],
            rel(np.linalg.norm(c @ h[i] @ c.T - c @ h[0] @ c.T),
                max(np.linalg.norm(c) ** 2 * np.linalg.norm(h[i]), 1.0)),
        )
    for hi in h:
        res["projector_commutes"] = max(
            res["projector_commutes"],
            rel(np.linalg.norm(p_u @ hi - hi @ p_u), np.linalg.norm(hi)),
        )
        reduced = symmetrize(u.T @ hi @ u)
        _, red_inv = spd_logdet_and_inverse(reduced)
        _, hi_inv = spd_logdet_and_inverse(hi)
        res["reduced_inverse_consistency"] = max(
            res["reduced_inverse_consistency"],
            rel(np.linalg.norm(red_inv - u.T @ hi_inv @ u),
                max(np.linalg.norm(red_inv), 1.0)),
        )
    return res
