"""Quadratic discriminant classifier and error-rate accounting.

The classifier stores one (prior, mean, precision, covariance log-det)
tuple per class and assigns an observation to the class minimizing

    d_i(x) = logdet(Sigma_i) - 2 log(pi_i) + (x - mu_i)' Omega_i (x - mu_i)

with deterministic tie-breaking toward the lowest class id. CerReport
collects estimated conditional error rates across replicates or repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import ClassSummary, LabeledDataset
from .errors import InvalidInputError, SchemaVersionError
from .estimators import PrecisionEstimatorSpec, estimate
from .numerics import median, spd_cholesky, spd_logdet_and_inverse, symmetrize


@dataclass(frozen=True)
class QdaModel:
    """Fitted per-class quantities; immutable after construction."""

    priors: np.ndarray        # (k,)
    means: np.ndarray         # (k, p)
    precisions: np.ndarray    # (k, p, p)
    cov_logdets: np.ndarray   # (k,) log|Sigma_i| = -log|Omega_i|

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=float)
        if abs(priors.sum() - 1.0) > 1e-12:
            raise InvalidInputError(
                f"priors sum to {priors.sum()!r}, expected 1"
            )
        if np.any(priors <= 0):
            raise InvalidInputError("priors must be positive")

    @property
    def k(self) -> int:
        return self.priors.shape[0]

    @property
    def p(self) -> int:
        return self.means.shape[1]


def fit(summaries: list[ClassSummary],
        spec: PrecisionEstimatorSpec) -> QdaModel:
    """Fit QDA with the precision estimator named by spec.

    Estimator failures propagate with the class id attached.
    """
    summaries = sorted(summaries, key=lambda c: c.class_id)
    priors = np.array([c.prior for c in summaries])
    means = np.array([c.mean for c in summaries])
    precisions, logdets = [], []
    for cs in summaries:
        omega = estimate(cs, spec).omega
        precisions.append(omega)
        logdets.append(-2.0 * float(np.sum(np.log(np.diag(spd_cholesky(omega))))))
    return QdaModel(priors=priors, means=means,
                    precisions=np.array(precisions),
                    cov_logdets=np.array(logdets))


def fit_from_parameters(means, covs, priors) -> QdaModel:
    """Population-mode fit from exact parameters, bypassing estimation."""
    means = np.asarray(means, dtype=float)
    precisions, logdets = [], []
    for cov in covs:
        logdet, inv = spd_logdet_and_inverse(cov)
        precisions.append(symmetrize(inv))
        logdets.append(logdet)
    return QdaModel(priors=np.asarray(priors, dtype=float), means=means,
                    precisions=np.array(precisions),
                    cov_logdets=np.array(logdets))


def scores(model: QdaModel, x) -> np.ndarray:
    """Criterion values d_i(x); shape (k,) for one point, (n, k) for many."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != model.p:
        raise InvalidInputError(
            f"point dimension {x2.shape[1]} != model dimension {model.p}"
        )
    out = np.empty((x2.shape[0], model.k))
    const = model.cov_logdets - 2.0 * np.log(model.priors)
    for i in range(model.k):
        diff = x2 - model.means[i]
        out[:, i] = const[i] + np.einsum(
            "nj,nj->n", diff @ model.precisions[i], diff
        )
    return out[0] if single else out


def classify(model: QdaModel, x) -> int | np.ndarray:
    """Class of minimum score; ties break toward the lowest class id."""
    s = scores(model, x)
    if s.ndim == 1:
        return int(np.argmin(s))
    return np.argmin(s, axis=1)


def conditional_error_rate(model: QdaModel, test: LabeledDataset) -> float:
    """Fraction of misclassified observations in the test set."""
    if test.n == 0:
        raise InvalidInputError("test set is empty")
    pred = classify(model, test.features)
    return float(np.mean(pred != test.labels))


REPORT_SCHEMA_VERSION = 1


@dataclass
class CerCell:
    """Error rates for one (method, reduced dimension) combination.

    ``r`` is None for the full-feature baseline. ``rates`` holds one value
    per successful replicate/repeat; ``failures`` counts the units where
    estimation failed (recorded, not fatal).
    """

    method: str
    r: int | None
    rates: list[float] = field(default_factory=list)
    failures: int = 0

    def summary(self) -> dict:
        rates = np.asarray(self.rates, dtype=float)
        out = {
            "method": self.method,
            "r": self.r,
            "n": int(rates.size),
            "failures": self.failures,
        }
        if rates.size:
            out["median"] = median(rates)
            out["mean"] = float(np.mean(rates))
            out["sd"] = float(np.std(rates, ddof=1)) if rates.size > 1 else 0.0
        else:
            out["median"] = out["mean"] = out["sd"] = float("nan")
        return out


@dataclass
class CerReport:
    """Distribution of estimated conditional error rates per method and r."""

    metadata: dict = field(default_factory=dict)
    cells: list[CerCell] = field(default_factory=list)

    def cell(self, method: str, r: int | None) -> CerCell:
        for c in self.cells:
            if c.method == method and c.r == r:
                return c
        c = CerCell(method=method, r=r)
        self.cells.append(c)
        return c

    def methods(self) -> list[str]:
        seen = []
        for c in self.cells:
            if c.method not in seen:
                seen.append(c.method)
        return seen

    def has_failures(self) -> bool:
        return any(c.failures for c in self.cells)

    def summary_rows(self) -> list[dict]:
        return [c.summary() for c in self.cells]

    def validate(self) -> None:
        for c in self.cells:
            arr = np.asarray(c.rates, dtype=float)
            if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
                raise InvalidInputError(
                    f"cell ({c.method}, {c.r}) has rates outside [0, 1]"
                )

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "metadata": self.metadata,
            "cells": [
                {"method": c.method, "r": c.r, "rates": c.rates,
                 "failures": c.failures}
                for c in self.cells
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CerReport":
        version = d.get("schema_version")
        if version != REPORT_SCHEMA_VERSION:
            raise SchemaVersionError(
                f"report schema version {version!r}, "
                f"expected {REPORT_SCHEMA_VERSION}"
            )
        rep = cls(metadata=d.get("metadata", {}))
        for c in d.get("cells", []):
            cell = rep.cell(c["method"], c["r"])
            cell.rates = [float(v) for v in c["rates"]]
            cell.failures = int(c.get("failures", 0))
        return rep
