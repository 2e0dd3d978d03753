"""Datasets, per-class summaries, CSV ingestion, and preprocessing.

A LabeledDataset is an immutable (features, labels) pair with labels coded
0..k-1. ClassSummary holds the per-class sample size, mean, maximum
likelihood covariance (divisor n_i), and prior. Preprocessing follows the
conventions used for real-data benchmarking: studentization fitted on
training data only, and tiny Gaussian jitter to break exact singularity.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  at import time: numpy 2 loads it on first use

from .errors import (
    CsvParseError,
    DegenerateFeatureError,
    InvalidInputError,
    SampleSizeError,
)
from .numerics import symmetrize


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with integer class labels.

    Invariants enforced at construction: features are finite (n, p), labels
    are n integers covering every class 0..k-1 at least once. Arrays are
    stored read-only; all operations return new datasets.
    """

    features: np.ndarray
    labels: np.ndarray
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels)
        if feats.ndim != 2:
            raise InvalidInputError("features must be a 2-D array")
        if not np.isfinite(feats).all():
            raise InvalidInputError("features contain NaN or Inf")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise InvalidInputError(
                f"labels length {labs.shape} does not match n={feats.shape[0]}"
            )
        if labs.size == 0:
            raise InvalidInputError("dataset must be nonempty")
        if not np.issubdtype(labs.dtype, np.integer):
            if not np.all(labs == labs.astype(int)):
                raise InvalidInputError("labels must be integers")
        labs = labs.astype(np.int64)
        if labs.min() < 0:
            raise InvalidInputError("labels must be >= 0")
        k = int(labs.max()) + 1
        counts = np.bincount(labs, minlength=k)
        missing = np.nonzero(counts == 0)[0]
        if missing.size:
            raise InvalidInputError(
                f"classes {missing.tolist()} have no observations"
            )
        if self.label_names is not None and len(self.label_names) != k:
            raise InvalidInputError(
                f"label_names has {len(self.label_names)} entries for k={k}"
            )
        object.__setattr__(self, "features", _readonly(feats))
        object.__setattr__(self, "labels", _readonly(labs))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @property
    def k(self) -> int:
        return int(self.labels.max()) + 1

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)

    def subset(self, idx) -> "LabeledDataset":
        """Row subset; classes must survive (raises otherwise)."""
        return LabeledDataset(self.features[idx], self.labels[idx],
                              self.label_names)

    def with_features(self, feats: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(feats, self.labels, self.label_names)


@dataclass(frozen=True)
class ClassSummary:
    """Per-class sample size, mean, ML covariance (divisor n_i), and prior."""

    class_id: int
    n_i: int
    mean: np.ndarray
    cov: np.ndarray
    prior: float

    def __post_init__(self):
        if self.n_i < 2:
            raise SampleSizeError(f"need at least 2 observations, got {self.n_i}")
        if not (0.0 < self.prior <= 1.0):
            raise InvalidInputError(f"prior must be in (0, 1], got {self.prior}")
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise InvalidInputError("mean/cov shapes are inconsistent")
        if not np.array_equal(cov, cov.T):
            raise InvalidInputError("cov must be exactly symmetric")
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cov", _readonly(cov))

    @property
    def p(self) -> int:
        return self.mean.size


def summarize(ds: LabeledDataset) -> list[ClassSummary]:
    """Per-class means, covariances, and priors.

    Covariances use the maximum likelihood divisor n_i; priors are the class
    proportions n_i / n.
    """
    counts = ds.class_counts()
    small = np.nonzero(counts < 2)[0]
    if small.size:
        raise SampleSizeError(
            f"classes {small.tolist()} have fewer than 2 observations"
        )
    priors = counts / ds.n
    out = []
    for i in range(ds.k):
        x = ds.features[ds.labels == i]
        n_i = x.shape[0]
        mean = x.mean(axis=0)
        centered = x - mean
        cov = symmetrize(centered.T @ centered / n_i)
        out.append(ClassSummary(class_id=i, n_i=n_i, mean=mean, cov=cov,
                                prior=float(priors[i])))
    return out


def standardize(train: LabeledDataset, apply_to: LabeledDataset
                ) -> tuple[LabeledDataset, LabeledDataset]:
    """Center and scale both datasets using statistics from `train` only.

    Scale is the sample standard deviation (divisor n - 1), pooled over
    classes. A zero-variance training column raises DegenerateFeatureError
    naming the column; jitter the data first if that is expected.
    """
    if train.p != apply_to.p:
        raise InvalidInputError(
            f"dimension mismatch: train p={train.p}, apply_to p={apply_to.p}"
        )
    center = train.features.mean(axis=0)
    scale = train.features.std(axis=0, ddof=1)
    dead = np.nonzero(scale == 0.0)[0]
    if dead.size:
        raise DegenerateFeatureError(
            f"feature column {dead[0]} has zero variance on the training data",
            column=int(dead[0]),
        )
    return (
        train.with_features((train.features - center) / scale),
        apply_to.with_features((apply_to.features - center) / scale),
    )


def jitter(ds: LabeledDataset, sigma: float, seed: int) -> LabeledDataset:
    """Add i.i.d. N(0, sigma^2) noise to every feature entry.

    Deterministic given the seed; used to break exact covariance singularity
    in discrete-valued data. sigma must be > 0.
    """
    if not sigma > 0:
        raise InvalidInputError(f"jitter sigma must be > 0, got {sigma}")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=ds.features.shape)
    return ds.with_features(ds.features + noise)


def load_csv(path, label_column=-1, header: bool = True) -> LabeledDataset:
    """Load a labeled dataset from an RFC-4180-style CSV file.

    Parameters
    ----------
    path : str or Path
        UTF-8 CSV file.
    label_column : int or str
        Column holding the class label, by zero-based index (negative counts
        from the end) or by header name (requires header=True).
    header : bool
        Whether the first row is a header.

    Labels are coded 0..k-1 in order of first appearance. Raises
    CsvParseError with the 1-based offending line number on ragged rows or
    unparseable numerics.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if row:
                    rows.append((reader.line_num, row))
        except csv.Error as exc:
            raise CsvParseError(str(exc), line=reader.line_num) from exc
    if not rows:
        raise CsvParseError("file is empty", line=1)

    names = None
    if header:
        names = [c.strip() for c in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise CsvParseError("no data rows after header", line=1)

    ncols = len(rows[0][1])
    if isinstance(label_column, str):
        if names is None:
            raise InvalidInputError("label column by name requires header=True")
        try:
            label_idx = names.index(label_column)
        except ValueError:
            raise CsvParseError(
                f"label column {label_column!r} not in header {names}", line=1
            ) from None
    else:
        label_idx = int(label_column)
        if label_idx < 0:
            label_idx += ncols
        if not 0 <= label_idx < ncols:
            raise InvalidInputError(
                f"label column index {label_column} out of range for {ncols} columns"
            )

    feats, raw_labels = [], []
    for line_num, row in rows:
        if len(row) != ncols:
            raise CsvParseError(
                f"expected {ncols} fields, got {len(row)}", line=line_num
            )
        vals = []
        for j, cell in enumerate(row):
            if j == label_idx:
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise CsvParseError(
                    f"cannot parse numeric value {cell!r} in column {j}",
                    line=line_num,
                ) from None
        feats.append(vals)
        raw_labels.append(row[label_idx].strip())

    mapping = {}
    labels = []
    for lab in raw_labels:
        if lab not in mapping:
            mapping[lab] = len(mapping)
        labels.append(mapping[lab])

    return LabeledDataset(np.asarray(feats, dtype=float),
                          np.asarray(labels, dtype=np.int64),
                          tuple(mapping))


def write_csv(ds: LabeledDataset, path, label_column_name: str = "label",
              header: bool = True) -> None:
    """Write a dataset as CSV (features in order, label last).

    Floats are written with repr precision so load_csv(write_csv(ds))
    round-trips exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow([f"x{j}" for j in range(ds.p)] + [label_column_name])
        for i in range(ds.n):
            lab = int(ds.labels[i])
            name = (ds.label_names[lab] if ds.label_names is not None
                    else str(lab))
            writer.writerow([repr(float(v)) for v in ds.features[i]] + [name])
