"""Monte Carlo and cross-validation benchmarking of the reduction pipelines.

A pipeline is one precision estimator plus a sweep over reduced dimensions.
A work unit (a Monte Carlo replicate, or a CV repeat of k folds)
studentizes each training/test split if the pipeline asks
(``_studentized``) and turns them into sweep jobs (``_split_jobs``): it
tunes the MRY penalty of every training set of the unit in one
``tune_lambda`` call if asked, then, per split, builds the discriminant
matrix, and one stacked SVD (``_bases``) gives every split its projection
basis U. The full-feature baseline "qda_full" is one more job per split,
with U = I_p and r = p (``_full_job``), so it and every reduced cell come
from one QDA rule. The unit's one ``_sweep_cers`` pass records for each
job and r the estimated conditional error rate of plain QDA on the class
summaries rotated onto the basis, applied to the projected test data. One
Cholesky factor L per class serves every r of a job: test rows are scored
through the whitened projection L^-1 B' (B the basis), one matrix product
per job and block of test rows for all its classes. ``_study_report``
turns the per-unit results into a CerReport. A split (``_Split``)
summarizes its training part once, for the tuning grid, the final fit and
the baseline; pipelines that do not studentize share the unit's raw split.
Penalty tuning summarizes each tuning split once, solves candidate k of
every training set as one ``mry_batch`` over every (set, split, class)
problem, each solve resuming the final ADMM state of its solve at the
previous candidate, and scores candidate k of every (set, split) job in one
stacked pass: one ``discriminant_matrix_from`` over the stack, one
``_bases`` SVD and one ``_sweep_cers``. Every stacked step gives each job
its result alone bit for bit, and a job that fails (a non-finite matrix, an
SVD that does not converge, a failed pivot) fails alone.

Reproducibility contract: every work unit (replicate, repeat, tuning split)
derives its RNG stream from the master seed and the unit index via
SeedSequence spawn keys, never from execution order, so results are
identical for any parallelism degree.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice

import numpy as np

from .datamodel import LabeledDataset, jitter, standardize, summarize
from .errors import InvalidInputError, SsdrError, StratificationError, TuningError
from .estimators import (
    IS_BOOL,
    IS_COUNT,
    IS_POSITIVE,
    PrecisionEstimatorSpec,
    at_least,
    check_fields,
    is_int,
    mry,  # noqa: F401 -- not called here; perfbench/tracing.py wraps this name
    mry_batch,
    one_of,
)
from .numerics import (
    cholesky_prefix,
    lower_solve,
    median,
    spd_cholesky,
    svd_full,
    symmetrize,
)
from .qda import CerReport
from .reduction import build_discriminant_matrix, discriminant_matrix_from

# spawn-key namespaces for per-unit RNG streams
_NS_PARAMS = 0
_NS_REPLICATE = 1
_NS_CV_REPEAT = 2
_NS_JITTER = 3

N_POLICIES = ("p+1", "2p", "6p")
# n_policy is a policy name or an explicit n_i
_POLICY_NAME, _EXPLICIT_N_I = one_of(N_POLICIES), at_least(2)
_N_POLICY = (lambda v: _POLICY_NAME[0](v) or _EXPLICIT_N_I[0](v),
             f"{_POLICY_NAME[1]} or {_EXPLICIT_N_I[1]}")

# The dimension sweep scores test rows in blocks of this many, so its
# (r, rows) score arrays stay small however large the test set is.
_SWEEP_BLOCK_ROWS = 2048

# Share of each class held out to score penalty candidates when tuning
# without inner folds.
_VALIDATION_FRACTION = 0.25
# Tuning fits only need validation-grade accuracy; candidates that cannot
# converge within this budget are dropped from the grid. The final fit
# always runs at the estimator's own tolerance and budget.
_TUNING_ADMM_TOL = 1e-4
_TUNING_ADMM_MAX_ITERS = 1000
# The tuning grid's size, and its bounds as multiples of its scale (see
# lambda_grid).
_LAMBDA_GRID_SIZE = 10
_LAMBDA_C_LO = 1e-3
_LAMBDA_C_HI = 1.0


@dataclass(frozen=True)
class SimulationConfig:
    """One of the four multivariate-normal benchmark configurations."""

    config_id: int
    p: int
    means: tuple
    covs: tuple
    n_i: int
    n_policy: str
    replicates: int
    master_seed: int
    pool_size: int = 5000

    @property
    def k(self) -> int:
        return len(self.means)


def _config2_sigma3() -> np.ndarray:
    s = np.full((10, 10), 1.0)
    np.fill_diagonal(s, 2.0)
    s[2, :] = 0.0
    s[:, 2] = 0.0
    s[2, 2] = 10.0
    return s


_CONFIG3_SIGMA = np.array([
    [10, 4, 5, 4, 3, 4, 4, 5, 4, 3],
    [4, 10, 5, 2, 4, 3, 3, 5, 4, 3],
    [5, 5, 10, 5, 5, 3, 4, 4, 4, 4],
    [4, 2, 5, 10, 3, 4, 2, 3, 4, 3],
    [3, 4, 5, 3, 12, 3, 4, 5, 3, 3],
    [4, 3, 3, 4, 3, 9, 3, 4, 4, 4],
    [4, 3, 4, 2, 4, 3, 14, 2, 2, 2],
    [5, 5, 4, 3, 5, 4, 2, 12, 1, -0.5],
    [4, 4, 4, 4, 3, 4, 2, 1, 14, -1],
    [3, 3, 4, 3, 3, 4, 2, -0.5, -1, 11],
], dtype=float)

_CONFIG2_MU1 = np.array(
    [-1.43, -0.66, -0.94, 0.31, -0.19, 0.89, 0.25, -0.34, 1.25, -1.60]
)


def simulation_config(config_id: int, n_policy, replicates: int = 200,
                      master_seed: int = 0,
                      pool_size: int = 5000) -> SimulationConfig:
    """Materialize a benchmark configuration.

    Configurations: (1) two spherical classes, p=10, mean shift of one;
    (2) three classes with spherical, intra-class, and spiked covariances,
    p=10; (3) three classes, two sharing a dense covariance, one spherical,
    p=10, large mean shifts; (4) two classes, p=50, spherical vs intra-class
    covariance, second mean drawn once uniform(0, 1) from the master seed.

    n_policy is one of "p+1", "2p", "6p", or an explicit n_i >= 2, which
    must be below pool_size. A bad value raises InvalidInputError naming
    its parameter in ``field``.
    """
    check_fields(locals(), {  # the parameters, before any other name is bound
        "config_id": one_of((1, 2, 3, 4)), "n_policy": _N_POLICY,
        "replicates": IS_COUNT, "master_seed": at_least(0),
        "pool_size": IS_COUNT})
    if config_id == 1:
        p = 10
        means = (np.zeros(p), np.ones(p))
        covs = (np.eye(p), np.eye(p))
    elif config_id == 2:
        p = 10
        means = (_CONFIG2_MU1.copy(), _CONFIG2_MU1 + 1.0, _CONFIG2_MU1 + 2.0)
        covs = (np.eye(p), np.eye(p) + np.ones((p, p)), _config2_sigma3())
    elif config_id == 3:
        p = 10
        means = (np.zeros(p), np.full(p, 5.0), np.full(p, 10.0))
        covs = (_CONFIG3_SIGMA.copy(), _CONFIG3_SIGMA.copy(), np.eye(p))
    else:  # config 4
        p = 50
        # drawn once per study
        mu2 = _stream(master_seed, _NS_PARAMS).uniform(0.0, 1.0, size=p)
        means = (np.zeros(p), mu2)
        covs = (np.eye(p), np.eye(p) + 2.0 * np.ones((p, p)))

    n_i = int({"p+1": p + 1, "2p": 2 * p, "6p": 6 * p}.get(n_policy, n_policy))
    check_fields({"pool_size": pool_size}, {"pool_size": at_least(n_i + 1)})
    return SimulationConfig(
        config_id=config_id, p=p,
        means=tuple(means), covs=tuple(symmetrize(c) for c in covs),
        n_i=n_i, n_policy=str(n_policy), replicates=replicates,
        master_seed=master_seed, pool_size=pool_size,
    )


@dataclass(frozen=True)
class PipelineSpec:
    """One estimator plus the dimension sweep and preprocessing flags.

    ``dims`` of None means sweep r = 1..p. For MRY estimators with
    ``tune_mry_lambda``, the penalty parameter is selected per training set
    by grid search over a fixed geometric grid in the units of the sample
    covariances (see lambda_grid). A bad value raises InvalidInputError
    naming its field in ``field``: ``name`` must be a string, ``estimator``
    a PrecisionEstimatorSpec, ``dims`` None or a tuple of integers, and the
    flags true or false. ``resolved_dims`` checks ``dims`` against p.
    """

    name: str
    estimator: PrecisionEstimatorSpec
    dims: tuple | None = None
    standardize: bool = False
    tune_mry_lambda: bool = True

    def __post_init__(self):
        check_fields(vars(self), {
            "name": (lambda v: isinstance(v, str), "a string"),
            "estimator": (lambda v: isinstance(v, PrecisionEstimatorSpec),
                          "a PrecisionEstimatorSpec"),
            "dims": (lambda v: v is None or isinstance(v, (tuple, list))
                     and all(is_int(r) for r in v),
                     "None or a tuple of integers"),
            "standardize": IS_BOOL, "tune_mry_lambda": IS_BOOL})

    def resolved_dims(self, p: int) -> tuple:
        dims = tuple(range(1, p + 1)) if self.dims is None else tuple(self.dims)
        if not dims:
            raise InvalidInputError("dimension sweep is empty")
        if any(not 1 <= r <= p for r in dims):
            raise InvalidInputError(f"dims {dims} outside 1..{p}")
        if len(set(dims)) != len(dims):
            raise InvalidInputError(f"dims {dims} repeat a dimension")
        return dims


def mvn_sample(mean, cov, n: int, seed) -> np.ndarray:
    """Draw n multivariate normal rows mean + L z, deterministic per seed."""
    mean = np.asarray(mean, dtype=float)
    chol = spd_cholesky(cov)
    rng = np.random.default_rng(seed)
    return _mvn_rows(mean, chol, n, rng)


def _mvn_rows(mean: np.ndarray, chol: np.ndarray, n: int,
              rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, mean.size))
    return mean + z @ chol.T


def _stream(seed: int, *spawn_key) -> np.random.Generator:
    """The RNG stream of one unit, from the master seed and its spawn key."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=spawn_key))


@dataclass(frozen=True)
class _Split:
    """A training/test split of a work unit. Its training part is
    summarized once, on first use, for every consumer of the split: the
    tuning grid, the final fit and the qda_full job."""

    train: LabeledDataset
    test: LabeledDataset | None

    @cached_property
    def summaries(self) -> list:
        return summarize(self.train)


def _full_job(split: _Split | None, p: int) -> tuple:
    """The split's qda_full sweep job: its summaries and test set with
    U = I_p, scored at r = p only. U is None when the split is None or its
    training part cannot be summarized."""
    if split is not None:
        try:
            return split.summaries, split.test, np.eye(p), (p,)
        except SsdrError:
            pass
    return None, None, None, (p,)


def _bases(mhats) -> list:
    """The sign-fixed U of each discriminant matrix of a (J, p, s) stack,
    from one stacked SVD; None for a matrix that is not finite or whose SVD
    does not converge. When the stacked SVD fails, each matrix is retried
    alone, so one matrix cannot fail another."""
    try:
        return list(svd_full(mhats)[0])
    except SsdrError:
        pass
    bases = []
    for mhat in mhats:
        try:
            bases.append(svd_full(mhat)[0])
        except SsdrError:
            bases.append(None)
    return bases


def _sweep_cers(jobs) -> list:
    """Reduced-QDA error per r in dims of each job (summaries, test, U,
    dims), in one pass over every job; None for a job whose U is None.

    Each class summary is rotated onto B, the first max(dims) columns of its
    job's U, as mean B and B' S B, not re-estimated from projected rows; the
    moments for dimension r are their leading r x r block, and the Cholesky
    factor L_r of a leading block is the leading block of the full factor L.
    So the whitened projection z = A x - a of a test row x, with A = L^-1 B'
    and a = L^-1 B' mean, gives its QDA score at every r as a prefix sum,
    cumsum(z**2) + 2 cumsum(log diag L) - 2 log prior. Each row goes to the
    class of lowest score, ties to the lowest class id as in qda.classify.

    Class i supports r up to the smallest of its first failed pivot, n_i - 1
    and max(dims): the ML covariance of n_i rows has rank at most n_i - 1,
    so every larger block is exactly singular and only roundoff would decide
    whether its pivot passes. An r past any class's prefix is missing
    (None); so is r = p of a U = I_p job (qda_full) when some n_i <= p.

    The moments of every (job, class) of equal max(dims) are rotated by one
    stacked product and factored by one stacked Cholesky, and the whitening
    systems of equal q are solved by one stacked solve; a job's test rows
    are scored in blocks of _SWEEP_BLOCK_ROWS, each by one product with its
    classes' stacked A, and compared at its dims only. A job's result is the
    one it gets alone, bit for bit.
    """
    live = {i: job for i, job in enumerate(jobs) if job[2] is not None}
    plans = {}  # (q, [(cs, mean, L, valid)], [A | a] blocks) of each job
    systems = []  # (blocks, q, L_q, [B_q' | B_q' mean]) of each class
    for m in {max(job[3]) for job in live.values()}:  # one rotation per m
        group = [i for i, job in live.items() if max(job[3]) == m]
        classes = [cs for i in group for cs in live[i][0]]
        bases = np.stack([live[i][2][:, :m] for i in group for _ in live[i][0]])
        rot_covs = (bases.transpose(0, 2, 1)
                    @ np.stack([cs.cov for cs in classes]) @ bases)
        rot_means = (np.stack([cs.mean for cs in classes])[:, None, :]
                     @ bases)[:, 0, :]
        moments = zip(classes, rot_means, *cholesky_prefix(rot_covs))
        for i in group:
            summaries, _, u, _ = live[i]
            parts = list(islice(moments, len(summaries)))
            q = min(m, *(min(valid, cs.n_i - 1) for cs, *_, valid in parts))
            plans[i] = q, parts, []
            systems += [(plans[i][2], q, chol[:q, :q],
                         np.column_stack([u[:, :q].T, mean[:q]]))
                        for _, mean, chol, _ in parts]
    for q in {s[1] for s in systems}:  # one stacked solve per q
        group = [s for s in systems if s[1] == q]
        solved = lower_solve(np.stack([s[2] for s in group]),
                             np.stack([s[3] for s in group]))
        for (blocks, *_), white in zip(group, solved):
            blocks.append(white)
    out = [None] * len(jobs)
    for i, (q, parts, blocks) in plans.items():
        _, test, _, dims = jobs[i]
        scored = sorted(r for r in dims if r <= q)
        # the rows of r compared: a view when they are all of 1..q
        pick = slice(None) if len(scored) == q else [r - 1 for r in scored]
        white = np.concatenate(blocks)  # [A | a]
        consts = np.stack([2.0 * np.cumsum(np.log(np.diag(chol[:q, :q])))
                           - 2.0 * np.log(cs.prior)
                           for cs, _, chol, _ in parts])[:, pick, None]
        misses = np.zeros(len(scored), dtype=np.int64)
        for start in range(0, test.n, _SWEEP_BLOCK_ROWS):
            rows = slice(start, start + _SWEEP_BLOCK_ROWS)
            z = white[:, :-1] @ test.features[rows].T - white[:, -1:]
            score = np.square(z, out=z).reshape(len(parts), q, z.shape[1])
            for r in range(1, q):  # cumsum's sequential sums, across rows
                score[:, r] += score[:, r - 1]
            score = score[:, pick]
            score += consts
            best, pred = score[0], np.full(score.shape[1:], parts[0][0].class_id)
            for (cs, *_), s in zip(parts[1:], score[1:]):
                pred[s < best] = cs.class_id
                np.minimum(best, s, out=best)
            misses += np.count_nonzero(pred != test.labels[rows], axis=1)
        out[i] = dict.fromkeys(dims)
        out[i].update(zip(scored, (misses / test.n).tolist()))
    return out


def _studentized(split: _Split, pipeline: PipelineSpec):
    """The split as ``pipeline`` sees it: the same split, or a new one
    studentized on the training part when it asks, None when the training
    part cannot be studentized."""
    if not pipeline.standardize:
        return split
    try:
        return _Split(*standardize(split.train, split.test))
    except SsdrError:
        return None


def _split_jobs(splits, pipeline: PipelineSpec, rngs, dims,
                inner_folds: int | None = None) -> list:
    """Each split's sweep job (summaries, test, U, dims) for one pipeline.

    ``splits`` are a work unit's splits as the pipeline sees them
    (``_studentized``), None where the training part could not be
    studentized; ``rngs`` holds one generator per split, which draws the
    split's tuning splits. A tuning MRY pipeline first tunes the penalty of
    every usable training set in one ``tune_lambda`` call. Then, per split,
    the class precisions are fitted and the discriminant matrix is built;
    the matrices of all splits share one ``_bases`` SVD. U is None for a
    split that is None, whose tuning failed or whose fit or SVD failed.
    """
    spec = pipeline.estimator
    usable = [i for i, split in enumerate(splits) if split is not None]
    specs = dict.fromkeys(usable, spec)
    if spec.kind == "mry" and pipeline.tune_mry_lambda:
        try:
            tuned = tune_lambda([splits[i] for i in usable], pipeline,
                                [rngs[i] for i in usable], inner_folds)
        except SsdrError as exc:  # a set-up error shared by every set
            tuned = [exc] * len(usable)
        specs = {i: spec.with_lambda(lam) for i, lam in zip(usable, tuned)
                 if not isinstance(lam, SsdrError)}
    fitted = {}
    for i, fit_spec in specs.items():
        try:
            fitted[i] = build_discriminant_matrix(splits[i].summaries, fit_spec)
        except SsdrError:
            pass  # every r stays missing
    jobs = [(None, None, None, dims)] * len(splits)
    if fitted:
        for i, u in zip(fitted, _bases(np.stack(list(fitted.values())))):
            jobs[i] = (splits[i].summaries, splits[i].test, u, dims)
    return jobs


def lambda_grid(summaries) -> np.ndarray:
    """Geometric penalty grid of _LAMBDA_GRID_SIZE points over
    [_LAMBDA_C_LO * m, _LAMBDA_C_HI * m], in the units of S.

    m is the largest off-diagonal |S_ij| over the class sample covariances:
    at lambda = m the simple-penalty solution turns diagonal (Friedman,
    Hastie and Tibshirani 2008), so the grid scales with the data, as the
    penalty does. When every S is diagonal (or p = 1), m falls back to the
    largest diagonal entry.
    """
    covs = [np.asarray(cs.cov) for cs in summaries]
    scale = max(float(np.max(np.abs(c - np.diag(np.diag(c))))) for c in covs)
    if scale == 0:
        scale = max(float(np.max(np.diag(c))) for c in covs)
    if not scale > 0:
        raise TuningError("class covariances are all zero")
    return np.geomspace(_LAMBDA_C_LO * scale, _LAMBDA_C_HI * scale,
                        _LAMBDA_GRID_SIZE)


def _holdout_mask(ds: LabeledDataset, rng: np.random.Generator):
    """Validation rows of a per-class split: ~_VALIDATION_FRACTION of each."""
    val_mask = np.zeros(ds.n, dtype=bool)
    for c in range(ds.k):
        idx = np.nonzero(ds.labels == c)[0]
        idx = idx[rng.permutation(idx.size)]
        n_val = max(1, int(round(_VALIDATION_FRACTION * idx.size)))
        n_val = min(n_val, idx.size - 2)  # keep >= 2 rows for summaries
        if n_val < 1:
            raise StratificationError(
                f"class {c} too small ({idx.size}) for a validation split"
            )
        val_mask[idx[:n_val]] = True
    return val_mask


def _stratified_fold_ids(labels: np.ndarray, folds: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Fold id per row, preserving class proportions."""
    counts = np.bincount(labels)
    small = np.nonzero(counts < folds)[0]
    if small.size:
        raise StratificationError(
            f"classes {small.tolist()} have fewer than {folds} observations"
        )
    assign = np.empty(labels.size, dtype=int)
    for c in range(counts.size):
        idx = np.nonzero(labels == c)[0]
        idx = idx[rng.permutation(idx.size)]
        assign[idx] = np.arange(idx.size) % folds
    return assign


class _TuningSplit:
    """One training/validation split of a set being tuned."""

    def __init__(self, train: LabeledDataset, held_out: np.ndarray):
        self.summaries = summarize(train.subset(~held_out))
        self.val = train.subset(held_out)
        self.warm = [None] * len(self.summaries)  # each class's next start
        self.scores = {}  # candidate -> best-over-r error, None if it failed


def _tuning_set(split: _Split, rng: np.random.Generator,
                inner_folds: int | None):
    """(ascending grid, tuning splits) of one training set."""
    train = split.train
    grid = lambda_grid(split.summaries)
    if inner_folds is None:
        splits = [_TuningSplit(train, _holdout_mask(train, rng))]
    else:
        fold_ids = _stratified_fold_ids(train.labels, inner_folds, rng)
        splits = [_TuningSplit(train, fold_ids == f)
                  for f in range(inner_folds)]
    return grid, splits


def _selected_lambda(grid, splits):
    """The candidate of least mean score over the splits, or TuningError
    when no candidate scored on every split. Ties (and flat profiles)
    resolve toward the largest penalty, i.e. the sparsest estimate."""
    best_lam, best_score = None, np.inf
    for lam in grid:  # ascending; <= prefers larger lambda on ties
        vals = [sp.scores[float(lam)] for sp in splits]
        if any(v is None for v in vals):
            continue
        score = float(np.mean(vals))
        if score <= best_score:
            best_lam, best_score = float(lam), score
    if best_lam is None:
        return TuningError("every penalty candidate failed estimation")
    return best_lam


def tune_lambda(splits, pipeline: PipelineSpec, rngs,
                inner_folds: int | None = None) -> list:
    """Select the MRY penalty of the training set of each of ``splits``
    (``_Split`` objects of one dataset, so they share p and the classes; the
    test parts are not read) by validation error over its ``lambda_grid``.

    With ``inner_folds`` None, each candidate is fitted on a per-class
    training split of the set and scored by its best-over-r error on the
    held-out rest; otherwise that error is averaged over ``inner_folds``
    stratified folds. The set's generator in ``rngs`` draws its split, so
    each set is tuned as if alone; a split keeps class summaries, not its
    training rows. Candidates run from the largest penalty down, and
    candidate k of every set is one ``mry_batch`` over every (set, split,
    class) problem. Each class's solve starts from the final ADMM state of
    its solve at the previous candidate, as if each split's classes were
    fitted in order: a failed class drops the candidate for its split, and
    it and the classes after it keep their previous state. The (set, split)
    jobs whose classes all converged are then scored together: one stacked
    discriminant matrix, one ``_bases`` SVD and one ``_sweep_cers`` pass.

    Returns per set its penalty, or the typed error that ended its tuning
    (StratificationError when its folds cannot be drawn, TuningError when
    every candidate failed), so one set cannot fail another.
    """
    check_fields(vars(pipeline.estimator), {"kind": one_of(("mry",))})
    base = replace(
        pipeline.estimator,
        admm_tol=max(pipeline.estimator.admm_tol, _TUNING_ADMM_TOL),
        admm_max_iters=min(pipeline.estimator.admm_max_iters,
                           _TUNING_ADMM_MAX_ITERS),
    )
    sets = []
    for split, rng in zip(splits, rngs, strict=True):
        try:
            sets.append(_tuning_set(split, rng, inner_folds))
        except SsdrError as exc:
            sets.append(exc)
    live = [ts for ts in sets if not isinstance(ts, SsdrError)]
    if live:
        dims = pipeline.resolved_dims(splits[0].train.p)
    for k in range(max((grid.size for grid, _ in live), default=0)):
        jobs = [(float(grid[-1 - k]), sp) for grid, tsplits in live
                if k < grid.size for sp in tsplits]
        fits = mry_batch(
            [cs for _, sp in jobs for cs in sp.summaries], base,
            [w for _, sp in jobs for w in sp.warm],
            [lam for lam, sp in jobs for _ in sp.summaries])
        scored = []  # (lambda, split, class precisions) of whole candidates
        for lam, sp in jobs:
            omegas = []
            for c, fit in enumerate(fits[:len(sp.summaries)]):
                if isinstance(fit, SsdrError):
                    break
                sp.warm[c] = fit.state
                omegas.append(fit.omega)
            fits = fits[len(sp.summaries):]
            sp.scores[lam] = None
            if len(omegas) == len(sp.summaries):
                scored.append((lam, sp, omegas))
        if not scored:
            continue
        classes = range(len(scored[0][1].summaries))
        mhats = discriminant_matrix_from(
            [np.stack([sp.summaries[c].mean for _, sp, _ in scored])
             for c in classes],
            [np.stack([sp.summaries[c].cov for _, sp, _ in scored])
             for c in classes],
            [np.stack([omegas[c] for _, _, omegas in scored])
             for c in classes])
        swept = _sweep_cers([(sp.summaries, sp.val, u, dims) for (_, sp, _), u
                             in zip(scored, _bases(mhats))])
        for (lam, sp, _), cers in zip(scored, swept):
            vals = [v for v in (cers or {}).values() if v is not None]
            sp.scores[lam] = min(vals) if vals else None
    return [ts if isinstance(ts, SsdrError) else _selected_lambda(*ts)
            for ts in sets]


def _mc_replicate_worker(args) -> dict:
    cfg, pipelines, j = args
    rng = _stream(cfg.master_seed, _NS_REPLICATE, j)
    pools = []
    for mu, cov in zip(cfg.means, cfg.covs):
        pool = _mvn_rows(np.asarray(mu), spd_cholesky(cov), cfg.pool_size, rng)
        pools.append(pool[rng.permutation(cfg.pool_size)])
    split = _Split(
        LabeledDataset(np.vstack([x[:cfg.n_i] for x in pools]),
                       np.repeat(np.arange(cfg.k), cfg.n_i)),
        LabeledDataset(np.vstack([x[cfg.n_i:] for x in pools]),
                       np.repeat(np.arange(cfg.k), cfg.pool_size - cfg.n_i)))

    jobs = [_full_job(split, cfg.p)]
    for idx, pl in enumerate(pipelines):
        jobs += _split_jobs([_studentized(split, pl)], pl,
                            [_stream(cfg.master_seed, _NS_REPLICATE, j, idx)],
                            pl.resolved_dims(cfg.p))
    full, *swept = _sweep_cers(jobs)
    out = {("qda_full", None): (full or {}).get(cfg.p)}
    for pl, (*_, dims), cers in zip(pipelines, jobs[1:], swept):
        out.update(((pl.name, r), (cers or {}).get(r)) for r in dims)
    return out


def _parallel_map(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items, chunksize=max(1, len(items) // (4 * threads))))


def _study_report(metadata: dict, pipelines, p: int, results) -> CerReport:
    """Fold per-unit {(method, r): rate or None} results into one report.

    Cells are the qda_full baseline, then every pipeline's dimensions in
    order; a None rate counts as a failure of its cell.
    """
    report = CerReport(metadata=metadata)
    keys = [("qda_full", None)] + [
        (pl.name, r) for pl in pipelines for r in pl.resolved_dims(p)]
    for key in keys:
        cell = report.cell(*key)
        for res in results:
            rate = res.get(key)
            if rate is None:
                cell.failures += 1
            else:
                cell.rates.append(rate)
    report.validate()
    return report


# a study's pipelines: specs of distinct names, none of them "qda_full"
_PIPELINES = (lambda v: all(isinstance(pl, PipelineSpec) for pl in v)
              and len({pl.name for pl in v} - {"qda_full"}) == len(v),
              "PipelineSpecs of distinct names other than 'qda_full'")


def run_mc_study(cfg: SimulationConfig, pipelines,
                 threads: int = 1) -> CerReport:
    """Monte Carlo study: per replicate, draw per-class pools, train on the
    first n_i rows of each shuffled pool, test on the remainder, and record
    error rates for the full-feature baseline and every (pipeline, r).

    Estimator failures mark cells missing for that replicate and are counted
    in the report, never fatal. The baseline is the sweep's QDA at r = p
    with U = I_p, so it is missing when a training class has n_i <= p.
    ``pipelines`` must be PipelineSpecs of distinct names other than
    "qda_full", and ``threads`` an integer >= 1.
    """
    pipelines = list(pipelines)
    check_fields(locals(), {"pipelines": _PIPELINES, "threads": IS_COUNT})
    for pl in pipelines:
        pl.resolved_dims(cfg.p)
    args = [(cfg, pipelines, j) for j in range(cfg.replicates)]
    results = _parallel_map(_mc_replicate_worker, args, threads)

    return _study_report({
        "kind": "simulate",
        "config_id": cfg.config_id,
        "p": cfg.p,
        "k": cfg.k,
        "n_i": cfg.n_i,
        "n_policy": cfg.n_policy,
        "pool_size": cfg.pool_size,
        "replicates": cfg.replicates,
        "master_seed": cfg.master_seed,
        "means": [np.asarray(m).tolist() for m in cfg.means],
        "pipelines": [pl.name for pl in pipelines],
    }, pipelines, cfg.p, results)


def _cv_repeat_worker(args) -> dict:
    ds, pipeline, folds, seed, t, dims, inner_folds = args
    fold_ids = _stratified_fold_ids(ds.labels, folds,
                                    _stream(seed, _NS_CV_REPEAT, t))
    splits = [_studentized(_Split(ds.subset(fold_ids != f),
                                  ds.subset(fold_ids == f)), pipeline)
              for f in range(folds)]
    # unlike the Monte Carlo baseline, qda_full sees the studentized fold
    jobs = [_full_job(split, ds.p) for split in splits] + _split_jobs(
        splits, pipeline, [_stream(seed, _NS_CV_REPEAT, t, f)
                           for f in range(folds)], dims, inner_folds)
    swept = [cers or {} for cers in _sweep_cers(jobs)]
    per_fold = {("qda_full", None): [c.get(ds.p) for c in swept[:folds]]}
    per_fold.update(((pipeline.name, r), [c.get(r) for c in swept[folds:]])
                    for r in dims)
    return {key: None if None in vals else float(np.mean(vals))
            for key, vals in per_fold.items()}


def repeated_kfold_cv(ds: LabeledDataset, pipeline: PipelineSpec,
                      folds: int = 10, repeats: int = 50, seed: int = 0,
                      threads: int = 1, inner_folds: int = 5,
                      jitter_sigma: float | None = None) -> CerReport:
    """Repeated stratified k-fold cross-validation.

    Per repeat: one stratified fold assignment; the recorded rate for a cell
    is the mean of its fold error rates. The report aggregates those means
    across repeats. An MRY pipeline tunes its penalty on each training fold
    over ``inner_folds`` stratified inner folds. Jitter (when
    ``jitter_sigma`` is given) is applied once to the full dataset up front
    with a seed derived from the master seed; studentization is fitted per
    training fold. qda_full, the sweep's QDA at r = p with U = I_p on the
    studentized fold, is missing when a training class has n_i <= p.

    ``folds`` and ``inner_folds`` must be integers >= 2, ``repeats`` and
    ``threads`` >= 1, ``seed`` >= 0, and ``jitter_sigma`` None or > 0; a
    bad value raises InvalidInputError naming its parameter in ``field``.
    """
    check_fields(locals(), {  # the parameters
        "pipeline": (lambda v: isinstance(v, PipelineSpec), "a PipelineSpec"),
        "folds": at_least(2), "inner_folds": at_least(2), "repeats": IS_COUNT,
        "seed": at_least(0), "threads": IS_COUNT,
        "jitter_sigma": (lambda v: v is None or IS_POSITIVE[0](v),
                         f"None or {IS_POSITIVE[1]}")})
    jitter_seed = None
    if jitter_sigma is not None:
        jitter_seed = int(np.random.SeedSequence(
            seed, spawn_key=(_NS_JITTER,)).generate_state(1)[0])
        ds = jitter(ds, jitter_sigma, jitter_seed)
    dims = pipeline.resolved_dims(ds.p)
    _stratified_fold_ids(ds.labels, folds, np.random.default_rng(0))  # validate sizes
    args = [(ds, pipeline, folds, seed, t, dims, inner_folds)
            for t in range(repeats)]
    results = _parallel_map(_cv_repeat_worker, args, threads)

    return _study_report({
        "kind": "cv",
        "n": ds.n, "p": ds.p, "k": ds.k,
        "folds": folds, "repeats": repeats, "master_seed": seed,
        "inner_folds": inner_folds,
        "standardize": pipeline.standardize,
        "jitter_sigma": jitter_sigma,
        "jitter_seed": jitter_seed,
        "pipelines": [pipeline.name],
    }, [pipeline], ds.p, results)


def select_dimension(report: CerReport, method: str | None = None):
    """Best reduced dimension: argmin of the median rate, ties to smaller r.

    Returns (r_star, median_at_r_star). ``method`` may be omitted when the
    report sweeps dimensions for exactly one method.
    """
    dim_cells = [c for c in report.cells if c.r is not None and c.rates]
    if method is not None:
        dim_cells = [c for c in dim_cells if c.method == method]
    else:
        methods = {c.method for c in dim_cells}
        if len(methods) > 1:
            raise InvalidInputError(
                f"report covers methods {sorted(methods)}; pass method="
            )
    if not dim_cells:
        raise InvalidInputError("report has no dimension sweep to select from")
    best_r, best_med = None, np.inf
    for c in sorted(dim_cells, key=lambda c: c.r):
        med = median(c.rates)
        if med < best_med:  # strict < keeps the smallest r on ties
            best_r, best_med = c.r, med
    return best_r, best_med
