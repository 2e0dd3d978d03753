"""Five precision-matrix estimators behind one interface.

Each estimator maps a ClassSummary to an estimate of the class precision
matrix (inverse covariance):

* ``sample_inverse`` -- the plain inverse of the ML covariance (baseline).
* ``haff``           -- the empirical Bayes shrinkage estimator of
                        Haff (1979), pulling toward a scaled identity.
* ``wang``           -- the ridge-type estimator of Wang et al. (2015),
                        alpha * (S + beta * I)^-1 with coefficients chosen
                        by minimizing an empirical quadratic loss.
* ``bodnar``         -- the linear shrinkage estimator of Bodnar, Gupta and
                        Parolya (2016) toward a user-specified target.
* ``mry``            -- the penalized log-determinant estimator of Molstad
                        and Rothman (2019): the graphical lasso of Yuan and
                        Lin (2007) in its simple form, or an L1 penalty on
                        A @ Omega @ B - C for structured shrinkage; solved
                        by ADMM with a majorize-minimize update.

All returned matrices are exactly symmetric and positive definite, or a
typed error is raised.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .datamodel import ClassSummary
from .errors import (
    ConvergenceError,
    DegeneracyError,
    InvalidInputError,
    NotSpdError,
    NumericalDomainError,
    SampleSizeError,
    SsdrError,
)
from .numerics import (lower_solve, spd_cholesky, spd_logdet_and_inverse,
                       sym_eigen, symmetrize)

KINDS = ("sample_inverse", "haff", "wang", "bodnar", "mry")
MRY_PENALTIES = ("simple", "qda")
BODNAR_TARGETS = ("identity", "diagonal_of_s")


def is_int(v) -> bool:
    """An integer, numpy's included, and not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# A rule is (test, requirement): check_fields reports a value that fails
# the test as "<name> must be <requirement>".
def at_least(n: int) -> tuple:
    """The rule: an integer >= n."""
    return (lambda v: is_int(v) and v >= n, f"an integer >= {n}")


def one_of(choices: tuple) -> tuple:
    """The rule: one of ``choices``, which are all strings or all integers;
    neither a bool nor a float passes for an integer."""
    kind = is_int if is_int(choices[0]) else (lambda v: isinstance(v, str))
    return (lambda v: kind(v) and v in choices,
            f"one of {', '.join(map(repr, choices))}")


IS_BOOL = (lambda v: isinstance(v, bool), "true or false")
IS_COUNT = at_least(1)
IS_POSITIVE = (lambda v: isinstance(v, numbers.Real)
               and not isinstance(v, bool) and 0 < v < np.inf,
               "a finite number > 0")


def check_fields(values: dict, rules: dict) -> None:
    """The one check of setting values, for specs (``vars(self)``) and
    functions (a dict of their parameters) alike: raise InvalidInputError,
    with ``field`` set, for the first of ``values`` (name -> value) that
    fails its rule in ``rules`` (name -> rule)."""
    for name, (ok, requirement) in rules.items():
        if not ok(values[name]):
            raise InvalidInputError(
                f"{name} must be {requirement}, got {values[name]!r}",
                field=name)


@dataclass(frozen=True)
class PrecisionEstimatorSpec:
    """Which estimator to apply, with its tuning parameters.

    ``bodnar_target`` is "identity", "diagonal_of_s" (diag of the sample
    covariance), or an explicit symmetric matrix. For ``mry``,
    ``mry_penalty`` selects the simple graphical-lasso penalty (A = B = I,
    C = 0) or the QDA-oriented structured penalty with A^T = B =
    (mean, gamma * I) and C = 0; ``mry_standardize_mean`` z-scores the mean
    vector's entries before building those matrices.

    MRY is scale equivariant, Omega(c S; c lambda) = Omega(S; lambda) / c,
    with the simple penalty, but with the QDA penalty only when
    ``mry_standardize_mean`` is set: the raw mean column of B scales with
    the data while gamma * I does not. It defaults to False; turning it on
    changes every QDA-penalty result.
    """

    kind: str = "sample_inverse"
    mry_lambda: float = 0.1
    mry_penalty: str = "simple"
    mry_gamma: float = 1.0
    mry_standardize_mean: bool = False
    bodnar_target: object = "identity"
    admm_max_iters: int = 10_000
    admm_tol: float = 1e-6

    def __post_init__(self):
        rules = {"kind": one_of(KINDS), "mry_standardize_mean": IS_BOOL,
                 "admm_max_iters": IS_COUNT, "admm_tol": IS_POSITIVE}
        if self.kind == "mry":
            rules.update(mry_lambda=IS_POSITIVE,
                         mry_penalty=one_of(MRY_PENALTIES))
            if self.mry_penalty == "qda":
                rules["mry_gamma"] = IS_POSITIVE
        if isinstance(self.bodnar_target, str):
            rules["bodnar_target"] = one_of(BODNAR_TARGETS)
        check_fields(vars(self), rules)

    def with_lambda(self, lam: float) -> "PrecisionEstimatorSpec":
        return replace(self, mry_lambda=float(lam))


@dataclass
class EstimateDiagnostics:
    """Solver/shrinkage bookkeeping attached to every estimate."""

    iterations: int = 0
    kkt_residual: float | None = None
    shrinkage_coefficients: dict = field(default_factory=dict)
    repaired: bool = False
    mean_quadratic: float | None = None  # mean' Omega mean, QDA-penalty diagnostic


@dataclass(frozen=True)
class AdmmState:
    """Where a converged MRY solve stopped, to warm start the next one: the
    splitting iterate Z, the scaled dual U (the dual is rho * U), the ADMM
    penalty rho and the lambda of the solve. It also keeps its problem's
    constants, which a warm start of the same ClassSummary under the same
    penalty reuses: a penalty path sets them up once."""

    z: np.ndarray
    u: np.ndarray
    rho: float
    lam: float
    _problem: object = field(default=None, repr=False, compare=False)


@dataclass
class PrecisionEstimate:
    omega: np.ndarray
    diagnostics: EstimateDiagnostics
    state: AdmmState | None = None  # MRY only: the solver's final state


def sample_inverse(cs: ClassSummary) -> PrecisionEstimate:
    """Inverse of the ML sample covariance. No repair: singular input raises."""
    _, inv = spd_logdet_and_inverse(cs.cov)
    return PrecisionEstimate(omega=symmetrize(inv),
                             diagnostics=EstimateDiagnostics())


def haff(cs: ClassSummary) -> PrecisionEstimate:
    """Haff (1979) shrinkage toward a scaled identity.

    Requires n_i > p + 2 so the leading coefficient (n_i - p - 2) is
    positive. The mixing weight t(U) in [0, 1] is driven by the eigenvalue
    disparity ratio U (geometric over arithmetic mean of the eigenvalues of
    the sample covariance); equal eigenvalues give U = 1.
    """
    n, p = cs.n_i, cs.p
    if n <= p + 2:
        raise SampleSizeError(
            f"haff requires n_i > p + 2 (got n_i={n}, p={p})",
        )
    logdet, s_inv = spd_logdet_and_inverse(cs.cov)
    trace = float(np.trace(cs.cov))
    disparity = p * np.exp(logdet / p) / trace
    t = min(4.0 * (p * p - 1.0) / ((n - p - 2.0) * p * p), 1.0) \
        * disparity ** (1.0 / p)
    omega = (1.0 - t) * (n - p - 2.0) * s_inv \
        + t * (p * n - p - 2.0) / trace * np.eye(p)
    diag = EstimateDiagnostics(
        shrinkage_coefficients={"t": float(t), "disparity": float(disparity)},
    )
    return PrecisionEstimate(omega=symmetrize(omega), diagnostics=diag)


def _wang_loss(beta, evals, p, n):
    """Empirical loss L(beta) and the ratio R1/R2 at beta.

    Works on an array of beta values; evals are the eigenvalues of the
    sample covariance. Returns (L, R1, R2); entries where the denominator
    1 - (p/n) a1 or R2 is non-positive are set to +inf in L.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    h = beta[:, None] / (evals[None, :] + beta[:, None])  # (g, p)
    a1 = 1.0 - h.mean(axis=1)
    a2 = (h * (1.0 - h)).mean(axis=1)
    denom = 1.0 - (p / n) * a1
    bad = denom <= 0
    denom = np.where(bad, 1.0, denom)
    r1 = a1 / denom
    r2 = a1 / denom**3 - a2 / denom**4
    bad |= r2 <= 0
    loss = np.where(bad, np.inf, 1.0 - r1**2 / np.where(r2 <= 0, 1.0, r2))
    return loss, r1, r2, bad


def wang(cs: ClassSummary, grid_size: int = 1000) -> PrecisionEstimate:
    """Wang et al. (2015) ridge-type estimator alpha * (S + beta * I)^-1.

    beta minimizes the empirical loss over [lambda_min(S), lambda_max(S)],
    located on a log-spaced grid of ``grid_size`` points and refined by
    ternary search around the grid minimum; ties go to the smallest beta.
    """
    n, p = cs.n_i, cs.p
    evals, _ = sym_eigen(cs.cov)
    lam_max, lam_min = float(evals[0]), float(evals[-1])
    if lam_min <= 0:
        raise NotSpdError(
            f"sample covariance has nonpositive eigenvalue {lam_min}",
        )
    if lam_max == lam_min:
        grid = np.array([lam_min])
    else:
        grid = np.geomspace(lam_min, lam_max, grid_size)
    loss, _, _, bad = _wang_loss(grid, evals, p, n)
    if np.all(bad):
        raise NumericalDomainError(
            "empirical loss undefined on the whole search interval "
            "(denominator sign flip)"
        )
    idx = int(np.argmin(loss))  # first minimum -> smallest beta on ties
    beta = float(grid[idx])
    if grid.size > 1:
        lo = grid[max(idx - 1, 0)]
        hi = grid[min(idx + 1, grid.size - 1)]
        # ternary search on the bracketing interval
        for _ in range(60):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            pair, _, _, _ = _wang_loss(np.array([m1, m2]), evals, p, n)
            if pair[0] <= pair[1]:
                hi = m2
            else:
                lo = m1
        cand = (lo + hi) / 2.0
        lc, _, _, bc = _wang_loss(np.array([cand]), evals, p, n)
        if not bc[0] and lc[0] < loss[idx]:
            beta = float(cand)
    loss_b, r1, r2, bad_b = _wang_loss(np.array([beta]), evals, p, n)
    if bad_b[0]:
        raise NumericalDomainError(f"loss undefined at beta={beta}")
    alpha = float(r1[0] / r2[0])
    if not alpha > 0:
        raise NumericalDomainError(f"nonpositive shrinkage alpha={alpha}")
    _, inv = spd_logdet_and_inverse(cs.cov + beta * np.eye(p))
    diag = EstimateDiagnostics(
        shrinkage_coefficients={"alpha": alpha, "beta": beta},
    )
    return PrecisionEstimate(omega=symmetrize(alpha * inv), diagnostics=diag)


def _trace_norm(a: np.ndarray) -> float:
    """Sum of singular values (for symmetric input: sum of |eigenvalues|).
    Raises NumericalDomainError when LAPACK does not converge."""
    try:
        return float(np.abs(np.linalg.eigvalsh(symmetrize(a))).sum())
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError(f"trace norm failed: {exc}") from exc


def bodnar(cs: ClassSummary, target="identity",
           repair_eps: float = 1e-8) -> PrecisionEstimate:
    """Bodnar, Gupta and Parolya (2016) linear shrinkage toward a target.

    The estimate alpha * S^-1 + beta * Omega_0 can be indefinite in finite
    samples; when that happens its eigenvalues are clipped at
    repair_eps * lambda_max and the repair is flagged in diagnostics.
    Raises DegeneracyError when S^-1 is proportional to the target (the
    coefficient denominator vanishes); fall back to sample_inverse then.
    """
    n, p = cs.n_i, cs.p
    _, s_inv = spd_logdet_and_inverse(cs.cov)
    if isinstance(target, str):
        check_fields({"bodnar_target": target},
                     {"bodnar_target": one_of(BODNAR_TARGETS)})
        omega0 = np.eye(p) if target == "identity" \
            else np.diag(np.diag(np.asarray(cs.cov)))
    else:
        omega0 = symmetrize(target, "bodnar target")
        if omega0.shape != (p, p):
            raise InvalidInputError(
                f"bodnar target shape {omega0.shape} != ({p}, {p})"
            )
    fro_sinv = float(np.sum(s_inv * s_inv))
    fro_om0 = float(np.sum(omega0 * omega0))
    cross = float(np.sum(s_inv * omega0))  # tr(S^-1 Omega_0)
    denom = fro_sinv * fro_om0 - cross * cross
    if denom <= 1e-12 * fro_sinv * fro_om0:
        raise DegeneracyError(
            "shrinkage target is (numerically) proportional to S^-1; "
            "coefficients are undefined -- fall back to sample_inverse"
        )
    alpha = 1.0 - p / n - (_trace_norm(s_inv) ** 2 * fro_om0) / (n * denom)
    beta = cross / fro_om0 * (1.0 - p / n - alpha)
    omega = symmetrize(alpha * s_inv + beta * omega0)
    vals, vecs = sym_eigen(omega)
    repaired = False
    if vals[-1] <= 0:
        floor = repair_eps * max(float(vals[0]), repair_eps)
        clipped = np.maximum(vals, floor)
        omega = symmetrize((vecs * clipped) @ vecs.T)
        repaired = True
    diag = EstimateDiagnostics(
        shrinkage_coefficients={
            "alpha": float(alpha),
            "beta": float(beta),
            "target_trace_norm_over_p": _trace_norm(omega0) / p,
        },
        repaired=repaired,
    )
    return PrecisionEstimate(omega=omega, diagnostics=diag)


# Anderson acceleration of mry_batch's ADMM (see there): the number of
# (dF, dG) pairs each problem keeps; the Tikhonov term of their normal
# equations, relative to the trace, plus the smallest normal float so that
# an empty history solves to gamma = 0; and the factor of the last accepted
# residual above which the safeguard rejects an extrapolated step.
_AA_MEMORY = 5
_AA_RIDGE = 1e-10
_AA_RIDGE_FLOOR = np.finfo(float).tiny
_AA_SAFEGUARD = 1.0


def _soft_threshold_offdiag(m: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Entrywise soft threshold of each matrix of a stack, sparing the
    diagonal; ``thr`` holds one threshold per matrix, shape (B, 1, 1)."""
    out = np.sign(m) * np.maximum(np.abs(m) - thr, 0.0)
    step = m.shape[-1] + 1  # the diagonal of a flattened matrix
    out.reshape(len(m), -1)[:, ::step] = m.reshape(len(m), -1)[:, ::step]
    return out


def _front_rows(ring: np.ndarray, keep: list) -> np.ndarray:
    """The rows ``keep`` of a (B, m, n) history, moved to its front in
    place one slot at a time, so the history is never held twice."""
    for k in range(ring.shape[1]):
        ring[:len(keep), k] = ring[keep, k]
    return ring[:len(keep)]


def _safeguard(res: list, res_acc: list) -> list:
    """Whether each problem's step is accepted: an extrapolated V when its
    fixed-point residual |G(V) - V| is at most _AA_SAFEGUARD times that of
    the last accepted V, and a plain step (``res_acc`` inf) always."""
    return [r <= _AA_SAFEGUARD * a for r, a in zip(res, res_acc)]


def _symmetric_part(a: np.ndarray) -> np.ndarray:
    """(A + A^T) / 2 of a matrix or of each matrix of a stack, without
    ``symmetrize``'s copy and finiteness scan; the ADMM loop validates its
    inputs at entry and guards its residuals."""
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def _norms(a: np.ndarray) -> list:
    """Frobenius norm of each matrix of a stack, one dot product each as in
    np.linalg.norm (an einsum can differ by an ulp and move a solve's end)."""
    f = a.reshape(len(a), 1, -1)
    return np.sqrt(f @ f.transpose(0, 2, 1)).ravel().tolist()


def _logdet_prox(e: np.ndarray, t: np.ndarray):
    """Solve t * X - X^-1 = E for SPD X, per matrix of a stack, as
    X = Q diag(d) Q' from one symmetric eigendecomposition of E, which must
    be exactly symmetric.

    ``t`` holds one value per matrix, shape (B, 1). Returns (Q, d); the loop
    forms from them only what it needs. When the stacked eigendecomposition
    fails to converge, each matrix is decomposed alone, and one that still
    fails gets NaN in Q and d: its problem ends as a non-finite iterate and
    the others go on as if solved alone.
    """
    try:
        w, q = np.linalg.eigh(e)
    except np.linalg.LinAlgError:
        w, q = np.empty(e.shape[:2]), np.empty_like(e)
        for j, m in enumerate(e):
            try:
                w[j], q[j] = np.linalg.eigh(m)
            except np.linalg.LinAlgError:
                w[j], q[j] = np.nan, np.nan
    return q, (w + np.sqrt(w * w + 4.0 * t)) / (2.0 * t)


def mry(cs: ClassSummary, spec: PrecisionEstimatorSpec,
        warm_start=None) -> PrecisionEstimate:
    """Penalized log-determinant precision estimate, solved by ADMM.

    Minimizes ``tr(S Omega) - log|Omega| + lambda * |A Omega B - C|_1`` over
    SPD Omega, where the L1 norm sums absolute values of off-diagonal
    entries only. The splitting variable is Z = A Omega B - C. The Omega
    update is the standard log-determinant proximal step in simple mode; in
    qda mode the same proximal step solves the subproblem exactly after a
    change of variables Theta = L' Omega L, where L L' = B B' (the
    subproblem's quadratic term is the B B'-weighted Frobenius norm). The
    qda-mode loop stays in these whitened coordinates: with P = L^-1 B and
    L^-1 S L^-T fixed per problem, the step is one eigendecomposition
    Theta = Q diag(d) Q' of rho P (Z - U) P' - L^-1 S L^-T, and
    B' Omega B = P' Theta P = W' diag(d) W with W = Q' P; Omega =
    L^-T Theta L^-1 is formed only for the converged iterate. The Z update
    soft thresholds off-diagonal entries; the penalty parameter is
    rebalanced (x2 / /2) whenever the primal/dual residual ratio exceeds 10.
    The iteration is Anderson accelerated, with memory 5 and a safeguard
    (Walker and Ni 2011; Zhang, Peng, Ouyang and Deng 2019; Fu, Zhang and
    Boyd 2020), on the one matrix V = A Omega B + U; see mry_batch.

    Accepts singular (PSD) sample covariances, which is what makes the
    estimator usable when n_i <= p. ``warm_start`` is None (a cold start)
    or the ``state`` of an earlier estimate of the same problem to continue
    from (see mry_batch).

    Returns the sparse splitting iterate when it is SPD; otherwise returns
    the SPD proximal iterate and sets diagnostics.repaired. This is
    ``mry_batch`` on one problem: an iterate that stops being finite raises
    NumericalDomainError, and running out of iterations ConvergenceError.
    """
    fit, = mry_batch([cs], spec, [warm_start])
    if isinstance(fit, SsdrError):
        raise fit
    return fit


class _MryProblem(NamedTuple):
    """One problem of mry_batch: what its loop stacks (the loop's S, P, B,
    and the first Z and U), what only its estimate needs, its first rho, and
    the summary and penalty (``_penalty``) it was set up for. In qda mode
    L L' = B B', P = L^-1 B (``white``) and the loop's S is L^-1 S L^-T; in
    simple mode the loop's S is S and the rest is None."""

    s: np.ndarray
    white: np.ndarray | None
    b: np.ndarray | None
    z: np.ndarray
    u: np.ndarray
    l_fac: np.ndarray | None
    l_inv: np.ndarray | None
    rho: float
    cs: ClassSummary
    penalty: tuple


def _penalty(spec: PrecisionEstimatorSpec) -> tuple:
    return spec.mry_penalty, spec.mry_gamma, spec.mry_standardize_mean


def _mry_setup(cs: ClassSummary, spec: PrecisionEstimatorSpec, warm_start,
               lam: float) -> _MryProblem:
    """One problem's constants and first iterate, its warm start checked.
    The constants come with a warm start of the same summary and penalty,
    and are set up (``_mry_cold``) otherwise."""
    if not (warm_start is None or isinstance(warm_start, AdmmState)):
        raise InvalidInputError("a warm start must be an AdmmState or None, "
                                f"got {type(warm_start).__name__}")
    problem = getattr(warm_start, "_problem", None)
    if problem is None or problem.cs is not cs or \
            problem.penalty != _penalty(spec):
        problem = _mry_cold(cs, spec)
    if warm_start is None:
        return problem
    m = len(problem.z)
    if warm_start.z.shape != (m, m) or warm_start.u.shape != (m, m):
        raise InvalidInputError(
            f"warm-start state must be {m}x{m} for this problem")
    # rho * U rescaled by lam / lam_old stays a subgradient of lam |Z|_1
    return problem._replace(z=warm_start.z, rho=warm_start.rho,
                            u=warm_start.u * (lam / warm_start.lam))


def _mry_cold(cs: ClassSummary, spec: PrecisionEstimatorSpec) -> _MryProblem:
    """One problem's constants and its cold start."""
    s = symmetrize(cs.cov)
    p = s.shape[0]
    s_loop, white, b, l_fac, l_inv = s, None, None, None, None
    if spec.mry_penalty == "qda":
        mean = np.asarray(cs.mean, dtype=float)
        if spec.mry_standardize_mean:
            sd = float(mean.std(ddof=1)) if mean.size > 1 else 0.0
            if sd > 0:
                mean = (mean - mean.mean()) / sd
        b = np.column_stack([mean, spec.mry_gamma * np.eye(p)])  # (p, p+1)
        l_fac = spd_cholesky(b @ b.T)
        l_inv = lower_solve(l_fac, np.eye(p))
        white = l_inv @ b
        s_loop = _symmetric_part(l_inv @ s @ l_inv.T)
    omega = np.diag(1.0 / np.maximum(np.diag(s), 1e-8))
    z = omega.copy() if b is None else symmetrize(b.T @ omega @ b)
    return _MryProblem(s_loop, white, b, z, np.zeros_like(z), l_fac, l_inv,
                       1.0, cs, _penalty(spec))


def _mry_estimates(summaries, spec, lams, setups, converged):
    """(problem, estimate or typed error) of each converged problem, built
    in one stacked pass from its last proximal step X = Q diag(d) Q'
    (Omega in simple mode, Theta in qda mode), its Z and its U; rho * U is
    its dual.

    When the stacked eigenvalues of simple mode's SPD check of Z fail to
    converge, each Z is checked alone, and one that still fails ends its
    problem with NumericalDomainError.
    """
    idx, q, d, z, u, rho, primal, iters = zip(*converged)
    q, d = np.stack(q), np.stack(d)[:, None, :]
    q_t = q.transpose(0, 2, 1)
    qda = setups[idx[0]].b is not None
    omega_inv = _symmetric_part((q / d) @ q_t)
    y = np.array(rho).reshape(-1, 1, 1) * np.stack(u)
    gamma = {}
    if qda:
        l_fac, b, l_inv = (np.stack([getattr(setups[i], name) for i in idx])
                           for name in ("l_fac", "b", "l_inv"))
        omega_inv = _symmetric_part(
            l_fac @ omega_inv @ l_fac.transpose(0, 2, 1))
        y = b @ y @ b.transpose(0, 2, 1)
        gamma = {"gamma": float(spec.mry_gamma)}
    # KKT stationarity with the converged (unscaled) dual rho * U; the
    # Z-step makes rho * U an exact subgradient of lambda * |Z|_1.
    cov = np.stack([summaries[i].cov for i in idx])
    kkt = np.max(np.abs(cov - omega_inv + y), axis=(1, 2)).tolist()
    repaired = failed = np.zeros(len(idx), dtype=bool)  # qda mode
    if qda:
        out = _symmetric_part((q * d) @ q_t)
        out = _symmetric_part(l_inv.transpose(0, 2, 1) @ out @ l_inv)
    else:
        # simple mode returns the sparse iterate Z unless it is not SPD
        out = _symmetric_part(np.stack(z))
        try:
            lowest = np.linalg.eigvalsh(out)[:, 0]
        except np.linalg.LinAlgError:
            lowest = np.empty(len(out))
            for j, m in enumerate(out):
                try:
                    lowest[j] = np.linalg.eigvalsh(m)[0]
                except np.linalg.LinAlgError:
                    lowest[j] = np.nan
        failed, repaired = np.isnan(lowest), lowest <= 0
        if repaired.any():
            out[repaired] = _symmetric_part(
                (q[repaired] * d[repaired]) @ q_t[repaired])
    mean = np.stack([summaries[i].mean for i in idx])
    quad = (mean[:, None, :] @ out @ mean[:, :, None]).ravel().tolist()
    for j, i in enumerate(idx):
        if failed[j]:
            yield i, NumericalDomainError(
                "eigenvalues of the estimate did not converge",
                class_id=summaries[i].class_id)
            continue
        yield i, PrecisionEstimate(omega=out[j], diagnostics=EstimateDiagnostics(
            iterations=iters[j], kkt_residual=max(kkt[j], primal[j]),
            shrinkage_coefficients={"lambda": lams[i], **gamma},
            repaired=bool(repaired[j]), mean_quadratic=quad[j]),
            state=AdmmState(z=z[j], u=u[j], rho=rho[j], lam=lams[i],
                            _problem=setups[i]))


def mry_batch(summaries, spec: PrecisionEstimatorSpec, warm_starts=None,
              lambdas=None) -> list:
    """``mry`` on problems of one dimension, as one ADMM over a (B, p, p)
    stack. ``warm_starts`` gives each problem None (a cold start) or the
    ``state`` of an earlier estimate; ``lambdas`` gives each its own penalty
    (default: ``spec.mry_lambda`` for all).

    A state resumes that solve's Z, rho and dual, the dual rescaled by
    lambda_new / lambda_old so it stays a subgradient of the new penalty:
    along a penalty path each solve then starts near its neighbour's end.
    Inputs are validated once at entry. Each problem keeps its own penalty,
    rho, residuals and acceleration history and leaves the stack once it
    converges or fails, so its outcome is bit for bit its solo one. Returns
    per problem its PrecisionEstimate, final state included, or the typed
    error that ended it; errors, raised or returned, name a class.

    The iterate of each problem is one matrix, V = A Omega B + U, the input
    of the Z-step: Z = soft(V) and U = V - Z, so one ADMM step is a fixed
    point map V -> G(V), the Douglas-Rachford variable of Fu, Zhang and
    Boyd (2020), and rho U stays an exact subgradient of lambda |Z|_1. G is
    Anderson accelerated (type II, Walker and Ni 2011; on ADMM, Zhang,
    Peng, Ouyang and Deng 2019) with memory _AA_MEMORY = 5: each problem
    keeps the differences dF, dG of the residuals F = G(V) - V and values
    G(V) of its last 5 accepted steps, and its next V is G(V) - dG' gamma,
    where gamma minimizes |F - dF' gamma| through the 5 x 5 normal
    equations with a Tikhonov term of _AA_RIDGE times their trace. The
    safeguard of Fu, Zhang and Boyd rejects an extrapolated V whose
    |G(V) - V| exceeds that of the last accepted V; the solve then resumes
    from G(last accepted V) with the history cleared. The history is also
    cleared whenever residual balancing changes rho (x2 or /2 when the
    primal/dual residual ratio exceeds 10). The first step, from a cold
    start or a state, is a plain one. The stopping test always reads the
    plain ADMM step from the current V, and a converged problem returns
    that step's Q, d, Z and U, so its KKT stationarity residual is the
    dual residual whatever V was.

    Besides one stacked eigendecomposition, an iteration does 6 dense
    matrix products and 2 symmetrizations per problem in qda mode (P(Z-U),
    then .P'; W = Q'P; (W' diag(d)) W; B dZ, then .B' for the dual residual;
    symmetrizing the eigendecomposed matrix and B' Omega B), and 1 product
    and 1 symmetrization in simple mode, whose eigendecomposed matrix
    rho (Z - U) - S is exactly symmetric as it stands. Acceleration adds,
    per problem, a second soft threshold (of the next V), three products
    with its (m, p^2) history, m = _AA_MEMORY (the new Gram column, the
    right-hand side dF F and the combination of the dG), one m x m solve,
    a norm and the symmetrization of V, which the combination leaves
    symmetric only up to rounding. The history is a (B, m, p^2) pair of
    stacks, written one slot per iteration; no step copies it, and it is
    compacted in place when problems leave. Measured with BLAS on one
    thread (2 vCPUs), that is about 150 us on top of about 700 us per
    iteration at p = 50 in a stack of 2, and about 60 us on top of 100 us
    at p = 10 in a stack of 3, for 3 to 5 times fewer iterations on
    tuning paths. A
    problem that converges leaves a copy of its Q, d, Z and U; after the
    loop the estimates of all of them (Omega, the KKT residual, simple
    mode's SPD check of Z, mean' Omega mean and the state) are built in one
    stacked pass (``_mry_estimates``).
    """
    check_fields(vars(spec), {"kind": one_of(("mry",))})
    if lambdas is None:
        lambdas = [spec.mry_lambda] * len(summaries)
    tol = float(spec.admm_tol)
    max_iters = int(spec.admm_max_iters)
    simple = spec.mry_penalty == "simple"
    setups, lams = [], []
    for cs, warm, lam in zip(summaries, warm_starts or [None] * len(summaries),
                             lambdas, strict=True):
        try:
            check_fields({"lambda": lam}, {"lambda": IS_POSITIVE})
            lams.append(float(lam))
            setups.append(_mry_setup(cs, spec, warm, lams[-1]))
        except SsdrError as exc:
            exc.attach_class(cs.class_id)
            raise
    if len({st.z.shape for st in setups}) != 1:
        raise InvalidInputError("mry_batch needs problems of one dimension")
    s, white, b, z, u = (None if col[0] is None else np.stack(col)
                         for col in list(zip(*setups))[:5])
    if not simple:
        b_t = np.ascontiguousarray(b.transpose(0, 2, 1))
    rho = [st.rho for st in setups]  # residual balancing adapts each one
    lam = np.array(lams).reshape(-1, 1, 1)
    outcomes = [None] * len(setups)
    converged = []  # (problem, Q, d, Z, U, rho, primal, iterations)
    rows = list(range(len(setups)))  # the problem in each row of the stacks
    # Anderson history: the (dF, dG) pairs of the last _AA_MEMORY steps,
    # step ``it`` writing slot it % _AA_MEMORY, with the Gram matrix dF dF'
    # (a cleared history is zero); F and G of the last accepted V, whether
    # it can form a pair, and the residual an extrapolated V must not exceed
    # (inf: the next step is plain)
    ring_f = np.zeros((len(rows), _AA_MEMORY, z[0].size))
    ring_g = np.zeros_like(ring_f)
    gram = np.zeros((len(rows), _AA_MEMORY, _AA_MEMORY))
    eye = np.eye(_AA_MEMORY)
    f_acc = g_acc = np.zeros((len(rows), z[0].size))
    has_prev = [False] * len(rows)
    res_acc = [math.inf] * len(rows)

    for it in range(1, max_iters + 1):
        t = np.array(rho).reshape(-1, 1, 1)
        if simple:
            # Z, U and S are exactly symmetric, and so is E elementwise
            q, d = _logdet_prox(t * (z - u) - s, t[:, 0])
            w = q.transpose(0, 2, 1)
        else:
            # exact update: rho*Theta - Theta^-1 = rho*P(Z-U)P' - L^-1 S L^-T
            q, d = _logdet_prox(_symmetric_part(
                t * (white @ (z - u) @ white.transpose(0, 2, 1)) - s), t[:, 0])
            w = q.transpose(0, 2, 1) @ white
        # Omega = Q diag(d) Q' (simple), or B' Omega B = P' Theta P (qda)
        azb = _symmetric_part((w.transpose(0, 2, 1) * d[:, None, :]) @ w)

        g = azb + u  # G(V) for V = Z + U, the plain step
        f = (azb - z).reshape(len(g), -1)  # G(V) - V
        z_new = _soft_threshold_offdiag(g, lam / t)
        u_new = g - z_new
        dz = z_new - z
        primal = _norms(azb - z_new)
        dual = _norms(dz if simple else b @ dz @ b_t)
        res = _norms(f[:, None])
        accepted = _safeguard(res, res_acc)
        keep, paired, rescale = [], [], []
        for j, i in enumerate(rows):
            pr, du, cid = primal[j], rho[j] * dual[j], summaries[i].class_id
            # finite residuals keep the next iteration's z, u and azb finite
            if not math.isfinite(pr + du):
                outcomes[i] = NumericalDomainError(
                    f"ADMM iterate is not finite at iteration {it}",
                    class_id=cid)
            elif max(pr, du) < tol:
                converged.append((i, q[j].copy(), d[j].copy(),
                                  z_new[j].copy(), u_new[j].copy(), rho[j],
                                  pr, it))
            elif it == max_iters:
                outcomes[i] = ConvergenceError(
                    f"ADMM did not converge in {max_iters} iterations "
                    f"(primal={pr:.3e}, dual={du:.3e})",
                    primal=pr, dual=du, iterations=max_iters, class_id=cid)
            else:
                keep.append(j)
                if not accepted[j]:  # resume from G(last accepted V)
                    paired.append(False)
                    continue
                factor = 1.0
                if pr > 10.0 * du and du > 0:
                    rho[j], factor = rho[j] * 2.0, 0.5
                elif du > 10.0 * pr:  # also while the primal is exactly 0
                    rho[j], factor = rho[j] / 2.0, 2.0
                if factor != 1.0:
                    rescale.append((len(keep) - 1, factor))
                paired.append(has_prev[j] and factor == 1.0)
                has_prev[j] = factor == 1.0
        if not keep:
            break
        if len(keep) < len(rows):  # the finished problems leave the stacks
            rows, rho = [rows[j] for j in keep], [rho[j] for j in keep]
            has_prev = [has_prev[j] for j in keep]
            accepted, res = [accepted[j] for j in keep], [res[j] for j in keep]
            s, lam, t, g, f = s[keep], lam[keep], t[keep], g[keep], f[keep]
            ring_f, ring_g = _front_rows(ring_f, keep), _front_rows(ring_g, keep)
            gram, f_acc, g_acc = gram[keep], f_acc[keep], g_acc[keep]
            if not simple:
                b, b_t, white = b[keep], b_t[keep], white[keep]

        # the step's pair enters the history with its row and column of the
        # Gram matrix; a step without one clears its problem's history
        n, g_flat, h = len(rows), g.reshape(len(rows), -1), it % _AA_MEMORY
        ring_f[:, h] = df = f - f_acc
        ring_g[:, h] = g_flat - g_acc
        gram[:, h] = gram[:, :, h] = (ring_f @ df[:, :, None])[..., 0]
        cleared = [k for k, kept in enumerate(paired) if not kept]
        if cleared:
            ring_f[cleared] = gram[cleared] = 0.0
        if all(accepted):
            f_acc, g_acc = f, g_flat
        else:
            ok = np.array(accepted)[:, None]
            f_acc, g_acc = np.where(ok, f, f_acc), np.where(ok, g_flat, g_acc)
        # gamma = argmin |F - dF' gamma|; the slots of a cleared or short
        # history hold zeros, so their gamma is exactly 0
        ridge = _AA_RIDGE * np.trace(gram, axis1=1, axis2=2) + _AA_RIDGE_FLOOR
        gamma = np.linalg.solve(gram + ridge[:, None, None] * eye,
                                ring_f @ f[:, :, None])
        v = g_flat - (gamma.transpose(0, 2, 1) @ ring_g)[:, 0]
        if not all(accepted):
            v = np.where(ok, v, g_acc)
        # exactly symmetric, as the combination is in exact arithmetic
        v = _symmetric_part(v.reshape(g.shape))
        z = _soft_threshold_offdiag(v, lam / t)
        u = v - z
        for j, factor in rescale:
            u[j] *= factor
        res_acc = [r if kept else math.inf for r, kept in zip(res, paired)]
    if converged:
        for i, fit in _mry_estimates(summaries, spec, lams, setups, converged):
            outcomes[i] = fit
    return outcomes


def estimate(cs: ClassSummary, spec: PrecisionEstimatorSpec) -> PrecisionEstimate:
    """Dispatch to the estimator named by spec.kind.

    Guarantees an exactly symmetric SPD omega or a typed error, which names
    the class of ``cs``.
    """
    try:
        if spec.kind == "sample_inverse":
            return sample_inverse(cs)
        if spec.kind == "haff":
            return haff(cs)
        if spec.kind == "wang":
            return wang(cs)
        if spec.kind == "bodnar":
            return bodnar(cs, target=spec.bodnar_target)
        return mry(cs, spec)  # a spec's kind is one of KINDS
    except SsdrError as exc:
        exc.attach_class(cs.class_id)
        raise
