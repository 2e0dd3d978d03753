"""Dense linear-algebra kernels with explicit accuracy contracts.

Thin, validated wrappers around LAPACK (via numpy/scipy): rank-revealing SVD
with a deterministic sign convention, Cholesky-based log-determinant and
inverse for SPD matrices, and symmetric eigendecomposition. Everything here
is a pure function; inputs are never modified.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInputError, NotSpdError, NumericalDomainError

DEFAULT_RANK_TOL = 1e-10


def check_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate a real matrix, or a stack of them along leading axes, with
    finite entries; returns a float copy."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.size == 0:
        raise InvalidInputError(f"{name} must be nonempty")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains NaN or Inf entries")
    return a.copy()


def symmetrize(a, name: str = "matrix") -> np.ndarray:
    """Construct an exactly symmetric matrix as (A + A^T) / 2, or each
    matrix of a stack along leading axes.

    The result satisfies ``out[i, j] == out[j, i]`` exactly (floating-point
    addition is commutative). Raises for non-square or non-finite input.
    """
    a = check_matrix(a, name)
    n, m = a.shape[-2:]
    if n != m:
        raise InvalidInputError(f"{name} must be square, got {n}x{m}")
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def _fix_svd_signs(u: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip singular-vector signs so each U column's first nonzero entry is
    positive, in every matrix of a stack.

    Columns of U are unit vectors, so entries below 1e-8 are treated as zero
    when locating the leading entry. V rows are flipped in tandem to preserve
    the factorization. Multiplying by +-1 is exact.
    """
    big = np.abs(u) > 1e-8
    lead = np.take_along_axis(u, np.argmax(big, axis=-2)[..., None, :],
                              axis=-2)[..., 0, :]
    sign = np.where(big.any(axis=-2) & (lead < 0), -1.0, 1.0)
    rows = min(u.shape[-1], vt.shape[-2])
    vt = vt.copy()
    vt[..., :rows, :] *= sign[..., :rows, None]
    return u * sign[..., None, :], vt


def svd_full(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign-fixed full SVD: returns (U, d, Vt) with U square p x p.

    U's trailing columns beyond the rank form an orthonormal completion of
    the column space; d is the full vector of singular values, descending.
    ``m`` may be a stack of matrices along leading axes; each matrix of it
    gets its own result bit for bit. Raises InvalidInputError for a
    non-finite entry and NumericalDomainError when LAPACK does not converge,
    on any matrix of a stack.
    """
    m = check_matrix(m)
    try:
        u, d, vt = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError(f"SVD failed: {exc}") from exc
    u, vt = _fix_svd_signs(u, vt)
    return u, d, vt


def reduced_svd(m, rank_tol: float = DEFAULT_RANK_TOL):
    """Rank-revealing reduced SVD of a general matrix.

    Parameters
    ----------
    m : array_like, shape (p, s)
        Matrix to factor; must be nonempty with finite entries.
    rank_tol : float
        Relative threshold: singular values > rank_tol * d[0] count toward
        the numerical rank.

    Returns
    -------
    u : ndarray, shape (p, q)
        Column-orthonormal left singular vectors, sign convention: the first
        nonzero-magnitude entry of every column is positive.
    d : ndarray
        All min(p, s) singular values in non-increasing order.
    v : ndarray, shape (s, q)
        Right singular vectors (columns).
    q : int
        Numerical rank.

    ``u @ diag(d[:q]) @ v.T`` reconstructs m to within
    1e-10 * max(1, ||m||_F).
    """
    if rank_tol <= 0:
        raise InvalidInputError(f"rank_tol must be > 0, got {rank_tol}")
    u, d, vt = svd_full(m)
    q = numerical_rank(d, rank_tol)
    return u[:, :q], d, vt[:q, :].T, q


def numerical_rank(d: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count of descending singular values d above rank_tol * d[0]."""
    if d.size == 0 or d[0] == 0.0:
        return 0
    return int(np.count_nonzero(d > rank_tol * d[0]))


def cholesky_prefix(s) -> tuple[np.ndarray, int]:
    """Lower Cholesky factor of a symmetric matrix and its valid pivot count.

    Returns (L, q). When the factorization meets a non-positive pivot at
    zero-based position j, q = j and only the leading q x q block of L is a
    factor (of the leading q x q block of s); otherwise q is the order of s
    and L L^T = s. For a (N, p, p) stack, L is the stack of factors and q
    the list of counts. This is the one place that calls LAPACK dpotrf, one
    matrix at a time.
    """
    s = symmetrize(s)
    stack = s.reshape(-1, *s.shape[-2:])
    valid = []
    for j, m in enumerate(stack):
        c, info = lapack.dpotrf(m, lower=1)
        if info < 0:
            raise InvalidInputError(
                f"illegal value in argument {-info} of dpotrf")
        stack[j] = c
        valid.append(info - 1 if info > 0 else len(m))
    return np.tril(s), (valid if s.ndim == 3 else valid[0])


def lower_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L z = b for a lower-triangular L with a nonzero diagonal, by
    one LAPACK dtrtrs call: the arithmetic of scipy's
    ``solve_triangular(L, b, lower=True)`` without its per-call checks. An
    empty b gives an empty z."""
    if b.size == 0:
        return np.empty_like(b)
    z, info = lapack.dtrtrs(chol.T, b, lower=0, trans=1)
    if info != 0:
        raise InvalidInputError(f"dtrtrs failed with info={info}")
    return z


def spd_cholesky(s) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix; NotSpdError on failure."""
    chol, valid = cholesky_prefix(s)
    if valid < chol.shape[0]:
        raise NotSpdError(
            f"matrix is not positive definite (pivot {valid})", pivot=valid,
        )
    return chol


def spd_logdet_and_inverse(s) -> tuple[float, np.ndarray]:
    """Log-determinant and inverse of an SPD matrix via Cholesky.

    Raises NotSpdError (carrying the zero-based failing pivot) when the
    factorization hits a non-positive pivot. The inverse satisfies
    ``||s @ inv - I||_F <= 1e-8 * p`` for condition numbers below 1e10.
    """
    chol = spd_cholesky(s)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    inv, info = lapack.dpotri(chol, lower=1)
    if info != 0:
        raise NotSpdError(f"dpotri failed with info={info}", pivot=None)
    inv = np.tril(inv) + np.tril(inv, -1).T
    return logdet, inv


def sym_eigen(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Returns (values, vectors) with ``s ~= vectors @ diag(values) @ vectors.T``
    within 1e-9 * max(1, ||s||_F) and column-orthonormal vectors. Raises
    NumericalDomainError when LAPACK does not converge.
    """
    s = symmetrize(s)
    try:
        w, v = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError(
            f"eigendecomposition failed: {exc}") from exc
    return w[::-1].copy(), v[:, ::-1].copy()
