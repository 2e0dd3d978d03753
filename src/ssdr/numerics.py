"""Dense linear-algebra kernels with explicit accuracy contracts.

Thin, validated wrappers around the LAPACK that numpy links: rank-revealing
SVD with a deterministic sign convention, Cholesky-based log-determinant and
inverse for SPD matrices, symmetric eigendecomposition, and a median.
Everything here is a pure function; inputs are never modified.
"""

from __future__ import annotations

import numpy as np

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
    """Lower Cholesky factor of a symmetric matrix and its valid count.

    Returns (L, q). When s factors, q is its order and L L^T = s. Otherwise
    q is the order of the largest leading block of s that factors, found by
    bisection over leading blocks (block q factors, block q + 1 does not),
    and L holds that block's factor in its leading q x q block and zeros
    elsewhere. For a (N, p, p) stack, L is the stack of factors and q the
    list of counts: the stack is factored by one numpy call, and only when
    that raises is each matrix factored alone (whole first, then bisected),
    so each matrix gets its solo result bit for bit. This is the one place
    that calls LAPACK potrf.
    """
    s = symmetrize(s)
    stack = s.reshape(-1, *s.shape[-2:])
    n = stack.shape[-1]
    try:
        chol, valid = np.linalg.cholesky(stack), [n] * len(stack)
    except np.linalg.LinAlgError:
        chol, valid = np.zeros_like(stack), []
        for c, m in zip(chol, stack):
            lo, hi, mid = 0, n + 1, n  # block lo factors, block hi does not
            while hi - lo > 1:
                try:
                    c[:mid, :mid] = np.linalg.cholesky(m[:mid, :mid])
                    lo = mid
                except np.linalg.LinAlgError:
                    hi = mid
                mid = (lo + hi) // 2
            valid.append(lo)
    return chol.reshape(s.shape), (valid if s.ndim == 3 else valid[0])


def lower_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L z = b for a lower-triangular L with a nonzero diagonal, or
    each system of a stack along leading axes, by one LAPACK LU solve
    (``np.linalg.solve``); each system of a stack gets its solo result bit
    for bit. The solve is backward stable, ||L z - b|| <= c p u ||L|| ||z||
    (Higham 2002, ch. 8-9). An empty b gives an empty z."""
    return np.linalg.solve(chol, b)


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
    l_inv = lower_solve(chol, np.eye(len(chol)))
    inv = l_inv.T @ l_inv
    return logdet, np.tril(inv) + np.tril(inv, -1).T


def median(values) -> float:
    """Median of nonempty finite values by sorting, bit for bit
    ``np.median``: the middle value, or (a + b) / 2 of the middle two.
    np.median imports numpy.ma on first use, which this avoids."""
    s = np.sort(np.asarray(values, dtype=float), axis=None)
    mid = s.size // 2
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2.0)


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
