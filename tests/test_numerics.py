import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from ssdr.errors import InvalidInputError, NotSpdError, NumericalDomainError
from ssdr.numerics import (
    cholesky_prefix,
    lower_solve,
    median,
    reduced_svd,
    svd_full,
    spd_cholesky,
    spd_logdet_and_inverse,
    sym_eigen,
    symmetrize,
)


def random_spd(rng, p, eps=0.1):
    g = rng.normal(size=(p, p))
    return symmetrize(g @ g.T + eps * np.eye(p))


class TestSymmetrize:
    def test_exact_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(7, 7))
        s = symmetrize(a)
        assert np.array_equal(s, s.T)

    def test_rejects_nan(self):
        a = np.eye(3)
        a[0, 1] = np.nan
        with pytest.raises(InvalidInputError):
            symmetrize(a)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            symmetrize(np.ones((2, 3)))


class TestReducedSvd:
    def test_zero_matrix_has_rank_zero(self):
        u, d, v, q = reduced_svd(np.zeros((3, 4)))
        assert q == 0
        assert u.shape == (3, 0)

    def test_rank_one_example(self):
        # analytic: singular value of [[0.5, 1, 0]] row is sqrt(0.25 + 1)
        m = np.array([[0.5, 1.0, 0.0], [0.0, 0.0, 0.0]])
        u, d, v, q = reduced_svd(m)
        assert q == 1
        np.testing.assert_allclose(u[:, 0], [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(d[0], np.sqrt(1.25), rtol=1e-14)

    def test_identity(self):
        u, d, v, q = reduced_svd(np.eye(2))
        assert q == 2
        np.testing.assert_allclose(d, [1.0, 1.0])
        np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-14)

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            reduced_svd(np.empty((0, 3)))

    def test_bad_rank_tol_rejected(self):
        with pytest.raises(InvalidInputError):
            reduced_svd(np.eye(2), rank_tol=0.0)

    def test_reconstruction_bound_random_shapes(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            rows = int(rng.integers(1, 61))
            cols = int(rng.integers(1, 121))
            m = rng.normal(size=(rows, cols)) * rng.uniform(0.01, 100)
            u, d, v, q = reduced_svd(m)
            recon = u @ np.diag(d[:q]) @ v.T
            err = np.linalg.norm(recon - m)
            assert err <= 1e-10 * max(1.0, np.linalg.norm(m))

    def test_sign_convention_first_nonzero_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.normal(size=(8, 12))
            u, d, v, q = reduced_svd(m)
            for j in range(q):
                col = u[:, j]
                lead = col[np.abs(col) > 1e-8][0]
                assert lead > 0

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(10, 20))
        u1, d1, v1, _ = reduced_svd(m)
        u2, d2, v2, _ = reduced_svd(m)
        assert np.array_equal(u1, u2)
        assert np.array_equal(v1, v2)

    def test_singular_values_permutation_invariant(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(9, 14))
        _, d, _, _ = reduced_svd(m)
        perm = m[rng.permutation(9)][:, rng.permutation(14)]
        _, d2, _, _ = reduced_svd(perm)
        np.testing.assert_allclose(d, d2, atol=1e-10)


class TestSpdLogdetAndInverse:
    def test_identity(self):
        logdet, inv = spd_logdet_and_inverse(np.eye(3))
        assert logdet == 0.0
        np.testing.assert_allclose(inv, np.eye(3))

    def test_diagonal(self):
        logdet, inv = spd_logdet_and_inverse(np.diag([2.0, 0.5]))
        np.testing.assert_allclose(logdet, 0.0, atol=1e-15)
        np.testing.assert_allclose(inv, np.diag([0.5, 2.0]))

    def test_two_by_two_closed_form(self):
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        logdet, inv = spd_logdet_and_inverse(s)
        np.testing.assert_allclose(logdet, np.log(0.75), rtol=1e-14)
        expected = np.array([[4.0, -2.0], [-2.0, 4.0]]) / 3.0
        np.testing.assert_allclose(inv, expected, rtol=1e-14)

    def test_not_spd_reports_pivot(self):
        with pytest.raises(NotSpdError) as ei:
            spd_logdet_and_inverse(np.diag([1.0, -1.0]))
        assert ei.value.pivot == 1

    def test_indefinite_off_diagonal(self):
        with pytest.raises(NotSpdError):
            spd_logdet_and_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_roundtrip_logdet_random_spd(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = int(rng.integers(2, 20))
            s = random_spd(rng, p)
            logdet, inv = spd_logdet_and_inverse(s)
            logdet_inv, _ = spd_logdet_and_inverse(inv)
            assert abs(logdet_inv + logdet) <= 1e-8 * max(1.0, abs(logdet))

    def test_inverse_residual_bound(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            p = int(rng.integers(2, 30))
            s = random_spd(rng, p)
            _, inv = spd_logdet_and_inverse(s)
            resid = np.linalg.norm(s @ inv - np.eye(p))
            assert resid <= 1e-8 * p


class TestCholeskyPrefix:
    def test_full_factor_on_spd(self):
        s = random_spd(np.random.default_rng(29), 6)
        chol, valid = cholesky_prefix(s)
        assert valid == 6
        np.testing.assert_allclose(chol @ chol.T, s, rtol=1e-12, atol=1e-12)
        assert np.array_equal(chol, np.tril(chol))

    def test_valid_prefix_stops_at_failed_pivot(self):
        # rank-2 Gram matrix of order 4: the pivot at position 2 fails
        rng = np.random.default_rng(31)
        g = rng.normal(size=(4, 2))
        s = symmetrize(g @ g.T)
        s[3, 3] = -1.0
        chol, valid = cholesky_prefix(s)
        assert valid == 2
        np.testing.assert_allclose(chol[:2, :2],
                                   np.linalg.cholesky(s[:2, :2]), rtol=1e-12)

    def test_not_spd_pivot_matches_prefix(self):
        s = np.diag([1.0, 2.0, -1.0, 3.0])
        assert cholesky_prefix(s)[1] == 2
        with pytest.raises(NotSpdError) as ei:
            spd_logdet_and_inverse(s)
        assert ei.value.pivot == 2

    def test_stack_factors_each_matrix_alone(self):
        rng = np.random.default_rng(33)
        stack = np.stack([random_spd(rng, 5), np.diag([1.0, 2.0, -1.0, 3.0, 1.0]),
                          rng.normal(size=(5, 5))])
        chols, valid = cholesky_prefix(stack)
        for s, chol, v in zip(stack, chols, valid):
            alone, alone_valid = cholesky_prefix(s)
            assert chol.tobytes() == alone.tobytes() and v == alone_valid
        assert valid[:2] == [5, 2]


def test_lower_solve_agrees_with_solve_triangular_and_is_backward_stable():
    rng = np.random.default_rng(35)
    u = np.finfo(float).eps / 2
    for p in (1, 2, 5, 9, 50):
        chol = cholesky_prefix(random_spd(rng, p))[0]
        norm_l = np.linalg.norm(chol, 2)
        for b in (rng.normal(size=(p, 7)), rng.normal(size=(7, p)).T,
                  np.empty((p, 0))):
            z = lower_solve(chol, b)
            ref = solve_triangular(chol, b, lower=True, check_finite=False)
            assert z.shape == b.shape
            assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)
            for zj, bj in zip(z.T, b.T):
                assert np.linalg.norm(chol @ zj - bj) <= \
                    10 * p * u * norm_l * np.linalg.norm(zj)
        stack = np.stack([chol] + [cholesky_prefix(random_spd(rng, p))[0]
                                   for _ in range(3)])
        rhs = rng.normal(size=(4, p, 6))
        for zs, c, b in zip(lower_solve(stack, rhs), stack, rhs):
            assert zs.tobytes() == lower_solve(c, b).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_cholesky_prefix_of_rank_deficient_gram(n, r, seed):
    # the ML covariance of n_i <= p rows is a Gram matrix of rank < p
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, min(r, n - 1)))
    s = symmetrize(g @ g.T)
    chol, valid = cholesky_prefix(s)
    lead = chol[:valid, :valid]
    np.testing.assert_allclose(lead @ lead.T, s[:valid, :valid], rtol=0,
                               atol=1e-10 * max(1.0, np.abs(s).max()))
    assert not chol[valid:].any() and not chol[:, valid:].any()
    if valid < n:
        with pytest.raises(NotSpdError):
            spd_cholesky(s[:valid + 1, :valid + 1])
    stack = np.stack([s, random_spd(rng, n), s[::-1, ::-1]])
    chols, counts = cholesky_prefix(stack)
    for m, c, v in zip(stack, chols, counts):
        alone, alone_valid = cholesky_prefix(m)
        assert c.tobytes() == alone.tobytes() and v == alone_valid


def test_median_is_np_median_bit_for_bit():
    rng = np.random.default_rng(37)
    for size in range(1, 61):  # odd and even
        draws = (rng.normal(size=size), rng.integers(0, 4, size=size) / 7.0,
                 rng.integers(0, 50, size=size) / 9898.0, np.full(size, 0.1))
        for values in draws:  # ties in all but the first
            want = np.float64(np.median(values)).tobytes()
            assert np.float64(median(values)).tobytes() == want
            assert np.float64(median(list(values))).tobytes() == want


class TestSymEigen:
    def test_diagonal_descending(self):
        vals, vecs = sym_eigen(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(vals, [3.0, 1.0])

    def test_hand_eigendecomposition(self):
        vals, vecs = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(vals, [1.0, -1.0], atol=1e-15)
        for j in range(2):
            np.testing.assert_allclose(np.abs(vecs[:, j]),
                                       [1 / np.sqrt(2)] * 2, rtol=1e-12)

    def test_identity_all_ones(self):
        vals, _ = sym_eigen(np.eye(6))
        np.testing.assert_allclose(vals, np.ones(6))

    def test_reconstruction(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = int(rng.integers(2, 25))
            s = symmetrize(rng.normal(size=(p, p)))
            vals, vecs = sym_eigen(s)
            recon = (vecs * vals) @ vecs.T
            err = np.linalg.norm(recon - s)
            assert err <= 1e-9 * max(1.0, np.linalg.norm(s))
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(p), atol=1e-12)


@pytest.mark.parametrize("kernel, lapack_name", [
    (svd_full, "svd"), (sym_eigen, "eigh")])
def test_lapack_failure_is_typed(monkeypatch, kernel, lapack_name):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, lapack_name, no_convergence)
    with pytest.raises(NumericalDomainError, match="did not converge"):
        kernel(np.eye(3))
