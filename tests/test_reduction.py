import numpy as np
import pytest

from ssdr import qda
from ssdr.datamodel import ClassSummary, LabeledDataset
from ssdr.errors import (
    InvalidInputError,
    SampleSizeError,
    TheoremInapplicableError,
)
from ssdr.estimators import PrecisionEstimatorSpec
from ssdr.reduction import (
    build_discriminant_matrix,
    project,
    projection_basis,
    qda_invariance_check,
    random_theorem_fixture,
    subspace_identity_residuals,
    theorem_fixture,
)

SAMPLE = PrecisionEstimatorSpec(kind="sample_inverse")


def exact_summary(class_id, mean, cov, n=100, prior=0.5):
    return ClassSummary(class_id=class_id, n_i=n, mean=np.asarray(mean, float),
                        cov=np.asarray(cov, float), prior=prior)


RANK1_SUMMARIES = [
    exact_summary(0, [0.0, 0.0], np.eye(2)),
    exact_summary(1, [1.0, 0.0], np.diag([2.0, 1.0])),
]


class TestDiscriminantMatrix:
    def test_equal_classes_give_zero_matrix(self):
        cs = [exact_summary(0, [1.0, 2.0], np.eye(2)),
              exact_summary(1, [1.0, 2.0], np.eye(2))]
        m = build_discriminant_matrix(cs, SAMPLE)
        np.testing.assert_allclose(m, np.zeros((2, 3)), atol=1e-14)

    def test_hand_example_rank_one(self):
        m = build_discriminant_matrix(RANK1_SUMMARIES, SAMPLE)
        np.testing.assert_allclose(m, [[0.5, 1.0, 0.0], [0.0, 0.0, 0.0]],
                                   atol=1e-12)
        assert np.linalg.matrix_rank(m) == 1

    def test_column_count(self):
        cs = [exact_summary(i, np.full(2, float(i)), np.eye(2), prior=1 / 3)
              for i in range(3)]
        m = build_discriminant_matrix(cs, SAMPLE)
        assert m.shape == (2, (3 - 1) * (2 + 1))

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInputError):
            build_discriminant_matrix([RANK1_SUMMARIES[0]], SAMPLE)

    def test_estimator_failure_names_class(self):
        cs = [exact_summary(0, [0.0, 0.0], np.eye(2), n=30),
              exact_summary(1, [1.0, 0.0], np.eye(2), n=4)]
        with pytest.raises(SampleSizeError) as ei:
            build_discriminant_matrix(cs, PrecisionEstimatorSpec(kind="haff"))
        assert ei.value.class_id == 1
        assert "class 1" in str(ei.value)

    def test_covariance_columns_translation_equivariant(self):
        rng = np.random.default_rng(0)
        covs = []
        for _ in range(2):
            g = rng.normal(size=(3, 3))
            covs.append(g @ g.T + 3 * np.eye(3))
        means = [rng.normal(size=3) for _ in range(2)]
        cs = [exact_summary(i, means[i], covs[i]) for i in range(2)]
        delta = np.eye(3) * 0.5
        cs_shift = [exact_summary(i, means[i], covs[i] + delta)
                    for i in range(2)]
        m = build_discriminant_matrix(cs, SAMPLE)
        m_shift = build_discriminant_matrix(cs_shift, SAMPLE)
        np.testing.assert_allclose(m[:, -3:], m_shift[:, -3:], atol=1e-12)


class TestProjectionBasis:
    def test_rank_one_basis(self):
        m = build_discriminant_matrix(RANK1_SUMMARIES, SAMPLE)
        basis = projection_basis(m, 1)
        np.testing.assert_allclose(basis.u.ravel(), [1.0, 0.0], atol=1e-12)
        assert basis.numerical_rank == 1
        assert not basis.beyond_rank

    def test_full_dimension_is_orthogonal_completion(self):
        m = build_discriminant_matrix(RANK1_SUMMARIES, SAMPLE)
        basis = projection_basis(m, 2)
        np.testing.assert_allclose(basis.u @ basis.u.T, np.eye(2), atol=1e-10)
        assert basis.beyond_rank

    def test_zero_matrix_flags_beyond_rank(self):
        basis = projection_basis(np.zeros((3, 4)), 1)
        assert basis.beyond_rank
        assert basis.numerical_rank == 0

    def test_out_of_range_r_rejected(self):
        m = np.eye(3)
        for r in (0, 4):
            with pytest.raises(InvalidInputError):
                projection_basis(m, r)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 14))
        for r in (1, 3, 6):
            basis = projection_basis(m, r)
            np.testing.assert_allclose(basis.u.T @ basis.u, np.eye(r),
                                       atol=1e-10)

    def test_nested_spans(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(7, 16))
        b2 = projection_basis(m, 2)
        b5 = projection_basis(m, 5)
        proj = b5.u @ b5.u.T
        np.testing.assert_allclose(proj @ b2.u, b2.u, atol=1e-10)


class TestProject:
    def test_identity_basis_is_noop(self):
        rng = np.random.default_rng(3)
        ds = LabeledDataset(rng.normal(size=(10, 3)), [0] * 5 + [1] * 5)
        basis = projection_basis(np.eye(3), 3)
        out = project(basis, ds)
        np.testing.assert_allclose(out.features, ds.features @ basis.u)
        assert np.array_equal(out.labels, ds.labels)

    def test_coordinate_selection(self):
        ds = LabeledDataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        basis = projection_basis(np.array([[1.0, 0.0], [0.0, 0.0]]), 1)
        out = project(basis, ds)
        np.testing.assert_allclose(out.features.ravel(), [1.0, 3.0])

    def test_dimension_mismatch_rejected(self):
        ds = LabeledDataset([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [0, 1])
        basis = projection_basis(np.eye(2), 2)
        with pytest.raises(InvalidInputError):
            project(basis, ds)

    def test_full_rank_projection_preserves_geometry(self):
        rng = np.random.default_rng(4)
        ds = LabeledDataset(rng.normal(size=(20, 4)), [0] * 10 + [1] * 10)
        basis = projection_basis(rng.normal(size=(4, 10)), 4)
        out = project(basis, ds)
        gram_before = ds.features @ ds.features.T
        gram_after = out.features @ out.features.T
        np.testing.assert_allclose(gram_after, gram_before, atol=1e-8)


class TestTheoremMachinery:
    def test_fixture_rank_and_projectors(self):
        fix = theorem_fixture(
            [s.mean for s in RANK1_SUMMARIES],
            [s.cov for s in RANK1_SUMMARIES],
        )
        assert fix.q == 1
        np.testing.assert_allclose(fix.p_u + fix.p_u_perp, np.eye(2),
                                   atol=1e-14)
        assert fix.c.shape == (1, 2)

    def test_invariance_on_hand_fixture(self):
        fix = theorem_fixture(
            [s.mean for s in RANK1_SUMMARIES],
            [s.cov for s in RANK1_SUMMARIES],
        )
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10_000, 2)) * 3
        res = qda_invariance_check(fix, x)
        ok = (res.argmin_full == res.argmin_reduced) | (res.gap_full < 1e-12)
        assert ok.all()

    def test_lda_direction_reduces_to_threshold(self):
        fix = theorem_fixture(
            [np.zeros(3), np.array([1.0, 0.0, 0.0])],
            [np.eye(3), np.eye(3)],
        )
        assert fix.q == 1
        np.testing.assert_allclose(fix.u.ravel(), [1.0, 0.0, 0.0], atol=1e-12)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2000, 3))
        res = qda_invariance_check(fix, x)
        assert (res.argmin_full == res.argmin_reduced).all()
        # the reduced rule is the midpoint threshold on the first coordinate
        expected = (x[:, 0] > 0.5).astype(int)
        ties = np.abs(x[:, 0] - 0.5) < 1e-12
        assert np.array_equal(res.argmin_full[~ties], expected[~ties])

    def test_boundary_point_reports_tie(self):
        fix = theorem_fixture(
            [np.zeros(2), np.array([2.0, 0.0])],
            [np.eye(2), np.eye(2)],
        )
        res = qda_invariance_check(fix, np.array([[1.0, 0.3]]))
        assert res.gap_full[0] < 1e-12
        assert res.gap_reduced[0] < 1e-12

    def test_full_rank_fixture_rejected(self):
        fix = theorem_fixture(
            [np.zeros(3), np.ones(3)],
            [np.eye(3), np.diag([2.0, 3.0, 4.0])],
        )
        assert fix.q == fix.p
        with pytest.raises(TheoremInapplicableError):
            qda_invariance_check(fix, np.zeros(3))

    def test_random_fixtures_preserve_decisions(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            p = int(rng.integers(4, 10))
            k = int(rng.integers(2, 4))
            q = int(rng.integers(1, p - 1))
            fix = random_theorem_fixture(p, k, q, rng=rng)
            assert fix.q < p
            x = rng.normal(size=(500, p)) * 2
            res = qda_invariance_check(fix, x)
            ok = (res.argmin_full == res.argmin_reduced) | \
                (res.gap_full < 1e-12)
            assert ok.all()

    def test_identity_residuals_on_hand_fixture(self):
        fix = theorem_fixture(
            [s.mean for s in RANK1_SUMMARIES],
            [s.cov for s in RANK1_SUMMARIES],
        )
        res = subspace_identity_residuals(fix)
        assert max(res.values()) <= 1e-10

    def test_identity_residuals_equal_spherical(self):
        fix = theorem_fixture(
            [np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0])],
            [2.0 * np.eye(4), 2.0 * np.eye(4)],
        )
        res = subspace_identity_residuals(fix)
        assert max(res.values()) <= 1e-12

    def test_complement_identities_invariant_to_r_choice(self):
        means = [s.mean for s in RANK1_SUMMARIES]
        covs = [s.cov for s in RANK1_SUMMARIES]
        for seed in (0, 1, 2):
            fix = theorem_fixture(means, covs, seed=seed)
            res = subspace_identity_residuals(fix)
            assert res["complement_mean_equality"] <= 1e-8
            assert res["complement_cov_equality"] <= 1e-8

    def test_invalid_r_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            theorem_fixture(
                [s.mean for s in RANK1_SUMMARIES],
                [s.cov for s in RANK1_SUMMARIES],
                r_matrix=np.zeros((1, 2)),  # rank(C) would be 0
            )

    def test_exact_matrix_matches_estimated_on_exact_summaries(self):
        m_exact = theorem_fixture(
            [s.mean for s in RANK1_SUMMARIES],
            [s.cov for s in RANK1_SUMMARIES],
        ).m
        m_est = build_discriminant_matrix(RANK1_SUMMARIES, SAMPLE)
        np.testing.assert_allclose(m_exact, m_est, atol=1e-12)


class TestBasisRotationInvariance:
    def test_projected_decisions_invariant_to_basis_rotation(self):
        rng = np.random.default_rng(8)
        fix = random_theorem_fixture(6, 2, 3, rng=rng)
        x = rng.normal(size=(300, 6))
        u = fix.u
        g = rng.normal(size=(u.shape[1], u.shape[1]))
        q_rot, _ = np.linalg.qr(g)
        u_rot = u @ q_rot

        def reduced_argmin(basis):
            model = qda.fit_from_parameters(
                [basis.T @ m for m in fix.means],
                [basis.T @ c @ basis for c in fix.covs],
                fix.priors,
            )
            return qda.classify(model, x @ basis)

        a = reduced_argmin(u)
        b = reduced_argmin(u_rot)
        assert np.array_equal(a, b)
