import numpy as np
import pytest

from ssdr.datamodel import (
    ClassSummary,
    LabeledDataset,
    jitter,
    load_csv,
    standardize,
    summarize,
    write_csv,
)
from ssdr.errors import (
    CsvParseError,
    DegenerateFeatureError,
    InvalidInputError,
    SampleSizeError,
)


def blob_dataset(rng, n_per=30, p=3, k=2, spread=4.0):
    feats, labels = [], []
    for c in range(k):
        feats.append(rng.normal(size=(n_per, p)) + spread * c)
        labels.append(np.full(n_per, c))
    return LabeledDataset(np.vstack(feats), np.concatenate(labels))


class TestLabeledDataset:
    def test_basic_properties(self):
        ds = LabeledDataset([[0.0, 1.0], [2.0, 3.0]], [0, 1])
        assert (ds.n, ds.p, ds.k) == (2, 2, 2)

    def test_missing_class_rejected(self):
        with pytest.raises(InvalidInputError):
            LabeledDataset([[0.0], [1.0]], [0, 2])

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            LabeledDataset([[np.nan], [1.0]], [0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            LabeledDataset([[1.0], [2.0]], [0])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            LabeledDataset(np.empty((0, 2)), np.empty(0, dtype=int))

    def test_features_readonly(self):
        ds = LabeledDataset([[1.0], [2.0]], [0, 0])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0


class TestSummarize:
    def test_mle_divisor_hand_example(self):
        # two classes, each holding the points (0,0) and (2,0)
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        ds = LabeledDataset(feats, [0, 0, 1, 1])
        out = summarize(ds)
        for cs in out:
            np.testing.assert_allclose(cs.mean, [1.0, 0.0])
            np.testing.assert_allclose(cs.cov, np.diag([1.0, 0.0]))

    def test_single_observation_class_rejected(self):
        ds = LabeledDataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        with pytest.raises(SampleSizeError):
            summarize(ds)

    def test_pooled_mean_reconstruction(self):
        rng = np.random.default_rng(2)
        ds = blob_dataset(rng, n_per=17, p=4, k=3)
        out = summarize(ds)
        pooled = sum(cs.prior * cs.mean for cs in out)
        np.testing.assert_allclose(pooled, ds.features.mean(axis=0),
                                   atol=1e-10)

    def test_class_summary_validates(self):
        with pytest.raises(SampleSizeError):
            ClassSummary(class_id=0, n_i=1, mean=np.zeros(2),
                         cov=np.eye(2), prior=1.0)
        with pytest.raises(InvalidInputError):
            ClassSummary(class_id=0, n_i=5, mean=np.zeros(2),
                         cov=np.eye(2), prior=0.0)


class TestStandardize:
    def test_hand_column(self):
        train = LabeledDataset([[1.0], [2.0], [3.0]], [0, 0, 0])
        out, _ = standardize(train, train)
        np.testing.assert_allclose(out.features[:, 0], [-1.0, 0.0, 1.0])

    def test_idempotent_on_standardized(self):
        rng = np.random.default_rng(3)
        train = LabeledDataset(rng.normal(size=(40, 3)), np.zeros(40, int))
        once, _ = standardize(train, train)
        twice, _ = standardize(once, once)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-12)

    def test_constant_column_names_offender(self):
        feats = np.ones((5, 3))
        feats[:, 0] = np.arange(5)
        feats[:, 2] = np.arange(5)
        train = LabeledDataset(feats, np.zeros(5, int))
        with pytest.raises(DegenerateFeatureError) as ei:
            standardize(train, train)
        assert ei.value.column == 1

    def test_train_only_statistics(self):
        rng = np.random.default_rng(4)
        train = LabeledDataset(rng.normal(size=(50, 2)), np.zeros(50, int))
        test = LabeledDataset(rng.normal(size=(20, 2)) + 10.0,
                              np.zeros(20, int))
        tr, te = standardize(train, test)
        center = train.features.mean(axis=0)
        scale = train.features.std(axis=0, ddof=1)
        np.testing.assert_allclose(
            te.features, (test.features - center) / scale, rtol=1e-12)
        np.testing.assert_allclose(tr.features.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(tr.features.std(axis=0, ddof=1), 1.0,
                                   atol=1e-10)


class TestJitter:
    def test_deterministic(self):
        rng = np.random.default_rng(5)
        ds = blob_dataset(rng)
        a = jitter(ds, 1e-5, seed=99)
        b = jitter(ds, 1e-5, seed=99)
        assert np.array_equal(a.features, b.features)

    def test_zero_sigma_rejected(self):
        rng = np.random.default_rng(5)
        ds = blob_dataset(rng)
        with pytest.raises(InvalidInputError):
            jitter(ds, 0.0, seed=1)

    def test_change_bounded_by_gaussian_tail(self):
        # P(|N(0, 1e-5)| > 1e-4) = P(|Z| > 10), negligible over n*p draws
        rng = np.random.default_rng(6)
        ds = LabeledDataset(rng.normal(size=(500, 20)), np.zeros(500, int))
        out = jitter(ds, 1e-5, seed=7)
        assert np.max(np.abs(out.features - ds.features)) < 1e-4


class TestCsv:
    def test_smoke(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,pos\n3,4,neg\n5,6,pos\n")
        ds = load_csv(path, label_column="y")
        assert (ds.n, ds.p, ds.k) == (3, 2, 2)
        np.testing.assert_allclose(ds.features[1], [3.0, 4.0])

    def test_first_appearance_label_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,b\n2,m\n3,b\n")
        ds = load_csv(path, label_column="y")
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.label_names == ("b", "m")

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,z,y\n1,2,b\n3,m\n")
        with pytest.raises(CsvParseError) as ei:
            load_csv(path, label_column="y")
        assert ei.value.line == 3

    def test_unparseable_numeric_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\noops,b\n")
        with pytest.raises(CsvParseError) as ei:
            load_csv(path, label_column="y")
        assert ei.value.line == 2

    def test_label_column_by_index_no_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0\n3,4,1\n")
        ds = load_csv(path, label_column=-1, header=False)
        assert ds.labels.tolist() == [0, 1]
        assert ds.p == 2

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(8)
        ds = blob_dataset(rng, n_per=12, p=4, k=3)
        path = tmp_path / "rt.csv"
        write_csv(ds, path)
        back = load_csv(path, label_column="label")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
