import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moodsig.errors import UndefinedMetricError
from moodsig.metrics import (
    accuracy,
    bootstrap,
    confusion_matrix,
    evaluate_classification,
    evaluate_regression,
    f1_per_class,
    mae,
    report_to_dict,
    roc_ovr,
)


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        y = np.array([0, 1, 2, 1, 0])
        conf = confusion_matrix(y, y, 3)
        np.testing.assert_array_equal(conf, np.diag([2, 2, 1]))

    def test_direct_count(self):
        conf = confusion_matrix([0, 0, 1], [0, 1, 1], 2)
        np.testing.assert_array_equal(conf, [[1, 1], [0, 1]])

    def test_single_predicted_class_single_column(self):
        conf = confusion_matrix([0, 1, 2], [1, 1, 1], 3)
        assert (conf[:, [0, 2]] == 0).all()
        np.testing.assert_array_equal(conf[:, 1], [1, 1, 1])

    def test_entries_sum_to_instances(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 4, 50)
        y_pred = rng.integers(0, 4, 50)
        assert confusion_matrix(y_true, y_pred, 4).sum() == 50

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 3], [0, 1], 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], 2)


class TestF1:
    def test_diagonal_all_ones(self):
        np.testing.assert_array_equal(f1_per_class(np.diag([3, 1, 7])), [1, 1, 1])

    def test_hand_arithmetic(self):
        np.testing.assert_allclose(
            f1_per_class(np.array([[1, 1], [0, 1]])), [2 / 3, 2 / 3]
        )

    def test_absent_class_zero(self):
        conf = np.array([[2, 0, 0], [1, 3, 0], [0, 0, 0]])
        assert f1_per_class(conf)[2] == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(1)
        conf = rng.integers(0, 10, (4, 4))
        f1 = f1_per_class(conf)
        assert ((f1 >= 0) & (f1 <= 1)).all()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=3, max_size=40),
       st.permutations([0, 1, 2]))
def test_f1_permutation_equivariant(labels, perm):
    rng = np.random.default_rng(abs(hash(tuple(labels))) % 2**32)
    y_true = np.array(labels)
    y_pred = rng.integers(0, 3, len(labels))
    perm = np.array(perm)
    base = f1_per_class(confusion_matrix(y_true, y_pred, 3))
    relabeled = f1_per_class(confusion_matrix(perm[y_true], perm[y_pred], 3))
    np.testing.assert_allclose(relabeled[perm], base)


class TestRoc:
    def test_perfect_separation(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
        _, auc = roc_ovr(probs, np.array([0, 0, 1, 1]), 0)
        assert auc == 1.0

    def test_identical_scores_diagonal(self):
        probs = np.full((6, 2), 0.5)
        pts, auc = roc_ovr(probs, np.array([0, 1, 0, 1, 0, 1]), 0)
        np.testing.assert_array_equal(pts, [[0, 0], [1, 1]])
        assert auc == 0.5

    def test_four_point_trapezoid(self):
        probs = np.column_stack([[0.9, 0.8, 0.4, 0.3], [0.1, 0.2, 0.6, 0.7]])
        y = np.array([0, 1, 0, 1])
        pts, auc = roc_ovr(probs, y, 0)
        np.testing.assert_allclose(
            pts, [[0, 0], [0, 0.5], [0.5, 0.5], [0.5, 1], [1, 1]]
        )
        assert auc == 0.75

    def test_endpoints_and_monotone(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet([1, 1, 1], size=60)
        y = rng.integers(0, 3, 60)
        pts, auc = roc_ovr(probs, y, 1)
        np.testing.assert_array_equal(pts[0], [0, 0])
        np.testing.assert_array_equal(pts[-1], [1, 1])
        assert (np.diff(pts, axis=0) >= 0).all()
        assert 0.0 <= auc <= 1.0

    def test_degenerate_class_raises(self):
        probs = np.array([[0.6, 0.4], [0.3, 0.7]])
        with pytest.raises(UndefinedMetricError):
            roc_ovr(probs, np.array([0, 0]), 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 0.99), min_size=4, max_size=40),
       st.integers(0, 2**31 - 1))
def test_roc_score_reversal_flips_auc(scores, seed):
    scores = np.round(np.array(scores), 2)
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, len(scores))
    if y.min() == y.max():
        y[0] = 1 - y[0]
    _, auc_fwd = roc_ovr(np.column_stack([scores, 1 - scores]), y, 0)
    _, auc_rev = roc_ovr(np.column_stack([1 - scores, scores]), y, 0)
    np.testing.assert_allclose(auc_fwd + auc_rev, 1.0, atol=1e-12)


class TestMae:
    def test_identical_zero(self):
        assert mae([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert mae([1.0, 3.0], [2.0, 5.0]) == 1.5

    def test_constant_predictor_minimized_at_median(self):
        truth = np.array([0.0, 0.0, 10.0])
        errs = {c: mae(truth, np.full(3, float(c))) for c in range(11)}
        assert min(errs, key=errs.get) == 0
        np.testing.assert_allclose(errs[0], 10 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mae([], [])


class TestBootstrap:
    def test_constant_metric_zero_std(self):
        y = np.arange(20)
        mean, std = bootstrap(lambda a, b: 0.42, y, y, n_resamples=50, seed=1)
        np.testing.assert_allclose(mean, 0.42, rtol=1e-12)
        assert std < 1e-12

    def test_single_resample(self):
        y = np.arange(10)
        mean, std = bootstrap(accuracy, y, y, n_resamples=1, seed=2)
        assert mean == 1.0 and std == 0.0

    def test_binomial_standard_error(self):
        y_true = np.zeros(1000, dtype=int)
        y_pred = np.zeros(1000, dtype=int)
        y_pred[:340] = 1
        _, std = bootstrap(accuracy, y_true, y_pred, n_resamples=1000, seed=3)
        expected = np.sqrt(0.66 * 0.34 / 1000)
        assert abs(std - expected) < 0.2 * expected

    def test_seed_determinism(self):
        rng = np.random.default_rng(4)
        y_true, y_pred = rng.integers(0, 3, 40), rng.integers(0, 3, 40)
        a = bootstrap(accuracy, y_true, y_pred, n_resamples=100, seed=9)
        b = bootstrap(accuracy, y_true, y_pred, n_resamples=100, seed=9)
        assert a == b


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=60),
       st.integers(0, 2**31 - 1))
def test_accuracy_equals_confusion_trace_ratio(labels, seed):
    y_true = np.array(labels)
    y_pred = np.random.default_rng(seed).integers(0, 4, len(labels))
    conf = confusion_matrix(y_true, y_pred, 4)
    np.testing.assert_allclose(accuracy(y_true, y_pred), np.trace(conf) / conf.sum())


class TestReports:
    def _classification_report(self):
        rng = np.random.default_rng(6)
        y_true = rng.integers(0, 3, 80)
        probs = rng.dirichlet([1.5, 1.5, 1.5], 80)
        y_pred = probs.argmax(axis=1)
        return evaluate_classification(
            y_true, y_pred, probs=probs, n_classes=3, n_resamples=100, seed=7
        )

    def test_classification_fields(self):
        rep = self._classification_report()
        assert rep.confusion.sum() == 80
        assert len(rep.f1) == 3 and len(rep.auc) == 3
        assert all(0 <= a <= 1 for a in rep.auc if not np.isnan(a))
        assert rep.mae is None

    def test_regression_fields(self):
        rep = evaluate_regression([1.0, 3.0], [2.0, 5.0], n_resamples=1, seed=0)
        assert rep.confusion is None and rep.roc is None
        assert np.isnan(rep.accuracy_mean)
        assert rep.mae >= 0.0

    def test_report_dict_writes_nan_as_null(self):
        rep = evaluate_regression([1.0, 2.0], [1.5, 2.5], n_resamples=2, seed=1)
        doc = report_to_dict(rep)
        assert doc["accuracy_mean"] is None and doc["accuracy_std"] is None
        assert doc["mae"] == rep.mae
        assert doc["confusion"] is None and doc["roc"] is None

    def test_report_dict_holds_classification_arrays(self):
        rep = self._classification_report()
        doc = report_to_dict(rep)
        assert doc["confusion"] == rep.confusion.tolist()
        assert doc["f1"] == rep.f1.tolist()
        assert doc["roc"] == [c.tolist() for c in rep.roc]
        assert doc["mae"] is None
