"""Tests for accuracy, ROC-AUC, Cohen's kappa and confusion matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from mcarules.metrics import _average_ranks, accuracy, cohen_kappa, confusion_matrix, roc_auc


def trapezoid_auc(y_true, scores):
    """Area under the ROC curve by sweeping thresholds and integrating.

    Independent of the rank-statistic route: sort unique scores descending,
    accumulate TPR/FPR points, and apply the trapezoid rule. Ties land on a
    single ROC vertex, so tied positives and negatives contribute half.
    """
    true = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    positive = true == true.max()
    n_pos = int(positive.sum())
    n_neg = int(true.size - n_pos)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    pos_sorted = positive[order]
    tpr = [0.0]
    fpr = [0.0]
    i = 0
    tp = fp = 0
    while i < true.size:
        j = i
        while j < true.size and s_sorted[j] == s_sorted[i]:
            j += 1
        tp += int(pos_sorted[i:j].sum())
        fp += (j - i) - int(pos_sorted[i:j].sum())
        tpr.append(tp / n_pos)
        fpr.append(fp / n_neg)
        i = j
    area = 0.0
    for a in range(1, len(tpr)):
        area += (fpr[a] - fpr[a - 1]) * (tpr[a] + tpr[a - 1]) / 2.0
    return area


class TestConfusionMatrix:
    def test_counts_by_true_row_pred_column(self):
        got = confusion_matrix([0, 0, 1, 1, 1], [0, 1, 1, 1, 0])
        assert got.tolist() == [[1, 1], [1, 2]]

    def test_total_equals_samples(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 3, size=50)
        y_pred = rng.integers(0, 3, size=50)
        got = confusion_matrix(y_true, y_pred, n_labels=3)
        assert int(got.sum()) == 50

    def test_explicit_size_pads_unused_labels(self):
        got = confusion_matrix([0, 0], [0, 0], n_labels=3)
        assert got.shape == (3, 3)
        assert int(got.sum()) == 2

    def test_errors(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])
        with pytest.raises(ValueError):
            confusion_matrix([], [])
        with pytest.raises(ValueError):
            confusion_matrix([0, 2], [0, 0], n_labels=2)
        with pytest.raises(ValueError):
            confusion_matrix([0, -1], [0, 0])


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_three_of_four(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75

    def test_equals_confusion_trace(self):
        rng = np.random.default_rng(1)
        y_true = rng.integers(0, 4, size=100)
        y_pred = rng.integers(0, 4, size=100)
        counts = confusion_matrix(y_true, y_pred, n_labels=4)
        assert accuracy(y_true, y_pred) == np.trace(counts) / counts.sum()

    def test_errors(self):
        with pytest.raises(ValueError):
            accuracy([0], [0, 1])
        with pytest.raises(ValueError):
            accuracy([], [])


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_reversed_separation(self):
        assert roc_auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_all_scores_equal(self):
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([1, 1, 1], [0.1, 0.2, 0.3])

    def test_matches_trapezoid_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(4, 30))
            y = rng.integers(0, 2, size=n)
            if np.unique(y).size < 2:
                y[:2] = [0, 1]
            # Coarse grid forces plenty of ties.
            s = rng.integers(0, 5, size=n) / 4.0
            assert roc_auc(y, s) == pytest.approx(trapezoid_auc(y, s), abs=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_negated_scores_complement(self, data):
        n = data.draw(st.integers(4, 20))
        y = np.array(data.draw(
            st.lists(st.integers(0, 1), min_size=n, max_size=n)
        ))
        if np.unique(y).size < 2:
            y[0], y[1] = 0, 1
        # Distinct scores keep the identity exact; ties would split credit.
        s = np.argsort(
            data.draw(st.permutations(list(range(n))))
        ).astype(float)
        assert roc_auc(y, s) + roc_auc(y, -s) == pytest.approx(1.0, abs=1e-12)

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_ranks_and_auc_match_scipy(self, data):
        # A small pool of values forces ties; NaN, infinities and signed
        # zeros are drawn too. Ranks and AUCs must have scipy's exact bits,
        # and any NaN score gives NaN ranks and a NaN AUC, as in scipy.
        pool = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.inf, -np.inf, np.nan])
        values = data.draw(st.lists(st.one_of(pool, st.floats()), min_size=2, max_size=40))
        s = np.array(values)
        want = rankdata(s, method="average")
        assert np.array_equal(_average_ranks(s), want, equal_nan=True)
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=s.size, max_size=s.size)))
        y[:2] = [0, 1]
        positive = y == 1
        n_pos, n_neg = int(positive.sum()), int((~positive).sum())
        scipy_auc = (float(want[positive].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert np.array_equal(roc_auc(y, s), scipy_auc, equal_nan=True)


class TestCohenKappa:
    def test_diagonal_is_one(self):
        assert cohen_kappa([[3, 0], [0, 5]]) == 1.0

    def test_uniform_is_zero(self):
        assert cohen_kappa([[1, 1], [1, 1]]) == 0.0

    def test_complete_misclassification_binary_balanced(self):
        assert cohen_kappa([[0, 4], [4, 0]]) == -1.0

    def test_degenerate_single_cell_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            assert cohen_kappa([[5, 0], [0, 0]]) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 10, size=(4, 4))
        counts[0, 0] += 1
        counts[1, 1] += 1
        base = cohen_kappa(counts)
        for _ in range(5):
            perm = rng.permutation(4)
            permuted = counts[np.ix_(perm, perm)]
            assert cohen_kappa(permuted) == pytest.approx(base, abs=1e-12)

    def test_matches_definition(self):
        counts = np.array([[20, 5], [10, 15]], dtype=float)
        total = counts.sum()
        p_o = (20 + 15) / total
        p_e = ((25 * 30) + (25 * 20)) / total**2
        assert cohen_kappa(counts) == pytest.approx(
            (p_o - p_e) / (1 - p_e), abs=1e-15
        )

    def test_errors(self):
        with pytest.raises(ValueError):
            cohen_kappa(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            cohen_kappa(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            cohen_kappa([[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            cohen_kappa([[-1, 2], [2, 1]])
