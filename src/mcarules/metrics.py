"""Evaluation metrics: accuracy, binary ROC-AUC, Cohen's kappa, confusion matrices.

All functions are pure and operate on plain arrays. ROC-AUC uses the
Mann-Whitney rank statistic, which equals the area under the ROC curve
and gives tied scores 0.5 credit. Multi-class ROC-AUC is out of scope;
callers should report accuracy and kappa when there are more than two
classes.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "confusion_matrix",
    "accuracy",
    "roc_auc",
    "cohen_kappa",
]


def _as_labels(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    return arr.astype(np.int64)


def confusion_matrix(y_true, y_pred, n_labels: int | None = None) -> np.ndarray:
    """Count matrix with rows indexed by true label, columns by prediction."""
    true = _as_labels(y_true, "y_true")
    pred = _as_labels(y_pred, "y_pred")
    if true.shape != pred.shape:
        raise ValueError("y_true and y_pred have different lengths")
    if true.min() < 0 or pred.min() < 0:
        raise ValueError("labels must be nonnegative integers")
    if n_labels is None:
        n_labels = int(max(true.max(), pred.max())) + 1
    elif true.max() >= n_labels or pred.max() >= n_labels:
        raise ValueError("label out of range for the requested matrix size")
    counts = np.zeros((n_labels, n_labels), dtype=np.int64)
    np.add.at(counts, (true, pred), 1)
    return counts


def accuracy(y_true, y_pred) -> float:
    """Fraction of exact matches."""
    true = _as_labels(y_true, "y_true")
    pred = _as_labels(y_pred, "y_pred")
    if true.shape != pred.shape:
        raise ValueError("y_true and y_pred have different lengths")
    return float(np.count_nonzero(true == pred) / true.size)


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of a 1-d array, tied values sharing the mean of their positions.

    A tie group occupying sorted positions ``start`` to ``end - 1`` gets rank
    ``(start + end + 1) / 2``, an exact half-integer. As with
    ``scipy.stats.rankdata(method="average")``, any NaN makes every rank NaN.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def roc_auc(y_true, scores) -> float:
    """Mann-Whitney AUC of `scores` against binary `y_true`, ties counted 0.5."""
    true = _as_labels(y_true, "y_true")
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.shape != true.shape:
        raise ValueError("scores must be one-dimensional and match y_true")
    classes = np.unique(true)
    if classes.size != 2:
        raise ValueError("roc_auc requires exactly two classes present")
    positive = true == classes.max()
    n_pos = int(np.count_nonzero(positive))
    n_neg = true.size - n_pos
    # Average ranks give each tied positive/negative pair exactly 0.5.
    ranks = _average_ranks(s)
    rank_sum = float(ranks[positive].sum())
    u_stat = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))


def cohen_kappa(confusion) -> float:
    """Chance-corrected agreement computed from a confusion matrix."""
    counts = np.asarray(confusion, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError("confusion matrix must be square")
    if counts.size == 0:
        raise ValueError("confusion matrix is empty")
    if (counts < 0).any():
        raise ValueError("confusion matrix entries must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("confusion matrix has no observations")
    p_o = np.trace(counts) / total
    row = counts.sum(axis=1) / total
    col = counts.sum(axis=0) / total
    p_e = float(row @ col)
    if p_e >= 1.0:
        # All mass in one row/column pair: chance agreement saturates and
        # the usual formula divides by zero.
        warnings.warn("chance agreement is 1; kappa is undefined, returning 0")
        return 0.0
    return float((p_o - p_e) / (1.0 - p_e))
