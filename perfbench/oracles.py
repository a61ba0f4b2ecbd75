"""Checks of the pipeline's outputs against computations made apart from it.

The benchmark codes every input table itself (``CodedTable``), so a check
never reads the program's own category codes: a rule is translated to
attribute and category names, then matched against this coding. Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SCORE_TOL = 1e-9
PROB_TOL = 1e-12
NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CodedTable:
    """A labelled table coded by the benchmark: ``X[i, j]`` indexes ``categories[j]``."""

    names: tuple[str, ...]
    categories: tuple[tuple[str, ...], ...]
    X: np.ndarray
    label_names: tuple[str, ...]
    y: np.ndarray

    def literal(self, attribute: str, category: str) -> tuple[int, int] | None:
        """(column, code) of a named literal, or None if the category never occurs."""
        j = self.names.index(attribute)
        cats = self.categories[j]
        return (j, cats.index(category)) if category in cats else None


def code_strings(names, columns, label_names, labels) -> CodedTable:
    """Code string columns by sorted distinct value (unlike the program's first occurrence)."""
    categories, codes = [], []
    for col in columns:
        cats, inverse = np.unique(np.asarray(col), return_inverse=True)
        categories.append(tuple(cats.tolist()))
        codes.append(inverse)
    y = np.array([label_names.index(v) for v in labels], dtype=np.int64)
    return CodedTable(tuple(names), tuple(categories), np.column_stack(codes), tuple(label_names), y)


def quantile_bin_labels(values, bins: int) -> list[str]:
    """Interval labels of equal-frequency bins, as the documented ``--bins`` contract gives them.

    Interior edges are the exact linear-interpolation (type 7) quantiles at
    i/bins, each rounded down to a double; a value above an edge goes to the
    bin above it; labels print edges to 6 significant digits.
    """
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = xs.size
    edges = []
    for i in range(1, bins):
        lo, r = divmod((n - 1) * i, bins)
        exact = Fraction(float(xs[lo]))
        if r:
            exact += (Fraction(float(xs[lo + 1])) - exact) * Fraction(r, bins)
        edge = float(exact)
        if Fraction(edge) > exact:
            edge = math.nextafter(edge, -math.inf)
        edges.append(edge)
    bounds = ["-inf"] + [f"{e:.6g}" for e in edges] + ["+inf"]
    interval = [f"({a}, {b}]" for a, b in zip(bounds, bounds[1:])]
    return [interval[b] for b in np.searchsorted(np.array(edges), values, side="left")]


class LiteralScores:
    """Literal-label cosines from the Burt matrix, with no decomposition of the data.

    For an indicator Z with Q columns set per row, the correspondence-analysis
    residuals satisfy SᵀS = D_c^{-1/2} (ZᵀZ / (n Q²) - c cᵀ) D_c^{-1/2}, and the
    Gram matrix of the column principal coordinates over all components is
    D_c^{-1/2} SᵀS D_c^{-1/2}. With one component the coordinates are the
    leading eigenvector of SᵀS, rescaled, so a cosine is the product of signs.
    """

    def __init__(self, table: CodedTable, rows, components: int | None):
        X = table.X[rows]
        y = table.y[rows]
        n = X.shape[0]
        blocks = [np.eye(len(c))[X[:, j]] for j, c in enumerate(table.categories)]
        blocks.append(np.eye(len(table.label_names))[y])
        Z = np.hstack(blocks)
        counts = Z.sum(axis=0)
        present = counts > 0
        Z = Z[:, present]
        # column of (attribute j, code v) is offset[j] + v; the label is attribute -1
        sizes = [len(c) for c in table.categories] + [len(table.label_names)]
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self._column = np.full(int(sum(sizes)), -1)
        self._column[present] = np.arange(int(present.sum()))
        self._offsets = offsets
        Q = len(sizes)
        c = counts[present] / (n * Q)
        gram = (Z.T @ Z) / (n * Q * Q) - np.outer(c, c)
        if components is None:
            K = gram / np.outer(c, c)
            norms = np.sqrt(np.clip(np.diag(K), 0.0, None))
            self._cos = K / np.outer(norms, norms)
            self._defined = norms >= NORM_TOL
        elif components == 1:
            StS = gram / np.sqrt(np.outer(c, c))
            w, V = np.linalg.eigh(StS)
            g = V[:, -1] * math.sqrt(max(w[-1], 0.0)) / np.sqrt(c)
            self._cos = np.outer(np.sign(g), np.sign(g))
            self._defined = np.abs(g) >= NORM_TOL
        else:
            raise ValueError("the oracle covers components=None and components=1")

    def cosine(self, j: int, v: int, label: int) -> float:
        a = self._column[self._offsets[j] + v]
        b = self._column[self._offsets[-1] + label]
        if a < 0 or b < 0 or not (self._defined[a] and self._defined[b]):
            return math.nan
        return float(np.clip(self._cos[a, b], -1.0, 1.0))


def _named(rule, schemas) -> tuple[tuple[str, str], ...]:
    """A program rule's literals as (attribute name, category name) pairs."""
    return tuple(
        (schemas[lit.attribute].name, schemas[lit.attribute].categories[lit.category])
        for lit in rule.literals
    )


def _match(named, table: CodedTable, rows) -> np.ndarray:
    X = table.X[rows]
    mask = np.ones(X.shape[0], dtype=bool)
    for attribute, category in named:
        lit = table.literal(attribute, category)
        if lit is None:
            return np.zeros(X.shape[0], dtype=bool)
        mask &= X[:, lit[0]] == lit[1]
    return mask


def check_mining(mined, schemas, label_names, table, rows, scores: LiteralScores, config):
    """Supports recounted, scores from the Burt-matrix oracle, floors and caps."""
    problems = []
    y = table.y[rows]
    label_index = [table.label_names.index(name) for name in label_names]
    per_label = [0] * len(label_names)
    for sr in mined.rules:
        named = _named(sr.rule, schemas)
        k = label_index[sr.label]
        per_label[sr.label] += 1
        where = f"rule {named} -> {label_names[sr.label]}"
        if not 1 <= len(named) <= config.r_max:
            problems.append(f"{where}: {len(named)} literals, r_max is {config.r_max}")
        if len({a for a, _ in named}) != len(named):
            problems.append(f"{where}: two literals on one attribute")
        in_class = y == k
        supp = np.count_nonzero(_match(named, table, rows) & in_class) / np.count_nonzero(in_class)
        if abs(supp - sr.support) > PROB_TOL:
            problems.append(f"{where}: support {sr.support!r}, recounted {supp!r}")
        cosines = [scores.cosine(*table.literal(a, c), k) for a, c in named]
        expected = sum(cosines) / len(cosines)
        if not abs(expected - sr.score) <= SCORE_TOL:
            problems.append(f"{where}: score {sr.score!r}, oracle {expected!r}")
        if sr.score < config.mu_min or sr.support < config.s_min:
            problems.append(f"{where}: below a floor (score {sr.score}, support {sr.support})")
    for k, bucket in enumerate(mined.per_label):
        if len(bucket) > config.M or per_label[k] > config.M:
            problems.append(f"label {label_names[k]}: more than M={config.M} rules")
    if not mined.rules:
        problems.append("no rules mined")
    return problems


def first_match_counts(named_rules, table: CodedTable, rows) -> np.ndarray:
    """Label counts per clause, first match wins; the last row is the default clause."""
    y = table.y[rows]
    n_labels = len(table.label_names)
    counts = np.zeros((len(named_rules) + 1, n_labels), dtype=np.int64)
    remaining = np.ones(y.size, dtype=bool)
    for j, named in enumerate(named_rules):
        hit = _match(named, table, rows) & remaining
        counts[j] = np.bincount(y[hit], minlength=n_labels)
        remaining &= ~hit
    counts[-1] = np.bincount(y[remaining], minlength=n_labels)
    return counts


def first_match_probs(named_rules, counts, alpha, table: CodedTable, rows) -> np.ndarray:
    """Clause probabilities (counts + alpha, normalised) of each row's first matching clause."""
    smoothed = counts + alpha[None, :]
    probs = smoothed / smoothed.sum(axis=1, keepdims=True)
    n = table.X[rows].shape[0]
    clause = np.full(n, len(named_rules))
    for j in reversed(range(len(named_rules))):
        clause[_match(named_rules[j], table, rows)] = j
    return probs[clause]


def check_rule_list(rule_list, schemas, label_names, train_table, train_rows):
    """Capture counts recounted first-match on the training rows.

    Returns the problems and the recount, in the program's label order.
    """
    named = [_named(r, schemas) for r in rule_list.rules]
    order = [train_table.label_names.index(name) for name in label_names]
    recount = first_match_counts(named, train_table, train_rows)[:, order]
    problems = []
    if len(set(rule_list.rules)) != len(rule_list.rules):
        problems.append("rule list repeats a rule")
    if not np.array_equal(recount, rule_list.capture_counts):
        diff = np.argwhere(recount != rule_list.capture_counts)
        problems.append(
            f"capture counts differ from the first-match recount at {diff[:3].tolist()}"
        )
    return problems, named, recount


def check_predictions(probs, predicted, expected_probs, label_names):
    """Program probabilities within PROB_TOL of the benchmark's scorer, labels its argmax."""
    problems = []
    if probs.shape != expected_probs.shape:
        return [f"predictions shape {probs.shape}, expected {expected_probs.shape}"]
    worst = float(np.max(np.abs(probs - expected_probs))) if probs.size else 0.0
    if worst > PROB_TOL:
        bad = int(np.argmax(np.max(np.abs(probs - expected_probs), axis=1)))
        problems.append(f"probabilities differ from the first-match scorer by {worst!r} (row {bad})")
    expected = np.asarray(label_names)[np.argmax(expected_probs, axis=1)]
    wrong = np.flatnonzero(np.asarray(predicted) != expected)
    if wrong.size:
        problems.append(f"{wrong.size} predicted labels differ from the scorer's, first at row {wrong[0]}")
    return problems


def accuracy(y_true, y_pred) -> float:
    return float(np.mean(np.asarray(y_true) == np.asarray(y_pred)))


def auc(positive, scores) -> float:
    """Mann-Whitney AUC: the share of (positive, negative) pairs ranked right, ties half."""
    positive = np.asarray(positive, dtype=bool)
    neg = np.sort(np.asarray(scores)[~positive])
    pos = np.asarray(scores)[positive]
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * ties.sum()) / (pos.size * neg.size))


def bayes_slack(log_odds) -> tuple[float, float]:
    """Expected accuracy of the exact Bayes classifier on these rows, and a 4-sigma slack.

    Given its inputs, any classifier is right on a row with probability at
    most that row's largest posterior, so its accuracy exceeds their mean only
    by sampling noise.
    """
    top = 1.0 / (1.0 + np.exp(-np.abs(np.asarray(log_odds))))
    n = top.size
    return float(top.mean()), float(4.0 * math.sqrt(float(np.sum(top * (1 - top)))) / n + 1.0 / n)
