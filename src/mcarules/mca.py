"""Multiple correspondence analysis over the dataset with its label column.

The label column is appended to the attribute columns and the joint indicator
matrix Z is one-hot encoded. Correspondence analysis of Z, computed from its
Burt matrix ZᵀZ, yields one principal-coordinate row per category. The cosine
between a literal's row and a label's row is the literal-label score consumed
by the rule miner; with every component kept it is the phi coefficient of the
two indicator columns. A full-rank fit is therefore just the exact integer
Burt counts: its scores are read from them, and its coordinates are computed
(by eigendecomposition) only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import CategoricalDataset, Literal

EIG_TOL = 1e-12
NORM_TOL = 1e-12


class ScoreUndefinedError(ValueError):
    """A requested score involves a degenerate (zero-norm or absent) coordinate row."""


@dataclass(frozen=True, eq=False)
class IndicatorMatrix:
    """One-hot encoding of attributes plus label; rows sum to p+1."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]


def build_indicator(dataset: CategoricalDataset) -> IndicatorMatrix:
    """One-hot encode every attribute column and the label column.

    Column ``literal_offsets[j] + c`` holds flat literal "attribute j takes
    category c" and column ``n_literals + k`` holds label k, where
    ``n_literals = literal_offsets[-1]``. A category or label that never
    occurs (possible on row subsets) keeps its column, all zeros. The ones
    are written one column at a time into a category-major buffer, one row
    per column, whose transpose is the matrix.
    """
    offsets = dataset.literal_offsets
    n = dataset.n
    buffer = np.zeros((int(offsets[-1]) + dataset.n_labels, n))
    flat, rows = buffer.reshape(-1), np.arange(n)
    # The label's columns start where the literals end, at offsets[-1].
    for codes, start in zip([*dataset.X.T, dataset.Y], offsets.tolist()):
        # Each row's one sits at its column's buffer row times n, plus the row.
        position = (codes + start) * n
        position += rows
        flat[position] = 1.0
    return IndicatorMatrix(matrix=buffer.T)


@dataclass(frozen=True, eq=False)
class McaModel:
    """Correspondence analysis of a fitted indicator matrix.

    ``gram`` holds the row cosines the miner scores with: the integer centred
    Burt matrix K = n·ZᵀZ − f fᵀ (``fit``) when every component is kept, else
    ``coords @ coordsᵀ``. Rows and columns follow the indicator's columns, so
    ``category_coords[i]`` is the principal-coordinate row of indicator
    column i; attribute categories and label categories live in the same
    space, so row cosines are directly comparable. A column that never occurs
    (zero count) has an all-zero row in ``gram`` and ``category_coords``.
    ``truncated`` holds the leading (coordinates, singular values) a
    truncated fit computed; when it is None, the coordinates are computed
    from K on first read and cached, so scoring at full rank never
    decomposes.
    """

    gram: np.ndarray
    column_counts: np.ndarray
    truncated: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        self.column_counts.setflags(write=False)
        self.gram.setflags(write=False)

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        coords, sv = self.truncated or _principal_coordinates(self.gram, self.column_counts)
        if np.any(sv <= 0) or np.any(np.diff(sv) > 0):
            raise ValueError("singular values must be positive and descending")
        coords.setflags(write=False)
        return coords, sv

    @property
    def category_coords(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def singular_values(self) -> np.ndarray:
        return self._spectrum[1]

    @property
    def n_components(self) -> int:
        return self.category_coords.shape[1]


def _principal_coordinates(K: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column principal coordinates and singular values from the centred Burt matrix.

    Only the columns with a positive count are decomposed; an absent
    column's coordinate row is zero. SᵀS = K / (f.sum()·sqrt(f fᵀ)) for the
    standardized residuals S. Components whose eigenvalue exceeds
    ``EIG_TOL`` are retained. Each eigenvector's sign is fixed so its
    largest-magnitude entry is positive, making coordinates reproducible
    across backends. G = D_c^{-1/2} V Sigma.
    """
    present = counts > 0
    f = counts[present]
    total = int(f.sum())
    evals, evecs = np.linalg.eigh(K[np.ix_(present, present)] / (total * np.sqrt(np.outer(f, f))))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    keep = evals > EIG_TOL
    sigma = np.sqrt(evals[keep])
    V = evecs[:, keep]
    pivots = np.argmax(np.abs(V), axis=0)
    V = V * np.where(V[pivots, np.arange(V.shape[1])] < 0, -1.0, 1.0)
    coords = np.zeros((counts.size, sigma.size))
    coords[present] = V * sigma[None, :] / np.sqrt(f / total)[:, None]
    return coords, sigma


def fit(indicator: IndicatorMatrix, components: int | None = None) -> McaModel:
    """Correspondence analysis of the indicator matrix Z, from its Burt matrix.

    ZᵀZ of a 0/1 matrix is exact in any summation order, so the centred Burt
    matrix K = n·ZᵀZ − f fᵀ (f the column counts) is exact in integers. The
    full-rank fit is just these counts: its coordinates are computed from K
    when first read (``McaModel``), and its scores need none. ``components``
    optionally truncates to the leading components, which concentrates the
    cosine scores on the dominant association structure; that decomposes K
    here, since the truncated ``gram`` is built from the coordinates. The
    truncated ``gram`` multiplies only the present columns' rows and leaves
    absent ones at zero.
    """
    if components is not None and components < 1:
        raise ValueError("components must be at least 1 when given")
    Z = indicator.matrix
    counts = Z.sum(axis=0).astype(np.int64)
    if counts.sum() <= 0:
        raise ValueError("indicator matrix is empty")
    K = Z.shape[0] * (Z.T @ Z).astype(np.int64) - np.outer(counts, counts)
    model = McaModel(gram=K, column_counts=counts)
    if components is None or model.n_components <= components:
        return model
    coords = np.ascontiguousarray(model.category_coords[:, :components])
    present = counts > 0
    kept = coords[present]
    gram = np.zeros(K.shape)
    gram[np.ix_(present, present)] = kept @ kept.T
    return McaModel(gram=gram, column_counts=counts,
                    truncated=(coords, model.singular_values[:components]))


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """All literal-label cosines of a fitted model.

    ``scores[flat_literal, k]`` is NaN, the only marker of an undefined
    score, when the literal's or the label's coordinates are degenerate
    (category absent or zero-norm, e.g. a category covering every row); such
    literals are skipped by the miner.
    """

    scores: np.ndarray
    offsets: np.ndarray
    n_labels: int

    def flat_index(self, literal: Literal) -> int:
        return int(self.offsets[literal.attribute]) + literal.category

    def score(self, literal: Literal, label: int) -> float:
        idx = self.flat_index(literal)
        value = self.scores[idx, label]
        if np.isnan(value):
            raise ScoreUndefinedError(
                f"literal (attribute {literal.attribute}, category {literal.category}) "
                f"has no defined score for label {label}"
            )
        return float(value)


def score_table(model: McaModel, dataset: CategoricalDataset) -> ScoreTable:
    """Tabulate every literal-label cosine once, for the miner's inner loops.

    The literals are the first ``n_literals = literal_offsets[-1]`` rows of
    ``gram`` and the labels the rest, so the table is the block
    ``gram[:n_literals, n_literals:]`` over the outer product of the norms.
    cos = gram[l, k] / (norm_l·norm_k), norm = sqrt(diag(gram)), with one
    denominator so one-component scores are exactly ±1. A norm below
    ``NORM_TOL`` (at full rank, K_ii = f(n−f): a category in no row or in
    every row) is NaN.
    """
    offsets = dataset.literal_offsets
    J = int(offsets[-1])
    norms = np.sqrt(np.diag(model.gram))
    norms = np.where(norms < NORM_TOL, np.nan, norms)
    cos = model.gram[:J, J:] / np.outer(norms[:J], norms[J:])
    return ScoreTable(scores=np.clip(cos, -1.0, 1.0), offsets=offsets[:-1],
                      n_labels=dataset.n_labels)
