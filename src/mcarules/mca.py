"""Multiple correspondence analysis over the dataset with its label column.

The label column is appended to the attribute columns and the joint indicator
matrix Z is one-hot encoded. Correspondence analysis of Z, computed from its
Burt matrix ZᵀZ, yields one principal-coordinate row per category. The cosine
between a literal's row and a label's row is the literal-label score consumed
by the rule miner; with every component kept it is the phi coefficient of the
two indicator columns, (n·n_lk − f_l·g_k) / sqrt(f_l(n−f_l)·g_k(n−g_k)). A
full-rank fit is therefore just exact integer counts of literal-label pairs,
the popcounts of the dataset's packed literal rows (``literal_bits``): it
builds neither Z nor the Burt matrix. Those are built only for what reads
them: the coordinates, the whole centred Burt matrix, or a truncated fit.
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
    """One-hot encoding of attributes plus label; rows sum to p+1.

    ``matrix`` is built from the dataset on first read and kept; a full-rank
    ``fit`` never reads it.
    """

    dataset: CategoricalDataset

    @cached_property
    def matrix(self) -> np.ndarray:
        return _one_hot(self.dataset)

    @property
    def n_columns(self) -> int:
        return int(self.dataset.literal_offsets[-1]) + self.dataset.n_labels


def build_indicator(dataset: CategoricalDataset) -> IndicatorMatrix:
    """The one-hot encoding of every attribute column and the label column.

    Column ``literal_offsets[j] + c`` holds flat literal "attribute j takes
    category c" and column ``n_literals + k`` holds label k, where
    ``n_literals = literal_offsets[-1]``. A category or label that never
    occurs (possible on row subsets) keeps its column, all zeros. The matrix
    itself is built on first read of ``.matrix``.
    """
    return IndicatorMatrix(dataset=dataset)


def _one_hot(dataset: CategoricalDataset) -> np.ndarray:
    """The indicator matrix, written one column at a time into a category-major
    buffer, one row per column, whose transpose is the matrix."""
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
    matrix = buffer.T
    matrix.setflags(write=False)
    return matrix


def _centred_burt(Z: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """K = n·ZᵀZ − f fᵀ, exact in integers: ZᵀZ of a 0/1 matrix is exact in
    any summation order."""
    return Z.shape[0] * (Z.T @ Z).astype(np.int64) - np.outer(counts, counts)


@dataclass(frozen=True, eq=False)
class McaModel:
    """Correspondence analysis of a dataset's indicator matrix.

    The miner scores with row cosines of ``gram``: the integer centred Burt
    matrix K = n·ZᵀZ − f fᵀ when every component is kept, else
    ``coords @ coordsᵀ``. Rows and columns follow the indicator's columns, so
    ``category_coords[i]`` is the principal-coordinate row of indicator
    column i; attribute categories and label categories live in the same
    space, so row cosines are directly comparable. A column that never occurs
    (zero count) has an all-zero row in ``gram`` and ``category_coords``.

    Scoring reads only ``literal_label``, the literal×label block
    ``gram[:n_literals, n_literals:]``, and ``diagonal``, the diagonal of
    ``gram``. ``computed`` holds the (gram, coordinates, singular values) a
    fit already computed. When it is None (the full-rank fit from counts),
    ``gram`` is computed from ``dataset`` on first read, through a one-hot
    matrix that is dropped afterwards, and the coordinates from ``gram``, so
    scoring at full rank builds neither and never decomposes.
    """

    column_counts: np.ndarray
    literal_label: np.ndarray
    diagonal: np.ndarray
    dataset: CategoricalDataset | None = None
    computed: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        for array in (self.column_counts, self.literal_label, self.diagonal, *(self.computed or ())):
            array.setflags(write=False)

    @cached_property
    def gram(self) -> np.ndarray:
        if self.computed is not None:
            return self.computed[0]
        K = _centred_burt(_one_hot(self.dataset), self.column_counts)
        K.setflags(write=False)
        return K

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        if self.computed is not None:
            return self.computed[1:]
        return _principal_coordinates(self.gram, self.column_counts)

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
    if np.any(sigma <= 0) or np.any(np.diff(sigma) > 0):
        raise ValueError("singular values must be positive and descending")
    V = evecs[:, keep]
    pivots = np.argmax(np.abs(V), axis=0)
    V = V * np.where(V[pivots, np.arange(V.shape[1])] < 0, -1.0, 1.0)
    coords = np.zeros((counts.size, sigma.size))
    coords[present] = V * sigma[None, :] / np.sqrt(f / total)[:, None]
    coords.setflags(write=False)
    return coords, sigma


def fit(indicator: IndicatorMatrix, components: int | None = None) -> McaModel:
    """Correspondence analysis of the indicator matrix Z.

    The full-rank fit (``components`` None) is exact integer counts, never
    read from Z: n_lk per literal l and label k, the popcount of the
    dataset's packed rows ``literal_bits[k, l]``, the literal counts
    f_l = Σ_k n_lk and the label counts g_k. Its scoring block
    is n·n_lk − f_l g_k and its diagonal f(n−f), the entries of the centred
    Burt matrix K = n·ZᵀZ − f fᵀ that scoring reads; K itself and the
    coordinates are computed when first read (``McaModel``).

    ``components`` optionally truncates to the leading components, which
    concentrates the cosine scores on the dominant association structure.
    That builds Z and K and decomposes K here, since the truncated ``gram``
    is built from the coordinates; it multiplies only the present columns'
    rows and leaves absent ones at zero. A ``components`` at or above the
    rank keeps the full-rank K.
    """
    if components is not None and components < 1:
        raise ValueError("components must be at least 1 when given")
    dataset = indicator.dataset
    J = int(dataset.literal_offsets[-1])
    if components is None:
        n_lk = np.bitwise_count(dataset.literal_bits).sum(axis=-1, dtype=np.int64).T
        f = n_lk.sum(axis=1)
        g = dataset.label_counts()
        counts = np.concatenate([f, g])
        return McaModel(column_counts=counts, literal_label=dataset.n * n_lk - np.outer(f, g),
                        diagonal=counts * (dataset.n - counts), dataset=dataset)
    Z = indicator.matrix
    counts = Z.sum(axis=0).astype(np.int64)
    gram = _centred_burt(Z, counts)
    coords, sv = _principal_coordinates(gram, counts)
    if sv.size > components:
        coords, sv = np.ascontiguousarray(coords[:, :components]), sv[:components]
        present = counts > 0
        kept = coords[present]
        gram = np.zeros(gram.shape)
        gram[np.ix_(present, present)] = kept @ kept.T
    return McaModel(column_counts=counts, literal_label=gram[:J, J:], diagonal=np.diag(gram),
                    computed=(gram, coords, sv))


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
    ``gram`` and the labels the rest, so the table is the model's
    ``literal_label`` block over the outer product of the norms.
    cos = gram[l, k] / (norm_l·norm_k), norm = sqrt(diag(gram)), with one
    denominator so one-component scores are exactly ±1. A norm below
    ``NORM_TOL`` (at full rank, K_ii = f(n−f): a category in no row or in
    every row) is NaN.
    """
    offsets = dataset.literal_offsets
    J = int(offsets[-1])
    norms = np.sqrt(model.diagonal)
    norms = np.where(norms < NORM_TOL, np.nan, norms)
    cos = model.literal_label / np.outer(norms[:J], norms[J:])
    return ScoreTable(scores=np.clip(cos, -1.0, 1.0), offsets=offsets[:-1],
                      n_labels=dataset.n_labels)
