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


@dataclass(frozen=True)
class ColumnOwner:
    """Provenance of one indicator column: which attribute (or the label) and category.

    ``attribute`` is the 0-based attribute index, or ``None`` when the column
    belongs to the label.
    """

    attribute: int | None
    category: int
    name: str
    category_label: str

    @property
    def is_label(self) -> bool:
        return self.attribute is None


@dataclass(frozen=True, eq=False)
class IndicatorMatrix:
    """One-hot encoding of attributes plus label; rows sum to p+1."""

    matrix: np.ndarray
    owners: tuple[ColumnOwner, ...]
    dropped: tuple[ColumnOwner, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[1] != len(self.owners):
            raise ValueError("indicator shape does not match column owners")
        m.setflags(write=False)

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]


def build_indicator(dataset: CategoricalDataset) -> IndicatorMatrix:
    """One-hot encode every attribute column and the label column.

    Categories that never occur (possible on row subsets) are dropped from
    the matrix and recorded in ``dropped``. The ones are written into a
    category-major buffer, one row per kept category, whose transpose is
    the matrix.
    """
    columns = [
        (dataset.X[:, j], schema.n_categories,
         lambda cat, j=j, s=schema: ColumnOwner(j, cat, s.name, s.categories[cat]))
        for j, schema in enumerate(dataset.schemas)
    ]
    columns.append((
        dataset.Y, dataset.n_labels,
        lambda cat: ColumnOwner(None, cat, dataset.label_name, dataset.label_names[cat]),
    ))
    presence = [np.bincount(codes, minlength=size) > 0 for codes, size, _ in columns]
    owners: list[ColumnOwner] = []
    dropped: list[ColumnOwner] = []
    n = dataset.n
    buffer = np.zeros((sum(int(p.sum()) for p in presence), n))
    flat, rows = buffer.reshape(-1), np.arange(n)
    for (codes, size, make_owner), present in zip(columns, presence):
        # Each row's one sits at its category's buffer row times n, plus the row.
        position = ((len(owners) - 1 + np.cumsum(present)) * n)[codes]
        position += rows
        flat[position] = 1.0
        for cat, kept in enumerate(present.tolist()):
            (owners if kept else dropped).append(make_owner(cat))
    return IndicatorMatrix(matrix=buffer.T, owners=tuple(owners), dropped=tuple(dropped))


@dataclass(frozen=True, eq=False)
class McaModel:
    """Correspondence analysis of a fitted indicator matrix.

    ``gram`` holds the row cosines the miner scores with: the integer centred
    Burt matrix K = n·ZᵀZ − f fᵀ (``fit``) when every component is kept, else
    ``coords @ coordsᵀ``. ``category_coords[i]`` is the principal-coordinate
    row of ``owners[i]``; attribute categories and label categories live in
    the same space, so row cosines are directly comparable. ``truncated``
    holds the leading (coordinates, singular values) a truncated fit computed;
    when it is None, the coordinates are computed from K on first read and
    cached, so scoring at full rank never decomposes.
    """

    gram: np.ndarray
    column_counts: np.ndarray
    owners: tuple[ColumnOwner, ...]
    dropped: tuple[ColumnOwner, ...]
    truncated: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if np.any(self.column_counts <= 0):
            raise ValueError("column counts must be positive")
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

    @property
    def column_masses(self) -> np.ndarray:
        return self.column_counts / int(self.column_counts.sum())


def _principal_coordinates(K: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column principal coordinates and singular values from the centred Burt matrix.

    SᵀS = K / (f.sum()·sqrt(f fᵀ)) for the standardized residuals S.
    Components whose eigenvalue exceeds ``EIG_TOL`` are retained. Each
    eigenvector's sign is fixed so its largest-magnitude entry is positive,
    making coordinates reproducible across backends. G = D_c^{-1/2} V Sigma.
    """
    total = int(counts.sum())
    evals, evecs = np.linalg.eigh(K / (total * np.sqrt(np.outer(counts, counts))))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    keep = evals > EIG_TOL
    sigma = np.sqrt(evals[keep])
    V = evecs[:, keep]
    pivots = np.argmax(np.abs(V), axis=0)
    V = V * np.where(V[pivots, np.arange(V.shape[1])] < 0, -1.0, 1.0)
    return V * sigma[None, :] / np.sqrt(counts / total)[:, None], sigma


def fit(indicator: IndicatorMatrix, components: int | None = None) -> McaModel:
    """Correspondence analysis of the indicator matrix Z, from its Burt matrix.

    ZᵀZ of a 0/1 matrix is exact in any summation order, so the centred Burt
    matrix K = n·ZᵀZ − f fᵀ (f the column counts) is exact in integers. The
    full-rank fit is just these counts: its coordinates are computed from K
    when first read (``McaModel``), and its scores need none. ``components``
    optionally truncates to the leading components, which concentrates the
    cosine scores on the dominant association structure; that decomposes K
    here, since the truncated ``gram`` is built from the coordinates.
    """
    if components is not None and components < 1:
        raise ValueError("components must be at least 1 when given")
    Z = indicator.matrix
    counts = Z.sum(axis=0).astype(np.int64)
    if counts.sum() <= 0:
        raise ValueError("indicator matrix is empty")
    K = Z.shape[0] * (Z.T @ Z).astype(np.int64) - np.outer(counts, counts)
    model = McaModel(gram=K, column_counts=counts, owners=indicator.owners,
                     dropped=indicator.dropped)
    if components is None or model.n_components <= components:
        return model
    coords = np.ascontiguousarray(model.category_coords[:, :components])
    return McaModel(gram=coords @ coords.T, column_counts=counts, owners=indicator.owners,
                    dropped=indicator.dropped,
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

    cos = gram[l, k] / (norm_l·norm_k), norm = sqrt(diag(gram)), with one
    denominator so one-component scores are exactly ±1. A norm below
    ``NORM_TOL`` (at full rank, K_ii = f(n−f): a category in every row) is NaN.
    """
    sizes = [s.n_categories for s in dataset.schemas]
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    scores = np.full((int(sum(sizes)), dataset.n_labels), np.nan)

    owners = model.owners
    lits = [i for i, o in enumerate(owners) if not o.is_label]
    labs = [i for i, o in enumerate(owners) if o.is_label]
    norms = np.sqrt(np.diag(model.gram))
    norms = np.where(norms < NORM_TOL, np.nan, norms)
    cos = model.gram[np.ix_(lits, labs)] / np.outer(norms[lits], norms[labs])
    flat = [offsets[owners[i].attribute] + owners[i].category for i in lits]
    labels = [owners[i].category for i in labs]
    scores[np.ix_(flat, labels)] = np.clip(cos, -1.0, 1.0)
    return ScoreTable(scores=scores, offsets=offsets, n_labels=dataset.n_labels)
