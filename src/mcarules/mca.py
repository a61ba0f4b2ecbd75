"""Multiple correspondence analysis over the dataset with its label column.

The label column is appended to the attribute columns, the joint indicator
matrix is one-hot encoded, and a standard correspondence analysis of that
matrix yields one principal-coordinate row per category. The cosine between a
literal's row and a label's row is the literal-label score consumed by the
rule miner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CategoricalDataset, Literal

SV_TOL = 1e-12
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
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]


def build_indicator(dataset: CategoricalDataset) -> IndicatorMatrix:
    """One-hot encode every attribute column and the label column.

    Categories that never occur (possible on row subsets) are dropped from
    the matrix and recorded in ``dropped``.
    """
    n = dataset.n
    blocks: list[np.ndarray] = []
    owners: list[ColumnOwner] = []
    dropped: list[ColumnOwner] = []

    def encode(codes, n_categories, make_owner):
        block = np.zeros((n, n_categories), dtype=np.float64)
        block[np.arange(n), codes] = 1.0
        counts = block.sum(axis=0)
        for cat in range(n_categories):
            owner = make_owner(cat)
            if counts[cat] == 0:
                dropped.append(owner)
            else:
                owners.append(owner)
                blocks.append(block[:, cat])

    for j, schema in enumerate(dataset.schemas):
        encode(
            dataset.X[:, j],
            schema.n_categories,
            lambda cat, j=j, s=schema: ColumnOwner(j, cat, s.name, s.categories[cat]),
        )
    encode(
        dataset.Y,
        dataset.n_labels,
        lambda cat: ColumnOwner(None, cat, dataset.label_name, dataset.label_names[cat]),
    )
    return IndicatorMatrix(
        matrix=np.column_stack(blocks),
        owners=tuple(owners),
        dropped=tuple(dropped),
    )


@dataclass(frozen=True, eq=False)
class McaModel:
    """Column principal coordinates of the fitted indicator matrix.

    ``category_coords[i]`` is the coordinate row of ``owners[i]``; attribute
    categories and label categories live in the same space, so row cosines
    are directly comparable.
    """

    category_coords: np.ndarray
    singular_values: np.ndarray
    column_masses: np.ndarray
    owners: tuple[ColumnOwner, ...]
    dropped: tuple[ColumnOwner, ...]

    def __post_init__(self):
        coords = np.asarray(self.category_coords, dtype=np.float64)
        object.__setattr__(self, "category_coords", coords)
        sv = self.singular_values
        if np.any(sv <= 0) or np.any(np.diff(sv) > 0):
            raise ValueError("singular values must be positive and descending")
        if np.any(self.column_masses <= 0):
            raise ValueError("column masses must be positive")
        coords.setflags(write=False)

    @property
    def n_components(self) -> int:
        return self.category_coords.shape[1]


def standardized_residuals(matrix: np.ndarray):
    """Correspondence-analysis residual matrix S with the row/column masses.

    P = N / grand total, r = P 1, c = Pᵀ 1, S = D_r^{-1/2} (P - r cᵀ) D_c^{-1/2}.
    """
    N = np.asarray(matrix, dtype=np.float64)
    grand = N.sum()
    if grand <= 0:
        raise ValueError("indicator matrix is empty")
    P = N / grand
    r = P.sum(axis=1)
    c = P.sum(axis=0)
    S = (P - np.outer(r, c)) / np.sqrt(r)[:, None] / np.sqrt(c)[None, :]
    return S, r, c


def fit(indicator: IndicatorMatrix, components: int | None = None) -> McaModel:
    """Correspondence analysis of the indicator matrix.

    SVD of the standardized residuals; components with singular value above
    ``SV_TOL`` are retained. ``components`` optionally truncates further to
    the leading ones, which concentrates the cosine scores on the dominant
    association structure. Each right singular vector's sign is fixed so
    its largest-magnitude entry is positive, making coordinates reproducible
    across backends. Column principal coordinates are G = D_c^{-1/2} V Sigma.
    """
    if components is not None and components < 1:
        raise ValueError("components must be at least 1 when given")
    S, _, c = standardized_residuals(indicator.matrix)
    _, sigma, Vt = np.linalg.svd(S, full_matrices=False)
    keep = sigma > SV_TOL
    sigma = sigma[keep]
    V = Vt[keep].T
    if components is not None and sigma.size > components:
        sigma = sigma[:components]
        V = V[:, :components]
    for j in range(V.shape[1]):
        pivot = np.argmax(np.abs(V[:, j]))
        if V[pivot, j] < 0:
            V[:, j] = -V[:, j]
    coords = V * sigma[None, :] / np.sqrt(c)[:, None]
    return McaModel(
        category_coords=coords,
        singular_values=sigma,
        column_masses=c,
        owners=indicator.owners,
        dropped=indicator.dropped,
    )


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
    """Tabulate every literal-label cosine once, for the miner's inner loops."""
    sizes = [s.n_categories for s in dataset.schemas]
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    total = int(sum(sizes))
    scores = np.full((total, dataset.n_labels), np.nan)

    coords = model.category_coords
    norms = np.linalg.norm(coords, axis=1)
    label_rows = {}
    for i, owner in enumerate(model.owners):
        if owner.is_label and norms[i] >= NORM_TOL:
            label_rows[owner.category] = i

    for i, owner in enumerate(model.owners):
        if owner.is_label or norms[i] < NORM_TOL:
            continue
        flat = int(offsets[owner.attribute]) + owner.category
        for k, row in label_rows.items():
            cos = np.dot(coords[i], coords[row]) / (norms[i] * norms[row])
            scores[flat, k] = np.clip(cos, -1.0, 1.0)

    return ScoreTable(scores=scores, offsets=offsets, n_labels=dataset.n_labels)
