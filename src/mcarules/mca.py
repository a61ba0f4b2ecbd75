"""Multiple correspondence analysis over the dataset with its label column.

The label column is appended to the attribute columns and the joint indicator
matrix Z is one-hot encoded. Correspondence analysis of Z, computed from its
Burt matrix ZᵀZ, yields one principal-coordinate row per category. The cosine
between a literal's row and a label's row is the literal-label score consumed
by the rule miner; with every component kept it is the phi coefficient of the
two indicator columns.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    the matrix and recorded in ``dropped``.
    """
    blocks: list[np.ndarray] = []
    owners: list[ColumnOwner] = []
    dropped: list[ColumnOwner] = []

    def encode(codes, n_categories, make_owner):
        present = np.bincount(codes, minlength=n_categories) > 0
        for cat in range(n_categories):
            if present[cat]:
                owners.append(make_owner(cat))
                blocks.append(codes == cat)
            else:
                dropped.append(make_owner(cat))

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
    are directly comparable. ``gram`` has the same row cosines: the integer
    centred Burt matrix when every component is kept, else ``coords @ coordsᵀ``.
    """

    category_coords: np.ndarray
    singular_values: np.ndarray
    column_masses: np.ndarray
    gram: np.ndarray
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
        self.gram.setflags(write=False)

    @property
    def n_components(self) -> int:
        return self.category_coords.shape[1]


def fit(indicator: IndicatorMatrix, components: int | None = None) -> McaModel:
    """Correspondence analysis of the indicator matrix Z, from its Burt matrix.

    ZᵀZ of a 0/1 matrix is exact in any summation order, so the centred Burt
    matrix K = n·ZᵀZ − f fᵀ (f the column counts) is exact in integers, and
    SᵀS = K / (f.sum()·sqrt(f fᵀ)) for the standardized residuals S. Components
    whose eigenvalue exceeds ``EIG_TOL`` are retained; ``components`` optionally
    truncates further to the leading ones, which concentrates the cosine scores
    on the dominant association structure. Each eigenvector's sign is fixed so
    its largest-magnitude entry is positive, making coordinates reproducible
    across backends. Column principal coordinates are G = D_c^{-1/2} V Sigma.
    """
    if components is not None and components < 1:
        raise ValueError("components must be at least 1 when given")
    Z = indicator.matrix
    counts = Z.sum(axis=0).astype(np.int64)
    total = int(counts.sum())
    if total <= 0:
        raise ValueError("indicator matrix is empty")
    K = Z.shape[0] * (Z.T @ Z).astype(np.int64) - np.outer(counts, counts)
    evals, evecs = np.linalg.eigh(K / (total * np.sqrt(np.outer(counts, counts))))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    keep = evals > EIG_TOL
    sigma = np.sqrt(evals[keep])
    V = evecs[:, keep]
    truncated = components is not None and sigma.size > components
    if truncated:
        sigma = sigma[:components]
        V = V[:, :components]
    pivots = np.argmax(np.abs(V), axis=0)
    V = V * np.where(V[pivots, np.arange(V.shape[1])] < 0, -1.0, 1.0)
    c = counts / total
    coords = V * sigma[None, :] / np.sqrt(c)[:, None]
    return McaModel(
        category_coords=coords,
        singular_values=sigma,
        column_masses=c,
        gram=coords @ coords.T if truncated else K,
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
