"""Bundled benchmark datasets.

``titanic_dataset`` reconstructs the classic 2,201-passenger ocean-liner
survival table from its published 32-cell cross-classification (travel
class x sex x age group x survival), so the benchmark runs offline.

``load_heart_csv`` reads the 303-row Cleveland heart-disease file in its
standard headerless 14-column comma-separated layout. The five continuous
columns are quantized into terciles, '?' cells become their own category,
and the 0-4 diagnosis field collapses to a binary label. The file itself
is not redistributed here; see the README for how to fetch it.
"""

from __future__ import annotations

import numpy as np

from .dataset import (
    AttributeSchema,
    CategoricalDataset,
    DatasetError,
    _Column,
    _fill,
    _parse_numeric,
)

__all__ = ["titanic_dataset", "load_heart_csv", "HEART_COLUMNS"]

# (class, sex, age) -> (died, survived) counts; totals 1490 + 711 = 2201.
_TITANIC_CELLS = (
    ("1st", "male", "child", 0, 5),
    ("1st", "male", "adult", 118, 57),
    ("1st", "female", "child", 0, 1),
    ("1st", "female", "adult", 4, 140),
    ("2nd", "male", "child", 0, 11),
    ("2nd", "male", "adult", 154, 14),
    ("2nd", "female", "child", 0, 13),
    ("2nd", "female", "adult", 13, 80),
    ("3rd", "male", "child", 35, 13),
    ("3rd", "male", "adult", 387, 75),
    ("3rd", "female", "child", 17, 14),
    ("3rd", "female", "adult", 89, 76),
    ("crew", "male", "child", 0, 0),
    ("crew", "male", "adult", 670, 192),
    ("crew", "female", "child", 0, 0),
    ("crew", "female", "adult", 3, 20),
)

_TITANIC_SCHEMAS = (
    AttributeSchema(name="class", categories=("1st", "2nd", "3rd", "crew")),
    AttributeSchema(name="sex", categories=("male", "female")),
    AttributeSchema(name="age", categories=("child", "adult")),
)


def titanic_dataset() -> CategoricalDataset:
    """The survival table expanded to one row per person, in cell order."""
    cat_index = [
        {c: i for i, c in enumerate(s.categories)} for s in _TITANIC_SCHEMAS
    ]
    rows = []
    labels = []
    for klass, sex, age, died, survived in _TITANIC_CELLS:
        coded = [cat_index[0][klass], cat_index[1][sex], cat_index[2][age]]
        for label, count in ((0, died), (1, survived)):
            rows.extend([coded] * count)
            labels.extend([label] * count)
    return CategoricalDataset(
        schemas=_TITANIC_SCHEMAS,
        X=np.array(rows, dtype=np.int64),
        Y=np.array(labels, dtype=np.int64),
        label_names=("died", "survived"),
        label_name="survived",
    )


HEART_COLUMNS = (
    "age", "sex", "cp", "trestbps", "chol", "fbs", "restecg",
    "thalach", "exang", "oldpeak", "slope", "ca", "thal",
)

_HEART_CONTINUOUS = frozenset(["age", "trestbps", "chol", "thalach", "oldpeak"])


def load_heart_csv(path, bins: int = 3) -> CategoricalDataset:
    """Load a Cleveland-format heart-disease file into a dataset."""
    with open(path, newline="", encoding="utf-8") as fh:
        numbered = [(i, ln.strip()) for i, ln in enumerate(fh, start=1) if ln.strip()]
    lines = [i for i, _ in numbered]
    table = [ln.split(",") for _, ln in numbered]
    for lineno, row in zip(lines, table):
        if len(row) != len(HEART_COLUMNS) + 1:
            raise DatasetError(
                f"{path}: row {lineno} has {len(row)} fields, expected "
                f"{len(HEART_COLUMNS) + 1}"
            )
    if not table:
        raise DatasetError(f"{path}: no data rows")
    *cells, diagnosis = (list(map(str.strip, col)) for col in zip(*table))
    columns = [_Column(name, bins if name in _HEART_CONTINUOUS else None) for name in HEART_COLUMNS]
    for column, column_cells in zip(columns, cells):
        column.add(column_cells, 0)
    schemas, X = _fill(path, columns, len(table), lines.__getitem__)
    grade = _parse_numeric("disease", diagnosis, path, lines.__getitem__)
    y = (grade != 0.0).astype(np.int64)
    if np.unique(y).size < 2:
        raise DatasetError(f"{path}: diagnosis column has a single class")
    return CategoricalDataset(
        schemas=schemas,
        X=X,
        Y=y,
        label_names=("absent", "present"),
        label_name="disease",
    )
