"""Categorical dataset ingestion: CSV loading, quantile binning, stratified folds.

Every other module consumes the :class:`CategoricalDataset` produced here: an
``n x p`` matrix of category indices plus a length-``n`` vector of label
indices. Category order within each column is first-occurrence order, fixed at
load time, so literal indices are reproducible across runs.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from typing import ClassVar

import numpy as np

KIND_CATEGORICAL = "categorical"
KIND_QUANTIZED = "quantized-numeric"


class DatasetError(ValueError):
    """Raised when input data violates the dataset contract."""


@dataclass(frozen=True)
class AttributeSchema:
    """One categorical column: its name and the ordered category labels."""

    name: str
    categories: tuple[str, ...]
    kind: str = KIND_CATEGORICAL

    def __post_init__(self):
        if len(self.categories) < 2:
            raise DatasetError(
                f"attribute {self.name!r} has {len(self.categories)} categories; need at least 2"
            )
        if len(set(self.categories)) != len(self.categories):
            raise DatasetError(f"attribute {self.name!r} has duplicate category labels")
        if self.kind not in (KIND_CATEGORICAL, KIND_QUANTIZED):
            raise DatasetError(f"unknown attribute kind {self.kind!r}")

    @property
    def n_categories(self) -> int:
        return len(self.categories)


@dataclass(frozen=True, order=True)
class Literal:
    """Boolean test "attribute takes category", by 0-based indices."""

    attribute: int
    category: int


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """n rows x p categorical attribute columns, without a label.

    ``X[i, j]`` is the category index of row ``i`` for attribute ``j``. This
    is the input for prediction on unlabeled data; a labelled
    :class:`CategoricalDataset` is one too. Immutable after construction and
    safe to share read-only across threads.
    """

    schemas: tuple[AttributeSchema, ...]
    X: np.ndarray
    _attr_index: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _noun: ClassVar[str] = "table"

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.int64)
        object.__setattr__(self, "X", X)
        if X.ndim != 2:
            raise DatasetError("X must be a 2-d matrix of category indices")
        if len(self.schemas) != X.shape[1]:
            raise DatasetError("schema count does not match X columns")
        if X.shape[1] < 1:
            raise DatasetError(f"{self._noun} has no attributes")
        if X.shape[0] < 1:
            raise DatasetError(f"{self._noun} has no rows")
        for j, schema in enumerate(self.schemas):
            col = X[:, j]
            if col.min() < 0 or col.max() >= schema.n_categories:
                raise DatasetError(f"X column {j} ({schema.name!r}) has out-of-range category index")
        X.setflags(write=False)
        self._attr_index.update({s.name: j for j, s in enumerate(self.schemas)})

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def attribute_index(self, name: str) -> int:
        try:
            return self._attr_index[name]
        except KeyError:
            raise DatasetError(f"unknown attribute {name!r}") from None


@dataclass(frozen=True, eq=False)
class CategoricalDataset(FeatureTable):
    """n samples x p categorical attributes plus one label column.

    ``X[i, j]`` is the category index of sample ``i`` for attribute ``j``;
    ``Y[i]`` indexes into ``label_names``. Immutable after construction and
    safe to share read-only across threads.
    """

    Y: np.ndarray
    label_names: tuple[str, ...]
    label_name: str = "label"
    _noun: ClassVar[str] = "dataset"

    def __post_init__(self):
        super().__post_init__()
        Y = np.asarray(self.Y, dtype=np.int64)
        object.__setattr__(self, "Y", Y)
        if Y.shape != (self.n,):
            raise DatasetError("Y length does not match X rows")
        if len(self.label_names) < 2:
            raise DatasetError("need at least 2 label classes")
        if len(set(self.label_names)) != len(self.label_names):
            raise DatasetError("duplicate label names")
        if Y.min() < 0 or Y.max() >= len(self.label_names):
            raise DatasetError("Y has out-of-range label index")
        Y.setflags(write=False)

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

    def label_counts(self) -> np.ndarray:
        return np.bincount(self.Y, minlength=self.n_labels)


def quantize_numeric(values, bins: int) -> np.ndarray:
    """Equal-frequency binning of ``values`` into ``bins`` categories.

    Bin edges sit at the exact i/bins linear-interpolation quantiles of the
    observed values (see :func:`quantile_edges`). A value goes to the bin
    above an edge exactly when it lies above that quantile, so a value equal
    to a quantile goes to the lower bin. Returns one category index
    (0..bins-1) per input, in input order. Values must be finite.
    """
    return _quantize(values, bins)[0]


def _quantize(values, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin codes of :func:`quantize_numeric` together with the interior edges."""
    if bins not in (2, 3):
        raise DatasetError(f"bins must be 2 or 3, got {bins}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise DatasetError("values must be a non-empty 1-d sequence")
    if not np.isfinite(values).all():
        raise DatasetError("values must be finite (no NaN or infinity)")
    if np.unique(values).size < bins:
        raise DatasetError(
            f"need at least {bins} distinct values to form {bins} bins, "
            f"got {np.unique(values).size}"
        )
    edges = quantile_edges(values, bins)
    return np.searchsorted(edges, values, side="left").astype(np.int64), edges


def quantile_edges(values, bins: int) -> np.ndarray:
    """Interior bin edges for the i/bins quantiles, i = 1..bins-1.

    The quantile is the linear-interpolation sample quantile (type 7 in
    Hyndman & Fan 1996, numpy's default) computed exactly, and each edge is
    the largest double not above it. For every double ``x``, ``x > edge``
    holds exactly when ``x`` lies above the exact quantile, which
    ``np.quantile`` does not promise: it can round an edge up onto the next
    data value. Bin labels print these edges to 6 significant digits.
    ``values`` must be finite.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    # Quantile i/bins sits at sorted position (n-1)*i/bins = lo + r/bins.
    positions = [divmod((n - 1) * i, bins) for i in range(1, bins)]
    kth = sorted({k for lo, r in positions for k in ((lo, lo + 1) if r else (lo,))})
    xs = np.partition(values, kth)
    edges = np.empty(len(positions), dtype=np.float64)
    for j, (lo, r) in enumerate(positions):
        a = float(xs[lo])
        if r == 0 or a == xs[lo + 1]:
            edges[j] = a
            continue
        b = float(xs[lo + 1])
        exact = Fraction(a) + (Fraction(b) - Fraction(a)) * Fraction(r, bins)
        # float() of a Fraction rounds to nearest, so at most one step down.
        edge = float(exact)
        edges[j] = math.nextafter(edge, -math.inf) if Fraction(edge) > exact else edge
    return edges


def _format_edge(x: float) -> str:
    return f"{x:.6g}"


def _bin_labels(edges: np.ndarray) -> list[str]:
    """Human-readable half-open interval labels for quantile bins."""
    lo = ["-inf"] + [_format_edge(e) for e in edges]
    hi = [_format_edge(e) for e in edges] + ["+inf"]
    return [f"({a}, {b}]" for a, b in zip(lo, hi)]


def load_csv(
    path,
    label_column: str,
    numeric_bins: dict[str, int] | None = None,
    missing_as_category: bool = False,
) -> CategoricalDataset:
    """Load a header-rowed CSV into a :class:`CategoricalDataset`.

    Columns named in ``numeric_bins`` are parsed as reals and quantile-binned
    into 2 or 3 categories; every other column keeps its observed distinct
    values as categories, ordered by first occurrence. Empty cells abort with
    a row-numbered error unless ``missing_as_category`` is set, in which case
    the empty string becomes an explicit category. A leading UTF-8 byte-order
    mark is dropped.
    """
    numeric_bins = dict(numeric_bins or {})
    with _open_csv(path) as fh:
        header, rows = _read_header(fh, path)
        if label_column not in header:
            raise DatasetError(f"{path}: label column {label_column!r} not found")
        if label_column in numeric_bins:
            raise DatasetError("the label column cannot be quantized")
        for col in numeric_bins:
            if col not in header:
                raise DatasetError(f"numeric column {col!r} not found in header")
        if rows is None:
            raise DatasetError(f"{path}: no data rows")
        if len(header) < 2:
            raise DatasetError(f"{path}: no attribute columns besides the label")
        columns = _read_columns(fh, path, header, rows, range(len(header)), missing_as_category)
        labels = columns.pop(header.index(label_column))
        schemas, X = _encode_columns(path, header, columns, numeric_bins, partial(_line_of, fh))
    label_names, y = _first_occurrence_codes(labels)
    if len(label_names) < 2:
        raise DatasetError(f"{path}: label column {label_column!r} has a single class")

    return CategoricalDataset(
        schemas=schemas,
        X=X,
        Y=y,
        label_names=label_names,
        label_name=label_column,
    )


def load_feature_csv(
    path,
    numeric_bins: dict[str, int] | None = None,
    missing_as_category: bool = False,
    ignore_columns=(),
) -> FeatureTable:
    """Load attribute columns only, skipping any column named in ``ignore_columns``.

    Same parsing rules as :func:`load_csv`, but no label is required, so this
    is the ingestion path for prediction on unlabeled data. Cells of ignored
    columns count toward the row width but may be empty.
    """
    numeric_bins = dict(numeric_bins or {})
    ignore = set(ignore_columns)
    with _open_csv(path) as fh:
        header, rows = _read_header(fh, path)
        for col in numeric_bins:
            if col not in header:
                raise DatasetError(f"numeric column {col!r} not found in header")
        if rows is None:
            raise DatasetError(f"{path}: no data rows")
        positions = [j for j, name in enumerate(header) if name not in ignore]
        if not positions:
            raise DatasetError(f"{path}: no attribute columns")
        columns = _read_columns(fh, path, header, rows, positions, missing_as_category)
        schemas, X = _encode_columns(path, header, columns, numeric_bins, partial(_line_of, fh))
    return FeatureTable(schemas=schemas, X=X)


@contextmanager
def _open_csv(path):
    """Open a CSV file for :mod:`csv`, dropping a leading UTF-8 byte-order mark.

    The handle is seekable, so that an error can read the rows again to find
    a bad row's line; input from a pipe is read into memory first. Bytes that
    are not UTF-8, and rows the :mod:`csv` module refuses (such as a cell over
    its field size limit), raise a :class:`DatasetError` naming the file.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            if not fh.seekable():
                fh = io.StringIO(fh.read(), newline="")
            try:
                yield fh
            except csv.Error as exc:
                raise DatasetError(f"{path}: line {_csv_error_line(fh)}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(
            f"{path}: byte 0x{exc.object[exc.start]:02x} is not UTF-8; "
            "the file must be UTF-8 text"
        ) from None


def _csv_error_line(fh) -> int:
    """The file line on which reading ``fh`` again from the start raises :class:`csv.Error`."""
    fh.seek(0)
    reader = csv.reader(fh)
    try:
        for _ in reader:
            pass
    except csv.Error:
        return reader.line_num
    raise AssertionError("a csv error did not recur on reading the file again")


def _read_header(fh, path):
    """Stripped header names, and the non-blank rows after them (None if there are none).

    The rows are an iterator over the rest of ``fh``, so the file is read once.
    """
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise DatasetError(f"{path}: file is empty")
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        raise DatasetError(f"{path}: duplicate column names in header")
    rows = filter(None, reader)
    first = next(rows, None)
    return header, None if first is None else chain([first], rows)


def _read_columns(fh, path, header, rows, positions, missing_as_category) -> dict[int, list[str]]:
    """Stripped cells of the columns at ``positions``, keyed by position.

    Every row must have one cell per header name, and no kept cell may be
    empty unless ``missing_as_category`` is set. Both checks run on whole
    columns, and the row lists are dropped on return. Only when a check
    fails is ``fh`` read again, row by row, for the first bad row, so the
    error names the row that a row-by-row check would.
    """
    rows = list(rows)
    if set(map(len, rows)) != {len(header)}:
        _raise_first_bad_row(fh, path, header, positions, missing_as_category)
    keep = set(positions)
    columns = {pos: list(map(str.strip, col)) for pos, col in enumerate(zip(*rows)) if pos in keep}
    if not missing_as_category and not all(map(all, columns.values())):
        _raise_first_bad_row(fh, path, header, positions, missing_as_category)
    return columns


def _raise_first_bad_row(fh, path, header, positions, missing_as_category):
    """Raise for the first row, in file order, that :func:`_read_columns` refuses."""
    width = len(header)
    for line, row in _numbered_rows(fh):
        if len(row) != width:
            raise DatasetError(f"{path}: row {line} has {len(row)} cells, expected {width}")
        for pos in positions:
            if not missing_as_category and row[pos].strip() == "":
                raise DatasetError(
                    f"{path}: row {line} has an empty cell in column {header[pos]!r}; "
                    "rerun with missing-as-category to keep such rows"
                )
    raise AssertionError("a failed column check found no bad row")


def _numbered_rows(fh):
    """Each non-blank data row of ``fh``, read again from the start, with its file line.

    The line is the one the row ends on. Only error messages need it, so it
    is found this way once a check has failed.
    """
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    return ((reader.line_num, row) for row in reader if row)


def _line_of(fh, i: int) -> int:
    """The file line data row ``i`` of ``fh`` ends on."""
    return next(islice(_numbered_rows(fh), i, None))[0]


def _encode_columns(path, header, columns: dict[int, list[str]], numeric_bins, line_of):
    """Encode ``columns`` in position order, freeing each column's cells as it goes.

    ``line_of`` maps a row index to its file line, for error messages.
    """
    schemas: list[AttributeSchema] = []
    codes: list[np.ndarray] = []
    for pos in sorted(columns):
        name = header[pos]
        schema, column_codes = encode_column(
            name, columns.pop(pos), numeric_bins.get(name), path, line_of
        )
        schemas.append(schema)
        codes.append(column_codes)
    return tuple(schemas), np.column_stack(codes)


def _first_occurrence_codes(raw) -> tuple[tuple, np.ndarray]:
    """Distinct values of ``raw`` in first-occurrence order, and each cell's index."""
    lookup = {v: i for i, v in enumerate(dict.fromkeys(raw))}
    codes = np.fromiter(map(lookup.__getitem__, raw), np.int64, count=len(raw))
    return tuple(lookup), codes


def _parse_numeric(name: str, raw, path=None, line_of=None) -> np.ndarray:
    """``raw`` cells parsed as reals; a bad cell raises a row-numbered error.

    ``line_of(i)`` gives the file line of cell ``i`` (default: ``i + 1``)
    and is called only to report a bad cell.
    """
    try:
        return np.fromiter(map(float, raw), np.float64, count=len(raw))
    except ValueError:
        for i, cell in enumerate(raw):
            try:
                float(cell)
            except ValueError:
                line = i + 1 if line_of is None else line_of(i)
                raise DatasetError(
                    f"{path}: column {name!r} declared numeric but row {line} holds {cell!r}"
                ) from None
        raise


def encode_column(name: str, raw, bins: int | None = None, path=None, line_of=None):
    """One column of cell strings as an attribute schema plus category codes.

    Without ``bins`` each distinct cell is a category. With ``bins`` the
    cells are parsed as reals and binned as by :func:`quantize_numeric`, each
    bin labelled by its interval. Either way the categories are the occupied
    values in first-occurrence order. ``path`` and ``line_of``, which maps a
    cell's index to its file line (default: its 1-based position in ``raw``),
    only locate a bad cell in error messages.
    """
    if bins is None:
        cats, codes = _first_occurrence_codes(raw)
        if len(cats) < 2:
            raise DatasetError(f"attribute {name!r} has a single observed value")
        return AttributeSchema(name=name, categories=cats, kind=KIND_CATEGORICAL), codes
    bin_codes, edges = _quantize(_parse_numeric(name, raw, path, line_of), bins)
    occupied, first = np.unique(bin_codes, return_index=True)
    order = occupied[np.argsort(first)]
    if order.size < 2:
        raise DatasetError(f"quantizing column {name!r} produced a single occupied bin")
    rank = np.empty(bins, dtype=np.int64)
    rank[order] = np.arange(order.size)
    labels = _bin_labels(edges)
    cats = tuple(labels[b] for b in order)
    return AttributeSchema(name=name, categories=cats, kind=KIND_QUANTIZED), rank[bin_codes]


def stratified_kfold(dataset: CategoricalDataset, k: int, seed: int):
    """Split into ``k`` stratified (train, test) index partitions.

    Folds are disjoint and cover all rows. Each fold holds floor or ceil of
    n_c / k rows of class c, and within one row of the class's proportional
    share of that fold: |count - fold size · n_c / n| <= 1. Deterministic
    given ``seed``.
    """
    if k < 2:
        raise DatasetError(f"k must be at least 2, got {k}")
    counts = dataset.label_counts()
    for c, cnt in enumerate(counts):
        if cnt < k:
            raise DatasetError(
                f"label class {dataset.label_names[c]!r} has {cnt} members; needs at least k={k}"
            )
    rng = np.random.default_rng(seed)
    members = []
    for c in range(dataset.n_labels):
        idx = np.flatnonzero(dataset.Y == c)
        rng.shuffle(idx)
        members.append(idx)

    def deal(starts):
        fold_of = np.empty(dataset.n, dtype=np.int64)
        for idx, start in zip(members, starts):
            fold_of[idx] = (np.arange(idx.size) + start) % k
        return fold_of

    # Rotate the start fold per class so remainder samples spread out. With
    # three or more classes that can leave a fold off proportional; the
    # sweep order never does.
    fold_of = deal(range(dataset.n_labels))
    table = np.bincount(fold_of * counts.size + dataset.Y, minlength=k * counts.size)
    table = table.reshape(k, counts.size)
    off = np.abs(table * dataset.n - table.sum(axis=1, keepdims=True) * counts)
    if np.any(off > dataset.n):
        fold_of = deal(_sweep_starts(counts, k))
    folds = []
    all_idx = np.arange(dataset.n)
    for f in range(k):
        test = all_idx[fold_of == f]
        train = all_idx[fold_of != f]
        folds.append((train, test))
    return folds


def _sweep_starts(counts: np.ndarray, k: int) -> np.ndarray:
    """Start folds that deal the classes in one sweep, keeping folds proportional.

    A class of n_c rows starting at fold s puts its r_c = n_c mod k extra rows
    in folds s..s+r_c-1. Dealt one after another from fold 0, the classes give
    folds 0..h-1 (h = sum(r) mod k) one extra row more than the others. A
    class with n_c·h > r_c·n must keep its extras inside those h folds, and a
    class with n_c·(k-h) > (k-r_c)·n must cover all of them; the sweep takes
    the latter first and the former last. Their extra rows (resp. the folds
    they miss) number fewer than h (resp. k-h) in total, so both fit, and every
    other class stays within one row of proportional wherever it lands.
    """
    n = counts.sum()
    r = counts % k
    h = r.sum() % k
    late = counts * h > r * n
    early = counts * (k - h) > (k - r) * n
    order = np.argsort(np.where(early, 0, np.where(late, 2, 1)), kind="stable")
    starts = np.empty_like(counts)
    starts[order] = np.concatenate([[0], np.cumsum(counts[order])[:-1]]) % k
    return starts


def subset(dataset: CategoricalDataset, indices) -> CategoricalDataset:
    """Row-subset view used for cross-validation; schemas are shared unchanged."""
    indices = np.asarray(indices, dtype=np.int64)
    return CategoricalDataset(
        schemas=dataset.schemas,
        X=dataset.X[indices],
        Y=dataset.Y[indices],
        label_names=dataset.label_names,
        label_name=dataset.label_name,
    )
