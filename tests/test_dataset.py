"""Tests for CSV ingestion, quantile binning, and stratified folds."""

import csv
import io
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import describe_literal, literal_mask, write_dataset_csv
from mcarules import dataset
from mcarules.dataset import (
    CHUNK_ROWS,
    KIND_CATEGORICAL,
    KIND_QUANTIZED,
    AttributeSchema,
    CategoricalDataset,
    DatasetError,
    FeatureTable,
    Literal,
    _bin_labels,
    _quantize,
    load_csv,
    load_feature_csv,
    quantize_numeric,
    stratified_kfold,
    subset,
)


def quantile_oracle(values, q):
    """Independent linear-interpolation quantile, coded from the definition.

    Sorts the data and interpolates at fractional position (n-1)*q, in exact
    rational arithmetic so the result is the quantile itself, not a rounded
    double. Kept separate from the implementation on purpose.
    """
    xs = sorted(Fraction(float(v)) for v in values)
    pos = (len(xs) - 1) * Fraction(q)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return xs[lo] * (1 - frac) + xs[hi] * frac


def bin_oracle(values, bins):
    """Assign each value the count of interior quantile edges strictly below it."""
    edges = [quantile_oracle(values, Fraction(i, bins)) for i in range(1, bins)]
    return [sum(1 for e in edges if e < Fraction(float(v))) for v in values]


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def reference_load_csv(path, label_column, numeric_bins=None, missing_as_category=False):
    """The row-by-row loader that the columnar :func:`load_csv` replaced.

    Kept as the reference: it reads each row with its file line, strips and
    checks every cell in row order, and encodes one cell at a time.
    """
    numeric_bins = dict(numeric_bins or {})
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: file is empty") from None
        rows, lines = [], []
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        raise DatasetError(f"{path}: duplicate column names in header")
    if label_column not in header:
        raise DatasetError(f"{path}: label column {label_column!r} not found")
    if label_column in numeric_bins:
        raise DatasetError("the label column cannot be quantized")
    for col in numeric_bins:
        if col not in header:
            raise DatasetError(f"numeric column {col!r} not found in header")
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    if len(header) < 2:
        raise DatasetError(f"{path}: no attribute columns besides the label")

    cells = []
    for lineno, row in zip(lines, rows):
        if len(row) != len(header):
            raise DatasetError(f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}")
        row = [c.strip() for c in row]
        for col_name, cell in zip(header, row):
            if cell == "" and not missing_as_category:
                raise DatasetError(
                    f"{path}: row {lineno} has an empty cell in column {col_name!r}; "
                    "rerun with missing-as-category to keep such rows"
                )
        cells.append(row)

    def first_occurrence_codes(raw):
        order = {}
        codes = np.empty(len(raw), dtype=np.int64)
        for i, v in enumerate(raw):
            if v not in order:
                order[v] = len(order)
            codes[i] = order[v]
        return tuple(order), codes

    label_pos = header.index(label_column)
    schemas, columns = [], []
    for pos in range(len(header)):
        if pos == label_pos:
            continue
        name, bins = header[pos], numeric_bins.get(header[pos])
        raw = [cells[i][pos] for i in range(len(cells))]
        if bins is None:
            cats, codes = first_occurrence_codes(raw)
            if len(cats) < 2:
                raise DatasetError(f"attribute {name!r} has a single observed value")
            schemas.append(AttributeSchema(name=name, categories=cats, kind=KIND_CATEGORICAL))
            columns.append(codes)
            continue
        values = np.empty(len(raw), dtype=np.float64)
        for i, cell in enumerate(raw):
            try:
                values[i] = float(cell)
            except ValueError:
                raise DatasetError(
                    f"{path}: column {name!r} declared numeric but row {lines[i]} holds {cell!r}"
                ) from None
        bin_codes, edges = _quantize(values, bins)
        labels = _bin_labels(edges)
        cats, codes = first_occurrence_codes([labels[b] for b in bin_codes])
        if len(cats) < 2:
            raise DatasetError(f"quantizing column {name!r} produced a single occupied bin")
        schemas.append(AttributeSchema(name=name, categories=cats, kind=KIND_QUANTIZED))
        columns.append(codes)

    label_names, y = first_occurrence_codes([row[label_pos] for row in cells])
    if len(label_names) < 2:
        raise DatasetError(f"{path}: label column {label_column!r} has a single class")
    return CategoricalDataset(
        schemas=tuple(schemas),
        X=np.column_stack(columns),
        Y=y,
        label_names=label_names,
        label_name=label_column,
    )


class TestQuantizeNumeric:
    def test_median_split(self):
        assert quantize_numeric([1, 2, 3, 4], bins=2).tolist() == [0, 0, 1, 1]

    def test_three_bins_six_values(self):
        values = [1, 2, 3, 4, 5, 6]
        expected = bin_oracle(values, 3)
        assert expected == [0, 0, 1, 1, 2, 2]
        assert quantize_numeric(values, bins=3).tolist() == expected

    def test_single_distinct_value_rejected(self):
        with pytest.raises(DatasetError):
            quantize_numeric([5, 5, 5, 5], bins=2)

    def test_two_distinct_values_three_bins_rejected(self):
        with pytest.raises(DatasetError):
            quantize_numeric([1, 1, 2, 2], bins=3)

    def test_boundary_value_goes_to_lower_bin(self):
        # Median of [1,2,3] is 2; the tie goes down.
        assert quantize_numeric([1, 2, 3], bins=2).tolist() == [0, 0, 1]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        # Exact edges are rationals; NaN and infinity are refused, not binned.
        with pytest.raises(DatasetError, match="finite"):
            quantize_numeric([1, 2, 3, bad], bins=2)

    def test_invalid_bin_count(self):
        with pytest.raises(DatasetError):
            quantize_numeric([1, 2, 3, 4], bins=4)

    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=60),
        st.sampled_from([2, 3]),
    )
    # Oracle rounding: the exact 1/3 quantile is -t, and a rounded lerp lands one ulp off.
    @example(values=[0, 0, 0, -1, -4.870437750754926e-42, -4.870437750754926e-42], bins=3)
    # Program rounding: np.quantile rounds these edges up onto the next data value.
    @example(values=[0, 0, 1, 5e-324], bins=2)
    @example(values=[-1, 0, 1, 1.0000000000000002, 2], bins=3)
    def test_matches_oracle(self, values, bins):
        if len(set(values)) < bins:
            return
        got = quantize_numeric(values, bins=bins)
        assert got.tolist() == bin_oracle(values, bins)

    @given(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=4, max_size=40, unique=True),
        st.randoms(use_true_random=False),
        st.sampled_from([2, 3]),
    )
    def test_permutation_equivariant(self, values, rnd, bins):
        if len(values) < bins:
            return
        perm = list(range(len(values)))
        rnd.shuffle(perm)
        shuffled = [values[i] for i in perm]
        direct = quantize_numeric(shuffled, bins=bins)
        via = quantize_numeric(values, bins=bins)[perm]
        assert direct.tolist() == via.tolist()


class TestSchemaAndLiteral:
    def test_schema_rejects_duplicates(self):
        with pytest.raises(DatasetError):
            AttributeSchema(name="a", categories=("x", "x"))

    def test_schema_rejects_single_category(self):
        with pytest.raises(DatasetError):
            AttributeSchema(name="a", categories=("x",))

    def test_literal_ordering_is_canonical(self):
        lits = [Literal(1, 0), Literal(0, 1), Literal(0, 0)]
        assert sorted(lits) == [Literal(0, 0), Literal(0, 1), Literal(1, 0)]


def toy_dataset():
    schemas = (
        AttributeSchema(name="color", categories=("red", "blue")),
        AttributeSchema(name="size", categories=("s", "m", "l")),
    )
    X = np.array([[0, 0], [0, 1], [1, 2], [1, 0], [0, 2], [1, 1]])
    Y = np.array([0, 0, 1, 1, 0, 1])
    return CategoricalDataset(schemas=schemas, X=X, Y=Y, label_names=("no", "yes"))


class TestCategoricalDataset:
    def test_shape_properties(self):
        ds = toy_dataset()
        assert (ds.n, ds.p, ds.n_labels) == (6, 2, 2)
        assert ds.label_counts().tolist() == [3, 3]

    def test_out_of_range_category_rejected(self):
        schemas = (AttributeSchema(name="a", categories=("x", "y")),)
        with pytest.raises(DatasetError):
            CategoricalDataset(
                schemas=schemas,
                X=np.array([[2]]),
                Y=np.array([0]),
                label_names=("u", "v"),
            )

    def test_literal_mask(self):
        ds = toy_dataset()
        mask = literal_mask(ds, Literal(0, 1))
        assert mask.tolist() == [False, False, True, True, False, True]

    def test_matrices_are_read_only(self):
        ds = toy_dataset()
        with pytest.raises(ValueError):
            ds.X[0, 0] = 1

    def test_describe_literal(self):
        ds = toy_dataset()
        assert describe_literal(ds, Literal(1, 2)) == "size is l"


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(
            path,
            ["color", "size", "label"],
            [
                ["red", "s", "no"],
                ["blue", "m", "yes"],
                ["red", "m", "no"],
                ["blue", "s", "yes"],
            ],
        )
        ds = load_csv(path, label_column="label")
        assert ds.n == 4 and ds.p == 2
        assert ds.schemas[0].categories == ("red", "blue")
        assert ds.schemas[1].categories == ("s", "m")
        assert ds.label_names == ("no", "yes")
        assert ds.X[:, 0].tolist() == [0, 1, 0, 1]
        assert ds.Y.tolist() == [0, 1, 0, 1]

    def test_first_occurrence_order(self, tmp_path):
        path = tmp_path / "order.csv"
        write_csv(
            path,
            ["a", "label"],
            [["z", "1"], ["a", "0"], ["z", "1"], ["m", "0"]],
        )
        ds = load_csv(path, label_column="label")
        assert ds.schemas[0].categories == ("z", "a", "m")
        assert ds.label_names == ("1", "0")

    def test_numeric_binning(self, tmp_path):
        path = tmp_path / "num.csv"
        write_csv(
            path,
            ["age", "label"],
            [[str(v), lab] for v, lab in zip([1, 2, 3, 4, 5, 6], "aabbab")],
        )
        ds = load_csv(path, label_column="label", numeric_bins={"age": 3})
        assert ds.schemas[0].kind == "quantized-numeric"
        assert ds.schemas[0].n_categories == 3
        assert ds.X[:, 0].tolist() == [0, 0, 1, 1, 2, 2]

    def test_missing_cell_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "gap.csv"
        write_csv(path, ["a", "label"], [["x", "0"], ["", "1"], ["y", "0"], ["x", "1"]])
        with pytest.raises(DatasetError, match="row 3"):
            load_csv(path, label_column="label")

    def test_missing_as_category(self, tmp_path):
        path = tmp_path / "gap.csv"
        write_csv(path, ["a", "label"], [["x", "0"], ["", "1"], ["y", "0"], ["x", "1"]])
        ds = load_csv(path, label_column="label", missing_as_category=True)
        assert ds.schemas[0].categories == ("x", "", "y")

    def test_label_column_missing(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        write_csv(path, ["a", "b"], [["x", "y"]])
        with pytest.raises(DatasetError, match="label"):
            load_csv(path, label_column="label")

    def test_labels_only_rejected(self, tmp_path):
        path = tmp_path / "only.csv"
        write_csv(path, ["label"], [["0"], ["1"]])
        with pytest.raises(DatasetError):
            load_csv(path, label_column="label")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetError):
            load_csv(path, label_column="label")

    def test_non_numeric_cell_in_declared_numeric_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["age", "label"], [["1", "0"], ["two", "1"], ["3", "0"]])
        with pytest.raises(DatasetError, match="age"):
            load_csv(path, label_column="label", numeric_bins={"age": 2})

    def test_bad_cell_error_names_its_file_line(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("a,x,label\np,1.5,y\n\nq,oops,n\nr,2.0,y\n")
        with pytest.raises(DatasetError, match=r"row 4 holds 'oops'"):
            load_csv(path, label_column="label", numeric_bins={"x": 2})
        with pytest.raises(DatasetError, match=r"row 4 holds 'oops'"):
            load_feature_csv(path, numeric_bins={"x": 2})

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("label,color\nyes,red\nno,blue\n", encoding="utf-8-sig")
        ds = load_csv(path, label_column="label")
        assert ds.label_names == ("yes", "no")
        assert load_feature_csv(path).schemas[0].name == "label"

    def test_four_row_binary_case(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_csv(path, ["a", "label"], [["x", "0"], ["y", "1"], ["x", "0"], ["y", "1"]])
        ds = load_csv(path, label_column="label")
        assert (ds.n, ds.p) == (4, 1)
        assert ds.schemas[0].n_categories == 2
        assert ds.n_labels == 2


HEADER_NAMES = ["a", " b ", "c,d", "é", 'q"t', "two\nlines", "label"]
# Plain cells repeat so that most drawn rows load; the rest exercise quoting,
# padding, non-ASCII text and empty cells.
CATEGORY_CELLS = ["x", "y"] * 6 + [
    " x ", "y ", "c,d", 'say "hi"', "two\nlines", "cr\r\nlf", "é", "日本",
    "\u00a0x\u2003", "", "  ",
]
NUMERIC_CELLS = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from([" 1.5 ", "2e1", "1_0", "\u00a03", "nan", "inf", "oops", "", "  "]),
)
LABEL_CELLS = ["yes", "no"] * 4 + [" yes", "maybe,so", ""]


@st.composite
def csv_files(draw):
    """CSV text with quoted commas and newlines, blank lines, padding and bad rows."""
    names = draw(st.lists(st.sampled_from(HEADER_NAMES), min_size=2, max_size=5, unique=True))
    label = draw(st.sampled_from(names))
    attributes = [name for name in names if name != label]
    numeric = draw(st.lists(st.sampled_from(attributes), unique=True, max_size=2))
    cells = {name: NUMERIC_CELLS if name in numeric else st.sampled_from(CATEGORY_CELLS)
             for name in names}
    cells[label] = st.sampled_from(LABEL_CELLS)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(names)
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 5)) == 0:
            buffer.write(draw(st.sampled_from(["\n", "\r\n"])))
        row = [draw(cells[name]) for name in names]
        width = draw(st.sampled_from([0] * 40 + [-1, 1]))
        writer.writerow(row[:width] if width < 0 else row + ["extra"] * width)
    bins = {name.strip(): draw(st.sampled_from([2, 3])) for name in numeric}
    return buffer.getvalue(), label.strip(), bins, draw(st.booleans())


def load_outcome(loader, *args):
    """A loader's dataset as comparable values, or the text of its DatasetError."""
    try:
        ds = loader(*args)
    except DatasetError as exc:
        return str(exc)
    return ds.schemas, ds.X.tolist(), ds.Y.tolist(), ds.label_names


class TestMatchesRowwiseLoader:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("rowwise") / "table.csv"

    @staticmethod
    def check(path, drawn):
        text, label, bins, missing = drawn
        path.write_text(text, encoding="utf-8", newline="")
        expected = load_outcome(reference_load_csv, path, label, bins, missing)
        assert load_outcome(load_csv, path, label, bins, missing) == expected
        if isinstance(expected, tuple):
            features = load_feature_csv(path, bins, missing, ignore_columns=(label,))
            assert (features.schemas, features.X.tolist()) == expected[:2]

    @settings(max_examples=300, deadline=None)
    @given(csv_files())
    def test_same_dataset_or_error_text(self, path, drawn):
        self.check(path, drawn)

    @pytest.mark.parametrize("chunk_rows", [1, 3])
    @settings(max_examples=200, deadline=None)
    @given(drawn=csv_files())
    def test_same_when_chunks_split_the_file(self, path, chunk_rows, drawn):
        with mock.patch.object(dataset, "CHUNK_ROWS", chunk_rows):
            self.check(path, drawn)


class TestChunkBoundaries:
    """A bad row in a later chunk is reported by the file line a row-by-row check names."""

    def write(self, tmp_path, spoil):
        # Blank lines and a quoted newline put row i off file line i + 2.
        rows = [["p" if i % 2 else "q", str(i), "yes" if i % 3 else "no"] for i in range(20)]
        rows[1][0] = "two\nlines"
        spoil(rows[15])
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["a", "x", "label"])
        for i, row in enumerate(rows):
            writer.writerow(row)
            if i % 4 == 3:
                buffer.write("\n")
        path = tmp_path / "late.csv"
        path.write_text(buffer.getvalue())
        return path

    SPOILERS = {
        "width": lambda row: row.append("extra"),
        "empty cell": lambda row: row.__setitem__(0, "  "),
        "not a real": lambda row: row.__setitem__(1, "oops"),
    }

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7])
    @pytest.mark.parametrize("fault", SPOILERS)
    def test_same_error_text(self, tmp_path, chunk_rows, fault):
        path = self.write(tmp_path, self.SPOILERS[fault])
        expected = load_outcome(reference_load_csv, path, "label", {"x": 2})
        assert isinstance(expected, str) and "row 21" in expected
        with mock.patch.object(dataset, "CHUNK_ROWS", chunk_rows):
            assert load_outcome(load_csv, path, "label", {"x": 2}) == expected
            with pytest.raises(DatasetError) as caught:
                load_feature_csv(path, {"x": 2}, ignore_columns=("label",))
            assert str(caught.value) == expected

    @pytest.mark.parametrize("chunk_rows", [1, 3])
    def test_csv_error_later_in_the_file_comes_first(self, tmp_path, chunk_rows):
        # The whole file was once read before any check, so a row the csv
        # module refuses wins over a short row before it.
        path = tmp_path / "both.csv"
        path.write_text("a,label\np,yes\nq\nr,no\ns," + "x" * 140_000 + "\n")
        with mock.patch.object(dataset, "CHUNK_ROWS", chunk_rows):
            with pytest.raises(DatasetError, match="line 5: field larger than field limit"):
                load_csv(path, "label")


class TestRoundTrip:
    def test_categorical_round_trip(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(
            path,
            ["color", "size", "label"],
            [
                ["red", "s", "no"],
                ["blue", "m", "yes"],
                ["red", "l", "no"],
                ["blue", "s", "yes"],
            ],
        )
        first = load_csv(path, label_column="label")
        out = tmp_path / "again.csv"
        write_dataset_csv(first, out)
        second = load_csv(out, label_column="label")
        assert second.schemas == first.schemas
        assert second.label_names == first.label_names
        np.testing.assert_array_equal(second.X, first.X)
        np.testing.assert_array_equal(second.Y, first.Y)

    def test_quantized_round_trip_keeps_codes(self, tmp_path):
        # Binned columns write their interval labels, which reload as plain
        # categories: X, Y, names, and category labels survive; only the
        # schema kind flips to categorical.
        path = tmp_path / "num.csv"
        rows = [[str(v), lab] for v, lab in zip([3, 1, 4, 1, 5, 9, 2, 6], "abababab")]
        write_csv(path, ["x", "label"], rows)
        first = load_csv(path, label_column="label", numeric_bins={"x": 2})
        out = tmp_path / "again.csv"
        write_dataset_csv(first, out)
        second = load_csv(out, label_column="label")
        assert second.schemas[0].name == first.schemas[0].name
        assert second.schemas[0].categories == first.schemas[0].categories
        np.testing.assert_array_equal(second.X, first.X)
        np.testing.assert_array_equal(second.Y, first.Y)


class TestStratifiedKfold:
    def test_perfectly_divisible(self):
        schemas = (AttributeSchema(name="a", categories=("x", "y")),)
        X = np.zeros((10, 1), dtype=int)
        Y = np.array([0, 1] * 5)
        ds = CategoricalDataset(schemas=schemas, X=X, Y=Y, label_names=("u", "v"))
        folds = stratified_kfold(ds, k=5, seed=0)
        assert len(folds) == 5
        for train, test in folds:
            assert test.size == 2
            assert np.bincount(ds.Y[test], minlength=2).tolist() == [1, 1]

    def test_k_of_one_rejected(self):
        ds = toy_dataset()
        with pytest.raises(DatasetError):
            stratified_kfold(ds, k=1, seed=0)

    def test_small_class_rejected(self):
        schemas = (AttributeSchema(name="a", categories=("x", "y")),)
        X = np.zeros((5, 1), dtype=int)
        Y = np.array([0, 0, 0, 0, 1])
        ds = CategoricalDataset(schemas=schemas, X=X, Y=Y, label_names=("u", "v"))
        with pytest.raises(DatasetError):
            stratified_kfold(ds, k=2, seed=0)

    def test_cnp_shaped_counts(self):
        counts = [130, 50, 49, 43]
        n = sum(counts)
        schemas = (AttributeSchema(name="a", categories=("x", "y")),)
        X = np.zeros((n, 1), dtype=int)
        Y = np.repeat(np.arange(4), counts)
        ds = CategoricalDataset(
            schemas=schemas, X=X, Y=Y, label_names=("c0", "c1", "c2", "c3")
        )
        folds = stratified_kfold(ds, k=5, seed=7)
        seen = np.zeros(n, dtype=int)
        for train, test in folds:
            seen[test] += 1
            assert np.intersect1d(train, test).size == 0
            assert train.size + test.size == n
            fold_counts = np.bincount(ds.Y[test], minlength=4)
            for c, total in enumerate(counts):
                lo, hi = total // 5, -(-total // 5)
                assert lo <= fold_counts[c] <= hi
        assert seen.tolist() == [1] * n

    def test_deterministic_given_seed(self):
        ds = toy_dataset()
        a = stratified_kfold(ds, k=3, seed=11)
        b = stratified_kfold(ds, k=3, seed=11)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            np.testing.assert_array_equal(tr1, tr2)
            np.testing.assert_array_equal(te1, te2)

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(5, 40), min_size=2, max_size=4),
        st.integers(2, 5),
        st.integers(0, 2**31),
    )
    # Counts whose per-class rotation leaves a fold off proportional.
    @example(class_counts=[5, 33, 6, 6], k=4, seed=0)
    @example(class_counts=[8, 12, 12, 19], k=5, seed=0)
    @example(class_counts=[26, 19, 28], k=5, seed=0)
    def test_stratification_property(self, class_counts, k, seed):
        if min(class_counts) < k:
            return
        n = sum(class_counts)
        schemas = (AttributeSchema(name="a", categories=("x", "y")),)
        ds = CategoricalDataset(
            schemas=schemas,
            X=np.zeros((n, 1), dtype=int),
            Y=np.repeat(np.arange(len(class_counts)), class_counts),
            label_names=tuple(f"c{i}" for i in range(len(class_counts))),
        )
        folds = stratified_kfold(ds, k=k, seed=seed)
        for _, test in folds:
            fold_counts = np.bincount(ds.Y[test], minlength=len(class_counts))
            for c, total in enumerate(class_counts):
                frac_fold = fold_counts[c] / test.size
                frac_all = total / n
                assert abs(frac_fold - frac_all) <= 1.0 / test.size + 1e-12


class TestFeatureTable:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_loads_without_label(self, tmp_path):
        path = self.write(tmp_path, "color,size\nred,s\nblue,m\nred,l\n")
        table = load_feature_csv(path)
        assert isinstance(table, FeatureTable)
        assert table.n == 3 and table.p == 2
        assert table.schemas[0].categories == ("red", "blue")
        assert table.attribute_index("size") == 1
        with pytest.raises(DatasetError):
            table.attribute_index("nope")

    def test_ignores_named_columns(self, tmp_path):
        path = self.write(tmp_path, "color,target\nred,1\nblue,0\n")
        table = load_feature_csv(path, ignore_columns=("target",))
        assert [s.name for s in table.schemas] == ["color"]

    def test_same_encoding_as_load_csv(self, tmp_path):
        path = self.write(
            tmp_path, "color,chol,y\nred,10,a\nblue,20,b\nred,30,a\nblue,40,b\n"
        )
        ds = load_csv(path, "y", numeric_bins={"chol": 2})
        table = load_feature_csv(
            path, numeric_bins={"chol": 2}, ignore_columns=("y",)
        )
        assert table.schemas == ds.schemas
        np.testing.assert_array_equal(table.X, ds.X)

    def test_no_columns_left(self, tmp_path):
        path = self.write(tmp_path, "y\n1\n0\n")
        with pytest.raises(DatasetError, match="no attribute columns"):
            load_feature_csv(path, ignore_columns=("y",))

    def test_model_schemas_code_against_the_models_categories(self, tmp_path):
        path = self.write(tmp_path, "size,color,note\ns,blue,\nm,red,1\nl,green,\ns,blue,\n")
        schema = AttributeSchema(name="color", categories=("red", "blue"))
        table = load_feature_csv(path, schemas=(schema,))
        assert table.schemas == (AttributeSchema(name="color", categories=("red", "blue", "green")),)
        assert table.X[:, 0].tolist() == [1, 0, 2, 1]

    def test_model_schemas_allow_a_single_value(self, tmp_path):
        path = self.write(tmp_path, "color,size\nred,s\nred,s\n")
        schema = AttributeSchema(name="color", categories=("blue", "red"))
        table = load_feature_csv(path, schemas=(schema,))
        assert table.schemas == (schema,) and table.X.tolist() == [[1], [1]]
        with pytest.raises(DatasetError, match="single observed value"):
            load_feature_csv(path)

    def test_model_schemas_read_in_schema_order(self, tmp_path):
        path = self.write(tmp_path, "a,b,c\nx,y,z\nu,v,w\n")
        schemas = tuple(AttributeSchema(name=n, categories=("x", "y")) for n in "ca")
        table = load_feature_csv(path, schemas=schemas)
        assert [s.name for s in table.schemas] == ["c", "a"]
        assert table.X.tolist() == [[2, 0], [3, 2]]

    def test_unread_bins_column_is_never_parsed(self, tmp_path):
        path = self.write(tmp_path, "color,weight\nred,n/a\nblue,?\n")
        schema = AttributeSchema(name="color", categories=("red", "blue"))
        table = load_feature_csv(path, numeric_bins={"weight": 2}, schemas=(schema,))
        assert table.X.tolist() == [[0], [1]]
        with pytest.raises(DatasetError, match="declared numeric but row 2 holds 'n/a'"):
            load_feature_csv(path, numeric_bins={"weight": 2})
        with pytest.raises(DatasetError, match="numeric column 'mass' not found in header"):
            load_feature_csv(path, numeric_bins={"mass": 2}, schemas=(schema,))

    def test_read_bins_column_uses_the_files_own_quantiles(self, tmp_path):
        train = self.write(tmp_path, "w,y\n1,a\n2,b\n3,a\n4,b\n5,a\n6,b\n", "train.csv")
        schema = load_csv(train, "y", numeric_bins={"w": 2}).schemas[0]
        path = self.write(tmp_path, "w\n6\n5\n4\n3\n2\n1\n")
        table = load_feature_csv(path, numeric_bins={"w": 2}, schemas=(schema,))
        assert table.schemas == (schema,)
        assert table.X[:, 0].tolist() == [1, 1, 1, 0, 0, 0]

    def test_no_model_schemas_give_one_empty_row_per_data_row(self, tmp_path):
        path = self.write(tmp_path, "y\n1\n\n1\n0\n")
        table = load_feature_csv(path, ignore_columns=("y",), schemas=())
        assert (table.n, table.p) == (3, 0)
        ragged = self.write(tmp_path, "a,b\n1,2\n3\n", "ragged.csv")
        with pytest.raises(DatasetError, match="row 3 has 1 cells, expected 2"):
            load_feature_csv(ragged, schemas=())
        header_only = self.write(tmp_path, "a,b\n", "header.csv")
        with pytest.raises(DatasetError, match="no data rows"):
            load_feature_csv(header_only, schemas=())

    def test_model_column_missing_or_ignored(self, tmp_path):
        path = self.write(tmp_path, "color,size\nred,s\nblue,m\n")
        schema = AttributeSchema(name="shape", categories=("round", "square"))
        with pytest.raises(DatasetError, match="model references unknown attribute 'shape'"):
            load_feature_csv(path, schemas=(schema,))
        schema = AttributeSchema(name="size", categories=("s", "m"))
        with pytest.raises(DatasetError, match="model references unknown attribute 'size'"):
            load_feature_csv(path, ignore_columns=("size",), schemas=(schema,))

    def test_model_labels_come_first(self, tmp_path):
        path = self.write(tmp_path, "color,note,y\nred,,b\nred,1,c\n")
        schema = AttributeSchema(name="color", categories=("blue", "red"))
        ds = load_csv(path, "y", schemas=(schema,), label_names=("a", "b"))
        assert ds.label_names == ("a", "b", "c") and ds.Y.tolist() == [1, 2]
        assert ds.schemas == (schema,) and ds.X.tolist() == [[1], [1]]

    def test_codes_validated(self):
        with pytest.raises(DatasetError):
            FeatureTable(
                schemas=(AttributeSchema(name="a", categories=("x", "y")),),
                X=np.array([[2]]),
            )


class TestSubset:
    def test_subset_rows(self):
        ds = toy_dataset()
        sub = subset(ds, [0, 2, 4])
        assert sub.n == 3
        np.testing.assert_array_equal(sub.X, ds.X[[0, 2, 4]])
        np.testing.assert_array_equal(sub.Y, ds.Y[[0, 2, 4]])
        assert sub.schemas == ds.schemas
