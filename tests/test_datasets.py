"""Tests for the bundled benchmark datasets."""

import numpy as np
import pytest

from mcarules.dataset import DatasetError, KIND_CATEGORICAL, KIND_QUANTIZED
from mcarules.datasets import HEART_COLUMNS, load_heart_csv, titanic_dataset


class TestTitanic:
    def test_shape_and_category_budget(self):
        ds = titanic_dataset()
        assert ds.n == 2201
        assert ds.p == 3
        assert sum(s.n_categories for s in ds.schemas) == 8
        assert ds.n_labels == 2

    def test_literal_offsets(self):
        # class has 4 categories, age and sex 2 each.
        assert titanic_dataset().literal_offsets.tolist() == [0, 4, 6, 8]

    def test_survival_totals(self):
        ds = titanic_dataset()
        assert ds.label_counts().tolist() == [1490, 711]

    def test_known_cells(self):
        ds = titanic_dataset()
        klass = [s.name for s in ds.schemas].index("class")
        sex = [s.name for s in ds.schemas].index("sex")
        age = [s.name for s in ds.schemas].index("age")
        first = ds.schemas[klass].categories.index("1st")
        female = ds.schemas[sex].categories.index("female")
        adult = ds.schemas[age].categories.index("adult")
        mask = (
            (ds.X[:, klass] == first)
            & (ds.X[:, sex] == female)
            & (ds.X[:, age] == adult)
        )
        # 144 adult women in first class, 140 of whom survived.
        assert int(mask.sum()) == 144
        assert int(ds.Y[mask].sum()) == 140

    def test_deterministic(self):
        a = titanic_dataset()
        b = titanic_dataset()
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)


def write_heart_fixture(path, n=40, seed=0):
    """Synthesize a small file in the Cleveland layout, '?' cells included."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n):
        row = {
            "age": f"{rng.integers(29, 77)}.0",
            "sex": f"{rng.integers(0, 2)}.0",
            "cp": f"{rng.integers(1, 5)}.0",
            "trestbps": f"{rng.integers(94, 200)}.0",
            "chol": f"{rng.integers(126, 564)}.0",
            "fbs": f"{rng.integers(0, 2)}.0",
            "restecg": f"{rng.integers(0, 3)}.0",
            "thalach": f"{rng.integers(71, 202)}.0",
            "exang": f"{rng.integers(0, 2)}.0",
            "oldpeak": f"{rng.integers(0, 62) / 10}",
            "slope": f"{rng.integers(1, 4)}.0",
            "ca": "?" if i == 3 else f"{rng.integers(0, 4)}.0",
            "thal": "?" if i == 5 else f"{rng.choice([3, 6, 7])}.0",
        }
        target = str(rng.integers(0, 5))
        lines.append(",".join([row[c] for c in HEART_COLUMNS] + [target]))
    path.write_text("\n".join(lines) + "\n")


class TestHeartLoader:
    def test_loads_fixture(self, tmp_path):
        path = tmp_path / "heart.csv"
        write_heart_fixture(path)
        ds = load_heart_csv(path)
        assert ds.n == 40
        assert ds.p == 13
        assert ds.n_labels == 2
        assert ds.label_names == ("absent", "present")
        by_name = {s.name: s for s in ds.schemas}
        assert by_name["age"].kind == KIND_QUANTIZED
        assert by_name["chol"].kind == KIND_QUANTIZED
        assert by_name["cp"].kind == KIND_CATEGORICAL
        assert "?" in by_name["ca"].categories
        assert "?" in by_name["thal"].categories

    def test_binary_label_collapses_grades(self, tmp_path):
        path = tmp_path / "heart.csv"
        write_heart_fixture(path, seed=1)
        ds = load_heart_csv(path)
        raw = [line.split(",")[-1] for line in path.read_text().splitlines()]
        expect = np.array([0 if float(v) == 0 else 1 for v in raw])
        assert np.array_equal(ds.Y, expect)

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "heart.csv"
        path.write_text("1.0,2.0,3.0\n")
        with pytest.raises(DatasetError):
            load_heart_csv(path)

    def test_bad_cell_error_names_its_file_line(self, tmp_path):
        path = tmp_path / "heart.csv"
        write_heart_fixture(path, n=3)
        first, second, third = path.read_text().splitlines()
        second = "old" + second[second.index(","):]
        # Blank lines are skipped but still count: the bad age is on line 4.
        path.write_text("\n".join([first, "", "  ", second, third]) + "\n")
        with pytest.raises(DatasetError, match=r"'age' declared numeric but row 4 holds 'old'"):
            load_heart_csv(path)

    def test_bad_diagnosis_error_names_its_file_line(self, tmp_path):
        path = tmp_path / "heart.csv"
        write_heart_fixture(path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: lines[2].rindex(",")] + ",x"
        # The blank line is skipped but still counts: the bad grade is on line 4.
        path.write_text("\n".join([lines[0], ""] + lines[1:]) + "\n")
        with pytest.raises(DatasetError, match=r"'disease' declared numeric but row 4 holds 'x'"):
            load_heart_csv(path)

    def test_bytes_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "heart.csv"
        path.write_bytes(b"63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,0.0,6.0,0\n"
                         b"\xe9\n")
        with pytest.raises(DatasetError) as info:
            load_heart_csv(path)
        assert str(info.value) == f"{path}: byte 0xe9 is not UTF-8; the file must be UTF-8 text"

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "heart.csv"
        path.write_text("\n")
        with pytest.raises(DatasetError, match="no data rows"):
            load_heart_csv(path)
