"""
Loading categorical CSVs and quantile-binning numeric columns
=============================================================

Builds a small mixed CSV on the fly, then loads it twice: once treating
every column as categorical, and once quantizing the numeric column into
tercile bins whose labels are readable intervals.
"""

import tempfile
from pathlib import Path

from mcarules.dataset import load_csv

# A tiny clinical-flavoured table: one numeric column, two categorical ones.
rows = [
    "age,smoker,exercise,risk",
    "23,no,often,low",
    "31,no,often,low",
    "38,yes,sometimes,low",
    "45,no,rarely,high",
    "52,yes,rarely,high",
    "58,yes,sometimes,high",
    "61,no,rarely,high",
    "67,yes,rarely,high",
    "29,no,sometimes,low",
    "49,yes,often,low",
]
with tempfile.TemporaryDirectory() as workdir:
    csv_path = Path(workdir) / "cohort.csv"
    csv_path.write_text("\n".join(rows) + "\n")

    # Loaded as-is, 'age' becomes one category per distinct string: far too
    # fine-grained for rule mining.
    raw = load_csv(csv_path, "risk")
    print("without binning:")
    for schema in raw.schemas:
        print(f"  {schema.name}: {schema.n_categories} categories ({schema.kind})")

    # Quantile binning replaces the numeric column with interval categories.
    # Bin edges come from the observed quantiles, so each bin holds roughly the
    # same number of rows.
    binned = load_csv(csv_path, "risk", numeric_bins={"age": 3})
    print("\nwith age quantized into terciles:")
    for schema in binned.schemas:
        print(f"  {schema.name}: {schema.categories} ({schema.kind})")

# The label column is encoded separately; classes keep first-seen order.
print(f"\nlabels: {binned.label_names}, counts: {binned.label_counts()}")
print(f"rows: {binned.n}, attributes: {binned.p}")
