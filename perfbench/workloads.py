"""Seeded inputs for the pipeline benchmark.

Every input comes from this file and ``--seed``, never from program code,
apart from the bundled survival table, which is published data.

A planted table draws the label with P(pos) = POS_RATE, then draws every
attribute independently given the label (a naive-Bayes model), so the exact
posterior of each row, and from it the Bayes accuracy, is known. A signal
attribute copies the label's category index with probability s and is
uniform otherwise. The strengths s are distinct per attribute: with equal
strengths mined scores tie to within rounding, and the mined order, and with
it the sampler's path, then depends on the BLAS thread count. Which
attributes carry signal, and how strongly, is fixed per workload; the seed
draws the rows, so the work a run does varies little from seed to seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LABEL = "label"
LABEL_NAMES = ("neg", "pos")
POS_RATE = 0.4
CATEGORIES = ("u", "v", "w")
HUNDREDTHS = 10_000  # numeric cells are k / 100 for k in [0, HUNDREDTHS)
# CSV rows are formatted this many at a time, so the strings of a 100k-row
# table, which the heap keeps after they are freed, are never all alive at once.
CHUNK_ROWS = 2_000
NUMERIC_STRENGTH = 0.4  # the first numeric column's strength; the rest are noise
BINS = 3  # equal-frequency bins per numeric column


@dataclass(frozen=True)
class PlantedSpec:
    """Shape, planted strengths and pipeline settings of one planted workload."""

    n_train: int
    n_test: int
    n_categorical: int
    n_signal: int
    strengths: tuple[float, float]  # signal strengths spread evenly over [lo, hi]
    n_numeric: int
    max_iters: int  # fixed sampler budget per chain
    test_files: int = 1  # the held-out rows are predicted as this many CSV files


@dataclass(frozen=True, eq=False)
class PlantedTable:
    """Generator codes of a planted table, split into training and held-out rows.

    ``codes[:, j]`` indexes ``CATEGORIES`` for categorical attribute j;
    ``numeric`` holds the numeric cells exactly as written to CSV.
    """

    spec: PlantedSpec
    categorical_names: tuple[str, ...]
    numeric_names: tuple[str, ...]
    codes: np.ndarray
    numeric: np.ndarray
    y: np.ndarray
    log_odds: np.ndarray  # exact generator log P(pos|x) - log P(neg|x), per row

    @property
    def train(self) -> slice:
        return slice(0, self.spec.n_train)

    @property
    def test(self) -> slice:
        return slice(self.spec.n_train, self.spec.n_train + self.spec.n_test)

    @property
    def test_parts(self) -> list[slice]:
        """The held-out rows split into ``spec.test_files`` consecutive parts."""
        ends = np.linspace(self.test.start, self.test.stop, self.spec.test_files + 1).astype(int)
        return [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]


def signal_columns(spec: PlantedSpec) -> np.ndarray:
    """The planted attributes, evenly spaced; their strengths rise in this order."""
    return np.arange(spec.n_signal) * (spec.n_categorical // spec.n_signal)


def planted_table(spec: PlantedSpec, seed: int, tag: int) -> PlantedTable:
    """Draw ``n_train + n_test`` rows of the planted model for ``seed``."""
    rng = np.random.default_rng([seed, tag])
    n = spec.n_train + spec.n_test
    y = (rng.random(n) < POS_RATE).astype(np.int64)
    log_odds = np.full(n, math.log(POS_RATE / (1 - POS_RATE)))

    codes = rng.integers(0, len(CATEGORIES), size=(n, spec.n_categorical))
    for j, s in zip(signal_columns(spec), np.linspace(*spec.strengths, spec.n_signal)):
        planted = rng.random(n) < s
        codes[planted, j] = y[planted]
        # P(x = c | y) = s [c == y] + (1 - s) / 3
        base = (1 - s) / len(CATEGORIES)
        p_pos = np.where(codes[:, j] == 1, s + base, base)
        p_neg = np.where(codes[:, j] == 0, s + base, base)
        log_odds += np.log(p_pos) - np.log(p_neg)

    half = HUNDREDTHS // 2
    ks = rng.integers(0, HUNDREDTHS, size=(n, spec.n_numeric))
    if spec.n_numeric:
        s = NUMERIC_STRENGTH
        planted = rng.random(n) < s
        ks[planted, 0] = rng.integers(0, half, size=int(planted.sum())) + half * y[planted]
        # P(k | y) = s / half [k // half == y] + (1 - s) / HUNDREDTHS
        base = (1 - s) / HUNDREDTHS
        upper = ks[:, 0] >= half
        p_pos = np.where(upper, s / half + base, base)
        p_neg = np.where(~upper, s / half + base, base)
        log_odds += np.log(p_pos) - np.log(p_neg)
    numeric = ks / 100  # the nearest double to each written "%.2f" cell

    return PlantedTable(
        spec=spec,
        categorical_names=tuple(f"a{j:03d}" for j in range(spec.n_categorical)),
        numeric_names=tuple(f"n{j}" for j in range(spec.n_numeric)),
        codes=codes,
        numeric=numeric,
        y=y,
        log_odds=log_odds,
    )


def write_planted_csv(table: PlantedTable, rows: slice, path: Path) -> None:
    """Write the rows as a labelled CSV: categorical, numeric, then the label."""
    index = np.arange(table.y.size)[rows]
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(table.categorical_names + table.numeric_names + (LABEL,)) + "\n")
        for start in range(0, index.size, CHUNK_ROWS):
            part = index[start:start + CHUNK_ROWS]
            columns = [np.asarray(CATEGORIES)[table.codes[part, j]]
                       for j in range(table.codes.shape[1])]
            columns += [np.char.mod("%.2f", table.numeric[part, j])
                        for j in range(table.numeric.shape[1])]
            columns.append(np.asarray(LABEL_NAMES)[table.y[part]])
            _write_rows(fh, columns)


def write_columns(path: Path, header, columns) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, columns)


def _write_rows(fh, columns) -> None:
    fh.writelines(",".join(row) + "\n" for row in zip(*(c.tolist() for c in columns)))
