"""Runtime scaling benchmark: cosine-guided miner vs. the level-wise baseline.

Synthetic datasets place each attribute independently uniform over its
categories, except a fixed fraction of "signal" attributes whose cell is
overwritten with a label-linked category at a configurable strength. Both
miners then run under identical support/length settings, each on its own
copy of the table, and only the mining call itself is timed, building the
dataset's packed literal rows included; generation and bookkeeping stay
outside the clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .apriori import AprioriConfig, apriori_mine
from .dataset import AttributeSchema, CategoricalDataset
from .mca import build_indicator, fit
from .miner import MinerConfig, mine

__all__ = [
    "BenchmarkConfig",
    "BenchRow",
    "BENCH_HEADER",
    "synthetic_dataset",
    "run_benchmark",
    "bench_rows",
]

BENCH_HEADER = (
    "attributes", "miner", "repetition", "seconds", "status", "n_rules"
)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Grid and budgets for one benchmark run, and the settings both miners share.

    The level-wise baseline reads only ``miner.s_min`` and ``miner.r_max``.
    """

    attribute_grid: tuple[int, ...] = (10, 50, 100)
    n: int = 500
    n_categories: int = 3
    repetitions: int = 1
    miner: MinerConfig = field(default_factory=MinerConfig)
    components: int | None = None
    signal_fraction: float = 0.1
    signal_strength: float = 0.8
    seed: int = 0
    time_budget: float = 300.0

    def __post_init__(self):
        if not self.attribute_grid or min(self.attribute_grid) < 1:
            raise ValueError("attribute_grid must be non-empty and positive")
        if self.components is not None and self.components < 1:
            raise ValueError("components must be a positive integer")
        if self.n < 4:
            raise ValueError("n must be at least 4")
        if self.n_categories < 2:
            raise ValueError("n_categories must be at least 2")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not 0 <= self.signal_fraction <= 1:
            raise ValueError("signal_fraction must lie in [0, 1]")
        if not 0 <= self.signal_strength <= 1:
            raise ValueError("signal_strength must lie in [0, 1]")
        if self.time_budget <= 0:
            raise ValueError("time_budget must be positive")


@dataclass(frozen=True)
class BenchRow:
    attributes: int
    miner: str
    repetition: int
    seconds: float
    status: str
    n_rules: int


def synthetic_dataset(
    n: int,
    n_attributes: int,
    n_categories: int,
    signal_fraction: float,
    signal_strength: float,
    seed,
) -> CategoricalDataset:
    """Uniform categorical noise with planted label-correlated literals.

    The first ``ceil(signal_fraction * n_attributes)`` attributes have each
    cell replaced, with probability ``signal_strength``, by the category
    whose index equals the row's label; the rest stay uniform. Labels are
    balanced Bernoulli draws.
    """
    rng = np.random.default_rng(seed)
    Y = rng.integers(0, 2, size=n)
    if np.unique(Y).size < 2:
        Y[:2] = [0, 1]
    X = rng.integers(0, n_categories, size=(n, n_attributes))
    n_signal = int(np.ceil(signal_fraction * n_attributes))
    for j in range(n_signal):
        flip = rng.random(n) < signal_strength
        X[flip, j] = Y[flip]
    schemas = tuple(
        AttributeSchema(
            name=f"x{j:03d}",
            categories=tuple(f"c{v}" for v in range(n_categories)),
        )
        for j in range(n_attributes)
    )
    return CategoricalDataset(
        schemas=schemas, X=X, Y=Y, label_names=("neg", "pos")
    )


def _time_mca(dataset, config: BenchmarkConfig):
    start = time.perf_counter()
    model = fit(build_indicator(dataset), components=config.components)
    result = mine(dataset, model, config.miner)
    elapsed = time.perf_counter() - start
    return elapsed, result.status, len(result)


def _time_apriori(dataset, config: BenchmarkConfig):
    apriori_config = AprioriConfig(time_budget=config.time_budget)
    start = time.perf_counter()
    miner = config.miner
    result = apriori_mine(
        dataset, s_min=miner.s_min, r_max=miner.r_max, config=apriori_config
    )
    elapsed = time.perf_counter() - start
    return elapsed, result.status, len(result)


def run_benchmark(config: BenchmarkConfig, progress=None) -> list[BenchRow]:
    """Time both miners over the attribute grid; one row per miner and rep.

    One untimed pass of both miners on a small table runs first, so the
    first grid point does not pay for loading BLAS and first-call set-up.
    Each miner runs on its own freshly generated copy of the table, so each
    timing includes building the dataset's packed literal rows.
    """
    def table(n_attributes, seed):
        return synthetic_dataset(
            n=config.n,
            n_attributes=n_attributes,
            n_categories=config.n_categories,
            signal_fraction=config.signal_fraction,
            signal_strength=config.signal_strength,
            seed=seed,
        )

    _time_mca(table(2, config.seed), config)
    _time_apriori(table(2, config.seed), config)
    rows = []
    for n_attributes in config.attribute_grid:
        for rep in range(config.repetitions):
            for miner_name, runner in (("mca", _time_mca), ("apriori", _time_apriori)):
                dataset = table(n_attributes, (config.seed, n_attributes, rep))
                seconds, status, n_rules = runner(dataset, config)
                row = BenchRow(
                    attributes=n_attributes,
                    miner=miner_name,
                    repetition=rep,
                    seconds=seconds,
                    status=status,
                    n_rules=n_rules,
                )
                rows.append(row)
                if progress is not None:
                    progress(row)
    return rows


def bench_rows(rows) -> list[list]:
    """Flatten benchmark rows for the CSV writer."""
    return [
        [r.attributes, r.miner, r.repetition, r.seconds, r.status, r.n_rules]
        for r in rows
    ]


def summarize(rows) -> str:
    """Aligned per-point summary of the runtime curve."""
    lines = [f"{'attrs':>6} {'miner':>8} {'seconds':>10} {'status':>16} {'rules':>6}"]
    for r in rows:
        lines.append(
            f"{r.attributes:>6} {r.miner:>8} {r.seconds:>10.3f} "
            f"{r.status:>16} {r.n_rules:>6}"
        )
    return "\n".join(lines)
