"""Tests for the synthetic generator and the scaling benchmark harness."""

import numpy as np
import pytest

from mcarules.benchmark import (
    BENCH_HEADER,
    BenchmarkConfig,
    BenchRow,
    bench_rows,
    run_benchmark,
    summarize,
    synthetic_dataset,
)
from mcarules import benchmark
from mcarules.miner import MinerConfig


def record_timer_calls(monkeypatch, record):
    """Patch both miner timers to log ``record(name, dataset)`` as each starts."""
    calls = []
    for name in ("_time_mca", "_time_apriori"):
        def run(ds, *rest, name=name, timed=getattr(benchmark, name)):
            calls.append(record(name, ds))
            return timed(ds, *rest)
        monkeypatch.setattr(benchmark, name, run)
    return calls


class TestSyntheticDataset:
    def test_shape_and_schemas(self):
        ds = synthetic_dataset(
            n=100, n_attributes=7, n_categories=3,
            signal_fraction=0.3, signal_strength=0.9, seed=0,
        )
        assert ds.n == 100
        assert ds.p == 7
        assert all(s.n_categories == 3 for s in ds.schemas)
        assert ds.n_labels == 2

    def test_deterministic_given_seed(self):
        kwargs = dict(
            n=60, n_attributes=5, n_categories=3,
            signal_fraction=0.2, signal_strength=0.8,
        )
        a = synthetic_dataset(seed=42, **kwargs)
        b = synthetic_dataset(seed=42, **kwargs)
        c = synthetic_dataset(seed=43, **kwargs)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
        assert not np.array_equal(a.X, c.X)

    def test_signal_attributes_track_label(self):
        ds = synthetic_dataset(
            n=2000, n_attributes=10, n_categories=3,
            signal_fraction=0.2, signal_strength=0.9, seed=1,
        )
        # Signal columns agree with the label far more often than chance;
        # noise columns sit near 1/3.
        agree = (ds.X == ds.Y[:, None]).mean(axis=0)
        assert agree[0] > 0.85 and agree[1] > 0.85
        assert np.all(np.abs(agree[2:] - 1 / 3) < 0.06)

    def test_zero_fraction_is_pure_noise(self):
        ds = synthetic_dataset(
            n=3000, n_attributes=4, n_categories=2,
            signal_fraction=0.0, signal_strength=1.0, seed=2,
        )
        agree = (ds.X == ds.Y[:, None]).mean(axis=0)
        assert np.all(np.abs(agree - 0.5) < 0.05)


class TestBenchmarkHarness:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(attribute_grid=())
        with pytest.raises(ValueError):
            BenchmarkConfig(signal_strength=1.5)
        with pytest.raises(ValueError):
            BenchmarkConfig(repetitions=0)
        with pytest.raises(ValueError):
            BenchmarkConfig(time_budget=0)

    def test_tiny_grid_produces_rows(self):
        config = BenchmarkConfig(
            attribute_grid=(2, 4), n=80, repetitions=1, miner=MinerConfig(M=10),
            time_budget=30.0,
        )
        rows = run_benchmark(config)
        assert len(rows) == 4
        miners = {(r.attributes, r.miner) for r in rows}
        assert miners == {(2, "mca"), (2, "apriori"), (4, "mca"), (4, "apriori")}
        for r in rows:
            assert r.seconds >= 0
            assert r.status in ("ok", "empty", "budget_exceeded")

    def test_single_attribute_grid_fast(self):
        config = BenchmarkConfig(attribute_grid=(1,), n=80, miner=MinerConfig(M=5))
        rows = run_benchmark(config)
        assert all(r.seconds < 1.0 for r in rows)

    def test_progress_callback_sees_every_row(self):
        config = BenchmarkConfig(
            attribute_grid=(2,), n=50, repetitions=2, miner=MinerConfig(M=5)
        )
        seen = []
        rows = run_benchmark(config, progress=seen.append)
        assert seen == rows

    def test_warm_up_pass_emits_no_row(self, monkeypatch):
        calls = record_timer_calls(monkeypatch, lambda name, ds: (name, ds.p))
        config = BenchmarkConfig(
            attribute_grid=(3, 5), n=50, repetitions=2, miner=MinerConfig(M=5)
        )
        rows = run_benchmark(config)
        assert [(r.attributes, r.repetition, r.miner) for r in rows] == [
            (p, rep, miner)
            for p in (3, 5)
            for rep in range(2)
            for miner in ("mca", "apriori")
        ]
        # One untimed pass of each miner on the 2-attribute table comes first.
        assert calls[:2] == [("_time_mca", 2), ("_time_apriori", 2)]
        assert len(calls) == len(rows) + 2

    def test_each_miner_builds_its_own_literal_bits(self, monkeypatch):
        prebuilt = record_timer_calls(
            monkeypatch, lambda name, ds: (name, "literal_bits" in vars(ds))
        )
        config = BenchmarkConfig(
            attribute_grid=(3,), n=50, repetitions=2, miner=MinerConfig(M=5)
        )
        run_benchmark(config)
        assert prebuilt == [("_time_mca", False), ("_time_apriori", False)] * 3

    def test_rows_flatten_for_csv(self):
        row = BenchRow(
            attributes=10, miner="mca", repetition=0,
            seconds=0.5, status="ok", n_rules=3,
        )
        assert bench_rows([row]) == [[10, "mca", 0, 0.5, "ok", 3]]
        assert len(BENCH_HEADER) == 6

    def test_summary_mentions_each_point(self):
        config = BenchmarkConfig(attribute_grid=(2,), n=50, miner=MinerConfig(M=5))
        rows = run_benchmark(config)
        text = summarize(rows)
        assert "mca" in text and "apriori" in text
