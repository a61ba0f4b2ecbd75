"""
Runtime scaling: cosine-guided mining vs. level-wise counting
=============================================================

Times both miners on synthetic datasets of growing width, each on its own
copy of the table. Both count supports as popcounts of the dataset's packed
literal rows. The cosine miner scores literals from their literal×label
counts and extends only rules its score bound keeps, while the level-wise
baseline extends every frequent itemset by every frequent literal on a later
attribute, so the gap widens with the attribute count.
"""

from mcarules.benchmark import BenchmarkConfig, run_benchmark, summarize

# Keep the demo quick: three grid points, one repetition each. Raise the
# grid or repetitions for smoother curves.
config = BenchmarkConfig(
    attribute_grid=(10, 50, 100),
    n=500,
    n_categories=3,
    repetitions=1,
    signal_fraction=0.1,
    signal_strength=0.8,
    seed=0,
)

rows = run_benchmark(config)
print(summarize(rows))

# Pair up the timings per grid point to show the ratio directly.
by_point = {}
for row in rows:
    by_point.setdefault(row.attributes, {})[row.miner] = row.seconds
print("\nslowdown of the baseline relative to the cosine miner:")
for attrs in config.attribute_grid:
    times = by_point[attrs]
    ratio = times["apriori"] / times["mca"]
    print(f"  {attrs:>4} attributes: {ratio:6.1f}x")
