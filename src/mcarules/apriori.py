"""Level-wise frequent-itemset rule mining, used as the frequency-counting baseline.

Supports are counted vertically, Eclat-style: each label's rows of an
itemset are the AND of its literals' packed rows in the dataset's
``literal_bits``, and a support is a popcount. Frequent itemsets grow one
level at a time; each is extended, in one array pass, by every frequent
single literal on a later attribute. Its runtime as the literal count grows
is the comparison point for the cosine-scored miner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dataset import CategoricalDataset, Literal
from .miner import MiningResult, Rule, ScoredRule, rank, union_of


@dataclass(frozen=True)
class AprioriConfig:
    """The wall-clock budget, in seconds, that turns a runaway run into a reportable outcome."""

    time_budget: float = 300.0

    def __post_init__(self):
        if self.time_budget <= 0:
            raise ValueError("time_budget must be positive")


def apriori_mine(
    dataset: CategoricalDataset,
    s_min: float,
    r_max: int,
    config: AprioriConfig | None = None,
) -> MiningResult:
    """All rules up to ``r_max`` literals frequent for at least one label.

    An itemset is frequent when its support within some label class reaches
    ``s_min``; every emitted rule is annotated per qualifying label with that
    support and with its confidence (matched-and-labelled over matched),
    which serves as its score. The time budget, 300 s without a ``config``,
    is checked before the singles and before each itemset's extension. A
    run stopped by it keeps every itemset counted so far, a partial last
    level included, and reports status "budget_exceeded".
    """
    if s_min <= 0:
        raise ValueError("s_min must be positive")
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    config = config or AprioriConfig()
    started = time.monotonic()

    bits = dataset.literal_bits
    attribute_of = np.repeat(np.arange(dataset.p), np.diff(dataset.literal_offsets))
    class_counts = dataset.label_counts()
    has_rows = class_counts > 0

    def out_of_budget():
        return time.monotonic() - started > config.time_budget

    def count(words):
        """Per-label hit counts, one row per itemset, of ``(labels, itemsets, W)`` words."""
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64).T

    def is_frequent(hits):
        return (hits[:, has_rows] / class_counts[has_rows] >= s_min).any(axis=1)

    frequent = {}  # itemset tuple of flat literals -> per-label match counts
    budget_hit = out_of_budget()
    if not budget_hit:
        hits = count(bits)
        singles = np.flatnonzero(is_frequent(hits))
        frequent.update(((f,), hits[f]) for f in singles.tolist())
        level = list(frequent)
        for _ in range(1, r_max):
            grown = []
            for itemset in level:
                budget_hit = out_of_budget()
                if budget_hit:
                    break
                cand = singles[attribute_of[singles] > attribute_of[itemset[-1]]]
                parent_words = np.bitwise_and.reduce(bits[:, itemset], axis=1)
                hits = count(bits[:, cand] & parent_words[:, None])
                kept = is_frequent(hits)
                for f, label_counts in zip(cand[kept].tolist(), hits[kept]):
                    child = itemset + (f,)
                    frequent[child] = label_counts
                    grown.append(child)
            if budget_hit:
                break
            level = grown

    literal_of = [
        Literal(j, cat)
        for j, schema in enumerate(dataset.schemas)
        for cat in range(schema.n_categories)
    ]
    buckets = [[] for _ in range(dataset.n_labels)]
    for itemset, label_counts in frequent.items():
        rule = Rule.of(literal_of[f] for f in itemset)
        matched = int(label_counts.sum())
        for k in range(dataset.n_labels):
            if class_counts[k] == 0:
                continue
            supp = label_counts[k] / class_counts[k]
            if supp >= s_min:
                confidence = label_counts[k] / matched
                buckets[k].append(
                    ScoredRule(rule=rule, label=k, score=confidence, support=supp)
                )
    return union_of(
        [rank(b) for b in buckets], "budget_exceeded" if budget_hit else None
    )
