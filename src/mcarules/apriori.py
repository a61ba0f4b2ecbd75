"""Classic level-wise Apriori rule mining, used as the frequency-counting baseline.

Rows become transactions of literal ids (one per attribute); frequent
itemsets grow level by level with downward-closure pruning and a full
transaction scan per level. Deliberately the textbook single-threaded
algorithm: its runtime as the literal count grows is the comparison point
for the cosine-scored miner, so no vectorization tricks are applied.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dataset import CategoricalDataset, Literal
from .miner import MiningResult, Rule, ScoredRule, rank, union_of


@dataclass(frozen=True)
class AprioriConfig:
    """Optional budgets that turn runaway runs into reportable outcomes."""

    time_budget: float | None = None
    max_candidates: int | None = None

    def __post_init__(self):
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time_budget must be positive")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError("max_candidates must be at least 1")


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
    which serves as its score. A run stopped by a budget keeps the itemsets
    counted so far and reports status "budget_exceeded".
    """
    if s_min <= 0:
        raise ValueError("s_min must be positive")
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    config = config or AprioriConfig()
    started = time.monotonic()

    offsets = dataset.literal_offsets
    literal_of = {
        int(offsets[j]) + cat: Literal(j, cat)
        for j, schema in enumerate(dataset.schemas)
        for cat in range(schema.n_categories)
    }
    transactions = [frozenset(row) for row in (dataset.X + offsets[:-1]).tolist()]
    row_labels = [int(y) for y in dataset.Y]
    class_counts = dataset.label_counts()
    n_labels = dataset.n_labels

    def out_of_budget(total):
        if config.max_candidates is not None and total > config.max_candidates:
            return True
        if config.time_budget is not None:
            return time.monotonic() - started > config.time_budget
        return False

    def count_candidates(candidates):
        counts = {c: np.zeros(n_labels, dtype=np.int64) for c in candidates}
        for row, label in zip(transactions, row_labels):
            for candidate in candidates:
                if row.issuperset(candidate):
                    counts[candidate][label] += 1
        return counts

    def is_frequent(label_counts):
        for k in range(n_labels):
            if class_counts[k] > 0 and label_counts[k] / class_counts[k] >= s_min:
                return True
        return False

    frequent = {}  # itemset tuple -> per-label match counts
    total_candidates = len(literal_of)
    budget_hit = out_of_budget(total_candidates)
    if not budget_hit:
        singles = [(flat,) for flat in sorted(literal_of)]
        counts = count_candidates(singles)
        level = {c: v for c, v in counts.items() if is_frequent(v)}
        frequent.update(level)

        for size in range(2, r_max + 1):
            if not level or budget_hit:
                break
            candidates = _join_level(sorted(level), level)
            total_candidates += len(candidates)
            if out_of_budget(total_candidates):
                budget_hit = True
                break
            counts = count_candidates(candidates)
            level = {c: v for c, v in counts.items() if is_frequent(v)}
            frequent.update(level)

    buckets = [[] for _ in range(n_labels)]
    for itemset, label_counts in frequent.items():
        rule = Rule.of(literal_of[f] for f in itemset)
        matched = int(label_counts.sum())
        for k in range(n_labels):
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


def _join_level(sorted_itemsets, frequent_level):
    """F(k-1) x F(k-1) join with downward-closure pruning."""
    candidates = []
    n = len(sorted_itemsets)
    for a in range(n):
        first = sorted_itemsets[a]
        for b in range(a + 1, n):
            second = sorted_itemsets[b]
            if first[:-1] != second[:-1]:
                break  # sorted order: no further shared prefixes
            candidate = first + (second[-1],)
            if all(
                candidate[:i] + candidate[i + 1:] in frequent_level
                for i in range(len(candidate) - 2)
            ):
                candidates.append(candidate)
    return candidates
