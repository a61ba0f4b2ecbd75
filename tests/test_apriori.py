"""Tests for the level-wise frequency-based baseline miner."""

from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import support, textbook_apriori, with_never_seen_category
from mcarules import apriori
from mcarules.apriori import AprioriConfig, apriori_mine
from mcarules.dataset import AttributeSchema, CategoricalDataset, Literal
from mcarules.miner import MiningResult, Rule, ScoredRule, rule_mask


def random_dataset(rng, sizes, n, n_labels=2):
    X = np.column_stack([rng.integers(0, s, size=n) for s in sizes])
    Y = rng.integers(0, n_labels, size=n)
    if np.unique(Y).size < n_labels:
        Y[:n_labels] = np.arange(n_labels)
    schemas = tuple(
        AttributeSchema(name=f"a{j}", categories=tuple(f"c{v}" for v in range(s)))
        for j, s in enumerate(sizes)
    )
    return CategoricalDataset(
        schemas=schemas, X=X, Y=Y,
        label_names=tuple(f"l{v}" for v in range(n_labels)),
    )


def clock_past_budget_at(monkeypatch, check):
    """Make ``apriori``'s clock pass a 1 s budget at the ``check``-th budget check.

    It reads 0 at the start of a run and at every earlier check, and 10 from
    then on.
    """
    readings = iter([0.0] * check)
    monkeypatch.setattr(
        apriori, "time", SimpleNamespace(monotonic=lambda: next(readings, 10.0))
    )


def exhaustive_apriori(dataset, s_min, r_max):
    """Score every valid rule directly and keep the per-label frequent ones."""
    class_counts = dataset.label_counts()
    per_label = [[] for _ in range(dataset.n_labels)]
    for size in range(1, r_max + 1):
        for attrs in combinations(range(dataset.p), size):
            cat_ranges = [range(dataset.schemas[a].n_categories) for a in attrs]
            for cats in product(*cat_ranges):
                rule = Rule.of(Literal(a, c) for a, c in zip(attrs, cats))
                mask = rule_mask(rule, dataset.X)
                matched = int(mask.sum())
                if matched == 0:
                    continue
                for k in range(dataset.n_labels):
                    if class_counts[k] == 0:
                        continue
                    hits = int(np.count_nonzero(mask & (dataset.Y == k)))
                    supp = hits / class_counts[k]
                    if supp >= s_min:
                        per_label[k].append(
                            ScoredRule(
                                rule=rule, label=k, score=hits / matched, support=supp
                            )
                        )
    for bucket in per_label:
        bucket.sort(key=lambda s: (-s.score, len(s.rule), s.rule.literals))
    best = {}
    for bucket in per_label:
        for sr in bucket:
            prev = best.get(sr.rule)
            if prev is None or (sr.score, -sr.label) > (prev.score, -prev.label):
                best[sr.rule] = sr
    union = tuple(
        sorted(best.values(), key=lambda s: (-s.score, len(s.rule), s.rule.literals, s.label))
    )
    return union, tuple(tuple(b) for b in per_label)


class TestAprioriMine:
    def test_uniform_rows_emit_all_cross_attribute_pairs(self):
        # Every observed literal holds on every row, so no prune ever fires
        # and all singles plus all cross-attribute pairs come out.
        schemas = tuple(
            AttributeSchema(name=f"a{j}", categories=("x", "y")) for j in range(3)
        )
        X = np.zeros((8, 3), dtype=int)
        Y = np.array([0, 1] * 4)
        ds = CategoricalDataset(schemas=schemas, X=X, Y=Y, label_names=("u", "v"))
        result = apriori_mine(ds, s_min=0.5, r_max=2)
        assert result.status == "ok"
        assert len(result.rules) == 3 + 3
        for sr in result.rules:
            assert sr.support == 1.0

    def test_impossible_support_empty(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, sizes=[2, 2], n=20)
        result = apriori_mine(ds, s_min=1.01, r_max=2)
        assert result.status == "empty"
        assert result.rules == ()

    def test_invalid_parameters(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, sizes=[2, 2], n=10)
        with pytest.raises(ValueError):
            apriori_mine(ds, s_min=0.0, r_max=2)
        with pytest.raises(ValueError):
            apriori_mine(ds, s_min=0.5, r_max=0)
        with pytest.raises(ValueError):
            AprioriConfig(time_budget=0)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(99)
        for _ in range(12):
            n_attrs = int(rng.integers(2, 5))
            sizes = [int(rng.choice([2, 3])) for _ in range(n_attrs)]
            if sum(sizes) > 12:
                continue
            n_labels = int(rng.choice([2, 3]))
            ds = random_dataset(
                rng, sizes=sizes, n=int(rng.integers(15, 40)), n_labels=n_labels
            )
            s_min = float(rng.choice([0.15, 0.3, 0.5]))
            r_max = int(rng.integers(1, 4))
            got = apriori_mine(ds, s_min=s_min, r_max=r_max)
            want_union, want_per_label = exhaustive_apriori(ds, s_min, r_max)
            assert got.rules == want_union
            assert got.per_label == want_per_label

    def test_downward_closure_of_output(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, sizes=[2, 2, 3], n=40)
        result = apriori_mine(ds, s_min=0.2, r_max=3)
        emitted = {sr.rule for sr in result.rules}
        frequent_max_supp = {}
        for sr in result.rules:
            prev = frequent_max_supp.get(sr.rule, 0.0)
            frequent_max_supp[sr.rule] = max(prev, sr.support)
        for rule in emitted:
            if len(rule) < 2:
                continue
            for drop in range(len(rule)):
                sub = Rule.of(
                    lit for i, lit in enumerate(rule.literals) if i != drop
                )
                assert max(
                    support(sub, ds, k) for k in range(ds.n_labels)
                ) >= 0.2

    def test_supports_agree_with_miner_support(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, sizes=[2, 3], n=30)
        result = apriori_mine(ds, s_min=0.2, r_max=2)
        for sr in result.rules:
            assert sr.support == support(sr.rule, ds, sr.label)

    def test_confidence_is_matched_fraction(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, sizes=[2, 2], n=30)
        result = apriori_mine(ds, s_min=0.2, r_max=2)
        for sr in result.rules:
            mask = rule_mask(sr.rule, ds.X)
            hits = int(np.count_nonzero(mask & (ds.Y == sr.label)))
            assert sr.score == hits / int(mask.sum())

    def test_candidate_budget(self, monkeypatch):
        # The budget is checked before the singles and before each frequent
        # itemset shorter than r_max is extended, and at no other time.
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, sizes=[2, 2, 2], n=20)
        full = apriori_mine(ds, s_min=0.1, r_max=3)
        checks = 1 + sum(len(sr.rule) < 3 for sr in full.rules)
        config = AprioriConfig(time_budget=1.0)
        for check in range(1, checks + 2):
            clock_past_budget_at(monkeypatch, check)
            stopped = apriori_mine(ds, s_min=0.1, r_max=3, config=config)
            assert stopped.status == ("ok" if check > checks else "budget_exceeded")
        assert stopped == full

    def test_time_budget(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, sizes=[3, 3, 3, 3], n=200)
        result = apriori_mine(
            ds, s_min=0.01, r_max=4, config=AprioriConfig(time_budget=1e-9)
        )
        assert result.status == "budget_exceeded"

    def test_result_is_deterministic(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, sizes=[2, 3, 2], n=50)
        a = apriori_mine(ds, s_min=0.25, r_max=3)
        b = apriori_mine(ds, s_min=0.25, r_max=3)
        assert isinstance(a, MiningResult)
        assert a == b


class TestTextbookEquivalence:
    """Popcount counting over the packed literal rows against the textbook scan."""

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 3), min_size=1, max_size=5),
        n=st.integers(3, 70),
        n_labels=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
        kept_fraction=st.sampled_from([1.0, 0.7, 0.3]),
        dropped_label=st.sampled_from([None, 0, 1]),
        never_seen=st.booleans(),
        s_min=st.sampled_from([0.05, 0.1, 0.2, 1 / 3, 0.5, 0.75, 1.0, 1.01]),
        r_max=st.integers(1, 4),
    )
    def test_equals_textbook_apriori(
        self, sizes, n, n_labels, seed, kept_fraction, dropped_label, never_seen,
        s_min, r_max,
    ):
        rng = np.random.default_rng(seed)
        full = random_dataset(rng, sizes=sizes, n=n, n_labels=n_labels)
        # A row subset: some labels may have no rows and some categories
        # may never occur.
        rows = np.flatnonzero(
            (rng.random(n) < kept_fraction) & (full.Y != dropped_label)
        )
        assume(rows.size > 0)
        ds = CategoricalDataset(
            schemas=full.schemas, X=full.X[rows], Y=full.Y[rows],
            label_names=full.label_names,
        )
        if never_seen:
            ds = with_never_seen_category(ds, 0)
        assert apriori_mine(ds, s_min, r_max) == textbook_apriori(ds, s_min, r_max)

    def test_candidate_budget_keeps_a_subset_of_the_full_run(self, monkeypatch):
        ds = random_dataset(np.random.default_rng(11), sizes=[2, 3, 2, 3], n=60, n_labels=3)
        full = apriori_mine(ds, s_min=0.1, r_max=3)
        full_rules = set(full.rules)
        full_levels = [{sr.rule for sr in full.rules if len(sr.rule) == k} for k in (1, 2, 3)]
        config = AprioriConfig(time_budget=1.0)
        partial_levels = 0
        for check in range(1, 500):
            clock_past_budget_at(monkeypatch, check)
            stopped = apriori_mine(ds, s_min=0.1, r_max=3, config=config)
            if stopped.status == "ok":
                break
            assert stopped.status == "budget_exceeded"
            # Same scores and supports: a rule counted before the stop keeps
            # every label's entry of the full run.
            assert set(stopped.rules) <= full_rules
            for got, want in zip(stopped.per_label, full.per_label):
                assert set(got) <= set(want)
            for k, want in enumerate(full_levels, start=1):
                got = {sr.rule for sr in stopped.rules if len(sr.rule) == k}
                partial_levels += 0 < len(got) < len(want)
        else:
            pytest.fail("the run never completed")
        assert stopped == full
        assert check > 2 and partial_levels > 1

    def test_time_budget_stops_inside_a_level(self, monkeypatch):
        ds = random_dataset(np.random.default_rng(12), sizes=[2, 2, 2], n=40)
        full = apriori_mine(ds, s_min=0.1, r_max=2)
        # The singles' check and the first parent's pass; the second parent's does not.
        clock_past_budget_at(monkeypatch, 3)
        stopped = apriori_mine(
            ds, s_min=0.1, r_max=2, config=AprioriConfig(time_budget=1.0)
        )
        assert stopped.status == "budget_exceeded"
        singles = {sr.rule for sr in full.rules if len(sr.rule) == 1}
        pairs = {sr.rule for sr in full.rules if len(sr.rule) == 2}
        first = min(singles).literals[0]
        from_first = {r for r in pairs if r.literals[0] == first}
        assert from_first and from_first != pairs
        assert {sr.rule for sr in stopped.rules} == singles | from_first
