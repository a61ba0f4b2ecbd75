"""Tests for the cosine-scored rule miner against an exhaustive oracle."""

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcarules.dataset import AttributeSchema, CategoricalDataset, Literal
from mcarules.mca import ScoreTable, ScoreUndefinedError, build_indicator, fit, score_table
from mcarules.miner import (
    MinerConfig,
    Rule,
    ScoredRule,
    mine,
    rule_mask,
    rule_score,
    score_bound,
    support,
)


def make_table(score_rows):
    """Hand-built literal-score table for one single-attribute block per row.

    A NaN entry marks an undefined score.
    """
    scores = np.asarray(score_rows, dtype=np.float64)
    return ScoreTable(
        scores=scores,
        offsets=np.arange(scores.shape[0], dtype=np.int64),
        n_labels=scores.shape[1],
    )


def random_dataset(rng, sizes, n, n_labels=2):
    X = np.column_stack([rng.integers(0, s, size=n) for s in sizes])
    Y = rng.integers(0, n_labels, size=n)
    if np.unique(Y).size < n_labels:
        Y[: n_labels] = np.arange(n_labels)
    schemas = tuple(
        AttributeSchema(name=f"a{j}", categories=tuple(f"c{v}" for v in range(s)))
        for j, s in enumerate(sizes)
    )
    return CategoricalDataset(
        schemas=schemas, X=X, Y=Y,
        label_names=tuple(f"l{v}" for v in range(n_labels)),
    )


def exhaustive_mine(dataset, model, config):
    """Brute-force reference: score and filter every valid rule, then rank.

    Shares the scoring and support formulas with the miner (the contract is
    about the search), but enumerates the whole rule space directly.
    """
    table = score_table(model, dataset)
    per_label = []
    for k in range(dataset.n_labels):
        if int(np.sum(dataset.Y == k)) == 0:
            per_label.append(())
            continue
        kept = []
        for size in range(1, config.r_max + 1):
            for attrs in combinations(range(dataset.p), size):
                cat_ranges = [range(dataset.schemas[a].n_categories) for a in attrs]
                for cats in product(*cat_ranges):
                    rule = Rule.of(Literal(a, c) for a, c in zip(attrs, cats))
                    try:
                        score = rule_score(rule, table, k)
                    except ScoreUndefinedError:
                        continue
                    supp = support(rule, dataset, k)
                    if score >= config.mu_min and supp >= config.s_min:
                        kept.append(
                            ScoredRule(rule=rule, label=k, score=score, support=supp)
                        )
        kept.sort(key=lambda s: (-s.score, len(s.rule), s.rule.literals))
        per_label.append(tuple(kept[: config.M]))
    best = {}
    for ranked in per_label:
        for sr in ranked:
            prev = best.get(sr.rule)
            if prev is None or (sr.score, -sr.label) > (prev.score, -prev.label):
                best[sr.rule] = sr
    union = tuple(
        sorted(best.values(), key=lambda s: (-s.score, len(s.rule), s.rule.literals, s.label))
    )
    return union, per_label


class TestRule:
    def test_canonical_order_enforced(self):
        with pytest.raises(ValueError):
            Rule(literals=(Literal(1, 0), Literal(0, 0)))

    def test_of_sorts(self):
        rule = Rule.of([Literal(1, 0), Literal(0, 2)])
        assert rule.literals == (Literal(0, 2), Literal(1, 0))

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError):
            Rule.of([Literal(0, 0), Literal(0, 1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Rule.of([])

    @given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 3)), min_size=1, max_size=4))
    def test_equal_rules_compare_equal(self, pairs):
        attrs = [a for a, _ in pairs]
        if len(set(attrs)) != len(attrs):
            return
        lits = [Literal(a, c) for a, c in pairs]
        assert Rule.of(lits) == Rule.of(reversed(lits))
        assert hash(Rule.of(lits)) == hash(Rule.of(reversed(lits)))


class TestSupport:
    def toy(self):
        schemas = (
            AttributeSchema(name="a", categories=("x", "y")),
            AttributeSchema(name="b", categories=("u", "v")),
        )
        X = np.array([[0, 0], [0, 1], [1, 0], [0, 0]])
        Y = np.array([0, 0, 1, 1])
        return CategoricalDataset(schemas=schemas, X=X, Y=Y, label_names=("n", "p"))

    def test_tautology_is_one(self):
        ds = self.toy()
        assert support(Rule.of([Literal(0, 0)]), ds, 0) == 1.0

    def test_fractional(self):
        schemas = (AttributeSchema(name="a", categories=("x", "y")),)
        X = np.array([[0]] * 3 + [[1]] * 7 + [[0]] * 5)
        Y = np.array([0] * 10 + [1] * 5)
        ds = CategoricalDataset(schemas=schemas, X=X, Y=Y, label_names=("n", "p"))
        assert support(Rule.of([Literal(0, 0)]), ds, 0) == pytest.approx(0.3)

    def test_two_literal_rule_matches_row_scan(self):
        ds = self.toy()
        rule = Rule.of([Literal(0, 0), Literal(1, 0)])
        for k in (0, 1):
            rows = [
                i for i in range(ds.n)
                if ds.Y[i] == k and ds.X[i, 0] == 0 and ds.X[i, 1] == 0
            ]
            assert support(rule, ds, k) == len(rows) / int(np.sum(ds.Y == k))

    def test_empty_class_rejected(self):
        schemas = (AttributeSchema(name="a", categories=("x", "y")),)
        ds = CategoricalDataset(
            schemas=schemas,
            X=np.array([[0], [1]]),
            Y=np.array([0, 0]),
            label_names=("n", "p"),
        )
        with pytest.raises(ValueError):
            support(Rule.of([Literal(0, 0)]), ds, 1)


class TestRuleScore:
    def test_single_literal(self):
        table = make_table([[0.7, -0.7]])
        assert rule_score(Rule.of([Literal(0, 0)]), table, 0) == pytest.approx(0.7)

    def test_mean_of_two(self):
        table = make_table([[0.8, 0.0], [0.4, 0.0]])
        rule = Rule.of([Literal(0, 0), Literal(1, 0)])
        assert rule_score(rule, table, 0) == pytest.approx(0.6)

    def test_cancellation(self):
        table = make_table([[-0.5, 0.0], [0.5, 0.0]])
        rule = Rule.of([Literal(0, 0), Literal(1, 0)])
        assert rule_score(rule, table, 0) == pytest.approx(0.0)

    def test_undefined_literal_raises(self):
        table = make_table([[0.5, 0.5], [np.nan, np.nan]])
        rule = Rule.of([Literal(0, 0), Literal(1, 0)])
        with pytest.raises(ScoreUndefinedError):
            rule_score(rule, table, 0)


class TestScoreBound:
    def test_printed_examples(self):
        assert score_bound(1, 0.5, 0.9) == pytest.approx(0.1)
        assert score_bound(2, 0.5, 1.0) == pytest.approx(0.25)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            score_bound(0, 0.5, 0.9)

    def test_bound_tightens_with_floor(self):
        assert score_bound(2, 0.6, 0.9) > score_bound(2, 0.5, 0.9)


def perfectly_correlated():
    schemas = (AttributeSchema(name="a1", categories=("c1", "c2")),)
    X = np.array([[0], [1], [0], [1]])
    Y = np.array([0, 1, 0, 1])
    return CategoricalDataset(schemas=schemas, X=X, Y=Y, label_names=("l0", "l1"))


class TestMine:
    def test_perfect_correlation_single_literal(self):
        ds = perfectly_correlated()
        model = fit(build_indicator(ds))
        result = mine(ds, model, MinerConfig(r_max=1, s_min=0.5, mu_min=0.5, M=5))
        assert result.status == "ok"
        by_label = result.per_label
        assert by_label[0][0].rule == Rule.of([Literal(0, 0)])
        assert by_label[0][0].score == pytest.approx(1.0)
        assert by_label[1][0].rule == Rule.of([Literal(0, 1)])
        assert by_label[1][0].score == pytest.approx(1.0)

    def test_impossible_support_yields_empty_status(self):
        ds = perfectly_correlated()
        model = fit(build_indicator(ds))
        result = mine(ds, model, MinerConfig(r_max=2, s_min=1.01, mu_min=0.5, M=5))
        assert result.status == "empty"
        assert result.rules == ()

    def test_emitted_rules_satisfy_floors(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, sizes=[2, 3, 2], n=60)
        model = fit(build_indicator(ds))
        cfg = MinerConfig(r_max=3, s_min=0.2, mu_min=0.1, M=10)
        result = mine(ds, model, cfg)
        table = score_table(model, ds)
        for ranked in result.per_label:
            assert len(ranked) <= cfg.M
            scores = [sr.score for sr in ranked]
            assert scores == sorted(scores, reverse=True)
            for sr in ranked:
                assert sr.score >= cfg.mu_min
                assert sr.support >= cfg.s_min
                assert sr.score == pytest.approx(
                    rule_score(sr.rule, table, sr.label), abs=1e-12
                )
                assert sr.support == pytest.approx(
                    support(sr.rule, ds, sr.label), abs=1e-12
                )

    def test_monotone_support_of_emitted_rules(self):
        rng = np.random.default_rng(77)
        ds = random_dataset(rng, sizes=[2, 2, 3], n=50)
        model = fit(build_indicator(ds))
        result = mine(ds, model, MinerConfig(r_max=3, s_min=0.15, mu_min=0.05, M=20))
        for sr in result.rules:
            if len(sr.rule) < 2:
                continue
            for drop in range(len(sr.rule)):
                sub = Rule.of(
                    lit for i, lit in enumerate(sr.rule.literals) if i != drop
                )
                assert support(sub, ds, sr.label) >= sr.support - 1e-12

    def test_worker_count_does_not_change_output(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, sizes=[2, 3, 2], n=40, n_labels=3)
        model = fit(build_indicator(ds))
        cfg = MinerConfig(r_max=2, s_min=0.2, mu_min=0.1, M=8)
        a = mine(ds, model, cfg, n_workers=1)
        b = mine(ds, model, cfg, n_workers=3)
        assert a == b

    def test_union_deduplicates_across_labels(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, sizes=[2, 2], n=30)
        model = fit(build_indicator(ds))
        # A floor of -1 admits every rule under every label, forcing overlap.
        result = mine(ds, model, MinerConfig(r_max=2, s_min=0.01, mu_min=-1.0, M=50))
        rules = [sr.rule for sr in result.rules]
        assert len(rules) == len(set(rules))
        assert sum(len(pl) for pl in result.per_label) > len(rules)

    def test_unsigned_variant_admits_negative_correlations(self):
        # The anti-correlated category still covers a quarter of class 0, so
        # only the sign of its score separates the two variants.
        schemas = (AttributeSchema(name="a", categories=("x", "y")),)
        X = np.array([[0]] * 3 + [[1]] + [[0]] + [[1]] * 3)
        Y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        ds = CategoricalDataset(schemas=schemas, X=X, Y=Y, label_names=("l0", "l1"))
        model = fit(build_indicator(ds))
        signed = mine(ds, model, MinerConfig(r_max=1, s_min=0.2, mu_min=0.1, M=10))
        unsigned = mine(
            ds, model,
            MinerConfig(r_max=1, s_min=0.2, mu_min=0.1, M=10, signed=False),
        )
        assert len(signed.per_label[0]) == 1
        assert len(unsigned.per_label[0]) == 2


class TestOracleEquivalence:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1234)
        cases = 0
        while cases < 24:
            n_attrs = int(rng.integers(2, 5))
            sizes = [int(rng.choice([2, 3])) for _ in range(n_attrs)]
            if sum(sizes) > 12:
                continue
            n_labels = int(rng.choice([2, 3]))
            n = int(rng.integers(12, 40))
            ds = random_dataset(rng, sizes=sizes, n=n, n_labels=n_labels)
            cfg = MinerConfig(
                r_max=int(rng.integers(1, 4)),
                s_min=float(rng.choice([0.1, 0.25, 0.4])),
                mu_min=float(rng.choice([0.05, 0.2, 0.5])),
                M=int(rng.choice([3, 5, 70])),
            )
            model = fit(build_indicator(ds))
            got = mine(ds, model, cfg)
            want_union, want_per_label = exhaustive_mine(ds, model, cfg)
            assert got.rules == want_union
            assert got.per_label == tuple(want_per_label)
            cases += 1


class TestRuleMask:
    def test_mask_is_conjunction(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, sizes=[2, 3], n=25)
        rule = Rule.of([Literal(0, 1), Literal(1, 2)])
        mask = rule_mask(rule, ds.X)
        expected = (ds.X[:, 0] == 1) & (ds.X[:, 1] == 2)
        np.testing.assert_array_equal(mask, expected)
