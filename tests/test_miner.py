"""Tests for the cosine-scored rule miner against an exhaustive oracle."""

import heapq
import threading
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import flat_literals, literal_mask, rule_score, support
from mcarules.dataset import AttributeSchema, CategoricalDataset, Literal
from mcarules.mca import ScoreTable, ScoreUndefinedError, build_indicator, fit, score_table
from mcarules.miner import (
    MinerConfig,
    Rule,
    ScoredRule,
    mine,
    rank,
    rule_mask,
    score_bound,
    union_of,
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


def reference_mine(dataset, model, config):
    """The miner's search, one child rule at a time.

    Every child of a frontier rule is built as a ``Rule``, scored as a
    canonical-order sum, and counted on the rows, in literal order. The miner
    does the same per parent in array passes; both must give the same
    ``MiningResult`` to the last bit.
    """
    table = score_table(model, dataset)
    scores = table.scores if config.signed else np.abs(table.scores)
    literals = flat_literals(dataset)
    class_counts = dataset.label_counts()
    per_label = []
    for k in range(dataset.n_labels):
        scores_k = scores[:, k]
        defined = ~np.isnan(scores_k)
        if class_counts[k] == 0 or not defined.any():
            per_label.append(())
            continue
        rho_bar_k = float(scores_k[defined].max())
        class_mask = dataset.Y == k
        class_count = int(class_counts[k])
        pool, top_scores = {}, []

        def add(rule, score, supp):
            pool[rule] = ScoredRule(rule=rule, label=k, score=score, support=supp)
            if len(top_scores) < config.M:
                heapq.heappush(top_scores, score)
            else:
                heapq.heappushpop(top_scores, score)

        for flat, lit in enumerate(literals):
            if not defined[flat]:
                continue
            score = float(scores_k[flat])
            supp = np.count_nonzero(literal_mask(dataset, lit) & class_mask) / class_count
            if score >= config.mu_min and supp >= config.s_min:
                add(Rule.of([lit]), score, supp)

        for length in range(1, config.r_max):
            frontier = sorted((r for r in pool if len(r) == length), key=lambda r: r.literals)
            for rule in frontier:
                working_mu = config.mu_min
                if len(top_scores) == config.M:
                    working_mu = max(working_mu, top_scores[0])
                if pool[rule].score < score_bound(length, working_mu, rho_bar_k):
                    continue
                parent_mask = rule_mask(rule, dataset.X)
                for flat, lit in enumerate(literals):
                    if not defined[flat] or lit.attribute in rule.attributes:
                        continue
                    child = rule.extended(lit)
                    if child in pool:
                        continue
                    child_score = sum(
                        float(scores_k[table.flat_index(l)]) for l in child.literals
                    ) / len(child)
                    if child_score < working_mu:
                        continue
                    hits = int(np.count_nonzero(parent_mask & literal_mask(dataset, lit) & class_mask))
                    if hits / class_count < config.s_min:
                        continue
                    add(child, child_score, hits / class_count)
        per_label.append(rank(pool.values())[: config.M])
    return union_of(per_label)


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

    def test_full_rank_mining_makes_no_eigendecomposition(self, monkeypatch):
        rng = np.random.default_rng(37)
        ds = random_dataset(rng, sizes=[2, 3, 2], n=60)
        cfg = MinerConfig(r_max=3, s_min=0.1, mu_min=0.05, M=10)
        expected = mine(ds, fit(build_indicator(ds)), cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert mine(ds, fit(build_indicator(ds)), cfg) == expected
        assert expected.rules

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

    def test_mine_starts_no_thread(self, monkeypatch):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, sizes=[2, 3, 2], n=40, n_labels=3)
        model = fit(build_indicator(ds))
        cfg = MinerConfig(r_max=2, s_min=0.2, mu_min=0.1, M=8)
        expected = mine(ds, model, cfg)

        def refuse(thread):
            raise AssertionError("mine started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        # ``n_workers`` is accepted and ignored.
        assert mine(ds, model, cfg, n_workers=4) == expected

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


class TestReferenceEquivalence:
    """Per-parent array extension against the one-child-at-a-time search."""

    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 3), min_size=2, max_size=12),
        n=st.integers(8, 40),
        n_labels=st.integers(2, 3),
        absent=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        r_max=st.integers(1, 4),
        s_min=st.sampled_from([0.05, 0.1, 0.3]),
        mu_min=st.sampled_from([-0.2, 0.0, 0.05, 0.2]),
        M=st.sampled_from([2, 5, 70]),
        signed=st.booleans(),
        components=st.sampled_from([None, 1, 2]),
    )
    # A child first reached from a parent that lacks its leading literal:
    # adding the new literal's score last, not at its slot, moves the last bit.
    @example(
        sizes=[2, 2, 2], n=17, n_labels=2, absent=False, seed=758, r_max=3,
        s_min=0.1, mu_min=0.05, M=70, signed=True, components=None,
    )
    def test_mine_equals_reference(
        self, sizes, n, n_labels, absent, seed, r_max, s_min, mu_min, M, signed, components
    ):
        ds = random_dataset(np.random.default_rng(seed), sizes=sizes, n=n, n_labels=n_labels)
        if absent:
            # The last category of the first attribute never occurs: NaN scores.
            X = np.array(ds.X)
            X[X[:, 0] == sizes[0] - 1, 0] = 0
            ds = CategoricalDataset(
                schemas=ds.schemas, X=X, Y=ds.Y, label_names=ds.label_names
            )
        model = fit(build_indicator(ds), components=components)
        cfg = MinerConfig(r_max=r_max, s_min=s_min, mu_min=mu_min, M=M, signed=signed)
        assert mine(ds, model, cfg) == reference_mine(ds, model, cfg)


class TestRuleMask:
    def test_mask_is_conjunction(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, sizes=[2, 3], n=25)
        rule = Rule.of([Literal(0, 1), Literal(1, 2)])
        mask = rule_mask(rule, ds.X)
        expected = (ds.X[:, 0] == 1) & (ds.X[:, 1] == 2)
        np.testing.assert_array_equal(mask, expected)
