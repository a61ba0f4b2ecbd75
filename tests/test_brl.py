"""Tests for the rule-list posterior, proposals, chains, and diagnostics."""

import json
import math
import tempfile
from collections import Counter
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    flat_literals,
    log_posterior,
    reference_log_posterior,
    run_chain,
    with_never_seen_category,
)
from mcarules import brl
from mcarules.artifacts import read_model, write_model
from mcarules.brl import (
    BrlConfig,
    Evaluator,
    RuleList,
    TrainDiagnostics,
    _advance,
    _fresh_chain,
    _Prefix,
    first_match,
    gelman_rubin,
    predict_proba_batch,
    propose,
    render_rule_list,
    train,
)
from mcarules.dataset import AttributeSchema, CategoricalDataset, FeatureTable, Literal
from mcarules.mca import build_indicator, fit
from mcarules.miner import MinerConfig, Rule, mine, rule_mask


def dataset_from_matrix(X, Y, n_labels=2, sizes=None):
    X = np.asarray(X)
    if sizes is None:
        sizes = [int(X[:, j].max()) + 1 for j in range(X.shape[1])]
    schemas = tuple(
        AttributeSchema(
            name=f"a{j}", categories=tuple(f"c{v}" for v in range(max(2, s)))
        )
        for j, s in enumerate(sizes)
    )
    return CategoricalDataset(
        schemas=schemas,
        X=X,
        Y=np.asarray(Y),
        label_names=tuple(f"l{v}" for v in range(n_labels)),
    )


def predict_proba(rule_list, sample):
    """Per-row reference: the label distribution of the first clause matching ``sample``."""
    sample = np.asarray(sample)
    probs = rule_list.clause_probabilities()
    for j, rule in enumerate(rule_list.rules):
        if all(sample[lit.attribute] == lit.category for lit in rule.literals):
            return probs[j]
    return probs[-1]


def fitted_counts(rules, dataset):
    """Label counts per clause of ``rules``, default last, from ``Evaluator.capture``."""
    rules = tuple(rules)
    # The evaluator refuses an empty pool; the empty list still captures nothing.
    pool = rules or (Rule.of([Literal(0, 0)]),)
    return Evaluator(dataset, pool, BrlConfig()).capture(tuple(range(len(rules))))


def informative_dataset(rng, n=60, p=3):
    """Attribute 0 mostly tracks the label; the rest is noise."""
    Y = rng.integers(0, 2, size=n)
    X = rng.integers(0, 2, size=(n, p))
    flip = rng.random(n) < 0.85
    X[flip, 0] = Y[flip]
    return dataset_from_matrix(X, Y)


def all_single_literal_rules(dataset):
    return [Rule.of([lit]) for lit in flat_literals(dataset)]


def enumerate_states(n_rules, cap):
    states = [()]
    for m in range(1, cap + 1):
        states.extend(permutations(range(n_rules), m))
    return states


def exact_posterior(evaluator, states):
    logs = np.array([evaluator.log_posterior(s) for s in states])
    logs -= logs.max()
    probs = np.exp(logs)
    return probs / probs.sum()


def analytic_proposal_prob(s, t, n_rules, cap):
    """Independent derivation of the one-move transition probability q(t|s)."""
    m = len(s)
    n_types = sum(
        [m < min(cap, n_rules), m >= 1, m >= 2]
    )
    if len(t) == m + 1:
        extra = set(t) - set(s)
        if len(extra) != 1:
            return 0.0
        removed = tuple(x for x in t if x not in extra)
        if removed != s:
            return 0.0
        return 1.0 / (n_types * (n_rules - m) * (m + 1))
    if len(t) == m - 1:
        missing = set(s) - set(t)
        if len(missing) != 1:
            return 0.0
        kept = tuple(x for x in s if x not in missing)
        if kept != t:
            return 0.0
        return 1.0 / (n_types * m)
    if len(t) == m and m >= 2:
        diff = [i for i in range(m) if s[i] != t[i]]
        if len(diff) != 2:
            return 0.0
        i, j = diff
        if s[i] != t[j] or s[j] != t[i]:
            return 0.0
        return 2.0 / (n_types * m * (m - 1))
    return 0.0


class TestCaptureCounts:
    def test_empty_list_is_global_counts(self):
        ds = dataset_from_matrix([[0], [1], [0], [1]], [0, 0, 1, 1])
        counts = fitted_counts([], ds)
        np.testing.assert_array_equal(counts, [[2, 2]])

    def test_unmatched_rule_row_is_zero(self):
        ds = dataset_from_matrix([[0], [0], [0]], [0, 1, 0], sizes=[2])
        counts = fitted_counts([Rule.of([Literal(0, 1)])], ds)
        np.testing.assert_array_equal(counts, [[0, 0], [2, 1]])

    def test_two_rule_list_matches_row_scan(self):
        X = [[0, 0], [0, 1], [1, 0], [1, 1], [0, 0], [1, 0]]
        Y = [0, 0, 1, 1, 1, 0]
        ds = dataset_from_matrix(X, Y)
        rules = [Rule.of([Literal(0, 0)]), Rule.of([Literal(1, 0)])]
        counts = fitted_counts(rules, ds)
        expected = np.zeros((3, 2), dtype=int)
        for i in range(ds.n):
            if ds.X[i, 0] == 0:
                clause = 0
            elif ds.X[i, 1] == 0:
                clause = 1
            else:
                clause = 2
            expected[clause, ds.Y[i]] += 1
        np.testing.assert_array_equal(counts, expected)
        assert counts.sum() == ds.n


def packing_case(n, seed, empty_label):
    """Three attributes, three labels (``empty_label`` on no row), and rules
    of one and two literals over them."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, [2, 3, 2], size=(n, 3))
    labels = [k for k in range(3) if k != empty_label]
    Y = rng.choice(labels, size=n)
    ds = dataset_from_matrix(X, Y, n_labels=3, sizes=[2, 3, 2])
    rules = all_single_literal_rules(ds) + [
        Rule.of([Literal(0, a), Literal(1, b)]) for a in range(2) for b in range(3)
    ]
    return ds, rules


def first_clause(rules, x):
    """Index of the first rule matching row ``x``; ``len(rules)`` for the default."""
    return next(
        (j for j, rule in enumerate(rules)
         if all(x[lit.attribute] == lit.category for lit in rule.literals)),
        len(rules),
    )


class TestPackedCapture:
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
        empty_label=st.sampled_from([None, 0, 1, 2]),
        size=st.integers(0, 13),
    )
    @example(n=1, seed=0, empty_label=None, size=13)
    @example(n=63, seed=1, empty_label=2, size=13)
    @example(n=64, seed=2, empty_label=None, size=13)
    @example(n=65, seed=3, empty_label=0, size=5)
    @example(n=128, seed=4, empty_label=1, size=13)
    @example(n=128, seed=5, empty_label=None, size=0)
    def test_capture_matches_row_recount(self, n, seed, empty_label, size):
        ds, rules = packing_case(n, seed, empty_label)
        assert size <= len(rules) == 13
        order = np.random.default_rng(seed).permutation(len(rules))
        state = tuple(int(i) for i in order[:size])
        counts = Evaluator(ds, rules, BrlConfig()).capture(state)
        chosen = [rules[i] for i in state]
        recount = np.zeros((size + 1, ds.n_labels), dtype=np.int64)
        for x, y in zip(ds.X, ds.Y):
            recount[first_clause(chosen, x), y] += 1
        np.testing.assert_array_equal(counts, recount)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 200])
    def test_boolean_and_packed_forms_capture_the_same_rows(self, n):
        ds, rules = packing_case(n, seed=n, empty_label=1)
        ev = Evaluator(ds, rules, BrlConfig())
        state = np.random.default_rng(n).permutation(len(rules))[:8]
        chosen = [rules[i] for i in state]
        dense = first_match([rule_mask(r, ds.X) for r in chosen], np.ones(n, dtype=bool))
        packed = first_match([ev.packed[i] for i in state], ev.label_rows)
        clause_of = np.array([first_clause(chosen, x) for x in ds.X])
        for j, (rows, words) in enumerate(zip(dense, packed)):
            np.testing.assert_array_equal(rows, clause_of == j)
            for k in range(ds.n_labels):
                label_rows = np.flatnonzero(ds.Y == k)
                bits = np.unpackbits(words[k].view(np.uint8), bitorder="little")
                np.testing.assert_array_equal(bits[:label_rows.size], rows[label_rows])
                assert not bits[label_rows.size:].any()


class TestLiteralBits:
    @pytest.mark.parametrize("never_seen", [False, True])
    @pytest.mark.parametrize(
        "n, empty_label", [(1, None), (63, 2), (64, None), (65, 0), (128, 1), (128, None)]
    )
    def test_unpacks_to_each_labels_literal_rows(self, n, empty_label, never_seen):
        ds, _ = packing_case(n, seed=n, empty_label=empty_label)
        if never_seen:
            ds = with_never_seen_category(ds, 1)
        bits = ds.literal_bits
        literals = flat_literals(ds)
        words = -(-int(ds.label_counts().max()) // 64)
        assert bits.shape == (ds.n_labels, len(literals), words)
        assert bits.dtype == np.uint64 and not bits.flags.writeable
        for k in range(ds.n_labels):
            rows = np.flatnonzero(ds.Y == k)
            for l, lit in enumerate(literals):
                unpacked = np.unpackbits(bits[k, l].view(np.uint8), bitorder="little")
                np.testing.assert_array_equal(
                    unpacked[:rows.size], ds.X[rows, lit.attribute] == lit.category
                )
                assert not unpacked[rows.size:].any()

    def test_fit_mine_and_evaluator_build_it_once(self, monkeypatch):
        built = []
        cached = CategoricalDataset.__dict__["literal_bits"]
        build = cached.func

        def counted(dataset):
            built.append(dataset)
            return build(dataset)

        monkeypatch.setattr(cached, "func", counted)
        ds = informative_dataset(np.random.default_rng(5))
        mined = mine(ds, fit(build_indicator(ds)), MinerConfig(s_min=0.1, mu_min=0.0))
        assert mined.rules
        Evaluator(ds, tuple(sr.rule for sr in mined.rules), BrlConfig())
        assert len(built) == 1 and built[0] is ds


class TestLogPosterior:
    def test_empty_list_likelihood_term(self):
        ds = dataset_from_matrix([[0], [0], [1], [1]], [0, 0, 0, 1])
        rules = all_single_literal_rules(ds)
        cfg = BrlConfig(alpha=1.0)
        ev = Evaluator(ds, rules, cfg)
        got = ev.log_likelihood(np.array([[3, 1]]))
        assert got == pytest.approx(math.log(1 / 20), abs=1e-12)
        assert ev.log_posterior(()) == pytest.approx(
            ev.log_prior(()) + math.log(1 / 20), abs=1e-12
        )

    def test_identical_capture_lists_share_posterior(self):
        # Columns 0 and 1 are identical, so the two rules capture the same
        # rows and the two orderings describe the same partition.
        X = np.array([[0, 0], [1, 1], [0, 0], [1, 1], [0, 0], [1, 1]])
        Y = np.array([0, 1, 0, 1, 0, 0])
        ds = dataset_from_matrix(X, Y)
        r1 = Rule.of([Literal(0, 0)])
        r2 = Rule.of([Literal(1, 0)])
        mined = [r1, r2]
        cfg = BrlConfig()
        a = log_posterior([r1, r2], ds, mined, cfg)
        b = log_posterior([r2, r1], ds, mined, cfg)
        assert a == pytest.approx(b, abs=1e-12)

    def test_prior_sums_to_one_over_state_space(self):
        rng = np.random.default_rng(3)
        ds = informative_dataset(rng, n=30)
        rules = all_single_literal_rules(ds)[:6]
        cfg = BrlConfig(max_list_length=2, lambda_=2.5, eta_card=1.5)
        ev = Evaluator(ds, rules, cfg)
        states = enumerate_states(len(rules), cap=2)
        total = sum(math.exp(ev.log_prior(s)) for s in states)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_unknown_rule_rejected(self):
        ds = dataset_from_matrix([[0], [1], [0], [1]], [0, 0, 1, 1])
        mined = [Rule.of([Literal(0, 0)])]
        stranger = Rule.of([Literal(0, 1)])
        with pytest.raises(ValueError):
            log_posterior([stranger], ds, mined, BrlConfig())

    def test_longer_than_cap_has_zero_prior(self):
        rng = np.random.default_rng(4)
        ds = informative_dataset(rng, n=30)
        rules = all_single_literal_rules(ds)[:4]
        ev = Evaluator(ds, rules, BrlConfig(max_list_length=1))
        assert ev.log_prior((0, 1)) == -math.inf


class TestBrlConfig:
    @pytest.mark.parametrize("cap", [0, -1])
    def test_list_length_cap_below_one_rejected(self, cap):
        # No move leaves the empty list when the cap is 0.
        with pytest.raises(ValueError, match="max_list_length"):
            BrlConfig(max_list_length=cap)

    def test_list_length_cap_of_one_trains(self):
        ds = informative_dataset(np.random.default_rng(6), n=30)
        cfg = BrlConfig(n_chains=1, max_iters=50, max_list_length=1)
        fitted, _ = train(ds, all_single_literal_rules(ds), cfg, n_workers=1)
        assert len(fitted) <= 1


class TestPropose:
    def test_empty_state_only_inserts(self):
        rng = np.random.default_rng(0)
        mined = list(range(5))
        for _ in range(50):
            candidate, _ = propose((), mined, rng)
            assert len(candidate) == 1

    def test_full_state_never_inserts(self):
        rng = np.random.default_rng(1)
        mined = list(range(3))
        state = (0, 1, 2)
        for _ in range(100):
            candidate, _ = propose(state, mined, rng)
            assert len(candidate) in (2, 3)
            assert set(candidate) <= {0, 1, 2}

    def test_no_valid_move(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            propose((), [], rng)

    def test_cap_blocks_growth(self):
        rng = np.random.default_rng(3)
        mined = list(range(6))
        state = (0, 1)
        for _ in range(100):
            candidate, _ = propose(state, mined, rng, max_list_length=2)
            assert len(candidate) <= 2

    def test_frequencies_and_ratios_match_analytic_q(self):
        rng = np.random.default_rng(10)
        n_rules, cap = 4, 3
        for state in [(), (2,), (0, 3), (1, 0, 2)]:
            draws = 40_000
            seen = Counter()
            ratios = {}
            for _ in range(draws):
                candidate, log_ratio = propose(state, list(range(n_rules)), rng, cap)
                seen[candidate] += 1
                ratios[candidate] = log_ratio
            for candidate, count in seen.items():
                q_fwd = analytic_proposal_prob(state, candidate, n_rules, cap)
                q_rev = analytic_proposal_prob(candidate, state, n_rules, cap)
                assert q_fwd > 0
                assert count / draws == pytest.approx(q_fwd, abs=0.012)
                assert ratios[candidate] == pytest.approx(
                    math.log(q_rev) - math.log(q_fwd), abs=1e-12
                )

    def test_draw_stream_is_pinned(self):
        # 200 proposals recorded from the set-difference implementation: two
        # walks that always move, one uncapped over 12 rules, one capped at
        # 3 over 7. The candidate and the ratio at every step must repeat.
        pins = json.loads((Path(__file__).parent / "propose_pins.json").read_text())
        got = []
        for seed, n_rules, cap in ((20, 12, None), (21, 7, 3)):
            rng = np.random.default_rng(seed)
            state = ()
            for _ in range(100):
                state, log_ratio = propose(state, list(range(n_rules)), rng, cap)
                got.append([list(state), log_ratio])
        assert got == pins


def exhaustible_case(n, seed, empty_label):
    """``packing_case`` plus its only three-literal rule, so a cardinality
    can run out: 7 rules of one literal, 6 of two and 1 of three."""
    ds, rules = packing_case(n, seed, empty_label)
    return ds, rules + [Rule.of([Literal(0, 1), Literal(1, 2), Literal(2, 0)])]


class TestExactSums:
    def test_log_prior_bits_are_pinned(self):
        # 201 states of exhaustible_case under three priors, recorded from the
        # per-cardinality-table implementation as float.hex. They include
        # lists holding the only three-literal rule, lists that use up every
        # one- or two-literal rule, and lists longer than the cap (-inf).
        groups = json.loads((Path(__file__).parent / "prior_pins.json").read_text())
        ds, rules = exhaustible_case(30, 0, None)
        for group in groups:
            pins = group.pop("pins")
            ev = Evaluator(ds, rules, BrlConfig(**group))
            got = [[state, float.hex(ev.log_prior(tuple(state)))] for state, _ in pins]
            assert got == pins

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 150),
        seed=st.integers(0, 2**32 - 1),
        empty_label=st.sampled_from([None, 0, 2]),
        cap=st.sampled_from([None, 1, 2, 4, 9]),
        alpha=st.sampled_from([0.5, 1.0, 2.5]),
    )
    @example(n=64, seed=0, empty_label=None, cap=None, alpha=1.0)
    def test_carried_value_is_the_full_recompute(self, n, seed, empty_label, cap, alpha):
        ds, rules = exhaustible_case(n, seed, empty_label)
        ev = Evaluator(ds, rules, BrlConfig(max_list_length=cap, alpha=alpha))
        current = _Prefix(ev, ())
        rng = np.random.default_rng(seed)
        moves = Counter()
        for _ in range(120):
            # Half the proposals ignore the cap, so that the -inf of an
            # over-long list is carried too.
            bound = cap if rng.random() < 0.5 else None
            candidate, _ = propose(current.state, rules, rng, bound)
            moves[len(candidate) - len(current.state)] += 1
            value, move = current.score(candidate)
            assert value == ev.log_posterior(candidate)
            if value > -math.inf and rng.random() < 0.6:
                current.accept(move)
                assert (current.state, current.log_post) == (candidate, value)
        if cap != 1:
            assert moves[1] and moves[-1] and moves[0]

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 10),
        lambda_=st.sampled_from([0.5, 3.0, 8.0]),
        eta=st.sampled_from([0.3, 1.0, 2.0]),
    )
    def test_prior_ignores_order_while_no_cardinality_runs_out(
        self, seed, size, lambda_, eta
    ):
        ds, rules = packing_case(20, seed, None)
        ev = Evaluator(ds, rules, BrlConfig(lambda_=lambda_, eta_card=eta))
        rng = np.random.default_rng(seed)
        # At most 6 one-literal and 5 two-literal rules: each leaves one in stock.
        ones = [i for i, r in enumerate(rules) if len(r) == 1]
        twos = [i for i, r in enumerate(rules) if len(r) == 2]
        k = int(rng.integers(max(0, size - 5), min(size, 6) + 1))
        state = [int(i) for i in rng.choice(ones, size=k, replace=False)]
        state += [int(i) for i in rng.choice(twos, size=size - k, replace=False)]
        value = ev.log_prior(tuple(state))
        for _ in range(5):
            assert ev.log_prior(tuple(int(i) for i in rng.permutation(state))) == value

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 150),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 14),
        cap=st.sampled_from([None, 3, 14]),
        alpha=st.sampled_from([0.5, 1.0, 2.5]),
        lambda_=st.sampled_from([0.5, 3.0]),
    )
    def test_close_to_the_term_by_term_sum(self, n, seed, size, cap, alpha, lambda_):
        ds, rules = exhaustible_case(n, seed, None)
        cfg = BrlConfig(max_list_length=cap, alpha=alpha, lambda_=lambda_)
        state = tuple(int(i) for i in np.random.default_rng(seed).permutation(14)[:size])
        got = Evaluator(ds, rules, cfg).log_posterior(state)
        want = reference_log_posterior(ds, rules, cfg, state)
        if want == -math.inf:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0)


class TestDetailedBalance:
    def test_flow_balance_over_tiny_space(self):
        rng = np.random.default_rng(8)
        ds = informative_dataset(rng, n=40)
        rules = all_single_literal_rules(ds)[:4]
        cap = 2
        cfg = BrlConfig(max_list_length=cap)
        ev = Evaluator(ds, rules, cfg)
        states = enumerate_states(len(rules), cap)
        pi = dict(zip(states, exact_posterior(ev, states)))
        for s in states:
            for t in states:
                q_st = analytic_proposal_prob(s, t, len(rules), cap)
                if q_st == 0:
                    continue
                q_ts = analytic_proposal_prob(t, s, len(rules), cap)
                flow = pi[s] * q_st * min(1.0, (pi[t] * q_ts) / (pi[s] * q_st))
                back = pi[t] * q_ts * min(1.0, (pi[s] * q_st) / (pi[t] * q_ts))
                assert flow == pytest.approx(back, rel=1e-10)

    def test_acceptance_ratio_pair_identity(self):
        # A(s->t)/A(t->s) must equal the posterior-times-proposal ratio.
        rng = np.random.default_rng(9)
        ds = informative_dataset(rng, n=40)
        rules = all_single_literal_rules(ds)[:4]
        cap = 2
        ev = Evaluator(ds, rules, BrlConfig(max_list_length=cap))
        states = enumerate_states(len(rules), cap)
        for s in states[::3]:
            for t in states[::2]:
                q_st = analytic_proposal_prob(s, t, len(rules), cap)
                if q_st == 0:
                    continue
                q_ts = analytic_proposal_prob(t, s, len(rules), cap)
                x = math.exp(ev.log_posterior(t) - ev.log_posterior(s)) * (q_ts / q_st)
                a_fwd = min(1.0, x)
                a_rev = min(1.0, 1.0 / x)
                assert a_fwd / a_rev == pytest.approx(x, rel=1e-10)


class TestRunChain:
    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(12)
        ds = informative_dataset(rng, n=40)
        rules = all_single_literal_rules(ds)
        cfg = BrlConfig(max_iters=500, max_list_length=3)
        trace, states, accepted = run_chain(ds, rules, cfg, chain_seed=7)
        again = run_chain(ds, rules, cfg, chain_seed=7)
        np.testing.assert_array_equal(trace, again[0])
        assert states == again[1]
        assert accepted == again[2]

    def test_states_respect_cap_and_thinning(self):
        rng = np.random.default_rng(13)
        ds = informative_dataset(rng, n=40)
        rules = all_single_literal_rules(ds)
        cfg = BrlConfig(max_iters=400, max_list_length=2)
        trace, states, _ = run_chain(ds, rules, cfg, chain_seed=1)
        assert len(trace) == 400
        assert len(states) == 40
        ev = Evaluator(ds, rules, cfg)
        for iteration, state in states:
            assert iteration % 10 == 0
            assert len(state) <= 2
            assert len(set(state)) == len(state)
            assert trace[iteration - 1] == ev.log_posterior(state)

    def test_empirical_frequencies_match_enumerated_posterior(self):
        rng = np.random.default_rng(14)
        ds = informative_dataset(rng, n=50)
        rules = all_single_literal_rules(ds)[:4]
        cap = 2
        cfg = BrlConfig(max_iters=30_000, max_list_length=cap)
        ev = Evaluator(ds, rules, cfg)
        states = enumerate_states(len(rules), cap)
        pi = dict(zip(states, exact_posterior(ev, states)))
        counts = Counter()
        for seed in (0, 1):
            _, samples, _ = run_chain(ds, rules, cfg, chain_seed=seed)
            for iteration, state in samples:
                if iteration > cfg.max_iters // 2:
                    counts[state] += 1
        total = sum(counts.values())
        tv = 0.5 * sum(
            abs(counts.get(s, 0) / total - pi[s]) for s in states
        )
        assert tv < 0.1


class TestGelmanRubin:
    def test_identical_chains(self):
        trace = np.sin(np.arange(100.0))
        rhat = gelman_rubin([trace, trace.copy()])
        n = 50
        assert rhat == pytest.approx(math.sqrt((n - 1) / n))
        assert rhat <= 1.0

    def test_disjoint_chains_diverge(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, size=2000)
        b = rng.normal(80.0, 1.0, size=2000)
        assert gelman_rubin([a, b]) > 5

    def test_constant_equal_chains_return_one(self):
        a = np.ones(100)
        assert gelman_rubin([a, a.copy()]) == 1.0

    def test_iid_chains_converge(self):
        rng = np.random.default_rng(1)
        chains = [rng.normal(size=10_000) for _ in range(4)]
        assert gelman_rubin(chains) < 1.05

    def test_validations(self):
        with pytest.raises(ValueError):
            gelman_rubin([np.ones(10)])
        with pytest.raises(ValueError):
            gelman_rubin([np.ones(10), np.ones(9)])
        with pytest.raises(ValueError):
            gelman_rubin([np.ones(3), np.ones(3)])


@st.composite
def coded_rule_lists(draw):
    """A random dataset, unlabeled rows over the same schemas, and a rule list."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    n_labels = draw(st.integers(2, 3))

    def matrix():
        row = st.tuples(*(st.integers(0, s - 1) for s in sizes))
        return np.array(draw(st.lists(row, min_size=1, max_size=30)))

    X = matrix()
    Y = np.array(draw(st.lists(st.integers(0, n_labels - 1), min_size=len(X), max_size=len(X))))
    ds = dataset_from_matrix(X, Y, n_labels=n_labels, sizes=sizes)
    literal = st.integers(0, len(sizes) - 1).flatmap(
        lambda a: st.builds(Literal, st.just(a), st.integers(0, sizes[a] - 1))
    )
    rule = st.lists(
        literal, min_size=1, max_size=len(sizes), unique_by=lambda lit: lit.attribute
    ).map(Rule.of)
    rules = draw(st.lists(rule, max_size=5, unique=True))
    alpha = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.5]),
                                   min_size=n_labels, max_size=n_labels)))
    return ds, FeatureTable(schemas=ds.schemas, X=matrix()), tuple(rules), alpha


class TestFirstMatchAgreement:
    @settings(max_examples=60, deadline=None)
    @given(coded_rule_lists())
    def test_batch_artifact_and_row_oracle_agree(self, case):
        ds, table, rules, alpha = case
        counts = fitted_counts(rules, ds)
        recount = np.zeros((len(rules) + 1, ds.n_labels), dtype=np.int64)
        for x, y in zip(ds.X, ds.Y):
            recount[first_clause(rules, x), y] += 1
        np.testing.assert_array_equal(counts, recount)

        rule_list = RuleList(rules=rules, capture_counts=counts, alpha=alpha)
        diagnostics = TrainDiagnostics(
            converged=True, rhat_history=(), iterations=1, acceptance_rate=0.0,
            n_chains=1, best_chain=0, best_iteration=1, best_log_posterior=0.0,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            write_model(path, rule_list, diagnostics, ds, BrlConfig())
            artifact = read_model(path)
        # The same rows with columns and each column's categories in reverse
        # order: the artifact binds by name, so its predictions must not move.
        shuffled = FeatureTable(
            schemas=tuple(
                AttributeSchema(name=s.name, categories=s.categories[::-1])
                for s in table.schemas[::-1]
            ),
            X=(np.array([s.n_categories - 1 for s in table.schemas]) - table.X)[:, ::-1],
        )
        for X, rows in ((ds.X, ds), (table.X, table), (table.X, shuffled)):
            batch = predict_proba_batch(rule_list, X)
            oracle = np.array([predict_proba(rule_list, x) for x in X])
            np.testing.assert_array_equal(batch, oracle)
            np.testing.assert_array_equal(artifact.predict_proba(rows), oracle)


class TestTrain:
    def test_single_rule_two_state_enumeration(self):
        X = np.array([[0]] * 10 + [[1]] * 10)
        Y = np.array([0] * 10 + [1] * 10)
        ds = dataset_from_matrix(X, Y)
        rule = Rule.of([Literal(0, 0)])
        cfg = BrlConfig(
            n_chains=2, max_iters=2000, check_interval=500, seed=3,
            max_list_length=1,
        )
        fitted, diag = train(ds, [rule], cfg, n_workers=1)
        ev = Evaluator(ds, [rule], cfg)
        better = max([(), (0,)], key=ev.log_posterior)
        expected = tuple([rule][i] for i in better)
        assert fitted.rules == expected
        assert fitted.capture_counts.sum() == ds.n

    def test_infinite_threshold_stops_at_first_check(self):
        rng = np.random.default_rng(20)
        ds = informative_dataset(rng, n=40)
        rules = all_single_literal_rules(ds)
        cfg = BrlConfig(
            n_chains=2, max_iters=10_000, check_interval=100,
            rhat_threshold=math.inf, seed=0,
        )
        _, diag = train(ds, rules, cfg, n_workers=1)
        assert diag.iterations == 100
        assert diag.converged

    def test_single_chain_runs_to_max_iters(self):
        rng = np.random.default_rng(21)
        ds = informative_dataset(rng, n=30)
        rules = all_single_literal_rules(ds)
        cfg = BrlConfig(n_chains=1, max_iters=600, check_interval=200, seed=1)
        _, diag = train(ds, rules, cfg, n_workers=1)
        assert diag.iterations == 600
        assert diag.rhat_history == ()
        assert not diag.converged

    @pytest.mark.parametrize("n_chains", [2, 3])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_too_short_for_a_sample_picks_the_best_final_state(self, n_chains, n_workers):
        # Under THIN iterations no state is thinned, so the pick falls back to
        # the chains' final states, keyed as the samples are.
        rng = np.random.default_rng(23)
        ds = informative_dataset(rng, n=40)
        rules = all_single_literal_rules(ds)
        cfg = BrlConfig(n_chains=n_chains, max_iters=5, seed=7)
        ev = Evaluator(ds, rules, cfg)
        finals = []
        for c in range(n_chains):
            snapshot, trace, states, _ = _advance(ev, _fresh_chain(cfg.seed + c), 5)
            assert states == []
            finals.append(((trace[-1], -snapshot.iteration, -c), snapshot.indices))
        (lp, neg_iteration, neg_chain), state = max(finals)
        fitted, diag = train(ds, rules, cfg, n_workers=n_workers)
        assert fitted.rules == tuple(rules[i] for i in state)
        np.testing.assert_array_equal(fitted.capture_counts, ev.capture(state))
        assert (diag.best_chain, diag.best_iteration) == (-neg_chain, -neg_iteration)
        assert diag.best_iteration == diag.iterations == 5
        assert diag.best_log_posterior == lp

    def test_worker_count_does_not_change_result(self):
        rng = np.random.default_rng(22)
        ds = informative_dataset(rng, n=40)
        rules = all_single_literal_rules(ds)
        cfg = BrlConfig(
            n_chains=2, max_iters=1000, check_interval=250, seed=5,
            max_list_length=3,
        )
        fit1, diag1 = train(ds, rules, cfg, n_workers=1)
        fit2, diag2 = train(ds, rules, cfg, n_workers=2)
        assert fit1.rules == fit2.rules
        np.testing.assert_array_equal(fit1.capture_counts, fit2.capture_counts)
        assert diag1 == diag2

    @pytest.mark.parametrize("n_workers", [0, -3])
    def test_worker_count_below_one_rejected(self, n_workers, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(brl, "ProcessPoolExecutor", no_pool)
        ds = informative_dataset(np.random.default_rng(24), n=30)
        cfg = BrlConfig(n_chains=2, max_iters=50)
        with pytest.raises(ValueError, match="n_workers must be at least 1"):
            train(ds, all_single_literal_rules(ds), cfg, n_workers=n_workers)


class TestPrediction:
    def list_with_counts(self, counts, rules=()):
        return RuleList(
            rules=tuple(rules),
            capture_counts=np.asarray(counts),
            alpha=np.array([1.0, 1.0]),
        )

    def test_empty_list_emits_smoothed_global_frequencies(self):
        rl = self.list_with_counts([[6, 2]])
        np.testing.assert_allclose(predict_proba(rl, [0]), [0.7, 0.3])

    def test_clause_probability_arithmetic(self):
        rl = self.list_with_counts(
            [[9, 1], [1, 4]], rules=[Rule.of([Literal(0, 0)])]
        )
        np.testing.assert_allclose(
            predict_proba(rl, [0]), [10 / 12, 2 / 12]
        )
        np.testing.assert_allclose(predict_proba(rl, [1]), [2 / 7, 5 / 7])

    def test_rows_after_first_match_are_irrelevant(self):
        base = [[8, 0], [0, 8], [1, 1]]
        r0 = Rule.of([Literal(0, 0)])
        a = self.list_with_counts(base, rules=[r0, Rule.of([Literal(1, 0)])])
        b = self.list_with_counts(base, rules=[r0, Rule.of([Literal(1, 1)])])
        sample = [0, 0]
        np.testing.assert_allclose(predict_proba(a, sample), predict_proba(b, sample))

    def test_batch_matches_single_and_sums_to_one(self):
        rng = np.random.default_rng(30)
        ds = informative_dataset(rng, n=60)
        rules = all_single_literal_rules(ds)
        cfg = BrlConfig(n_chains=2, max_iters=800, check_interval=200, seed=2)
        fitted, _ = train(ds, rules, cfg, n_workers=1)
        X = rng.integers(0, 2, size=(1000, ds.p))
        batch = predict_proba_batch(fitted, X)
        np.testing.assert_allclose(batch.sum(axis=1), np.ones(1000), atol=1e-12)
        for i in range(0, 1000, 97):
            np.testing.assert_allclose(batch[i], predict_proba(fitted, X[i]))


class TestRender:
    def test_structure_and_probabilities(self):
        ds = dataset_from_matrix(
            [[0, 0], [0, 1], [1, 0], [1, 1]], [0, 0, 1, 1]
        )
        rules = (
            Rule.of([Literal(0, 0)]),
            Rule.of([Literal(0, 1), Literal(1, 0)]),
        )
        rl = RuleList(
            rules=rules,
            capture_counts=fitted_counts(rules, ds),
            alpha=np.array([1.0, 1.0]),
        )
        text = render_rule_list(rl, ds.schemas, ds.label_names)
        lines = text.splitlines()
        assert lines[0].startswith("if a0 is c0 then ")
        assert lines[1].startswith("else if a0 is c1 and a1 is c0 then ")
        assert lines[2].startswith("else ")
        assert "(P = " in lines[0]

    def test_empty_list_renders_default_only(self):
        ds = dataset_from_matrix([[0], [1]], [0, 1])
        rl = RuleList(
            rules=(),
            capture_counts=fitted_counts((), ds),
            alpha=np.array([1.0, 1.0]),
        )
        text = render_rule_list(rl, ds.schemas, ds.label_names)
        assert text.startswith("always ")
