"""Helpers that only the tests use: literals in flat order, literal masks and
text, a never-seen category, CSV writing, a rule's support and score, the
textbook Apriori miner, the full-rank scores from the dense Burt matrix, a
whole sampler chain, the sampler's log-posterior of a rule list, exact
and term by term, and the row-by-row predictions of a saved model."""

import csv
import math
from collections import Counter

import numpy as np
from scipy.special import gammaln, logsumexp

from mcarules.artifacts import csv_text, read_model
from mcarules.brl import Evaluator, RuleList, _advance, _fresh_chain
from mcarules.dataset import AttributeSchema, CategoricalDataset, Literal, load_feature_csv
from mcarules.mca import NORM_TOL, build_indicator
from mcarules.miner import Rule, ScoredRule, rank, rule_mask, union_of


def flat_literals(dataset):
    """Every literal of the dataset, in flat literal order."""
    return [
        Literal(j, c)
        for j, schema in enumerate(dataset.schemas)
        for c in range(schema.n_categories)
    ]


def literal_mask(dataset, literal):
    """Boolean row mask where the literal holds."""
    return dataset.X[:, literal.attribute] == literal.category


def describe_literal(dataset, literal) -> str:
    schema = dataset.schemas[literal.attribute]
    return f"{schema.name} is {schema.categories[literal.category]}"


def with_never_seen_category(ds, j):
    """The dataset with one more category, taken by no row, on attribute ``j``."""
    schemas = list(ds.schemas)
    schemas[j] = AttributeSchema(name=schemas[j].name, categories=schemas[j].categories + ("never",))
    return CategoricalDataset(schemas=tuple(schemas), X=ds.X, Y=ds.Y, label_names=ds.label_names)


def write_dataset_csv(dataset, path) -> None:
    """Write a dataset out as labelled CSV (category labels, not indices)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([s.name for s in dataset.schemas] + [dataset.label_name])
        for i in range(dataset.n):
            row = [dataset.schemas[j].categories[dataset.X[i, j]] for j in range(dataset.p)]
            row.append(dataset.label_names[dataset.Y[i]])
            writer.writerow(row)


def support(rule, dataset, label) -> float:
    """Fraction of class-``label`` rows on which the rule is true."""
    class_mask = dataset.Y == label
    total = int(class_mask.sum())
    if total == 0:
        raise ValueError(f"label class {label} has no samples; support undefined")
    hits = int(np.count_nonzero(rule_mask(rule, dataset.X) & class_mask))
    return hits / total


def rule_score(rule, table, label) -> float:
    """Mean literal-label score over the rule's literals, in canonical order."""
    return sum(table.score(lit, label) for lit in rule.literals) / len(rule)


def textbook_apriori(dataset, s_min, r_max):
    """Textbook Apriori with ``apriori_mine``'s contract: the equivalence oracle.

    Rows become transactions of literal ids (one per attribute); frequent
    itemsets grow level by level by an F(k-1) x F(k-1) join with
    downward-closure pruning and a full transaction scan per level. It has
    no budget, so it is the oracle for runs that complete.
    """
    if s_min <= 0:
        raise ValueError("s_min must be positive")
    if r_max < 1:
        raise ValueError("r_max must be at least 1")

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
    singles = [(flat,) for flat in sorted(literal_of)]
    counts = count_candidates(singles)
    level = {c: v for c, v in counts.items() if is_frequent(v)}
    frequent.update(level)
    for size in range(2, r_max + 1):
        if not level:
            break
        candidates = _join_level(sorted(level), level)
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
    return union_of([rank(b) for b in buckets])


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


def centred_burt(dataset):
    """K = n·ZᵀZ − f fᵀ of the dataset's dense one-hot indicator Z, in integers."""
    Z = build_indicator(dataset).matrix
    counts = Z.sum(axis=0).astype(np.int64)
    return Z.shape[0] * (Z.T @ Z).astype(np.int64) - np.outer(counts, counts)


def burt_scores(dataset):
    """Full-rank literal-label scores read from the whole centred Burt matrix.

    The block ``K[:n_literals, n_literals:]`` over the outer product of the
    norms ``sqrt(diag(K))``, a norm below ``NORM_TOL`` being NaN, clipped to
    [-1, 1].
    """
    K = centred_burt(dataset)
    J = int(dataset.literal_offsets[-1])
    norms = np.sqrt(np.diag(K))
    norms = np.where(norms < NORM_TOL, np.nan, norms)
    return np.clip(K[:J, J:] / np.outer(norms[:J], norms[J:]), -1.0, 1.0)


def run_chain(dataset, mined_rules, config, chain_seed):
    """One chain of ``config.max_iters`` steps.

    Returns its unthinned log-posterior trace, its thinned
    ``(iteration, state)`` pairs and its count of accepted moves.
    """
    evaluator = Evaluator(dataset, mined_rules, config)
    chain = _fresh_chain(chain_seed)
    _, trace, states, accepted = _advance(evaluator, chain, config.max_iters)
    return trace, tuple((iteration, state) for iteration, state, _ in states), accepted


def log_posterior(rule_list, dataset, mined_rules, config) -> float:
    """Log posterior (up to a constant) of a rule list over the mined set."""
    rules = tuple(rule_list.rules) if isinstance(rule_list, RuleList) else tuple(rule_list)
    evaluator = Evaluator(dataset, mined_rules, config)
    index_of = {rule: i for i, rule in enumerate(evaluator.rules)}
    try:
        indices = tuple(index_of[r] for r in rules)
    except KeyError as missing:
        raise ValueError(f"rule {missing.args[0]!r} is not in the mined set") from None
    if len(set(indices)) != len(indices):
        raise ValueError("rule list repeats a rule")
    return evaluator.log_posterior(indices)


def reference_log_posterior(dataset, mined_rules, config, indices) -> float:
    """The log-posterior of a state, each sum taken term by term in list order.

    This is the sampler's formula before its sums were made exact, computed
    from the rows and rules alone.
    """
    n_rules = len(mined_rules)
    max_len = n_rules if config.max_list_length is None else min(
        n_rules, config.max_list_length)
    m = len(indices)
    if m > max_len:
        return -math.inf
    lengths = np.arange(max_len + 1)
    log_pois = lengths * math.log(config.lambda_) - gammaln(lengths + 1)
    total = log_pois[m] - logsumexp(log_pois)
    cards = [len(rule) for rule in mined_rules]
    in_stock = Counter(cards)
    weight = {c: c * math.log(config.eta_card) - math.lgamma(c + 1) for c in in_stock}
    for i in indices:
        card = cards[i]
        z = logsumexp([weight[c] for c, left in in_stock.items() if left > 0])
        total += weight[card] - z
        total -= math.log(in_stock[card])
        in_stock[card] -= 1

    alpha = np.full(dataset.n_labels, float(config.alpha))
    remaining = np.ones(dataset.n, dtype=bool)
    counts = []
    for i in indices:
        hit = rule_mask(mined_rules[i], dataset.X) & remaining
        counts.append(np.bincount(dataset.Y[hit], minlength=dataset.n_labels))
        remaining &= ~hit
    counts.append(np.bincount(dataset.Y[remaining], minlength=dataset.n_labels))
    smoothed = np.array(counts) + alpha
    per_clause = gammaln(smoothed).sum(axis=1) - gammaln(smoothed.sum(axis=1))
    log_beta = np.sum(gammaln(alpha)) - gammaln(alpha.sum())
    return float(total + per_clause.sum() - len(counts) * log_beta)


def rowwise_predictions(model_path, csv_path, numeric_bins=None, missing_as_category=False,
                        label=None) -> str:
    """The text of ``mcarules predict``, computed as before it read only the model's columns.

    The predict oracle: every column but the label is loaded and coded by
    first occurrence, the model's literals are bound to that table by name,
    and each row is rendered on its own, its probabilities as floats.
    """
    artifact = read_model(model_path)
    ignore = {artifact.label_name} | ({label} if label else set())
    table = load_feature_csv(csv_path, numeric_bins, missing_as_category,
                             ignore_columns=tuple(sorted(ignore)))
    probs = artifact.predict_proba(table)
    names = artifact.label_names
    rows = [[names[k], *row] for k, row in zip(np.argmax(probs, axis=1).tolist(), probs.tolist())]
    return csv_text(["prediction"] + [f"p_{name}" for name in names], rows)
