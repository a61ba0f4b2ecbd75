"""Rule mining by literal extension, scored with correspondence-analysis cosines.

Candidate rules grow one literal at a time, per label. Two prunes keep the
search tractable: a per-label support floor (support is monotone under
extension, so failing rules are never extended) and a score bound that
discards rules no extension of which can reach the working score floor. The
floor itself rises as better rules fill the per-label pool, tightening both
prunes as mining progresses.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .dataset import CategoricalDataset, Literal
from .mca import McaModel, score_table


@dataclass(frozen=True, order=True)
class Rule:
    """A conjunction of literals, at most one per attribute, canonically sorted."""

    literals: tuple[Literal, ...]

    def __post_init__(self):
        if len(self.literals) < 1:
            raise ValueError("a rule needs at least one literal")
        if list(self.literals) != sorted(self.literals):
            raise ValueError("literals must be in canonical (attribute, category) order")
        attrs = [lit.attribute for lit in self.literals]
        if len(set(attrs)) != len(attrs):
            raise ValueError("two literals on one attribute are jointly unsatisfiable")

    @classmethod
    def of(cls, literals) -> "Rule":
        return cls(literals=tuple(sorted(literals)))

    def __len__(self) -> int:
        return len(self.literals)

    def extended(self, literal: Literal) -> "Rule":
        return Rule.of(self.literals + (literal,))

    def describe(self, schemas) -> str:
        """The conjunction as text, naming attributes and categories from ``schemas``."""
        return " and ".join(
            f"{schemas[lit.attribute].name} is "
            f"{schemas[lit.attribute].categories[lit.category]}"
            for lit in self.literals
        )


@dataclass(frozen=True)
class ScoredRule:
    rule: Rule
    label: int
    score: float
    support: float


@dataclass(frozen=True)
class MinerConfig:
    """Search floors and caps.

    ``signed`` keeps scores as printed: literals negatively correlated with a
    label never qualify for that label (the score floor is positive). Setting
    it to False scores literals by cosine magnitude instead.
    """

    r_max: int = 2
    s_min: float = 0.3
    mu_min: float = 0.5
    M: int = 70
    signed: bool = True

    def __post_init__(self):
        if self.r_max < 1:
            raise ValueError("r_max must be at least 1")
        if self.s_min <= 0:
            raise ValueError("s_min must be positive")
        if self.M < 1:
            raise ValueError("M must be at least 1")


@dataclass(frozen=True)
class MiningResult:
    """Union of the per-label ranked rules.

    ``status`` is "ok", "empty" when nothing passed, or "budget_exceeded"
    when a budgeted miner stopped early with the rules found so far.
    """

    rules: tuple[ScoredRule, ...]
    per_label: tuple[tuple[ScoredRule, ...], ...]
    status: str

    def __len__(self) -> int:
        return len(self.rules)


def rank(scored) -> tuple[ScoredRule, ...]:
    """One label's rules, best first: higher score, then fewer literals, then literal order."""
    return tuple(sorted(scored, key=lambda s: (-s.score, len(s.rule), s.rule.literals)))


def union_of(per_label, status: str | None = None) -> MiningResult:
    """Deduplicate ranked per-label rules into one ranked union.

    A rule kept for several labels appears once, under its best
    ``(score, -label)``; ties in the union fall back to the label index.
    ``status`` defaults to "ok", or "empty" when no rule survived.
    """
    best: dict[Rule, ScoredRule] = {}
    for ranked in per_label:
        for sr in ranked:
            kept = best.get(sr.rule)
            if kept is None or (sr.score, -sr.label) > (kept.score, -kept.label):
                best[sr.rule] = sr
    union = tuple(
        sorted(best.values(), key=lambda s: (-s.score, len(s.rule), s.rule.literals, s.label))
    )
    if status is None:
        status = "ok" if union else "empty"
    return MiningResult(
        rules=union, per_label=tuple(tuple(r) for r in per_label), status=status
    )


def rule_mask(literals, X: np.ndarray) -> np.ndarray:
    """Boolean row mask where every one of a non-empty sequence of literals holds."""
    mask = X[:, literals[0].attribute] == literals[0].category
    for lit in literals[1:]:
        mask = mask & (X[:, lit.attribute] == lit.category)
    return mask


def score_bound(current_len: int, mu_min: float, rho_bar_k: float) -> float:
    """Smallest rule score from which some extension can still reach ``mu_min``.

    The best extension appends the strongest available literal, so a rule
    scoring below this bound cannot produce an acceptable child.
    """
    if current_len < 1:
        raise ValueError("score_bound needs a rule of length at least 1")
    return ((current_len + 1) * mu_min - rho_bar_k) / current_len


def mine(
    dataset: CategoricalDataset,
    model: McaModel,
    config: MinerConfig,
    n_workers: int | None = None,
) -> MiningResult:
    """Mine the top-M rules per label, returning their deduplicated union.

    Labels are mined one after another. Each frontier rule is extended by
    every free literal at once: one array pass scores all children,
    supports are counted, as popcounts of the dataset's ``literal_bits``,
    only for children at or above the working score floor, and rule objects
    are built only for children that pass both floors. A score is the mean
    of the literal scores, added left to right in canonical literal order,
    and a support is the rule's hits over its label's row count, so every
    rule comes out bit-identical however it was reached.

    ``n_workers`` has no effect. The per-label search is interpreter-bound,
    so label threads would only contend for the interpreter lock; the
    keyword is accepted only because the benchmark harness still passes it.
    """
    table = score_table(model, dataset)
    scores = table.scores if config.signed else np.abs(table.scores)
    rho_bar = np.fmax.reduce(scores, axis=0, initial=np.nan)

    attribute_of = np.repeat(np.arange(dataset.p), np.diff(dataset.literal_offsets))
    class_counts = dataset.label_counts()
    literal_bits = dataset.literal_bits

    def mine_label(k: int) -> tuple[ScoredRule, ...]:
        if class_counts[k] == 0 or np.isnan(rho_bar[k]):
            return ()
        return _mine_one_label(
            table, scores[:, k], float(rho_bar[k]), config, k, attribute_of,
            literal_bits[k], int(class_counts[k]),
        )

    return union_of([mine_label(k) for k in range(dataset.n_labels)])


def _mine_one_label(
    table, scores_k, rho_bar_k, config, k, attribute_of, class_bits, class_count
):
    """Seed, extend, prune, and rank rules for one label."""
    lit_class_counts = np.bitwise_count(class_bits).sum(axis=1, dtype=np.int64)
    defined = np.flatnonzero(~np.isnan(scores_k))
    defined_scores = scores_k[defined]
    defined_attrs = attribute_of[defined]
    used = np.zeros(int(table.offsets.size), dtype=bool)

    def literals(flats):
        """The literals numbered ``flats``, lazily, in order."""
        attrs = attribute_of[flats]
        return map(Literal, attrs.tolist(), (flats - table.offsets[attrs]).tolist())

    pool: dict[Rule, ScoredRule] = {}
    top_scores: list[float] = []  # min-heap of the best M scores seen

    def add(rule, score, supp):
        pool[rule] = ScoredRule(rule=rule, label=k, score=score, support=supp)
        if len(top_scores) < config.M:
            heapq.heappush(top_scores, score)
        else:
            heapq.heappushpop(top_scores, score)

    supports = lit_class_counts[defined] / class_count
    seeds = (defined_scores >= config.mu_min) & (supports >= config.s_min)
    for literal, score, supp in zip(
        literals(defined[seeds]), defined_scores[seeds].tolist(), supports[seeds]
    ):
        add(Rule.of([literal]), score, supp)

    for length in range(1, config.r_max):
        frontier = sorted(
            (r for r in pool if len(r) == length), key=lambda r: r.literals
        )
        for rule in frontier:
            working_mu = config.mu_min
            if len(top_scores) == config.M:
                working_mu = max(working_mu, top_scores[0])
            if pool[rule].score < score_bound(length, working_mu, rho_bar_k):
                continue
            parent = np.array([table.flat_index(lit) for lit in rule.literals])
            parent_scores = scores_k[parent]
            used[:] = False
            used[[lit.attribute for lit in rule.literals]] = True
            free = ~used[defined_attrs]
            cand = defined[free]
            # A child's score sums its literal scores left to right in
            # canonical order: the parent's scores before the candidate's
            # slot, the candidate, then the parent's rest.
            slot = np.searchsorted(parent, cand)
            prefix = np.fromiter(accumulate(parent_scores.tolist(), initial=0.0), float)
            acc = prefix[slot] + defined_scores[free]
            for i in range(length):
                acc[slot <= i] += parent_scores[i]
            child_scores = acc / (length + 1)
            passing = child_scores >= working_mu
            cand = cand[passing]
            if cand.size == 0:
                continue
            child_scores = child_scores[passing]
            parent_rows = np.bitwise_and.reduce(class_bits[parent])
            hits = np.bitwise_count(class_bits[cand] & parent_rows).sum(axis=1, dtype=np.int64)
            passing = hits / class_count >= config.s_min
            for literal, score, hit in zip(
                literals(cand[passing]), child_scores[passing].tolist(), hits[passing].tolist()
            ):
                child = rule.extended(literal)
                if child not in pool:
                    add(child, score, hit / class_count)

    return rank(pool.values())[: config.M]
