"""Bayesian rule list training by Metropolis-Hastings over mined rules.

A state is an ordered selection of mined rules (no repeats) plus an implicit
default clause. The posterior combines a Dirichlet-multinomial likelihood per
clause with a truncated-Poisson prior on list length and on each rule's
cardinality, uniform over the unused rules of the drawn cardinality. Several
chains run concurrently; a coordinator checks the Gelman-Rubin statistic of
the log-posterior traces at a fixed interval and stops all chains once it
falls under the configured threshold.
"""

from __future__ import annotations

import math
import multiprocessing
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import getitem

import numpy as np

from .dataset import CategoricalDataset
from .miner import Rule, rule_mask

THIN = 10  # states kept every THIN iterations; the scalar trace is unthinned


@dataclass(frozen=True, eq=False)
class RuleList:
    """Ordered rules with an implicit default clause and per-clause label counts."""

    rules: tuple[Rule, ...]
    capture_counts: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.capture_counts, dtype=np.int64)
        alpha = np.asarray(self.alpha, dtype=np.float64)
        object.__setattr__(self, "capture_counts", counts)
        object.__setattr__(self, "alpha", alpha)
        if alpha.ndim != 1 or counts.shape != (len(self.rules) + 1, alpha.size):
            raise ValueError("capture counts must be (rules + 1) x labels")
        if counts.min() < 0:
            raise ValueError("capture counts must be nonnegative")
        if np.any(alpha <= 0):
            raise ValueError("alpha entries must be positive")
        counts.setflags(write=False)
        alpha.setflags(write=False)

    def __len__(self) -> int:
        return len(self.rules)

    def clause_probabilities(self) -> np.ndarray:
        """Per-clause posterior label distributions, rows summing to 1."""
        smoothed = self.capture_counts + self.alpha[None, :]
        return smoothed / smoothed.sum(axis=1, keepdims=True)

    def row_probabilities(self, masks, n: int) -> np.ndarray:
        """Label distribution per row, given each rule's row mask in list order."""
        probs = self.clause_probabilities()
        out = np.empty((n, probs.shape[1]))
        for j, hit in enumerate(first_match(masks, np.ones(n, dtype=bool))):
            out[hit] = probs[j]
        return out


def first_match(masks, remaining: np.ndarray) -> list[np.ndarray]:
    """Rows each clause captures when the first matching clause wins.

    ``remaining`` marks the rows to assign, and each entry of ``masks`` marks
    one rule's rows in the same form, in list order: either boolean row
    masks, or the packed ``uint64`` words of :class:`Evaluator`. The result
    holds one captured entry per rule, then the default clause's; they are
    disjoint and together cover ``remaining``, which is left unchanged.
    """
    remaining = remaining.copy()
    captured = []
    for mask in masks:
        hit = mask & remaining
        captured.append(hit)
        remaining ^= hit
    captured.append(remaining)
    return captured


@dataclass(frozen=True)
class BrlConfig:
    """Prior constants, chain layout, and the convergence stop.

    ``max_list_length`` caps how many rules a state may hold; it must be at
    least 1 (default: no cap beyond the mined-rule count). With a single chain
    the Gelman-Rubin stop is unavailable and training runs to ``max_iters``.
    """

    lambda_: float = 3.0
    eta_card: float = 1.0
    alpha: float = 1.0
    n_chains: int = 4
    max_iters: int = 50_000
    check_interval: int = 1_000
    rhat_threshold: float = 1.05
    seed: int = 0
    max_list_length: int | None = None

    def __post_init__(self):
        if self.lambda_ <= 0 or self.eta_card <= 0:
            raise ValueError("lambda_ and eta_card must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.n_chains < 1:
            raise ValueError("n_chains must be at least 1")
        if self.max_iters < 1 or self.check_interval < 1:
            raise ValueError("max_iters and check_interval must be positive")
        if self.rhat_threshold <= 1:
            raise ValueError("rhat_threshold must exceed 1")
        if self.max_list_length is not None and self.max_list_length < 1:
            raise ValueError("max_list_length must be at least 1")


@dataclass(frozen=True)
class TrainDiagnostics:
    converged: bool
    rhat_history: tuple[float, ...]
    iterations: int
    acceptance_rate: float
    n_chains: int
    best_chain: int
    best_iteration: int
    best_log_posterior: float

    @property
    def rhat(self) -> float | None:
        return self.rhat_history[-1] if self.rhat_history else None


class Evaluator:
    """Precomputed matchers and prior tables for one (dataset, mined rules) pair.

    Rows are split by label and bit-packed as in the dataset's
    ``literal_bits``. ``packed[i, k]``, the AND of its literals' words, holds
    the label-k rows rule i matches and ``label_rows[k]`` every label-k row,
    so a clause's label counts are popcounts of its captured words.

    The log-prior and the log-likelihood are each the correctly rounded sum
    (``math.fsum``) of one term per position or clause, so their values do
    not depend on the order in which the terms are added. A position's prior
    term is ``log_card_weight[rank] - z - log(rules of its cardinality still
    in stock)``, where ``z`` normalises the weights of the cardinalities in
    stock: all of them until one runs out.
    """

    def __init__(self, dataset: CategoricalDataset, mined_rules, config: BrlConfig):
        # Imported here, not at module level, so that commands that never
        # sample (predict, render, mine) do not load scipy.
        from scipy.special import gammaln

        self.rules = tuple(mined_rules)
        if not self.rules:
            raise ValueError("mined rule set is empty")
        if len(set(self.rules)) != len(self.rules):
            raise ValueError("mined rules contain duplicates")
        self.config = config
        self.alpha = np.full(dataset.n_labels, float(config.alpha))
        n = dataset.n
        bits, offsets = dataset.literal_bits, dataset.literal_offsets.tolist()
        self.packed = np.stack([
            np.bitwise_and.reduce(
                bits[:, [offsets[lit.attribute] + lit.category for lit in r.literals]], axis=1)
            for r in self.rules
        ])
        # Every row holds exactly one of attribute 0's literals.
        self.label_rows = np.bitwise_or.reduce(bits[:, :offsets[1]], axis=1)
        self.max_len = min(len(self.rules), config.max_list_length or len(self.rules))

        lam = config.lambda_
        lengths = np.arange(self.max_len + 1)
        log_pois = (lengths * math.log(lam) - gammaln(lengths + 1)).tolist()
        z_len = _logsumexp(log_pois)
        self._log_len_prior = [v - z_len for v in log_pois]

        cards, rank = np.unique([len(r) for r in self.rules], return_inverse=True)
        self._card_rank = rank.tolist()
        self._card_totals = np.bincount(rank).tolist()
        eta = config.eta_card
        self._log_card_weight = [
            c * math.log(eta) - math.lgamma(c + 1) for c in cards.tolist()
        ]
        self._log_card_z = _logsumexp(self._log_card_weight)
        # log(n) for each stock count n: a table lookup beats calling math.log.
        self._log_stock = [-math.inf, *map(math.log, range(1, max(self._card_totals) + 1))]
        # Log-gamma tables for the likelihood: a clause holds at most every
        # row of a label, and at most n rows in all.
        self._lgamma_label = [
            array("d", gammaln(np.arange(count + 1) + a).tobytes())
            for count, a in zip(dataset.label_counts().tolist(), self.alpha)
        ]
        self._lgamma_total = array(
            "d", gammaln(np.arange(n + 1) + self.alpha.sum()).tobytes()
        )
        self._log_beta_alpha = float(
            np.sum(gammaln(self.alpha)) - gammaln(self.alpha.sum())
        )

    def capture(self, indices) -> np.ndarray:
        """Label counts captured per clause of the state; last row is the default."""
        return self._counts(
            first_match([self.packed[i] for i in indices], self.label_rows)
        )

    def log_likelihood(self, counts: np.ndarray) -> float:
        """Log-likelihood of per-clause label counts of this evaluator's rows."""
        return math.fsum(self._clause_terms(counts))

    def log_prior(self, indices) -> float:
        if len(indices) > self.max_len:
            return -math.inf
        return math.fsum(self._prior_terms(indices))

    def log_posterior(self, indices) -> float:
        return self.log_prior(indices) + self.log_likelihood(self.capture(indices))

    def _counts(self, captured) -> np.ndarray:
        return np.bitwise_count(np.array(captured)).sum(axis=-1, dtype=np.int64)

    def _clause_terms(self, counts) -> list[float]:
        """Each clause's Dirichlet-multinomial log-likelihood, from its label counts."""
        terms = []
        for row in np.asarray(counts).tolist():
            terms.append(
                sum(map(getitem, self._lgamma_label, row))
                - self._lgamma_total[sum(row)] - self._log_beta_alpha
            )
        return terms

    def _prior_terms(self, indices) -> list[float]:
        """The length term, then each position's cardinality and rule draw."""
        terms = [self._log_len_prior[len(indices)]]
        left = self._card_totals.copy()  # rules of each cardinality in stock
        z = self._log_card_z  # the normaliser over cardinalities in stock
        for i in indices:
            rank = self._card_rank[i]
            n = left[rank]
            terms.append(self._log_card_weight[rank] - z - self._log_stock[n])
            left[rank] = n - 1
            if n == 1:
                in_stock = [w for w, k in zip(self._log_card_weight, left) if k]
                if in_stock:  # otherwise every rule is placed and no draw follows
                    z = _logsumexp(in_stock)
        return terms


def _logsumexp(values: list[float]) -> float:
    top = max(values)
    return top + math.log(math.fsum([math.exp(v - top) for v in values]))


INSERT, REMOVE, SWAP = "insert", "remove", "swap"


def _valid_moves(m: int, max_len: int):
    moves = []
    if m < max_len:
        moves.append(INSERT)
    if m >= 1:
        moves.append(REMOVE)
    if m >= 2:
        moves.append(SWAP)
    return moves


def propose(state, mined_rules, rng, max_list_length=None):
    """One uniform move (insert/remove/swap) with its log proposal ratio.

    ``state`` is a tuple of indices into ``mined_rules``. The ratio accounts
    for the changing number of valid move types and the asymmetric counts of
    insertable rules and removable positions.
    """
    n_rules = len(mined_rules)
    max_len = n_rules if max_list_length is None else min(n_rules, max_list_length)
    m = len(state)
    moves = _valid_moves(m, max_len)
    if not moves:
        raise ValueError("no valid move from this state")
    move = moves[int(rng.integers(len(moves)))]

    if move == INSERT:
        n_unused = n_rules - m
        rule = int(rng.integers(n_unused))
        for used in sorted(state):  # step up to the rule-th unused index
            if used > rule:
                break
            rule += 1
        pos = int(rng.integers(m + 1))
        candidate = state[:pos] + (rule,) + state[pos:]
        reverse_moves = _valid_moves(m + 1, max_len)
        log_ratio = math.log(len(moves) * n_unused) - math.log(len(reverse_moves))
    elif move == REMOVE:
        pos = int(rng.integers(m))
        candidate = state[:pos] + state[pos + 1:]
        reverse_moves = _valid_moves(m - 1, max_len)
        log_ratio = math.log(len(moves)) - math.log(
            len(reverse_moves) * (n_rules - m + 1)
        )
    else:
        i = int(rng.integers(m))
        j = int(rng.integers(m - 1))
        if j >= i:
            j += 1
        swapped = list(state)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        candidate = tuple(swapped)
        log_ratio = 0.0
    return candidate, log_ratio


@dataclass(frozen=True)
class _ChainState:
    """Picklable snapshot of one chain between segments."""

    indices: tuple[int, ...]
    rng: np.random.Generator
    iteration: int


class _Prefix:
    """One chain's current state, kept so that a move recomputes only what it changes.

    ``remaining[j]`` holds the packed words of the rows that no clause before
    clause j captures, and ``terms[j]`` clause j's likelihood term; the last
    entry of each belongs to the default clause. A move that keeps the first
    p rules reuses ``remaining[p]`` and ``terms[:p]``. ``log_post`` is the
    state's log-posterior, the one place a chain keeps it. Log-posteriors are
    correctly rounded sums, so it has the bits of
    :meth:`Evaluator.log_posterior` whether the state was built or reached.
    """

    def __init__(self, evaluator: Evaluator, state):
        self.evaluator = evaluator
        self.state: tuple[int, ...] = ()
        self.remaining = [evaluator.label_rows]
        self.terms: list[float] = []
        self.accept(self.score(state)[1])

    def score(self, candidate):
        """The candidate's log-posterior, and the move that :meth:`accept` takes."""
        ev = self.evaluator
        first = min(len(self.state), len(candidate))
        for j, (a, b) in enumerate(zip(self.state, candidate)):
            if a != b:
                first = j
                break
        captured = first_match(
            [ev.packed[i] for i in candidate[first:]], self.remaining[first]
        )
        terms = self.terms[:first] + ev._clause_terms(ev._counts(captured))
        log_post = ev.log_prior(candidate) + math.fsum(terms)
        return log_post, (candidate, first, captured, terms, log_post)

    def accept(self, move) -> None:
        candidate, first, captured, terms, self.log_post = move
        remaining = self.remaining[:first + 1]
        for hit in captured[:-1]:
            remaining.append(remaining[-1] ^ hit)
        self.state, self.remaining, self.terms = candidate, remaining, terms


def _advance(evaluator: Evaluator, chain: _ChainState, n_iters: int):
    """Run ``n_iters`` Metropolis-Hastings steps, returning the new snapshot.

    Thinned states come as ``(iteration, state, log_post)`` triples.
    """
    rng = chain.rng
    # Rebuilt per segment rather than kept in the snapshot, which is pickled.
    current = _Prefix(evaluator, chain.indices)
    trace = np.empty(n_iters)
    states = []
    accepted = 0
    for step in range(n_iters):
        iteration = chain.iteration + step + 1
        candidate, log_q = propose(
            current.state, evaluator.rules, rng, evaluator.config.max_list_length
        )
        candidate_lp, move = current.score(candidate)
        log_accept = candidate_lp - current.log_post + log_q
        if log_accept >= 0 or rng.random() < math.exp(log_accept):
            current.accept(move)
            accepted += 1
        trace[step] = current.log_post
        if iteration % THIN == 0:
            states.append((iteration, current.state, current.log_post))
    snapshot = _ChainState(current.state, rng, chain.iteration + n_iters)
    return snapshot, trace, states, accepted


def _fresh_chain(chain_seed: int) -> _ChainState:
    return _ChainState(indices=(), rng=np.random.default_rng(chain_seed), iteration=0)


def gelman_rubin(traces) -> float:
    """Potential scale reduction of the second halves of the scalar traces."""
    arrays = [np.asarray(t) for t in traces]
    if len(arrays) < 2:
        raise ValueError("need at least two chains")
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise ValueError("traces must have equal lengths")
    if length < 4:
        raise ValueError("traces must hold at least 4 iterations")
    halves = np.stack([a[length // 2:] for a in arrays])
    n = halves.shape[1]
    within = float(np.mean(np.var(halves, axis=1, ddof=1)))
    between_over_n = float(np.var(np.mean(halves, axis=1), ddof=1))
    if within == 0.0:
        return 1.0 if between_over_n == 0.0 else math.inf
    var_plus = (n - 1) / n * within + between_over_n
    return math.sqrt(var_plus / within)


_WORKER_EVALUATOR: Evaluator | None = None


def _init_worker(dataset, mined_rules, config):
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = Evaluator(dataset, mined_rules, config)


def _worker_advance(args):
    chain, n_iters = args
    return _advance(_WORKER_EVALUATOR, chain, n_iters)


def train(dataset, mined_rules, config: BrlConfig, n_workers: int | None = None):
    """Fit a rule list: parallel chains, Gelman-Rubin stop, max-posterior pick.

    Chains advance in lockstep segments of ``check_interval`` iterations;
    after each segment the pooled traces are checked and all chains stop once
    R-hat reaches the threshold (or ``max_iters`` elapses, which sets the
    non-convergence flag). The returned list is the thinned post-burn-in
    sample with the highest log posterior, ties going to the earlier
    iteration, then the lower chain; a run too short to thin any such sample
    picks among the chains' final states, each scored by the last entry of
    its trace. Its capture counts are refreshed on the full training set.

    The chains run in up to ``n_workers`` processes, never more than one per
    chain; ``n_workers`` must be at least 1, and ``None`` means one per core.
    Results are identical for any worker count.
    """
    if n_workers is not None and n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    evaluator = Evaluator(dataset, mined_rules, config)
    chains = [_fresh_chain(config.seed + c) for c in range(config.n_chains)]
    traces = [[] for _ in chains]
    samples = [[] for _ in chains]
    accepted = 0
    rhat_history = []
    converged = False
    iterations = 0

    workers = min(n_workers or multiprocessing.cpu_count(), config.n_chains)
    pool = None
    if workers > 1:
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(dataset, tuple(mined_rules), config),
        )
    try:
        while iterations < config.max_iters:
            segment = min(config.check_interval, config.max_iters - iterations)
            jobs = [(chain, segment) for chain in chains]
            if pool is None:
                results = [_advance(evaluator, chain, segment) for chain, _ in jobs]
            else:
                results = list(pool.map(_worker_advance, jobs))
            for c, (snapshot, trace, states, acc) in enumerate(results):
                chains[c] = snapshot
                traces[c].append(trace)
                samples[c].extend(states)
                accepted += acc
            iterations += segment
            if config.n_chains >= 2:
                pooled = [np.concatenate(t) for t in traces]
                if pooled[0].size >= 4:
                    rhat = gelman_rubin(pooled)
                    rhat_history.append(rhat)
                    if rhat <= config.rhat_threshold:
                        converged = True
                        break
    finally:
        if pool is not None:
            pool.shutdown()

    burn_in = iterations // 2
    # Keys (log_post, -iteration, -chain) are unique, so max never compares states.
    candidates = [
        ((lp, -iteration, -c), state)
        for c in range(config.n_chains)
        for iteration, state, lp in samples[c] if iteration > burn_in
    ] or [
        ((traces[c][-1][-1], -chain.iteration, -c), chain.indices)
        for c, chain in enumerate(chains)
    ]
    (best_lp, neg_iteration, neg_chain), state = max(candidates)
    rules = tuple(evaluator.rules[i] for i in state)
    fitted = RuleList(
        rules=rules, capture_counts=evaluator.capture(state), alpha=evaluator.alpha
    )
    diagnostics = TrainDiagnostics(
        converged=converged,
        rhat_history=tuple(rhat_history),
        iterations=iterations,
        acceptance_rate=accepted / max(1, iterations * config.n_chains),
        n_chains=config.n_chains,
        best_chain=-neg_chain,
        best_iteration=-neg_iteration,
        best_log_posterior=float(best_lp),
    )
    return fitted, diagnostics


def predict_proba_batch(rule_list: RuleList, X: np.ndarray) -> np.ndarray:
    """First-match clause probabilities for every row of a category-index matrix."""
    X = np.asarray(X)
    masks = [rule_mask(rule.literals, X) for rule in rule_list.rules]
    return rule_list.row_probabilities(masks, X.shape[0])


def render_rule_list(rule_list: RuleList, schemas, label_names) -> str:
    """If/else-if/else text with each clause's top label and its probability.

    ``schemas`` are the attribute schemas the rules' literals are coded
    against; ``label_names`` name the label columns of the counts.
    """
    probs = rule_list.clause_probabilities()
    lines = []
    for j, rule in enumerate(rule_list.rules):
        label = int(np.argmax(probs[j]))
        keyword = "if" if j == 0 else "else if"
        lines.append(
            f"{keyword} {rule.describe(schemas)} "
            f"then {label_names[label]} (P = {probs[j, label]:.2f})"
        )
    label = int(np.argmax(probs[-1]))
    keyword = "else" if rule_list.rules else "always"
    lines.append(f"{keyword} {label_names[label]} (P = {probs[-1, label]:.2f})")
    return "\n".join(lines)
