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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

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

    ``max_list_length`` caps how many rules a state may hold (default: no cap
    beyond the mined-rule count). With a single chain the Gelman-Rubin stop
    is unavailable and training runs to ``max_iters``.
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
        if np.any(np.asarray(self.alpha, dtype=np.float64) <= 0):
            raise ValueError("alpha must be positive")
        if self.n_chains < 1:
            raise ValueError("n_chains must be at least 1")
        if self.max_iters < 1 or self.check_interval < 1:
            raise ValueError("max_iters and check_interval must be positive")
        if self.rhat_threshold <= 1:
            raise ValueError("rhat_threshold must exceed 1")
        if self.max_list_length is not None and self.max_list_length < 0:
            raise ValueError("max_list_length cannot be negative")

    def resolve_alpha(self, n_labels: int) -> np.ndarray:
        alpha = np.asarray(self.alpha, dtype=np.float64)
        if alpha.ndim == 0:
            return np.full(n_labels, float(alpha))
        if alpha.shape != (n_labels,):
            raise ValueError(f"alpha must be scalar or length {n_labels}")
        return alpha


@dataclass(frozen=True, eq=False)
class ChainTrace:
    """One chain's history: unthinned scalar trace plus thinned state samples."""

    log_post: np.ndarray
    states: tuple[tuple[int, tuple[int, ...]], ...]
    accepted: int
    chain_seed: int

    def __len__(self) -> int:
        return self.log_post.size


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

    Rows are split by label and bit-packed: label k's training rows, in row
    order, fill ``uint64`` words little-end first, and every label is padded
    with zero bits to the same word count. ``packed[i, k]`` holds the label-k
    rows rule i matches and ``label_rows[k]`` every label-k row, so a
    clause's label counts are popcounts of its captured words.
    """

    def __init__(self, dataset: CategoricalDataset, mined_rules, config: BrlConfig):
        self.rules = tuple(mined_rules)
        if not self.rules:
            raise ValueError("mined rule set is empty")
        if len(set(self.rules)) != len(self.rules):
            raise ValueError("mined rules contain duplicates")
        self.config = config
        self.alpha = config.resolve_alpha(dataset.n_labels)
        n = dataset.n
        rows = [np.flatnonzero(dataset.Y == k) for k in range(dataset.n_labels)]
        words = max(-(-r.size // 64) for r in rows)
        # Row n is an appended False, the bit every padding slot reads.
        slots = np.full((dataset.n_labels, 64 * words), n)
        for k, r in enumerate(rows):
            slots[k, :r.size] = r

        def pack(mask):
            bits = np.append(mask, False)[slots]
            return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)

        self.packed = np.stack([pack(rule_mask(r, dataset.X)) for r in self.rules])
        self.label_rows = pack(np.ones(n, dtype=bool))
        self.cards = np.array([len(r) for r in self.rules])
        self.n_rules = len(self.rules)
        self.max_len = self.n_rules
        if config.max_list_length is not None:
            self.max_len = min(self.max_len, config.max_list_length)

        lam = config.lambda_
        lengths = np.arange(self.max_len + 1)
        log_pois = lengths * math.log(lam) - gammaln(lengths + 1)
        self._log_len_prior = log_pois - _logsumexp(log_pois)

        self._card_values = np.unique(self.cards)
        self._card_totals = {
            int(c): int(np.sum(self.cards == c)) for c in self._card_values
        }
        eta = config.eta_card
        self._log_card_weight = {
            int(c): c * math.log(eta) - math.lgamma(c + 1) for c in self._card_values
        }
        self._log_beta_alpha = float(
            np.sum(gammaln(self.alpha)) - gammaln(self.alpha.sum())
        )

    def capture(self, indices) -> np.ndarray:
        """Label counts captured per clause of the state; last row is the default."""
        captured = first_match([self.packed[i] for i in indices], self.label_rows)
        return np.bitwise_count(np.array(captured)).sum(axis=-1, dtype=np.int64)

    def log_likelihood(self, counts: np.ndarray) -> float:
        smoothed = counts + self.alpha[None, :]
        per_clause = gammaln(smoothed).sum(axis=1) - gammaln(smoothed.sum(axis=1))
        return float(per_clause.sum() - counts.shape[0] * self._log_beta_alpha)

    def log_prior(self, indices) -> float:
        m = len(indices)
        if m > self.max_len:
            return -math.inf
        total = self._log_len_prior[m]
        in_stock = dict(self._card_totals)
        for idx in indices:
            card = int(self.cards[idx])
            # Cardinality normalizer runs over cardinalities still in stock.
            z = _logsumexp_list(
                [self._log_card_weight[c] for c, left in in_stock.items() if left > 0]
            )
            total += self._log_card_weight[card] - z
            total -= math.log(in_stock[card])
            in_stock[card] -= 1
        return float(total)

    def log_posterior(self, indices) -> float:
        return self.log_prior(indices) + self.log_likelihood(self.capture(indices))


def _logsumexp(values: np.ndarray) -> float:
    top = float(np.max(values))
    return top + math.log(float(np.sum(np.exp(values - top))))


def _logsumexp_list(values) -> float:
    top = max(values)
    return top + math.log(sum(math.exp(v - top) for v in values))


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


INSERT, REMOVE, SWAP = "insert", "remove", "swap"


def _valid_moves(m: int, n_rules: int, max_len: int):
    moves = []
    if m < max_len and m < n_rules:
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
    moves = _valid_moves(m, n_rules, max_len)
    if not moves:
        raise ValueError("no valid move from this state")
    move = moves[int(rng.integers(len(moves)))]

    if move == INSERT:
        unused = sorted(set(range(n_rules)) - set(state))
        rule = unused[int(rng.integers(len(unused)))]
        pos = int(rng.integers(m + 1))
        candidate = state[:pos] + (rule,) + state[pos:]
        reverse_moves = _valid_moves(m + 1, n_rules, max_len)
        log_ratio = math.log(len(moves) * len(unused)) - math.log(len(reverse_moves))
    elif move == REMOVE:
        pos = int(rng.integers(m))
        candidate = state[:pos] + state[pos + 1:]
        reverse_moves = _valid_moves(m - 1, n_rules, max_len)
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
    log_post: float
    rng: np.random.Generator
    iteration: int


def _advance(evaluator: Evaluator, chain: _ChainState, n_iters: int):
    """Run ``n_iters`` Metropolis-Hastings steps, returning the new snapshot.

    Thinned states come as ``(iteration, state, log_post)`` triples.
    """
    rng = chain.rng
    state = chain.indices
    current_lp = chain.log_post
    trace = np.empty(n_iters)
    states = []
    accepted = 0
    for step in range(n_iters):
        iteration = chain.iteration + step + 1
        candidate, log_q = propose(
            state, evaluator.rules, rng, evaluator.config.max_list_length
        )
        candidate_lp = evaluator.log_posterior(candidate)
        log_accept = candidate_lp - current_lp + log_q
        if log_accept >= 0 or rng.random() < math.exp(log_accept):
            state = candidate
            current_lp = candidate_lp
            accepted += 1
        trace[step] = current_lp
        if iteration % THIN == 0:
            states.append((iteration, state, current_lp))
    snapshot = _ChainState(
        indices=state, log_post=current_lp, rng=rng,
        iteration=chain.iteration + n_iters,
    )
    return snapshot, trace, states, accepted


def _fresh_chain(evaluator: Evaluator, chain_seed: int) -> _ChainState:
    rng = np.random.default_rng(chain_seed)
    indices: tuple[int, ...] = ()
    return _ChainState(
        indices=indices,
        log_post=evaluator.log_posterior(indices),
        rng=rng,
        iteration=0,
    )


def run_chain(dataset, mined_rules, config: BrlConfig, chain_seed: int) -> ChainTrace:
    """One full-length chain, recording the scalar trace and thinned states."""
    evaluator = Evaluator(dataset, mined_rules, config)
    chain = _fresh_chain(evaluator, chain_seed)
    _, trace, states, accepted = _advance(evaluator, chain, config.max_iters)
    return ChainTrace(
        log_post=trace,
        states=tuple((iteration, state) for iteration, state, _ in states),
        accepted=accepted,
        chain_seed=chain_seed,
    )


def gelman_rubin(traces) -> float:
    """Potential scale reduction of the second halves of the scalar traces."""
    arrays = [np.asarray(t.log_post if isinstance(t, ChainTrace) else t) for t in traces]
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
    sample with the highest log posterior, its capture counts refreshed on
    the full training set. Results are identical for any worker count.
    """
    evaluator = Evaluator(dataset, mined_rules, config)
    chains = [
        _fresh_chain(evaluator, config.seed + c) for c in range(config.n_chains)
    ]
    traces = [[] for _ in chains]
    samples = [[] for _ in chains]
    accepted = 0
    rhat_history = []
    converged = False
    iterations = 0

    workers = n_workers or multiprocessing.cpu_count()
    workers = max(1, min(workers, config.n_chains))
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
    best = None  # (log_post, -iteration, -chain) maximized
    for c in range(config.n_chains):
        for iteration, state, lp in samples[c]:
            if iteration <= burn_in:
                continue
            key = (lp, -iteration, -c)
            if best is None or key > best[0]:
                best = (key, state, c, iteration)
    if best is None:
        # Too few iterations for any thinned post-burn-in sample: fall back
        # to the chains' final states.
        for c, chain in enumerate(chains):
            key = (chain.log_post, -chain.iteration, -c)
            if best is None or key > best[0]:
                best = (key, chain.indices, c, chain.iteration)

    _, state, best_chain, best_iteration = best
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
        best_chain=best_chain,
        best_iteration=best_iteration,
        best_log_posterior=float(best[0][0]),
    )
    return fitted, diagnostics


def predict_proba_batch(rule_list: RuleList, X: np.ndarray) -> np.ndarray:
    """First-match clause probabilities for every row of a category-index matrix."""
    X = np.asarray(X)
    masks = [rule_mask(rule, X) for rule in rule_list.rules]
    return rule_list.row_probabilities(masks, X.shape[0])


def predict(rule_list: RuleList, X: np.ndarray) -> np.ndarray:
    """Most probable label per row; ties resolve to the lowest label index."""
    return np.argmax(predict_proba_batch(rule_list, X), axis=1)


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
