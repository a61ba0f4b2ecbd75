"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each check prints exactly one PASS/FAIL/SKIP line (run with ``-s`` to see
them as they happen). Checks cover: benchmark accuracy on the survival and
heart tasks, miner and correspondence-analysis oracle equivalence, sampler
correctness against an enumerated posterior, the convergence stop, parallel
chain speedup, the runtime scaling point, metric unit properties, and
bitwise artifact determinism.

The heart half of check 1 requires ``data/heart.csv`` in the processed
Cleveland layout (303 rows, 14 comma-separated fields, ``?`` for missing
values). Without that file the check fails with provisioning instructions;
the other eight checks do not depend on it.
"""

import json
import os
import time
from collections import Counter
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest

from helpers import flat_literals, rule_score, run_chain, support, write_dataset_csv
from mcarules.apriori import AprioriConfig, apriori_mine
from mcarules.benchmark import synthetic_dataset
from mcarules.brl import BrlConfig, Evaluator, predict_proba_batch, train
from mcarules.cli import main
from mcarules.dataset import (
    AttributeSchema,
    CategoricalDataset,
    Literal,
    stratified_kfold,
    subset,
)
from mcarules.datasets import load_heart_csv, titanic_dataset
from mcarules.mca import (
    ScoreUndefinedError,
    build_indicator,
    fit,
    score_table,
)
from mcarules.metrics import accuracy, cohen_kappa, confusion_matrix, roc_auc
from mcarules.miner import MinerConfig, Rule, ScoredRule, mine

HEART_CSV = Path(__file__).resolve().parents[1] / "data" / "heart.csv"

# Benchmark targets and tolerances for check 1.
SURVIVAL_ACC, SURVIVAL_ACC_TOL = 0.79, 0.03
SURVIVAL_AUC, SURVIVAL_AUC_TOL = 0.75, 0.05
HEART_ACC, HEART_ACC_TOL = 0.82, 0.05
HEART_AUC, HEART_AUC_TOL = 0.86, 0.05

MINER_PARAMS = dict(r_max=2, s_min=0.3, mu_min=0.5, M=70)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def cross_validated_scores(dataset, components=1, folds=5, cv_seed=0):
    """Mean accuracy and ROC-AUC of the full pipeline under stratified CV."""
    miner_config = MinerConfig(**MINER_PARAMS)
    brl_config = BrlConfig(
        lambda_=3.0, eta_card=1.0, alpha=1.0, n_chains=4,
        max_iters=50_000, check_interval=1_000, rhat_threshold=1.05, seed=0,
    )
    accs, aucs = [], []
    for train_idx, test_idx in stratified_kfold(dataset, folds, seed=cv_seed):
        fold_train = subset(dataset, train_idx)
        fold_test = subset(dataset, test_idx)
        model = fit(build_indicator(fold_train), components=components)
        mined = mine(fold_train, model, miner_config)
        rules = tuple(sr.rule for sr in mined.rules)
        rule_list, _ = train(fold_train, rules, brl_config, n_workers=1)
        probs = predict_proba_batch(rule_list, fold_test.X)
        accs.append(accuracy(fold_test.Y, np.argmax(probs, axis=1)))
        aucs.append(roc_auc(fold_test.Y, probs[:, 1]))
    return float(np.mean(accs)), float(np.mean(aucs))


def test_criterion_1_benchmark_accuracy():
    acc, auc = cross_validated_scores(titanic_dataset(), components=1)
    survival_ok = (
        abs(acc - SURVIVAL_ACC) <= SURVIVAL_ACC_TOL
        and abs(auc - SURVIVAL_AUC) <= SURVIVAL_AUC_TOL
    )
    survival_detail = (
        f"survival acc={acc:.4f} (target {SURVIVAL_ACC}+-{SURVIVAL_ACC_TOL}), "
        f"auc={auc:.4f} (target {SURVIVAL_AUC}+-{SURVIVAL_AUC_TOL})"
    )
    if HEART_CSV.exists():
        heart = load_heart_csv(HEART_CSV, bins=3)
        h_acc, h_auc = cross_validated_scores(heart, components=1)
        heart_ok = (
            abs(h_acc - HEART_ACC) <= HEART_ACC_TOL
            and abs(h_auc - HEART_AUC) <= HEART_AUC_TOL
        )
        heart_detail = (
            f"heart acc={h_acc:.4f} (target {HEART_ACC}+-{HEART_ACC_TOL}), "
            f"auc={h_auc:.4f} (target {HEART_AUC}+-{HEART_AUC_TOL})"
        )
    else:
        heart_ok = False
        heart_detail = (
            f"heart half BLOCKED: {HEART_CSV} not found; place the processed "
            "Cleveland file there (303 rows, 14 comma-separated fields, '?' "
            "for missing) and rerun; see README data section"
        )
    report(
        "criterion 1 (benchmark accuracy, 5-fold CV)",
        survival_ok and heart_ok,
        f"{survival_detail}; {heart_detail}",
    )


def exhaustive_mine(dataset, model, config):
    """Enumerate, filter, and rank every valid rule; independent of the
    miner's candidate search (shares only the score/support formulas)."""
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
    return tuple(
        sorted(best.values(), key=lambda s: (-s.score, len(s.rule), s.rule.literals, s.label))
    )


def random_categorical(rng, sizes, n, n_labels=2):
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


def test_criterion_2_miner_oracle_equivalence():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    cases = 0
    while cases < 20:
        n_attrs = int(rng.integers(2, 5))
        sizes = [int(rng.choice([2, 3])) for _ in range(n_attrs)]
        if sum(sizes) > 12:  # at most 12 attribute literals per instance
            continue
        ds = random_categorical(
            rng, sizes=sizes, n=int(rng.integers(12, 40)),
            n_labels=int(rng.choice([2, 3])),
        )
        config = MinerConfig(
            r_max=int(rng.integers(1, 4)),
            s_min=float(rng.choice([0.1, 0.25, 0.4])),
            mu_min=float(rng.choice([0.05, 0.2, 0.5])),
            M=int(rng.choice([3, 5, 70])),
        )
        model = fit(build_indicator(ds))
        got = mine(ds, model, config).rules
        want = exhaustive_mine(ds, model, config)
        assert [(sr.rule, sr.label) for sr in got] == [
            (sr.rule, sr.label) for sr in want
        ]
        for g, w in zip(got, want):
            assert abs(g.score - w.score) <= 1e-10
            assert abs(g.support - w.support) <= 1e-10
        cases += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 2 (miner == exhaustive oracle)",
        elapsed < 10.0,
        f"{cases} randomized instances identical within 1e-10 in {elapsed:.2f}s "
        "(budget 10s)",
    )


def ca_oracle(N):
    """Brute-force correspondence analysis via eigen-decomposition of StS.

    Independent of the fitted path: forms the n x J residual matrix S from
    its definition in floating point, where ``fit`` forms SᵀS from integer
    Burt counts.
    """
    N = np.asarray(N, dtype=np.float64)
    P = N / N.sum()
    r = P.sum(axis=1)
    c = P.sum(axis=0)
    S = (P - np.outer(r, c)) / np.sqrt(np.outer(r, c))
    evals, evecs = np.linalg.eigh(S.T @ S)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    keep = evals > 1e-12
    sigma = np.sqrt(evals[keep])
    coords = evecs[:, keep] * sigma[None, :] / np.sqrt(c)[:, None]
    return sigma, coords


def test_criterion_3_mca_oracle_equivalence():
    rng = np.random.default_rng(2024)
    cases = 0
    cosines_checked = 0
    while cases < 20:
        sizes = [int(s) for s in rng.choice([2, 3], size=rng.integers(2, 4))]
        n = int(rng.integers(8, 21))
        ds = random_categorical(rng, sizes=sizes, n=n)
        ind = build_indicator(ds)
        present = ind.matrix.sum(axis=0) > 0
        if present.sum() > 15:
            continue
        sigma, coords = ca_oracle(ind.matrix[:, present])
        oracle_row = np.cumsum(present) - 1
        # Per-component comparison needs a separated spectrum; resample
        # near-ties (rotations within an eigenspace are not sign flips).
        if sigma.size == 0 or np.any(np.abs(np.diff(sigma)) < 1e-6):
            continue
        model = fit(ind)
        table = score_table(model, ds)
        assert model.n_components == sigma.size
        np.testing.assert_allclose(model.singular_values, sigma, atol=1e-8)
        for comp in range(sigma.size):
            a = model.category_coords[present, comp]
            b = coords[:, comp]
            assert min(np.abs(a - b).max(), np.abs(a + b).max()) < 1e-8
        n_literals = int(ds.literal_offsets[-1])
        for flat, lit in enumerate(flat_literals(ds)):
            for k in range(ds.n_labels):
                try:
                    got = table.score(lit, k)
                except ScoreUndefinedError:
                    continue
                u, v = coords[oracle_row[flat]], coords[oracle_row[n_literals + k]]
                want = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
                assert got == pytest.approx(want, abs=1e-8)
                cosines_checked += 1
        cases += 1
    report(
        "criterion 3 (correspondence analysis == brute-force oracle)",
        True,
        f"{cases} instances: coordinates within 1e-8 up to sign, "
        f"{cosines_checked} cosines within 1e-8",
    )


def test_criterion_4_sampler_matches_enumerated_posterior():
    rng = np.random.default_rng(2718)
    n, p = 60, 4
    Y = rng.integers(0, 2, size=n)
    X = rng.integers(0, 2, size=(n, p))
    flip = rng.random(n) < 0.85
    X[flip, 0] = Y[flip]
    schemas = tuple(
        AttributeSchema(name=f"a{j}", categories=("c0", "c1")) for j in range(p)
    )
    ds = CategoricalDataset(schemas=schemas, X=X, Y=Y, label_names=("l0", "l1"))
    rules = tuple(Rule.of([Literal(j, c)]) for j in range(p) for c in (0, 1))[:7]

    cap = 2
    states = [()]
    for m in (1, 2):
        states.extend(permutations(range(len(rules)), m))
    assert len(states) <= 60

    config = BrlConfig(max_iters=50_000, max_list_length=cap, check_interval=1_000)
    evaluator = Evaluator(ds, rules, config)
    logs = np.array([evaluator.log_posterior(s) for s in states])
    logs -= logs.max()
    exact = np.exp(logs)
    exact /= exact.sum()
    pi = dict(zip(states, exact))

    start = time.perf_counter()
    counts = Counter()
    for seed in (0, 1):
        _, samples, _ = run_chain(ds, rules, config, chain_seed=seed)
        for iteration, state in samples:
            if iteration > config.max_iters // 2:
                counts[state] += 1
    elapsed = time.perf_counter() - start
    total = sum(counts.values())
    tv = 0.5 * sum(abs(counts.get(s, 0) / total - pi[s]) for s in states)
    report(
        "criterion 4 (sampler vs enumerated posterior)",
        tv <= 0.05 and elapsed < 60.0,
        f"total variation {tv:.4f} over {len(states)} states "
        f"(bound 0.05), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_5_convergence_stop():
    ds = titanic_dataset()
    model = fit(build_indicator(ds), components=1)
    mined = mine(ds, model, MinerConfig(**MINER_PARAMS))
    rules = tuple(sr.rule for sr in mined.rules)
    outcomes = []
    for seed in range(5):
        config = BrlConfig(
            lambda_=3.0, eta_card=1.0, alpha=1.0, n_chains=4,
            max_iters=200_000, check_interval=1_000,
            rhat_threshold=1.05, seed=seed,
        )
        _, diag = train(ds, rules, config, n_workers=1)
        outcomes.append(diag.converged and diag.iterations < 200_000)
    hits = sum(outcomes)
    report(
        "criterion 5 (4-chain convergence stop on the survival task)",
        hits >= 4,
        f"{hits}/5 seeded runs reached R-hat <= 1.05 before 200k iterations",
    )


def physical_core_count() -> int:
    try:
        import psutil

        return psutil.cpu_count(logical=False) or psutil.cpu_count() or 1
    except ImportError:
        return os.cpu_count() or 1


def test_criterion_6_parallel_chain_speedup():
    cores = physical_core_count()
    if cores < 4:
        print(
            f"\n[SKIP] criterion 6 (parallel chain speedup): "
            f"{cores} physical core(s) available; the check requires >= 4"
        )
        pytest.skip(f"requires >= 4 physical cores, found {cores}")
    ds = titanic_dataset()
    model = fit(build_indicator(ds), components=1)
    mined = mine(ds, model, MinerConfig(**MINER_PARAMS))
    rules = tuple(sr.rule for sr in mined.rules)
    # A single full-length segment: both runs do identical sampling work.
    config = BrlConfig(
        lambda_=3.0, eta_card=1.0, alpha=1.0, n_chains=6,
        max_iters=20_000, check_interval=20_000,
        rhat_threshold=1.0 + 1e-9, seed=0,
    )
    start = time.perf_counter()
    train(ds, rules, config, n_workers=1)
    sequential = time.perf_counter() - start
    start = time.perf_counter()
    train(ds, rules, config, n_workers=6)
    parallel = time.perf_counter() - start
    ratio = parallel / sequential
    report(
        "criterion 6 (parallel chain speedup)",
        ratio <= 0.7,
        f"6 chains parallel/sequential wall-time ratio {ratio:.2f} "
        f"({parallel:.1f}s vs {sequential:.1f}s; bound 0.7)",
    )


def test_criterion_7_scaling_benchmark_point():
    # Each miner runs on its own copy of the table, so each timer pays for
    # building the dataset's packed literal rows.
    def table():
        return synthetic_dataset(
            n=500, n_attributes=100, n_categories=3,
            signal_fraction=0.1, signal_strength=0.8, seed=(0, 100, 0),
        )

    ds = table()
    start = time.perf_counter()
    model = fit(build_indicator(ds))
    mined = mine(ds, model, MinerConfig(**MINER_PARAMS))
    t_cosine = time.perf_counter() - start
    ds = table()
    start = time.perf_counter()
    baseline = apriori_mine(
        ds, s_min=0.3, r_max=2, config=AprioriConfig(time_budget=300.0)
    )
    t_baseline = time.perf_counter() - start
    report(
        "criterion 7 (scaling point: 100 attributes, n=500)",
        t_cosine < 300.0 and t_cosine < t_baseline,
        f"cosine miner {t_cosine:.2f}s ({mined.status}, {len(mined)} rules) vs "
        f"level-wise baseline {t_baseline:.2f}s ({baseline.status}); "
        "budget 300s",
    )


def test_criterion_8_metric_unit_properties():
    # Pinned unit examples, exact.
    assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0
    assert accuracy([0, 0, 1, 1], [0, 0, 1, 0]) == 0.75
    assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5
    assert cohen_kappa(np.diag([3, 4, 5])) == 1.0
    assert cohen_kappa(np.array([[1, 1], [1, 1]])) == 0.0
    # Spot check against an independent trapezoidal ROC integration.
    y = np.array([0, 1, 0, 1, 1, 0, 1, 0, 0, 1])
    s = np.array([0.2, 0.9, 0.4, 0.6, 0.6, 0.1, 0.8, 0.6, 0.3, 0.5])
    got = roc_auc(y, s)
    pos, neg = s[y == 1], s[y == 0]
    pairs = [(a, b) for a in pos for b in neg]
    want = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a, b in pairs) / len(pairs)
    assert got == pytest.approx(want, abs=1e-12)
    report(
        "criterion 8 (metric unit properties)",
        True,
        "pinned examples exact; rank AUC matches pairwise oracle within "
        "1e-12; the clinical-cohort benchmark values (accuracy 0.79, "
        "kappa 0.58) depend on a restricted-access dataset and are "
        "documented as not reproducible here",
    )


def run_pipeline(workdir: Path, csv_path: str) -> dict[str, bytes]:
    workdir.mkdir(exist_ok=True)
    rules = str(workdir / "rules.json")
    model = str(workdir / "model.json")
    predictions = str(workdir / "predictions.csv")
    metrics = str(workdir / "metrics.csv")
    rendered = str(workdir / "rules.txt")
    assert main([
        "mine", csv_path, "--label", "survived", "--components", "1",
        "--out", rules,
    ]) == 0
    assert main([
        "train", csv_path, "--label", "survived", "--rules", rules,
        "--chains", "2", "--max-iters", "2000", "--check-interval", "1000",
        "--seed", "0", "--threads", "1", "--out", model,
    ]) == 0
    assert main(["predict", model, csv_path, "--out", predictions]) == 0
    assert main(["evaluate", model, csv_path, "--out", metrics]) == 0
    assert main(["render", model, "--out", rendered]) == 0
    return {
        name: Path(path).read_bytes()
        for name, path in [
            ("rules.json", rules),
            ("model.json", model),
            ("predictions.csv", predictions),
            ("metrics.csv", metrics),
            ("rules.txt", rendered),
        ]
    }


def test_criterion_9_artifact_determinism(tmp_path):
    csv_path = str(tmp_path / "survival.csv")
    write_dataset_csv(titanic_dataset(), csv_path)
    first = run_pipeline(tmp_path / "a", csv_path)
    second = run_pipeline(tmp_path / "b", csv_path)
    mismatched = [name for name in first if first[name] != second[name]]
    # Sanity: the model file is a real artifact, not an empty stub.
    payload = json.loads(first["model.json"])
    assert payload["kind"] == "model" and payload["rules"]
    report(
        "criterion 9 (bitwise artifact determinism)",
        not mismatched,
        "rules.json, model.json, predictions.csv, metrics.csv, rules.txt "
        "identical across seeded reruns (bench.csv excluded: its timing "
        "columns are the measurement itself)"
        if not mismatched
        else f"artifacts differ across reruns: {', '.join(mismatched)}",
    )
