"""Tests of the pipeline benchmark: tiny runs, and every check caught failing.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

from mcarules.brl import RuleList  # noqa: E402
from mcarules.dataset import load_csv  # noqa: E402
from mcarules.datasets import titanic_dataset  # noqa: E402
from mcarules.mca import build_indicator, fit, score_table  # noqa: E402
from mcarules.metrics import roc_auc  # noqa: E402
from mcarules.miner import ScoredRule  # noqa: E402

TINY = {
    "survival": run.WORKLOADS["survival"],
    "wide": dataclasses.replace(run.WORKLOADS["wide"], planted=wl.PlantedSpec(
        n_train=400, n_test=400, n_categorical=24, n_signal=8, strengths=(0.3, 0.7),
        n_numeric=0, max_iters=60)),
    "tall": dataclasses.replace(run.WORKLOADS["tall"], planted=wl.PlantedSpec(
        n_train=3000, n_test=3000, n_categorical=6, n_signal=3, strengths=(0.2, 0.6),
        n_numeric=3, max_iters=60, test_files=2)),
}


@pytest.fixture(autouse=True)
def scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    (tmp_path / "out").mkdir()


def tiny_round(name, tmp_path, seed=3):
    workload = TINY[name]
    seed = workload.seed(seed)
    inputs = run.prepare_inputs(workload, seed, tmp_path / "out")
    samples, records, times = run.measure(workload, seed, 0, inputs, tmp_path / "out", None)
    return workload, run.with_check_tables(workload, seed, inputs), samples, records, times


@pytest.fixture(scope="module")
def planted_records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("planted")
    saved = run.OUT
    run.OUT = tmp / "out"
    (tmp / "out").mkdir()
    try:
        return tiny_round("tall", tmp)
    finally:
        run.OUT = saved


@pytest.mark.parametrize("name", ["survival", "wide", "tall"])
def test_tiny_run_passes_every_check(name, tmp_path):
    workload, inputs, samples, records, _ = tiny_round(name, tmp_path)
    run.check_records(workload, inputs, records)
    assert records and all(rec.error is None and not rec.problems for rec in records), [
        (rec.error, rec.problems) for rec in records]
    for metric in ("ingest_s", "mine_s", "train_s", "train_iters_per_s", "predict_rows_per_s"):
        assert samples.median(metric) > 0


def test_traced_run_gives_every_layer_metric(tmp_path):
    tracer = Tracer()
    workload = TINY["tall"]
    inputs = run.prepare_inputs(workload, 3, tmp_path / "out")
    tracer.install(run.trace_targets())
    with tracer.span("warmup"):
        run.warm_up(workload, inputs.warmup_csv, tmp_path / "out")
    tracer.uninstall()
    samples, _, times = run.measure(workload, 3, 0, inputs, tmp_path / "out", tracer)
    metrics = run.layer_metrics(workload, 3, tracer, samples, times)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert all(np.isfinite(v) for v, _ in metrics.values())
    assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in metrics.items()}


def test_command_prints_end_to_end_metrics():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "survival", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 5
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and "{" not in done.stdout


# Each check must fail on a deliberately corrupted output.


def corrupted(planted_records, change):
    workload, inputs, _, records, _ = planted_records
    rec = copy.deepcopy(records[0])
    rec.problems = []
    change(rec)
    run.check_records(workload, inputs, [rec])
    return rec.problems


def test_clean_record_passes(planted_records):
    assert corrupted(planted_records, lambda rec: None) == []


def test_capture_count_off_by_one(planted_records):
    def change(rec):
        counts = rec.rule_list.capture_counts.copy()
        counts[0, 0] += 1
        rec.rule_list = RuleList(rec.rule_list.rules, counts, rec.rule_list.alpha)

    assert any("capture counts" in p for p in corrupted(planted_records, change))


def test_flipped_prediction(planted_records):
    def change(rec):
        rec.predicted = rec.predicted.copy()
        rec.predicted[0] = "neg" if rec.predicted[0] == "pos" else "pos"

    assert any("predicted labels" in p for p in corrupted(planted_records, change))


def test_altered_probability(planted_records):
    def change(rec):
        rec.probs = rec.probs.copy()
        rec.probs[5] += [1e-9, -1e-9]

    assert any("probabilities differ" in p for p in corrupted(planted_records, change))


def _replace_first_rule(rec, **fields):
    rules = list(rec.mined.rules)
    rules[0] = dataclasses.replace(rules[0], **fields)
    rec.mined = dataclasses.replace(rec.mined, rules=tuple(rules))


def test_altered_support(planted_records):
    def change(rec):
        sr = rec.mined.rules[0]
        _replace_first_rule(rec, support=sr.support + 1 / 3000)

    assert any("support" in p for p in corrupted(planted_records, change))


def test_altered_score(planted_records):
    def change(rec):
        _replace_first_rule(rec, score=rec.mined.rules[0].score + 1e-8)

    assert any("oracle" in p for p in corrupted(planted_records, change))


def test_rule_below_floor(planted_records):
    def change(rec):
        sr = rec.mined.rules[-1]
        low = ScoredRule(rule=sr.rule, label=sr.label, score=0.1, support=sr.support)
        rec.mined = dataclasses.replace(rec.mined, rules=rec.mined.rules[:-1] + (low,))

    assert any("below a floor" in p for p in corrupted(planted_records, change))


def test_rule_too_long(planted_records, monkeypatch):
    from mcarules.miner import MinerConfig

    assert max(len(sr.rule) for sr in planted_records[3][0].mined.rules) == 2
    monkeypatch.setattr(run, "miner_config", lambda workload: MinerConfig(r_max=1))
    assert any("r_max" in p for p in corrupted(planted_records, lambda rec: None))


def test_majority_only_predictions(planted_records):
    def change(rec):
        rec.predicted = np.full(rec.predicted.shape, "neg")
        rec.probs = np.tile(rec.probs[0], (rec.probs.shape[0], 1))

    assert any("majority rate" in p for p in corrupted(planted_records, change))


def test_accuracy_above_bayes(planted_records):
    workload, inputs, samples, records, times = planted_records
    flat = dataclasses.replace(inputs.planted, log_odds=np.zeros_like(inputs.planted.log_odds))
    rec = copy.deepcopy(records[0])
    problems = run.check_planted_accuracy(dataclasses.replace(inputs, planted=flat), rec)
    assert any("above Bayes" in p for p in problems)


def test_cv_targets(tmp_path):
    workload, inputs, _, records, _ = tiny_round("survival", tmp_path, seed=0)
    for rec in records:
        rec.probs = rec.probs[:, ::-1].copy()
    run.check_cv(inputs, records)
    assert all(any("criterion 1" in p for p in rec.problems) for rec in records)


# The oracles themselves, against the program where the two must agree.


def test_burt_scores_match_the_program():
    ds = titanic_dataset()
    names = [s.name for s in ds.schemas]
    columns = [np.asarray(s.categories)[ds.X[:, j]] for j, s in enumerate(ds.schemas)]
    table = oracles.code_strings(names, columns, ds.label_names,
                                 list(np.asarray(ds.label_names)[ds.Y]))
    for components in (None, 1):
        program = score_table(fit(build_indicator(ds), components=components), ds)
        scores = oracles.LiteralScores(table, slice(None), components)
        for j, schema in enumerate(ds.schemas):
            for c, category in enumerate(schema.categories):
                for k in range(ds.n_labels):
                    got = scores.cosine(*table.literal(schema.name, category), k)
                    assert abs(got - program.scores[program.offsets[j] + c, k]) < 1e-9


def test_bin_labels_match_load_csv(tmp_path):
    rng = np.random.default_rng(0)
    values = np.round(rng.normal(size=500), 2)
    labels = rng.integers(0, 2, size=500)
    path = tmp_path / "num.csv"
    wl.write_columns(path, ["x", "y"], [np.char.mod("%.2f", values), labels.astype(str)])
    ds = load_csv(path, "y", numeric_bins={"x": 3})
    program = np.asarray(ds.schemas[0].categories)[ds.X[:, 0]]
    assert list(program) == oracles.quantile_bin_labels(values, 3)


def test_auc_matches_rank_statistic():
    rng = np.random.default_rng(1)
    y = rng.integers(0, 2, size=300)
    s = np.round(rng.random(300), 1)
    assert oracles.auc(y == 1, s) == pytest.approx(roc_auc(y, s), abs=1e-12)


def test_planted_log_odds_are_the_generator_posterior():
    spec = TINY["wide"].planted
    table = wl.planted_table(spec, 5, 1)
    # Posterior probabilities average to the drawn positive rate, within sampling noise.
    p = 1 / (1 + np.exp(-table.log_odds))
    assert abs(p.mean() - table.y.mean()) < 4 * np.sqrt(np.sum(p * (1 - p))) / p.size


def test_tracer_restores_and_measures_self_time():
    import mcarules.mca as mca
    import mcarules.miner as miner

    original = miner.score_table
    tracer = Tracer()
    tracer.install([(mca, "score_table", "score_table"), (miner, "mine", "mine")])
    assert miner.score_table is not original and mca.score_table is miner.score_table
    ds = titanic_dataset()
    with tracer.span("round"):
        miner.mine(ds, fit(build_indicator(ds), components=1), miner.MinerConfig())
    tracer.uninstall()
    assert miner.score_table is original and mca.score_table is original
    mine_span = tracer.under("mine", "round")[0]
    child = tracer.under("score_table", "round")[0]
    assert child.parent == mine_span.id
    assert tracer.self_seconds(mine_span) == pytest.approx(mine_span.seconds - child.seconds)
