#!/usr/bin/env python3
"""Pipeline benchmark for mcarules: ingest, CA, mining, sampling, prediction.

    python3 perfbench/run.py --workload {survival,wide,tall} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root: it imports the package from ``src/`` of
the checkout it sits in. It repeats whole rounds of the workload's pipeline
for ``--seconds`` seconds, checks every output against computations made
apart from the program (``oracles.py``), and prints a table, then one JSON
line with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are per-layer figures from spans around the program's public functions,
and the spans are written to ``perfbench/out/``. See README.md.
"""

import os

# One BLAS and OpenMP thread. At OpenBLAS's default of one thread per core,
# the 2201x10 survival SVD takes ~1 ms in some periods and ~90 ms in others,
# and the first large fit of a process is bimodal. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WARMUP_ROWS = 1000  # the set-up pass runs the pipeline on at most this many rows
WARMUP_ITERS = 100
SETUP_SAMPLES = 3
FOLDS = 5  # survival: criterion 1's stratified cross-validation
# mine_s runs the miner on one thread. At its default of one label thread
# per core, wide's mine_s spread by 13.5% and 31.1% of the median over two
# sets of ten runs, beyond the 0.25 bound, against 13.7% and 6.1% with one
# thread: two CPU-bound Python threads contend for the interpreter lock.
# The default is timed as the per-layer miner.mine_default_workers_s.
MINER_WORKERS = 1
# train_s runs the sampler's chains in this process. With its default pool of
# one worker per core, the chains advance in lockstep on both vCPUs, so a
# busy neighbour on either one stalls the fold: survival's train_s spread by
# 25.6% over ten runs, past its bound, and in one process alternating the two
# settings, 2.4 s windows spread by 32% with the pool against 13% without.
# The default is timed as the per-layer brl.train_default_workers_s.
TRAIN_WORKERS = 1
MICRO_STATES = 64
MICRO_REPEATS = 5


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    label: str
    components: int | None
    r_max: int
    planted: wl.PlantedSpec | None = None  # None: the bundled survival table
    seed_tag: int = 0
    fixed_seed: int | None = None  # used in place of --seed when set

    def seed(self, seed: int) -> int:
        return seed if self.fixed_seed is None else self.fixed_seed

    @property
    def bins(self) -> dict[str, int]:
        if self.planted is None:
            return {}
        return {f"n{j}": wl.BINS for j in range(self.planted.n_numeric)}


WORKLOADS = {
    # Criterion 1's protocol fixes the fold and chain seeds at 0. Seeded folds
    # would move train_s by 20% from seed to seed, as one fold in five may
    # converge at 2,000 iterations instead of 1,000.
    "survival": Workload("survival", "survived", components=1, r_max=2, fixed_seed=0),
    "wide": Workload(
        "wide", wl.LABEL, components=None, r_max=3, seed_tag=1,
        planted=wl.PlantedSpec(
            n_train=2000, n_test=2000, n_categorical=300, n_signal=30,
            strengths=(0.3, 0.7), n_numeric=0, max_iters=2000,
        ),
    ),
    "tall": Workload(
        "tall", wl.LABEL, components=None, r_max=2, seed_tag=2,
        planted=wl.PlantedSpec(
            n_train=100_000, n_test=100_000, n_categorical=27, n_signal=9,
            strengths=(0.2, 0.6), n_numeric=3, max_iters=300, test_files=4,
        ),
    ),
}


# ---------------------------------------------------------------- inputs


@dataclasses.dataclass(frozen=True)
class Inputs:
    """CSV files of one run, plus the benchmark's own coding of them for the checks."""

    train_csv: Path
    warmup_csv: Path
    test_csvs: tuple  # the held-out rows, in order; survival: those of each fold
    folds: tuple = ()  # survival: (train indices, test indices) per fold
    train_table: oracles.CodedTable | None = None
    test_table: oracles.CodedTable | None = None
    planted: wl.PlantedTable | None = None


def input_paths(workload: Workload, directory: Path) -> Inputs:
    n_test = FOLDS if workload.planted is None else workload.planted.test_files
    return Inputs(train_csv=directory / "train.csv", warmup_csv=directory / "warmup.csv",
                  test_csvs=tuple(directory / f"test{k}.csv" for k in range(n_test)))


def _warmup_rows(n: int) -> slice:
    return slice(0, n, -(-n // WARMUP_ROWS))


def survival_columns():
    """The bundled survival table as string columns, in its bundled row order."""
    from mcarules.datasets import titanic_dataset

    ds = titanic_dataset()
    names = [s.name for s in ds.schemas]
    columns = [np.asarray(s.categories)[ds.X[:, j]] for j, s in enumerate(ds.schemas)]
    return names, columns, ds.label_names, np.asarray(ds.label_names)[ds.Y], ds.label_name


def write_inputs(workload: Workload, seed: int, inputs: Inputs) -> tuple:
    """Write the training, warm-up and held-out CSV files of ``inputs``; return survival's folds."""
    if workload.planted is None:
        from mcarules.dataset import load_csv, stratified_kfold

        names, columns, _, labels, label = survival_columns()
        header = names + [label]
        wl.write_columns(inputs.train_csv, header, columns + [labels])
        rows = _warmup_rows(labels.size)
        wl.write_columns(inputs.warmup_csv, header, [c[rows] for c in columns] + [labels[rows]])
        folds = tuple(stratified_kfold(load_csv(inputs.train_csv, label), FOLDS, seed))
        for path, (_, test) in zip(inputs.test_csvs, folds):
            wl.write_columns(path, header, [c[test] for c in columns] + [labels[test]])
        return folds
    table = wl.planted_table(workload.planted, seed, workload.seed_tag)
    wl.write_planted_csv(table, table.train, inputs.train_csv)
    for path, part in zip(inputs.test_csvs, table.test_parts):
        wl.write_planted_csv(table, part, path)
    wl.write_planted_csv(table, _warmup_rows(workload.planted.n_train), inputs.warmup_csv)
    return ()


def prepare_inputs(workload: Workload, seed: int, out: Path) -> Inputs:
    """Write a run's inputs into ``out``; survival also gets its folds."""
    inputs = input_paths(workload, out)
    return dataclasses.replace(inputs, folds=write_inputs(workload, seed, inputs))


def with_check_tables(workload: Workload, seed: int, inputs: Inputs) -> Inputs:
    """Add the benchmark's coding of the inputs, which the checks compare against."""
    if workload.planted is None:
        names, columns, label_names, labels, _ = survival_columns()
        table = oracles.code_strings(names, columns, label_names, list(labels))
        return dataclasses.replace(inputs, train_table=table, test_table=table)
    planted = wl.planted_table(workload.planted, seed, workload.seed_tag)
    return dataclasses.replace(inputs, planted=planted,
                               train_table=planted_coding(planted, [planted.train]),
                               test_table=planted_coding(planted, planted.test_parts))


def planted_coding(table: wl.PlantedTable, parts) -> oracles.CodedTable:
    """The benchmark's coding of planted rows; numeric cells binned within each part (file)."""
    cats = np.asarray(wl.CATEGORIES)
    rows = np.concatenate([np.arange(part.start, part.stop) for part in parts])
    columns = [cats[table.codes[rows, j]] for j in range(table.codes.shape[1])]
    columns += [np.concatenate([oracles.quantile_bin_labels(table.numeric[part, j], wl.BINS)
                                for part in parts])
                for j in range(table.numeric.shape[1])]
    labels = np.asarray(wl.LABEL_NAMES)[table.y[rows]]
    return oracles.code_strings(table.categorical_names + table.numeric_names, columns,
                                wl.LABEL_NAMES, labels.tolist())


# ---------------------------------------------------------------- pipeline


def miner_config(workload: Workload):
    from mcarules.miner import MinerConfig

    return MinerConfig(r_max=workload.r_max)


def brl_config(workload: Workload, seed: int, iters: int | None = None):
    """Survival keeps the default sampler (it converges); planted tables get a fixed budget."""
    from mcarules.brl import BrlConfig

    iters = iters or (workload.planted.max_iters if workload.planted else None)
    if iters is None:
        return BrlConfig(seed=seed)
    return BrlConfig(max_iters=iters, check_interval=iters, seed=seed)


def warm_up(workload: Workload, warmup_csv: Path, out: Path) -> None:
    """One pass of the whole pipeline on the warm-up rows, with a short sampler run."""
    from mcarules import artifacts, brl, dataset, mca, miner

    ds = dataset.load_csv(warmup_csv, workload.label, numeric_bins=workload.bins)
    model = mca.fit(mca.build_indicator(ds), components=workload.components)
    mined = miner.mine(ds, model, miner_config(workload), n_workers=MINER_WORKERS)
    config = brl_config(workload, 0, WARMUP_ITERS)
    rule_list, diagnostics = brl.train(ds, tuple(sr.rule for sr in mined.rules), config,
                                       n_workers=TRAIN_WORKERS)
    path = out / f"warmup-{os.getpid()}.json"
    artifacts.write_model(path, rule_list, diagnostics, ds, config)
    artifacts.read_model(path).predict_proba(ds)
    path.unlink()


@dataclasses.dataclass
class OpRecord:
    """What one checked pipeline pass produced, kept small for the checks after the run."""

    fold: int | None = None
    round: int = 0
    schemas: tuple = ()
    label_names: tuple = ()
    mined: object = None
    rule_list: object = None
    prob_names: tuple = ()  # label order of the probability columns
    probs: np.ndarray | None = None
    predicted: np.ndarray | None = None
    error: str | None = None
    problems: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Samples:
    """Per-operation measurements; end-to-end metrics are their medians."""

    values: dict = dataclasses.field(default_factory=dict)
    last: dict = dataclasses.field(default_factory=dict)  # the last op's objects, for micro-timings

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        return statistics.median(self.values[name])


def _mine(workload, ds, samples):
    from mcarules import mca, miner

    start = time.perf_counter()
    indicator = mca.build_indicator(ds)
    model = mca.fit(indicator, components=workload.components)
    mined = miner.mine(ds, model, miner_config(workload), n_workers=MINER_WORKERS)
    samples.add("mine_s", time.perf_counter() - start)
    samples.add("components", model.n_components)
    samples.add("indicator_mb", indicator.matrix.nbytes / 2**20)
    samples.add("rules", len(mined.rules))
    samples.add("literals", sum(s.n_categories for s in ds.schemas))
    samples.last.update(model=model)
    return mined


def _train(workload, seed, ds, mined, samples):
    from mcarules import brl

    config = brl_config(workload, seed)
    rules = tuple(sr.rule for sr in mined.rules)
    start = time.perf_counter()
    rule_list, diagnostics = brl.train(ds, rules, config, n_workers=TRAIN_WORKERS)
    seconds = time.perf_counter() - start
    samples.add("train_s", seconds)
    samples.add("train_iters_per_s", diagnostics.iterations * config.n_chains / seconds)
    samples.add("iterations", diagnostics.iterations)
    samples.add("acceptance_rate", diagnostics.acceptance_rate)
    samples.last.update(dataset=ds, rules=rules, rule_list=rule_list, config=config)
    return rule_list, diagnostics, config


def survival_round(workload, seed, inputs, out, samples, r) -> list[OpRecord]:
    """Criterion 1's protocol: 5-fold CV, each held-out row scored by its own call."""
    from mcarules import artifacts, dataset

    start = time.perf_counter()
    ds = dataset.load_csv(inputs.train_csv, workload.label)
    samples.add("ingest_s", time.perf_counter() - start)
    samples.add("cells", ds.n * (ds.p + 1))
    folds = dataset.stratified_kfold(ds, FOLDS, seed)
    records = []
    for f, (train_idx, test_idx) in enumerate(folds):
        rec = OpRecord(fold=f, round=r)
        records.append(rec)
        try:
            if not (np.array_equal(train_idx, inputs.folds[f][0])
                    and np.array_equal(test_idx, inputs.folds[f][1])):
                rec.problems.append(f"fold {f} split differs from the one made for the inputs")
            train_ds = dataset.subset(ds, train_idx)
            mined = _mine(workload, train_ds, samples)
            rule_list, diagnostics, config = _train(workload, seed, train_ds, mined, samples)
            model_path = out / "model.json"
            artifacts.write_model(model_path, rule_list, diagnostics, train_ds, config)
            samples.add("model_bytes", model_path.stat().st_size)
            artifact = artifacts.read_model(model_path)
            test = dataset.load_feature_csv(inputs.test_csvs[f], ignore_columns=(workload.label,))
            singles = [dataset.FeatureTable(schemas=test.schemas, X=test.X[i:i + 1])
                       for i in range(test.n)]
            start = time.perf_counter()
            probs = np.vstack([artifact.predict_proba(row) for row in singles])
            samples.add("predict_rows_per_s", len(singles) / (time.perf_counter() - start))
            predicted = np.asarray(artifact.label_names)[np.argmax(probs, axis=1)]
            artifacts.write_csv(out / "predictions.csv",
                                ["prediction"] + [f"p_{n}" for n in artifact.label_names],
                                [[k] + p.tolist() for k, p in zip(predicted, probs)])
            rec.schemas, rec.label_names = train_ds.schemas, train_ds.label_names
            rec.mined, rec.rule_list = mined, rule_list
            rec.prob_names, rec.probs, rec.predicted = artifact.label_names, probs, predicted
        except Exception:
            rec.error = traceback.format_exc()
    return records


def planted_round(workload, seed, inputs, out, samples, r) -> list[OpRecord]:
    """Ingest, mine, train for a fixed budget, then ``mcarules predict`` on the held-out CSV."""
    from mcarules import artifacts, cli, dataset

    rec = OpRecord(round=r)
    try:
        start = time.perf_counter()
        ds = dataset.load_csv(inputs.train_csv, workload.label, numeric_bins=workload.bins)
        samples.add("ingest_s", time.perf_counter() - start)
        samples.add("cells", ds.n * (ds.p + 1))
        mined = _mine(workload, ds, samples)
        rule_list, diagnostics, config = _train(workload, seed, ds, mined, samples)
        model_path, pred_path = out / "model.json", out / "predictions.csv"
        artifacts.write_model(model_path, rule_list, diagnostics, ds, config)
        samples.add("model_bytes", model_path.stat().st_size)
        predicted, probs = [], []
        for test_csv in inputs.test_csvs:
            argv = ["predict", str(model_path), str(test_csv), "--out", str(pred_path)]
            for column, bins in workload.bins.items():
                argv += ["--bins", f"{column}:{bins}"]
            start = time.perf_counter()
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = cli.main(argv)
            seconds = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"mcarules predict exited with {code}")
            with open(pred_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            samples.add("predict_rows_per_s", (len(rows) - 1) / seconds)
            rec.prob_names = tuple(h[2:] for h in rows[0][1:])
            predicted.append(np.array([row[0] for row in rows[1:]]))
            probs.append(np.array([row[1:] for row in rows[1:]], dtype=np.float64))
        rec.schemas, rec.label_names = ds.schemas, ds.label_names
        rec.mined, rec.rule_list = mined, rule_list
        rec.predicted, rec.probs = np.concatenate(predicted), np.vstack(probs)
    except Exception:
        rec.error = traceback.format_exc()
    return [rec]


# ---------------------------------------------------------------- checks


def check_records(workload: Workload, inputs: Inputs, records: list[OpRecord]) -> None:
    """Fill each record's ``problems``; a record with problems or an error failed."""
    config = miner_config(workload)
    scores = {}
    for rec in records:
        if rec.error is not None:
            continue
        if workload.planted is None:
            train_rows, test_rows = inputs.folds[rec.fold]
        else:
            train_rows = test_rows = slice(None)
        key = rec.fold
        if key not in scores:
            scores[key] = oracles.LiteralScores(inputs.train_table, train_rows, workload.components)
        rec.problems += oracles.check_mining(rec.mined, rec.schemas, rec.label_names,
                                             inputs.train_table, train_rows, scores[key], config)
        problems, named, counts = oracles.check_rule_list(
            rec.rule_list, rec.schemas, rec.label_names, inputs.train_table, train_rows)
        rec.problems += problems
        # Scorer over the benchmark's recount, in the program's probability column order.
        order = [rec.label_names.index(n) for n in rec.prob_names]
        expected = oracles.first_match_probs(named, counts[:, order], rec.rule_list.alpha[order],
                                             inputs.test_table, test_rows)
        rec.problems += oracles.check_predictions(rec.probs, rec.predicted, expected, rec.prob_names)
        if workload.planted is not None:
            rec.problems += check_planted_accuracy(inputs, rec)
    if workload.planted is None:
        check_cv(inputs, records)


def _quality(inputs: Inputs, rec: OpRecord, rows):
    truth = np.asarray(inputs.test_table.label_names)[inputs.test_table.y[rows]]
    positive = inputs.test_table.label_names[1]
    acc = oracles.accuracy(truth, rec.predicted)
    auc = oracles.auc(truth == positive, rec.probs[:, rec.prob_names.index(positive)])
    return truth, acc, auc


def check_planted_accuracy(inputs: Inputs, rec: OpRecord) -> list[str]:
    """Held-out accuracy above the majority rate, AUC above 0.5, none above Bayes + slack."""
    truth, acc, auc = _quality(inputs, rec, slice(None))
    majority = max(np.mean(truth == name) for name in inputs.test_table.label_names)
    bayes, slack = oracles.bayes_slack(inputs.planted.log_odds[inputs.planted.test])
    problems = []
    if not acc > majority:
        problems.append(f"held-out accuracy {acc:.4f} not above the majority rate {majority:.4f}")
    if not auc > 0.5:
        problems.append(f"held-out AUC {auc:.4f} not above 0.5")
    if acc > bayes + slack:
        problems.append(f"held-out accuracy {acc:.4f} above Bayes {bayes:.4f} + slack {slack:.4f}")
    return problems


CV_ACC, CV_ACC_TOL = 0.79, 0.03
CV_AUC, CV_AUC_TOL = 0.75, 0.05


def check_cv(inputs: Inputs, records: list[OpRecord]) -> None:
    """Criterion 1's targets on each round's mean fold accuracy and AUC."""
    for r in sorted({rec.round for rec in records}):
        ops = [rec for rec in records if rec.round == r]
        if any(rec.error for rec in ops):
            continue
        quality = [_quality(inputs, rec, inputs.folds[rec.fold][1])[1:] for rec in ops]
        acc, auc = np.mean(quality, axis=0)
        if abs(acc - CV_ACC) > CV_ACC_TOL or abs(auc - CV_AUC) > CV_AUC_TOL:
            for rec in ops:
                rec.problems.append(f"round {r}: CV accuracy {acc:.4f}, AUC {auc:.4f} "
                                    "outside criterion 1's targets")


# ---------------------------------------------------------------- metrics


END_TO_END = {  # name -> unit
    "setup_s": "s",
    "ingest_s": "s",
    "mine_s": "s",
    "train_s": "s",
    "train_iters_per_s": "chain-iter/s",
    "predict_rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
}


def peak_rss_mb() -> float:
    """Largest resident set of this process so far (the chains run in it)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_samples(args, inputs: Inputs) -> list[float]:
    """Set-up time in fresh processes: import mcarules, then one warm-up pass."""
    out = []
    for _ in range(SETUP_SAMPLES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
                "--setup-probe", str(inputs.warmup_csv)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=150, check=True)
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop, to tell host drift from program changes."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _micro_us(fn, items, repeats=MICRO_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for item in items:
            fn(item)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / len(items) * 1e6


def layer_metrics(workload, seed, tracer: Tracer, samples: Samples, round_times) -> dict:
    """Per-layer figures from the traced rounds' spans, plus seeded micro-timings."""
    from mcarules import brl, dataset, miner

    def med(name):
        return statistics.median(s.seconds for s in tracer.under(name, "round"))

    last = samples.last
    ds, rules, rule_list, config = last["dataset"], last["rules"], last["rule_list"], last["config"]
    evaluator = brl.Evaluator(ds, rules, config)
    rng = np.random.default_rng([seed, 7])
    states = []
    for _ in range(MICRO_STATES):
        m = int(rng.integers(1, min(10, len(rules)) + 1))
        states.append(tuple(int(i) for i in rng.choice(len(rules), size=m, replace=False)))
    counts = [evaluator.capture(s) for s in states]
    propose_rng = np.random.default_rng([seed, 8])
    values = np.random.default_rng([seed, 9]).integers(0, 10_000, size=ds.n) / 100

    start = time.perf_counter()
    for _ in range(MICRO_REPEATS):
        brl.predict_proba_batch(rule_list, ds.X)
    batch_rate = ds.n * MICRO_REPEATS / (time.perf_counter() - start)

    predict_spans = tracer.under("ModelArtifact.predict_proba", "round")
    rows_per_call = 1 if workload.planted is None else (
        workload.planted.n_test / workload.planted.test_files)
    traced, untraced = round_times[1::2], round_times[0::2]
    return {
        "dataset.load_csv_s": (med("load_csv"), "s"),
        "dataset.load_feature_csv_s": (med("load_feature_csv"), "s"),
        "dataset.cells_per_s": (samples.median("cells") / med("load_csv"), "cells/s"),
        "dataset.quantize_numeric_s": (
            _micro_us(lambda v: dataset.quantize_numeric(v, wl.BINS), [values]) / 1e6, "s"),
        "mca.build_indicator_s": (med("build_indicator"), "s"),
        "mca.fit_s": (med("fit"), "s"),
        "mca.fit_cold_s": (tracer.under("fit", "warmup")[0].seconds, "s"),
        "mca.score_table_s": (med("score_table"), "s"),
        "mca.components": (samples.median("components"), "count"),
        "mca.indicator_mb": (samples.median("indicator_mb"), "MiB"),
        "miner.mine_self_s": (statistics.median(
            tracer.self_seconds(s) for s in tracer.under("mine", "round")), "s"),
        "miner.mine_default_workers_s": (_micro_us(
            lambda _: miner.mine(ds, last["model"], miner_config(workload)), [None], 3) / 1e6,
            "s"),
        "miner.rules": (samples.median("rules"), "count"),
        "miner.literals": (samples.median("literals"), "count"),
        "brl.iterations": (samples.median("iterations"), "count"),
        "brl.acceptance_rate": (samples.median("acceptance_rate"), "ratio"),
        "brl.evaluator_init_s": (med("Evaluator.__init__"), "s"),
        "brl.train_default_workers_s": (_micro_us(
            lambda _: brl.train(ds, rules, config), [None], 3) / 1e6, "s"),
        "brl.capture_us": (_micro_us(evaluator.capture, states), "us"),
        "brl.log_prior_us": (_micro_us(evaluator.log_prior, states), "us"),
        "brl.log_likelihood_us": (_micro_us(evaluator.log_likelihood, counts), "us"),
        "brl.propose_us": (_micro_us(lambda s: brl.propose(s, rules, propose_rng), states), "us"),
        "brl.predict_proba_batch_rows_per_s": (batch_rate, "rows/s"),
        "artifacts.write_model_s": (med("write_model"), "s"),
        "artifacts.read_model_s": (med("read_model"), "s"),
        "artifacts.model_bytes": (samples.median("model_bytes"), "bytes"),
        "artifacts.write_csv_s": (med("write_csv"), "s"),
        "artifacts.predict_proba_rows_per_s": (
            rows_per_call * len(predict_spans) / sum(s.seconds for s in predict_spans), "rows/s"),
        "trace.overhead_pct": (
            (statistics.median(traced) / statistics.median(untraced) - 1) * 100, "%"),
    }


def trace_targets():
    from mcarules import artifacts, brl, dataset, mca, miner

    return [
        (dataset, "load_csv", "load_csv"),
        (dataset, "load_feature_csv", "load_feature_csv"),
        (dataset, "quantize_numeric", "quantize_numeric"),
        (mca, "build_indicator", "build_indicator"),
        (mca, "fit", "fit"),
        (mca, "score_table", "score_table"),
        (miner, "mine", "mine"),
        (brl, "train", "train"),
        (brl.Evaluator, "__init__", "Evaluator.__init__"),
        (brl, "predict_proba_batch", "predict_proba_batch"),
        (artifacts, "write_model", "write_model"),
        (artifacts, "read_model", "read_model"),
        (artifacts, "write_csv", "write_csv"),
        (artifacts.ModelArtifact, "predict_proba", "ModelArtifact.predict_proba"),
    ]


def _traced(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def measure(workload, seed, seconds, inputs, out, tracer):
    """Whole rounds until ``--seconds`` have passed; a traced run traces every other round."""
    round_fn = survival_round if workload.planted is None else planted_round
    samples, records, round_times = Samples(), [], []
    start = time.perf_counter()
    r = 0
    while r < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        traced = tracer if tracer is not None and r % 2 == 1 else None
        if traced:
            tracer.install(trace_targets())
        began = time.perf_counter()
        with _traced(traced, "round"):
            records += round_fn(workload, seed, inputs, out, samples, r)
        round_times.append(time.perf_counter() - began)
        if traced:
            tracer.uninstall()
        r += 1
    return samples, records, round_times


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # A set-up probe times one warm-up pass on the given CSV, in a fresh process.
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mcarules" / "__init__.py").is_file():
        print(f"error: no mcarules package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            start = time.perf_counter()
            warm_up(workload, args.setup_probe, run_dir)
            print(json.dumps({"setup_s": time.perf_counter() - start}))
            return 0
        return measured_run(workload, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measured_run(workload, args, run_dir) -> int:
    seed = workload.seed(args.seed)
    inputs = prepare_inputs(workload, seed, run_dir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(trace_targets())
    with _traced(tracer, "warmup"):
        warm_up(workload, inputs.warmup_csv, run_dir)
    if tracer:
        tracer.uninstall()
    samples, records, round_times = measure(workload, seed, args.seconds, inputs, run_dir, tracer)
    peak = peak_rss_mb()

    inputs = with_check_tables(workload, seed, inputs)
    check_records(workload, inputs, records)
    failed = [rec for rec in records if rec.error or rec.problems]
    for rec in failed:
        where = f"round {rec.round}" + ("" if rec.fold is None else f" fold {rec.fold}")
        print(f"FAILED {where}:", rec.error or "; ".join(rec.problems[:5]), file=sys.stderr)

    if tracer:
        values = layer_metrics(workload, seed, tracer, samples, round_times)
        tracer.write(OUT / f"trace-{workload.name}-{args.seed}.jsonl")
    else:
        setup = setup_samples(args, inputs)
        values = {"setup_s": (statistics.median(setup), "s")}
        for name in ("ingest_s", "mine_s", "train_s", "train_iters_per_s", "predict_rows_per_s"):
            values[name] = (samples.median(name), END_TO_END[name])
        values["peak_rss_mb"] = (peak, "MiB")
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
        for name in END_TO_END:
            if name in samples.values:
                print(f"{name} samples: {', '.join(f'{v:.4g}' for v in samples.values[name])}")

    print(f"workload {workload.name}, seed {args.seed}: {len(round_times)} rounds "
          f"({', '.join(f'{t:.2f}' for t in round_times)} s)")
    for name, (value, unit) in values.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(f"reference loop: {reference_loop_s() * 1e3:.2f} ms")
    print(f"attempted {len(records)}, failed {len(failed)}")
    print(json.dumps({
        "correct": not any(rec.problems for rec in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
