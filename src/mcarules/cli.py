"""Command-line pipeline: ingest CSVs, mine rules, train, apply, benchmark.

Subcommands::

    mine       labeled CSV -> rules.json (cosine-guided miner, or --algo apriori)
    train      labeled CSV [+ rules.json] -> model.json, printed rule list
    predict    model.json + CSV -> per-row label and probability table
    evaluate   model.json + labeled CSV -> metrics table [+ metrics.csv]
    render     model.json -> if/else-if/else text
    benchmark  synthetic scaling grid -> bench.csv + summary

Exit codes: 0 success, 1 usage error, 2 data or artifact error,
3 training finished without convergence (the model file is still written).

Any flag can instead be supplied in a plain-text config file given with
``--config`` (one ``key = value`` per line, ``#`` comments); explicit
flags win over file entries. A setting given neither way takes the default
of the library config dataclass it belongs to (``MinerConfig``,
``BrlConfig``, ``AprioriConfig``, ``BenchmarkConfig``).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import asdict, fields

import numpy as np

from .apriori import AprioriConfig, apriori_mine
from .artifacts import (
    atomic_write_text,
    csv_text,
    read_model,
    read_rules,
    write_csv,
    write_model,
    write_rules,
)
from .benchmark import (
    BENCH_HEADER,
    BenchmarkConfig,
    bench_rows,
    run_benchmark,
    summarize,
)
from .brl import BrlConfig, render_rule_list, train
from .dataset import DatasetError, load_csv, load_feature_csv
from .mca import build_indicator, fit
from .metrics import accuracy, cohen_kappa, confusion_matrix, roc_auc
from .miner import MinerConfig, mine

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_CONVERGENCE = 3


class UsageError(Exception):
    """Bad flags, bad flag values, or a bad config file."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this CLI reserves 2
    for data errors, so usage problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _cfg_bool(value: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {value!r}")


def _cfg_bins(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _cfg_number(kind):
    """A converter to ``int`` or ``float`` that reports a bad value as a usage error."""
    noun = "an integer" if kind is int else "a number"

    def convert(value: str):
        try:
            return kind(value)
        except ValueError:
            raise UsageError(f"expected {noun}, got {value!r}") from None

    return convert


def _cfg_choice(key: str, choices):
    def convert(value: str) -> str:
        if value not in choices:
            shown = " or ".join(repr(c) for c in choices)
            raise UsageError(f"{key} must be {shown}, got {value!r}")
        return value

    return convert


def _cfg_converter(key: str, action: argparse.Action):
    """How a config-file string becomes the value the flag itself would give."""
    if isinstance(action, argparse._StoreTrueAction):
        return _cfg_bool
    if isinstance(action, argparse._StoreFalseAction):
        return lambda value: not _cfg_bool(value)
    if isinstance(action, argparse._AppendAction):
        return _cfg_bins
    if action.choices:
        return _cfg_choice(key, action.choices)
    if action.type in (int, float):
        return _cfg_number(action.type)
    return str


# Defaults that belong to the command line itself. A flag whose dest names a
# config dataclass field sets that field; left unset, the field keeps the
# dataclass's own default.
_DEFAULTS = {
    "mine": {"algo": "mca", "time_budget": 300.0, "out": "rules.json"},
    "train": {"out": "model.json"},
    "benchmark": {"out": "bench.csv"},
}

# What a pre-mined --rules file makes meaningless: the miner and its CA fit.
_MINER_DESTS = {"components", *(f.name for f in fields(MinerConfig))}


def _add_ingestion_flags(sub, with_label=True):
    if with_label:
        sub.add_argument("--label", help="name of the label column")
    sub.add_argument(
        "--bins",
        action="append",
        metavar="COL:N",
        help="quantize numeric column COL into N (2 or 3) quantile bins; repeatable",
    )
    sub.add_argument(
        "--missing-as-category",
        action="store_true",
        default=None,
        help="keep rows with empty cells, treating '' as a category",
    )


def _add_miner_flags(sub):
    sub.add_argument("--r-max", type=int, help="maximum literals per rule")
    sub.add_argument("--s-min", type=float, help="minimum per-label support")
    sub.add_argument("--mu-min", type=float, help="minimum mean cosine score")
    sub.add_argument("--top", dest="M", type=int, help="rules kept per label")
    sub.add_argument(
        "--components",
        type=int,
        help="truncate the correspondence analysis to this many leading "
        "components before scoring (default: keep all)",
    )
    sub.add_argument(
        "--unsigned",
        dest="signed",
        action="store_false",
        default=None,
        help="score literals by cosine magnitude instead of signed value",
    )


def build_parser():
    parser = _Parser(prog="mcarules", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    mine_p = subparsers.add_parser("mine", help="mine candidate rules from a CSV")
    mine_p.add_argument("csv", help="labeled CSV file")
    _add_ingestion_flags(mine_p)
    _add_miner_flags(mine_p)
    mine_p.add_argument("--algo", choices=("mca", "apriori"), help="mining algorithm")
    mine_p.add_argument(
        "--time-budget", type=float, help="wall-clock budget for the apriori baseline"
    )
    mine_p.add_argument("--out", help="output rules file (default rules.json)")
    mine_p.add_argument("--config", help="key=value config file; flags win")

    train_p = subparsers.add_parser("train", help="fit a rule list on a CSV")
    train_p.add_argument("csv", help="labeled CSV file")
    _add_ingestion_flags(train_p)
    _add_miner_flags(train_p)
    train_p.add_argument("--rules", help="pre-mined rules file (skips mining)")
    train_p.add_argument("--chains", dest="n_chains", type=int, help="number of MCMC chains")
    train_p.add_argument(
        "--lambda", dest="lambda_", type=float, help="prior expected list length"
    )
    train_p.add_argument(
        "--eta", dest="eta_card", type=float, help="prior expected rule cardinality"
    )
    train_p.add_argument("--alpha", type=float, help="Dirichlet pseudo-count")
    train_p.add_argument("--max-iters", type=int, help="iteration cap per chain")
    train_p.add_argument(
        "--check-interval", type=int, help="iterations between convergence checks"
    )
    train_p.add_argument(
        "--rhat", dest="rhat_threshold", type=float, help="Gelman-Rubin stop threshold"
    )
    train_p.add_argument(
        "--max-len", dest="max_list_length", type=int,
        help="cap on rule-list length, at least 1 (default: no cap)",
    )
    train_p.add_argument("--seed", type=int, help="base RNG seed")
    train_p.add_argument("--threads", type=int, help="chain processes (default: cores)")
    train_p.add_argument("--out", help="output model file (default model.json)")
    train_p.add_argument("--config", help="key=value config file; flags win")

    predict_p = subparsers.add_parser("predict", help="apply a model to a CSV")
    predict_p.add_argument("model", help="model file from train")
    predict_p.add_argument("csv", help="CSV file; a label column is ignored")
    _add_ingestion_flags(predict_p)
    predict_p.add_argument("--out", help="write predictions CSV here instead of stdout")
    predict_p.add_argument("--config", help="key=value config file; flags win")

    evaluate_p = subparsers.add_parser(
        "evaluate", help="score a model against a labeled CSV"
    )
    evaluate_p.add_argument("model", help="model file from train")
    evaluate_p.add_argument("csv", help="labeled CSV file")
    _add_ingestion_flags(evaluate_p)
    evaluate_p.add_argument("--out", help="also write metrics CSV here")
    evaluate_p.add_argument("--config", help="key=value config file; flags win")

    render_p = subparsers.add_parser("render", help="print a fitted rule list")
    render_p.add_argument("model", help="model file from train")
    render_p.add_argument("--out", help="also write the text here")
    render_p.add_argument("--config", help="key=value config file; flags win")

    bench_p = subparsers.add_parser(
        "benchmark", help="time both miners on synthetic data"
    )
    bench_p.add_argument(
        "--grid", dest="attribute_grid", help="attribute counts, e.g. 10,50,100"
    )
    bench_p.add_argument("--n", type=int, help="rows per synthetic dataset")
    bench_p.add_argument(
        "--categories", dest="n_categories", type=int, help="categories per attribute"
    )
    bench_p.add_argument(
        "--reps", dest="repetitions", type=int, help="repetitions per grid point"
    )
    _add_miner_flags(bench_p)
    bench_p.add_argument(
        "--signal-fraction", type=float, help="fraction of label-linked attributes"
    )
    bench_p.add_argument(
        "--signal-strength", type=float, help="strength of the planted correlation"
    )
    bench_p.add_argument("--time-budget", type=float, help="per-run budget, seconds")
    bench_p.add_argument("--seed", type=int, help="base RNG seed")
    bench_p.add_argument("--out", help="output CSV (default bench.csv)")
    bench_p.add_argument("--config", help="key=value config file; flags win")

    return parser, subparsers.choices


def _config_keys(sub) -> dict[str, argparse.Action]:
    """The flags a config file may set, keyed by long flag name with ``_`` for ``-``."""
    return {
        action.option_strings[-1][2:].replace("-", "_"): action
        for action in sub._actions
        if action.option_strings and action.dest not in ("help", "config")
    }


def _merge_config_file(args, options: dict) -> None:
    if getattr(args, "config", None) is None:
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise UsageError(
                f"{args.config}:{lineno}: expected 'key = value', got {text!r}"
            )
        written, value = (part.strip() for part in text.split("=", 1))
        key = written.replace("-", "_")
        if key not in options:
            raise UsageError(
                f"{args.config}:{lineno}: unknown key {key!r} for this subcommand"
            )
        action = options[key]
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, _cfg_converter(key, action)(value))
            args.named[action.dest] = written


def _parse_bins(entries) -> dict[str, int]:
    bins: dict[str, int] = {}
    for entry in entries or []:
        name, sep, count = entry.rpartition(":")
        if not sep or not name:
            raise UsageError(f"--bins expects COL:N, got {entry!r}")
        value = _cfg_number(int)(count)
        if value not in (2, 3):
            raise UsageError(f"--bins {entry!r}: bin count must be 2 or 3")
        if name in bins:
            raise UsageError(f"--bins names column {name!r} twice")
        bins[name] = value
    return bins


def _ingest_options(args) -> dict:
    return {
        "numeric_bins": _parse_bins(args.bins),
        "missing_as_category": bool(args.missing_as_category),
    }


def _load_labeled(args):
    if args.label is None:
        raise UsageError("--label is required")
    return load_csv(args.csv, args.label, **_ingest_options(args))


def _config(cls, args, **settings):
    """A ``cls`` from ``settings`` and the fields of ``cls`` the user set.

    Each field left unset takes the dataclass's own default. A rejected
    value is reported under the name the user gave it: its flag, or its
    config-file key.
    """
    for f in fields(cls):
        value = getattr(args, f.name, None)
        if value is not None:
            settings.setdefault(f.name, value)
    try:
        return cls(**settings)
    except ValueError as exc:
        names = {f.name: args.named.get(f.name, f.name) for f in fields(cls)}
        message = re.sub(r"\w+", lambda word: names.get(word[0], word[0]), str(exc))
        raise UsageError(message) from None


def _fit_scores(dataset, args):
    if args.components is not None and args.components < 1:
        raise UsageError("--components must be a positive integer")
    return fit(build_indicator(dataset), components=args.components)


# Flags that one mining algorithm reads and the other would silently ignore.
_FOREIGN_MINE_FLAGS = {
    "mca": {"time_budget"},
    "apriori": {"mu_min", "top", "unsigned", "components"},
}


def cmd_mine(args) -> int:
    foreign = args.given.keys() & _FOREIGN_MINE_FLAGS[args.algo]
    if foreign:
        flags = ", ".join("--" + key.replace("_", "-") for key in sorted(foreign))
        raise UsageError(f"--algo {args.algo} does not use {flags}")
    config = _config(MinerConfig, args)
    dataset = _load_labeled(args)
    if args.algo == "mca":
        model = _fit_scores(dataset, args)
        result = mine(dataset, model, config)
        record = {"algo": "mca", "components": args.components, **asdict(config)}
    else:
        budget = _config(AprioriConfig, args)
        result = apriori_mine(
            dataset, s_min=config.s_min, r_max=config.r_max, config=budget
        )
        record = {
            "algo": "apriori",
            "r_max": config.r_max,
            "s_min": config.s_min,
            "time_budget": budget.time_budget,
        }
    write_rules(args.out, result, dataset, record)
    print(f"mined {len(result)} rules ({result.status}) -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    if args.rules is not None:
        overridden = {key for key, dest in args.given.items() if dest in _MINER_DESTS}
        if overridden:
            raise UsageError(
                "--rules and miner flags are mutually exclusive "
                f"(got {', '.join(sorted(overridden))})"
            )
    dataset = _load_labeled(args)
    brl_config = _config(BrlConfig, args)
    if args.rules is not None:
        mined = read_rules(args.rules, dataset)
    else:
        miner_config = _config(MinerConfig, args)
        model = _fit_scores(dataset, args)
        mined = mine(dataset, model, miner_config)
    rules = tuple(sr.rule for sr in mined.rules)
    if not rules:
        raise DatasetError(
            "no rules available for training; lower --s-min or --mu-min"
        )
    rule_list, diagnostics = train(dataset, rules, brl_config, n_workers=args.threads)
    write_model(args.out, rule_list, diagnostics, dataset, brl_config)
    print(render_rule_list(rule_list, dataset.schemas, dataset.label_names))
    rhat = diagnostics.rhat
    if brl_config.n_chains < 2:
        print(f"single chain: ran {diagnostics.iterations} iterations -> {args.out}")
    elif diagnostics.converged:
        print(
            f"converged after {diagnostics.iterations} iterations "
            f"(R-hat = {rhat:.4f}) -> {args.out}"
        )
    else:
        print(
            f"warning: R-hat = {rhat:.4f} > {brl_config.rhat_threshold} after "
            f"{diagnostics.iterations} iterations; model written to {args.out}",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_predict(args) -> int:
    artifact = read_model(args.model)
    ignore = {artifact.label_name}
    if args.label:
        ignore.add(args.label)
    table = load_feature_csv(
        args.csv,
        ignore_columns=tuple(sorted(ignore)),
        schemas=artifact.used_attributes,
        **_ingest_options(args),
    )
    probs = artifact.predict_proba(table)
    # Every row takes its clause's probabilities, so at most len(rules) + 1 rows
    # differ. Each distinct row, found by its bytes, is rendered once; str gives
    # a float the text csv.writer would.
    keys = np.ascontiguousarray(probs).view(np.dtype((np.void, probs.itemsize * probs.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    distinct = probs[first]
    names = artifact.label_names
    rendered = [
        [names[k], *map(str, row)]
        for k, row in zip(np.argmax(distinct, axis=1).tolist(), distinct.tolist())
    ]
    header = ["prediction"] + [f"p_{name}" for name in names]
    rows = [rendered[g] for g in inverse.ravel().tolist()]
    if args.out:
        write_csv(args.out, header, rows)
        print(f"wrote {len(rows)} predictions -> {args.out}")
    else:
        sys.stdout.write(csv_text(header, rows))
    return EXIT_OK


def _confusion_text(counts: np.ndarray, names) -> str:
    width = max(max(len(n) for n in names), max(len(str(c)) for c in counts.ravel()))
    head = " ".join(f"{n:>{width}}" for n in names)
    lines = [f"{'':>{width}} {head}"]
    for i, name in enumerate(names):
        cells = " ".join(f"{int(c):>{width}}" for c in counts[i])
        lines.append(f"{name:>{width}} {cells}")
    return "\n".join(lines)


def cmd_evaluate(args) -> int:
    artifact = read_model(args.model)
    label = args.label or artifact.label_name
    dataset = load_csv(
        args.csv,
        label,
        schemas=artifact.used_attributes,
        label_names=artifact.label_names,
        **_ingest_options(args),
    )
    unknown = dataset.label_names[artifact.n_labels:]
    if unknown:
        raise DatasetError(
            f"label {unknown[0]!r} in {args.csv} is unknown to the model "
            f"(knows {list(artifact.label_names)})"
        )
    y_true = dataset.Y
    probs = artifact.predict_proba(dataset)
    y_pred = np.argmax(probs, axis=1)
    counts = confusion_matrix(y_true, y_pred, n_labels=artifact.n_labels)

    records: list[tuple[str, object]] = [
        ("n", dataset.n),
        ("accuracy", accuracy(y_true, y_pred)),
    ]
    if artifact.n_labels == 2 and np.unique(y_true).size == 2:
        records.append(("roc_auc", roc_auc(y_true, probs[:, 1])))
    records.append(("kappa", cohen_kappa(counts)))

    width = max(len(key) for key, _ in records)
    for key, value in records:
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"{key:<{width}}  {shown}")
    print()
    print("confusion matrix (rows = true, columns = predicted):")
    print(_confusion_text(counts, artifact.label_names))

    if args.out:
        for i, tname in enumerate(artifact.label_names):
            for j, pname in enumerate(artifact.label_names):
                records.append((f"confusion_{tname}_{pname}", int(counts[i, j])))
        write_csv(args.out, ["metric", "value"], records)
        print(f"\nwrote metrics -> {args.out}")
    return EXIT_OK


def cmd_render(args) -> int:
    artifact = read_model(args.model)
    text = artifact.render()
    print(text)
    if args.out:
        atomic_write_text(args.out, text + "\n")
        print(f"wrote rule list -> {args.out}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    grid = {}
    if args.attribute_grid is not None:
        text = args.attribute_grid
        try:
            grid["attribute_grid"] = tuple(int(p) for p in text.split(",") if p.strip())
        except ValueError:
            raise UsageError(f"--grid expects integers like 10,50,100, got {text!r}")
    config = _config(BenchmarkConfig, args, miner=_config(MinerConfig, args), **grid)

    def progress(row):
        print(
            f"[{row.attributes} attrs] {row.miner}: {row.seconds:.3f}s "
            f"({row.status}, {row.n_rules} rules)",
            file=sys.stderr,
        )

    rows = run_benchmark(config, progress=progress)
    write_csv(args.out, BENCH_HEADER, bench_rows(rows))
    print(summarize(rows))
    print(f"wrote runtime table -> {args.out}")
    return EXIT_OK


_HANDLERS = {
    "mine": cmd_mine,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "render": cmd_render,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        options = _config_keys(commands[args.subcommand])
        # How each setting is named to the user: its flag, or its key as
        # written in the config file when the file set it.
        args.named = {action.dest: action.option_strings[-1] for action in options.values()}
        _merge_config_file(args, options)
        # The settings the user gave, as a flag or a config entry: key -> dest.
        args.given = {
            key: action.dest for key, action in options.items()
            if getattr(args, action.dest) is not None
        }
        for dest, value in _DEFAULTS.get(args.subcommand, {}).items():
            if getattr(args, dest) is None:
                setattr(args, dest, value)
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise UsageError("--threads must be a positive integer")
        return _HANDLERS[args.subcommand](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:  # the data, artifact and score errors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
