"""End-to-end tests for the command-line pipeline: exit codes and artifacts."""

import csv
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import rowwise_predictions, write_dataset_csv
from mcarules.apriori import AprioriConfig
from mcarules.artifacts import csv_text, read_model, write_model
from mcarules import artifacts, benchmark, cli, dataset
from mcarules.benchmark import BenchmarkConfig, synthetic_dataset
from mcarules.brl import BrlConfig, RuleList, TrainDiagnostics
from mcarules.cli import main
from mcarules.dataset import DatasetError, Literal, load_csv
from mcarules.datasets import titanic_dataset
from mcarules.miner import MinerConfig, Rule

SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_toy_csv(path, n_blocks=10):
    # Perfectly separable two-attribute data: every literal scores +-1 and
    # carries support 0.5, so the default miner settings keep them all.
    lines = ["color,size,label"]
    for _ in range(n_blocks):
        lines += ["red,big,yes", "red,big,yes", "blue,small,no", "blue,small,no"]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared toy CSV plus mined rules and a fitted model, built once."""
    root = tmp_path_factory.mktemp("cli")
    toy = write_toy_csv(root / "toy.csv")
    rules = str(root / "rules.json")
    assert main(["mine", toy, "--label", "label", "--out", rules]) == 0
    model = str(root / "model.json")
    assert main([
        "train", toy, "--label", "label", "--rules", rules,
        "--chains", "1", "--max-iters", "400", "--check-interval", "200",
        "--seed", "0", "--threads", "1", "--out", model,
    ]) == 0
    return {"root": root, "toy": toy, "rules": rules, "model": model}


@pytest.fixture(scope="module")
def titanic_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "titanic.csv"
    write_dataset_csv(titanic_dataset(), path)
    return str(path)


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["mine", "x.csv", "--nope"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "mine" in capsys.readouterr().out

    def test_package_runs_as_a_module(self):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mcarules", "--help"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert "mine" in proc.stdout

    def test_cli_import_leaves_out_scipy_stats(self):
        # scipy.stats costs about a second and 45 MiB to import, on every
        # command, and scipy.special a third of a second; only the sampler
        # needs scipy, and imports it when it starts.
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        probe = "import sys, mcarules.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_missing_label(self, workspace, capsys):
        assert main(["mine", workspace["toy"]]) == 1
        assert "--label" in capsys.readouterr().err

    def test_bins_without_count(self, workspace, capsys):
        code = main(["mine", workspace["toy"], "--label", "label", "--bins", "age"])
        assert code == 1
        assert "COL:N" in capsys.readouterr().err

    def test_bins_bad_count(self, workspace, capsys):
        code = main(
            ["mine", workspace["toy"], "--label", "label", "--bins", "age:5"]
        )
        assert code == 1
        assert "2 or 3" in capsys.readouterr().err

    def test_bins_duplicate_column(self, workspace, capsys):
        code = main([
            "mine", workspace["toy"], "--label", "label",
            "--bins", "age:2", "--bins", "age:3",
        ])
        assert code == 1
        assert "twice" in capsys.readouterr().err

    def test_components_must_be_positive(self, workspace, capsys):
        code = main(
            ["mine", workspace["toy"], "--label", "label", "--components", "0"]
        )
        assert code == 1
        assert "--components" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("from_file", [False, True])
    @pytest.mark.parametrize("subcommand", ["mine", "train", "benchmark"])
    def test_threads_must_be_positive(
        self, workspace, tmp_path, capsys, subcommand, from_file, value
    ):
        # Only train has --threads; mine and benchmark reject the flag or key whatever its value.
        out = tmp_path / "out"
        argv = [subcommand, "--out", str(out)]
        if subcommand != "benchmark":
            argv += [workspace["toy"], "--label", "label"]
        if from_file:
            cfg = tmp_path / "threads.cfg"
            cfg.write_text(f"threads = {value}\n")
            argv += ["--config", str(cfg)]
            named = "--threads" if subcommand == "train" else "unknown key 'threads'"
        else:
            argv += ["--threads", value]
            named = "--threads" if subcommand == "train" else f"arguments: --threads {value}"
        assert main(argv) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("from_file", [False, True])
    @pytest.mark.parametrize("subcommand", ["mine", "benchmark"])
    def test_threads_is_train_only(self, workspace, tmp_path, capsys, subcommand, from_file):
        # Only the sampler's chain pool has workers; mining runs on one thread.
        out = tmp_path / "out"
        argv = [subcommand, "--out", str(out)]
        if subcommand == "mine":
            argv += [workspace["toy"], "--label", "label"]
        if from_file:
            cfg = tmp_path / "threads.cfg"
            cfg.write_text("threads = 1\n")
            argv += ["--config", str(cfg)]
            named = "unknown key 'threads'"
        else:
            argv += ["--threads", "1"]
            named = "unrecognized arguments: --threads 1"
        assert main(argv) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_max_len_must_be_positive(self, workspace, tmp_path, capsys, from_file, value):
        out = tmp_path / "model.json"
        argv = ["train", workspace["toy"], "--label", "label", "--rules", workspace["rules"],
                "--out", str(out)]
        if from_file:
            cfg = tmp_path / "train.cfg"
            cfg.write_text(f"max-len = {value}\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--max-len", value]
        assert main(argv) == 1
        name = "max-len" if from_file else "--max-len"
        assert f"error: {name} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag, key, least",
        [
            (["train", "{toy}", "--label", "label", "--rules", "{rules}"],
             "--max-len", "max-len", 1),
            (["train", "{toy}", "--label", "label", "--rules", "{rules}"],
             "--chains", "chains", 1),
            (["mine", "{toy}", "--label", "label"], "--r-max", "r-max", 1),
            (["benchmark"], "--n", "n", 4),
            (["benchmark"], "--categories", "categories", 2),
        ],
    )
    @pytest.mark.parametrize("from_file", [False, True])
    def test_rejected_value_is_named_as_given(
        self, workspace, tmp_path, capsys, argv, flag, key, least, from_file
    ):
        # The message names what the user typed: the flag, or the config
        # key as written in the file, never the config dataclass's field.
        out = tmp_path / "out"
        argv = [arg.format(**workspace) for arg in argv] + ["--out", str(out)]
        if from_file:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = 0\n")
            argv += ["--config", str(cfg)]
        else:
            argv += [flag, "0"]
        assert main(argv) == 1
        name = key if from_file else flag
        assert capsys.readouterr().err == f"error: {name} must be at least {least}\n"
        assert not out.exists()

    def test_rules_file_excludes_miner_flags(self, workspace, capsys):
        code = main([
            "train", workspace["toy"], "--label", "label",
            "--rules", workspace["rules"], "--s-min", "0.4",
        ])
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_bad_benchmark_grid(self, capsys):
        assert main(["benchmark", "--grid", "abc"]) == 1
        assert "--grid" in capsys.readouterr().err

    def test_bad_apriori_budget(self, workspace, capsys):
        code = main([
            "mine", workspace["toy"], "--label", "label",
            "--algo", "apriori", "--time-budget", "-1",
        ])
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["mine", "{toy}", "--label", "label", "--algo", "apriori", "--r-max", "0"],
             "r_max must be at least 1"),
            (["mine", "{toy}", "--label", "label", "--algo", "apriori", "--s-min", "0"],
             "s_min must be positive"),
            (["benchmark", "--grid", "3", "--n", "60", "--r-max", "0"],
             "r_max must be at least 1"),
            (["benchmark", "--grid", "3", "--n", "60", "--top", "0"],
             "M must be at least 1"),
            (["benchmark", "--grid", "3", "--n", "60", "--s-min", "0"],
             "s_min must be positive"),
        ],
    )
    def test_bad_miner_value_is_usage_error(
        self, workspace, tmp_path, capsys, argv, message
    ):
        # ``message`` is the config dataclass's; the CLI reports it under
        # the flag that set the rejected field.
        flag = argv[-2]
        out = tmp_path / "out"
        argv = [arg.format(toy=workspace["toy"]) for arg in argv] + ["--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: {flag} {message.partition(' ')[2]}" in err
        assert "attrs]" not in err  # rejected before any benchmark run
        assert not out.exists()

    @pytest.mark.parametrize(
        "algo, flags, message",
        [
            ("apriori", ["--mu-min", "0.9"], "--mu-min"),
            ("apriori", ["--top", "5"], "--top"),
            ("apriori", ["--unsigned"], "--unsigned"),
            ("apriori", ["--components", "1"], "--components"),
            ("apriori", ["--top", "5", "--mu-min", "0.9"], "--mu-min, --top"),
            ("apriori", ["--top", "5", "--unsigned"], "--top, --unsigned"),
            ("mca", ["--time-budget", "10"], "--time-budget"),
        ],
    )
    def test_flag_foreign_to_mining_algo(
        self, workspace, tmp_path, capsys, algo, flags, message
    ):
        out = tmp_path / "rules.json"
        argv = ["mine", workspace["toy"], "--label", "label", "--algo", algo]
        assert main(argv + flags + ["--out", str(out)]) == 1
        assert f"--algo {algo} does not use {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "algo, entry", [("apriori", "mu-min = 0.9"), ("mca", "time_budget = 10")]
    )
    def test_config_entry_foreign_to_mining_algo(
        self, workspace, tmp_path, capsys, algo, entry
    ):
        cfg = tmp_path / "mine.cfg"
        cfg.write_text(f"algo = {algo}\n{entry}\n")
        out = tmp_path / "rules.json"
        code = main([
            "mine", workspace["toy"], "--label", "label",
            "--config", str(cfg), "--out", str(out),
        ])
        assert code == 1
        assert "does not use" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_flags_win_over_file(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "mine.cfg"
        cfg.write_text("# miner settings\ns-min = 0.45\ntop = 10\nunsigned = true\n")
        out = str(tmp_path / "rules.json")
        code = main([
            "mine", workspace["toy"], "--label", "label",
            "--config", str(cfg), "--s-min", "0.35", "--out", out,
        ])
        assert code == 0
        record = json.loads(open(out).read())["miner_config"]
        assert record["s_min"] == 0.35  # explicit flag beats the file
        assert record["M"] == 10  # file fills unset flags
        assert record["signed"] is False

    def test_unknown_key_rejected_with_location(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("top = 10\nbogus = 1\n")
        code = main(
            ["mine", workspace["toy"], "--label", "label", "--config", str(cfg)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "bad.cfg:2" in err and "bogus" in err

    def test_malformed_line_rejected(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just-words\n")
        code = main(
            ["mine", workspace["toy"], "--label", "label", "--config", str(cfg)]
        )
        assert code == 1
        assert "key = value" in capsys.readouterr().err

    def test_missing_config_file(self, workspace, capsys):
        code = main([
            "mine", workspace["toy"], "--label", "label",
            "--config", "/nonexistent.cfg",
        ])
        assert code == 1
        assert "config file" in capsys.readouterr().err

    def test_lambda_alias_reaches_trainer(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("lambda = 5.0\nchains = 1\nmax-iters = 200\n")
        out = str(tmp_path / "model.json")
        code = main([
            "train", workspace["toy"], "--label", "label",
            "--config", str(cfg), "--check-interval", "100",
            "--threads", "1", "--out", out,
        ])
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["brl_config"]["lambda_"] == 5.0
        assert payload["brl_config"]["n_chains"] == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            ("top = ten", "expected an integer, got 'ten'"),
            ("s-min = lots", "expected a number, got 'lots'"),
            ("unsigned = maybe", "expected a boolean, got 'maybe'"),
            ("algo = fp", "algo must be 'mca' or 'apriori', got 'fp'"),
        ],
    )
    def test_bad_value_is_usage_error(self, workspace, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = main(
            ["mine", workspace["toy"], "--label", "label", "--config", str(cfg)]
        )
        assert code == 1
        assert message in capsys.readouterr().err

    def test_bins_entry_splits_on_commas(self, tmp_path, capsys):
        data = tmp_path / "numeric.csv"
        lines = ["x,y,label"]
        for i in range(1, 41):
            lines.append(f"{i * 0.5},{i % 7},{'hi' if i > 20 else 'lo'}")
        data.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "mine.cfg"
        cfg.write_text("bins = x:2, y:3\n")
        out = str(tmp_path / "rules.json")
        code = main([
            "mine", str(data), "--label", "label", "--config", str(cfg), "--out", out,
        ])
        assert code == 0
        kinds = [a["kind"] for a in json.loads(open(out).read())["attributes"]]
        assert kinds == ["quantized-numeric", "quantized-numeric"]


def spy_on_mine(monkeypatch, module):
    """Replace ``module.mine`` with a pass-through that records each config."""
    seen = []
    real = module.mine

    def spy(dataset, model, config, **kwargs):
        seen.append(config)
        return real(dataset, model, config, **kwargs)

    monkeypatch.setattr(module, "mine", spy)
    return seen


class TestDefaults:
    """A setting given neither as a flag nor in a file takes its dataclass default."""

    @pytest.mark.parametrize("config", [MinerConfig, BrlConfig, AprioriConfig, BenchmarkConfig])
    def test_every_config_field_is_a_flag(self, config):
        # A field no flag sets is a setting only the library's own callers
        # could change. A nested config's fields are checked on its own type.
        _, commands = cli.build_parser()
        dests = {action.dest for sub in commands.values() for action in sub._actions}
        defaults = config()
        settable = {f.name for f in fields(config) if not is_dataclass(getattr(defaults, f.name))}
        assert settable - dests == set()

    def test_mine_records_miner_config_defaults(self, workspace, tmp_path):
        out = tmp_path / "rules.json"
        assert main(["mine", workspace["toy"], "--label", "label", "--out", str(out)]) == 0
        record = json.loads(out.read_text())["miner_config"]
        assert record == {"algo": "mca", "components": None, **asdict(MinerConfig())}

    def test_apriori_records_miner_floors_and_time_budget(self, workspace, tmp_path):
        out = tmp_path / "rules.json"
        argv = ["mine", workspace["toy"], "--label", "label", "--algo", "apriori"]
        assert main(argv + ["--out", str(out)]) == 0
        record = json.loads(out.read_text())["miner_config"]
        defaults = MinerConfig()
        assert record == {
            "algo": "apriori", "r_max": defaults.r_max, "s_min": defaults.s_min,
            "time_budget": 300.0,
        }

    def test_train_records_sampler_and_miner_defaults(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        seen = spy_on_mine(monkeypatch, cli)
        out = tmp_path / "model.json"
        argv = ["train", workspace["toy"], "--label", "label", "--threads", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        assert seen == [MinerConfig()]
        assert json.loads(out.read_text())["brl_config"] == asdict(BrlConfig())


class TestMine:
    def test_writes_rules_artifact(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "rules.json")
        code = main([
            "mine", workspace["toy"], "--label", "label",
            "--components", "1", "--out", out,
        ])
        assert code == 0
        assert "mined" in capsys.readouterr().out
        payload = json.loads(open(out).read())
        assert payload["kind"] == "rules"
        assert payload["status"] == "ok"
        assert payload["label_names"] == ["yes", "no"]
        assert payload["miner_config"]["algo"] == "mca"
        assert payload["miner_config"]["components"] == 1
        assert len(payload["rules"]) > 0
        first = payload["rules"][0]
        assert set(first) == {"literals", "label", "score", "support"}

    def test_mining_starts_no_thread(self, workspace, tmp_path, monkeypatch):
        expected = tmp_path / "expected.json"
        assert main(["mine", workspace["toy"], "--label", "label", "--out", str(expected)]) == 0

        def refuse(thread):
            raise AssertionError("mine started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        out = tmp_path / "rules.json"
        assert main(["mine", workspace["toy"], "--label", "label", "--out", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_apriori_writes_same_schema(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "rules.json")
        code = main([
            "mine", workspace["toy"], "--label", "label",
            "--algo", "apriori", "--out", out,
        ])
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["kind"] == "rules"
        assert payload["miner_config"]["algo"] == "apriori"
        assert len(payload["rules"]) > 0

    def test_full_rank_mining_makes_no_eigendecomposition(
        self, workspace, tmp_path, monkeypatch
    ):
        # Full-rank scores are read from the integer Burt counts; only the
        # coordinates, which mining never reads, need an eigendecomposition.
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        out = str(tmp_path / "rules.json")
        assert main(["mine", workspace["toy"], "--label", "label", "--out", out]) == 0
        assert len(json.loads(open(out).read())["rules"]) > 0

    def test_repeat_runs_are_byte_identical(self, workspace, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            assert main(["mine", workspace["toy"], "--label", "label", "--out", out]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_rules_do_not_depend_on_blas_thread_count(self, tmp_path):
        # Near-tied full-rank scores on this table once came out in a
        # different last bit, and so in a different order, at 1 and 2 BLAS
        # threads; they are now computed from exact integer counts.
        table = tmp_path / "table.csv"
        write_dataset_csv(synthetic_dataset(
            n=2000, n_attributes=300, n_categories=3,
            signal_fraction=0.1, signal_strength=0.8, seed=(0, 300, 0),
        ), table)
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        mined = []
        for threads in ("1", "2"):
            out = tmp_path / f"rules_{threads}.json"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "mcarules.cli", "mine", str(table),
                    "--label", "label", "--r-max", "1", "--out", str(out),
                ],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            mined.append(out.read_bytes())
        assert mined[0] == mined[1]

    def test_impossible_support_yields_empty_status(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "rules.json")
        code = main([
            "mine", workspace["toy"], "--label", "label",
            "--s-min", "1.01", "--out", out,
        ])
        assert code == 0
        assert "0 rules (empty)" in capsys.readouterr().out
        assert json.loads(open(out).read())["rules"] == []

    def test_missing_csv_is_data_error(self, capsys):
        assert main(["mine", "/nonexistent.csv", "--label", "label"]) == 2

    def test_numeric_bins_end_to_end(self, tmp_path, capsys):
        csv = tmp_path / "numeric.csv"
        lines = ["x,label"]
        for i in range(1, 41):
            lines.append(f"{i * 0.5},{'hi' if i > 20 else 'lo'}")
        csv.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "rules.json")
        code = main([
            "mine", str(csv), "--label", "label", "--bins", "x:2", "--out", out,
        ])
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["attributes"][0]["kind"] == "quantized-numeric"
        assert payload["rules"]
        # Bin labels are interval strings, so the rule file stands alone.
        assert "inf" in payload["rules"][0]["literals"][0]["category"]


class TestTrain:
    def test_single_chain_run(self, workspace, capsys):
        # The module fixture already trained with one chain; retrain to
        # capture the console contract.
        out = str(workspace["root"] / "model2.json")
        code = main([
            "train", workspace["toy"], "--label", "label",
            "--chains", "1", "--max-iters", "400", "--check-interval", "200",
            "--seed", "0", "--threads", "1", "--out", out,
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("if ")
        assert "single chain" in printed

    def test_converges_on_survival_table(self, titanic_csv, tmp_path, capsys):
        out = str(tmp_path / "model.json")
        code = main([
            "train", titanic_csv, "--label", "survived", "--components", "1",
            "--chains", "2", "--max-iters", "4000", "--check-interval", "1000",
            "--seed", "0", "--threads", "1", "--out", out,
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "converged" in printed and "R-hat" in printed
        assert json.loads(open(out).read())["diagnostics"]["converged"] is True

    def test_nonconvergence_exits_three_but_writes_model(
        self, titanic_csv, tmp_path, capsys
    ):
        out = str(tmp_path / "model.json")
        code = main([
            "train", titanic_csv, "--label", "survived", "--components", "1",
            "--chains", "2", "--max-iters", "400", "--check-interval", "200",
            "--rhat", "1.0000001", "--seed", "0", "--threads", "1", "--out", out,
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert "warning" in captured.err and "R-hat" in captured.err
        payload = json.loads(open(out).read())
        assert payload["kind"] == "model"
        assert payload["diagnostics"]["converged"] is False

    def test_no_rules_is_data_error(self, workspace, capsys):
        # Literal support is measured within each label's rows, so every toy
        # literal scores support 1.0; only an impossible floor empties the pool.
        code = main([
            "train", workspace["toy"], "--label", "label",
            "--s-min", "1.01", "--chains", "1", "--threads", "1",
            "--out", str(workspace["root"] / "never.json"),
        ])
        assert code == 2
        assert "no rules available" in capsys.readouterr().err


class TestPredict:
    def test_stdout_table(self, workspace, capsys):
        code = main(["predict", workspace["model"], workspace["toy"]])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "prediction,p_yes,p_no"
        assert len(lines) == 41  # header + one row per input record
        first = lines[1].split(",")
        assert first[0] in ("yes", "no")
        assert 0.0 <= float(first[1]) <= 1.0

    def test_out_file(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "predictions.csv")
        code = main(["predict", workspace["model"], workspace["toy"], "--out", out])
        assert code == 0
        assert "wrote 40 predictions" in capsys.readouterr().out
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "prediction,p_yes,p_no"
        assert len(lines) == 41

    def test_rows_match_the_per_cell_float_expression(self, workspace, tmp_path):
        held_out = tmp_path / "held_out.csv"
        held_out.write_text("color,size\nred,big\nblue,small\nred,small\nblue,big\n")
        out = tmp_path / "predictions.csv"
        assert main(["predict", workspace["model"], str(held_out), "--out", str(out)]) == 0
        assert out.read_bytes() == rowwise_predictions(workspace["model"], held_out).encode()

    def test_ignored_label_column_may_have_empty_cells(self, workspace, tmp_path, capsys):
        unlabelled = tmp_path / "unlabelled.csv"
        unlabelled.write_text("color,size,label\nred,big,yes\nblue,small,\nred,big,\n")
        assert main(["predict", workspace["model"], str(unlabelled)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        unlabelled.write_text("color,size,label\nred,big,yes\nblue,,\n")
        assert main(["predict", workspace["model"], str(unlabelled)]) == 2
        assert "row 3 has an empty cell in column 'size'" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_piped_input_reports_the_bad_row(self, workspace):
        # A pipe cannot be read twice, yet the line of a bad row is found by
        # reading the rows again.
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        outputs = []
        for text in ("color,size\nred,big\nblue,small\n", "color,size\nred,big\n\nblue,\n"):
            outputs.append(subprocess.run(
                [sys.executable, "-m", "mcarules.cli", "predict", workspace["model"], "/dev/stdin"],
                input=text, env=dict(os.environ, PYTHONPATH=path),
                capture_output=True, text=True, timeout=120,
            ))
        good, bad = outputs
        assert good.returncode == 0 and len(good.stdout.splitlines()) == 3
        assert bad.returncode == 2
        assert "row 4 has an empty cell in column 'size'" in bad.stderr

    def test_byte_order_mark_before_the_header(self, workspace, tmp_path, capsys):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(workspace["toy"]).read_bytes())
        assert main(["predict", workspace["model"], str(marked)]) == 0
        with_mark = capsys.readouterr().out
        assert main(["predict", workspace["model"], workspace["toy"]]) == 0
        assert with_mark == capsys.readouterr().out

    def test_header_only_csv_is_data_error(self, workspace, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text("color,size,label\n")
        assert main(["predict", workspace["model"], str(csv)]) == 2

    def test_garbage_model_is_data_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("{not json")
        assert main(["predict", str(bad), workspace["toy"]]) == 2


@pytest.fixture(scope="module")
def survival_model(titanic_csv, tmp_path_factory):
    """A model trained on the survival table, the table's rows, and its predictions for them."""
    root = tmp_path_factory.mktemp("survival")
    rules, model = str(root / "rules.json"), str(root / "model.json")
    assert main([
        "mine", titanic_csv, "--label", "survived", "--s-min", "0.05", "--mu-min", "0.1",
        "--out", rules,
    ]) == 0
    assert main([
        "train", titanic_csv, "--label", "survived", "--rules", rules, "--chains", "2",
        "--max-iters", "1000", "--check-interval", "1000", "--seed", "0", "--threads", "1",
        "--out", model,
    ]) in (0, 3)
    out = root / "all.csv"
    assert main(["predict", model, titanic_csv, "--out", str(out)]) == 0
    with open(titanic_csv, newline="") as fh:
        header, *rows = csv.reader(fh)
    return {
        "model": model, "header": header, "rows": rows,
        "predictions": out.read_text().splitlines(keepends=True),
    }


class TestPredictReadsOnlyTheModelsColumns:
    """Rows give the bytes they get inside the full file, whatever the other rows and columns hold."""

    def run(self, survival_model, tmp_path, header, rows, *flags, command="predict"):
        path = tmp_path / "part.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        out = tmp_path / "out.csv"
        argv = [command, survival_model["model"], str(path), *flags]
        if command == "predict":
            argv += ["--out", str(out)]
        code = main(argv)
        return code, out.read_text().splitlines(keepends=True) if out.exists() else None

    @pytest.mark.parametrize("row", [0, 1000, 2200])
    def test_one_row_file(self, survival_model, tmp_path, row):
        code, lines = self.run(
            survival_model, tmp_path, survival_model["header"], [survival_model["rows"][row]]
        )
        assert code == 0
        assert lines == [survival_model["predictions"][0], survival_model["predictions"][row + 1]]

    def test_rows_of_one_travel_class(self, survival_model, tmp_path):
        rows = survival_model["rows"][:49]
        assert {row[0] for row in rows} == {"1st"}
        code, lines = self.run(survival_model, tmp_path, survival_model["header"], rows)
        assert code == 0
        assert lines == survival_model["predictions"][:50]

    def test_blank_cell_in_a_column_no_rule_reads(self, survival_model, tmp_path):
        header = ["note"] + survival_model["header"]
        rows = [["" if i % 3 else "seen"] + row for i, row in enumerate(survival_model["rows"])]
        code, lines = self.run(survival_model, tmp_path, header, rows)
        assert code == 0
        assert lines == survival_model["predictions"]

    def test_non_numeric_cells_in_a_bins_column_no_rule_reads(self, survival_model, tmp_path):
        header = survival_model["header"] + ["weight"]
        rows = [row + ["n/a" if i % 2 else str(i)] for i, row in enumerate(survival_model["rows"])]
        code, lines = self.run(survival_model, tmp_path, header, rows, "--bins", "weight:2")
        assert code == 0
        assert lines == survival_model["predictions"]

    def evaluated(self, survival_model, tmp_path, rows, capsys):
        capsys.readouterr()
        code, _ = self.run(
            survival_model, tmp_path, survival_model["header"], rows, command="evaluate"
        )
        assert code == 0
        metrics = dict(line.split() for line in capsys.readouterr().out.split("\n\n")[0].splitlines())
        by_row = {tuple(row): line.split(",")[0] for row, line in
                  zip(survival_model["rows"], survival_model["predictions"][1:])}
        hits = sum(by_row[tuple(row)] == row[-1] for row in rows)
        assert metrics["n"] == str(len(rows))
        assert metrics["accuracy"] == f"{hits / len(rows):.4f}"
        return metrics

    def test_evaluate_one_class_holdout(self, survival_model, tmp_path, capsys):
        died = [row for row in survival_model["rows"] if row[-1] == "died"]
        assert "roc_auc" not in self.evaluated(survival_model, tmp_path, died, capsys)

    def test_evaluate_holdout_of_one_travel_class(self, survival_model, tmp_path, capsys):
        rows = survival_model["rows"][:49]
        assert {row[-1] for row in rows} == {"died", "survived"}
        assert "roc_auc" in self.evaluated(survival_model, tmp_path, rows, capsys)

    def test_errors_keep_their_messages(self, survival_model, tmp_path, capsys):
        payload = json.loads(Path(survival_model["model"]).read_text())
        name = min(lit["attribute"] for rule in payload["rules"] for lit in rule)
        pos = survival_model["header"].index(name)
        header, rows = survival_model["header"], survival_model["rows"][::97]
        capsys.readouterr()
        dropped = [[c for j, c in enumerate(row) if j != pos] for row in [header, *rows]]
        assert self.run(survival_model, tmp_path, dropped[0], dropped[1:])[0] == 2
        assert f"error: model references unknown attribute {name!r}" in capsys.readouterr().err
        blank = [row[:pos] + [" "] + row[pos + 1:] if i == 3 else row for i, row in enumerate(rows)]
        assert self.run(survival_model, tmp_path, header, blank)[0] == 2
        assert f"row 5 has an empty cell in column {name!r}" in capsys.readouterr().err
        assert self.run(survival_model, tmp_path, header, rows, "--bins", "weight:2")[0] == 2
        assert "numeric column 'weight' not found in header" in capsys.readouterr().err

    def test_evaluate_unknown_label_keeps_its_message(self, survival_model, tmp_path, capsys):
        rows = [row[:-1] + [["died", "lost", "saved"][i % 3]]
                for i, row in enumerate(survival_model["rows"][::97])]
        capsys.readouterr()
        code, _ = self.run(survival_model, tmp_path, survival_model["header"], rows,
                           command="evaluate")
        assert code == 2
        assert (f"label 'lost' in {tmp_path / 'part.csv'} is unknown to the model "
                "(knows ['survived', 'died'])") in capsys.readouterr().err


class TestZeroRuleModel:
    """A list with no rules, where every chain starts, predicts its default clause everywhere."""

    @pytest.fixture
    def model(self, workspace, tmp_path):
        payload = json.loads(Path(workspace["model"]).read_text())
        payload["rules"], payload["capture_counts"] = [], [[3, 5]]
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_every_row_gets_the_default_clause(self, model, workspace, tmp_path):
        probs = read_model(model).rule_list.clause_probabilities()[0].tolist()
        default = ["no" if probs[1] > probs[0] else "yes", *probs]
        out = tmp_path / "predictions.csv"
        toy = Path(workspace["toy"]).read_text()
        for text, n in [("color,size,label\nred,big,yes\n", 1), (toy, 40)]:
            data = tmp_path / "data.csv"
            data.write_text(text)
            assert main(["predict", model, str(data), "--out", str(out)]) == 0
            assert out.read_text() == csv_text(["prediction", "p_yes", "p_no"], [default] * n)

    @pytest.mark.parametrize("text, message", [
        ("color,size,label\n", "no data rows"),
        ("color,size,label\nred,big,yes\nblue,small\n", "row 3 has 2 cells, expected 3"),
    ], ids=["header-only", "ragged"])
    def test_bad_files_are_data_errors(self, model, tmp_path, capsys, text, message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        assert main(["predict", model, str(data)]) == 2
        assert message in capsys.readouterr().err


def test_predict_calls_each_function_the_benchmark_traces_once(workspace, tmp_path, monkeypatch):
    """``perfbench --trace 1`` wraps these by name, in place and wherever imported, and takes
    medians of their spans, so ``predict`` must call each of them."""
    calls = Counter()
    modules = [m for n, m in sys.modules.items() if n == "mcarules" or n.startswith("mcarules.")]
    for owner, name in [(dataset, "load_feature_csv"), (artifacts.ModelArtifact, "predict_proba"),
                        (artifacts, "write_csv")]:
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for holder in [owner] + [m for m in modules if getattr(m, name, None) is original]:
            monkeypatch.setattr(holder, name, counted)
    out = tmp_path / "predictions.csv"
    assert main(["predict", workspace["model"], workspace["toy"], "--out", str(out)]) == 0
    assert calls == {"load_feature_csv": 1, "predict_proba": 1, "write_csv": 1}


CATEGORIES = ["a", "b", "c"]
NEW_CELLS = ["zz", " b ", "c,d", 'q"t', "é", ""]


@st.composite
def predict_cases(draw):
    """A training table, rules drawn from its literals, and a file to predict on."""
    n_attributes = draw(st.integers(1, 3))
    names = [f"x{j}" for j in range(n_attributes)]
    numeric = draw(st.booleans())
    missing = draw(st.booleans())
    cells = st.sampled_from(CATEGORIES + [""] * missing)
    n_train = draw(st.integers(6, 12))
    train = [[draw(cells) for _ in names] + ([str(draw(st.integers(0, 9)))] if numeric else [])
             + [draw(st.sampled_from(["yes", "no"]))] for _ in range(n_train)]
    columns = names + ["num"] * numeric
    extra = draw(st.lists(st.sampled_from(["note", "y", "weight"]), unique=True, max_size=2))
    header = draw(st.permutations(columns + extra))
    if draw(st.integers(0, 9)) == 0:
        header = header[1:]  # maybe a column the rules read is missing
    new_cells = {
        "num": st.one_of(st.integers(0, 9).map(str), st.sampled_from(["oops", ""])),
        "note": st.sampled_from(["", "n", "m"]),
        "y": st.sampled_from(["yes", "no", ""]),
        "weight": st.sampled_from(["1", "2", "3", "n/a"]),
    }
    new_rows = [[draw(new_cells.get(name, st.sampled_from(CATEGORIES + NEW_CELLS)))
                 for name in header] for _ in range(draw(st.integers(1, 10)))]
    flags = (["--bins", "num:2"] * numeric + ["--bins", "weight:2"] * ("weight" in header)
             + ["--missing-as-category"] * missing)
    return train, columns, header, new_rows, flags, draw(st.randoms())


class TestPredictMatchesRowwise:
    """``predict`` gives the oracle's bytes on every file the oracle accepts."""

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7])
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(case=predict_cases())
    def test_same_bytes(self, tmp_path_factory, chunk_rows, case):
        train, columns, header, new_rows, flags, rnd = case
        root = tmp_path_factory.mktemp("case")
        train_csv, data, out, model = (root / n for n in
                                       ("train.csv", "data.csv", "out.csv", "model.json"))
        with open(train_csv, "w", newline="") as fh:
            csv.writer(fh).writerows([columns + ["y"], *train])
        bins = {"num": 2} if "num" in columns else {}
        missing = "--missing-as-category" in flags
        try:
            ds = load_csv(train_csv, "y", bins, missing)
        except DatasetError:
            assume(False)
        rules = tuple({
            Rule.of([Literal(j, rnd.randrange(ds.schemas[j].n_categories))
                     for j in rnd.sample(range(ds.p), rnd.randint(1, min(2, ds.p)))])
            for _ in range(rnd.randint(0, 3))
        })
        counts = [[rnd.randint(0, 5), rnd.randint(0, 5)] for _ in range(len(rules) + 1)]
        write_model(model, RuleList(rules, counts, [1.0, 0.5]),
                    TrainDiagnostics(True, (), 0, 0.0, 1, 0, 0, 0.0), ds, BrlConfig())
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *new_rows])
        try:
            bins.update({"weight": 2} if "weight" in header else {})
            expected = rowwise_predictions(model, data, bins, missing)
        except ValueError:
            expected = None
        with mock.patch.object(dataset, "CHUNK_ROWS", chunk_rows):
            code = main(["predict", str(model), str(data), "--out", str(out), *flags])
        if expected is not None:
            assert code == 0
            assert out.read_bytes() == expected.encode()


class TestUnreadableCsv:
    """Input the csv module or the UTF-8 decoder refuses is a data error naming the file."""

    OVERSIZED = ("color,size,label\nred,big,yes\nblue," + "x" * 140_000 + ",no\n").encode()
    LATIN_1 = "color,size,label\nred,big,yes\nbleu,caf\u00e9,no\n".encode("latin-1")

    def argv(self, workspace, subcommand, path):
        if subcommand == "mine":
            return ["mine", path, "--label", "label", "--out", path + ".json"]
        return ["predict", workspace["model"], path]

    @pytest.mark.parametrize("subcommand", ["mine", "predict"])
    def test_cell_over_field_limit(self, workspace, tmp_path, capsys, subcommand):
        data = tmp_path / "big.csv"
        data.write_bytes(self.OVERSIZED)
        assert main(self.argv(workspace, subcommand, str(data))) == 2
        err = capsys.readouterr().err
        assert f"{data}: line 3: field larger than field limit" in err

    @pytest.mark.parametrize("subcommand", ["mine", "predict"])
    def test_bytes_not_utf8(self, workspace, tmp_path, capsys, subcommand):
        data = tmp_path / "latin.csv"
        data.write_bytes(self.LATIN_1)
        assert main(self.argv(workspace, subcommand, str(data))) == 2
        assert f"{data}: byte 0xe9 is not UTF-8" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("text, message", [
        (OVERSIZED, "/dev/stdin: line 3: field larger than field limit"),
        (LATIN_1, "/dev/stdin: byte 0xe9 is not UTF-8"),
    ], ids=["oversized", "latin-1"])
    def test_piped_input(self, workspace, text, message):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mcarules.cli", "predict", workspace["model"], "/dev/stdin"],
            input=text, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, timeout=120,
        )
        assert proc.returncode == 2
        assert message in proc.stderr.decode()


class TestJsonAndConfigNotUtf8:
    """A model, rules or config file that is not UTF-8 names the file and the byte."""

    LATIN_1 = '{"kind": "caf\u00e9"}\n'.encode("latin-1")

    def test_render_model(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(self.LATIN_1)
        assert main(["render", str(model)]) == 2
        assert f"{model}: byte 0xe9 is not UTF-8" in capsys.readouterr().err

    def test_train_rules(self, workspace, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_bytes(self.LATIN_1)
        out = tmp_path / "model.json"
        code = main([
            "train", workspace["toy"], "--label", "label", "--rules", str(rules),
            "--threads", "1", "--out", str(out),
        ])
        assert code == 2
        assert f"{rules}: byte 0xe9 is not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_mine_config_is_a_usage_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "mine.cfg"
        cfg.write_bytes("# r\u00e9glages\ntop = 10\n".encode("latin-1"))
        out = tmp_path / "rules.json"
        code = main([
            "mine", workspace["toy"], "--label", "label", "--config", str(cfg),
            "--out", str(out),
        ])
        assert code == 1
        assert f"{cfg}: byte 0xe9 is not UTF-8" in capsys.readouterr().err
        assert not out.exists()


class TestUtf8WhateverTheLocale:
    """Files the package reads or writes are UTF-8, even under an ASCII locale."""

    @staticmethod
    def run_cli(argv, utf8_locale):
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG"))}
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env.update(PYTHONPATH=path, LC_ALL="C", PYTHONCOERCECLOCALE="0")
        env["PYTHONUTF8"] = "1" if utf8_locale else "0"
        return subprocess.run(
            [sys.executable, "-m", "mcarules.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_predict_out_and_config_file_under_ascii_locale(self, tmp_path):
        data = tmp_path / "patients.csv"
        lines = ["color,size,status"]
        for _ in range(10):
            lines += ["red,big,krank-\u00fc", "red,big,krank-\u00fc", "blue,small,gesund",
                      "blue,small,gesund"]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model = str(tmp_path / "model.json")
        assert main([
            "train", str(data), "--label", "status", "--chains", "1",
            "--max-iters", "400", "--check-interval", "200", "--seed", "0",
            "--threads", "1", "--out", model,
        ]) == 0
        cfg = tmp_path / "mine.cfg"
        cfg.write_text("# Schwellen f\u00fcr die Suche\nr-max = 1\n", encoding="utf-8")
        outputs = {}
        for utf8_locale in (True, False):
            predictions = tmp_path / f"predictions_{utf8_locale}.csv"
            rules = tmp_path / f"rules_{utf8_locale}.json"
            for argv in (
                ["predict", model, str(data), "--out", str(predictions)],
                ["mine", str(data), "--label", "status", "--config", str(cfg),
                 "--out", str(rules)],
            ):
                proc = self.run_cli(argv, utf8_locale)
                assert proc.returncode == 0, proc.stderr[-2000:]
            outputs[utf8_locale] = (predictions.read_bytes(), rules.read_bytes())
        assert outputs[False] == outputs[True]
        assert "p_krank-\u00fc".encode() in outputs[False][0]


class TestEvaluate:
    def test_prints_metrics_and_confusion(self, workspace, capsys):
        code = main(["evaluate", workspace["model"], workspace["toy"]])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy  1.0000" in out
        assert "roc_auc" in out and "kappa" in out
        assert "confusion matrix" in out

    def test_writes_metrics_csv(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "metrics.csv")
        code = main(["evaluate", workspace["model"], workspace["toy"], "--out", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "metric,value"
        names = {line.split(",")[0] for line in lines[1:]}
        assert {"n", "accuracy", "roc_auc", "kappa"} <= names
        assert {"confusion_yes_yes", "confusion_yes_no"} <= names

    def test_unknown_label_value_is_data_error(self, workspace, tmp_path, capsys):
        csv = tmp_path / "strange.csv"
        csv.write_text("color,size,label\nred,big,maybe\nblue,small,perhaps\n")
        assert main(["evaluate", workspace["model"], str(csv)]) == 2
        assert "unknown to the model" in capsys.readouterr().err

    def test_rules_file_rejected_as_model(self, workspace, capsys):
        code = main(["evaluate", workspace["rules"], workspace["toy"]])
        assert code == 2
        assert "not a model file" in capsys.readouterr().err


class TestCsvQuoting:
    def test_label_with_comma_round_trips(self, tmp_path, capsys):
        data = tmp_path / "patients.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["color", "size", "status"])
            for _ in range(10):
                writer.writerows([
                    ["red", "big", "sick, severe"], ["red", "big", "sick, severe"],
                    ["blue", "small", "well"], ["blue", "small", "well"],
                ])
        model = str(tmp_path / "model.json")
        assert main([
            "train", str(data), "--label", "status", "--chains", "1",
            "--max-iters", "400", "--check-interval", "200", "--threads", "1",
            "--out", model,
        ]) == 0
        predictions = tmp_path / "predictions.csv"
        assert main(["predict", model, str(data), "--out", str(predictions)]) == 0
        capsys.readouterr()
        assert main(["predict", model, str(data)]) == 0
        printed = capsys.readouterr().out
        assert printed == predictions.read_text()
        rows = list(csv.reader(printed.splitlines()))
        assert rows[0] == ["prediction", "p_sick, severe", "p_well"]
        assert len(rows) == 41
        assert {row[0] for row in rows[1:]} == {"sick, severe", "well"}
        assert all(len(row) == 3 for row in rows)

        metrics = tmp_path / "metrics.csv"
        assert main(["evaluate", model, str(data), "--out", str(metrics)]) == 0
        with open(metrics, newline="") as fh:
            records = list(csv.reader(fh))
        assert all(len(row) == 2 for row in records)
        values = dict(records[1:])
        assert values["accuracy"] == "1.0"
        assert values["confusion_sick, severe_sick, severe"] == "20"
        assert values["confusion_well_well"] == "20"


class TestRender:
    def test_stdout_matches_out_file(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "rules.txt")
        code = main(["render", workspace["model"], "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        text = open(out).read()
        assert printed.startswith(text.rstrip("\n"))
        assert "if " in text and "else " in text


class TestBenchmark:
    def test_small_grid_writes_table(self, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        code = main([
            "benchmark", "--grid", "3", "--n", "60", "--categories", "2",
            "--reps", "1", "--time-budget", "30", "--seed", "0", "--out", out,
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "wrote runtime table" in captured.out
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "attributes,miner,repetition,seconds,status,n_rules"
        assert len(lines) == 3  # one grid point, both miners
        assert {line.split(",")[1] for line in lines[1:]} == {"mca", "apriori"}

    @pytest.mark.parametrize("from_file", [False, True])
    def test_unsigned_reaches_the_miner(self, tmp_path, monkeypatch, capsys, from_file):
        seen = spy_on_mine(monkeypatch, benchmark)
        argv = [
            "benchmark", "--grid", "3", "--n", "60", "--categories", "2",
            "--time-budget", "30", "--out", str(tmp_path / "bench.csv"),
        ]
        if from_file:
            cfg = tmp_path / "bench.cfg"
            cfg.write_text("unsigned = true\n")
            argv += ["--config", str(cfg)]
        else:
            argv.append("--unsigned")
        assert main(argv) == 0
        assert seen and all(config.signed is False for config in seen)

    @pytest.mark.parametrize("flags, budget", [([], 300.0), (["--time-budget", "30"], 30.0)])
    def test_time_budget_reaches_the_baseline(self, tmp_path, monkeypatch, capsys, flags, budget):
        seen = []

        def spy(dataset, s_min, r_max, config):
            seen.append(config)
            return real(dataset, s_min, r_max, config)

        real = benchmark.apriori_mine
        monkeypatch.setattr(benchmark, "apriori_mine", spy)
        argv = ["benchmark", "--grid", "3", "--n", "60", "--out", str(tmp_path / "bench.csv")]
        assert main(argv + flags) == 0
        assert seen and all(config == AprioriConfig(time_budget=budget) for config in seen)
