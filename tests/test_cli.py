"""End-to-end tests for the command-line pipeline: exit codes and artifacts."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from helpers import write_dataset_csv
from mcarules.artifacts import csv_text, read_model
from mcarules import benchmark, cli
from mcarules.benchmark import synthetic_dataset
from mcarules.brl import BrlConfig
from mcarules.cli import main
from mcarules.dataset import load_feature_csv
from mcarules.datasets import titanic_dataset
from mcarules.miner import MinerConfig

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
        out = tmp_path / "out"
        argv = [subcommand, "--out", str(out)]
        if subcommand != "benchmark":
            argv += [workspace["toy"], "--label", "label"]
        if from_file:
            cfg = tmp_path / "threads.cfg"
            cfg.write_text(f"threads = {value}\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--threads", value]
        assert main(argv) == 1
        assert "--threads" in capsys.readouterr().err
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
        out = tmp_path / "out"
        argv = [arg.format(toy=workspace["toy"]) for arg in argv] + ["--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "attrs]" not in err  # rejected before any benchmark run
        assert not out.exists()

    @pytest.mark.parametrize(
        "algo, flags, message",
        [
            ("apriori", ["--mu-min", "0.9"], "--mu-min"),
            ("apriori", ["--top", "5"], "--top"),
            ("apriori", ["--unsigned"], "--unsigned"),
            ("apriori", ["--components", "1"], "--components"),
            ("apriori", ["--threads", "1"], "--threads"),
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
                    "--label", "label", "--r-max", "1", "--threads", "1",
                    "--out", str(out),
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
        artifact = read_model(workspace["model"])
        probs = artifact.predict_proba(load_feature_csv(held_out))
        expected = csv_text(
            ["prediction"] + [f"p_{name}" for name in artifact.label_names],
            [
                [artifact.label_names[k]] + [float(p) for p in row]
                for k, row in zip(np.argmax(probs, axis=1), probs)
            ],
        )
        assert out.read_bytes() == expected.encode()

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
            "--time-budget", "30", "--threads", "1", "--out", str(tmp_path / "bench.csv"),
        ]
        if from_file:
            cfg = tmp_path / "bench.cfg"
            cfg.write_text("unsigned = true\n")
            argv += ["--config", str(cfg)]
        else:
            argv.append("--unsigned")
        assert main(argv) == 0
        assert seen and all(config.signed is False for config in seen)
