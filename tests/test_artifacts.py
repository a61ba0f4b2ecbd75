"""Tests for artifact serialization: rules, models, CSV tables."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from mcarules.artifacts import (
    ArtifactError,
    atomic_write_text,
    read_model,
    read_rules,
    write_csv,
    write_model,
    write_rules,
)
from mcarules.brl import (
    BrlConfig,
    Evaluator,
    RuleList,
    TrainDiagnostics,
    predict_proba_batch,
    render_rule_list,
)
from mcarules.dataset import AttributeSchema, CategoricalDataset, Literal
from mcarules.miner import MinerConfig, MiningResult, Rule, ScoredRule


def small_dataset():
    schemas = (
        AttributeSchema(name="color", categories=("red", "blue")),
        AttributeSchema(name="size", categories=("s", "m", "l")),
    )
    X = np.array([[0, 0], [0, 1], [1, 2], [1, 0], [0, 2], [1, 1]])
    Y = np.array([0, 0, 1, 1, 0, 1])
    return CategoricalDataset(
        schemas=schemas, X=X, Y=Y, label_names=("no", "yes"), label_name="target"
    )


def small_mining_result():
    r1 = Rule.of([Literal(0, 0)])
    r2 = Rule.of([Literal(0, 1), Literal(1, 2)])
    scored = (
        ScoredRule(rule=r1, label=0, score=0.9, support=0.75),
        ScoredRule(rule=r2, label=1, score=0.7, support=1 / 3),
    )
    return MiningResult(
        rules=scored, per_label=((scored[0],), (scored[1],)), status="ok"
    )


def small_model(dataset):
    rules = (Rule.of([Literal(0, 0)]), Rule.of([Literal(1, 2)]))
    rule_list = RuleList(
        rules=rules,
        capture_counts=Evaluator(dataset, rules, BrlConfig()).capture((0, 1)),
        alpha=np.array([1.0, 1.0]),
    )
    diagnostics = TrainDiagnostics(
        converged=True,
        rhat_history=(1.2, 1.01),
        iterations=2000,
        acceptance_rate=0.4,
        n_chains=2,
        best_chain=1,
        best_iteration=1500,
        best_log_posterior=-12.5,
    )
    return rule_list, diagnostics


class TestRulesRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = small_dataset()
        result = small_mining_result()
        path = tmp_path / "rules.json"
        write_rules(path, result, ds, asdict(MinerConfig()))
        loaded = read_rules(path, ds)
        assert loaded.rules == result.rules
        assert loaded.per_label == result.per_label
        assert loaded.status == "ok"

    def test_bytes_deterministic(self, tmp_path):
        ds = small_dataset()
        result = small_mining_result()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_rules(a, result, ds, asdict(MinerConfig()))
        write_rules(b, result, ds, asdict(MinerConfig()))
        assert a.read_bytes() == b.read_bytes()

    def test_binding_is_by_name(self, tmp_path):
        ds = small_dataset()
        result = small_mining_result()
        path = tmp_path / "rules.json"
        write_rules(path, result, ds, asdict(MinerConfig()))
        # Same names, different column order and category codes.
        shuffled = CategoricalDataset(
            schemas=(
                AttributeSchema(name="size", categories=("l", "s", "m")),
                AttributeSchema(name="color", categories=("blue", "red")),
            ),
            X=np.array([[0, 0], [1, 1], [2, 0]]),
            Y=np.array([0, 1, 0]),
            label_names=("no", "yes"),
        )
        loaded = read_rules(path, shuffled)
        first = loaded.rules[0].rule
        assert first.literals == (Literal(1, 1),)  # color is red

    def test_unknown_category_rejected(self, tmp_path):
        ds = small_dataset()
        result = small_mining_result()
        path = tmp_path / "rules.json"
        write_rules(path, result, ds, asdict(MinerConfig()))
        other = CategoricalDataset(
            schemas=(
                AttributeSchema(name="color", categories=("green", "blue")),
                AttributeSchema(name="size", categories=("s", "m", "l")),
            ),
            X=np.array([[0, 0], [1, 1]]),
            Y=np.array([0, 1]),
            label_names=("no", "yes"),
        )
        with pytest.raises(ArtifactError, match="category"):
            read_rules(path, other)

    def test_label_mismatch_rejected(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "rules.json"
        write_rules(path, small_mining_result(), ds, asdict(MinerConfig()))
        other = CategoricalDataset(
            schemas=ds.schemas,
            X=ds.X,
            Y=ds.Y,
            label_names=("nope", "yep"),
        )
        with pytest.raises(ArtifactError, match="label names"):
            read_rules(path, other)

    @pytest.mark.parametrize("field, value, message", [
        ("label", "maybe", "'maybe' is not in list"),
        ("score", "high", "could not convert string to float: 'high'"),
    ])
    def test_bad_record_value_names_the_file(self, tmp_path, field, value, message):
        ds = small_dataset()
        path = tmp_path / "rules.json"
        write_rules(path, small_mining_result(), ds, asdict(MinerConfig()))
        payload = json.loads(path.read_text())
        payload["rules"][1][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError) as caught:
            read_rules(path, ds)
        assert str(caught.value) == f"{path}: bad rule record: {message}"

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="not a valid"):
            read_rules(path, small_dataset())

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("")
        with pytest.raises(ArtifactError):
            read_rules(path, small_dataset())

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            read_rules(tmp_path / "absent.json", small_dataset())


class TestModelRoundTrip:
    def test_round_trip_predictions_match(self, tmp_path):
        ds = small_dataset()
        rule_list, diagnostics = small_model(ds)
        path = tmp_path / "model.json"
        write_model(path, rule_list, diagnostics, ds, BrlConfig())
        artifact = read_model(path)
        assert artifact.label_names == ("no", "yes")
        assert np.array_equal(artifact.rule_list.capture_counts, rule_list.capture_counts)
        got = artifact.predict_proba(ds)
        want = predict_proba_batch(rule_list, ds.X)
        assert np.array_equal(got, want)
        assert np.array_equal(artifact.predict(ds), np.argmax(want, axis=1))

    def test_diagnostics_preserved(self, tmp_path):
        ds = small_dataset()
        rule_list, diagnostics = small_model(ds)
        path = tmp_path / "model.json"
        write_model(path, rule_list, diagnostics, ds, BrlConfig(n_chains=2))
        artifact = read_model(path)
        assert artifact.diagnostics["converged"] is True
        assert artifact.diagnostics["rhat_history"] == [1.2, 1.01]
        assert artifact.brl_config["n_chains"] == 2

    def test_render_structure(self, tmp_path):
        ds = small_dataset()
        rule_list, diagnostics = small_model(ds)
        path = tmp_path / "model.json"
        write_model(path, rule_list, diagnostics, ds, BrlConfig())
        text = read_model(path).render()
        lines = text.splitlines()
        assert lines[0].startswith("if color is red then ")
        assert lines[1].startswith("else if size is l then ")
        assert lines[2].startswith("else ")
        assert "P = " in lines[0]

    @pytest.mark.parametrize("empty", [False, True])
    def test_render_equals_training_render(self, tmp_path, empty):
        ds = small_dataset()
        rule_list, diagnostics = small_model(ds)
        if empty:
            rule_list = RuleList(
                rules=(),
                capture_counts=[ds.label_counts()],
                alpha=rule_list.alpha,
            )
        path = tmp_path / "model.json"
        write_model(path, rule_list, diagnostics, ds, BrlConfig())
        trained = render_rule_list(rule_list, ds.schemas, ds.label_names)
        assert read_model(path).render() == trained
        assert trained.startswith("always " if empty else "if ")

    def test_unseen_category_matches_nothing(self, tmp_path):
        ds = small_dataset()
        rule_list, diagnostics = small_model(ds)
        path = tmp_path / "model.json"
        write_model(path, rule_list, diagnostics, ds, BrlConfig())
        artifact = read_model(path)
        # "red" missing entirely: first rule dead, second still live.
        other = CategoricalDataset(
            schemas=(
                AttributeSchema(name="color", categories=("blue", "green")),
                AttributeSchema(name="size", categories=("l", "s")),
            ),
            X=np.array([[0, 0], [1, 1]]),
            Y=np.array([0, 1]),
            label_names=("no", "yes"),
        )
        probs = artifact.predict_proba(other)
        expected = artifact.rule_list.clause_probabilities()
        assert np.array_equal(probs[0], expected[1])  # size is l
        assert np.array_equal(probs[1], expected[2])  # default clause

    def test_missing_attribute_rejected_at_predict(self, tmp_path):
        ds = small_dataset()
        rule_list, diagnostics = small_model(ds)
        path = tmp_path / "model.json"
        write_model(path, rule_list, diagnostics, ds, BrlConfig())
        artifact = read_model(path)
        other = CategoricalDataset(
            schemas=(AttributeSchema(name="shade", categories=("a", "b")),),
            X=np.array([[0], [1]]),
            Y=np.array([0, 1]),
            label_names=("no", "yes"),
        )
        with pytest.raises(ArtifactError, match="unknown attribute"):
            artifact.predict_proba(other)

    def test_corrupt_counts_rejected(self, tmp_path):
        ds = small_dataset()
        rule_list, diagnostics = small_model(ds)
        path = tmp_path / "model.json"
        write_model(path, rule_list, diagnostics, ds, BrlConfig())
        payload = json.loads(path.read_text())
        payload["capture_counts"] = [[1, 2]]
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="capture_counts"):
            read_model(path)

    def test_rule_category_absent_from_attributes_rejected(self, tmp_path):
        ds = small_dataset()
        rule_list, diagnostics = small_model(ds)
        path = tmp_path / "model.json"
        write_model(path, rule_list, diagnostics, ds, BrlConfig())
        payload = json.loads(path.read_text())
        payload["rules"][1][0]["category"] = "xl"
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="has no category 'xl'"):
            read_model(path)

    def test_wrong_kind_rejected(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "rules.json"
        write_rules(path, small_mining_result(), ds, asdict(MinerConfig()))
        with pytest.raises(ArtifactError, match="not a model"):
            read_model(path)

    def test_duplicate_label_names_rejected(self, tmp_path):
        # Two labels of one name would write a p_a,p_a prediction header.
        ds = small_dataset()
        rule_list, diagnostics = small_model(ds)
        path = tmp_path / "model.json"
        write_model(path, rule_list, diagnostics, ds, BrlConfig())
        payload = json.loads(path.read_text())
        payload["label_names"] = ["a", "a"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match=r"duplicate label names \['a', 'a'\]"):
            read_model(path)


class TestCsvAndAtomicity:
    def test_write_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 0.5], [2, 0.25]])
        assert path.read_text() == "a,b\n1,0.5\n2,0.25\n"

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "x.txt"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
