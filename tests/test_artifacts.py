"""Tests for artifact serialization: rules, models, CSV tables."""

import csv
import io
import json
import os
import stat
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcarules.artifacts import (
    ArtifactError,
    atomic_write_text,
    csv_text,
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
from mcarules.dataset import AttributeSchema, CategoricalDataset, FeatureTable, Literal
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


@st.composite
def rebound_tables(draw):
    """A rule list, its model's schemas, a table naming those columns otherwise, and its recoding.

    The table permutes the model's columns and each column's categories,
    drops some categories, and adds categories and columns the model never
    saw. The recoding is the table's rows coded against the model's schemas,
    where a category the model never saw gets a code no literal holds.
    """
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    schemas = tuple(
        AttributeSchema(name=f"a{j}", categories=tuple(f"c{v}" for v in range(size)))
        for j, size in enumerate(sizes)
    )

    def rule():
        attributes = draw(st.lists(st.integers(0, len(sizes) - 1), min_size=1, max_size=2,
                                   unique=True))
        return Rule.of([Literal(j, draw(st.integers(0, sizes[j] - 1))) for j in attributes])

    rules = tuple(rule() for _ in range(draw(st.integers(0, 3))))
    counts = draw(st.lists(st.lists(st.integers(0, 5), min_size=2, max_size=2),
                           min_size=len(rules) + 1, max_size=len(rules) + 1))
    rule_list = RuleList(rules=rules, capture_counts=counts, alpha=[1.0, 1.0])

    columns = []
    for schema in schemas:
        names = draw(st.permutations(list(schema.categories) + ["n0", "n1"]))
        columns.append(AttributeSchema(schema.name, tuple(names[:draw(st.integers(2, len(names)))])))
    columns += [AttributeSchema(f"x{e}", ("u", "v")) for e in range(draw(st.integers(0, 2)))]
    columns = draw(st.permutations(columns))
    n = draw(st.integers(1, 6))
    X = np.array([[draw(st.integers(0, c.n_categories - 1)) for c in columns] for _ in range(n)])
    table = FeatureTable(schemas=tuple(columns), X=X)

    position = {c.name: j for j, c in enumerate(columns)}

    def recode(row):
        codes = []
        for schema in schemas:
            j = position[schema.name]
            name = columns[j].categories[row[j]]
            codes.append(schema.categories.index(name) if name in schema.categories
                         else schema.n_categories)
        return codes

    return schemas, rule_list, table, np.array([recode(row) for row in X])


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

    @settings(deadline=None)
    @given(case=rebound_tables())
    def test_predict_binds_by_name(self, tmp_path_factory, case):
        schemas, rule_list, table, recoded = case
        model = CategoricalDataset(
            schemas=schemas, X=np.zeros((2, len(schemas))), Y=[0, 1], label_names=("no", "yes")
        )
        _, diagnostics = small_model(small_dataset())
        path = tmp_path_factory.mktemp("model") / "model.json"
        write_model(path, rule_list, diagnostics, model, BrlConfig())
        got = read_model(path).predict_proba(table)
        assert np.array_equal(got, predict_proba_batch(rule_list, recoded))

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


CELL_TEXT = st.text(st.sampled_from(["a", " ", ",", '"', "\r", "\n", "é", "日"]), max_size=4)


@st.composite
def indexed_tables(draw):
    """A header, rows of its width with cells that may need quoting, and an index into the rows."""
    width = draw(st.integers(1, 3))
    cells = st.one_of(CELL_TEXT, st.integers(), st.floats())
    header = draw(st.lists(CELL_TEXT, min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=4))
    index = draw(st.lists(st.integers(0, len(rows) - 1), max_size=8)) if rows else []
    return header, rows, index


class TestCsvAndAtomicity:
    def test_write_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 0.5], [2, 0.25]])
        assert path.read_text() == "a,b\n1,0.5\n2,0.25\n"

    @given(case=indexed_tables())
    @example(case=(["h"], [["a,b"], ['q"t']], []))  # an empty index
    @example(case=(["h"], [["a,b"], ['q"t']], [1, 1, 1]))  # repeats, and an unused row
    @example(case=(["h", "é"], [["l\r\nm", 0.5], ["x", 1]], [1, 0, 1]))
    def test_indexed_rows_are_the_rows_picked_out(self, case):
        header, rows, index = case
        picked = [rows[i] for i in index]
        assert csv_text(header, rows, index) == csv_text(header, picked)
        buffer = io.StringIO()  # the csv module writing every row itself
        csv.writer(buffer, lineterminator="\n").writerows([header, *picked])
        assert csv_text(header, picked) == buffer.getvalue()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_new_files_follow_the_umask(self, tmp_path, umask, mode):
        ds = small_dataset()
        rule_list, diagnostics = small_model(ds)
        model, table = tmp_path / "model.json", tmp_path / "t.csv"
        previous = os.umask(umask)
        try:
            write_model(model, rule_list, diagnostics, ds, BrlConfig())
            write_csv(table, ["a"], [[1]])
        finally:
            os.umask(previous)
        assert stat.S_IMODE(model.stat().st_mode) == mode
        assert stat.S_IMODE(table.stat().st_mode) == mode

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "x.txt"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
