"""Reading and writing pipeline artifacts.

Artifacts bind literals by attribute and category NAME, not by integer
code, so a saved file stands on its own and can be applied to any dataset
whose columns carry the same names. A literal naming a category the new
dataset never exhibits simply matches no rows.

All writes are atomic (temp file in the target directory, then rename),
and JSON is emitted with sorted keys so identical content is identical
bytes.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from .brl import BrlConfig, RuleList, TrainDiagnostics, render_rule_list
from .dataset import (
    AttributeSchema, CategoricalDataset, FeatureTable, Literal, not_utf8,
)
from .miner import MiningResult, Rule, ScoredRule, rule_mask

FORMAT_VERSION = 1

__all__ = [
    "ArtifactError",
    "ModelArtifact",
    "write_rules",
    "read_rules",
    "write_model",
    "read_model",
    "write_csv",
    "csv_text",
    "atomic_write_text",
]


class ArtifactError(ValueError):
    """An artifact file is missing, malformed, or inconsistent."""


def atomic_write_text(path, text: str) -> None:
    """Write text so readers never observe a half-written file.

    The file gets the permissions a plain ``open`` would give a new one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")  # exclusive: never another writer's file
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_json(path, kind: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ArtifactError(f"cannot read {kind} file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ArtifactError(not_utf8(path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path} is not a valid {kind} file: {exc}") from None
    if not isinstance(payload, dict):
        raise ArtifactError(f"{path} is not a valid {kind} file: expected an object")
    return payload


def _require(payload: dict, key: str, path) -> object:
    if key not in payload:
        raise ArtifactError(f"{path}: missing required field {key!r}")
    return payload[key]


def _schema_records(schemas) -> list[dict]:
    return [
        {"name": s.name, "categories": list(s.categories), "kind": s.kind}
        for s in schemas
    ]


def _schemas_from_records(records, path) -> tuple[AttributeSchema, ...]:
    try:
        return tuple(
            AttributeSchema(
                name=r["name"], categories=tuple(r["categories"]), kind=r["kind"]
            )
            for r in records
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: bad attribute record: {exc}") from None


def _literal_records(rule: Rule, dataset: CategoricalDataset) -> list[dict]:
    out = []
    for lit in rule.literals:
        schema = dataset.schemas[lit.attribute]
        out.append(
            {"attribute": schema.name, "category": schema.categories[lit.category]}
        )
    return out


def _bind_rule(records, schemas, index: dict, path) -> Rule:
    """A rule from name-bound literal records, coded against ``schemas``.

    ``index`` maps each schema's attribute name to its position.
    """
    literals = []
    for rec in records:
        name = rec["attribute"]
        category = rec["category"]
        if name not in index:
            raise ArtifactError(f"{path}: rule references unknown attribute {name!r}")
        categories = schemas[index[name]].categories
        if category not in categories:
            raise ArtifactError(
                f"{path}: attribute {name!r} has no category {category!r}"
            )
        literals.append(Literal(index[name], categories.index(category)))
    try:
        return Rule.of(literals)
    except ValueError as exc:
        raise ArtifactError(f"{path}: bad rule: {exc}") from None


def write_rules(path, result, dataset: CategoricalDataset, config: dict) -> None:
    """Write a mining result with ``config``, the record of the miner's settings."""
    payload = {
        "format": FORMAT_VERSION,
        "kind": "rules",
        "status": result.status,
        "label_name": dataset.label_name,
        "label_names": list(dataset.label_names),
        "attributes": _schema_records(dataset.schemas),
        "miner_config": config,
        "rules": [
            {
                "literals": _literal_records(sr.rule, dataset),
                "label": dataset.label_names[sr.label],
                "score": float(sr.score),
                "support": float(sr.support),
            }
            for sr in result.rules
        ],
    }
    atomic_write_text(path, _dump_json(payload))


def read_rules(path, dataset: CategoricalDataset) -> MiningResult:
    """Load mined rules and bind them to ``dataset`` by name.

    Per-label buckets are rebuilt from the stored union, so the result
    carries exactly the rules the file lists.
    """
    payload = _load_json(path, "rules")
    if payload.get("kind") != "rules":
        raise ArtifactError(f"{path}: not a rules file")
    stored_labels = list(_require(payload, "label_names", path))
    if stored_labels != list(dataset.label_names):
        raise ArtifactError(
            f"{path}: label names {stored_labels} do not match the dataset's "
            f"{list(dataset.label_names)}"
        )
    index = {s.name: j for j, s in enumerate(dataset.schemas)}
    scored = []
    for rec in _require(payload, "rules", path):
        try:
            rule = _bind_rule(rec["literals"], dataset.schemas, index, path)
            label = stored_labels.index(rec["label"])
            scored.append(
                ScoredRule(
                    rule=rule,
                    label=label,
                    score=float(rec["score"]),
                    support=float(rec["support"]),
                )
            )
        except ArtifactError:
            raise
        except (KeyError, TypeError, ValueError) as exc:  # an unknown label, a non-numeric score
            raise ArtifactError(f"{path}: bad rule record: {exc}") from None
    per_label = tuple(
        tuple(sr for sr in scored if sr.label == k)
        for k in range(len(stored_labels))
    )
    return MiningResult(
        rules=tuple(scored),
        per_label=per_label,
        status=str(_require(payload, "status", path)),
    )


@dataclass(frozen=True, eq=False)
class ModelArtifact:
    """A fitted rule list in name-bound form, ready to apply to new data.

    ``rule_list``'s literals are coded against ``attributes``, the schemas
    of the training data; prediction rebinds them by name to each table.
    """

    label_name: str
    label_names: tuple[str, ...]
    attributes: tuple[AttributeSchema, ...]
    rule_list: RuleList
    diagnostics: dict
    brl_config: dict

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

    @property
    def used_attributes(self) -> tuple[AttributeSchema, ...]:
        """The schemas of the attributes the rules test, in attribute order."""
        used = {lit.attribute for rule in self.rule_list.rules for lit in rule.literals}
        return tuple(self.attributes[j] for j in sorted(used))

    def predict_proba(self, table: FeatureTable) -> np.ndarray:
        """First-match clause probabilities for every row of ``table``.

        Each literal is bound once per call to ``table``'s coding by
        attribute and category name; a category the table never exhibits
        becomes code ``n_categories``, which no row holds. Unknown
        attributes are an error since silently skipping a literal would
        change the rule.
        """
        columns = {schema.name: j for j, schema in enumerate(table.schemas)}

        def bind(lit: Literal) -> Literal:
            schema = self.attributes[lit.attribute]
            if schema.name not in columns:
                raise ArtifactError(f"model references unknown attribute {schema.name!r}")
            j = columns[schema.name]
            categories = table.schemas[j].categories
            category = schema.categories[lit.category]
            return Literal(j, categories.index(category) if category in categories
                           else len(categories))

        masks = [rule_mask([bind(lit) for lit in rule.literals], table.X)
                 for rule in self.rule_list.rules]
        return self.rule_list.row_probabilities(masks, table.n)

    def render(self) -> str:
        """The fitted list as if / else-if / else text."""
        return render_rule_list(self.rule_list, self.attributes, self.label_names)


def write_model(
    path,
    rule_list: RuleList,
    diagnostics: TrainDiagnostics,
    dataset: CategoricalDataset,
    config: BrlConfig,
) -> None:
    payload = {
        "format": FORMAT_VERSION,
        "kind": "model",
        "label_name": dataset.label_name,
        "label_names": list(dataset.label_names),
        "attributes": _schema_records(dataset.schemas),
        "rules": [_literal_records(rule, dataset) for rule in rule_list.rules],
        "capture_counts": rule_list.capture_counts.tolist(),
        "alpha": rule_list.alpha.tolist(),
        "diagnostics": asdict(diagnostics),
        "brl_config": asdict(config),
    }
    atomic_write_text(path, _dump_json(payload))


def read_model(path) -> ModelArtifact:
    payload = _load_json(path, "model")
    if payload.get("kind") != "model":
        raise ArtifactError(f"{path}: not a model file")
    label_names = tuple(_require(payload, "label_names", path))
    if len(set(label_names)) != len(label_names):
        raise ArtifactError(f"{path}: duplicate label names {list(label_names)}")
    attributes = _schemas_from_records(_require(payload, "attributes", path), path)
    index = {s.name: j for j, s in enumerate(attributes)}
    rules = []
    for rule_records in _require(payload, "rules", path):
        try:
            rules.append(_bind_rule(rule_records, attributes, index, path))
        except (KeyError, TypeError) as exc:
            raise ArtifactError(f"{path}: bad rule record: {exc}") from None
    try:
        rule_list = RuleList(
            rules=tuple(rules),
            capture_counts=_require(payload, "capture_counts", path),
            alpha=_require(payload, "alpha", path),
        )
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: bad capture_counts or alpha: {exc}") from None
    if rule_list.alpha.size != len(label_names):
        raise ArtifactError(
            f"{path}: capture_counts and alpha need one column per label"
        )
    return ModelArtifact(
        label_name=str(payload.get("label_name", "label")),
        label_names=label_names,
        attributes=attributes,
        rule_list=rule_list,
        diagnostics=dict(_require(payload, "diagnostics", path)),
        brl_config=dict(_require(payload, "brl_config", path)),
    )


def csv_text(header, rows, index=None) -> str:
    """A comma-separated table, each cell quoted only where it needs it.

    Floats are written with ``str``, the shortest text that reads back as
    the same value, so equal values are equal bytes. With ``index``, the
    table's rows are ``rows[i] for i in index``: each of ``rows`` is
    rendered once, however often it is repeated.
    """
    # writerow returns what its file's write returns, and str hands back the line.
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    lines = [writer.writerow(row) for row in rows]
    if index is not None:
        lines = map(lines.__getitem__, index)
    return writer.writerow(header) + "".join(lines)


def write_csv(path, header, rows, index=None) -> None:
    """Write one comma-separated table atomically; ``index`` as in :func:`csv_text`."""
    atomic_write_text(path, csv_text(header, rows, index))
