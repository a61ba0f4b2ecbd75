"""Dataset helpers that only the tests use: literal masks and text, CSV writing."""

import csv


def literal_mask(dataset, literal):
    """Boolean row mask where the literal holds."""
    return dataset.X[:, literal.attribute] == literal.category


def describe_literal(dataset, literal) -> str:
    schema = dataset.schemas[literal.attribute]
    return f"{schema.name} is {schema.categories[literal.category]}"


def write_dataset_csv(dataset, path) -> None:
    """Write a dataset out as labelled CSV (category labels, not indices)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([s.name for s in dataset.schemas] + [dataset.label_name])
        for i in range(dataset.n):
            row = [dataset.schemas[j].categories[dataset.X[i, j]] for j in range(dataset.p)]
            row.append(dataset.label_names[dataset.Y[i]])
            writer.writerow(row)
