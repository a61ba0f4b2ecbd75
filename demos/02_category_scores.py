"""
Scoring category-label association with correspondence analysis
===============================================================

Fits correspondence analysis to the one-hot indicator of the survival
table and reads off the cosine between each category's coordinates and
each label's coordinates. Cosines near +1 mark categories that co-occur
with a label; near -1, categories that avoid it.
"""

import numpy as np

from mcarules.dataset import Literal
from mcarules.datasets import titanic_dataset
from mcarules.mca import build_indicator, fit, score_table

dataset = titanic_dataset()
indicator = build_indicator(dataset)
print(f"indicator matrix: {indicator.matrix.shape[0]} rows x "
      f"{indicator.n_columns} one-hot columns")

# The full fit keeps every component with a nonzero singular value.
model = fit(indicator)
print(f"components kept: {model.n_components}, "
      f"total inertia: {sum(model.singular_values ** 2):.4f}")

# score_table evaluates every (literal, label) cosine at once.
table = score_table(model, dataset)
print("\nfull-space cosines (these equal the indicator correlations):")
for j, schema in enumerate(dataset.schemas):
    for c, category in enumerate(schema.categories):
        died = table.score(Literal(j, c), 0)
        survived = table.score(Literal(j, c), 1)
        print(f"  {schema.name}={category:<6} died {died:+.3f}  "
              f"survived {survived:+.3f}")

# Truncating to the leading component projects every category onto the
# single dominant axis, so each cosine collapses to the sign of the
# category's alignment with the label there. That separation is what the
# miner's score floor needs on this dataset, where no full-space cosine
# reaches 0.5.
lead_table = score_table(fit(indicator, components=1), dataset)
print("\nleading-component cosines (survived):")
for j, schema in enumerate(dataset.schemas):
    for c, category in enumerate(schema.categories):
        score = lead_table.score(Literal(j, c), 1)
        print(f"  {schema.name}={category:<6} {score:+.3f}")

# Each label's best single-literal score is the seed for the miner's
# pruning bound.
best = np.nanmax(table.scores, axis=0)
print(f"\nbest per-label scores (full space): {np.round(best, 3).tolist()}")
