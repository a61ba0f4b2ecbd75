"""
Training a Bayesian rule list and saving it as a standalone artifact
====================================================================

Mines candidate rules from the survival table, samples rule lists with
parallel Metropolis-Hastings chains until the Gelman-Rubin diagnostic
settles, then renders the fitted list and round-trips it through a model
file that binds rules by attribute and category name.
"""

import tempfile
from pathlib import Path

import numpy as np

from mcarules.artifacts import read_model, write_model
from mcarules.brl import BrlConfig, predict_proba_batch, render_rule_list, train
from mcarules.datasets import titanic_dataset
from mcarules.mca import build_indicator, fit
from mcarules.miner import MinerConfig, mine

dataset = titanic_dataset()
mined = mine(
    dataset,
    fit(build_indicator(dataset), components=1),
    MinerConfig(r_max=2, s_min=0.3, mu_min=0.5, M=70),
)
rules = tuple(sr.rule for sr in mined.rules)
print(f"candidate pool: {len(rules)} rules")

# Four chains advance in lockstep segments; after each segment the pooled
# log-posterior traces are checked and sampling stops once R-hat <= 1.05.
config = BrlConfig(
    lambda_=3.0, eta_card=1.0, alpha=1.0,
    n_chains=4, max_iters=50_000, check_interval=1_000,
    rhat_threshold=1.05, seed=0,
)
rule_list, diagnostics = train(dataset, rules, config)
print(f"converged: {diagnostics.converged} after {diagnostics.iterations} "
      f"iterations per chain (R-hat {diagnostics.rhat:.4f})")
print(f"acceptance rate: {diagnostics.acceptance_rate:.3f}")

# The point estimate is the highest-posterior sampled state; its clause
# probabilities come from smoothed capture counts.
print("\n" + render_rule_list(rule_list, dataset.schemas, dataset.label_names))

# Saved models stand alone: literals are stored by name, so the file can
# be applied to any CSV with matching column names.
with tempfile.TemporaryDirectory() as workdir:
    model_path = Path(workdir) / "model.json"
    write_model(model_path, rule_list, diagnostics, dataset, config)
    print(f"\nmodel file: {model_path.stat().st_size} bytes")
    artifact = read_model(model_path)
reloaded = artifact.predict_proba(dataset)
direct = predict_proba_batch(rule_list, dataset.X)
print(f"round trip agrees with in-memory predictions: "
      f"{bool(np.allclose(reloaded, direct))}")
