"""
Mining candidate rules with cosine scores vs. frequency counting
================================================================

Runs both miners on the survival table: the cosine-guided miner prunes
with correspondence-analysis scores, while the level-wise baseline keeps
every itemset frequent enough for some label. Both emit (rule, label, score,
support) records under the same support floor.
"""

from mcarules.apriori import AprioriConfig, apriori_mine
from mcarules.datasets import titanic_dataset
from mcarules.mca import build_indicator, fit
from mcarules.miner import MinerConfig, mine

dataset = titanic_dataset()

# Floors and caps: rules up to 2 literals, kept when they cover at least
# 30% of their label's rows and score at least 0.5 on the leading axis.
config = MinerConfig(r_max=2, s_min=0.3, mu_min=0.5, M=70)
model = fit(build_indicator(dataset), components=1)
result = mine(dataset, model, config)
print(f"cosine-guided miner: {len(result)} rules ({result.status})")
for sr in result.rules:
    literals = " and ".join(
        f"{dataset.schemas[lit.attribute].name}="
        f"{dataset.schemas[lit.attribute].categories[lit.category]}"
        for lit in sr.rule.literals
    )
    label = dataset.label_names[sr.label]
    print(f"  [{label:<8}] {literals:<24} score {sr.score:+.3f} "
          f"support {sr.support:.3f}")

# The frequency baseline scores rules by confidence instead; scores are
# not comparable across the two miners, but supports are.
baseline = apriori_mine(
    dataset, s_min=0.3, r_max=2, config=AprioriConfig(time_budget=60.0)
)
print(f"\nlevel-wise baseline: {len(baseline)} rules ({baseline.status})")
for sr in baseline.rules[:6]:
    literals = " and ".join(
        f"{dataset.schemas[lit.attribute].name}="
        f"{dataset.schemas[lit.attribute].categories[lit.category]}"
        for lit in sr.rule.literals
    )
    label = dataset.label_names[sr.label]
    print(f"  [{label:<8}] {literals:<24} confidence {sr.score:.3f} "
          f"support {sr.support:.3f}")
print("  ...")
