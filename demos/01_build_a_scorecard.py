"""Build an integer-weight scorecard from decision data, step by step.

Walks the three stages on a synthetic pretrial cohort: forward stepwise
selection picks the feature groups, an L1-regularized logistic fit with a
cross-validated penalty produces real-valued coefficients, and rescaling
plus rounding turns them into a weighted checklist anyone can apply
mentally.
"""

import numpy as np

from scorekit import data, selection, srr, synth

print(__doc__)

cohort = synth.generate(synth.GeneratorConfig(n=40000, seed=7))
table = cohort.case_table()
ds = table.released_dataset()  # rules are fit where the outcome is observable
print(f"cohort: {cohort.n} cases, rule fit on {ds.n} released cases")
print(f"encoded features: {ds.feature_names}\n")

print("step 1 - select: greedy deviance-minimizing feature groups")
trace = selection.forward_stepwise(ds, k=2, grouped=True)
for name, dev in zip(trace.step_names, trace.step_deviance):
    print(f"  added {name!r:12} -> training deviance {dev:.1f}")

print("\nstep 2 + 3 - regress and round:")
folds = data.kfold(ds.n, 10, seed=1, labels=ds.labels)
card = srr.build_scorecard(ds, k=2, M=10, folds_for_lambda=folds, threshold=10.5)
for (name, w), coef in zip(card.entries, card.raw_coefficients):
    print(f"  {name:15} coefficient {coef:+.3f} -> weight {w:+d}")

print("\nthe finished card:\n")
print(card.render())

print("\napplying it to three defendants:")
for desc, x in [
    ("19 years old, 1 prior failure", {"age_18_20": 1, "priors_1": 1}),
    ("34 years old, 2 prior failures", {"age_31_35": 1, "priors_2": 1}),
    ("55 years old, no priors", {}),
]:
    full = {name: x.get(name, 0.0) for name, _ in card.entries}
    print(f"  {desc:32} score {srr.score(card, full):4.0f} -> {srr.decide(card, full)}")

# the integer weights track the fitted coefficients up to rounding
scaled = np.asarray(card.raw_coefficients) * card.scaling
ws = np.array([w for _, w in card.entries], dtype=float)
print(f"\nmax |scaled coefficient - weight| = {np.max(np.abs(scaled - ws)):.3f} (<= 0.5 by construction)")
