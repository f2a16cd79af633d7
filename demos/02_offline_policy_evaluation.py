"""Estimate what a decision rule WOULD have done, from observed data alone.

The catch with historical decision data: each case shows the outcome under
the action that was taken, never the other one.  The response-surface
estimator fills the gap - where the candidate policy agrees with the
observed action it uses the observed outcome, elsewhere a lasso outcome
model (action included as a predictor, with action-covariate interactions)
supplies the counterfactual.

Because this cohort is synthetic, both potential outcomes are stored, so
the estimate can be checked against the exact value it is trying to reach.
"""

import numpy as np

from scorekit import data, policy, srr, synth

print(__doc__)

# three disjoint folds: construct the rule / fit the surface / evaluate
table = synth.generate(synth.GeneratorConfig(n=45000, seed=11)).case_table()
folds3 = data.kfold(len(table), 3, seed=0, labels=table.outcomes.astype(int))
construct, surface_part, evaluate = (table.take(folds3.test_indices(f)) for f in range(3))

rule_ds = construct.released_dataset()  # the outcome is observable where released
card = srr.build_scorecard(
    rule_ds, k=2, M=10,
    folds_for_lambda=data.kfold(rule_ds.n, 5, seed=1, labels=rule_ds.labels),
    n_lambda=40,
)
print(f"scorecard built on fold 0 ({rule_ds.n} released cases):")
print(card.render())

surf_folds = data.kfold(len(surface_part), 5, seed=2, labels=surface_part.outcomes.astype(int))
surface = policy.fit_response_surface(surface_part, surf_folds, n_lambda=40)
print(f"\nresponse surface fit on fold 1 ({len(surface_part)} cases)")

print(f"status quo: release rate {np.mean(table.released):.2f}, "
      f"adverse rate {table.outcomes.mean():.3f}\n")

print("threshold sweep on fold 2, estimate vs the stored-potential-outcome truth:")
print("  thr   release-rate   estimated   true     error")
for thr in np.arange(4.5, 18.6, 2.0):
    pol = policy.ScorecardPolicy(card=card, feature_names=table.feature_names, threshold=float(thr))
    est = policy.estimate_policy(evaluate, pol, surface)
    truth = synth.oracle_value(evaluate, pol)
    print(
        f" {thr:5.1f}     {est.action_rate:6.3f}      {est.value:7.4f}  {truth.value:7.4f}"
        f"   {abs(est.value - truth.value):7.4f}"
    )

print("\nreleasing more defendants than the status quo while holding the adverse")
print("rate roughly flat is exactly the region these curves make visible.")
