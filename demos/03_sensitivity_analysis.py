"""How much would a hidden covariate change the policy estimate?

The response-surface estimator assumes decisions are ignorable given the
recorded covariates.  Suppose instead an unobserved binary trait u made
decision-makers more lenient AND changed the outcome odds.  Positing the
four parameters (prevalence of u, its log-odds effect on the decision, its
log-odds effects on the outcome under each action), everything else is
pinned by the observed data: the selection intercept comes from the
observed release probability, the posterior of u from Bayes' rule, the
outcome intercepts from the surface estimates, and the adjusted
counterfactual follows.  Sweeping the parameters over a whole regime gives
a band instead of a point.
"""

import numpy as np

from scorekit import data, policy, srr, synth

print(__doc__)

log2, log3 = np.log(2.0), np.log(3.0)

# one worked case first: the chain of solves, by hand
params = policy.SensitivityParams(p_u=0.3, alpha=log2, delta_release=log2, delta_withhold=log2)
q, r_rel = 0.69, 0.15
gamma = policy.solve_gamma(params.p_u, params.alpha, q)
# actions are release flags: True = released, False = withheld
post_rel = policy.posterior_u(gamma, params.alpha, params.p_u, True)
post_wh = policy.posterior_u(gamma, params.alpha, params.p_u, False)
beta = policy.solve_beta(r_rel, post_rel, params.delta_release)
cf = policy.rr_counterfactual(r_rel, 0.09, params, False, q)
print("worked single case (release prob 0.69, surface release-risk 0.15):")
print(f"  selection baseline gamma      = {gamma:+.4f}")
print(f"  Pr(u=1 | released)            = {post_rel:.4f}  (prior {params.p_u})")
print(f"  Pr(u=1 | withheld)            = {post_wh:.4f}")
print(f"  outcome baseline beta         = {beta:+.4f}")
print(f"  adjusted release counterfactual for a withheld case = {cf:.4f} (surface said {r_rel})\n")

# now whole-policy bands over the two standard regimes
table = synth.generate(synth.GeneratorConfig(n=45000, seed=21)).case_table()
half = len(table) // 2
fit_part, eval_part = table.take(np.arange(half)), table.take(np.arange(half, len(table)))
surface = policy.fit_response_surface(
    fit_part, data.kfold(half, 5, seed=0, labels=fit_part.outcomes.astype(int)), n_lambda=40
)

ds = fit_part.released_dataset()
card = srr.build_scorecard(
    ds, k=2, M=10, folds_for_lambda=data.kfold(ds.n, 5, seed=1, labels=ds.labels), n_lambda=40
)

p_grid = [round(0.1 * i, 1) for i in range(1, 10)]
regimes = {
    "odds-2 (alpha=log2, deltas in {-log2, 0, log2})": policy.regime_grid(log2, p_grid, (-log2, 0.0, log2)),
    "odds-3 (alpha=log3, deltas in {-log3, 0, log3})": policy.regime_grid(log3, p_grid, (-log3, 0.0, log3)),
}
for name, grid in regimes.items():
    print(f"regime {name}: {len(grid)} parameter settings")
    print("  thr   release-rate   baseline    band [min, max]    width")
    for thr in (8.5, 10.5, 12.5):
        pol = policy.ScorecardPolicy(card=card, feature_names=table.feature_names, threshold=thr)
        band = policy.sensitivity_sweep(eval_part, pol, surface, grid)
        print(
            f" {thr:5.1f}     {band.action_rate:6.3f}      {band.baseline:7.4f}"
            f"   [{band.low:.4f}, {band.high:.4f}]   {100 * band.width:4.2f}pp"
        )
    print()

print("under odds-2 effects the estimates move by well under a percentage point,")
print("and only about two points even when the hidden trait triples every odds:")
print("the policy comparison survives a fairly influential unobserved trait.")
