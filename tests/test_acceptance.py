"""Acceptance gate: one test per criterion, each printing a pass line with
its measured values and enforcing the stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines; with plain ``pytest -v`` the test names serve as the lines.
"""

import time

import numpy as np
import pytest

from oracles import (
    auc_brute_force,
    bisect_mixture,
    direct_max_oracle,
    rr_chain_oracle,
    sigmoid,
)
from scorekit import data, glm, metrics, noise, policy, selection, srr, synth
from scorekit.datasets import load_heart


class Stopwatch:
    def __init__(self, budget_s: float):
        self.budget = budget_s
        self.t0 = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def check(self):
        assert self.elapsed < self.budget, (
            f"runtime {self.elapsed:.1f}s exceeded the {self.budget:.0f}s budget"
        )


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------------------
# Shared fixtures: one construction cohort / scorecard, one evaluation world
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bail_card():
    cohort = synth.generate(synth.GeneratorConfig(n=50000, seed=999))
    ds = cohort.case_table().released_dataset()
    folds = data.kfold(ds.n, 5, seed=0, labels=ds.labels)
    card = srr.build_scorecard(ds, k=2, M=10, folds_for_lambda=folds, n_lambda=40)
    return card, cohort.feature_names


@pytest.fixture(scope="module")
def sens_world(bail_card):
    """Surface fitted on one half of a fresh cohort, evaluation on the other."""
    card, names = bail_card
    cohort = synth.generate(synth.GeneratorConfig(n=50000, seed=555))
    table = cohort.case_table()
    half = len(table) // 2
    fit_part, eval_part = table.take(np.arange(half)), table.take(np.arange(half, len(table)))
    folds = data.kfold(half, 3, seed=1, labels=fit_part.outcomes.astype(int))
    surface = policy.fit_response_surface(fit_part, folds, n_lambda=25)
    return card, names, surface, eval_part


def test_criterion_1_theorem_worked_point():
    watch = Stopwatch(10.0)
    analytic = noise.auc_under_noise(0.90, 0.5)
    assert 0.850 <= analytic <= 0.855
    emp, ana, diff = noise.verify_theorem_mc(0.90, 0.5, 100000, seed=0)
    assert diff <= 0.01
    watch.check()
    report(
        f"criterion 1 PASS: analytic={analytic:.4f} in [0.850, 0.855], "
        f"monte-carlo={emp:.4f} (|diff|={diff:.4f} <= 0.01), {watch.elapsed:.1f}s"
    )


def test_criterion_2_five_case_estimator_table():
    watch = Stopwatch(1.0)

    class Fixed:
        def __init__(self, table):
            self.table = table

        def predict_both(self, X):
            rel = np.array([self.table[x[0]][0] for x in np.atleast_2d(X)])
            wh = np.array([self.table[x[0]][1] for x in np.atleast_2d(X)])
            return rel, wh

    cases = policy.CaseTable(
        X=[[1.0], [2.0], [3.0], [4.0], [5.0]],
        released=[True, False, True, False, True],
        outcomes=[0, 1, 1, 0, 0],
    )
    proposed = np.array([True, False, False, True, True])
    surface = Fixed(
        {
            1.0: (0.20, 0.10),
            2.0: (0.80, 0.30),
            3.0: (0.90, 0.70),
            4.0: (0.30, 0.25),
            5.0: (0.20, 0.15),
        }
    )
    est = policy.estimate_policy(cases, policy.FixedActionsPolicy(fixed=proposed), surface)
    assert est.value == pytest.approx(0.40, abs=1e-12)
    watch.check()
    report(f"criterion 2 PASS: five-case estimate = {est.value:.2f} (exactly 0.40), {watch.elapsed:.2f}s")


def test_criterion_3_oracle_consistency_20_seeds(bail_card):
    watch = Stopwatch(120.0)
    card, names = bail_card
    thresholds = [2.5, 4.5, 6.5, 8.5, 10.5, 12.5, 14.5, 16.5, 18.5, 20.5]
    worst = 0.0
    for seed in range(20):
        cohort = synth.generate(synth.GeneratorConfig(n=50000, seed=seed))
        table = cohort.case_table()
        half = len(table) // 2
        fit_part = table.take(np.arange(half))
        eval_part = table.take(np.arange(half, len(table)))
        folds = data.kfold(half, 3, seed=seed, labels=fit_part.outcomes.astype(int))
        surface = policy.fit_response_surface(fit_part, folds, n_lambda=20)
        for thr in thresholds:
            pol = policy.ScorecardPolicy(card=card, feature_names=names, threshold=thr)
            est = policy.estimate_policy(eval_part, pol, surface)
            orc = synth.oracle_value(eval_part, pol)
            worst = max(worst, abs(est.value - orc.value))
    assert worst <= 0.01
    watch.check()
    report(
        f"criterion 3 PASS: max |estimate - oracle| = {worst:.4f} <= 0.01 "
        f"over 20 seeds x 10 thresholds (n=50000), {watch.elapsed:.0f}s"
    )


def test_criterion_4_sensitivity_collapse(sens_world):
    watch = Stopwatch(60.0)
    card, names, surface, eval_part = sens_world
    pol = policy.ScorecardPolicy(card=card, feature_names=names, threshold=10.5)
    base = policy.estimate_policy(eval_part, pol, surface)
    worst = 0.0
    for p_u in np.arange(0.1, 0.91, 0.1):
        params = policy.SensitivityParams(
            p_u=float(p_u), alpha=float(np.log(2.0)), delta_release=0.0, delta_withhold=0.0
        )
        rr = policy.rr_estimate(eval_part, pol, surface, params)
        worst = max(worst, abs(rr.value - base.value))
    assert worst <= 1e-9
    watch.check()
    report(
        f"criterion 4 PASS: max |rr(delta=0) - estimate| = {worst:.2e} <= 1e-9 "
        f"over the alpha=log2 prevalence grid, {watch.elapsed:.0f}s"
    )


def test_criterion_5_band_widths(sens_world):
    watch = Stopwatch(300.0)
    card, names, surface, eval_part = sens_world
    p_grid = [round(0.1 * i, 1) for i in range(1, 10)]
    log2, log3 = float(np.log(2.0)), float(np.log(3.0))
    regime1 = policy.regime_grid(log2, p_grid, (-log2, 0.0, log2))
    regime2 = policy.regime_grid(log3, p_grid, (-log3, 0.0, log3))
    widths1, widths2 = [], []
    for thr in (8.5, 10.5, 12.5):
        pol = policy.ScorecardPolicy(card=card, feature_names=names, threshold=thr)
        widths1.append(policy.sensitivity_sweep(eval_part, pol, surface, regime1).width)
        widths2.append(policy.sensitivity_sweep(eval_part, pol, surface, regime2).width)
    assert max(widths1) <= 0.010
    assert max(widths2) <= 0.020
    watch.check()
    report(
        f"criterion 5 PASS: odds-2 regime bands <= {100 * max(widths1):.2f}pp (cap 1.0pp), "
        f"odds-3 bands <= {100 * max(widths2):.2f}pp (cap 2.0pp) at mid-range thresholds, "
        f"{watch.elapsed:.0f}s"
    )


def test_criterion_6_simple_vs_complex_gap():
    watch = Stopwatch(120.0)
    ds = load_heart()
    folds = data.kfold(ds.n, 10, seed=0, labels=ds.labels)
    sweep = metrics.cv_sweep(
        ds, k_values=[5], M_values=[3], folds=folds, n_lambda=30, inner_folds=5, seed=0
    )
    card_auc = sweep.mean_auc(metrics.SCORECARD, 5, 3)
    lasso_auc = sweep.mean_auc(metrics.LASSO_FULL)
    gap = lasso_auc - card_auc
    assert abs(gap) <= 0.05
    watch.check()
    report(
        f"criterion 6 PASS: scorecard(k=5, M=3) AUC={card_auc:.4f} vs "
        f"full-feature lasso {lasso_auc:.4f} (gap {gap:+.4f}, cap 0.05), {watch.elapsed:.0f}s"
    )


def test_criterion_7_solver_equivalence():
    watch = Stopwatch(60.0)
    rng = np.random.default_rng(77)
    worst_lasso, worst_oracle = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(40, 90))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        eta = rng.normal(scale=0.3) + X @ rng.normal(scale=0.7, size=p)
        y = (rng.random(n) < sigmoid(eta)).astype(float)
        if y.min() == y.max():
            y[0], y[1] = 0.0, 1.0
        mle = glm.fit_logistic(X, y, tol=1e-10)
        path = glm.fit_lasso_path(X, y, n_lambda=60, lambda_min_ratio=1e-6)
        worst_lasso = max(
            worst_lasso,
            float(np.max(np.abs(path.coefficients[-1] - mle.coefficients))),
            abs(path.intercepts[-1] - mle.intercept),
        )
        oracle = direct_max_oracle(X[:, :2] if p > 2 else X, y)
        fit2 = glm.fit_logistic(X[:, :2] if p > 2 else X, y, tol=1e-10)
        worst_oracle = max(
            worst_oracle,
            abs(fit2.intercept - oracle[0]),
            float(np.max(np.abs(fit2.coefficients - oracle[1:]))),
        )
    assert worst_lasso <= 1e-4
    assert worst_oracle <= 1e-4
    watch.check()
    report(
        f"criterion 7 PASS: lasso@~0 vs MLE max diff {worst_lasso:.2e} <= 1e-4; "
        f"MLE vs direct-maximization oracle max diff {worst_oracle:.2e} <= 1e-4, "
        f"{watch.elapsed:.0f}s"
    )


def test_criterion_8_gamma_pipeline():
    watch = Stopwatch(60.0)
    # injected-noise recovery
    rng = np.random.default_rng(8)
    n = 20000
    labels = np.concatenate([np.zeros(n // 2, int), np.ones(n // 2, int)])
    true = np.where(labels == 1, 1.0, -1.0) + rng.normal(0.0, 1.0, n)
    simple = 4.0 * (true + rng.normal(0.0, np.sqrt(0.5), n))
    model = noise.estimate_gamma(true, simple, 4.0, labels)
    assert abs(model.gamma - 0.5) <= 0.05

    # bundled-dataset report
    ds = load_heart()
    folds = data.kfold(ds.n, 10, seed=1, labels=ds.labels)
    card = srr.build_scorecard(ds, k=5, M=3, folds_for_lambda=folds, n_lambda=30)
    true_path = glm.cv_select(ds.rows, ds.labels.astype(float), folds, n_lambda=30)
    heart_model = noise.estimate_gamma(
        true_path.linear_score(ds.rows), card.scores(ds.rows, ds.feature_names),
        card.scaling, ds.labels,
    )
    assert np.isfinite(heart_model.gamma) and heart_model.gamma > 0.0
    watch.check()
    report(
        f"criterion 8 PASS: injected gamma recovered as {model.gamma:.3f} (target 0.5 +- 0.05); "
        f"bundled-dataset (k=5, M=3) gamma = {heart_model.gamma:.3f} "
        f"(reported, not asserted; cross-dataset reference mean for such rules is 0.22), "
        f"{watch.elapsed:.0f}s"
    )


def test_criterion_9_property_suites():
    watch = Stopwatch(300.0)
    rng = np.random.default_rng(9)

    # rank-sum AUC == brute-force pair counting, with ties
    for _ in range(100):
        n = int(rng.integers(5, 50))
        scores = rng.integers(0, 6, n).astype(float)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert metrics.auc(scores, labels) == pytest.approx(
            auc_brute_force(scores, labels), abs=1e-12
        )

    # rescale_round scale-invariance and sign-equivariance
    for _ in range(100):
        coefs = rng.normal(size=int(rng.integers(1, 8)))
        M = int(rng.integers(1, 11))
        c = float(rng.uniform(0.01, 50.0))
        assert np.array_equal(srr.rescale_round(coefs, M), srr.rescale_round(c * coefs, M))
        assert np.array_equal(srr.rescale_round(-coefs, M), -srr.rescale_round(coefs, M))

    # stepwise prefix property
    checked = 0
    while checked < 100:
        n = int(rng.integers(40, 80))
        p = int(rng.integers(3, 6))
        X = rng.normal(size=(n, p))
        y = (rng.random(n) < sigmoid(X @ rng.normal(scale=0.7, size=p))).astype(int)
        if y.min() == y.max():
            continue
        ds = data.Dataset(
            feature_names=tuple(f"f{j}" for j in range(p)), rows=X, labels=y
        )
        k2 = int(rng.integers(2, p + 1))
        k1 = int(rng.integers(1, k2))
        t1 = selection.forward_stepwise(ds, k1, grouped=False)
        t2 = selection.forward_stepwise(ds, k2, grouped=False)
        assert t2.ordered_features[: len(t1.ordered_features)] == t1.ordered_features
        checked += 1

    # mixture-solve residuals below 1e-10, closed form vs bisection below 1e-8
    for _ in range(200):
        p_u = float(rng.uniform(0.02, 0.98))
        alpha = float(rng.uniform(-4, 4))
        q = float(rng.uniform(0.02, 0.98))
        g = policy.solve_gamma(p_u, alpha, q)
        assert abs((1 - p_u) * sigmoid(g) + p_u * sigmoid(g + alpha) - q) < 1e-10
        assert abs(g - bisect_mixture(q, p_u, alpha)) < 1e-8
        rhat = float(rng.uniform(0.02, 0.98))
        post = float(rng.uniform(0.0, 1.0))
        delta = float(rng.uniform(-4, 4))
        b = policy.solve_beta(rhat, post, delta)
        assert abs((1 - post) * sigmoid(b) + post * sigmoid(b + delta) - rhat) < 1e-10

    # estimator collapse identities on randomized stub scenarios
    class Stub:
        def __init__(self, rel, wh, q):
            self.rel, self.wh, self.q = rel, wh, q

        def predict_both(self, X):
            idx = X[:, 0].astype(int)
            return self.rel[idx], self.wh[idx]

        def release_prob(self, X):
            return self.q[X[:, 0].astype(int)]

    for _ in range(100):
        m = int(rng.integers(5, 40))
        drawn = [
            (rng.random() < 0.6, int(rng.random() < 0.3))
            for _ in range(m)
        ]
        released, outcomes = zip(*drawn)
        cases = policy.CaseTable(
            X=np.arange(m, dtype=float)[:, None], released=released, outcomes=outcomes
        )
        stub = Stub(
            rng.uniform(0.05, 0.95, m), rng.uniform(0.05, 0.95, m), rng.uniform(0.05, 0.95, m)
        )
        est_obs = policy.estimate_policy(
            cases, policy.FixedActionsPolicy(fixed=cases.released), stub
        )
        assert est_obs.value == pytest.approx(np.mean(cases.outcomes), abs=1e-15)
        pol = policy.FixedActionsPolicy(fixed=np.full(m, rng.random() < 0.5))
        base = policy.estimate_policy(cases, pol, stub)
        params = policy.SensitivityParams(
            p_u=float(rng.uniform(0.05, 0.95)),
            alpha=float(rng.uniform(-2, 2)),
            delta_release=0.0,
            delta_withhold=0.0,
        )
        rr = policy.rr_estimate(cases, pol, stub, params)
        assert abs(rr.value - base.value) < 1e-9

    watch.check()
    report(
        "criterion 9 PASS: AUC rank-sum vs brute force (100), rescale invariances (100), "
        "stepwise prefix (100), mixture-solve residuals (200), estimator collapse "
        f"identities (100), {watch.elapsed:.0f}s"
    )
