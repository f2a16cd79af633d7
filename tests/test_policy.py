import numpy as np
import pytest

from oracles import bisect_mixture, rr_chain_oracle, sigmoid
from scorekit import data, policy, synth
from scorekit._math import clip_prob, expit
from scorekit.errors import DataError, NumericError


class StubSurface:
    """Fixed per-case predictions keyed by the first covariate entry."""

    def __init__(self, table, release_probs=None):
        self.table = dict(table)
        self.release_probs = None if release_probs is None else dict(release_probs)

    def predict_both(self, X):
        X = np.atleast_2d(X)
        rel = np.array([self.table[x[0]][0] for x in X])
        wh = np.array([self.table[x[0]][1] for x in X])
        return rel, wh

    def release_prob(self, X):
        X = np.atleast_2d(X)
        return np.array([self.release_probs[x[0]] for x in X])


def case_table(keys, released, outcomes):
    """A CaseTable whose single covariate is each case's key."""
    return policy.CaseTable(
        X=np.asarray(keys, dtype=float)[:, None],
        released=np.asarray(released),
        outcomes=np.asarray(outcomes, dtype=float),
    )


# ---------------------------------------------------------------------------
# Response-surface estimator
# ---------------------------------------------------------------------------


class TestEstimatePolicy:
    def test_five_case_worked_example(self):
        # proposed/observed/outcome plus model estimates (r_release, r_withhold);
        # observed outcomes are used on agreement, model estimates elsewhere:
        # (0 + 1 + 0.7 + 0.3 + 0) / 5 = 0.40
        table = case_table(
            [1, 2, 3, 4, 5],
            [True, False, True, False, True],
            [0, 1, 1, 0, 0],
        )
        proposed = np.array([True, False, False, True, True])
        surface = StubSurface(
            {
                1.0: (0.20, 0.10),
                2.0: (0.80, 0.30),
                3.0: (0.90, 0.70),
                4.0: (0.30, 0.25),
                5.0: (0.20, 0.15),
            }
        )
        est = policy.estimate_policy(table, policy.FixedActionsPolicy(fixed=proposed), surface)
        assert est.value == pytest.approx(0.40, abs=1e-12)
        assert est.action_rate == pytest.approx(3 / 5)
        assert est.method == policy.RESPONSE_SURFACE

    def test_policy_equal_to_observed_collapses_to_empirical_mean(self):
        rng = np.random.default_rng(0)
        drawn = [
            (rng.random() < 0.6, int(rng.random() < 0.3))
            for _ in range(200)
        ]
        table = case_table(range(200), *zip(*drawn))
        surface = StubSurface({float(i): (rng.random(), rng.random()) for i in range(200)})
        observed = table.released
        est = policy.estimate_policy(table, policy.FixedActionsPolicy(fixed=observed), surface)
        assert est.value == pytest.approx(np.mean(table.outcomes), abs=1e-15)

    def test_case_table_rejects_bad_columns(self):
        with pytest.raises(DataError, match="one entry"):
            case_table([1, 2, 3], [True, False], [0, 1, 0])
        with pytest.raises(DataError, match="one entry"):
            policy.CaseTable(X=[[1.0], [2.0]], released=[True, False], outcomes=[0, 1],
                             po_release=[0], po_withhold=[0])
        with pytest.raises(DataError, match="0 or 1"):
            case_table([1, 2], [True, False], [0, 2])


class TestCaseTableLayout:
    def table(self, **layout):
        return policy.CaseTable(
            X=[[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]],
            released=[True, False, True],
            outcomes=[1, 0, 0],
            po_release=[1, 1, 0],
            po_withhold=[0, 0, 1],
            **layout,
        )

    def test_without_names_columns_are_x0_on_and_groups_are_names(self):
        table = self.table()
        assert table.feature_names == ("x0", "x1")
        assert table.column_groups == ("x0", "x1")
        assert self.table(feature_names=["a", "b"]).column_groups == ("a", "b")

    @pytest.mark.parametrize(
        "layout, message",
        [(dict(feature_names=("a", "a")), "unique"),
         (dict(feature_names=("a",)), "one entry per column"),
         (dict(feature_names=("a", "b", "c")), "one entry per column"),
         (dict(column_groups=("g",)), "one entry per column"),
         (dict(feature_names=("a", "b"), column_groups=("g", "g", "g")), "one entry per column")],
    )
    def test_bad_layout_is_data_error(self, layout, message):
        with pytest.raises(DataError, match=message):
            self.table(**layout)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_covariate_too_large_to_standardize_is_named(self):
        with pytest.raises(DataError, match="column 'b' is too large"):
            policy.CaseTable(X=[[1.0, 1e300], [2.0, 0.0]], released=[True, False],
                             outcomes=[0, 1], feature_names=("a", "b"))

    def test_take_keeps_the_layout_and_every_case_column(self):
        table = self.table(feature_names=("a", "b"), column_groups=("g", "g"))
        sub = table.take([2, 0])
        assert (sub.feature_names, sub.column_groups) == (("a", "b"), ("g", "g"))
        for name in ("X", "released", "outcomes", "po_release", "po_withhold"):
            assert np.array_equal(getattr(sub, name), getattr(table, name)[[2, 0]]), name

    def test_released_dataset_needs_a_released_case(self):
        table = policy.CaseTable(X=[[1.0], [2.0]], released=[False, False], outcomes=[0, 1])
        with pytest.raises(DataError, match="no released cases"):
            table.released_dataset()

    def test_cases_from_dataset_keep_its_layout(self):
        ds = data.Dataset(
            feature_names=("a", "b"),
            rows=[[1.0, 0.0], [0.0, 1.0]],
            labels=[0, 1],
            actions=np.array([policy.RELEASE, policy.WITHHOLD]),
            column_groups=("g", "g"),
        )
        table = policy.cases_from_dataset(ds)
        assert (table.feature_names, table.column_groups) == (("a", "b"), ("g", "g"))


class TestFitResponseSurface:
    def test_randomized_action_and_outcome_recovers_base_rate(self):
        rng = np.random.default_rng(2)
        n, q = 20000, 0.37
        X = rng.normal(size=(n, 3))
        released = rng.random(n) < 0.5
        outcomes = (rng.random(n) < q).astype(int)
        cases = policy.CaseTable(X=X, released=released, outcomes=outcomes.astype(float))
        folds = data.kfold(n, 3, seed=0, labels=outcomes)
        surface = policy.fit_response_surface(cases, folds, n_lambda=20)
        r_rel, r_wh = surface.predict_both(X[:500])
        assert np.max(np.abs(r_rel - q)) <= 0.02
        assert np.max(np.abs(r_wh - q)) <= 0.02

    def test_recovers_action_main_effect(self):
        rng = np.random.default_rng(3)
        n, tau = 50000, 0.7
        X = rng.normal(size=(n, 3))
        released = rng.random(n) < sigmoid(0.4 * X[:, 0])
        eta = -1.0 + X @ np.array([0.5, -0.3, 0.0]) + tau * released
        outcomes = (rng.random(n) < sigmoid(eta)).astype(float)
        cases = policy.CaseTable(X=X, released=released, outcomes=outcomes)
        folds = data.kfold(n, 3, seed=1, labels=outcomes.astype(int))
        surface = policy.fit_response_surface(cases, folds, n_lambda=30)
        _, coefs = surface.outcome_path.coefficients_at()
        assert coefs[3] == pytest.approx(tau, abs=0.05)  # action indicator column

    def test_predict_both_matches_the_interaction_design(self, fitted_world):
        cases, surface = fitted_world
        _, coefs = surface.outcome_path.coefficients_at()
        assert np.any(coefs[cases.X.shape[1]:] != 0.0)  # the action terms are in play
        X = np.vstack([cases.X, cases.X[:5]])  # the last five rows repeat the first five
        r_rel, r_wh = surface.predict_both(X)
        for released, r in ((True, r_rel), (False, r_wh)):
            design = policy.surface_design(X, np.full(len(X), released))
            np.testing.assert_allclose(
                r, surface.outcome_path.predict_prob(design), rtol=0, atol=1e-12
            )
            assert np.array_equal(r[-5:], r[:5])

    def test_single_action_data_rejected(self):
        rng = np.random.default_rng(4)
        cases = policy.CaseTable(
            X=rng.normal(size=(40, 2)),
            released=np.full(40, True),
            outcomes=rng.integers(0, 2, 40).astype(float),
        )
        folds = data.kfold(40, 4, seed=0)
        with pytest.raises(DataError, match="one action"):
            policy.fit_response_surface(cases, folds)

    def test_degenerate_all_zero_outcomes_rejected(self):
        rng = np.random.default_rng(5)
        cases = policy.CaseTable(
            X=rng.normal(size=(40, 2)),
            released=rng.random(40) < 0.5,
            outcomes=np.zeros(40),
        )
        folds = data.kfold(40, 4, seed=0)
        with pytest.raises(DataError, match="single class"):
            policy.fit_response_surface(cases, folds)


# ---------------------------------------------------------------------------
# Mixture solves
# ---------------------------------------------------------------------------


class TestSolveGamma:
    def test_symmetric_example(self):
        # s(g) + s(g + log 2) = 1 forces g = -log(2)/2
        g = policy.solve_gamma(0.5, np.log(2.0), 0.5)
        assert g == pytest.approx(-np.log(2.0) / 2.0, abs=1e-10)

    def test_zero_alpha_collapses_to_logit(self):
        for q in (0.1, 0.5, 0.9):
            for p_u in (0.2, 0.7):
                assert policy.solve_gamma(p_u, 0.0, q) == pytest.approx(
                    np.log(q / (1 - q)), abs=1e-9
                )

    def test_vanishing_p_u_limit(self):
        g = policy.solve_gamma(1e-9, 2.0, 0.3)
        assert g == pytest.approx(np.log(0.3 / 0.7), abs=1e-6)

    def test_residuals_below_1e10_randomized(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p_u = float(rng.uniform(0.01, 0.99))
            alpha = float(rng.uniform(-4, 4))
            q = float(rng.uniform(0.01, 0.99))
            g = policy.solve_gamma(p_u, alpha, q)
            resid = (1 - p_u) * sigmoid(g) + p_u * sigmoid(g + alpha) - q
            assert abs(resid) < 1e-10

    def test_agrees_with_bisection_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p_u = float(rng.uniform(0.05, 0.95))
            alpha = float(rng.uniform(-3, 3))
            q = float(rng.uniform(0.05, 0.95))
            assert policy.solve_gamma(p_u, alpha, q) == pytest.approx(
                bisect_mixture(q, p_u, alpha), abs=1e-8
            )

    def test_monotone_in_q(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p_u = float(rng.uniform(0.05, 0.95))
            alpha = float(rng.uniform(-3, 3))
            qs = np.sort(rng.uniform(0.02, 0.98, size=5))
            gs = policy.solve_gamma(p_u, alpha, qs)
            assert np.all(np.diff(gs) > 0)

    def test_q_out_of_range(self):
        with pytest.raises(NumericError):
            policy.solve_gamma(0.5, 1.0, 1.0)


class TestPosteriorU:
    def test_uninformative_when_alpha_zero(self):
        g = policy.solve_gamma(0.3, 0.0, 0.6)
        for released in (True, False):
            assert policy.posterior_u(g, 0.0, 0.3, released) == pytest.approx(0.3)

    def test_update_direction(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p_u = float(rng.uniform(0.05, 0.95))
            alpha = float(rng.uniform(0.1, 3.0))
            q = float(rng.uniform(0.05, 0.95))
            g = policy.solve_gamma(p_u, alpha, q)
            assert policy.posterior_u(g, alpha, p_u, True) > p_u
            assert policy.posterior_u(g, alpha, p_u, False) < p_u

    def test_worked_value(self):
        g = policy.solve_gamma(0.5, np.log(2.0), 0.5)
        post = policy.posterior_u(g, np.log(2.0), 0.5, True)
        assert post == pytest.approx(sigmoid(g + np.log(2.0)), abs=1e-12)
        assert post == pytest.approx(0.5858, abs=2e-4)

    def test_bayes_formula_direct(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            p_u = float(rng.uniform(0.05, 0.95))
            alpha = float(rng.uniform(-3, 3))
            gamma = float(rng.uniform(-3, 3))
            p1, p0 = sigmoid(gamma + alpha), sigmoid(gamma)
            expected_rel = p1 * p_u / (p1 * p_u + p0 * (1 - p_u))
            expected_wh = (1 - p1) * p_u / ((1 - p1) * p_u + (1 - p0) * (1 - p_u))
            assert policy.posterior_u(gamma, alpha, p_u, True) == pytest.approx(expected_rel)
            assert policy.posterior_u(gamma, alpha, p_u, False) == pytest.approx(expected_wh)


class TestSolveBeta:
    def test_zero_delta_collapses_to_logit(self):
        assert policy.solve_beta(0.3, 0.4, 0.0) == pytest.approx(np.log(0.3 / 0.7), abs=1e-9)

    def test_zero_posterior_collapses_to_logit(self):
        assert policy.solve_beta(0.3, 0.0, np.log(3.0)) == pytest.approx(
            np.log(0.3 / 0.7), abs=1e-9
        )

    def test_bisection_cross_check(self):
        b = policy.solve_beta(0.3, 0.4, np.log(3.0))
        assert b == pytest.approx(bisect_mixture(0.3, 0.4, np.log(3.0)), abs=1e-8)
        resid = 0.6 * sigmoid(b) + 0.4 * sigmoid(b + np.log(3.0)) - 0.3
        assert abs(resid) < 1e-10

    def test_residuals_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rhat = float(rng.uniform(0.01, 0.99))
            post = float(rng.uniform(0.0, 1.0))
            delta = float(rng.uniform(-4, 4))
            b = policy.solve_beta(rhat, post, delta)
            resid = (1 - post) * sigmoid(b) + post * sigmoid(b + delta) - rhat
            assert abs(resid) < 1e-10

    def test_boundary_rhat_rejected(self):
        with pytest.raises(NumericError):
            policy.solve_beta(0.0, 0.5, 1.0)


class TestTwoPointMixture:
    @pytest.mark.parametrize(
        "q, p1, shift",
        [(1e-6, 0.3, 50.0), (1e-6, 1.0, 50.0), (1 - 1e-6, 0.3, -50.0), (1 - 1e-6, 1.0, -50.0)],
    )
    def test_root_beyond_60_of_the_origin(self, q, p1, shift):
        # the root lies past [-60, 60]; at shift=+50 the closed form cancels
        expected = bisect_mixture(q, p1, shift)
        assert abs(expected) > 60
        x = policy._solve_two_point_mixture(q, p1, shift)
        assert abs((1 - p1) * sigmoid(x) + p1 * sigmoid(x + shift) - q) <= 1e-10
        assert x == pytest.approx(expected, abs=1e-8)

    def test_unsolvable_entry_raises(self):
        with pytest.raises(NumericError, match="residual"):
            policy._solve_two_point_mixture(np.array([0.3, 0.4]), 0.5, np.array([1.0, np.nan]))

    def test_parameter_column_broadcasts_against_rows(self):
        rng = np.random.default_rng(18)
        q = rng.uniform(0.05, 0.95, size=7)
        p1 = rng.uniform(0.05, 0.95, size=(4, 1))
        shift = rng.uniform(-3, 3, size=(4, 1))
        x = policy._solve_two_point_mixture(q, p1, shift)
        assert x.shape == (4, 7)
        for k in range(4):
            for j in range(7):
                scalar = policy._solve_two_point_mixture(q[j], p1[k, 0], shift[k, 0])
                assert x[k, j] == pytest.approx(scalar, abs=1e-12)


# q near 0 and 1, p1 including both ends, |shift| <= 50: a (p1, shift, q) grid.
# At q = 1e-12 and a large shift the closed form's g cancels to 0 while its
# residual, q, is already below 1e-10.
GRID_Q = np.array([1e-12, 1e-9, 1e-6, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6, 1 - 1e-12])
GRID_P1 = np.array([0.0, 1e-6, 0.05, 0.3, 0.5, 0.95, 1 - 1e-6, 1.0])[:, None, None]
GRID_SHIFT = np.array([-50.0, -20.0, -5.0, -1.0, -0.1, 0.0, 0.1, 1.0, 5.0, 20.0, 50.0])[:, None]


class TestOddsScaleRoot:
    def test_sigmoids_match_expit_of_the_root(self):
        g, s0, s1 = policy._mixture_root(GRID_Q, GRID_P1, GRID_SHIFT)
        x = policy._solve_two_point_mixture(GRID_Q, GRID_P1, GRID_SHIFT)
        assert np.all(np.isfinite(g) & (g > 0))
        assert np.all(np.isfinite(x))
        z = x + GRID_SHIFT
        # expit(x) carries the rounding of x = log(g), about |x| ulp after exp,
        # so the allowance grows with |x|; near the origin it is 2 ulp
        for s, ref, cond in ((s0, expit(x), np.abs(x)), (s1, expit(z), np.abs(x) + np.abs(z))):
            assert np.all(np.abs(s - ref) <= 2.0 * (1.0 + cond) * np.spacing(ref))
        assert np.array_equal(s0, g / (1 + g))

    def test_failed_residual_check_raises(self, monkeypatch):
        def missed(q, p1, shift):
            return np.full(np.broadcast_shapes(*map(np.shape, (q, p1, shift))), np.nan)

        monkeypatch.setattr(policy, "_mixture_closed_form", missed)
        cases, surface = sweep_world("stub", None)
        with pytest.raises(NumericError, match="residual"):
            policy.sensitivity_sweep(cases, sweep_policy("mixed", cases), surface, mixed_regimes())
        with pytest.raises(NumericError, match="residual"):
            policy.solve_gamma(0.5, 1.0, 0.3)


def _logit_grid(n):
    """n targets from 1e-12 to 1 - 1e-12, evenly spaced in log-odds."""
    return expit(np.linspace(-np.log(1e12 - 1), np.log(1e12 - 1), n))


def _shift_grid(n):
    """n shifts evenly spaced in [-50, 50], and +-100 and +-300."""
    return np.concatenate([np.linspace(-50.0, 50.0, n), [-300.0, -100.0, 100.0, 300.0]])


class TestClosedFormRange:
    def test_full_grid_is_solved_by_the_closed_form(self):
        q = _logit_grid(109)
        p1 = np.linspace(0.0, 1.0, 21)[:, None, None]
        shift = _shift_grid(105)[:, None]
        g = policy._mixture_root(q, p1, shift)[0]
        assert g.size == 249_501
        assert np.all(np.isfinite(g) & (g > 0))
        x = np.log(g)
        resid = (1 - p1) * expit(x) + p1 * expit(x + shift) - q
        assert np.max(np.abs(resid)) <= 1e-10

    def test_well_conditioned_roots_match_the_oracle(self):
        q, p1, shift = np.broadcast_arrays(
            _logit_grid(23), np.linspace(0.0, 1.0, 11)[:, None, None], _shift_grid(28)[:, None]
        )
        x = policy._solve_two_point_mixture(q, p1, shift)
        s0, s1 = expit(x), expit(x + shift)
        # where the mixture's slope at the root is small, a residual of 1e-10
        # leaves the root itself undetermined to more than 1e-10
        slope = (1 - p1) * s0 * (1 - s0) + p1 * s1 * (1 - s1)
        well = np.flatnonzero(slope >= 1e-2)
        assert 0.1 * x.size < len(well) < x.size
        errors = [
            abs(x.flat[i] - bisect_mixture(q.flat[i], p1.flat[i], shift.flat[i])) for i in well
        ]
        assert max(errors) <= 1e-10

    @pytest.mark.parametrize("shift", [-350.0, 350.0])
    def test_shifts_of_350_solve(self, shift):
        for q, p1 in ((1e-6, 0.3), (0.3, 0.5), (1 - 1e-6, 1.0)):
            x = policy._solve_two_point_mixture(q, p1, shift)
            assert abs((1 - p1) * expit(x) + p1 * expit(x + shift) - q) <= 1e-10

    @pytest.mark.parametrize(
        "q, p1, shift",
        [(0.3, 0.5, 400.0), (1e-300, 0.5, 300.0)],
        ids=["b-squared-overflows", "root-near-minus-990"],
    )
    def test_beyond_the_range_raises(self, q, p1, shift):
        # past shift 354 b*b overflows; past |x| of 709 the odds g underflow to
        # 0, where the residual, q, can already be below 1e-10
        with pytest.raises(NumericError, match="residual"):
            policy._solve_two_point_mixture(q, p1, shift)

    @pytest.mark.parametrize("shift", [-300.0, 300.0])
    def test_oracle_brackets_roots_beyond_80(self, shift):
        for q, p1 in ((1e-6, 1.0), (1 - 1e-6, 1.0), (0.3, 0.5)):
            x = bisect_mixture(q, p1, shift)
            assert abs((1 - p1) * sigmoid(x) + p1 * sigmoid(x + shift) - q) <= 1e-10


# ---------------------------------------------------------------------------
# Counterfactual chain
# ---------------------------------------------------------------------------


class TestRrCounterfactual:
    def test_zero_deltas_return_surface_estimate(self):
        params = policy.SensitivityParams(
            p_u=0.3, alpha=np.log(2.0), delta_release=0.0, delta_withhold=0.0
        )
        for observed, expected in ((True, 0.22), (False, 0.45)):
            cf = policy.rr_counterfactual(0.45, 0.22, params, observed, 0.6)
            assert cf == pytest.approx(expected, abs=1e-11)

    def test_alpha_zero_counterfactual_independent_of_action(self):
        params = policy.SensitivityParams(
            p_u=0.4, alpha=0.0, delta_release=np.log(2.0), delta_withhold=-np.log(2.0)
        )
        a = policy.rr_counterfactual(0.3, 0.12, params, True, 0.7)
        b = policy.rr_counterfactual(0.3, 0.12, params, False, 0.7)
        # posterior equals prior under alpha=0, so both mixtures reproduce
        # the surface estimate of the other action
        assert a == pytest.approx(0.12, abs=1e-10)
        assert b == pytest.approx(0.3, abs=1e-10)

    def test_fixed_scenario_matches_independent_chain(self):
        params = policy.SensitivityParams(
            p_u=0.3, alpha=np.log(2.0), delta_release=np.log(2.0), delta_withhold=np.log(2.0)
        )
        for observed in (True, False):
            mine = policy.rr_counterfactual(0.15, 0.15, params, observed, 0.69)
            oracle = rr_chain_oracle(
                0.15, 0.15, 0.3, np.log(2.0), np.log(2.0), np.log(2.0), observed, 0.69,
            )
            assert mine == pytest.approx(oracle, abs=1e-8)

    def test_randomized_scenarios_match_independent_chain(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            r_rel = float(rng.uniform(0.02, 0.98))
            r_wh = float(rng.uniform(0.02, 0.98))
            p_u = float(rng.uniform(0.05, 0.95))
            alpha = float(rng.uniform(-2.5, 2.5))
            d_rel = float(rng.uniform(-2.5, 2.5))
            d_wh = float(rng.uniform(-2.5, 2.5))
            q = float(rng.uniform(0.05, 0.95))
            observed = bool(rng.random() < 0.5)
            params = policy.SensitivityParams(
                p_u=p_u, alpha=alpha, delta_release=d_rel, delta_withhold=d_wh
            )
            mine = policy.rr_counterfactual(r_rel, r_wh, params, observed, q)
            oracle = rr_chain_oracle(r_rel, r_wh, p_u, alpha, d_rel, d_wh, observed, q)
            assert mine == pytest.approx(oracle, abs=1e-8)

    def test_vectorized_matches_scalar(self):
        params = policy.SensitivityParams(
            p_u=0.25, alpha=1.1, delta_release=0.6, delta_withhold=-0.4
        )
        r_rel = np.array([0.1, 0.4, 0.7])
        r_wh = np.array([0.2, 0.3, 0.5])
        q = np.array([0.3, 0.6, 0.8])
        released = np.array([True, False, True])
        vec = policy.rr_counterfactual(r_rel, r_wh, params, released, q)
        for i in range(3):
            s = policy.rr_counterfactual(r_rel[i], r_wh[i], params, bool(released[i]), q[i])
            assert vec[i] == pytest.approx(s, abs=1e-12)


def synthetic_cases_and_surface(seed=13, n=400):
    rng = np.random.default_rng(seed)
    keys = np.arange(n, dtype=float)
    released = rng.random(n) < 0.65
    outcomes = (rng.random(n) < 0.25).astype(int)
    predictions = {k: (rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5)) for k in keys}
    qs = {k: rng.uniform(0.3, 0.9) for k in keys}
    return case_table(keys, released, outcomes), StubSurface(predictions, release_probs=qs)


def constant_policy(cases, released):
    """Release every case, or withhold every case."""
    return policy.FixedActionsPolicy(fixed=np.full(len(cases), released))


class TestRrEstimate:
    def test_zero_delta_equals_response_surface_estimate(self):
        cases, surface = synthetic_cases_and_surface()
        pol = constant_policy(cases, True)
        base = policy.estimate_policy(cases, pol, surface)
        for alpha in (np.log(2.0), np.log(3.0), -1.0):
            for p_u in (0.1, 0.5, 0.9):
                params = policy.SensitivityParams(
                    p_u=p_u, alpha=alpha, delta_release=0.0, delta_withhold=0.0
                )
                rr = policy.rr_estimate(cases, pol, surface, params)
                assert abs(rr.value - base.value) < 1e-9
        assert rr.method == policy.ROSENBAUM_RUBIN

    def test_full_agreement_ignores_params(self):
        table, surface = synthetic_cases_and_surface(seed=14)
        pol = policy.FixedActionsPolicy(fixed=table.released)
        vals = set()
        for alpha in (0.5, 2.0):
            params = policy.SensitivityParams(
                p_u=0.3, alpha=alpha, delta_release=1.0, delta_withhold=-1.0
            )
            vals.add(policy.rr_estimate(table, pol, surface, params).value)
        assert len(vals) == 1


class TestSensitivitySweep:
    def test_single_regime_zero_width_at_zero_delta(self):
        cases, surface = synthetic_cases_and_surface(seed=15)
        pol = constant_policy(cases, False)
        params = policy.SensitivityParams(
            p_u=0.5, alpha=1.0, delta_release=0.0, delta_withhold=0.0
        )
        band = policy.sensitivity_sweep(cases, pol, surface, [params])
        assert band.width == pytest.approx(0.0, abs=1e-9)

    def test_baseline_always_inside_band(self):
        cases, surface = synthetic_cases_and_surface(seed=16)
        pol = constant_policy(cases, True)
        regimes = policy.regime_grid(np.log(2.0), [0.2, 0.8], [-np.log(2.0), 0.0, np.log(2.0)])
        band = policy.sensitivity_sweep(cases, pol, surface, regimes)
        assert band.low <= band.baseline <= band.high

    def test_empty_regimes_rejected(self):
        cases, surface = synthetic_cases_and_surface(seed=17)
        with pytest.raises(DataError):
            policy.sensitivity_sweep(cases, constant_policy(cases, True), surface, [])

    def test_regime_grid_size(self):
        regimes = policy.regime_grid(np.log(2.0), [0.1, 0.5, 0.9], [-0.7, 0.0, 0.7])
        assert len(regimes) == 3 * 3 * 3


def mixed_regimes():
    """Two alphas, duplicated regimes, and settings off any grid."""
    log2, log3 = np.log(2.0), np.log(3.0)
    grid = policy.regime_grid(log2, [0.2, 0.7], [-log2, 0.0, log2])
    grid += policy.regime_grid(log3, [0.5], [-log3, log3])
    off_grid = [
        policy.SensitivityParams(p_u=0.33, alpha=-1.2, delta_release=0.4, delta_withhold=-2.0),
        policy.SensitivityParams(p_u=0.9, alpha=0.0, delta_release=-0.3, delta_withhold=1.1),
    ]
    return grid + off_grid + [grid[4], off_grid[0], grid[4]]


@pytest.fixture(scope="module")
def fitted_world():
    table = synth.generate(synth.GeneratorConfig(n=3000, seed=19)).case_table()
    fit = table.take(np.arange(2400))
    folds = data.kfold(len(fit), 3, seed=0, labels=fit.outcomes.astype(int))
    return table.take(np.arange(2400, 2460)), policy.fit_response_surface(fit, folds, n_lambda=10)


def sweep_world(kind, fitted_world):
    if kind == "stub":
        return synthetic_cases_and_surface(seed=20, n=60)
    return fitted_world


def sweep_policy(kind, cases):
    if kind == "agree_all":
        return policy.FixedActionsPolicy(fixed=cases.released)
    if kind in ("release", "withhold"):  # only cases observed under the other action disagree
        return constant_policy(cases, kind == "release")
    flips = np.random.default_rng(21).random(len(cases)) < 0.5
    return policy.FixedActionsPolicy(fixed=cases.released ^ flips)


POLICY_KINDS = ["agree_all", "release", "withhold", "mixed"]


def assert_sweep_matches_chain_oracle(cases, pol, surface):
    regimes = mixed_regimes()[::3]
    band = policy.sensitivity_sweep(cases, pol, surface, regimes)
    agree = pol.released(cases.X) == cases.released
    r_rel, r_wh = (clip_prob(r) for r in surface.predict_both(cases.X))
    q = clip_prob(surface.release_prob(cases.X))
    for params, value in zip(regimes, band.values):
        total = cases.outcomes[agree].sum() + sum(
            rr_chain_oracle(
                r_rel[i], r_wh[i], params.p_u, params.alpha, params.delta_release,
                params.delta_withhold, cases.released[i], q[i],
            )
            for i in np.flatnonzero(~agree)
        )
        assert value == pytest.approx(total / len(cases), abs=1e-8)


class TestSweepEquivalence:
    @pytest.mark.parametrize("surface_kind", ["stub", "fitted"])
    @pytest.mark.parametrize("policy_kind", POLICY_KINDS)
    def test_matches_per_regime_loop(self, fitted_world, surface_kind, policy_kind):
        cases, surface = sweep_world(surface_kind, fitted_world)
        pol = sweep_policy(policy_kind, cases)
        regimes = mixed_regimes()
        band = policy.sensitivity_sweep(cases, pol, surface, regimes)

        prescribed = pol.released(cases.X)
        agree = prescribed == cases.released
        r_rel, r_wh = surface.predict_both(cases.X)
        q = surface.release_prob(cases.X)
        loop = [
            np.mean(np.where(agree, cases.outcomes,
                             policy.rr_counterfactual(r_rel, r_wh, params, cases.released, q)))
            for params in regimes
        ]
        baseline = np.mean(np.where(agree, cases.outcomes, np.where(prescribed, r_rel, r_wh)))
        assert len(band.values) == len(regimes)
        np.testing.assert_allclose(band.values, loop, rtol=0, atol=1e-12)
        assert band.baseline == pytest.approx(baseline, abs=1e-12)
        assert band.action_rate == pytest.approx(np.mean(prescribed), abs=1e-12)
        assert band.low == min(*band.values, band.baseline)
        assert band.high == max(*band.values, band.baseline)
        if policy_kind == "agree_all":
            assert set(band.values) == {band.baseline}

    @pytest.mark.parametrize("surface_kind", ["stub", "fitted"])
    @pytest.mark.parametrize("policy_kind", POLICY_KINDS)
    def test_matches_scalar_chain_oracle(self, fitted_world, surface_kind, policy_kind):
        cases, surface = sweep_world(surface_kind, fitted_world)
        assert_sweep_matches_chain_oracle(cases, sweep_policy(policy_kind, cases), surface)

    @pytest.mark.parametrize("surface_kind", ["stub", "fitted"])
    def test_permuted_regimes_permute_values_bit_for_bit(self, fitted_world, surface_kind):
        cases, surface = sweep_world(surface_kind, fitted_world)
        pol = sweep_policy("mixed", cases)
        regimes = mixed_regimes()
        band = policy.sensitivity_sweep(cases, pol, surface, regimes)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(regimes))
            permuted = policy.sensitivity_sweep(cases, pol, surface, [regimes[i] for i in order])
            assert permuted.values == tuple(band.values[i] for i in order)
            assert (permuted.low, permuted.high, permuted.baseline) == (
                band.low, band.high, band.baseline)

    # the stub world's values over mixed_regimes()[::3], as float.hex, from the
    # sweep that still solved the chain for a branch with no rows
    EMPTY_BRANCH_VALUES = {
        "release": (
            "0x1.8e2ffb89d2ae7p-3", "0x1.87d082ee230bep-3", "0x1.80cb3fe5eb0a6p-3",
            "0x1.91d2990212e0fp-3", "0x1.87d082ee230bep-3", "0x1.7ebb249cf5a1fp-3",
            "0x1.a343a4238d693p-3", "0x1.6e22af93f771ep-3", "0x1.87d082ee230bep-3",
        ),
        "withhold": (
            "0x1.2c580413afefcp-2", "0x1.2c580413afefcp-2", "0x1.2c580413afefcp-2",
            "0x1.269362c328347p-2", "0x1.269362c328347p-2", "0x1.269362c328347p-2",
            "0x1.0d1182723c517p-2", "0x1.6565da3d4b976p-2", "0x1.36be5cd7f2593p-2",
        ),
    }

    @pytest.mark.parametrize("policy_kind", ["release", "withhold"])
    def test_branch_without_rows_is_skipped(self, monkeypatch, policy_kind):
        # releasing (withholding) everyone leaves no disagreeing released (withheld) case
        cases, surface = sweep_world("stub", None)
        rows = []

        def spy(q, *args, **kwargs):
            rows.append(len(q))
            return counterfactual(q, *args, **kwargs)

        counterfactual = policy._counterfactual
        monkeypatch.setattr(policy, "_counterfactual", spy)
        band = policy.sensitivity_sweep(
            cases, sweep_policy(policy_kind, cases), surface, mixed_regimes()[::3])
        assert len(rows) == 1 and rows[0] > 0
        assert tuple(v.hex() for v in band.values) == self.EMPTY_BRANCH_VALUES[policy_kind]

    def test_row_blocks_leave_values_unchanged(self, fitted_world, monkeypatch):
        cases, surface = fitted_world
        pol = sweep_policy("mixed", cases)
        whole = policy.sensitivity_sweep(cases, pol, surface, mixed_regimes()).values
        monkeypatch.setattr(policy, "_SWEEP_BLOCK", 20)  # one or two rows per block
        blocked = policy.sensitivity_sweep(cases, pol, surface, mixed_regimes()).values
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12)


NOT_MASKS = {
    "withhold_array": np.array(["withhold", "withhold"]),
    "action_list": ["release", "withhold"],
    "action_name": "withhold",
    "zero_one": np.array([0, 1]),
}
PARAMS = policy.SensitivityParams(0.3, 0.5, 0.4, -0.4)
TWO_CASES = policy.CaseTable(
    X=[[1.0], [2.0]], released=[True, False], outcomes=[0, 1], po_release=[0, 0], po_withhold=[0, 1]
)
TWO_SURFACE = StubSurface({1.0: (0.2, 0.1), 2.0: (0.3, 0.2)}, release_probs={1.0: 0.5, 2.0: 0.5})


class Returns:
    """A policy whose release mask is whatever it was given."""

    def __init__(self, value):
        self.value = value

    def released(self, X):
        return np.asarray(self.value)


MASK_ENTRIES = {
    "CaseTable": lambda v: policy.CaseTable(X=[[1.0], [2.0]], released=v, outcomes=[0, 1]),
    "FixedActionsPolicy": lambda v: policy.FixedActionsPolicy(fixed=v),
    "posterior_u": lambda v: policy.posterior_u(0.2, 0.5, 0.3, v),
    "rr_counterfactual": lambda v: policy.rr_counterfactual(0.3, 0.2, PARAMS, v, 0.6),
    "estimate_policy": lambda v: policy.estimate_policy(TWO_CASES, Returns(v), TWO_SURFACE),
    "sensitivity_sweep": lambda v: policy.sensitivity_sweep(
        TWO_CASES, Returns(v), TWO_SURFACE, [PARAMS]
    ),
    "oracle_value": lambda v: synth.oracle_value(TWO_CASES, Returns(v)),
}


@pytest.mark.parametrize("entry", sorted(MASK_ENTRIES))
@pytest.mark.parametrize("value", sorted(NOT_MASKS))
def test_non_boolean_mask_is_data_error(entry, value):
    # numpy casts "withhold" to True: a cast would release every case
    with pytest.raises(DataError, match="must be a boolean release mask"):
        MASK_ENTRIES[entry](NOT_MASKS[value])


class TestPolicies:
    def test_scorecard_policy_uses_strict_threshold(self):
        from scorekit import srr

        card = srr.Scorecard(
            entries=(("a", 2), ("b", 3)), weight_bound=3, feature_budget=2, threshold=5.0
        )
        pol = policy.ScorecardPolicy(card=card, feature_names=("a", "b"))
        X = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert pol.released(X).tolist() == [False, True]  # 5 is not < 5

    def test_risk_model_policy(self):
        pol = policy.RiskModelPolicy(
            intercept=0.0, coefficients=np.array([1.0]), threshold=0.5
        )
        X = np.array([[-1.0], [1.0]])
        assert pol.released(X).tolist() == [True, False]

    def test_cases_from_dataset_maps_actions(self):
        ds = data.Dataset(
            feature_names=("x",),
            rows=np.array([[1.0], [2.0]]),
            labels=np.array([0, 1]),
            actions=np.array(["ROR", "BAIL"]),
        )
        table = policy.cases_from_dataset(ds, release_value="ROR")
        assert table.released.tolist() == [True, False]
        assert table.actions.tolist() == [policy.RELEASE, policy.WITHHOLD]
        with pytest.raises(DataError, match="release_value"):
            policy.cases_from_dataset(ds)
        with pytest.raises(DataError, match=r"release value 'ror' is none of .*\['BAIL', 'ROR'\]"):
            policy.cases_from_dataset(ds, release_value="ror")

    def test_case_table_consistency_checks(self):
        with pytest.raises(DataError, match="boolean release mask"):
            case_table([1], ["hold"], [0])
        with pytest.raises(DataError, match="potential outcome"):
            policy.CaseTable(
                X=[[1.0]],
                released=[True],
                outcomes=[0],
                po_release=[1],
                po_withhold=[0],
            )

    def test_scorecard_policy_rejects_layout_missing_a_card_feature(self):
        from scorekit import srr

        card = srr.Scorecard(
            entries=(("a", 2), ("b", 3)), weight_bound=3, feature_budget=2, threshold=5.0
        )
        with pytest.raises(DataError, match="missing scorecard features \\['b'\\]"):
            policy.ScorecardPolicy(card=card, feature_names=("a", "c"))
