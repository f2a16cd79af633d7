import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import coordinate_descent, deviance, direct_max_oracle, irls, logistic_ll, min_norm_solve
from scorekit import data, glm, policy, synth
from scorekit._math import expit
from scorekit.errors import DataError, NumericError


def random_instance(rng, n=None, p=None):
    n = n or int(rng.integers(30, 80))
    p = p or int(rng.integers(1, 4))
    X = rng.normal(size=(n, p))
    coefs = rng.normal(scale=0.8, size=p)
    eta = rng.normal(scale=0.3) + X @ coefs
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    if y.min() == y.max():  # both classes, else resample label noise
        y[0], y[1] = 0.0, 1.0
    return X, y


class TestFitLogistic:
    def test_intercept_only_closed_form(self):
        X = np.zeros((8, 1))
        y = np.array([1, 0, 0, 0, 1, 0, 0, 0], dtype=float)
        fit = glm.fit_logistic(X, y)
        assert fit.converged
        assert fit.intercept == pytest.approx(np.log(0.25 / 0.75), abs=1e-8)
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-10)

    def test_symmetry_zero_intercept(self):
        X = np.array([0.5, 1.5, 2.5])[:, None]
        y = np.array([1.0, 0.0, 1.0])
        # dataset closed under (x, y) -> (-x, 1-y): MLE intercept must be 0
        fit = glm.fit_logistic(np.vstack([X, -X]), np.concatenate([y, 1 - y]), tol=1e-10)
        assert fit.intercept == pytest.approx(0.0, abs=1e-6)

    def test_matches_direct_maximization_on_small_instance(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(8, 1))
        y = np.array([0, 1, 0, 1, 1, 0, 0, 1], dtype=float)
        fit = glm.fit_logistic(X, y, tol=1e-10)
        oracle = direct_max_oracle(X, y)
        assert fit.intercept == pytest.approx(oracle[0], abs=1e-4)
        assert fit.coefficients[0] == pytest.approx(oracle[1], abs=1e-4)

    def test_separation_raises(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(NumericError, match="separation"):
            glm.fit_logistic(X, y)

    def test_steep_overlapping_fit_is_suspected_separation(self):
        # the classes overlap, so the MLE exists (slope about 6.2), yet the fit
        # passes the divergence bound while still moving: the error says what
        # the rule saw, and does not claim that the MLE does not exist
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3000)
        y = (rng.random(3000) < expit(6 * x)).astype(float)
        with pytest.raises(NumericError, match="separation") as info:
            glm.fit_logistic(x[:, None], y)
        assert str(info.value) == (
            "fitted log-odds passed +-15 while the fit was still moving; "
            "(quasi-)complete separation suspected"
        )

    def test_separation_clamp_returns_unconverged(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        fit = glm.fit_logistic(X, y, on_divergence="clamp")
        assert not fit.converged
        assert -2.0 * fit.log_likelihood < 1e-4

    def test_collinear_columns_raise(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=40)
        X = np.column_stack([x, x])
        y = (rng.random(40) < 0.5).astype(float)
        with pytest.raises(NumericError, match="singular"):
            glm.fit_logistic(X, y)

    def test_collinear_design_is_unfittable(self):
        # x2 = x0 + x1 and a complement 1 - x3: neither is a copy of one column
        rng = np.random.default_rng(5)
        x0, x1 = rng.normal(size=(2, 60))
        x3 = rng.integers(0, 2, 60).astype(float)
        y = draw_labels(rng, x0 - x1 + x3)
        for X in (np.column_stack([x0, x1, x0 + x1]), np.column_stack([x0, x3, 1.0 - x3])):
            with pytest.raises(NumericError, match="singular weighted normal equations"):
                glm.fit_logistic(X, y)
            singular, reduced = glm.fit_logistic_many(X, y, [None, [0, 1]])
            assert isinstance(singular, NumericError) and reduced.converged

    def test_no_column_sets_give_no_fits(self):
        X, y = random_instance(np.random.default_rng(2))
        assert glm.fit_logistic_many(X, y, []) == []

    def test_ll_non_decreasing_across_iterations(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            X, y = random_instance(rng)
            lls = []
            for it in range(1, 8):
                fit = glm.fit_logistic(X, y, max_iter=it, on_divergence="clamp")
                lls.append(fit.log_likelihood)
            assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_gradient_zero_at_mle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X, y = random_instance(rng)
            fit = glm.fit_logistic(X, y, tol=1e-11)
            if not fit.converged:
                continue
            p = 1.0 / (1.0 + np.exp(-(fit.intercept + X @ fit.coefficients)))
            grad = np.concatenate([[np.sum(y - p)], X.T @ (y - p)])
            assert np.max(np.abs(grad)) < 1e-5

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            X, y = random_instance(rng, n=25, p=2)
            theta = rng.normal(scale=0.5, size=3)
            eta = theta[0] + X @ theta[1:]
            p = 1.0 / (1.0 + np.exp(-eta))
            analytic = np.concatenate([[np.sum(y - p)], X.T @ (y - p)])
            h = 1e-6
            for j in range(3):
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                fd = (
                    logistic_ll(tp[0], tp[1:], X, y) - logistic_ll(tm[0], tm[1:], X, y)
                ) / (2 * h)
                assert fd == pytest.approx(analytic[j], rel=1e-5, abs=1e-7)


def separation_instances(rng):
    """(kind, X, y): random tables, completely separated ones and ones whose
    0/1 column x0 quasi-separates y (every x0 = 1 row is positive)."""
    for i in range(30):
        n, p = int(rng.integers(20, 80)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, p))
        kind = ("random", "separated", "quasi_separated")[i % 3]
        if kind == "random":
            y = draw_labels(rng, X @ rng.normal(scale=0.8, size=p))
        elif kind == "separated":
            y = (X @ rng.normal(size=p) + 0.2 > 0).astype(float)
        else:
            X[:, 0] = rng.integers(0, 2, n)
            y = np.where(X[:, 0] == 1, 1.0, rng.random(n) < 0.4)
            y[:2] = 0.0, 1.0
        yield kind, X, y


class TestNewtonMatchesIrls:
    """``fit_logistic`` (Newton steps at lambda = 0) against one-fit IRLS
    with step-halving (``oracles.irls``)."""

    @pytest.mark.parametrize("on_divergence", ["error", "clamp"])
    def test_outcome_clamp_iteration_and_coefficients(self, on_divergence):
        rng = np.random.default_rng(40)
        seen = dict(raised=0, clamped=0, converged=0)
        for kind, X, y in separation_instances(rng):
            fits = []
            for fit in (
                lambda: irls(X, y, clamp=on_divergence == "clamp"),
                lambda: glm.fit_logistic(X, y, on_divergence=on_divergence),
            ):
                try:
                    fits.append(fit())
                except NumericError as exc:
                    fits.append(exc)
            ref, fit = fits
            if isinstance(ref, NumericError):
                assert isinstance(fit, NumericError) and "separation" in str(fit), kind
                seen["raised"] += 1
                continue
            assert not isinstance(fit, NumericError), (kind, fit)
            assert fit.converged == ref.converged, kind
            if not fit.converged:  # clamped at the same step
                assert fit.iterations == ref.iterations, kind
            assert np.max(np.abs(fit.coefficients - ref.coefficients)) <= 1e-6, kind
            assert abs(fit.intercept - ref.intercept) <= 1e-6, kind
            seen["converged" if fit.converged else "clamped"] += 1
        assert seen["converged"] > 0
        assert seen["raised" if on_divergence == "error" else "clamped"] > 0


class TestLassoPath:
    def test_first_grid_point_all_zero(self):
        rng = np.random.default_rng(1)
        X, y = random_instance(rng, n=60, p=3)
        path = glm.fit_lasso_path(X, y, n_lambda=40)
        assert np.all(path.coefficients[0] == 0.0)

    def test_tiny_lambda_matches_irls(self):
        rng = np.random.default_rng(2)
        X, y = random_instance(rng, n=80, p=3)
        mle = glm.fit_logistic(X, y, tol=1e-10)
        path = glm.fit_lasso_path(X, y, n_lambda=60, lambda_min_ratio=1e-6)
        assert np.max(np.abs(path.coefficients[-1] - mle.coefficients)) < 1e-4
        assert abs(path.intercepts[-1] - mle.intercept) < 1e-4

    def test_duplicated_column_shares_weight(self):
        rng = np.random.default_rng(4)
        X, y = random_instance(rng, n=100, p=2)
        Xdup = np.column_stack([X, X[:, 0]])
        path = glm.fit_lasso_path(X, y, n_lambda=30)
        path_dup = glm.fit_lasso_path(Xdup, y, lambda_grid=path.lambda_grid)
        i = 15
        combined = path_dup.coefficients[i][0] + path_dup.coefficients[i][2]
        assert combined == pytest.approx(path.coefficients[i][0], abs=1e-4)
        dev = deviance(path.intercepts[i], path.coefficients[i], X, y)
        dev_dup = deviance(path_dup.intercepts[i], path_dup.coefficients[i], Xdup, y)
        assert dev_dup == pytest.approx(dev, abs=1e-6)

    def test_training_deviance_non_increasing_along_path(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X, y = random_instance(rng, n=70, p=3)
            path = glm.fit_lasso_path(X, y, n_lambda=30)
            devs = [
                deviance(path.intercepts[i], path.coefficients[i], X, y)
                for i in range(path.n_lambda)
            ]
            assert all(b <= a + 1e-7 for a, b in zip(devs, devs[1:]))

    def test_kkt_conditions_along_path(self):
        rng = np.random.default_rng(6)
        X, y = random_instance(rng, n=90, p=4)
        path = glm.fit_lasso_path(X, y, n_lambda=25)
        for i in (0, 8, 16, 24):
            inactive_excess, active_resid = glm.kkt_violation(path, X, y, i)
            assert inactive_excess <= 1e-5
            assert active_resid <= 1e-5

    def test_single_class_rejected(self):
        X = np.ones((10, 1))
        with pytest.raises(DataError, match="single class"):
            glm.fit_lasso_path(X, np.zeros(10))

    def test_non_finite_rejected(self):
        X = np.ones((4, 1))
        X[0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            glm.fit_lasso_path(X, np.array([0.0, 1.0, 0.0, 1.0]))

    def test_json_round_trip(self):
        rng = np.random.default_rng(8)
        X, y = random_instance(rng, n=50, p=2)
        folds = data.kfold(50, 3, seed=0, labels=y)
        path = glm.cv_select(X, y, folds, n_lambda=20)
        back = glm.LassoPath.from_json(path.to_json())
        assert np.array_equal(back.lambda_grid, path.lambda_grid)
        assert np.array_equal(back.coefficients, path.coefficients)
        assert np.array_equal(back.converged, path.converged)
        assert back.converged.dtype == bool
        assert back.selected_index == path.selected_index

    def test_glm_fit_json_round_trip(self):
        rng = np.random.default_rng(12)
        X, y = random_instance(rng, n=60, p=2)
        fit = glm.fit_logistic(X, y)
        back = glm.GlmFit.from_json(fit.to_json())
        assert back.intercept == fit.intercept
        assert np.array_equal(back.coefficients, fit.coefficients)
        assert back.converged == fit.converged
        assert back.log_likelihood == fit.log_likelihood


def cd_only(calls, tol):
    """A batch subproblem solver running coordinate descent alone to ``tol``,
    as the reference; appends the batch size to ``calls`` on every call."""

    def solve(G, h, aug, lam, penalized):
        calls.append(len(aug))
        lam = np.broadcast_to(lam, len(aug))  # one penalty per problem
        return np.array(
            [coordinate_descent(G[k], h[k], aug[k], lam[k], penalized[k, 1:], tol) for k in range(len(aug))]
        )

    return solve


def count_min_norm(monkeypatch):
    """A list that gets, for every ``glm._min_norm`` call, the number of
    problems it solved: the problems that took the rank-rule fallback."""
    calls = []
    min_norm = glm._min_norm

    def spy(G, rhs, on):
        calls.append(len(G))
        return min_norm(G, rhs, on)

    monkeypatch.setattr(glm, "_min_norm", spy)
    return calls


# a warm start that gives the two copies of a duplicated column opposite
# signs, so its active system is inconsistent
OPPOSITE_SIGNS = np.array([[0.0, 0.1, 0.0, 0.0, -0.1]])


def duplicated_column_subproblem(X, y):
    """(G, h, penalized) of the Gram-space subproblem of ``[1, X, X[:, 0]]``
    at the null model, as a batch of one."""
    n = len(y)
    Xa = np.column_stack([np.ones(n), X, X[:, 0]])
    penalized = np.ones((1, Xa.shape[1]), dtype=bool)
    penalized[0, 0] = False
    return (Xa.T @ Xa / n)[None], (Xa.T @ (y - y.mean()) / n)[None], penalized


def assert_subproblem_kkt(G, h, b, lam, penalized, bound=1e-9):
    """``b`` minimizes  b' G b / 2 - h' b + lam * ||b[penalized]||_1  to ``bound``."""
    grad = h - G @ b
    on = penalized & (b != 0.0)
    assert abs(grad[0]) <= bound
    assert np.all(np.abs(grad[on] - lam * np.sign(b[on])) <= bound)
    assert np.all(np.abs(grad[penalized & (b == 0.0)]) <= lam + bound)


def count_capped(monkeypatch):
    """A list that gets, for every active-set solve, the number of its
    problems that ran out of rounds."""
    capped = []
    solve = glm._active_set_solve

    def spy(*args):
        converged = solve(*args)
        capped.append(int(np.sum(~converged)))
        return converged

    monkeypatch.setattr(glm, "_active_set_solve", spy)
    return capped


def draw_labels(rng, eta):
    y = (rng.random(len(eta)) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    y[0], y[1] = 0.0, 1.0
    return y


def solver_designs(rng):
    """(name, X, y) for the active-set solver tests."""
    n, p = 200, 6
    X = (rng.random((n, p)) < rng.uniform(0.1, 0.6, p)).astype(float)
    yield "indicator", X, draw_labels(rng, -0.5 + X @ rng.normal(size=p))
    X = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0, p)
    yield "continuous", X, draw_labels(rng, 0.3 + X @ rng.normal(scale=0.5, size=p))
    # x2 tracks x1 + x3, so it enters first with a positive sign and ends negative
    x1, x3 = rng.normal(size=(2, 400))
    x2 = 0.7 * (x1 + x3) + 0.3 * rng.normal(size=400)
    yield "sign_crossing", np.column_stack([x1, x2, x3]), draw_labels(
        rng, 1.5 * x1 + 1.5 * x3 - 1.2 * x2
    )
    x1 = rng.normal(size=n)
    X = np.column_stack([x1, x1 + 0.1 * rng.normal(size=n), rng.normal(size=(n, 2))])
    yield "near_collinear", X, draw_labels(rng, X @ rng.normal(size=4))
    X = rng.normal(size=(2000, 4))
    yield "rare_positives", X, draw_labels(rng, np.log(0.01) + X @ rng.normal(scale=0.5, size=4))


class TestActiveSetSolver:
    def fit_pair(self, X, y):
        """(active-set path, coordinate-descent-only reference on its grid)."""
        path = glm.fit_lasso_path(X, y, n_lambda=15)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(glm, "_active_set_solve", cd_only(calls, tol=1e-12))
            ref = glm.fit_lasso_path(X, y, lambda_grid=path.lambda_grid, tol=1e-12)
        assert calls, "the reference solver did not run"
        assert path.converged.all() and ref.converged.all()
        for i in range(path.n_lambda):
            inactive_excess, active_resid = glm.kkt_violation(path, X, y, i)
            assert inactive_excess <= 1e-9
            assert active_resid <= 1e-9
        return path, ref

    def test_matches_coordinate_descent_reference(self):
        rng = np.random.default_rng(20)
        crossings = 0
        for _ in range(4):
            for name, X, y in solver_designs(rng):
                path, ref = self.fit_pair(X, y)
                assert np.max(np.abs(path.coefficients - ref.coefficients)) <= 1e-6, name
                assert np.max(np.abs(path.intercepts - ref.intercepts)) <= 1e-6, name
                if name == "sign_crossing":
                    c = path.coefficients[:, 1]
                    crossings += int(np.any(c > 0) and c[-1] < 0)
        assert crossings == 4

    def test_duplicated_column_matches_the_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(4):
            X = rng.normal(size=(200, 4))
            y = draw_labels(rng, X @ rng.normal(size=4))
            X = np.column_stack([X, X[:, 1]])
            path, ref = self.fit_pair(X, y)
            # the split between the two copies is not identified; their sum is
            def fold(c):
                return np.column_stack([c[:, 0], c[:, 1] + c[:, 4], c[:, 2:4]])

            assert np.max(np.abs(fold(path.coefficients) - fold(ref.coefficients))) <= 1e-6
            assert np.max(np.abs(path.intercepts - ref.intercepts)) <= 1e-6

    def test_converged_records_iteration_caps(self, monkeypatch):
        rng = np.random.default_rng(22)
        X, y = random_instance(rng, n=80, p=3)
        assert glm.fit_lasso_path(X, y, n_lambda=10).converged.all()
        capped = glm.fit_lasso_path(X, y, n_lambda=10, max_outer=1)
        assert capped.converged[0] and not capped.converged[1:].all()
        # a subproblem solve that runs out of active-set rounds reports it; one
        # allowed none keeps its warm start (test_dependent_active_sets_do_not_cycle
        # solves this one within the default cap)
        G, h, penalized = duplicated_column_subproblem(X, y)
        monkeypatch.setattr(glm, "_ROUND_CAP", 0)
        aug = OPPOSITE_SIGNS.copy()
        assert glm._active_set_solve(G, h, aug, 0.01, penalized).tolist() == [False]
        assert np.array_equal(aug, OPPOSITE_SIGNS)

    def test_dependent_active_sets_do_not_cycle(self, monkeypatch):
        # two dependent active sets: the copies of a duplicated column given
        # opposite signs, and a duplicated-column path whose dropped copy
        # exceeds lam by rounding once the other copy is active
        rng = np.random.default_rng(22)
        X, y = random_instance(rng, n=80, p=3)
        G, h, penalized = duplicated_column_subproblem(X, y)
        aug = OPPOSITE_SIGNS.copy()
        assert glm._active_set_solve(G, h, aug, 0.01, penalized).all()
        assert_subproblem_kkt(G[0], h[0], aug[0], 0.01, penalized[0])
        solves = []
        solve = glm._active_set_solve

        def spy(G, h, aug, lam, penalized):
            converged = solve(G, h, aug, lam, penalized)
            solves.append((G, h, aug.copy(), lam, penalized, converged))
            return converged

        monkeypatch.setattr(glm, "_active_set_solve", spy)
        rng = np.random.default_rng(21)
        X = rng.normal(size=(200, 4))
        y = draw_labels(rng, X @ rng.normal(size=4))
        glm.fit_lasso_path(np.column_stack([X, X[:, 1]]), y, n_lambda=15)
        for G, h, aug, lam, penalized, converged in solves:
            assert converged.all()
            for k in range(len(aug)):
                assert_subproblem_kkt(G[k], h[k], aug[k], np.broadcast_to(lam, len(aug))[k], penalized[k])

    def test_dependent_fits_meet_kkt_at_the_default_tol(self, monkeypatch):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(200, 4))
        y = draw_labels(rng, X @ rng.normal(size=4))
        fits = [("duplicated_column", np.column_stack([X, X[:, 1]]), y)]
        X = rng.normal(size=(20, 40))
        fits.append(("n_below_p", X, draw_labels(rng, X[:, :3] @ [1.0, -1.0, 0.5])))
        fits.append(("n_below_p_binary", rng.integers(0, 2, (12, 30)) * 1.0, np.arange(12) % 2.0))
        # x0 and a copy of it off by 1e-7 to 1e-9, whose stacked solves are
        # nearly singular.  Seeds 10 and 23: once one copy is active the other
        # enters by a hair and solves to the wrong sign, so it displaces the
        # active copy along the null vector.  Seed 3: both copies enter
        # together and the rank rule calls the system inconsistent, so the
        # iterate moves along its residual until a zero crossing.  Seed 17
        # needs neither move.
        for seed, offset in ((17, 1e-8), (3, 1e-7), (10, 1e-8), (23, 1e-9)):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(80, 4))
            X = np.column_stack([X, X[:, 0] + offset * rng.normal(size=80)])
            fits.append((f"near_copy_{seed}", X, draw_labels(rng, X[:, :4] @ rng.normal(size=4))))
        capped = count_capped(monkeypatch)
        displaced, rays = [], []  # rows per _step call: displaced, moved along a residual
        step = glm._step

        def spy(aug, d, cross, reach):
            if np.ndim(reach) == 0:  # the displacement is the one step with a scalar reach
                displaced.append(len(aug))
            else:
                rays.append(int(np.sum(reach == np.inf)))
            return step(aug, d, cross, reach)

        monkeypatch.setattr(glm, "_step", spy)
        for name, X, y in fits:
            displaced.clear()
            rays.clear()
            path = glm.fit_lasso_path(X, y, n_lambda=20)
            assert not any(capped), name  # no solve ran out of rounds
            assert path.converged.all(), name
            for i in range(path.n_lambda):
                assert max(glm.kkt_violation(path, X, y, i)) <= 1e-9, (name, i)
            if name in ("near_copy_10", "near_copy_23"):
                assert sum(displaced), name
            if name == "near_copy_3":
                assert sum(rays), name

    def test_an_unbounded_ray_stalls_until_the_round_cap(self, monkeypatch):
        # x0 and a copy of it off by 1e-7.  At the grid's last, tiny penalty
        # the rank rule calls a nearly singular system inconsistent and its
        # residual crosses no zero, so the ray is unbounded: the iterate does
        # not move, and the round cap reports that point unconverged
        rng = np.random.default_rng(11)
        X = rng.normal(size=(80, 4))
        X = np.column_stack([X, X[:, 0] + 1e-7 * rng.normal(size=80)])
        y = draw_labels(rng, X[:, :4] @ rng.normal(size=4))
        unbounded = []  # per _step call along residuals: rays that no zero crossing stops
        step = glm._step

        def spy(aug, d, cross, reach):
            t, moved = step(aug, d, cross, reach)
            if np.ndim(reach):  # the displacement is the one step with a scalar reach
                unbounded.append(int(np.sum((reach == np.inf) & (t == np.inf))))
            return t, moved

        monkeypatch.setattr(glm, "_step", spy)
        path = glm.fit_lasso_path(X, y, n_lambda=20, lambda_min_ratio=1e-8)
        assert sum(unbounded)
        assert list(np.flatnonzero(~path.converged)) == [19]
        for i in np.flatnonzero(path.converged):
            assert max(glm.kkt_violation(path, X, y, i)) <= 1e-9, i


def weighted_grams(rng, designs):
    """The weighted Gram ``D' W D / n`` of each design's augmented ``[1, X]``
    at random weights, stacked."""
    grams = []
    for X in designs:
        D = np.column_stack([np.ones(len(X)), X])
        grams.append(D.T @ (D * rng.uniform(0.05, 0.25, len(X))[:, None]) / len(X))
    return np.array(grams)


def random_masks(rng, B, q):
    """Random active masks that always mark the intercept."""
    on = rng.random((B, q)) < 0.7
    on[:, 0] = True
    return on


class TestMinNorm:
    """The rank rule's one fallback against a per-problem pseudo-inverse."""

    @staticmethod
    def assert_matches_pinv(G, rhs, on, rel=1e-8):
        x = glm._min_norm(G, rhs, on)
        assert np.all(x[~on] == 0.0)  # unmarked coordinates come back exactly 0
        for k in range(len(G)):
            ref = min_norm_solve(G[k], rhs[k], on[k])
            assert np.linalg.norm(x[k] - ref) <= rel * np.linalg.norm(ref), k
        return x

    def test_matches_the_pseudo_inverse_on_dependent_blocks(self):
        rng = np.random.default_rng(27)
        for name in ("full_rank", "duplicated", "complement"):
            designs = []
            for _ in range(12):
                X = (rng.random((60, 5)) < 0.4) * 1.0
                if name == "duplicated":
                    X[:, 3] = X[:, 1]
                elif name == "complement":  # with the intercept, columns 1 and 3 are dependent
                    X[:, 3] = 1.0 - X[:, 1]
                designs.append(X)
            G = weighted_grams(rng, designs)
            on = random_masks(rng, len(G), 6)
            self.assert_matches_pinv(G, rng.normal(size=(len(G), 6)), on)
            dependent = on[:, 2] & on[:, 4]
            full = glm._full_rank(G, on)
            if name == "full_rank":
                assert full.all()
            else:  # the dependency counts as zero exactly when both columns are marked
                assert dependent.any() and np.array_equal(full, ~dependent), name

    def test_near_copies_share_the_full_rank_cut(self):
        rng = np.random.default_rng(28)
        offsets = np.repeat([1e-2, 1e-3, 1e-6, 1e-7, 1e-9], 4)
        designs = []
        for offset in offsets:
            X = rng.normal(size=(80, 4))
            designs.append(np.column_stack([X, X[:, 0] + offset * rng.normal(size=80)]))
        G = weighted_grams(rng, designs)
        on = np.ones((len(G), 6), dtype=bool)
        on[::2, 3] = False
        rhs = rng.normal(size=(len(G), 6))
        x = self.assert_matches_pinv(G, rhs, on)
        # a block the rule calls full rank is solved; one it does not keeps the
        # residual of its dropped near-null direction
        resid = np.where(on, (G @ x[:, :, None])[:, :, 0] - rhs, 0.0)
        solved = np.linalg.norm(resid, axis=1) <= 1e-6
        full = glm._full_rank(G, on)
        assert np.array_equal(solved, full)
        assert np.array_equal(full, offsets > 1e-4)

    def test_solve_keeps_each_regular_blocks_lu_answer(self, monkeypatch):
        rng = np.random.default_rng(29)
        designs = [rng.normal(size=(50, 4)) for _ in range(4)]
        designs[2][:, 3] = designs[2][:, 0]  # identical Gram rows: an exactly singular LU
        G = weighted_grams(rng, designs)
        on = random_masks(rng, 4, 5)
        on[2] = True
        rhs = rng.normal(size=(4, 5))
        eye = np.eye(5)
        padded = np.where(on[:, :, None] & on[:, None, :], G, eye)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(padded[2], rhs[2])
        calls = count_min_norm(monkeypatch)
        x = glm._solve(G, rhs, on)
        assert calls == [1]  # only the singular block took the fallback
        for k in (0, 1, 3):
            lu = np.where(on[k], np.linalg.solve(padded[k], np.where(on[k], rhs[k], 0.0)), 0.0)
            assert np.array_equal(x[k], lu), k
        ref = min_norm_solve(G[2], rhs[2], on[2])
        assert np.linalg.norm(x[2] - ref) <= 1e-8 * np.linalg.norm(ref)


def cv_batch(X, y, folds, **kwargs):
    """(cv_select's result, the full-data and fold paths its batch fitted for
    its one column set)."""
    batches = []
    fit_paths = glm._fit_paths

    def spy(*args, **kw):
        batches.append(fit_paths(*args, **kw))
        return batches[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glm, "_fit_paths", spy)
        path = glm.cv_select(X, y, folds, **kwargs)
    (((paths,), _),) = batches
    return path, paths


def assert_same_path(path, solo):
    assert np.max(np.abs(path.coefficients - solo.coefficients)) <= 1e-9
    assert np.max(np.abs(path.intercepts - solo.intercepts)) <= 1e-9
    assert np.array_equal(path.converged, solo.converged)


class TestBatchedPaths:
    def test_batch_matches_solo_fits(self):
        rng = np.random.default_rng(23)
        for _ in range(2):
            for name, X, y in solver_designs(rng):
                folds = data.kfold(len(y), 3, seed=int(rng.integers(100)), labels=y)
                path, (full, *subs) = cv_batch(X, y, folds, n_lambda=12)
                grid = path.lambda_grid
                assert np.array_equal(path.coefficients, full.coefficients)
                solo = glm.fit_lasso_path(X, y, n_lambda=12)
                assert np.array_equal(solo.lambda_grid, grid)
                assert_same_path(full, solo)
                fits = [(full, X, y)]
                devs = np.empty((len(subs), len(grid)))
                for f, sub in enumerate(subs):
                    tr, va = folds.train_indices(f), folds.test_indices(f)
                    assert_same_path(sub, glm.fit_lasso_path(X[tr], y[tr], lambda_grid=grid))
                    fits.append((sub, X[tr], y[tr]))
                    devs[f] = [
                        deviance(sub.intercepts[i], sub.coefficients[i], X[va], y[va])
                        for i in range(len(grid))
                    ]
                # one product per fold scores every penalty as the deviance oracle does
                assert np.max(np.abs(path.cv_mean - devs.mean(axis=0))) <= 1e-12, name
                for fit, Xf, yf in fits:
                    assert fit.converged.all(), name
                    for i in range(len(grid)):
                        assert max(glm.kkt_violation(fit, Xf, yf, i)) <= 1e-9, name

    def test_only_the_dependent_problem_takes_least_squares(self, monkeypatch):
        rng = np.random.default_rng(24)
        n = 240
        X = rng.normal(size=(n, 4))
        y = draw_labels(rng, X @ rng.normal(size=4))
        folds = data.kfold(n, 3, seed=1, labels=y)
        # column 4 copies column 1 except on rows of fold 0's validation
        # part, so only fold 0's training design has a dependent column
        X = np.column_stack([X, X[:, 1]])
        held = folds.test_indices(0)[:12]
        X[held, 4] += rng.normal(size=len(held))
        calls = count_min_norm(monkeypatch)
        capped = count_capped(monkeypatch)
        solo_calls = []
        solos = []
        for rows in [None, *(folds.train_indices(f) for f in range(3))]:
            calls.clear()
            Xr, yr = (X, y) if rows is None else (X[rows], y[rows])
            grid = solos[0].lambda_grid if solos else None
            solos.append(glm.fit_lasso_path(Xr, yr, n_lambda=12, lambda_grid=grid))
            solo_calls.append(sum(calls))
        assert solo_calls[1] > 0 and solo_calls[0] == solo_calls[2] == solo_calls[3] == 0
        calls.clear()
        _, paths = cv_batch(X, y, folds, n_lambda=12)
        assert sum(calls) == solo_calls[1]
        assert capped and not any(capped)  # no solve ran out of rounds
        for path, solo in zip(paths, solos):
            assert_same_path(path, solo)


class TestConstantColumn:
    """A float constant beside a varying column.  The computed mean of
    ``np.full(60, 0.1)`` is one ulp off 0.1, so its sd is ~4e-17, not 0."""

    @staticmethod
    def instance():
        X, y = random_instance(np.random.default_rng(23), n=60, p=1)
        return np.column_stack([X[:, 0], np.full(60, 0.1)]), y

    def test_design_marks_it_constant(self):
        X, _ = self.instance()
        keep = glm._design(X, None)[3]
        assert list(keep) == [True, False]

    def test_fit_logistic_leaves_it_at_zero(self):
        X, y = self.instance()
        X = np.column_stack([X, np.ones(60)])  # a second constant, equal to the intercept
        fit = glm.fit_logistic(X, y)
        reduced = glm.fit_logistic(X[:, :1], y)
        assert fit.converged and list(fit.coefficients[1:]) == [0.0, 0.0]
        assert fit.coefficients[0] == reduced.coefficients[0]
        assert fit.intercept == reduced.intercept

    def test_fits_leave_it_at_zero(self):
        X, y = self.instance()
        path = glm.fit_lasso_path(X, y, n_lambda=20)
        selected = glm.cv_select(X, y, data.kfold(60, 3, seed=0, labels=y), n_lambda=20)
        for fit in (path, selected):
            assert np.all(fit.coefficients[:, 1] == 0.0)
            assert np.all(np.isfinite(fit.intercepts))
            for i in range(fit.n_lambda):
                assert np.all(np.isfinite(glm.kkt_violation(fit, X, y, i)))


class TestOneDesignPerFit:
    """Every column statistic a fit uses comes from :func:`glm._design`."""

    def test_design_refuses_an_overflowing_column(self):
        X = np.random.default_rng(0).normal(size=(200, 3))
        X[4, 1] = 1e300
        for rows in (None, np.arange(0, 200, 2)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match=re.escape("column 'x1' is too large to standardize")):
                    glm._design(X, rows)

    def test_one_design_per_row_set(self, monkeypatch):
        X, y = random_instance(np.random.default_rng(3), n=60, p=3)
        folds = data.kfold(60, 3, seed=0, labels=y)
        path = glm.fit_lasso_path(X, y, n_lambda=5)
        calls = []
        design = glm._design

        def spy(X, rows):
            calls.append(rows)
            return design(X, rows)

        monkeypatch.setattr(glm, "_design", spy)
        fits = {
            "fit_logistic_many": (lambda: glm.fit_logistic_many(X, y, [None, [0, 2]]), []),
            "fit_lasso_path": (lambda: glm.fit_lasso_path(X, y, n_lambda=5), []),
            "cv_select_many": (
                lambda: glm.cv_select_many(X, y, folds, [None, [1]], n_lambda=5),
                [folds.train_indices(f) for f in range(3)],
            ),
            "kkt_violation": (lambda: glm.kkt_violation(path, X, y, 2), []),
        }
        for name, (fit, subsets) in fits.items():
            calls.clear()
            fit()
            assert calls[0] is None, name  # the full rows, once
            assert len(calls) == 1 + len(subsets), name
            assert all(np.array_equal(a, b) for a, b in zip(calls[1:], subsets)), name


def column_set_designs(rng):
    """(name, X, y, column sets) for the batched cross-validation tests."""
    for name, X, y in solver_designs(rng):
        p = X.shape[1]
        yield name, X, y, [None, [0], [2, 0], list(range(p - 1, 0, -1))]
    X, y = random_instance(rng, n=90, p=4)
    X = np.column_stack([X, X[:, 1], np.full(90, 0.1)])  # a copy and a constant
    yield "dependent_and_constant", X, y, [None, [1, 5], [4, 1, 2], [5]]


class TestCvSelectMany:
    def test_each_set_matches_its_own_cv_select(self):
        rng = np.random.default_rng(26)
        for name, X, y, sets in column_set_designs(rng):
            folds = data.kfold(len(y), 3, seed=int(rng.integers(100)), labels=y)
            batch = glm.cv_select_many(X, y, folds, sets, n_lambda=12)
            assert len(batch) == len(sets)
            for cols, path in zip(sets, batch):
                solo = glm.cv_select(X if cols is None else X[:, cols], y, folds, n_lambda=12)
                assert path.selected_index == solo.selected_index, (name, cols)
                assert np.array_equal(path.lambda_grid, solo.lambda_grid), (name, cols)
                assert_same_path(path, solo)
                assert np.max(np.abs(path.cv_mean - solo.cv_mean)) <= 1e-9, (name, cols)

    def test_a_singular_set_sends_only_its_own_problems_to_least_squares(self, monkeypatch):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(240, 4))
        y = draw_labels(rng, X @ rng.normal(size=4))
        X = np.column_stack([X, X[:, 1]])  # column 4 copies column 1
        folds = data.kfold(240, 3, seed=1, labels=y)
        dependent, independent = [0, 1, 4], [0, 2, 3]
        calls = count_min_norm(monkeypatch)
        solo = []
        for cols in (dependent, independent):
            calls.clear()
            glm.cv_select(X[:, cols], y, folds, n_lambda=12)
            solo.append(sum(calls))
        assert solo[0] > 0 and solo[1] == 0
        calls.clear()
        glm.cv_select_many(X, y, folds, [dependent, independent], n_lambda=12)
        assert sum(calls) == solo[0]

    def test_an_unconverged_set_fails_alone(self, monkeypatch):
        rng = np.random.default_rng(12)
        X, y = random_instance(rng, n=80, p=3)
        folds = data.kfold(80, 3, seed=0, labels=y)
        sets = [None, [0, 2], [1]]
        expected = glm.cv_select_many(X, y, folds, sets, n_lambda=10)
        fit_paths = glm._fit_paths

        def set_1_fold_1_unconverged(*args, **kwargs):
            paths, stops = fit_paths(*args, **kwargs)
            sub = paths[1][2]
            paths[1][2] = replace(sub, converged=np.zeros(sub.n_lambda, dtype=bool))
            return paths, stops

        monkeypatch.setattr(glm, "_fit_paths", set_1_fold_1_unconverged)
        first, failed, last = glm.cv_select_many(X, y, folds, sets, n_lambda=10)
        assert isinstance(failed, NumericError)
        assert re.fullmatch(r"lasso did not converge .*\(lambda index \d+\) in fold 1", str(failed))
        for path, before in zip((first, last), expected[::2]):
            assert_same_path(path, before)
            assert path.selected_index == before.selected_index


class TestCvSelect:
    def test_deterministic_selection(self):
        rng = np.random.default_rng(9)
        X, y = random_instance(rng, n=40, p=2)
        folds = data.kfold(40, 2, seed=5, labels=y)
        a = glm.cv_select(X, y, folds, n_lambda=25).selected_index
        b = glm.cv_select(X, y, folds, n_lambda=25).selected_index
        assert a == b

    def test_pure_noise_selects_intercept_only(self):
        # the min-deviance rule lets tiny spurious coefficients through in a
        # minority of runs (flat CV curve near the top of the grid)
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(300, 3))
            y = (rng.random(300) < 0.5).astype(float)
            folds = data.kfold(300, 10, seed=seed, labels=y)
            path = glm.cv_select(X, y, folds, n_lambda=30)
            _, coefs = path.coefficients_at()
            hits += int(np.all(coefs == 0.0))
        assert hits >= 25

    def test_perfect_feature_survives_selection(self):
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            X = rng.normal(size=(60, 4))
            prob = 1.0 / (1.0 + np.exp(-3.0 * X[:, 1]))
            y = (rng.random(60) < prob).astype(float)
            if y.min() == y.max():
                continue
            folds = data.kfold(60, 5, seed=seed, labels=y)
            path = glm.cv_select(X, y, folds, n_lambda=30)
            _, coefs = path.coefficients_at()
            hits += int(coefs[1] != 0.0)
        assert hits >= 45

    def test_cv_error_filled(self):
        rng = np.random.default_rng(10)
        X, y = random_instance(rng, n=60, p=2)
        folds = data.kfold(60, 4, seed=2, labels=y)
        path = glm.cv_select(X, y, folds, n_lambda=20)
        assert path.cv_mean is not None and len(path.cv_mean) == 20
        assert path.cv_se is not None and np.all(path.cv_se >= 0.0)
        assert path.selected_index == int(np.argmin(path.cv_mean))

    def test_unconverged_selected_penalty_raises(self, monkeypatch):
        rng = np.random.default_rng(11)
        X, y = random_instance(rng, n=80, p=3)
        folds = data.kfold(80, 3, seed=0, labels=y)
        assert glm.cv_select(X, y, folds, n_lambda=10).selected_index is not None
        # a solve allowed no active-set rounds reports non-convergence and
        # keeps its warm start, so no penalty converges past the full fit's
        # exact zero at grid point 0
        monkeypatch.setattr(glm, "_ROUND_CAP", 0)
        with pytest.raises(
            NumericError, match=r"did not converge .*\(lambda index \d+\) in (the full-data fit|fold 0)"
        ):
            glm.cv_select(X, y, folds, n_lambda=10)

    def test_unconverged_fold_is_named(self, monkeypatch):
        rng = np.random.default_rng(12)
        X, y = random_instance(rng, n=80, p=3)
        folds = data.kfold(80, 3, seed=0, labels=y)
        fit_paths = glm._fit_paths

        def fold_1_unconverged(*args, **kwargs):
            paths, stops = fit_paths(*args, **kwargs)
            (full, *subs), = paths  # the one column set's full-data and fold paths
            paths[0][2] = replace(subs[1], converged=np.zeros(subs[1].n_lambda, dtype=bool))
            return paths, stops

        monkeypatch.setattr(glm, "_fit_paths", fold_1_unconverged)
        with pytest.raises(NumericError, match=r"\(lambda index \d+\) in fold 1$"):
            glm.cv_select(X, y, folds, n_lambda=10)

    def test_single_class_fold_advises_stratification(self):
        X = np.linspace(0, 1, 12)[:, None]
        y = np.array([1.0] * 2 + [0.0] * 10)
        # unstratified split that strands both positives in one fold
        assignment = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
        folds = data.FoldAssignment(fold_count=3, assignment=assignment)
        with pytest.raises(NumericError, match="stratified"):
            glm.cv_select(X, y, folds, n_lambda=10)


def surface_problem(n, seed):
    """A synthetic cohort's response-surface design, outcomes and folds."""
    table = synth.generate(synth.GeneratorConfig(n=n, seed=seed)).table
    X = policy.surface_design(table.X, table.released)
    y = table.outcomes.astype(float)
    return X, y, data.kfold(n, 3, seed=seed, labels=y)


def adversarial_designs(rng):
    """(name, X, y) of inputs that strain the lasso's proximal-Newton steps."""
    n = 600
    noise = rng.normal(size=(n, 2))
    x = rng.integers(-3, 4, size=n).astype(float)
    y = np.where(x > 0, 1.0, np.where(x < 0, 0.0, (rng.random(n) < 0.5).astype(float)))
    yield "quasi_separable", np.column_stack([x, noise]), y
    x = rng.normal(size=n)
    X = np.column_stack([x, x + 1e-6 * rng.normal(size=n), noise])
    yield "near_collinear_pair", X, draw_labels(rng, 1.5 * x + noise[:, 0])
    X = np.column_stack([1e6 * (1.0 + noise[:, 0]), noise[:, 1], rng.normal(size=n)])
    yield "1e6_scale_column", X, draw_labels(rng, noise @ [1.0, -0.8])
    X = rng.normal(size=(2500, 4))
    yield "2pct_positives", X, draw_labels(rng, np.log(0.02 / 0.98) - 0.4 + X @ [0.8, 0, -0.5, 0])
    # inputs whose active columns can be dependent
    yield "n_below_p", rng.integers(0, 2, (12, 30)) * 1.0, np.arange(12) % 2.0
    X = rng.normal(size=(150, 3))
    y = draw_labels(rng, X @ [1.0, -0.5, 0.0])
    yield "duplicated_rows", np.vstack([X, X]), np.concatenate([y, y])
    X = rng.normal(size=(300, 3))
    yield "duplicated_column", np.column_stack([X, X[:, 0]]), draw_labels(rng, X @ [1.0, -0.5, 0])
    male, x = rng.integers(0, 2, 400) * 1.0, rng.normal(size=400)
    y = draw_labels(rng, -0.75 + 1.5 * male + 0.3 * x)
    yield "complement_column", np.column_stack([male, 1.0 - male, x]), y


def assert_kkt_or_raises(name, fit):
    """The adversarial contract: ``fit()`` raises a DataError or NumericError
    with a message, or returns [(path, X, y), ...] whose every grid point
    converged with KKT residuals within the solver's default tol."""
    try:
        fits = fit()
    except (DataError, NumericError) as exc:
        assert str(exc), name
        return
    for path, X, y in fits:
        assert path.converged.all(), name
        for i in range(path.n_lambda):
            assert max(glm.kkt_violation(path, X, y, i)) <= 1e-7, (name, i)


def refused_inputs():
    """{name: (X, y, message)}: seed 0's 200 x 2 normal design with coin-flip
    labels, changed so that a container would refuse it."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 2))
    y = (rng.random(200) < 0.5).astype(float)
    huge = X.copy()
    huge[0, 0] = 1e300
    labels = "y must contain only 0 or 1"
    return {
        "1e300_cell": (huge, y, "column 'x0' is too large to standardize"),
        "labels_0_2": (X, 2 * y, labels),
        "labels_0.5_1": (X, y + 0.5 * (y == 0), labels),
        "labels_-1_0": (X, -y, labels),
    }


REFUSING_FITS = {
    "fit_logistic": lambda X, y: glm.fit_logistic(X, y),
    "fit_lasso_path": lambda X, y: glm.fit_lasso_path(X, y, n_lambda=5),
    "cv_select": lambda X, y: glm.cv_select(X, y, data.kfold(len(y), 3, seed=0), n_lambda=5),
}


class TestAdversarialContract:
    @pytest.mark.parametrize("fit", sorted(REFUSING_FITS))
    @pytest.mark.parametrize("case", sorted(refused_inputs()))
    def test_inputs_the_containers_refuse_are_data_errors(self, fit, case):
        # a 1e300 cell used to overflow with a warning and then end as a
        # singular fit or as a column silently held at 0; labels outside
        # {0, 1} were fitted as they came
        X, y, message = refused_inputs()[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(message)):
                REFUSING_FITS[fit](X, y)

    def test_adversarial_inputs_through_fit_response_surface(self):
        rng = np.random.default_rng(27)
        for name, X, y in adversarial_designs(rng):
            released = rng.random(len(y)) < 0.7
            cases = policy.CaseTable(X=X, released=released, outcomes=y.astype(int))
            folds = data.kfold(len(y), 3, seed=0, labels=y)

            def fit():
                surface = policy.fit_response_surface(cases, folds, n_lambda=20)
                return [
                    (surface.outcome_path, policy.surface_design(X, released), y),
                    (surface.release_path, X, released * 1.0),
                ]

            assert_kkt_or_raises(name, fit)


class TestLazyGram:
    def test_matches_gram_rebuilt_every_step(self, monkeypatch):
        X, y, folds = surface_problem(5000, seed=4)
        lazy, lazy_paths = cv_batch(X, y, folds, n_lambda=20)
        # 0.0 rebuilds each Gram at every step that moved the iterate
        monkeypatch.setattr(glm, "_GRAM_REUSE", 0.0)
        eager, eager_paths = cv_batch(X, y, folds, n_lambda=20)
        assert lazy.selected_index == eager.selected_index
        assert not np.array_equal(lazy.coefficients, eager.coefficients), "no Gram was reused"
        for a, b in zip(lazy_paths, eager_paths):
            assert a.converged.all() and np.array_equal(a.converged, b.converged)
            assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-8

    def test_adversarial_inputs_meet_kkt_or_raise(self):
        rng = np.random.default_rng(23)
        for name, X, y in adversarial_designs(rng):
            folds = data.kfold(len(y), 3, seed=0, labels=y)
            assert_kkt_or_raises(name, lambda: [(glm.cv_select(X, y, folds, n_lambda=20), X, y)])

    def test_default_grid_comes_from_the_full_design(self):
        X, y, folds = surface_problem(2000, seed=5)
        # the grid as it was computed from its own standardized copy of X
        Z = glm._design(X, None)[0][1:]
        lam_max = float(np.max(np.abs(Z @ (y - y.mean()))) / len(y))
        expected = np.geomspace(lam_max, lam_max * 1e-4, 15)
        assert np.array_equal(glm.cv_select(X, y, folds, n_lambda=15).lambda_grid, expected)
        assert np.array_equal(glm.fit_lasso_path(X, y, n_lambda=15).lambda_grid, expected)


class TestPredict:
    def test_all_zero_row_gives_intercept(self):
        fit = glm.GlmFit(
            intercept=-1.2, coefficients=np.array([0.5, -0.3]), converged=True,
            iterations=3, log_likelihood=-1.0,
        )
        assert glm.predict_prob(fit, np.zeros(2)) == pytest.approx(
            1.0 / (1.0 + np.exp(1.2))
        )

    def test_zero_score_gives_half(self):
        fit = glm.GlmFit(
            intercept=0.0, coefficients=np.array([1.0, -1.0]), converged=True,
            iterations=1, log_likelihood=-1.0,
        )
        assert glm.predict_prob(fit, np.array([1.0, 1.0])) == pytest.approx(0.5)

    def test_log2_score_gives_two_thirds(self):
        fit = glm.GlmFit(
            intercept=float(np.log(2.0)), coefficients=np.array([0.0]), converged=True,
            iterations=1, log_likelihood=-1.0,
        )
        assert glm.predict_prob(fit, np.zeros(1)) == pytest.approx(2.0 / 3.0)

    def test_dimension_mismatch(self):
        fit = glm.GlmFit(
            intercept=0.0, coefficients=np.array([1.0]), converged=True,
            iterations=1, log_likelihood=-1.0,
        )
        with pytest.raises(DataError, match="length"):
            glm.predict_prob(fit, np.zeros(3))

    def test_identical_rows_score_bit_equal_wherever_they_sit(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = int(rng.integers(2, 12))
            base = (rng.random((int(rng.integers(20, 200)), p)) < 0.4).astype(float)
            row = base[0]
            at = rng.choice(len(base), size=5, replace=False)
            base[at] = row
            coefs = rng.normal(size=p)
            fit = glm.GlmFit(
                intercept=float(rng.normal()), coefficients=coefs, converged=True,
                iterations=1, log_likelihood=-1.0,
            )
            scores = glm.linear_score(fit, base)
            assert np.all(scores[at] == scores[at[0]])
            assert np.all(scores[at] == glm.linear_score(fit, row))

    def test_linear_score_is_logit_of_prob(self):
        fit = glm.GlmFit(
            intercept=0.3, coefficients=np.array([0.7]), converged=True,
            iterations=1, log_likelihood=-1.0,
        )
        x = np.array([[0.5], [2.0]])
        s = glm.linear_score(fit, x)
        p = glm.predict_prob(fit, x)
        assert np.allclose(1.0 / (1.0 + np.exp(-s)), p)
