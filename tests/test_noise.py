import math

import numpy as np
import pytest

from oracles import hanley_mcneil_se, verify_theorem_mc_concat
from scorekit import data, glm, noise, srr
from scorekit.datasets import load_heart
from scorekit.errors import DataError, NumericError


class TestAucUnderNoise:
    def test_worked_point(self):
        assert 0.850 <= noise.auc_under_noise(0.90, 0.5) <= 0.855

    def test_identity_at_zero_gamma(self):
        for a in (0.55, 0.7, 0.9, 0.99):
            assert noise.auc_under_noise(a, 0.0) == pytest.approx(a, rel=1e-12)

    def test_half_stays_half(self):
        for g in (0.0, 0.5, 3.0, 50.0):
            assert noise.auc_under_noise(0.5, g) == pytest.approx(0.5, abs=1e-14)

    def test_strictly_decreasing_in_gamma_above_half(self):
        gammas = np.linspace(0.0, 5.0, 40)
        vals = [noise.auc_under_noise(0.85, g) for g in gammas]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_strictly_increasing_in_gamma_below_half(self):
        gammas = np.linspace(0.0, 5.0, 40)
        vals = [noise.auc_under_noise(0.3, g) for g in gammas]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_large_gamma_limit_is_half(self):
        for a in (0.6, 0.99):
            assert noise.auc_under_noise(a, 1e8) == pytest.approx(0.5, abs=1e-3)

    def test_boundary_auc_rejected(self):
        for bad in (0.0, 1.0):
            with pytest.raises(NumericError):
                noise.auc_under_noise(bad, 0.5)
        with pytest.raises(NumericError):
            noise.auc_under_noise(0.8, -0.1)

    def test_array_keeps_shape_and_scalar_values(self):
        grid = np.array([[0.55, 0.7, 0.9], [0.3, 0.5, 0.99]])
        for g in (0.0, 0.5, 3.0):
            out = noise.auc_under_noise(grid, g)
            assert out.shape == grid.shape and out.dtype == float
            assert out.tolist() == [[noise.norm_cdf(noise.norm_ppf(a) / math.sqrt(1.0 + g))
                                     for a in row] for row in grid]
        assert type(noise.auc_under_noise(np.float64(0.7), 0.5)) is float
        assert type(noise.auc_under_noise(np.array(0.7), 0.5)) is float
        assert noise.auc_under_noise([0.7], 0.5).shape == (1,)

    def test_normal_helpers_high_accuracy(self):
        # round trip through the quantile and CDF stays at double precision
        for q in (1e-8, 0.1, 0.5, 0.77, 1 - 1e-8):
            assert noise.norm_cdf(noise.norm_ppf(q)) == pytest.approx(q, rel=1e-10)


class TestVerifyTheoremMc:
    def test_worked_point_mc(self):
        emp, ana, diff = noise.verify_theorem_mc(0.9, 0.5, 100000, seed=0)
        assert abs(emp - 0.852) <= 0.01
        assert diff <= 0.01

    def test_no_noise_sanity(self):
        emp, ana, diff = noise.verify_theorem_mc(0.8, 0.0, 100000, seed=1)
        assert ana == pytest.approx(0.8, rel=1e-12)
        assert diff <= 0.01

    def test_gamma_one_against_formula(self):
        emp, ana, diff = noise.verify_theorem_mc(0.75, 1.0, 100000, seed=2)
        expected = noise.norm_cdf(noise.norm_ppf(0.75) / math.sqrt(2.0))
        assert ana == pytest.approx(expected, rel=1e-12)
        assert diff <= 0.01

    def test_grid_within_three_standard_errors(self):
        n = 60000
        for i, auc_t in enumerate((0.6, 0.75, 0.9)):
            for j, g in enumerate((0.0, 0.5, 2.0)):
                emp, ana, diff = noise.verify_theorem_mc(auc_t, g, n, seed=10 * i + j)
                se = hanley_mcneil_se(ana, n // 2, n // 2)
                assert diff <= 3.0 * se

    # the benchmark's 16 (AUC, gamma) points, and gamma = 0
    MC_POINTS = [(a, g) for a in (0.6, 0.7, 0.8, 0.9) for g in (0.25, 0.5, 1.0, 2.0)] + [(0.8, 0.0)]

    @pytest.mark.parametrize("seed, point", enumerate(MC_POINTS))
    def test_in_place_draws_equal_three_draw_construction(self, seed, point):
        auc_t, g = point
        got = noise.verify_theorem_mc(auc_t, g, 50_000, seed=seed)
        assert got == verify_theorem_mc_concat(auc_t, g, 50_000, seed=seed)

    def test_too_few_samples_rejected(self):
        with pytest.raises(DataError):
            noise.verify_theorem_mc(0.8, 0.5, 100)


class TestEstimateGamma:
    def test_exact_multiple_gives_zero_noise(self):
        rng = np.random.default_rng(0)
        true = rng.normal(size=500)
        labels = (rng.random(500) < 0.5).astype(int)
        labels[0], labels[1] = 0, 1
        model = noise.estimate_gamma(true, 2.5 * true, 2.5, labels)
        assert model.gamma == pytest.approx(0.0, abs=1e-30)
        assert model.sigma_eps <= 1e-12  # float residue of scale round trip

    def test_recovers_injected_noise_ratio(self):
        rng = np.random.default_rng(1)
        n = 20000
        labels = np.concatenate([np.zeros(n // 2, int), np.ones(n // 2, int)])
        true = np.where(labels == 1, 1.0, -1.0) + rng.normal(0.0, 1.0, n)
        eps = rng.normal(0.0, math.sqrt(0.5), n)
        scale = 3.7
        simple = scale * (true + eps)
        model = noise.estimate_gamma(true, simple, scale, labels)
        assert model.gamma == pytest.approx(0.5, abs=0.05)
        assert model.mu_p == pytest.approx(1.0, abs=0.05)
        assert model.mu_n == pytest.approx(-1.0, abs=0.05)

    def test_centering_ignores_score_offset(self):
        rng = np.random.default_rng(2)
        n = 5000
        labels = np.concatenate([np.zeros(n // 2, int), np.ones(n // 2, int)])
        true = np.where(labels == 1, 0.8, -0.8) + rng.normal(0.0, 1.0, n)
        eps = rng.normal(0.0, 0.6, n)
        a = noise.estimate_gamma(true, 2.0 * (true + eps), 2.0, labels)
        b = noise.estimate_gamma(true, 2.0 * (true + eps) + 11.0, 2.0, labels)
        assert b.gamma == pytest.approx(a.gamma, rel=1e-12)

    def test_zero_within_class_variance_rejected(self):
        true = np.array([1.0, 1.0, 0.0, 0.5])
        labels = np.array([1, 1, 0, 0])
        with pytest.raises(NumericError, match="variance"):
            noise.estimate_gamma(true, true, 1.0, labels)

    def test_bundled_dataset_gamma_is_finite_and_moderate(self):
        # five-feature, weight-bound-3 card on the bundled table; the
        # cross-dataset reference value for rules of this shape is ~0.22
        ds = load_heart()
        folds = data.kfold(ds.n, 10, seed=1, labels=ds.labels)
        card = srr.build_scorecard(ds, k=5, M=3, folds_for_lambda=folds, n_lambda=30)
        true_path = glm.cv_select(ds.rows, ds.labels.astype(float), folds, n_lambda=30)
        true_scores = true_path.linear_score(ds.rows)
        simple = card.scores(ds.rows, ds.feature_names)
        model = noise.estimate_gamma(true_scores, simple, card.scaling, ds.labels)
        assert math.isfinite(model.gamma)
        assert 0.0 < model.gamma < 1.0


class TestScoreModel:
    def test_gamma_and_auc_fields(self):
        m = noise.ScoreModel(mu_p=1.0, mu_n=-1.0, sigma=1.0, sigma_eps=1.0)
        assert m.gamma == 1.0
        assert m.auc_true == pytest.approx(noise.norm_cdf(2.0 / math.sqrt(2.0)))
        assert m.auc_noisy == pytest.approx(
            noise.auc_under_noise(m.auc_true, 1.0), rel=1e-12
        )

    def test_invalid_sigma(self):
        with pytest.raises(NumericError):
            noise.ScoreModel(mu_p=0.0, mu_n=0.0, sigma=0.0, sigma_eps=0.1)


class TestTheoryCurve:
    def test_grid_rows(self):
        rows = noise.theory_curve([0.7, 0.9], [0.0, 1.0])
        assert len(rows) == 4
        lookup = {(a, g): v for a, g, v in rows}
        assert lookup[(0.7, 0.0)] == pytest.approx(0.7)
        assert lookup[(0.9, 1.0)] == pytest.approx(
            noise.norm_cdf(noise.norm_ppf(0.9) / math.sqrt(2.0))
        )
