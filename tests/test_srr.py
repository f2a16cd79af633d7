import json
from dataclasses import replace

import numpy as np
import pytest

from scorekit import data, policy, srr, synth
from scorekit.datasets import load_heart
from scorekit.errors import DataError

# the published example card: age bins and prior-failure counts on a 0..10 scale
TABLE_CARD = srr.Scorecard(
    entries=(
        ("age_18_20", 8), ("age_21_25", 6), ("age_26_30", 4), ("age_31_50", 2),
        ("priors_1", 6), ("priors_2", 8), ("priors_3", 9), ("priors_4_plus", 10),
    ),
    weight_bound=10,
    feature_budget=2,
    threshold=10.5,
)


def row(**kwargs):
    base = {name: 0.0 for name, _ in TABLE_CARD.entries}
    base.update(kwargs)
    return base


class TestRescaleRound:
    def test_hand_example(self):
        # scale factor 3 / 2.0 = 1.5: (3.0, 1.5, -0.75) -> (3, 2, -1)
        assert list(srr.rescale_round([2.0, 1.0, -0.5], 3)) == [3, 2, -1]

    def test_all_zero(self):
        assert list(srr.rescale_round([0.0, 0.0, 0.0], 5)) == [0, 0, 0]

    def test_single_nonzero_maps_to_bound(self):
        for M in (1, 3, 10):
            assert list(srr.rescale_round([0.0, -0.37, 0.0], M)) == [0, -M, 0]

    def test_half_rounds_away_from_zero(self):
        # 0.5 scaled: coefs (1.0, 0.25), M=2 -> (2, 0.5) -> (2, 1)
        assert list(srr.rescale_round([1.0, 0.25], 2)) == [2, 1]
        assert list(srr.rescale_round([-1.0, -0.25], 2)) == [-2, -1]

    def test_scale_invariance_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = int(rng.integers(1, 8))
            coefs = rng.normal(size=p)
            M = int(rng.integers(1, 11))
            c = float(rng.uniform(0.01, 100.0))
            assert np.array_equal(
                srr.rescale_round(coefs, M), srr.rescale_round(c * coefs, M)
            )

    def test_sign_equivariance_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            coefs = rng.normal(size=int(rng.integers(1, 8)))
            M = int(rng.integers(1, 11))
            assert np.array_equal(
                srr.rescale_round(-coefs, M), -srr.rescale_round(coefs, M)
            )

    def test_rounding_gap_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            coefs = rng.normal(size=int(rng.integers(1, 8)))
            M = int(rng.integers(1, 11))
            w = srr.rescale_round(coefs, M)
            top = np.max(np.abs(coefs))
            if top == 0:
                continue
            assert np.all(np.abs(M * coefs / top - w) <= 0.5 + 1e-12)

    def test_bad_bound(self):
        with pytest.raises(DataError):
            srr.rescale_round([1.0], 0)


class TestScoreDecide:
    def test_young_one_prior_scores_14(self):
        x = row(age_18_20=1.0, priors_1=1.0)
        assert srr.score(TABLE_CARD, x) == 14
        assert srr.decide(TABLE_CARD, x) == srr.WITHHOLD

    def test_oldest_no_priors_scores_zero(self):
        assert srr.score(TABLE_CARD, row()) == 0

    def test_mid_age_two_priors_released(self):
        x = row(age_31_50=1.0, priors_2=1.0)
        assert srr.score(TABLE_CARD, x) == 10
        assert srr.decide(TABLE_CARD, x) == srr.RELEASE

    def test_identical_rows_score_identically(self):
        # ``X @ w`` (BLAS gemv) may round a row by its position in the matrix:
        # on a Haswell OpenBLAS it splits the duplicated row of 2 of these 200
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n, p = int(rng.integers(5, 60)), int(rng.integers(2, 12))
            X = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-2, 4, size=p)
            i, j = rng.choice(n, 2, replace=False)
            X[j] = X[i]
            names = tuple(f"x{c}" for c in range(p))
            weights = rng.integers(-3, 4, p).tolist()
            card = srr.Scorecard(entries=tuple(zip(names, weights)), weight_bound=3,
                                 feature_budget=p)
            scores = card.scores(X, names)
            assert scores[i] == scores[j], seed

    def test_empty_scorecard_scores_zero(self):
        card = srr.Scorecard(entries=(), weight_bound=3, feature_budget=1)
        assert srr.score(card, {}) == 0

    def test_missing_feature(self):
        with pytest.raises(DataError, match="missing scorecard feature"):
            srr.score(TABLE_CARD, {"age_18_20": 1.0})

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_threshold_is_refused(self, threshold):
        with pytest.raises(DataError, match="threshold must be finite"):
            srr.Scorecard(entries=(("a", 1),), weight_bound=1, feature_budget=1,
                          threshold=threshold)
        with pytest.raises(DataError, match="threshold must be finite"):
            replace(TABLE_CARD, threshold=threshold)

    def test_unset_threshold(self):
        card = srr.Scorecard(entries=(("a", 1),), weight_bound=1, feature_budget=1)
        with pytest.raises(DataError, match="threshold"):
            srr.decide(card, {"a": 1.0})

    def test_degenerate_threshold_withholds_everyone(self):
        card = replace(TABLE_CARD, threshold=-1.0)
        for x in (row(), row(age_18_20=1.0), row(priors_4_plus=1.0)):
            assert srr.decide(card, x) == srr.WITHHOLD

    def test_threshold_monotone_release_set(self):
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(60):
            x = row()
            age = rng.choice(["age_18_20", "age_21_25", "age_26_30", "age_31_50", None])
            pri = rng.choice(["priors_1", "priors_2", "priors_3", "priors_4_plus", None])
            if age:
                x[age] = 1.0
            if pri:
                x[pri] = 1.0
            rows.append(x)
        prev_released = None
        for thr in (-1.0, 2.5, 6.5, 10.5, 14.5, 25.0):
            card = replace(TABLE_CARD, threshold=thr)
            released = {
                i for i, x in enumerate(rows) if srr.decide(card, x) == srr.RELEASE
            }
            if prev_released is not None:
                assert prev_released <= released
            prev_released = released

    def test_scores_match_scalar(self):
        # the one scorer against the per-case mapping and the policy: 0/1
        # rows, then a shuffled layout with continuous columns off the card
        rng = np.random.default_rng(5)
        card_names = [n for n, _ in TABLE_CARD.entries]
        layout = tuple(rng.permutation(card_names + ["noise_0", "noise_1"]))
        for names, X in [(card_names, np.eye(8)), (layout, rng.normal(size=(40, len(layout))))]:
            vec = TABLE_CARD.scores(X, names)
            pol = policy.ScorecardPolicy(card=TABLE_CARD, feature_names=names)
            np.testing.assert_array_equal(pol.scores(X), vec)
            for i in range(len(X)):
                assert srr.score(TABLE_CARD, dict(zip(names, X[i]))) == pytest.approx(
                    vec[i], rel=0, abs=1e-12)
        assert list(TABLE_CARD.scores(np.eye(8), card_names)) == [8, 6, 4, 2, 6, 8, 9, 10]
        with pytest.raises(DataError, match="missing scorecard features"):
            TABLE_CARD.scores(X[:, 1:], layout[1:])

    def test_weight_vector_matches_per_feature_sum(self):
        # reference: the per-feature accumulation, on a shuffled layout with
        # extra columns off the card and continuous values
        rng = np.random.default_rng(4)
        names = [n for n, _ in TABLE_CARD.entries] + ["noise_0", "noise_1"]
        layout = tuple(rng.permutation(names))
        X = rng.normal(size=(50, len(layout)))
        expected = np.zeros(50)
        for name, w in TABLE_CARD.entries:
            expected += w * X[:, layout.index(name)]
        np.testing.assert_allclose(X @ TABLE_CARD.weight_vector(layout), expected, rtol=0, atol=1e-12)
        with pytest.raises(DataError, match="missing scorecard features"):
            TABLE_CARD.weight_vector(layout[1:])


class TestBuildScorecard:
    def test_bail_shape(self):
        # a synthetic decision cohort whose risk falls with age and rises
        # with prior failures must yield a card with that shape
        cohort = synth.generate(synth.GeneratorConfig(n=30000, seed=42))
        ds = cohort.case_table().released_dataset()
        folds = data.kfold(ds.n, 5, seed=0, labels=ds.labels)
        card = srr.build_scorecard(ds, k=2, M=10, folds_for_lambda=folds, n_lambda=40)
        weights = dict(card.entries)
        assert card.feature_budget == 2
        assert max(abs(w) for w in weights.values()) == 10
        age_order = ["age_18_20", "age_21_25", "age_26_30", "age_31_35",
                     "age_36_40", "age_41_45", "age_46_50"]
        age_w = [weights.get(n, 0) for n in age_order]
        assert all(a >= b for a, b in zip(age_w, age_w[1:]))
        prior_order = ["priors_1", "priors_2", "priors_3", "priors_4_plus"]
        prior_w = [weights.get(n, 0) for n in prior_order]
        assert all(a <= b for a, b in zip(prior_w, prior_w[1:]))
        assert all(w >= 0 for w in prior_w)

    def test_single_signal_feature_gets_bound_weight(self):
        rng = np.random.default_rng(7)
        n = 400
        signal = (rng.random(n) < 0.5).astype(float)
        y = (rng.random(n) < np.where(signal > 0, 0.85, 0.15)).astype(int)
        X = np.column_stack([rng.normal(size=n), signal, rng.normal(size=n)])
        ds = data.Dataset(feature_names=("n0", "sig", "n1"), rows=X, labels=y)
        folds = data.kfold(n, 5, seed=1, labels=y)
        for M in (1, 5):
            card = srr.build_scorecard(ds, k=1, M=M, folds_for_lambda=folds, n_lambda=30)
            assert card.entries == (("sig", M),)

    def test_M1_bounds_weights(self):
        cohort = synth.generate(synth.GeneratorConfig(n=8000, seed=3))
        ds = cohort.case_table().released_dataset()
        folds = data.kfold(ds.n, 5, seed=0, labels=ds.labels)
        card = srr.build_scorecard(ds, k=3, M=1, folds_for_lambda=folds, n_lambda=30)
        assert card.entries  # something survived
        assert all(w in (-1, 1) for _, w in card.entries)

    def test_feature_count_bounded_by_budget(self):
        cohort = synth.generate(synth.GeneratorConfig(n=8000, seed=4))
        ds = cohort.case_table().released_dataset()
        folds = data.kfold(ds.n, 5, seed=0, labels=ds.labels)
        card = srr.build_scorecard(ds, k=2, M=3, folds_for_lambda=folds, n_lambda=30)
        sources = {ds.column_groups[ds.feature_names.index(n)] for n, _ in card.entries}
        assert len(sources) <= 2

    def test_json_round_trip_preserves_provenance(self):
        rng = np.random.default_rng(9)
        n = 200
        X = rng.normal(size=(n, 3))
        y = (rng.random(n) < 1 / (1 + np.exp(-X[:, 0]))).astype(int)
        ds = data.Dataset(feature_names=("a", "b", "c"), rows=X, labels=y)
        folds = data.kfold(n, 4, seed=0, labels=y)
        card = srr.build_scorecard(ds, k=2, M=5, folds_for_lambda=folds, n_lambda=20)
        back = srr.Scorecard.from_json(card.to_json())
        assert back.entries == card.entries
        assert back.raw_coefficients == card.raw_coefficients
        assert back.scaling == card.scaling
        assert back.selection == card.selection

    def test_scorecard_json_key_order_pinned(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, 3))
        y = (rng.random(200) < 1 / (1 + np.exp(-X[:, 0]))).astype(int)
        ds = data.Dataset(feature_names=("a", "b", "c"), rows=X, labels=y)
        folds = data.kfold(200, 4, seed=0, labels=y)
        card = srr.build_scorecard(ds, k=2, M=5, folds_for_lambda=folds, n_lambda=20)
        assert list(json.loads(card.to_json())) == [
            "entries", "weight_bound", "feature_budget", "threshold", "feature_names",
            "raw_coefficients", "intercept", "scaling", "selection",
        ]
        assert list(json.loads(card.to_json())["selection"]) == [
            "ordered_features", "step_groups", "step_names", "step_deviance",
        ]

    def test_render_has_feature_score_columns_and_threshold(self):
        text = TABLE_CARD.render()
        assert "Feature" in text and "Score" in text
        assert "age_18_20" in text
        assert "< 10.5" in text


class TestMetamorphicRelations:
    """The heart card under transformations that leave its fit unchanged, or
    negate it.  Each reaches the column means and sds of every design."""

    @staticmethod
    def card(ds, folds):
        return srr.build_scorecard(ds, k=5, M=3, folds_for_lambda=folds, n_lambda=30)

    @pytest.fixture(scope="class")
    def heart(self):
        ds = load_heart()
        folds = data.kfold(ds.n, 5, seed=0, labels=ds.labels)
        return ds, folds, self.card(ds, folds)

    def test_flipping_the_labels_negates_every_weight(self, heart):
        ds, folds, card = heart
        flipped = self.card(replace(ds, labels=1 - ds.labels), folds)
        assert flipped.entries == tuple((name, -w) for name, w in card.entries)
        assert np.max(np.abs(np.add(flipped.raw_coefficients, card.raw_coefficients))) <= 1e-12

    @pytest.mark.parametrize("rows", ["permuted", "duplicated"])
    def test_rows_moved_with_their_folds_leave_the_card(self, heart, rows):
        ds, folds, card = heart
        if rows == "permuted":
            order = np.random.default_rng(0).permutation(ds.n)
        else:  # each row twice, inside its own fold
            order = np.repeat(np.arange(ds.n), 2)
        moved = self.card(ds.take(order), data.FoldAssignment(5, folds.assignment[order]))
        assert moved.entries == card.entries
        assert moved.feature_names == card.feature_names
        assert np.max(np.abs(np.subtract(moved.raw_coefficients, card.raw_coefficients))) <= 1e-12
