import numpy as np
import pytest

from oracles import auc_brute_force, auc_tie_loop, best_threshold_loop
from scorekit import data, metrics
from scorekit.errors import DataError


class TestAuc:
    def test_pair_counting_example(self):
        # 3 of 4 (positive, negative) pairs ordered correctly, one reversed
        assert metrics.auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert metrics.auc([1, 2, 3, 10, 11], [0, 0, 0, 1, 1]) == 1.0

    def test_all_tied_is_half(self):
        assert metrics.auc([5.0] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="both classes"):
            metrics.auc([0.1, 0.2], [1, 1])

    def test_nan_score_rejected(self):
        # each NaN is a tie group of its own, ranked wherever the sort leaves it:
        # mergesort gave 0.889 in this row order and 0.667 reversed
        scores = np.array([0.1, np.nan, 0.3, np.nan, 0.2, np.nan])
        labels = np.array([0, 0, 1, 1, 0, 1])
        for rows in (slice(None), slice(None, None, -1)):
            with pytest.raises(DataError, match="NaN"):
                metrics.auc(scores[rows], labels[rows])

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(5, 60))
            # integer scores produce plenty of ties
            scores = rng.integers(0, 6, n).astype(float)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert metrics.auc(scores, labels) == pytest.approx(
                auc_brute_force(scores, labels), abs=1e-12
            )

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(5, 50))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            a = metrics.auc(scores, labels)
            assert metrics.auc(np.exp(2.0 * scores) + 3.0, labels) == pytest.approx(a)

    def test_complement_identity_without_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(5, 50))
            scores = rng.permutation(n).astype(float)  # distinct: no ties
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert metrics.auc(scores, labels) + metrics.auc(-scores, labels) == pytest.approx(1.0)


def _score_draws(seed, trials):
    """Seeded (scores, labels) pairs, n from 2 to 3,000, both classes present.

    Even draws are small integers (heavy ties), odd draws continuous."""
    rng = np.random.default_rng(seed)
    for i in range(trials):
        n = int(rng.integers(2, 3001))
        if i % 2:
            scores = rng.normal(size=n)
        else:
            scores = rng.integers(0, int(rng.integers(1, 12)), n).astype(float)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        yield scores, labels


class TestSortedScoreDifferential:
    def test_auc_equals_tie_group_loop(self):
        for scores, labels in _score_draws(20, 120):
            assert metrics.auc(scores, labels) == auc_tie_loop(scores, labels)

    @pytest.mark.parametrize("n", [50_000, 200_000])
    @pytest.mark.parametrize("distinct", [None, 3, 40])
    def test_auc_equals_tie_group_loop_at_noise_mc_size(self, n, distinct):
        # the size of one verify_theorem_mc draw and four times it; None is continuous
        rng = np.random.default_rng(n + (distinct or 0))
        if distinct is None:
            scores = rng.normal(size=n)
        else:
            scores = rng.integers(0, distinct, n).astype(float)
        labels = rng.integers(0, 2, n)
        assert metrics.auc(scores, labels) == auc_tie_loop(scores, labels)

    def test_auc_signed_zeros_and_infinities_in_both_classes(self):
        rng = np.random.default_rng(25)
        for _ in range(60):
            n = int(rng.integers(8, 400))
            scores = rng.choice([-np.inf, -1.0, -0.0, 0.0, 2.0, np.inf], n)
            labels = rng.integers(0, 2, n)
            labels[:4], scores[:4] = (0, 1, 0, 1), (np.inf, np.inf, -np.inf, -np.inf)
            scores[4:8], labels[4:8] = (-0.0, 0.0, 0.0, -0.0), (0, 0, 1, 1)
            assert metrics.auc(scores, labels) == auc_tie_loop(scores, labels)
            assert metrics.auc(scores, labels) == pytest.approx(
                auc_brute_force(scores, labels), abs=1e-12)

    def test_auc_labels_outside_01_count_as_negatives(self):
        rng = np.random.default_rng(26)
        for _ in range(60):
            n = int(rng.integers(3, 2000))
            scores = rng.integers(-4, 5, n).astype(float) if n % 2 else rng.normal(size=n)
            labels = rng.integers(-1, 3, n)
            labels[:2] = (1, 2)
            expected = auc_tie_loop(scores, labels)
            assert metrics.auc(scores, labels) == expected
            assert metrics.auc(scores, labels == 1) == expected

    @pytest.mark.parametrize("where", [0, 31_234, 49_999])
    def test_auc_one_positive_among_50k(self, where):
        scores = np.random.default_rng(27).normal(size=50_000)
        labels = np.zeros(50_000, dtype=int)
        labels[where] = 1
        assert metrics.auc(scores, labels) == auc_tie_loop(scores, labels)
        assert metrics.auc(scores, 1 - labels) == auc_tie_loop(scores, 1 - labels)

    @pytest.mark.parametrize("n", [2, 7, 50_000])
    def test_auc_all_scores_equal(self, n):
        labels = np.arange(n) % 3 == 0
        for value in (-np.inf, -0.0, 4.5, np.inf):
            scores = np.full(n, value)
            assert metrics.auc(scores, labels) == auc_tie_loop(scores, labels) == 0.5

    def test_auc_matches_pair_count(self):
        for scores, labels in _score_draws(21, 30):
            assert metrics.auc(scores, labels) == pytest.approx(
                auc_brute_force(scores, labels), abs=1e-12
            )

    def test_best_threshold_equals_per_candidate_loop(self):
        for scores, labels in _score_draws(22, 120):
            assert metrics.best_threshold(scores, labels) == best_threshold_loop(scores, labels)

    def test_best_threshold_labels_outside_01(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 400))
            scores = rng.integers(-4, 5, n).astype(float)
            labels = rng.integers(-1, 3, n)
            assert metrics.best_threshold(scores, labels) == best_threshold_loop(scores, labels)

    def test_best_threshold_non_finite_scores(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            n = int(rng.integers(2, 200))
            scores = rng.integers(0, 4, n).astype(float)
            scores[rng.random(n) < 0.2] = np.nan
            scores[rng.random(n) < 0.2] = np.inf
            labels = rng.integers(0, 2, n)
            expected = best_threshold_loop(scores, labels)
            got = metrics.best_threshold(scores, labels)
            assert got == expected or (np.isnan(got) and np.isnan(expected))

    def test_all_scores_tied(self):
        labels = np.array([0, 1, 1, 0, 1])
        scores = np.full(5, 2.0)
        assert metrics.auc(scores, labels) == 0.5
        assert metrics.best_threshold(scores, labels) == best_threshold_loop(scores, labels) == 2.0

    def test_single_distinct_score(self):
        # predicting all 1 (cutoff 7) beats all 0 (cutoff 8) with 2 of 3 positive
        assert metrics.best_threshold([7.0, 7.0, 7.0], [1, 0, 1]) == 7.0
        assert metrics.best_threshold([7.0], [0]) == 8.0

    def test_cutoff_above_max_at_large_magnitude(self):
        # max + 1 rounds back to max: the extra candidate ties the top score
        scores = np.array([1e17, 1e17, 3.0, 5.0])
        for labels in ([0, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]):
            assert metrics.best_threshold(scores, labels) == best_threshold_loop(scores, labels)

    def test_tied_infinite_scores_count_one_half(self):
        scores = [-np.inf, -np.inf, 0.0, np.inf, np.inf, np.inf]
        labels = [0, 1, 0, 1, 0, 1]
        assert metrics.auc(scores, labels) == pytest.approx(auc_brute_force(scores, labels))

    def test_best_threshold_shape_mismatch(self):
        with pytest.raises(DataError):
            metrics.best_threshold([1.0, 2.0], [1, 0, 1])


def _tie_heavy_draws(seed, trials):
    """Seeded (scores, labels) pairs with many tied rows: small integers, all
    scores tied, and small integers with -inf and +inf runs mixed in."""
    rng = np.random.default_rng(seed)
    for i in range(trials):
        n = int(rng.integers(2, 2001))
        scores = rng.integers(-3, 4, n).astype(float)
        if i % 3 == 1:
            scores[:] = scores[0]
        elif i % 3 == 2:
            scores[scores == 3] = np.inf
            scores[scores == -3] = -np.inf
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        yield scores, labels


class TestOrderFreeSort:
    """Neither result may depend on row order: `_tie_groups` leaves the rows
    of a tie group in no fixed order, and `auc` sorts each class on its own,
    so permuting the rows must not change a bit of either result."""

    def test_auc_permutation_invariant(self):
        rng = np.random.default_rng(30)
        for scores, labels in _tie_heavy_draws(31, 90):
            expected = metrics.auc(scores, labels)
            for _ in range(3):
                perm = rng.permutation(len(scores))
                assert metrics.auc(scores[perm], labels[perm]) == expected

    def test_best_threshold_permutation_invariant(self):
        rng = np.random.default_rng(32)
        for i, (scores, labels) in enumerate(_tie_heavy_draws(33, 90)):
            if i % 2:
                scores[rng.random(len(scores)) < 0.2] = np.nan
            expected = metrics.best_threshold(scores, labels)
            for _ in range(3):
                perm = rng.permutation(len(scores))
                got = metrics.best_threshold(scores[perm], labels[perm])
                assert got == expected or (np.isnan(got) and np.isnan(expected))


class TestAccuracy:
    def test_identical(self):
        assert metrics.accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_complementary(self):
        assert metrics.accuracy([1, 0, 1], [0, 1, 0]) == 0.0

    def test_half(self):
        assert metrics.accuracy([1, 0, 1, 0], [1, 1, 1, 1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            metrics.accuracy([1, 0], [1, 0, 1])


@pytest.fixture(scope="module")
def one_signal_ds():
    rng = np.random.default_rng(10)
    n = 400
    sig = (rng.random(n) < 0.45).astype(float)
    y = (rng.random(n) < np.where(sig > 0, 0.8, 0.2)).astype(int)
    X = np.column_stack([sig, rng.normal(size=n), (rng.random(n) < 0.5).astype(float)])
    return data.Dataset(feature_names=("sig", "n0", "n1"), rows=X, labels=y)


class TestCvSweep:
    def test_single_cell_matches_unrounded_benchmark(self, one_signal_ds):
        ds = one_signal_ds
        folds = data.kfold(ds.n, 5, seed=0, labels=ds.labels)
        sweep = metrics.cv_sweep(ds, k_values=[1], M_values=[1], folds=folds, n_lambda=20)
        card_auc = sweep.mean_auc(metrics.SCORECARD, 1, 1)
        bench_auc = sweep.mean_auc(metrics.LASSO_SELECTED, 1)
        assert abs(card_auc - bench_auc) <= 0.02

    def test_auc_in_range_across_grid(self, one_signal_ds):
        ds = one_signal_ds
        folds = data.kfold(ds.n, 4, seed=1, labels=ds.labels)
        sweep = metrics.cv_sweep(
            ds, k_values=[1, 2], M_values=[1, 2], folds=folds, n_lambda=15
        )
        for cell in sweep.cells:
            if cell.error is None:
                assert 0.0 <= cell.auc <= 1.0
                assert 0.0 <= cell.accuracy <= 1.0

    def test_grid_covered_exactly(self, one_signal_ds):
        ds = one_signal_ds
        folds = data.kfold(ds.n, 3, seed=2, labels=ds.labels)
        sweep = metrics.cv_sweep(ds, k_values=[1, 3], M_values=[2], folds=folds, n_lambda=15)
        combos = {(c.k, c.M) for c in sweep.cells if c.method == metrics.SCORECARD}
        assert combos == {(1, 2), (3, 2)}

    def test_failed_cell_recorded_not_fatal(self, one_signal_ds):
        ds = one_signal_ds
        folds = data.kfold(ds.n, 3, seed=3, labels=ds.labels)
        # k beyond the number of selectable features fails per-cell
        sweep = metrics.cv_sweep(ds, k_values=[1, 9], M_values=[1], folds=folds, n_lambda=15)
        bad = [c for c in sweep.cells if c.method == metrics.SCORECARD and c.k == 9]
        assert bad and all(c.error is not None for c in bad)
        good = [c for c in sweep.cells if c.method == metrics.SCORECARD and c.k == 1]
        assert good and all(c.error is None for c in good)

    def test_csv_export(self, one_signal_ds):
        # one SWEEP_HEADER row per cell; a failed cell keeps its error, not its metrics
        # (the CLI test of the CSV writer checks the header line in the file)
        ds = one_signal_ds
        folds = data.kfold(ds.n, 3, seed=4, labels=ds.labels)
        sweep = metrics.cv_sweep(ds, k_values=[1, 9], M_values=[1], folds=folds, n_lambda=15)
        rows = [dict(zip(metrics.SWEEP_HEADER, r)) for r in sweep.rows()]
        assert len(rows) == len(sweep.cells)
        assert all(len(r) == len(metrics.SWEEP_HEADER) for r in sweep.rows())
        for row, cell in zip(rows, sweep.cells):
            assert (row["method"], row["fold"]) == (cell.method, cell.fold)
            if cell.error:
                assert row["auc"] == row["accuracy"] == "" and row["error"] == cell.error
            else:
                assert float(row["auc"]) == cell.auc and row["error"] == ""
        assert any(r["k"] == 9 and r["error"] for r in rows)

    def test_best_threshold_maximizes_train_accuracy(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(10, 40))
            scores = rng.integers(-3, 8, n).astype(float)
            labels = rng.integers(0, 2, n)
            t = metrics.best_threshold(scores, labels)
            acc = metrics.accuracy((scores >= t).astype(int), labels)
            for cand in np.concatenate([np.unique(scores), [scores.max() + 1]]):
                assert acc >= metrics.accuracy((scores >= cand).astype(int), labels) - 1e-12
