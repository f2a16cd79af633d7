import numpy as np
import pytest

from oracles import forward_stepwise_reference, irls
from scorekit import data, datasets, glm, selection
from scorekit.errors import DataError, NumericError


def make_ds(X, y, groups=None):
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    return data.Dataset(
        feature_names=names, rows=X, labels=y, column_groups=groups
    )


def step1_brute_force(ds):
    """Independent deviance minimizer over single features (per indicator)."""
    best_j, best_dev = None, np.inf
    for j in range(ds.p):
        fit = glm.fit_logistic(
            ds.rows[:, [j]], ds.labels.astype(float), on_divergence="clamp"
        )
        dev = -2.0 * fit.log_likelihood
        if dev < best_dev - 1e-10:
            best_j, best_dev = j, dev
    return best_j


class TestForwardStepwise:
    def test_label_equal_feature_selected_first(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 60)
        X = rng.normal(size=(60, 5))
        X[:, 3] = y  # perfectly separating candidate
        ds = make_ds(X, y)
        trace = selection.forward_stepwise(ds, 1, grouped=False)
        assert trace.ordered_features[0] == 3
        assert trace.ordered_features[0] == step1_brute_force(ds)

    def test_k_equals_p_exhausts(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 4))
        y = (rng.random(50) < 0.5).astype(int)
        ds = make_ds(X, y)
        trace = selection.forward_stepwise(ds, 4, grouped=False)
        assert sorted(trace.ordered_features) == [0, 1, 2, 3]
        assert len(trace.step_deviance) == 4

    def test_identical_columns_lower_index_wins(self):
        rng = np.random.default_rng(2)
        signal = rng.normal(size=80)
        y = (rng.random(80) < 1 / (1 + np.exp(-2 * signal))).astype(int)
        X = np.column_stack([rng.normal(size=80), signal, signal])
        ds = make_ds(X, y)
        trace = selection.forward_stepwise(ds, 1, grouped=False)
        assert trace.ordered_features == (1,)

    def test_k_out_of_range(self):
        ds = make_ds(np.ones((10, 2)) * np.arange(2), np.array([0, 1] * 5))
        with pytest.raises(DataError, match="between 1 and"):
            selection.forward_stepwise(ds, 0)
        with pytest.raises(DataError, match="between 1 and"):
            selection.forward_stepwise(ds, 3)

    def test_grouped_indicators_enter_together(self):
        rng = np.random.default_rng(3)
        raw = data.Dataset(
            feature_names=("age", "x"),
            rows=np.column_stack([rng.integers(18, 70, 120).astype(float), rng.normal(size=120)]),
            labels=rng.integers(0, 2, 120),
        )
        spec = data.EncodingSpec(
            columns={"age": data.Bins(cuts=(30, 50), reference="ge_50")}
        )
        enc = data.encode(raw, spec)
        assert enc.column_groups == ("age", "age", "x")
        trace = selection.forward_stepwise(enc, 1, grouped=True)
        assert trace.step_names[0] in ("age", "x")
        if trace.step_names[0] == "age":
            assert trace.step_groups[0] == (0, 1)

    def test_per_indicator_flag(self):
        rng = np.random.default_rng(4)
        X = (rng.random((60, 3)) < 0.5).astype(float)
        y = rng.integers(0, 2, 60)
        ds = data.Dataset(
            feature_names=("a_1", "a_2", "b"),
            rows=X,
            labels=y,
            column_groups=("a", "a", "b"),
        )
        trace = selection.forward_stepwise(ds, 3, grouped=False)
        assert len(trace.step_groups) == 3  # indicators treated individually

    def test_prefix_property_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(40, 90))
            p = int(rng.integers(3, 7))
            X = rng.normal(size=(n, p))
            coefs = rng.normal(scale=0.7, size=p)
            y = (rng.random(n) < 1 / (1 + np.exp(-(X @ coefs)))).astype(int)
            if y.min() == y.max():
                continue
            ds = make_ds(X, y)
            k2 = int(rng.integers(2, p + 1))
            k1 = int(rng.integers(1, k2))
            t1 = selection.forward_stepwise(ds, k1, grouped=False)
            t2 = selection.forward_stepwise(ds, k2, grouped=False)
            assert t2.ordered_features[: len(t1.ordered_features)] == t1.ordered_features

    def test_deviance_non_increasing_per_step(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(50, 100))
            X = rng.normal(size=(n, 5))
            y = (rng.random(n) < 0.5).astype(int)
            if y.min() == y.max():
                continue
            trace = selection.forward_stepwise(make_ds(X, y), 5, grouped=False)
            devs = trace.step_deviance
            assert all(b <= a + 1e-6 for a, b in zip(devs, devs[1:]))

    def test_step1_matches_brute_force_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(40, 80))
            p = int(rng.integers(2, 6))
            X = rng.normal(size=(n, p))
            y = (rng.random(n) < 0.5).astype(int)
            if y.min() == y.max():
                continue
            ds = make_ds(X, y)
            trace = selection.forward_stepwise(ds, 1, grouped=False)
            assert trace.ordered_features[0] == step1_brute_force(ds)

    def test_trace_json_round_trip(self):
        trace = selection.SelectionTrace(
            ordered_features=(3, 1, 0),
            step_groups=((3,), (1, 0)),
            step_names=("c", "ab"),
            step_deviance=(40.0, 31.5),
        )
        back = selection.SelectionTrace.from_json(trace.to_json())
        assert back == trace


class TestConstantColumn:
    """The table of ``tests/test_cli.py::TestConstantColumn``: an all-ones
    column ``k`` beside an informative 0/1 column ``x`` and a noise column ``z``."""

    @staticmethod
    def table(with_constant=True):
        rng = np.random.default_rng(0)
        n = 300
        x = rng.integers(0, 2, n)
        noise = rng.normal(size=n)
        y = (rng.random(n) < 1 / (1 + np.exp(1 - 2 * x))).astype(int)
        columns = {"k": np.ones(n), "x": x.astype(float), "z": noise}
        if not with_constant:
            del columns["k"]
        return data.Dataset(
            feature_names=tuple(columns), rows=np.column_stack(list(columns.values())), labels=y
        )

    @pytest.mark.parametrize("grouped", [True, False])
    def test_constant_group_is_never_offered(self, monkeypatch, grouped):
        offered = []
        fit_logistic_many = selection.fit_logistic_many

        def spy(X, y, column_sets, **kwargs):
            offered.extend(X[:, cols] for cols in column_sets)
            return fit_logistic_many(X, y, column_sets, **kwargs)

        monkeypatch.setattr(selection, "fit_logistic_many", spy)
        ds = self.table()
        trace = selection.forward_stepwise(ds, 2, grouped=grouped)
        assert len(offered) == 2 + 1  # x and z at step 1, the other at step 2
        assert all(np.ptp(X, axis=0).min() > 0 for X in offered)
        assert "k" not in trace.step_names
        assert [name for name, _ in selection.selectable_groups(ds, grouped)] == ["x", "z"]

    @pytest.mark.parametrize("grouped", [True, False])
    def test_trace_otherwise_unchanged(self, grouped):
        trace = selection.forward_stepwise(self.table(), 2, grouped=grouped)
        reduced = selection.forward_stepwise(self.table(with_constant=False), 2, grouped=grouped)
        assert trace.step_names == reduced.step_names
        assert trace.step_deviance == reduced.step_deviance
        assert trace.ordered_features == tuple(j + 1 for j in reduced.ordered_features)
        with pytest.raises(DataError, match=r"selectable features \(2\)"):
            selection.forward_stepwise(self.table(), 3, grouped=grouped)


class TestNearConstantColumn:
    """A column whose sd sits at the varying-column threshold: the candidates
    are the columns that the fits' own full-row design keeps."""

    @staticmethod
    def table():
        rng = np.random.default_rng(6)
        base = rng.standard_normal(150)
        other = rng.standard_normal(150)
        X = np.column_stack([other, 2.5 + 2.5091756886399263e-12 * base])
        y = (rng.random(150) < 0.5).astype(int)
        return make_ds(X, y)

    @pytest.mark.parametrize("grouped", [True, False])
    def test_candidates_are_the_columns_the_design_keeps(self, grouped):
        ds = self.table()
        keep = glm._design(ds.rows, None)[3]
        candidates = [cols for _, cols in selection.selectable_groups(ds, grouped)]
        assert candidates == [(j,) for j in np.flatnonzero(keep)] == [(0,)]
        assert glm.fit_logistic(ds.rows, ds.labels.astype(float)).coefficients[1] == 0.0


class TestUnfittableCandidate:
    @staticmethod
    def table(with_female=True):
        # female = 1 - male: once male is in, the female fit's normal equations are singular
        rng = np.random.default_rng(0)
        n = 400
        male, x = rng.integers(0, 2, n), rng.normal(size=n)
        y = (rng.random(n) < 1 / (1 + np.exp(0.75 - 1.5 * male - 0.3 * x))).astype(int)
        columns = {"male": male, "female": 1 - male, "x": x}
        if not with_female:
            del columns["female"]
        return data.Dataset(
            feature_names=tuple(columns), rows=np.column_stack(list(columns.values())), labels=y
        )

    def test_complement_column_is_skipped(self):
        trace = selection.forward_stepwise(self.table(), 2)
        reduced = selection.forward_stepwise(self.table(with_female=False), 2)
        assert trace.step_names == reduced.step_names == ("male", "x")
        assert trace.step_deviance == reduced.step_deviance

    def test_step_where_no_candidate_fits_raises(self, monkeypatch):
        fit_logistic_many = selection.fit_logistic_many

        def fails_past_one_feature(X, y, column_sets, **kwargs):
            return [
                NumericError("singular weighted normal equations") if len(cols) > 1
                else fit_logistic_many(X, y, [cols], **kwargs)[0]
                for cols in column_sets
            ]

        monkeypatch.setattr(selection, "fit_logistic_many", fails_past_one_feature)
        with pytest.raises(NumericError, match="step 2: .*'female': singular"):
            selection.forward_stepwise(self.table(), 2)

    def test_failed_step_carries_the_steps_before_it(self):
        # the third step has only the complement column left
        with pytest.raises(selection.StepFailure, match="step 3: .*'female'") as info:
            selection.forward_stepwise(self.table(), 3)
        trace = info.value.trace
        assert trace.step_names == ("male", "x")
        assert trace.step_deviance == selection.forward_stepwise(self.table(), 2).step_deviance


def batched_steps(ds, k, grouped):
    """forward_stepwise's trace (up to a failed step) and each step's batch of
    candidate fits."""
    steps = []
    fit_logistic_many = selection.fit_logistic_many

    def spy(X, y, column_sets, **kwargs):
        steps.append(fit_logistic_many(X, y, column_sets, **kwargs))
        return steps[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selection, "fit_logistic_many", spy)
        try:
            trace = selection.forward_stepwise(ds, k, grouped=grouped)
        except selection.StepFailure as exc:
            trace = exc.trace
    return trace, steps


def assert_matches_reference(ds, k, grouped, seen):
    """The batched steps pick what one fit per candidate picks, with the same
    unfittable and clamped candidates and deviances within 1e-9; ``seen``
    counts the candidates of each kind."""
    trace, steps = batched_steps(ds, k, grouped)
    ref, ref_steps = forward_stepwise_reference(ds, k, grouped)
    assert trace.step_names == ref.step_names
    assert trace.step_groups == ref.step_groups
    assert np.max(np.abs(np.subtract(trace.step_deviance, ref.step_deviance)), initial=0.0) <= 1e-9
    assert len(steps) == len(ref_steps)
    for fits, ref_fits in zip(steps, ref_steps):
        assert len(fits) == len(ref_fits)
        for fit, (name, ref_fit) in zip(fits, ref_fits):
            if isinstance(ref_fit, NumericError):
                assert isinstance(fit, NumericError) and str(fit) == str(ref_fit), name
                seen["unfittable"] += 1
                continue
            assert not isinstance(fit, NumericError), (name, fit)
            assert fit.converged == ref_fit.converged, name  # clamped alike
            assert abs(fit.log_likelihood - ref_fit.log_likelihood) <= 0.5e-9, name
            seen["clamped" if not fit.converged else "converged"] += 1


def random_table(rng, grouped):
    n, p = int(rng.integers(40, 150)), int(rng.integers(3, 9))
    X = np.where(rng.random(p) < 0.5, rng.normal(size=(n, p)), rng.random((n, p)) < 0.4) * 1.0
    y = (rng.random(n) < 1 / (1 + np.exp(-(X @ rng.normal(size=p) - 0.5)))).astype(int)
    y[:2] = 0, 1
    groups = tuple(f"g{g}" for g in np.sort(rng.integers(0, p, p))) if grouped else None
    return data.Dataset(tuple(f"x{j}" for j in range(p)), X, y, column_groups=groups)


def heart_training_folds():
    """The training halves of the benchmark's heart sweep: 2 outer folds at
    each of its seeds."""
    ds = datasets.load_heart()
    for seed in (0, 1, 2, 3, 4, 5, 8):
        folds = data.kfold(ds.n, 2, seed=seed, labels=ds.labels)
        for f in range(2):
            yield ds.take(folds.train_indices(f))


def n_below_p_table():
    """The 12 x 30 binary table of ``tests/test_cli.py``'s n-below-p input."""
    rng = np.random.default_rng(0)
    _ = rng.integers(0, 2, 200), rng.integers(0, 2, 200), rng.random(200)
    X = rng.integers(0, 2, (12, 30)).astype(float)
    return make_ds(X, np.arange(12) % 2)


class TestBatchedSteps:
    def test_random_tables_match_one_fit_per_candidate(self):
        rng = np.random.default_rng(30)
        seen = dict(unfittable=0, clamped=0, converged=0)
        for _ in range(20):
            for grouped in (True, False):
                ds = random_table(rng, grouped)
                k = len(selection.selectable_groups(ds, grouped))
                assert_matches_reference(ds, k, grouped, seen)
        assert seen["converged"] > 0

    def test_heart_sweep_folds_match_one_fit_per_candidate(self):
        seen = dict(unfittable=0, clamped=0, converged=0)
        for train in heart_training_folds():
            assert_matches_reference(train, 3, True, seen)
        assert seen["clamped"] > 0

    def test_heart_sweep_folds_select_as_irls_does(self):
        # the unpenalized Newton fits pick every step IRLS with step-halving picks
        def irls_fit(X, y):
            return irls(X, y, max_iter=60, tol=1e-8, clamp=True)

        for train in heart_training_folds():
            trace = selection.forward_stepwise(train, 3)
            ref, _ = forward_stepwise_reference(train, 3, fit_logistic=irls_fit)
            assert trace.step_groups == ref.step_groups

    def test_degenerate_tables_match_one_fit_per_candidate(self):
        rng = np.random.default_rng(31)
        x0, x1 = rng.integers(0, 2, (2, 200))
        separable = make_ds(np.column_stack([x0, x1, rng.normal(size=200)]), x0)
        seen = dict(unfittable=0, clamped=0, converged=0)
        for ds, k in (
            (TestConstantColumn.table(), 2),
            (TestUnfittableCandidate.table(), 3),
            (separable, 3),
            (n_below_p_table(), 10),
        ):
            for grouped in (True, False):
                assert_matches_reference(ds, k, grouped, seen)
        assert seen["unfittable"] > 0 and seen["clamped"] > 0
