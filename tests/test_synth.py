import csv
import dataclasses
import re

import numpy as np
import pytest
from oracles import load_cohort_rows

from scorekit import data, glm, policy, synth
from scorekit.errors import DataError


def constant_policy(table, released):
    """Release every case, or withhold every case."""
    return policy.FixedActionsPolicy(fixed=np.full(len(table), released))


@pytest.fixture(scope="module")
def big_cohort():
    return synth.generate(synth.GeneratorConfig(n=100000, seed=101))


class TestGenerate:
    def test_target_marginals(self, big_cohort):
        table = big_cohort.case_table()
        released = table.released
        assert np.array_equal(table.actions == policy.RELEASE, released)
        assert np.mean(released) == pytest.approx(0.69, abs=0.01)
        assert table.outcomes[np.flatnonzero(released)].mean() == pytest.approx(0.15, abs=0.01)
        assert table.outcomes[np.flatnonzero(~released)].mean() == pytest.approx(0.09, abs=0.01)

    def test_same_seed_identical(self, tmp_path):
        a = synth.generate(synth.GeneratorConfig(n=2000, seed=7))
        b = synth.generate(synth.GeneratorConfig(n=2000, seed=7))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        synth.write_cohort_csv(a, pa)
        synth.write_cohort_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        a = synth.generate(synth.GeneratorConfig(n=500, seed=1))
        b = synth.generate(synth.GeneratorConfig(n=500, seed=2))
        assert not np.array_equal(a.case_table().outcomes, b.case_table().outcomes)

    def test_hidden_u_disabled_u_has_no_selection_effect(self):
        cohort = synth.generate(synth.GeneratorConfig(n=20000, seed=5))
        table = cohort.case_table()
        X = np.column_stack([table.X, cohort.u.astype(float)])
        released = table.released.astype(float)
        fit = glm.fit_logistic(X, released)
        # z-statistic of the u coefficient from the observed information
        prob = 1 / (1 + np.exp(-(fit.intercept + X @ fit.coefficients)))
        W = prob * (1 - prob)
        Xa = np.column_stack([np.ones(len(X)), X])
        cov = np.linalg.inv(Xa.T @ (Xa * W[:, None]))
        z = fit.coefficients[-1] / np.sqrt(cov[-1, -1])
        assert abs(z) < 4.0

    def test_hidden_u_enabled_shifts_selection(self):
        params = policy.SensitivityParams(
            p_u=0.3, alpha=np.log(3.0), delta_release=np.log(2.0), delta_withhold=0.0
        )
        cohort = synth.generate(synth.GeneratorConfig(n=20000, seed=6, hidden_u=params))
        table = cohort.case_table()
        rel_u1 = np.mean(table.released[cohort.u == 1])
        rel_u0 = np.mean(table.released[cohort.u == 0])
        assert rel_u1 - rel_u0 > 0.1

    def test_observed_outcome_equals_potential_of_action(self, big_cohort):
        table = big_cohort.case_table()
        expected = np.where(table.released, table.po_release, table.po_withhold)
        assert np.array_equal(expected, table.outcomes)

    def test_column_groups_group_indicators(self, big_cohort):
        groups = set(big_cohort.column_groups)
        assert "age" in groups and "priors" in groups


class TestCohortContainer:
    def test_released_dataset_equals_the_rule_dataset_built_by_hand(self):
        cohort = synth.generate(synth.GeneratorConfig(n=3000, seed=12))
        table = cohort.case_table()
        folds = data.kfold(len(table), 3, seed=0, labels=table.outcomes.astype(int))
        construct = table.take(folds.test_indices(0))
        released = np.flatnonzero(construct.released)
        by_hand = data.Dataset(
            feature_names=cohort.feature_names,
            rows=construct.X[released],
            labels=construct.outcomes[released].astype(int),
            column_groups=cohort.column_groups,
        )
        ds = construct.released_dataset()
        assert ds.feature_names == by_hand.feature_names
        assert ds.column_groups == by_hand.column_groups
        assert ds.rows.dtype == by_hand.rows.dtype and np.array_equal(ds.rows, by_hand.rows)
        assert ds.labels.dtype == by_hand.labels.dtype
        assert np.array_equal(ds.labels, by_hand.labels)

    @pytest.mark.parametrize("field", ["u", "judges"])
    def test_bookkeeping_of_the_wrong_length_rejected(self, field):
        cohort = synth.generate(synth.GeneratorConfig(n=50, seed=10))
        with pytest.raises(DataError, match="one entry per case"):
            dataclasses.replace(cohort, **{field: getattr(cohort, field)[:-1]})

    def test_bookkeeping_columns_are_read_only(self):
        cohort = synth.generate(synth.GeneratorConfig(n=50, seed=10))
        for column in (cohort.u, cohort.judges):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]

    def test_empty_cohort_rejected(self):
        with pytest.raises(DataError, match="n must be at least 1"):
            synth.GeneratorConfig(n=0, seed=0)


class TestOracleValue:
    def test_observed_policy_matches_empirical_mean(self, big_cohort):
        table = big_cohort.case_table()
        pol = policy.FixedActionsPolicy(fixed=table.released)
        est = synth.oracle_value(table, pol)
        assert est.value == pytest.approx(table.outcomes.mean(), abs=1e-15)
        assert est.method == policy.ORACLE

    def test_release_all_minus_withhold_all_is_average_effect(self, big_cohort):
        table = big_cohort.case_table()
        v_rel = synth.oracle_value(table, constant_policy(table, True))
        v_wh = synth.oracle_value(table, constant_policy(table, False))
        expected = float(np.mean(table.po_release - table.po_withhold))
        assert v_rel.value - v_wh.value == pytest.approx(expected, abs=1e-12)

    def test_three_case_hand_computation(self):
        table = policy.CaseTable(
            X=[[1.0], [2.0], [3.0]],
            released=[True, False, True],
            outcomes=[1, 0, 0],
            po_release=[1, 1, 0],
            po_withhold=[0, 0, 1],
        )
        # release-everyone: potential outcomes (1, 1, 0) -> 2/3
        est = synth.oracle_value(table, constant_policy(table, True))
        assert est.value == pytest.approx(2.0 / 3.0)
        assert est.action_rate == 1.0
        # withhold-everyone: (0, 0, 1) -> 1/3
        est = synth.oracle_value(table, constant_policy(table, False))
        assert est.value == pytest.approx(1.0 / 3.0)

    def test_missing_potential_outcomes_rejected(self):
        table = policy.CaseTable(X=[[1.0]], released=[True], outcomes=[1])
        with pytest.raises(DataError, match="potential outcomes"):
            synth.oracle_value(table, constant_policy(table, True))


class TestCohortCsv:
    def test_round_trip(self, tmp_path):
        cohort = synth.generate(synth.GeneratorConfig(n=300, seed=9))
        path = tmp_path / "cohort.csv"
        synth.write_cohort_csv(cohort, path)
        back = synth.load_cohort_csv(path)
        assert back.feature_names == cohort.feature_names
        assert back.column_groups == cohort.column_groups
        ta, tb = cohort.case_table(), back.case_table()
        assert np.array_equal(ta.X, tb.X)
        assert np.array_equal(ta.released, tb.released)
        assert np.array_equal(ta.outcomes, tb.outcomes)
        assert np.array_equal(ta.po_release, tb.po_release)
        assert np.array_equal(cohort.u, back.u)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        cohort = synth.generate(synth.GeneratorConfig(n=300, seed=9))
        path = tmp_path / "cohort.csv"
        synth.write_cohort_csv(cohort, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        back = synth.load_cohort_csv(path)
        assert back.feature_names == cohort.feature_names
        assert back.column_groups == cohort.column_groups
        assert np.array_equal(back.case_table().X, cohort.case_table().X)

    def test_round_trip_keeps_judges_and_withhold_outcomes(self, tmp_path):
        cohort = synth.generate(synth.GeneratorConfig(n=300, seed=9))
        path = tmp_path / "cohort.csv"
        synth.write_cohort_csv(cohort, path)
        back = synth.load_cohort_csv(path)
        assert np.array_equal(cohort.judges, back.judges)
        assert np.array_equal(cohort.case_table().po_withhold, back.case_table().po_withhold)

    def test_non_utf8_file_is_data_error_naming_it(self, tmp_path):
        cohort = synth.generate(synth.GeneratorConfig(n=300, seed=9))
        path = tmp_path / "cohort.csv"
        synth.write_cohort_csv(cohort, path)
        path.write_bytes(path.read_bytes().replace(b"judge_07", "judge_\xe9".encode("latin-1")))
        with pytest.raises(DataError, match="not a readable UTF-8 CSV") as info:
            synth.load_cohort_csv(path)
        assert str(path) in str(info.value)

    def test_a_header_cell_holding_a_line_break_is_refused(self, tmp_path):
        cohort = synth.generate(synth.GeneratorConfig(n=50, seed=10))
        path = tmp_path / "cohort.csv"
        synth.write_cohort_csv(cohort, path)
        header, rest = path.read_text(encoding="utf-8").split("\n", 1)
        path.write_text('"x\ny"' + header[header.index(","):] + "\n" + rest, encoding="utf-8")
        with pytest.raises(DataError, match="a header cell holds a line break") as info:
            synth.load_cohort_csv(path)
        assert str(path) in str(info.value)

    def test_plain_loader_refuses_cohort_files(self, tmp_path):
        cohort = synth.generate(synth.GeneratorConfig(n=50, seed=10))
        path = tmp_path / "cohort.csv"
        synth.write_cohort_csv(cohort, path)
        with pytest.raises(DataError, match="reserved"):
            data.load_csv(path, label_column="outcome")

    @pytest.mark.parametrize(
        "last_line, message",
        [("0.0,1.0", "line 4 has 2 fields"), (None, "line 4 has a non-numeric field")],
    )
    def test_malformed_row_is_data_error_naming_its_line(self, tmp_path, last_line, message):
        cohort = synth.generate(synth.GeneratorConfig(n=3, seed=9))
        path = tmp_path / "cohort.csv"
        synth.write_cohort_csv(cohort, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[-1] = last_line or "x" + lines[-1][1:]  # None: garble the first field
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=message):
            synth.load_cohort_csv(path)

    def test_float_cells_are_the_repr_of_each_value(self, tmp_path):
        cohort = synth.generate(synth.GeneratorConfig(n=6, seed=9))
        X = cohort.table.X.copy()
        # one cell text per bit pattern; 1e150, not 1e300, because a covariate
        # whose standard deviation overflows is refused
        X[:, 0] = [-0.0, 0.0, 0.1, -0.0, 5e-324, 1e150]
        cohort = dataclasses.replace(cohort, table=dataclasses.replace(cohort.table, X=X))
        path = tmp_path / "cohort.csv"
        synth.write_cohort_csv(cohort, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        p = len(cohort.feature_names)
        assert [row[:p] for row in rows] == [[repr(float(v)) for v in x] for x in X]
        back = synth.load_cohort_csv(path).case_table().X
        assert np.array_equal(back, X) and np.array_equal(np.signbit(back), np.signbit(X))

    @pytest.mark.parametrize(
        "column, cell, must",
        [("__u", "300", "be 0 or 1"), ("outcome", "-1", "be 0 or 1"),
         (-1, "nan", "be a finite number"), (0, "-inf", "be a finite number"),
         ("action", "parole", "be 'release' or 'withhold'")],
    )
    def test_bad_cell_is_data_error_naming_line_and_column(self, tmp_path, column, cell, must):
        cohort = synth.generate(synth.GeneratorConfig(n=3, seed=9))
        path = tmp_path / "cohort.csv"
        synth.write_cohort_csv(cohort, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        name = column if isinstance(column, str) else cohort.feature_names[column]
        rows[2][rows[0].index(name)] = cell  # line 3
        data.write_table(path, rows[0], rows[1:])
        message = f"{path}: line 3 column {name!r} must {must}, got {cell}"
        with pytest.raises(DataError, match=re.escape(message)):
            synth.load_cohort_csv(path)

    def test_non_cohort_file_rejected_by_cohort_loader(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("x,y\n1,0\n2,1\n", encoding="utf-8")
        with pytest.raises(DataError, match="not a cohort CSV"):
            synth.load_cohort_csv(path)


# judge cells the csv module must quote: a comma, a doubled quote, line breaks
QUOTED_JUDGES = ("judge,01", 'judge "02"', "judge\n03", "judge\r\n04", "judge_05")


def _cohort(n, seed, judges=None, first_column=None, hidden_u=None):
    cohort = synth.generate(synth.GeneratorConfig(n=n, seed=seed, hidden_u=hidden_u))
    if judges is not None:
        cohort = dataclasses.replace(cohort, judges=np.resize(np.array(judges), n))
    if first_column is not None:
        X = cohort.table.X.copy()
        X[: len(first_column), 0] = first_column
        cohort = dataclasses.replace(cohort, table=dataclasses.replace(cohort.table, X=X))
    return cohort


def _assert_bitwise_equal(got, want):
    assert got.feature_names == want.feature_names
    assert got.column_groups == want.column_groups
    pairs = [(got.table.X.view(np.uint64), want.table.X.view(np.uint64)),
             (got.u, want.u), (got.judges, want.judges)]
    pairs += [(getattr(got.table, name), getattr(want.table, name))
              for name in ("released", "outcomes", "po_release", "po_withhold")]
    for a, b in pairs:
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _cell(line, column, text):
    """Edit: set one cell (0-based column) of one line (1-based, header = 1)."""
    def edit(lines):
        cells = lines[line - 1].split(",")
        cells[column] = text
        return lines[: line - 1] + [",".join(cells)] + lines[line:]
    return edit


class TestCohortCsvAgainstRowLoop:
    """The typed loader against the row-by-row reference, ``load_cohort_rows``."""

    @pytest.mark.parametrize(
        "cohort, to_bytes",
        [
            pytest.param(dict(n=500, seed=0), None, id="seed-0"),
            pytest.param(dict(n=500, seed=4, hidden_u=policy.SensitivityParams(0.3, 0.7, 0.7, 0.7)),
                         None, id="seed-4-hidden-u"),
            pytest.param(dict(n=40, seed=1, judges=QUOTED_JUDGES), None, id="quoted-judges"),
            pytest.param(dict(n=40, seed=2, first_column=[-0.0, 5e-324, 1e150, 0.0, -1e150]),
                         None, id="extreme-floats"),
            pytest.param(dict(n=1, seed=3), None, id="single-row"),
            pytest.param(dict(n=40, seed=5), lambda b: b"\xef\xbb\xbf" + b, id="bom"),
            pytest.param(dict(n=40, seed=6), lambda b: b.replace(b"\r\n", b"\n"), id="lf"),
            pytest.param(dict(n=40, seed=7), lambda b: b.rstrip(b"\r\n"), id="no-final-break"),
            pytest.param(dict(n=40, seed=8, judges=QUOTED_JUDGES),
                         lambda b: b"\xef\xbb\xbf" + b.rstrip(b"\r\n"), id="quoted-bom-no-final"),
        ],
    )
    def test_bitwise_equal(self, tmp_path, cohort, to_bytes):
        path = tmp_path / "cohort.csv"
        synth.write_cohort_csv(_cohort(**cohort), path)
        if to_bytes is not None:
            path.write_bytes(to_bytes(path.read_bytes()))
        _assert_bitwise_equal(synth.load_cohort_csv(path), load_cohort_rows(path))

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda lines: lines[:-1] + ["0.0,1.0"], id="short-row"),
            pytest.param(lambda lines: lines[:2] + ["x" + lines[2]] + lines[3:], id="garbled-field"),
            pytest.param(lambda lines: lines[:2] + [""] + lines[2:], id="blank-line-mid"),
            pytest.param(lambda lines: lines + [""], id="blank-line-end"),
            pytest.param(lambda lines: lines[:2] + ["  "] + lines[2:], id="spaces-line"),
            pytest.param(_cell(3, -1, "300"), id="bad-code"),
            pytest.param(_cell(4, -5, "2"), id="bad-outcome"),
            pytest.param(_cell(3, -6, "parole"), id="bad-action"),
            pytest.param(_cell(3, 0, "nan"), id="nan"),
            pytest.param(_cell(5, 2, "-inf"), id="infinite"),
            pytest.param(_cell(5, 2, "1e300"), id="too-large"),
            pytest.param(_cell(3, -2, "1.0"), id="float-code"),
            pytest.param(_cell(3, 1, ""), id="empty-number"),
            pytest.param(_cell(350, -4, "judge_\udce9"), id="not-utf-8"),
        ],
    )
    def test_malformed_file_raises_the_same_error(self, tmp_path, edit):
        path = tmp_path / "cohort.csv"
        # 400 rows: a bad byte on line 350 lies beyond what the header read decodes
        synth.write_cohort_csv(_cohort(n=400, seed=9), path)
        lines = path.read_bytes().decode("utf-8").split("\r\n")[:-1]
        path.write_bytes("\r\n".join(edit(lines)).encode("utf-8", "surrogateescape") + b"\r\n")
        with pytest.raises(DataError) as want:
            load_cohort_rows(path)
        with pytest.raises(DataError) as got:
            synth.load_cohort_csv(path)
        assert str(got.value) == str(want.value)

    def test_digit_separators_are_refused(self, tmp_path):
        # float() reads "1_000.5"; numpy's parser does not
        path = tmp_path / "cohort.csv"
        synth.write_cohort_csv(_cohort(n=8, seed=9), path)
        lines = path.read_bytes().decode("utf-8").split("\r\n")[:-1]
        path.write_text("\r\n".join(_cell(3, -7, "1_000.5")(lines)) + "\r\n", encoding="utf-8")
        assert load_cohort_rows(path).table.X[1, -1] == 1000.5
        with pytest.raises(DataError, match="1_000.5") as info:
            synth.load_cohort_csv(path)
        assert str(path) in str(info.value)


class TestBlockWriter:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_bytes_equal_a_one_shot_csv_writer(self, tmp_path, offset):
        n = synth._WRITE_BLOCK + offset
        cohort = _cohort(n=n, seed=n, judges=QUOTED_JUDGES)
        t = cohort.table
        path, reference = tmp_path / "blocks.csv", tmp_path / "reference.csv"
        synth.write_cohort_csv(cohort, path)
        with open(reference, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([*cohort.feature_names, *synth.COHORT_COLUMNS])
            writer.writerows(
                [*map(repr, t.X[i].tolist()), t.actions[i], int(t.outcomes[i]), cohort.judges[i],
                 int(t.po_release[i]), int(t.po_withhold[i]), int(cohort.u[i])]
                for i in range(n)
            )
        assert path.read_bytes() == reference.read_bytes()
        again = tmp_path / "again.csv"
        synth.write_cohort_csv(synth.load_cohort_csv(path), again)
        assert again.read_bytes() == path.read_bytes()


class TestHiddenUBandCoverage:
    def test_oracle_inside_band_in_most_seeded_runs(self):
        # when the generator's hidden covariate matches a posited regime, the
        # adjusted band should cover the true value in >= 90% of runs
        params = policy.SensitivityParams(
            p_u=0.3, alpha=np.log(2.0), delta_release=np.log(2.0), delta_withhold=np.log(2.0)
        )
        regimes = [params]
        hits = 0
        runs = 10
        for seed in range(runs):
            cohort = synth.generate(
                synth.GeneratorConfig(n=20000, seed=200 + seed, hidden_u=params)
            )
            table = cohort.case_table()
            half = len(table) // 2
            fit_part, eval_part = table.take(np.arange(half)), table.take(np.arange(half, len(table)))
            folds = data.kfold(half, 3, seed=seed, labels=fit_part.outcomes.astype(int))
            surface = policy.fit_response_surface(fit_part, folds, n_lambda=20)
            pol = constant_policy(eval_part, True)
            band = policy.sensitivity_sweep(eval_part, pol, surface, regimes)
            oracle = synth.oracle_value(eval_part, pol).value
            lo, hi = band.low - 0.005, band.high + 0.005  # sampling slack
            hits += int(lo <= oracle <= hi)
        assert hits >= 9
