import csv
import hashlib
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import scorekit
from scorekit import cli, data, srr, synth


def run(*argv):
    return cli.run(list(argv))


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cohort") / "cohort.csv"
    cohort = synth.generate(synth.GeneratorConfig(n=4000, seed=3))
    synth.write_cohort_csv(cohort, path)
    return str(path)


@pytest.fixture()
def train_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 300
    age = rng.integers(18, 70, n)
    priors = rng.integers(0, 6, n)
    risk = 1 / (1 + np.exp(-(-2.0 + 0.05 * (50 - age) + 0.5 * priors)))
    fta = (rng.random(n) < risk).astype(int)
    path = tmp_path / "bail.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["age", "priors", "fta"])
        for row in zip(age, priors, fta):
            writer.writerow(row)
    spec_path = tmp_path / "enc.json"
    spec_path.write_text(
        """
        {"columns": {
          "age": {"type": "bins", "cuts": [21,26,31,36,41,46,51],
                  "labels": ["18_20","21_25","26_30","31_35","36_40","41_45","46_50","51_plus"],
                  "reference": "51_plus"},
          "priors": {"type": "bins", "cuts": [1,2,3,4],
                     "labels": ["0","1","2","3","4_plus"], "reference": "0"}
        }}
        """,
        encoding="utf-8",
    )
    return str(path), str(spec_path)


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestTrain:
    def test_writes_table_and_machine_formats(self, train_csv, tmp_path):
        data_path, spec_path = train_csv
        out = tmp_path / "out"
        code = run(
            "train", "--input", data_path, "--label", "fta", "--encoding", spec_path,
            "--k", "2", "--M", "10", "--threshold", "10.5",
            "--folds", "5", "--n-lambda", "20", "--output-dir", str(out),
        )
        assert code == 0
        table = (out / "scorecard.txt").read_text()
        assert "Feature" in table and "Score" in table
        card = srr.Scorecard.from_json((out / "scorecard.json").read_text())
        assert card.weight_bound == 10 and card.feature_budget == 2
        assert card.threshold == 10.5
        assert max(abs(w) for _, w in card.entries) == 10

    def test_bom_prefixed_encoding_is_read(self, train_csv, tmp_path):
        data_path, spec_path = train_csv
        bom_spec = tmp_path / "enc_bom.json"
        bom_spec.write_bytes(b"\xef\xbb\xbf" + open(spec_path, "rb").read())
        code = run(
            "train", "--input", data_path, "--label", "fta", "--encoding", str(bom_spec),
            "--k", "2", "--M", "10", "--folds", "5", "--n-lambda", "20",
            "--output-dir", str(tmp_path / "out"),
        )
        assert code == 0

    def test_categorical_without_encoding_fails_with_data_error(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("color,y\nred,0\nblue,1\nred,1\nblue,0\n", encoding="utf-8")
        code = run("train", "--input", str(path), "--label", "y", "--k", "1", "--M", "2",
                   "--output-dir", str(tmp_path))
        assert code == 3

    def test_missing_file_is_data_error(self, tmp_path):
        code = run("train", "--input", str(tmp_path / "absent.csv"), "--label", "y",
                   "--k", "1", "--M", "2", "--output-dir", str(tmp_path))
        assert code == 3

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("town,y\nMálaga,0\nCádiz,1\n".encode("latin-1"))
        code = run("train", "--input", str(path), "--label", "y", "--k", "1", "--M", "2",
                   "--output-dir", str(tmp_path))
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(path) in err

    @pytest.mark.parametrize(
        "directive, missing",
        [
            ('{"type": "one_hot", "reference": 18}', "categories"),
            ('{"type": "one_hot", "categories": [18, 19]}', "reference"),
            ('{"type": "bins", "reference": "lt_30"}', "cuts"),
            ('{"type": "bins", "cuts": [30]}', "reference"),
        ],
        ids=["one_hot-categories", "one_hot-reference", "bins-cuts", "bins-reference"],
    )
    def test_directive_missing_key_is_data_error(self, train_csv, tmp_path, capsys, directive, missing):
        data_path, _ = train_csv
        spec = tmp_path / "partial.json"
        spec.write_text('{"columns": {"age": %s}}' % directive, encoding="utf-8")
        code = run("train", "--input", data_path, "--label", "fta", "--encoding", str(spec),
                   "--k", "1", "--M", "2", "--output-dir", str(tmp_path))
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and "'age'" in err and repr(missing) in err
        assert str(spec) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "payload",
        [
            '{"columns": {"age": {"type": "bins"}}}'.encode("utf-16"),
            b'{"columns": {"age": ',
            b'["age"]',
            b'{"columns": {"age": "one_hot"}}',
            b'{"columns": {"age": {"type": "one_hot", "categories": 5, "reference": 5}}}',
            b'{"columns": {"age": {"type": "bins", "cuts": ["a"], "reference": "x"}}}',
        ],
        ids=["utf16", "truncated", "not-a-mapping", "directive-not-object",
             "categories-not-a-list", "non-numeric-cut"],
    )
    def test_unreadable_encoding_file_is_data_error(self, train_csv, tmp_path, capsys, payload):
        data_path, _ = train_csv
        spec = tmp_path / "bad.json"
        spec.write_bytes(payload)
        code = run("train", "--input", data_path, "--label", "fta", "--encoding", str(spec),
                   "--k", "1", "--M", "2", "--output-dir", str(tmp_path))
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(spec) in err and "Traceback" not in err
        assert not (tmp_path / "scorecard.json").exists()

    def test_unknown_flag_is_usage_error(self):
        assert run("train", "--nonsense") == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # two positives stranded in one fold -> cv fold misses a class
        path = tmp_path / "thin.csv"
        rows = ["x,y"] + [f"{i},{1 if i < 2 else 0}" for i in range(12)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = run("train", "--input", str(path), "--label", "y", "--k", "1", "--M", "2",
                   "--folds", "6", "--output-dir", str(tmp_path))
        assert code == 4


class TestConstantColumn:
    @pytest.fixture()
    def constant_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 300
        x = rng.integers(0, 2, n)
        noise = rng.normal(size=n)
        y = (rng.random(n) < 1 / (1 + np.exp(1 - 2 * x))).astype(int)
        path = tmp_path / "constant.csv"
        data.write_table(path, ["k", "x", "z", "y"], zip([1] * n, x, noise.tolist(), y))
        return str(path)

    def test_train_and_evaluate_give_it_weight_zero(self, constant_csv, tmp_path):
        # the all-ones column k copies the intercept: it must get weight 0, not a singular fit
        code = run("train", "--input", constant_csv, "--label", "y", "--k", "2", "--M", "3",
                   "--threshold", "1.5", "--output-dir", str(tmp_path))
        assert code == 0
        card = srr.Scorecard.from_json((tmp_path / "scorecard.json").read_text())
        assert "k" not in dict(card.entries) and dict(card.entries)["x"] > 0
        code = run("evaluate", "--input", constant_csv, "--label", "y", "--k-values", "1-3",
                   "--folds", "3", "--n-lambda", "10", "--output-dir", str(tmp_path))
        assert code == 0
        assert len(read_rows(tmp_path / "sweep.csv")) > 0


class TestEvaluate:
    def test_reversed_int_range_is_usage_error(self, train_csv, tmp_path):
        with pytest.raises(ValueError, match="exceeds its stop"):
            cli._parse_int_list("3-1,4")
        assert cli._parse_int_list("2-2,4") == (2, 4)
        data_path, spec_path = train_csv
        code = run("evaluate", "--input", data_path, "--label", "fta", "--encoding", spec_path,
                   "--k-values", "3-1,4", "--output-dir", str(tmp_path))
        assert code == 2
        assert not (tmp_path / "sweep.csv").exists()

    def test_default_k_values_on_two_features(self, tmp_path, capsys):
        # k 3-10 cannot be met by two feature groups: those cells fail, the command does not
        rng = np.random.default_rng(1)
        n = 300
        x0, x1 = rng.integers(0, 2, n), rng.integers(0, 2, n)
        y = (rng.random(n) < np.where(x0 > 0, 0.7, 0.3)).astype(int)
        path = tmp_path / "two.csv"
        data.write_table(path, ["x0", "x1", "y"], zip(x0, x1, y))
        assert run("evaluate", "--input", str(path), "--label", "y",
                   "--output-dir", str(tmp_path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len([ln for ln in lines if "mean AUC" in ln and ln.startswith("k=")]) == 2 * 3
        assert "k=10 M=3 failed: k=10 exceeds the 2 selectable features" in lines
        assert len(read_rows(tmp_path / "sweep.csv")) > 0


def _csv_text(header, rows, newline="\n"):
    return newline.join([header, *(",".join(str(v) for v in row) for row in rows)]) + newline


def _adversarial_input(case):
    """CSV text of one malformed or degenerate training table."""
    rng = np.random.default_rng(0)
    n = 200
    x0, x1 = rng.integers(0, 2, n), rng.integers(0, 2, n)
    y = (rng.random(n) < np.where(x0 > 0, 0.7, 0.3)).astype(int)
    rows = list(zip(x0, x1, y))
    if case == "nan-cell":
        rows[5] = (x0[5], "nan", y[5])
    if case == "three-valued-label":
        rows[7] = (x0[7], x1[7], 2)
    if case == "n-below-p":
        X = rng.integers(0, 2, (12, 30))
        names = ",".join(f"x{j}" for j in range(30))
        return _csv_text(f"{names},y", [(*row, i % 2) for i, row in enumerate(X)])
    if case == "one-positive":
        rows = [(a, b, int(i == 0)) for i, (a, b, _) in enumerate(rows)]
    if case == "separable":
        rows = [(a, b, a) for a, b, _ in rows]
    if case == "complement-column":
        # female = 1 - male copies the intercept once male is in: that candidate cannot be fit
        male, x = rng.integers(0, 2, 2 * n), rng.normal(size=2 * n)
        y = (rng.random(2 * n) < 1 / (1 + np.exp(0.75 - 1.5 * male - 0.3 * x))).astype(int)
        return _csv_text("male,female,x,y", zip(male, 1 - male, x, y))
    header = {"duplicate-header": "x0,x0,y", "quoted-comma-header": '"x0,a",x1,y'}
    return _csv_text(header.get(case, "x0,x1,y"), rows, "\r\n" if case == "crlf" else "\n")


class TestAdversarialInput:
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "case, code",
        [
            ("nan-cell", 3), ("duplicate-header", 3), ("three-valued-label", 3),
            ("n-below-p", 4), ("one-positive", 4),
            ("separable", 0), ("crlf", 0), ("quoted-comma-header", 0),
            ("complement-column", 0),
        ],
    )
    def test_exit_code_without_traceback(self, tmp_path, capsys, command, case, code):
        path = tmp_path / "input.csv"
        path.write_bytes(_adversarial_input(case).encode("utf-8"))
        # evaluate keeps its default k-values, 1-10, more than the tables hold;
        # 3 outer folds keep the n-below-p case under a second (10 take 15 s)
        sizes = ["--k", "2", "--M", "3"] if command == "train" else ["--folds", "3"]
        got = run(command, "--input", str(path), "--label", "y", *sizes,
                  "--output-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert got == code, err
        assert "Traceback" not in err
        if command == "evaluate" and code == 0:
            # the only rule cells allowed to fail are the k beyond the table's features
            # and, on the complement table, the k from its unfittable third step on
            errors = {r["error"] for r in read_rows(tmp_path / "sweep.csv")
                      if r["method"] in ("scorecard", "lasso_selected")} - {""}
            assert all("selectable features" in e or e.startswith("step 3: ")
                       for e in errors), errors

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_huge_heart_cell_names_its_column(self, tmp_path, capsys, command):
        # its square overflows: the fits would standardize the column with numpy warnings
        source = os.path.join(os.path.dirname(scorekit.__file__), "datasets", "heart_synthetic.csv")
        with open(source, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[7][rows[0].index("chol")] = "1e300"
        path = tmp_path / "heart.csv"
        data.write_table(path, rows[0], rows[1:])
        sizes = ["--k", "2", "--M", "3"] if command == "train" else ["--k-values", "1-2", "--folds", "3"]
        code = run(command, "--input", str(path), "--label", "disease", *sizes,
                   "--output-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 3, err
        assert "data error" in err and "'chol'" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["policy-eval", "sensitivity-sweep"])
    def test_huge_cohort_cell_names_its_column(self, cohort_csv, tmp_path, capsys, command):
        with open(cohort_csv, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[5][rows[0].index("noise_0")] = "1e300"
        path = tmp_path / "cohort.csv"
        data.write_table(path, rows[0], rows[1:])
        code = run(command, "--input", str(path), "--output-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 3, err
        assert "data error" in err and "'noise_0'" in err and "Traceback" not in err

    def test_mean_over_fewer_folds_says_how_many(self, tmp_path, capsys):
        # the complement table's full design is exactly collinear on two of three folds
        path = tmp_path / "input.csv"
        path.write_bytes(_adversarial_input("complement-column").encode("utf-8"))
        assert run("evaluate", "--input", str(path), "--label", "y", "--k-values", "1-2",
                   "--folds", "3", "--output-dir", str(tmp_path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"benchmark logistic_full mean AUC \d\.\d{4} \(1 of 3 folds\)",
                            lines[-1]), lines[-1]
        assert all(" of 3 folds)" not in line for line in lines[:-1]), lines


class TestSynthGen:
    def test_writes_cohort(self, tmp_path):
        code = run("synth-gen", "--n", "500", "--seed", "1", "--output-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "cohort.csv").exists()
        back = synth.load_cohort_csv(tmp_path / "cohort.csv")
        assert back.n == 500

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth-gen", "--n", "200", "--seed", "9", "--output-dir", str(a))
        run("synth-gen", "--n", "200", "--seed", "9", "--output-dir", str(b))
        assert (a / "cohort.csv").read_bytes() == (b / "cohort.csv").read_bytes()

    def test_cohort_bytes_pinned(self, tmp_path):
        # digest of the file written before the cohort was held column-wise
        assert run("synth-gen", "--n", "2000", "--seed", "0", "--output-dir", str(tmp_path)) == 0
        digest = hashlib.sha256((tmp_path / "cohort.csv").read_bytes()).hexdigest()
        assert digest == "cddef265b019af371d6923c1e92065b2ad9cde74e6debf3930c566b2762a02b9"

    @pytest.mark.parametrize("hidden", ["0.3,0.7,0.7", "0.3,a,0.7,0.7"])
    def test_malformed_hidden_u_names_the_flag(self, tmp_path, capsys, hidden):
        code = run("synth-gen", "--n", "200", "--hidden-u", hidden, "--output-dir", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert f"--hidden-u takes four numbers p,alpha,delta_rel,delta_wh, got {hidden!r}" in err
        assert "unpack" not in err and "convert" not in err
        assert not (tmp_path / "cohort.csv").exists()


class TestPolicyEval:
    def test_observed_policy_row_equals_empirical_rate(self, cohort_csv, tmp_path):
        code = run(
            "policy-eval", "--input", cohort_csv, "--k", "2", "--M", "10",
            "--thresholds", "6.5,10.5,14.5", "--n-lambda", "15", "--inner-folds", "3",
            "--seed", "4", "--output-dir", str(tmp_path),
        )
        assert code == 0
        rows = read_rows(tmp_path / "policy_eval.csv")
        observed = [r for r in rows if r["policy"] == "observed"]
        assert len(observed) == 1

        # recompute the evaluation fold's empirical adverse rate
        from scorekit import data as data_mod

        cohort = synth.load_cohort_csv(cohort_csv)
        table = cohort.case_table()
        folds = data_mod.kfold(len(table), 3, seed=4, labels=table.outcomes.astype(int))
        eval_idx = folds.test_indices(2)
        empirical = table.outcomes[eval_idx].mean()
        assert float(observed[0]["value"]) == pytest.approx(empirical, abs=1e-12)

        scorecard_rows = [r for r in rows if r["policy"] == "scorecard"]
        assert len(scorecard_rows) == 3
        risk_rows = [r for r in rows if r["policy"] == "risk_model"]
        assert len(risk_rows) == 19
        for r in rows:
            assert 0.0 <= float(r["action_rate"]) <= 1.0
            assert 0.0 <= float(r["value"]) <= 1.0

    def test_fold_provenance_recorded_and_disjoint(self, cohort_csv, tmp_path):
        run(
            "policy-eval", "--input", cohort_csv, "--thresholds", "10.5",
            "--n-lambda", "10", "--inner-folds", "3", "--output-dir", str(tmp_path),
        )
        header = (tmp_path / "policy_eval.csv").read_text().splitlines()[:2]
        assert any("fold_roles" in ln and "disjoint" in ln for ln in header)

    def test_rotation_changes_roles(self, cohort_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("policy-eval", "--input", cohort_csv, "--thresholds", "10.5",
            "--n-lambda", "10", "--inner-folds", "3", "--output-dir", str(a))
        run("policy-eval", "--input", cohort_csv, "--thresholds", "10.5",
            "--n-lambda", "10", "--inner-folds", "3", "--rotate", "1", "--output-dir", str(b))
        ha = (a / "policy_eval.csv").read_text().splitlines()[1]
        hb = (b / "policy_eval.csv").read_text().splitlines()[1]
        assert ha != hb

    def test_truncated_cohort_row_is_data_error(self, cohort_csv, tmp_path, capsys):
        path = tmp_path / "cohort.csv"
        shutil.copy(cohort_csv, path)
        text = path.read_text(encoding="utf-8").rstrip("\n")
        path.write_text(text[: text.rindex("\n") + 5] + "\n", encoding="utf-8")
        code = run("policy-eval", "--input", str(path), "--output-dir", str(tmp_path))
        assert code == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["policy-eval", "sensitivity-sweep"])
    @pytest.mark.parametrize(
        "column, cell", [("__u", "300"), ("age_18_20", "nan"), ("action", "parole")]
    )
    def test_bad_cohort_cell_is_data_error(self, cohort_csv, tmp_path, capsys, command, column, cell):
        with open(cohort_csv, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[5][rows[0].index(column)] = cell  # line 6
        path = tmp_path / "cohort.csv"
        data.write_table(path, rows[0], rows[1:])
        code = run(command, "--input", str(path), "--output-dir", str(tmp_path))
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and f"line 6 column {column!r}" in err and str(path) in err

    @pytest.mark.parametrize("flag, grid", [("--thresholds", "5:1:1"), ("--risk-thresholds", "x")])
    def test_malformed_grid_fails_before_any_fit(self, cohort_csv, tmp_path, monkeypatch, flag, grid):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the grids were parsed")

        monkeypatch.setattr(srr, "build_scorecard", no_fit)
        code = run("policy-eval", "--input", cohort_csv, flag, grid, "--output-dir", str(tmp_path))
        assert code == 2
        assert not (tmp_path / "policy_eval.csv").exists()

    @pytest.mark.parametrize(
        "grids",
        [("--thresholds", "nan", "--risk-thresholds", "nan"), ("--risk-thresholds", "0.2,inf")],
    )
    def test_non_finite_grid_fails_before_any_fit(self, cohort_csv, tmp_path, monkeypatch, grids):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the grids were parsed")

        monkeypatch.setattr(srr, "build_scorecard", no_fit)
        code = run("policy-eval", "--input", cohort_csv, *grids, "--output-dir", str(tmp_path))
        assert code == 2
        assert not (tmp_path / "policy_eval.csv").exists()

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x,decision,fta\n1,libéré,0\n2,détenu,1\n".encode("latin-1"))
        code = run("policy-eval", "--input", str(path), "--label", "fta", "--action", "decision",
                   "--output-dir", str(tmp_path))
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(path) in err

    @staticmethod
    def write_decision_csv(cohort_csv, path):
        """The cohort as an observed-decision CSV with a string judge column."""
        cohort = synth.load_cohort_csv(cohort_csv)
        table = cohort.case_table()
        decisions = np.where(table.released, "ROR", "BAIL")
        tail = zip(table.outcomes.astype(int).tolist(), decisions, cohort.judges)
        data.write_table(
            path,
            [*cohort.feature_names, "fta", "decision", "judge"],
            ([repr(float(v)) for v in x] + list(rest) for x, rest in zip(table.X, tail)),
        )
        return cohort

    def test_plain_decision_csv(self, cohort_csv, tmp_path, capsys):
        path = tmp_path / "decisions.csv"
        table = self.write_decision_csv(cohort_csv, path).case_table()
        common = ("--input", str(path), "--label", "fta", "--thresholds", "2.5,4.5",
                  "--n-lambda", "10", "--inner-folds", "3", "--seed", "4")
        assert run("policy-eval", *common, "--output-dir", str(tmp_path / "no_action")) == 3
        # a release value that matches no action would release no case
        assert run("policy-eval", *common, "--action", "decision", "--group", "judge",
                   "--release-value", "ror", "--output-dir", str(tmp_path / "ror")) == 3
        err = capsys.readouterr().err
        assert "release value 'ror' is none of the action values ['BAIL', 'ROR']" in err
        assert not (tmp_path / "ror" / "policy_eval.csv").exists()
        code = run("policy-eval", *common, "--action", "decision", "--group", "judge",
                   "--release-value", "ROR", "--output-dir", str(tmp_path))
        assert code == 0
        rows = read_rows(tmp_path / "policy_eval.csv")
        assert [r["policy"] for r in rows] == ["observed"] + ["scorecard"] * 2 + ["risk_model"] * 19
        folds = data.kfold(len(table), 3, seed=4, labels=table.outcomes.astype(int))
        empirical = table.outcomes[folds.test_indices(2)].mean()
        assert float(rows[0]["value"]) == pytest.approx(empirical, abs=1e-12)
        for r in rows:
            assert 0.0 <= float(r["action_rate"]) <= 1.0
            assert 0.0 <= float(r["value"]) <= 1.0

    def test_string_covariate_is_data_error(self, cohort_csv, tmp_path, capsys):
        # without --group, the judge column would be read as a covariate
        path = tmp_path / "decisions.csv"
        self.write_decision_csv(cohort_csv, path)
        code = run("policy-eval", "--input", str(path), "--label", "fta", "--action", "decision",
                   "--release-value", "ROR", "--thresholds", "2.5,4.5", "--n-lambda", "10",
                   "--inner-folds", "3", "--output-dir", str(tmp_path))
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and "['judge']" in err
        assert not (tmp_path / "policy_eval.csv").exists()

    def test_deterministic_given_seed(self, cohort_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("policy-eval", "--input", cohort_csv, "--thresholds", "8.5,12.5",
                "--n-lambda", "10", "--inner-folds", "3", "--seed", "7",
                "--output-dir", str(out))
        strip = lambda p: [ln for ln in p.read_text().splitlines() if not ln.startswith("#")]
        assert strip(a / "policy_eval.csv") == strip(b / "policy_eval.csv")


class TestSensitivitySweep:
    def test_band_brackets_baseline_for_every_threshold(self, cohort_csv, tmp_path, monkeypatch):
        # the risk model is policy-eval's alone; the sweep must not fit it
        risk_fits = []
        monkeypatch.setattr(cli.glm, "cv_select", lambda *a, **k: risk_fits.append(a))
        code = run(
            "sensitivity-sweep", "--input", cohort_csv, "--regime", "log2",
            "--thresholds", "6.5,10.5,14.5", "--n-lambda", "15", "--inner-folds", "3",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        rows = read_rows(tmp_path / "sensitivity.csv")
        assert len(rows) == 3
        for r in rows:
            lo, hi, base = float(r["min"]), float(r["max"]), float(r["baseline"])
            assert lo <= base <= hi
            assert r["regime"] == "log2"
            assert int(r["n_regimes"]) == 81
        assert not risk_fits


    def test_reversed_threshold_range_is_usage_error(self, cohort_csv, tmp_path):
        with pytest.raises(ValueError, match="exceeds its stop"):
            cli._parse_float_grid("5:1:1")
        assert cli._parse_float_grid("5:5:1") == (5.0,)
        code = run("sensitivity-sweep", "--input", cohort_csv, "--thresholds", "5:1:1",
                   "--n-lambda", "10", "--inner-folds", "3", "--output-dir", str(tmp_path))
        assert code == 2
        assert not (tmp_path / "sensitivity.csv").exists()


class TestTheoryCurve:
    def test_grid_csv(self, tmp_path):
        code = run(
            "theory-curve", "--auc-values", "0.7,0.9", "--gamma-values", "0:1:0.5",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        rows = read_rows(tmp_path / "theory_curve.csv")
        assert len(rows) == 6
        exact = [r for r in rows if float(r["gamma"]) == 0.0]
        for r in exact:
            assert float(r["auc_hat"]) == pytest.approx(float(r["auc_y"]), rel=1e-10)

    @pytest.mark.parametrize("flag, grid", [("--auc-values", "nan"), ("--gamma-values", "0:inf:1")])
    def test_non_finite_grid_is_usage_error(self, tmp_path, flag, grid):
        assert run("theory-curve", flag, grid, "--output-dir", str(tmp_path)) == 2
        assert not (tmp_path / "theory_curve.csv").exists()


class TestCsvOutput:
    @pytest.mark.parametrize(
        "command", ["evaluate", "policy-eval", "sensitivity-sweep", "theory-curve"]
    )
    def test_output_has_config_comment(self, train_csv, cohort_csv, tmp_path, capsys, command):
        # every CSV goes through one writer: the config comment on line 1, the
        # header after the comment lines, and a wrote line naming the file
        data_path, spec_path = train_csv
        small = ["--n-lambda", "5", "--inner-folds", "2"]
        policy_io = ["--input", cohort_csv, *small, "--thresholds", "5.5,10.5"]
        name, header, argv = {
            "evaluate": ("sweep.csv", "method,k,M,fold,auc,accuracy,error",
                         ["--input", data_path, "--label", "fta", "--encoding", spec_path,
                          "--k-values", "1", "--M-values", "1", "--folds", "2", *small]),
            "policy-eval": ("policy_eval.csv", "policy,threshold,action_rate,value,method,regime",
                            [*policy_io, "--risk-thresholds", "0.5"]),
            "sensitivity-sweep": (
                "sensitivity.csv",
                "policy,threshold,action_rate,baseline,min,max,n_regimes,regime", policy_io),
            "theory-curve": ("theory_curve.csv", "auc_y,gamma,auc_hat",
                             ["--auc-values", "0.7", "--gamma-values", "0,1"]),
        }[command]
        assert run(command, *argv, "--output-dir", str(tmp_path)) == 0
        out = tmp_path / name
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith(f"# scorekit {command}: ")
        assert next(ln for ln in lines if not ln.startswith("#")) == header
        assert f"wrote {out}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("module", ["scorekit", "scorekit.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(scorekit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", module, "theory-curve", "--output-dir", str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "theory_curve.csv").exists()
