import json
import warnings

import numpy as np
import pytest

from oracles import default_bin_labels, encode_cells, load_csv_rows
from scorekit import data
from scorekit.errors import DataError


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_four_row_file(self, tmp_path):
        path = write(tmp_path, "age,prior,fta\n19,1,1\n30,0,0\n44,2,1\n61,0,0\n")
        ds = data.load_csv(path, label_column="fta")
        assert ds.n == 4 and ds.p == 2
        assert ds.feature_names == ("age", "prior")
        assert list(ds.labels) == [1, 0, 1, 0]
        assert ds.label_mapping == ("0", "1")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = write(tmp_path, "\ufeffage,prior,fta\n19,1,1\n30,0,0\n")
        ds = data.load_csv(path, label_column="fta")
        assert ds.feature_names == ("age", "prior")

    def test_label_not_binary(self, tmp_path):
        path = write(tmp_path, "x,y\n1,a\n2,b\n3,c\n")
        with pytest.raises(DataError, match="not binary"):
            data.load_csv(path, label_column="y")

    def test_empty_body(self, tmp_path):
        path = write(tmp_path, "x,y\n")
        with pytest.raises(DataError, match="no rows"):
            data.load_csv(path, label_column="y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            data.load_csv(tmp_path / "absent.csv", label_column="y")

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "x,y\n1,0\n2,1\n")
        with pytest.raises(DataError, match="missing column"):
            data.load_csv(path, label_column="z")

    def test_non_finite_cell(self, tmp_path):
        path = write(tmp_path, "x,y\nnan,0\n2,1\n")
        with pytest.raises(DataError, match="non-finite"):
            data.load_csv(path, label_column="y")

    def test_missing_value_rejected(self, tmp_path):
        path = write(tmp_path, "x,y\n1,0\n,1\n")
        with pytest.raises(DataError, match="missing value"):
            data.load_csv(path, label_column="y")

    def test_label_mapping_larger_value_is_one(self, tmp_path):
        path = write(tmp_path, "x,y\n1,no\n2,yes\n")
        ds = data.load_csv(path, label_column="y")
        assert ds.label_mapping == ("no", "yes")
        assert list(ds.labels) == [0, 1]

    def test_positive_label_override(self, tmp_path):
        path = write(tmp_path, "x,y\n1,no\n2,yes\n")
        ds = data.load_csv(path, label_column="y", positive_label="no")
        assert list(ds.labels) == [1, 0]

    def test_categorical_column_flagged(self, tmp_path):
        path = write(tmp_path, "color,y\nred,0\nblue,1\nred,1\n")
        ds = data.load_csv(path, label_column="y")
        assert "color" in ds.categorical_levels
        assert ds.categorical_levels["color"] == ("blue", "red")

    def test_reserved_prefix_rejected(self, tmp_path):
        path = write(tmp_path, "x,__po_release,y\n1,0,0\n2,1,1\n")
        with pytest.raises(DataError, match="reserved"):
            data.load_csv(path, label_column="y")

    def test_action_and_group_columns(self, tmp_path):
        path = write(
            tmp_path,
            "age,color,y,act,judge\n19.25,red,yes,release,j1\n30,blue,no,withhold,j2\n"
            "41.5,red,no,release,j1\n",
        )
        ds = data.load_csv(path, label_column="y", action_column="act", group_column="judge")
        assert ds.feature_names == ("age", "color")
        assert "judge" not in ds.feature_names
        assert np.array_equal(ds.rows, [[19.25, 1.0], [30.0, 0.0], [41.5, 1.0]])
        assert np.array_equal(ds.labels, [1, 0, 0])
        assert np.array_equal(ds.actions, ["release", "withhold", "release"])
        assert ds.categorical_levels == {"color": ("blue", "red")}


def loaded(loader, path, **columns):
    """Everything a loader returns for ``path``, or its error message."""
    try:
        ds = loader(path, label_column="y", **columns)
    except DataError as exc:
        return str(exc)
    actions = None if ds.actions is None else (ds.actions.tolist(), ds.actions.dtype)
    return (ds.feature_names, ds.rows.tolist(), ds.labels.tolist(), actions,
            ds.categorical_levels, ds.label_mapping)


# text -> (action column, group column); edge cases of the csv module's
# reading, of float()'s parsing and of each error the loader raises
REFERENCE_TEXTS = {
    'a,b,y\n"1,5",x,0\n2,"z,w",1\n': (None, None),
    'a,y\n"say ""hi""",0\nplain,1\n': (None, None),
    "a,b,y\r\n1,2,0\r\n3,4,1\r\n": (None, None),
    "a,b,y\r1,2,0\r3,4,1\r": (None, None),
    "a,b,y\r1,2,0\r3,4,1": (None, None),
    "\ufeffa,b,y\n1,2,0\n3,4,1\n": (None, None),
    'a,note,y\n1,"two\nlines",0\n2,"cr\r\nlf",1\n3,one,0\n': (None, None),
    "a,b,y\n# 1,#,0\n2,#x,1\n": (None, None),
    "a,y\n1,0\n2,1\n\n": (None, None),
    "a,b,y\n1,2,0\n3,1\n": (None, None),
    "a,y\n1,0,5\n2,1\n": (None, None),
    "a,y\n1_000.5,0\n2,1\n": (None, None),
    "a,y\n 2.5 ,0\n-3e2,1\n": (None, None),
    "a,y\n1,0\n1e400,1\n": (None, None),
    "a,y\nnan,0\n2,1\n": (None, None),
    "a,b,y\n1,2,0\n3,-inf,1\n": (None, None),
    "a,y\n1,0\nred,1\n2,0\n": (None, None),
    "a,y\nred,0\nnan,1\n": (None, None),
    "a,b,y\n1,,0\n,2,1\n": (None, None),
    "a,y\n1,\n2,1\n": (None, None),
    "a,y\n1,0\n2,1\n3,2\n": (None, None),
    "a,y\n1,1\n2,1\n": (None, None),
    "y,a,act,g\nno,1.5,hold,j1\nyes,2,free,j2\nno,3,hold,j1\n": ("act", "g"),
    "a,act,y\n1,x,0\n2,x,1\n": ("act", None),
    "act,y\nx,0\nz,1\n": ("act", None),
    "a,y,__hidden\n1,0,1\n2,1,0\n": (None, None),
    "a,a,y\n1,2,0\n3,4,1\n": (None, None),
    "a,y\n1,0\n2,1\n": ("act", None),
}


class TestLoadCsvReference:
    """``load_csv`` against ``oracles.load_csv_rows``, the per-cell loader it
    replaced: the same Dataset or the same error message."""

    @pytest.mark.parametrize("text", list(REFERENCE_TEXTS))
    def test_matches_the_per_cell_reader(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        action, group = REFERENCE_TEXTS[text]
        columns = {"action_column": action, "group_column": group}
        assert loaded(data.load_csv, path, **columns) == loaded(load_csv_rows, path, **columns)

    def test_positive_label_and_non_utf8(self, tmp_path):
        path = write(tmp_path, "a,y\n1,no\n2,yes\n")
        for positive in ("no", "maybe"):
            assert (loaded(data.load_csv, path, positive_label=positive)
                    == loaded(load_csv_rows, path, positive_label=positive))
        path.write_bytes("a,y\nMálaga,0\nCádiz,1\n".encode("latin-1"))
        assert loaded(data.load_csv, path) == loaded(load_csv_rows, path)

    def test_a_column_is_numeric_only_when_every_cell_parses(self, tmp_path):
        # the per-cell reader stops at the NaN before it reaches the text cell
        path = write(tmp_path, "a,y\nnan,0\nred,1\n")
        assert loaded(load_csv_rows, path) == "non-finite value 'nan' in column 'a', data row 1"
        ds = data.load_csv(path, label_column="y")
        assert ds.categorical_levels == {"a": ("nan", "red")}
        assert ds.rows.tolist() == [[0.0], [1.0]]

    def test_a_width_error_comes_before_an_earlier_missing_cell(self, tmp_path):
        path = write(tmp_path, "a,y\n,0\n2,1\n3\n")
        assert loaded(load_csv_rows, path) == f"{path}: missing value in column 'a', data row 1"
        assert loaded(data.load_csv, path) == f"{path}: line 4 has 1 fields, expected 2"

    def test_a_header_cell_holding_a_line_break_is_refused(self, tmp_path):
        path = write(tmp_path, 'a,"b\nc",y\n1,2,0\n3,4,1\n')
        with pytest.raises(DataError, match="a header cell holds a line break") as info:
            data.load_csv(path, label_column="y")
        assert str(path) in str(info.value)
        assert loaded(load_csv_rows, path)[0] == ("a", "b\nc")


AGE_BINS = data.Bins(
    cuts=(21, 26, 31, 36, 41, 46, 51),
    labels=("18_20", "21_25", "26_30", "31_35", "36_40", "41_45", "46_50", "51_plus"),
    reference="51_plus",
)


def bail_dataset(ages, priors, labels):
    return data.Dataset(
        feature_names=("age", "priors"),
        rows=np.column_stack([np.asarray(ages, float), np.asarray(priors, float)]),
        labels=np.asarray(labels),
    )


class TestEncode:
    def test_age_19_lands_in_youngest_bin(self):
        ds = bail_dataset([19, 55], [0, 0], [0, 1])
        spec = data.EncodingSpec(columns={"age": AGE_BINS, "priors": data.Passthrough()})
        enc = data.encode(ds, spec)
        names = enc.feature_names
        assert "age_18_20" in names and "age_51_plus" not in names
        row0 = dict(zip(names, enc.rows[0]))
        assert row0["age_18_20"] == 1.0
        assert all(row0[n] == 0.0 for n in names if n.startswith("age_") and n != "age_18_20")
        # reference bin: all age indicators zero
        row1 = dict(zip(names, enc.rows[1]))
        assert all(row1[n] == 0.0 for n in names if n.startswith("age_"))

    def test_zero_priors_reference_gives_all_zero_indicators(self):
        ds = bail_dataset([30, 30], [0, 2], [0, 1])
        spec = data.EncodingSpec(
            columns={
                "priors": data.Bins(
                    cuts=(1, 2, 3, 4), labels=("0", "1", "2", "3", "4_plus"), reference="0"
                )
            }
        )
        enc = data.encode(ds, spec)
        prior_cols = [n for n in enc.feature_names if n.startswith("priors_")]
        assert prior_cols == ["priors_1", "priors_2", "priors_3", "priors_4_plus"]
        assert enc.rows[0][[enc.feature_names.index(c) for c in prior_cols]].sum() == 0.0
        assert dict(zip(enc.feature_names, enc.rows[1]))["priors_2"] == 1.0

    def test_passthrough_only_is_identity(self):
        ds = bail_dataset([19, 30], [1, 2], [0, 1])
        enc = data.encode(ds, data.EncodingSpec(columns={}))
        assert enc.feature_names == ds.feature_names
        assert np.array_equal(enc.rows, ds.rows)

    def test_one_hot_value_outside_categories(self):
        ds = bail_dataset([19, 30], [1, 9], [0, 1])
        spec = data.EncodingSpec(
            columns={"priors": data.OneHot(categories=(0, 1, 2), reference=0)}
        )
        with pytest.raises(DataError, match="outside declared categories"):
            data.encode(ds, spec)

    def test_bins_out_of_declared_range(self):
        ds = bail_dataset([15, 30], [0, 0], [0, 1])
        spec = data.EncodingSpec(
            columns={"age": data.Bins(cuts=(21, 51), reference="lt_21", lower=18)}
        )
        with pytest.raises(DataError, match="below the binning range"):
            data.encode(ds, spec)

    def test_unknown_column_rejected(self):
        ds = bail_dataset([19], [0], [1])
        spec = data.EncodingSpec(columns={"zzz": data.Passthrough()})
        with pytest.raises(DataError, match="unknown column"):
            data.encode(ds, spec)

    def test_indicator_group_sums_in_01(self):
        rng = np.random.default_rng(0)
        ds = bail_dataset(rng.integers(18, 70, 200), rng.integers(0, 7, 200), rng.integers(0, 2, 200))
        spec = data.EncodingSpec(
            columns={
                "age": AGE_BINS,
                "priors": data.Bins(
                    cuts=(1, 2, 3, 4), labels=("0", "1", "2", "3", "4_plus"), reference="0"
                ),
            }
        )
        enc = data.encode(ds, spec)
        for group in ("age", "priors"):
            cols = [j for j, g in enumerate(enc.column_groups) if g == group]
            sums = enc.rows[:, cols].sum(axis=1)
            assert np.isin(sums, (0.0, 1.0)).all()

    def test_encoding_spec_json_round_trip(self):
        spec = data.EncodingSpec(
            columns={
                "age": AGE_BINS,
                "cp": data.OneHot(categories=(1, 2, 3), reference=1),
                "x": data.Passthrough(),
            }
        )
        text = """
        {"columns": {
            "age": {"type": "bins", "cuts": [21,26,31,36,41,46,51],
                    "labels": ["18_20","21_25","26_30","31_35","36_40","41_45","46_50","51_plus"],
                    "reference": "51_plus"},
            "cp": {"type": "one_hot", "categories": [1,2,3], "reference": 1},
            "x": {"type": "passthrough"}
        }}
        """
        parsed = data.EncodingSpec.from_json(text)
        assert parsed.columns["age"] == spec.columns["age"]
        assert parsed.columns["cp"] == spec.columns["cp"]

    def test_bad_directives(self):
        with pytest.raises(DataError, match="strictly increasing"):
            data.Bins(cuts=(5, 5), reference="lt_5")
        with pytest.raises(DataError, match="reference"):
            data.OneHot(categories=(1, 2), reference=3)
        with pytest.raises(DataError, match="unique"):
            data.OneHot(categories=(1, 1), reference=1)


def random_encoding_case(seed):
    """A seeded table with one column of each directive kind, in random order,
    and the JSON form of its encoding spec: a numeric one-hot mixing whole
    floats, fractions and ints; a categorical one-hot declaring a category
    that no row holds; bins with default labels over whole and fractional
    cuts; bins with explicit labels and ``lower``/``upper``; a passthrough."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))

    def pick(pool, k):
        return [pool[i] for i in sorted(rng.choice(len(pool), size=k, replace=False))]

    cats = [2.0, 2.5] + pick([1, -3.0, 0.75, 7, 4.0], int(rng.integers(0, 4)))
    rng.shuffle(cats)
    codes = ("high", "low", "mid")
    declared = list(codes) + ["none"]
    rng.shuffle(declared)
    cuts = sorted(pick([-1.5, 2.5, 10.25], int(rng.integers(1, 3)))
                  + pick([0, 1, 3.0], int(rng.integers(1, 3))))
    labels = ["young", "adult", "middle", "senior"]
    columns = {
        "num": {"type": "one_hot", "categories": cats, "reference": cats[rng.integers(len(cats))]},
        "grade": {"type": "one_hot", "categories": declared, "reference": declared[rng.integers(4)]},
        "dflt": {"type": "bins", "cuts": cuts,
                 "reference": str(rng.choice(default_bin_labels(cuts)))},
        "expl": {"type": "bins", "cuts": [25, 40.5, 60], "labels": labels,
                 "reference": labels[rng.integers(4)], "lower": 18, "upper": 80},
    }
    dflt = rng.uniform(-4.0, 14.0, n)
    dflt[: n // 3] = rng.choice(np.asarray(cuts, float), n // 3)  # cells on a cut
    expl = rng.choice([18.0, 24.5, 25.0, 40.5, 59.0, 60.0, 79.5], n)
    table = {
        "num": rng.choice(np.asarray(cats, float), n),
        "grade": rng.integers(0, len(codes), n).astype(float),
        "dflt": dflt,
        "expl": expl,
        "x": rng.normal(size=n),
    }
    order = [list(table)[i] for i in rng.permutation(len(table))]
    ds = data.Dataset(
        feature_names=tuple(order),
        rows=np.column_stack([table[name] for name in order]),
        labels=rng.integers(0, 2, n),
        categorical_levels={"grade": codes},
    )
    return ds, columns


class TestEncodeReference:
    """``encode`` against ``oracles.encode_cells``, which finds each cell's
    level by testing it against each bin interval or category in turn."""

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_cell_by_cell_reference(self, seed):
        ds, columns = random_encoding_case(seed)
        text = json.dumps({"columns": columns})
        enc = data.encode(ds, data.EncodingSpec.from_json(text))
        names, groups, rows = encode_cells(ds, json.loads(text)["columns"])
        assert enc.feature_names == names
        assert enc.column_groups == groups
        assert enc.rows.shape == rows.shape
        assert np.ascontiguousarray(enc.rows).tobytes() == rows.tobytes()
        assert enc.categorical_levels == {}

    def test_stray_categorical_entry_is_dropped(self):
        ds = data.Dataset(("x",), np.array([[1.0], [2.0]]), [0, 1],
                          categorical_levels={"gone": ("a", "b")})
        assert data.encode(ds, data.EncodingSpec(columns={})).categorical_levels == {}


class TestKfold:
    def test_forced_balance_even(self):
        folds = data.kfold(10, 5, seed=3)
        assert sorted(np.bincount(folds.assignment)) == [2, 2, 2, 2, 2]

    def test_forced_balance_uneven(self):
        folds = data.kfold(10, 3, seed=3)
        assert sorted(np.bincount(folds.assignment)) == [3, 3, 4]

    def test_deterministic(self):
        a = data.kfold(50, 5, seed=9).assignment
        b = data.kfold(50, 5, seed=9).assignment
        assert np.array_equal(a, b)

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(4, 200))
            k = int(rng.integers(2, min(n, 10) + 1))
            labels = rng.integers(0, 2, n) if rng.random() < 0.5 else None
            folds = data.kfold(n, k, seed=int(rng.integers(1 << 30)), labels=labels)
            seen = np.concatenate([folds.test_indices(f) for f in range(k)])
            assert sorted(seen) == list(range(n))
            counts = np.bincount(folds.assignment, minlength=k)
            assert counts.max() - counts.min() <= 1

    def test_stratified_spreads_classes(self):
        labels = np.array([1] * 10 + [0] * 90)
        folds = data.kfold(100, 5, seed=0, labels=labels)
        for f in range(5):
            assert labels[folds.test_indices(f)].sum() == 2

    def test_bad_k(self):
        with pytest.raises(DataError):
            data.kfold(5, 6, seed=0)
        with pytest.raises(DataError):
            data.kfold(5, 1, seed=0)


class TestDataset:
    def test_invariants(self):
        with pytest.raises(DataError, match="unique"):
            data.Dataset(feature_names=("a", "a"), rows=np.ones((2, 2)), labels=np.zeros(2))
        with pytest.raises(DataError, match="0 or 1"):
            data.Dataset(feature_names=("a",), rows=np.ones((2, 1)), labels=np.array([0, 2]))
        with pytest.raises(DataError, match="non-finite"):
            data.Dataset(
                feature_names=("a",), rows=np.array([[np.inf], [1.0]]), labels=np.zeros(2)
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("huge", [1e300, -1e300, 1e155])
    def test_column_too_large_to_standardize_is_named(self, huge):
        rows = np.array([[1.0, 2.0], [huge, 3.0], [0.0, 4.0]])
        with pytest.raises(DataError, match="column 'a' is too large"):
            data.Dataset(feature_names=("a", "b"), rows=rows, labels=np.array([0, 1, 0]))
        # a constant column at that scale has a standard deviation of 0
        data.Dataset(feature_names=("a", "b"), rows=np.full((3, 2), huge), labels=[0, 1, 0])

    def test_take_subsets_rows(self):
        ds = bail_dataset([19, 30, 41], [0, 1, 2], [0, 1, 0])
        sub = ds.take([2, 0])
        assert np.array_equal(sub.rows[:, 0], [41.0, 19.0])
        assert list(sub.labels) == [0, 0]


class TestReadWriteTable:
    def test_non_utf8_file_is_data_error_naming_it(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("town,y\nMálaga,0\nCádiz,1\n".encode("latin-1"))
        with pytest.raises(DataError, match="not a readable UTF-8 CSV") as info:
            data.load_csv(path, label_column="y")
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("text, message", [("", "empty file"), ("x,y\n", "no rows")])
    def test_empty_file_and_header_only(self, tmp_path, text, message):
        with pytest.raises(DataError, match=message):
            data.read_table(write(tmp_path, text))

    @pytest.mark.parametrize("text, message", [("", "empty file"), ("x,y\n", "no rows")])
    def test_typed_reader_refuses_a_file_without_records_quietly(self, tmp_path, text, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=message):
                data.read_typed_table(write(tmp_path, text), [("x", float), ("y", int)])

    def test_typed_reader_matches_the_row_reader(self, tmp_path):
        path = write(tmp_path, '\ufeffx,note,y\n1.5,"a,""b""\nc",0\n-0.0,,1\n')
        records = data.read_typed_table(path, [("x", float), ("note", object), ("y", int)])
        rows = list(data.read_table(path)[1])
        assert records["note"].tolist() == [row[1] for row in rows]
        assert records["x"].tolist() == [float(row[0]) for row in rows]
        assert records["y"].tolist() == [int(row[2]) for row in rows]

    def test_rows_are_read_as_consumed_and_width_checked(self, tmp_path):
        path = write(tmp_path, "\ufeffx,y\n1,0\n2,1\n3\n")
        header, rows = data.read_table(path)
        assert header == ["x", "y"]
        assert next(rows) == ["1", "0"]
        with pytest.raises(DataError, match="line 4 has 1 fields, expected 2"):
            list(rows)

    def test_write_table_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = iter([[1, "a,b"], [2.5, ""]])
        data.write_table(path, ["n", "s"], rows, comments=["first", "second"])
        assert path.read_bytes() == b'# first\n# second\nn,s\r\n1,"a,b"\r\n2.5,\r\n'


def _records():
    from scorekit import glm, selection, srr

    rng = np.random.default_rng(5)
    X = rng.normal(size=(120, 3))
    y = (rng.random(120) < 1 / (1 + np.exp(-X[:, 0]))).astype(float)
    folds = data.kfold(120, 3, seed=0, labels=y)
    ds = data.Dataset(feature_names=("a", "b", "c"), rows=X, labels=y.astype(int))
    card = srr.build_scorecard(ds, k=2, M=4, folds_for_lambda=folds, threshold=1.5, n_lambda=10)
    return {
        "GlmFit": glm.fit_logistic(X, y),
        "LassoPath": glm.cv_select(X, y, folds, n_lambda=8),
        "SelectionTrace": selection.forward_stepwise(ds, 2),
        "Scorecard": card,
    }


RECORD_NAMES = ("GlmFit", "LassoPath", "SelectionTrace", "Scorecard")


@pytest.fixture(scope="module")
def records():
    return _records()


class TestJsonRecord:
    @pytest.mark.parametrize("name", RECORD_NAMES)
    def test_text_round_trip(self, records, name):
        text = records[name].to_json()
        assert type(records[name]).from_json(text).to_json() == text

    @pytest.mark.parametrize("name", RECORD_NAMES)
    def test_unknown_key_is_data_error(self, records, name):
        fields = json.loads(records[name].to_json())
        fields["unexpected"] = 1
        with pytest.raises(DataError, match=f"not a valid {name} record"):
            type(records[name]).from_json(json.dumps(fields))

    @pytest.mark.parametrize("name", RECORD_NAMES)
    def test_missing_required_key_is_data_error(self, records, name):
        fields = json.loads(records[name].to_json())
        del fields[next(iter(fields))]  # each record's first field has no default
        with pytest.raises(DataError, match=f"not a valid {name} record"):
            type(records[name]).from_json(json.dumps(fields))

    def test_numpy_scalar_field_round_trips(self):
        from scorekit import glm

        path = glm.LassoPath(lambda_grid=[2.0, 1.0], intercepts=[0.1, 0.2],
                             coefficients=[[0.0], [0.5]], converged=[True, True],
                             selected_index=np.int64(1))
        back = glm.LassoPath.from_json(path.to_json())
        assert back.selected_index == 1 and type(back.selected_index) is int
        assert back.to_json() == path.to_json()

    def test_nested_record_is_checked_too(self, records):
        fields = json.loads(records["Scorecard"].to_json())
        fields["selection"]["unexpected"] = 1
        with pytest.raises(DataError, match="not a valid Scorecard record"):
            type(records["Scorecard"]).from_json(json.dumps(fields))
