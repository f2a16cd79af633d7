import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from scorekit import cli, data, glm, metrics, selection

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "cli_digests.py")


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def digests(monkeypatch):
    module = load("cli_digests", TOOL)
    monkeypatch.setattr(module, "runs", lambda out, heart: [([], ["out/values.csv"])])
    return module


def write_values(root, *cells):
    os.makedirs(root / "out")
    rows = ["# config comment", "id,value"] + [f"{i},{c}" for i, c in enumerate(cells)]
    (root / "out" / "values.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "old, new, status",
    [
        (("0.1", "0.2"), ("0.1", "0.2"), 0),
        (("0.1", "0.2"), ("0.1000001", "0.2"), 0),
        (("0.1", "0.2"), ("0.100002", "0.2"), 1),
        (("0.1", "0.2"), ("0.1000000001", "nan"), 1),
        (("0.1", "0.2"), ("nan", "0.2000000001"), 1),
    ],
    ids=["equal", "within-1e-7", "2e-6", "nan-after-small", "nan-first"],
)
def test_compare_numeric_column(digests, tmp_path, capsys, old, new, status):
    write_values(tmp_path / "old", *old)
    write_values(tmp_path / "new", *new)
    assert digests.compare(str(tmp_path / "old"), str(tmp_path / "new")) == status
    fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
    assert len(fails) == status
    assert all(ln.startswith("FAIL out/values.csv: column value differs by") for ln in fails)


@pytest.mark.parametrize("missing_from", ["old", "new"])
def test_compare_missing_file_fails(digests, tmp_path, capsys, missing_from):
    for side in ("old", "new"):
        if side == missing_from:
            os.makedirs(tmp_path / side)
        else:
            write_values(tmp_path / side, "0.1")
    assert digests.compare(str(tmp_path / "old"), str(tmp_path / "new")) == 1
    assert capsys.readouterr().out.splitlines() == ["FAIL out/values.csv: missing"]


CARD = {
    "entries": [["a", 2], ["b", -1]],
    "weight_bound": 3,
    "feature_budget": 2,
    "threshold": None,
    "feature_names": ["a", "b"],
    "raw_coefficients": [1.25, -0.5],
    "intercept": -2.0,
    "scaling": 1.1,
    "selection": {"ordered_features": [0, 1], "step_deviance": [620.5, 580.25]},
}


def write_card(root, **changes):
    card = json.loads(json.dumps(CARD))
    for field, value in changes.items():
        where = card["selection"] if field in card["selection"] else card
        where[field] = value
    os.makedirs(root / "out")
    (root / "out" / "card.json").write_text(json.dumps(card), encoding="utf-8")


@pytest.mark.parametrize(
    "changes, failing",
    [
        ({}, None),
        ({"raw_coefficients": [1.25 + 1e-7, -0.5], "intercept": -2.0 - 5e-7}, None),
        ({"raw_coefficients": [1.25 + 2e-6, -0.5]}, "field raw_coefficients differs by"),
        ({"scaling": float("nan")}, "field scaling differs by"),
        ({"step_deviance": [620.5, 580.26]}, "field step_deviance differs by"),
        ({"raw_coefficients": [1.25]}, "field raw_coefficients: shapes"),
        ({"entries": [["a", 2], ["b", -2]]}, "field entries differs"),
        ({"threshold": 1.5}, "field threshold differs"),
    ],
    ids=["equal", "within-1e-6", "2e-6", "nan", "step-deviance", "length", "entries", "threshold"],
)
def test_compare_scorecard_json(digests, monkeypatch, tmp_path, capsys, changes, failing):
    monkeypatch.setattr(digests, "runs", lambda out, heart: [([], ["out/card.json"])])
    write_card(tmp_path / "old")
    write_card(tmp_path / "new", **changes)
    status = digests.compare(str(tmp_path / "old"), str(tmp_path / "new"))
    fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
    assert status == len(fails) == (failing is not None)
    assert all(ln.startswith(f"FAIL out/card.json: {failing}") for ln in fails)


def test_digest_run_times_each_command_on_stderr(digests, monkeypatch, tmp_path, capsys):
    out = tmp_path / "set"

    def fake_run(args):
        print("wrote out/values.csv")  # the CLI's own chatter goes to stderr
        write_values(out, "0.1")
        return 0

    monkeypatch.setattr(digests, "runs", lambda out, heart: [(["theory-curve"], ["out/values.csv"])])
    monkeypatch.setattr(digests.cli, "run", fake_run)
    monkeypatch.setattr(digests, "round_trip", lambda out: 0)
    assert digests.main([str(out)]) == 0
    captured = capsys.readouterr()
    digest = hashlib.sha256((out / "out" / "values.csv").read_bytes()).hexdigest()
    assert captured.out.splitlines() == [f"{digest}  out/values.csv"]
    assert re.fullmatch(r"wrote out/values.csv\n\d+\.\d\d s  scorekit theory-curve\n", captured.err)


def test_digests_run_on_one_blas_thread_whatever_the_outside_setting():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    counts = []
    for setting in ({}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env.update(setting, PYTHONPATH=src)
        done = subprocess.run([sys.executable, TOOL], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 2, done.stderr  # no OUTDIR: the usage text
        counts.append(done.stderr.splitlines()[0])
    assert counts[0] == counts[1] and re.fullmatch(r"BLAS threads: (1|None)", counts[0])
    before = dict(os.environ)  # only the script run sets them
    load("cli_digests_imported", TOOL)
    assert dict(os.environ) == before


def test_complement_table_is_the_cli_tests_table(digests, tmp_path):
    from test_cli import _adversarial_input

    digests.write_complement_csv(str(tmp_path / "complement.csv"))
    text = (tmp_path / "complement.csv").read_text(encoding="utf-8")
    assert text == _adversarial_input("complement-column")


def test_n_below_p_table_is_the_cli_tests_table(digests, tmp_path):
    from test_cli import _adversarial_input

    digests.write_n_below_p_csv(str(tmp_path / "n_below_p.csv"))
    text = (tmp_path / "n_below_p.csv").read_text(encoding="utf-8")
    assert text == _adversarial_input("n-below-p")


def test_categorical_heart_encodes_as_the_heart_table(digests, tmp_path):
    def design(table, encoding):
        ds = data.load_csv(table, label_column="disease")
        with open(encoding, encoding="utf-8") as fh:
            return ds, data.encode(ds, data.EncodingSpec.from_json(fh.read()))

    digests.write_categorical_heart(str(tmp_path))
    raw, text = design(*(tmp_path / name for name in digests.HEART_CATEGORICAL))
    assert raw.categorical_levels == {"thal": ("fixed", "normal", "reversible")}
    _, codes = design(digests.HEART_CSV, digests.HEART_ENCODING)
    rename = {"thal_6": "thal_fixed", "thal_7": "thal_reversible"}
    assert text.feature_names == tuple(rename.get(n, n) for n in codes.feature_names)
    assert np.array_equal(text.rows, codes.rows)
    assert np.array_equal(text.labels, codes.labels)


def test_clamped_run_is_the_heart_benchmark_op_that_clamps(tmp_path, monkeypatch):
    def clamped_run(heart, out):
        (args,) = [a for a, files in tool.runs(out, heart)
                   if files == ["evaluate_clamped/sweep.csv"]]
        return args

    tool = load("cli_digests", TOOL)
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(os.path.dirname(TOOL), os.pardir, "perfbench", "workloads.py"))
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", bench)  # its dataclasses look the module up
    spec.loader.exec_module(bench)
    heart = ["--input", "heart.csv", "--label", "disease", "--encoding", "heart_encoding.json"]
    expected = ["evaluate", *heart, *bench.HeartCvSweep.ARGS, "--seed", "3",
                "--output-dir", "OUT/evaluate_clamped"]
    assert clamped_run(heart, "OUT") == expected
    clamped = []

    def count(fit):
        def counted(*args, **kwargs):
            fits = fit(*args, **kwargs)
            batch = fits if isinstance(fits, list) else [fits]
            clamped.extend(f for f in batch if isinstance(f, glm.GlmFit) and not f.converged)
            return fits
        return counted

    monkeypatch.setattr(selection, "fit_logistic_many", count(selection.fit_logistic_many))
    monkeypatch.setattr(metrics, "fit_logistic", count(metrics.fit_logistic))
    heart = ["--input", tool.HEART_CSV, "--label", "disease", "--encoding", tool.HEART_ENCODING]
    assert cli.run(clamped_run(heart, str(tmp_path))) == 0
    assert clamped  # 25 selection fits stop at the divergence bound


@pytest.mark.parametrize("run_dir", ["evaluate_complement", "evaluate_n_below_p"])
def test_dependent_table_runs_reach_the_min_norm_fallback(tmp_path, monkeypatch, run_dir):
    """The digest runs on the complement and n<p tables reach the rank
    rule's fallback solve, so their digests cover it."""

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached  # the run need go no further

    tool = load("cli_digests", TOOL)
    tool.write_complement_csv(str(tmp_path / tool.COMPLEMENT))
    tool.write_n_below_p_csv(str(tmp_path / tool.N_BELOW_P))
    (args,) = [a for a, files in tool.runs(str(tmp_path), [])
               if files == [f"{run_dir}/sweep.csv"]]
    monkeypatch.setattr(glm, "_min_norm", reached)
    with pytest.raises(Reached):
        cli.run(args)


UNTESTED = os.path.join(os.path.dirname(TOOL), "untested_lines.py")


def run_untested(*pytest_args):
    return subprocess.run([sys.executable, UNTESTED, *pytest_args, "-q", "-p", "no:cacheprovider"],
                          cwd=os.path.dirname(os.path.dirname(UNTESTED)),
                          capture_output=True, text=True, timeout=300)


def source_line(module, text):
    """``path:line: text`` of the one line of ``module`` whose stripped text is ``text``."""
    with open(module.__file__, encoding="utf-8") as fh:
        (line,) = [i for i, ln in enumerate(fh, 1) if ln.strip() == text]
    return f"src/scorekit/{os.path.basename(module.__file__)}:{line}: {text}"


def test_untested_lines_lists_what_the_selected_tests_never_ran():
    from scorekit import _math

    done = run_untested("tests/test_math.py")
    assert done.returncode == 0, done.stderr
    listed = done.stdout.splitlines()
    assert source_line(glm, 'raise DataError("y must contain only 0 or 1")') in listed
    # test_math calls expit and nothing else of _math
    assert source_line(_math, "z = np.asarray(z, dtype=float)") not in listed
    assert source_line(_math, "return float(np.log(p) - np.log1p(-p))") in listed
    assert run_untested("tests/test_math.py", "-k", "no_such_test").returncode == 5
