"""Write the fixed-seed CLI output set and print the sha256 of each file.

Usage::

    PYTHONPATH=src python tools/cli_digests.py OUTDIR
    PYTHONPATH=src python tools/cli_digests.py --compare OLD_OUTDIR NEW_OUTDIR

Runs, in one process and into subdirectories of OUTDIR:

- ``synth-gen --n 20000`` at seeds 0 and 1 (``synth0/``, ``synth1/``)
- ``synth-gen --n 20000 --seed 2`` with a hidden covariate, ``--hidden-u
  0.3,0.693,0.693,0.693`` (``synth_hidden/``)
- ``policy-eval`` with default arguments on the seed-0 cohort (``policy_eval/``)
- ``policy-eval`` with default arguments on the seed-0 cohort rewritten as a
  plain observed-decision CSV, ``decisions.csv``, whose ``decision`` column
  holds ``ROR`` (release) or ``BAIL`` (``policy_eval_decisions/``)
- ``sensitivity-sweep --k 3 --M 5`` on the seed-1 cohort (``sensitivity/``)
- ``evaluate`` on the bundled heart table (``evaluate/``), and again with
  ``--seed 3``, the benchmark's heart op whose folds clamp the most
  selection fits at the divergence bound (``evaluate_clamped/``)
- ``evaluate --k-values 1-2 --folds 3`` on ``complement.csv``, a table whose
  ``female`` column is ``1 - male``, so the lasso's active columns become
  dependent and the solver's minimum-norm fallback runs
  (``evaluate_complement/``); the tool writes the table from a fixed seed
- ``evaluate`` with default arguments on ``n_below_p.csv``, a 12 x 30 table
  of 0/1 columns with alternating labels, the input that makes the most
  selection fits and also takes the fallback (``evaluate_n_below_p/``); the
  tool writes it from a fixed seed
- ``theory-curve`` with default grids (``theory/``)
- ``train`` on the bundled heart table (``train/``), and again with
  ``--threshold 1.5``, so the card's release line and its stored threshold
  are covered (``train_threshold/``)
- ``train`` on ``heart_categorical.csv``, the heart table with its ``thal``
  codes written as text (``normal``, ``fixed``, ``reversible``), with a
  one-hot spec over those levels, so a text category is read and encoded
  (``train_categorical/``)

After the runs, the seed-0 cohort is loaded and written back out
(``synth0/cohort_roundtrip.csv``); the run exits 1 unless its sha256 equals
``synth0/cohort.csv``'s, so the cohort reader and writer are checked
together.  The result goes to stderr, so stdout holds only the digests of
the CLI's own files.

The output files hold no paths: every run, ``train`` and ``synth-gen``
among them, writes its configuration to ``<subcommand>.manifest.json``
beside its outputs, and no manifest is hashed.  So running two versions of
the package into any two OUTDIRs and diffing the printed lines shows
whether their outputs are byte-equal.  The heart runs read the bundled
table and ``perfbench/heart_encoding.json`` where they are.

Each CLI run's wall time goes to stderr as well, so a digest run also
times the default-argument commands.

Run as a script, the tool sets ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` to 1 before numpy is imported, and prints the BLAS
thread count read back from the library on stderr, first.  The weighted
Gram of a large fit rounds differently under another thread count, and
OpenBLAS caps a requested count at the cores present, so 1 is the only
count that is the same on every host: the digests are those of one BLAS
thread.  Importing the module changes no environment variable.

``--compare`` reads the CSV files of two such output sets and prints, for
each column, the largest absolute difference between the two versions
(numeric columns) or the number of cells that differ (text columns).  It
reads each ``scorecard.json`` the same way: the fitted numbers
(``CARD_FLOATS``, ``step_deviance`` read from the card's ``selection``) by
their largest absolute difference, every other field, the card's ``entries``
and ``threshold`` among them, by equality.  It exits 1 when a file is
missing from either set, when a file's header or row count differs, when a
text cell or a compared-by-equality field differs, or when a numeric column
or fitted number differs by more than ``TOLERANCE`` (1e-6, the agreement a
solver change must keep) or by a non-finite amount (a NaN against a number);
each such file, column or field is named on a ``FAIL`` line.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import glob
import hashlib
import json
import os
import sys
import time

if __name__ == "__main__":  # before numpy loads the library
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import numpy as np

from scorekit import cli, datasets, synth

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEART_CSV = os.path.join(os.path.dirname(datasets.__file__), "heart_synthetic.csv")
HEART_ENCODING = os.path.join(REPO, "perfbench", "heart_encoding.json")
DECISIONS = "decisions.csv"
COMPLEMENT = "complement.csv"
N_BELOW_P = "n_below_p.csv"
HEART_CATEGORICAL = ("heart_categorical.csv", "heart_categorical_encoding.json")
THAL_LEVELS = {"3": "normal", "6": "fixed", "7": "reversible"}
ROUND_TRIP = "synth0/cohort_roundtrip.csv"
TOLERANCE = 1e-6
CARD_FLOATS = ("raw_coefficients", "intercept", "scaling", "step_deviance")


def runs(out: str, heart: list[str]) -> list[tuple[list[str], list[str]]]:
    """(arguments, files written) of each CLI run, files relative to OUTDIR."""
    return [
        (["synth-gen", "--n", "20000", "--seed", "0", "--output-dir", f"{out}/synth0"],
         ["synth0/cohort.csv"]),
        (["synth-gen", "--n", "20000", "--seed", "1", "--output-dir", f"{out}/synth1"],
         ["synth1/cohort.csv"]),
        (["synth-gen", "--n", "20000", "--seed", "2", "--hidden-u", "0.3,0.693,0.693,0.693",
          "--output-dir", f"{out}/synth_hidden"],
         ["synth_hidden/cohort.csv"]),
        (["policy-eval", "--input", f"{out}/synth0/cohort.csv",
          "--output-dir", f"{out}/policy_eval"],
         ["policy_eval/policy_eval.csv"]),
        (["policy-eval", "--input", f"{out}/{DECISIONS}", "--label", "fta",
          "--action", "decision", "--release-value", "ROR", "--group", "judge",
          "--output-dir", f"{out}/policy_eval_decisions"],
         ["policy_eval_decisions/policy_eval.csv"]),
        (["sensitivity-sweep", "--input", f"{out}/synth1/cohort.csv", "--k", "3", "--M", "5",
          "--seed", "1", "--output-dir", f"{out}/sensitivity"],
         ["sensitivity/sensitivity.csv"]),
        (["evaluate", *heart, "--k-values", "1-3", "--M-values", "1,3", "--folds", "2",
          "--inner-folds", "3", "--n-lambda", "10", "--output-dir", f"{out}/evaluate"],
         ["evaluate/sweep.csv"]),
        (["evaluate", *heart, "--k-values", "1-3", "--M-values", "1,3", "--folds", "2",
          "--inner-folds", "3", "--n-lambda", "10", "--seed", "3",
          "--output-dir", f"{out}/evaluate_clamped"],
         ["evaluate_clamped/sweep.csv"]),
        (["evaluate", "--input", f"{out}/{COMPLEMENT}", "--label", "y", "--k-values", "1-2",
          "--folds", "3", "--output-dir", f"{out}/evaluate_complement"],
         ["evaluate_complement/sweep.csv"]),
        (["evaluate", "--input", f"{out}/{N_BELOW_P}", "--label", "y",
          "--output-dir", f"{out}/evaluate_n_below_p"],
         ["evaluate_n_below_p/sweep.csv"]),
        (["theory-curve", "--output-dir", f"{out}/theory"],
         ["theory/theory_curve.csv"]),
        (["train", *heart, "--k", "5", "--M", "3", "--folds", "5", "--n-lambda", "20",
          "--output-dir", f"{out}/train"],
         ["train/scorecard.txt", "train/scorecard.json"]),
        (["train", *heart, "--k", "5", "--M", "3", "--folds", "5", "--n-lambda", "20",
          "--threshold", "1.5", "--output-dir", f"{out}/train_threshold"],
         ["train_threshold/scorecard.txt", "train_threshold/scorecard.json"]),
        (["train", "--input", f"{out}/{HEART_CATEGORICAL[0]}", "--label", "disease",
          "--encoding", f"{out}/{HEART_CATEGORICAL[1]}", "--k", "5", "--M", "3", "--folds", "5",
          "--n-lambda", "20", "--output-dir", f"{out}/train_categorical"],
         ["train_categorical/scorecard.txt", "train_categorical/scorecard.json"]),
    ]


def write_decision_csv(cohort: str, path: str) -> None:
    """A cohort CSV as an observed-decision CSV: its feature cells, then
    ``fta`` (the outcome), ``decision`` (``ROR`` or ``BAIL``) and ``judge``.

    Only the csv module touches the cells, so every version of the package
    reads the same file.
    """
    with open(cohort, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    p = header.index("action")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header[:p] + ["fta", "decision", "judge"])
        for row in rows:
            decision = {"release": "ROR", "withhold": "BAIL"}[row[p]]
            writer.writerow(row[:p] + [row[p + 1], decision, row[p + 2]])


def write_categorical_heart(out: str) -> None:
    """The heart table and its encoding, with ``thal`` as text: each code
    becomes its ``THAL_LEVELS`` name, and the one-hot directive lists those
    names with ``normal`` (code 3) as the reference.  Only the csv and json
    modules touch the files, so every version of the package reads the same
    ones."""
    with open(HEART_CSV, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    j = header.index("thal")
    with open(os.path.join(out, HEART_CATEGORICAL[0]), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header] + [
            row[:j] + [THAL_LEVELS[row[j]]] + row[j + 1:] for row in rows
        ])
    with open(HEART_ENCODING, encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["columns"]["thal"] = {"type": "one_hot", "categories": list(THAL_LEVELS.values()),
                               "reference": THAL_LEVELS["3"]}
    with open(os.path.join(out, HEART_CATEGORICAL[1]), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)


def write_complement_csv(path: str) -> None:
    """The complement-column table: 400 rows of ``male``, ``female = 1 - male``,
    a normal ``x`` and a logistic label ``y``, from seed 0.  The first three
    draws are those of a 200-row table the construction shares with other
    adversarial inputs, kept so that the table stays the same."""
    rng = np.random.default_rng(0)
    _ = rng.integers(0, 2, 200), rng.integers(0, 2, 200), rng.random(200)
    male, x = rng.integers(0, 2, 400), rng.normal(size=400)
    y = (rng.random(400) < 1 / (1 + np.exp(0.75 - 1.5 * male - 0.3 * x))).astype(int)
    rows = [",".join(str(v) for v in row) for row in zip(male, 1 - male, x, y)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(["male,female,x,y", *rows]) + "\n")


def write_n_below_p_csv(path: str) -> None:
    """The n<p table: 12 rows of 30 0/1 columns ``x0``..``x29`` and labels
    ``y`` alternating 0, 1, from seed 0.  The first three draws are those of
    the 200-row table of the complement table's docstring, kept so that the
    table stays the same."""
    rng = np.random.default_rng(0)
    _ = rng.integers(0, 2, 200), rng.integers(0, 2, 200), rng.random(200)
    X = rng.integers(0, 2, (12, 30))
    header = ",".join([*(f"x{j}" for j in range(30)), "y"])
    rows = [",".join(str(v) for v in (*row, i % 2)) for i, row in enumerate(X)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def blas_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS reports; None if it has no such getter."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter()
    return None


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def round_trip(out: str) -> int:
    """Load the seed-0 cohort and write it back out; 1 unless the bytes match."""
    source, copy = os.path.join(out, "synth0", "cohort.csv"), os.path.join(out, ROUND_TRIP)
    synth.write_cohort_csv(synth.load_cohort_csv(source), copy)
    if _sha256(copy) != _sha256(source):
        print(f"FAIL {ROUND_TRIP}: sha256 differs from synth0/cohort.csv", file=sys.stderr)
        return 1
    print(f"{ROUND_TRIP}: sha256 equals synth0/cohort.csv's", file=sys.stderr)
    return 0


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _max_diff(a, b) -> float:
    """The largest |a - b| of two numbers or equal-length sequences of numbers
    (or of numeric text), 0.0 if empty; NaN when any difference is NaN
    (np.max keeps a NaN wherever it falls; the builtin max need not).
    Raises ValueError when a value is not a number or the shapes differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shapes {a.shape} and {b.shape} differ")
    return float(np.max(np.abs(a - b), initial=0.0))


def _report(name: str, kind: str, field: str, diff: float, cells: str = "") -> int:
    """Print one column's or field's largest difference; 1 if beyond TOLERANCE."""
    print(f"  {field}: max |diff| {diff:.3g}{cells}")
    if diff <= TOLERANCE:
        return 0
    print(f"FAIL {name}: {kind} {field} differs by {diff:.3g} > {TOLERANCE:g}")
    return 1


def _compare_csv(name: str, old: str, new: str) -> int:
    (header, *a), (other, *b) = _csv_rows(old), _csv_rows(new)
    if header != other or len(a) != len(b):
        print(f"{name}: header or row count differs")
        return 1
    print(f"{name}: {len(a)} rows")
    status = 0
    for j, column in enumerate(header):
        pairs = [(x[j], y[j]) for x, y in zip(a, b) if x[j] != y[j]]
        try:
            diff = _max_diff(*zip(*pairs)) if pairs else 0.0
        except ValueError:
            print(f"  {column}: {len(pairs)} text cells differ")
            status = 1
        else:
            status |= _report(name, "column", column, diff, f" ({len(pairs)} cells differ)")
    return status


def _card(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        card = json.load(fh)
    card.update(card.pop("selection"))
    return card


def _compare_card(name: str, old: str, new: str) -> int:
    a, b = _card(old), _card(new)
    print(f"{name}: {len(a)} fields")
    status = 0
    for field in sorted(a.keys() | b.keys()):
        if field not in a or field not in b:
            print(f"FAIL {name}: field {field} missing")
            status = 1
        elif field not in CARD_FLOATS:
            if a[field] != b[field]:
                print(f"FAIL {name}: field {field} differs")
                status = 1
        else:
            try:
                status |= _report(name, "field", field, _max_diff(a[field], b[field]))
            except ValueError as exc:
                print(f"FAIL {name}: field {field}: {exc}")
                status = 1
    return status


def compare(old: str, new: str) -> int:
    """Print the per-column differences of every CSV file, and the per-field
    differences of every scorecard, of two output sets."""
    status = 0
    for _, files in runs(old, []):
        for name in [f for f in files if f.endswith((".csv", ".json"))]:
            paths = [os.path.join(old, name), os.path.join(new, name)]
            if not all(map(os.path.exists, paths)):
                print(f"FAIL {name}: missing")
                status = 1
                continue
            status |= (_compare_csv if name.endswith(".csv") else _compare_card)(name, *paths)
    return status


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = argv[0]
    os.makedirs(out, exist_ok=True)
    write_complement_csv(os.path.join(out, COMPLEMENT))
    write_n_below_p_csv(os.path.join(out, N_BELOW_P))
    write_categorical_heart(out)
    heart = ["--input", HEART_CSV, "--label", "disease", "--encoding", HEART_ENCODING]
    for args, files in runs(out, heart):
        if f"{out}/{DECISIONS}" in args:
            write_decision_csv(os.path.join(out, "synth0", "cohort.csv"),
                               os.path.join(out, DECISIONS))
        for name in files:  # a stale file from an earlier run must not pass as output
            if os.path.exists(os.path.join(out, name)):
                os.remove(os.path.join(out, name))
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.run(args)
        print(f"{time.perf_counter() - start:.2f} s  scorekit {' '.join(args)}", file=sys.stderr)
        if rc != 0:
            print(f"scorekit {' '.join(args)} exited {rc}", file=sys.stderr)
            return 1
        for name in files:
            print(f"{_sha256(os.path.join(out, name))}  {name}")
    return round_trip(out)


if __name__ == "__main__":
    print(f"BLAS threads: {blas_threads()}", file=sys.stderr)
    sys.exit(main(sys.argv[1:]))
