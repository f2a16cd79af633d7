"""Dataset ingestion, categorical/binned encoding, cross-validation splits, file I/O.

A :class:`Dataset` is an immutable named feature matrix with binary labels and
an optional action column.  Raw tables are turned into indicator designs
with :func:`encode`, driven by an :class:`EncodingSpec`.  Fold assignments are
deterministic given ``(n, k, seed)`` and stratified by label when labels are
supplied.

Every CSV file the package reads has its cells parsed by
:func:`read_typed_table`, in one ``np.loadtxt`` pass; :func:`read_table`,
which yields each row as a list of strings, reads headers and places the
errors that pass cannot.  Every CSV file the package writes goes through
:func:`write_table`; fitted artifacts round-trip through JSON with the
:class:`JsonRecord` mixin.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import DataError

# Column-name prefix reserved for bookkeeping columns (e.g. stored potential
# outcomes in synthetic cohorts) that ordinary loaders must not consume.
RESERVED_PREFIX = "__"


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class JsonRecord:
    """JSON round trip for a dataclass whose ``__post_init__`` restores its types.

    ``to_json`` writes the fields in declaration order, with arrays and
    tuples as lists and nested records as objects.  ``from_json`` passes the
    decoded object to the constructor as keywords, so the constructor's own
    coercions and checks rebuild arrays, tuples and nested records.
    """

    def to_json(self) -> str:
        return json.dumps(_plain(self), indent=2)

    @classmethod
    def from_json(cls, text: str):
        try:
            return cls(**json.loads(text))
        except (TypeError, ValueError) as exc:
            raise DataError(f"not a valid {cls.__name__} record: {exc}") from None


def _plain(value):
    if isinstance(value, JsonRecord):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def covariate_layout(feature_names, column_groups, p: int) -> tuple[tuple, tuple]:
    """``(names, groups)`` of a ``p``-column covariate matrix, under the one
    layout rule of :class:`Dataset` and ``policy.CaseTable``: the names are
    unique, one per column, and the groups default to the names."""
    names = tuple(feature_names)
    groups = names if column_groups is None else tuple(column_groups)
    if len(names) != p or len(groups) != p:
        raise DataError("feature_names and column_groups need one entry per column")
    if len(set(names)) != p:
        raise DataError("feature names must be unique")
    return names, groups


def check_sd(sd: np.ndarray, names) -> None:
    """Raise a :class:`DataError` naming the first column whose standard deviation
    ``sd`` overflowed, as one 1e300 cell makes it; standardizing would only warn."""
    bad = np.flatnonzero(~np.isfinite(sd))
    if len(bad):
        raise DataError(f"column {names[bad[0]]!r} is too large to standardize: "
                        "its standard deviation overflows")


def check_spread(X: np.ndarray, names) -> None:
    """:func:`check_sd` of the columns of the finite matrix ``X``."""
    with np.errstate(over="ignore", invalid="ignore"):
        check_sd(np.std(X, axis=0), names)


@dataclass(frozen=True)
class Dataset:
    """Named feature matrix with binary outcome labels.

    ``rows`` is an ``(n, p)`` float matrix of finite values.  Non-numeric
    source columns are stored as integer category codes into
    ``categorical_levels[name]`` and are flagged there until encoded.
    ``column_groups`` records, for each column, the name of the source
    feature it came from (indicator columns produced by :func:`encode` share
    their source column's group).
    """

    feature_names: tuple[str, ...]
    rows: np.ndarray
    labels: np.ndarray
    actions: np.ndarray | None = None
    column_groups: tuple[str, ...] | None = None
    categorical_levels: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    label_mapping: tuple[str, str] | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise DataError("rows must be a 2-d matrix")
        n, p = rows.shape
        if n < 1 or p < 1:
            raise DataError("dataset needs at least one row and one feature")
        names, groups = covariate_layout(self.feature_names, self.column_groups, p)
        if not np.all(np.isfinite(rows)):
            raise DataError("feature matrix contains non-finite values")
        check_spread(rows, names)
        labels = np.asarray(self.labels)
        if labels.shape != (n,):
            raise DataError("labels length does not match row count")
        if not np.isin(labels, (0, 1)).all():
            raise DataError("labels must contain only 0 or 1")
        object.__setattr__(self, "rows", _freeze(rows))
        object.__setattr__(self, "labels", _freeze(labels.astype(np.int8)))
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "column_groups", groups)
        if self.actions is not None:
            actions = np.asarray(self.actions)
            if actions.shape != (n,):
                raise DataError("actions length does not match row count")
            if len(np.unique(actions)) > 2:
                raise DataError("actions must take at most two distinct values")
            object.__setattr__(self, "actions", _freeze(actions))
        object.__setattr__(self, "categorical_levels", dict(self.categorical_levels))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def p(self) -> int:
        return self.rows.shape[1]

    def take(self, indices) -> "Dataset":
        """Row subset as a new Dataset (shares encoding metadata)."""
        indices = np.asarray(indices)
        return replace(
            self,
            rows=self.rows[indices],
            labels=self.labels[indices],
            actions=None if self.actions is None else self.actions[indices],
        )


# ---------------------------------------------------------------------------
# Encoding directives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Passthrough:
    """Keep the column unchanged."""


@dataclass(frozen=True)
class OneHot:
    """Expand a column into indicators for every non-reference category."""

    categories: tuple
    reference: object

    def __post_init__(self):
        cats = tuple(self.categories)
        if len(set(map(str, cats))) != len(cats):
            raise DataError("one-hot categories must be unique")
        if self.reference not in cats:
            raise DataError("one-hot reference level must belong to the declared categories")
        object.__setattr__(self, "categories", cats)


@dataclass(frozen=True)
class Bins:
    """Bin a numeric column by explicit cut points, dropping a reference bin.

    Intervals are left-closed / right-open.  With ``m`` cuts there are
    ``m + 1`` bins, unbounded at both ends unless ``lower`` / ``upper`` are
    given, in which case values outside those bounds are rejected.
    """

    cuts: tuple[float, ...]
    reference: str
    labels: tuple[str, ...] | None = None
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        cuts = tuple(float(c) for c in self.cuts)
        if len(cuts) < 1:
            raise DataError("binning needs at least one cut point")
        if any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise DataError("bin cut points must be strictly increasing")
        object.__setattr__(self, "cuts", cuts)
        labels = self.labels
        if labels is None:
            labels = self._default_labels(cuts)
        labels = tuple(labels)
        if len(labels) != len(cuts) + 1:
            raise DataError("need exactly one label per bin (len(cuts) + 1)")
        if len(set(labels)) != len(labels):
            raise DataError("bin labels must be unique")
        if self.reference not in labels:
            raise DataError("reference bin label must be one of the bin labels")
        object.__setattr__(self, "labels", labels)

    @staticmethod
    def _default_labels(cuts: tuple[float, ...]) -> tuple[str, ...]:
        edges = [_category_token(c) for c in cuts]
        inner = [f"{a}_{b}" for a, b in zip(edges, edges[1:])]
        return (f"lt_{edges[0]}", *inner, f"ge_{edges[-1]}")


Directive = Union[Passthrough, OneHot, Bins]


@dataclass(frozen=True)
class EncodingSpec:
    """Per-column encoding directives; unlisted columns pass through."""

    columns: Mapping[str, Directive]

    def __post_init__(self):
        object.__setattr__(self, "columns", dict(self.columns))

    @classmethod
    def from_json(cls, text: str) -> "EncodingSpec":
        """Parse ``{"columns": {name: directive}}`` (or the bare mapping).

        Malformed JSON, a directive that is not an object, a directive
        missing one of its required keys, and a directive whose values do
        not make a valid one raise :class:`DataError` naming the column.
        """
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise DataError(f"encoding spec is not valid JSON: {exc}") from None
        cols = raw.get("columns", raw) if isinstance(raw, dict) else raw
        if not isinstance(cols, dict):
            raise DataError("encoding spec must map column names to directives")
        directives: dict[str, Directive] = {}
        for name, d in cols.items():
            if not isinstance(d, dict):
                raise DataError(f"encoding directive for column {name!r} is not an object")
            kind = d.get("type", "passthrough")
            if kind not in ("passthrough", "one_hot", "bins"):
                raise DataError(f"unknown encoding directive type {kind!r} for column {name!r}")
            try:
                if kind == "one_hot":
                    directives[name] = OneHot(
                        categories=tuple(d["categories"]), reference=d["reference"]
                    )
                elif kind == "bins":
                    directives[name] = Bins(
                        cuts=tuple(d["cuts"]),
                        reference=d["reference"],
                        labels=tuple(d["labels"]) if d.get("labels") else None,
                        lower=d.get("lower"),
                        upper=d.get("upper"),
                    )
                else:
                    directives[name] = Passthrough()
            except KeyError as exc:
                raise DataError(f"{kind} directive for column {name!r} lacks {exc}") from None
            except (TypeError, ValueError, DataError) as exc:
                raise DataError(f"{kind} directive for column {name!r}: {exc}") from None
        return cls(columns=directives)


def _category_token(value) -> str:
    """Stable text token for a category value, used in indicator names."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _levels(name: str, directive: OneHot | Bins, col: np.ndarray, codes: tuple | None):
    """Each row's level key in column ``name``, and the ``(key, level, label)``
    of each level of ``directive``; ``codes`` are the column's categorical
    levels (``None``: numeric).  Raises on a value outside the levels, and
    on a numeric column's category that is not a number."""
    if isinstance(directive, Bins):
        if codes is not None:
            raise DataError(f"cannot bin categorical column {name!r}")
        if directive.lower is not None and (col < directive.lower).any():
            raise DataError(
                f"column {name!r} has values below the binning range with no catch-all bin"
            )
        if directive.upper is not None and (col >= directive.upper).any():
            raise DataError(
                f"column {name!r} has values above the binning range with no catch-all bin"
            )
        # bin index: number of cuts <= value  (left-closed, right-open bins)
        idx = np.searchsorted(np.asarray(directive.cuts), col, side="right")
        return idx, [(b, label, label) for b, label in enumerate(directive.labels)]
    cats = directive.categories
    if codes is None:
        try:
            keys = [float(c) for c in cats]
        except (TypeError, ValueError):
            raise DataError(
                f"column {name!r} is numeric, so its categories must be numbers: {list(cats)}"
            ) from None
        matched = np.isin(col, keys)
        if not matched.all():
            bad_vals = sorted(set(col[~matched].tolist()))[:5]
            raise DataError(
                f"column {name!r} has value(s) outside declared categories: {bad_vals}"
            )
        values = col
    else:
        # column holds integer codes into `codes`; a declared
        # category that never occurs simply yields an all-zero column
        declared = {str(c) for c in cats}
        bad = [lv for lv in codes if lv not in declared]
        if bad:
            raise DataError(f"column {name!r} has value(s) outside declared categories: {bad}")
        values = col.astype(int)
        keys = [codes.index(str(c)) if str(c) in codes else -1 for c in cats]
    return values, [(key, c, _category_token(c)) for key, c in zip(keys, cats)]


def encode(ds: Dataset, spec: EncodingSpec) -> Dataset:
    """Expand one-hot / binned columns into 0-1 indicator columns.

    Each encoded column is replaced, in place in the column order, by one
    indicator per non-reference level (bin label or category), named
    ``<column>_<label>`` and in the column's group.  Row count is unchanged,
    and the result has no categorical levels.
    """
    for name in spec.columns:
        if name not in ds.feature_names:
            raise DataError(f"encoding spec references unknown column {name!r}")

    out_cols: list[np.ndarray] = []
    out_names: list[str] = []
    out_groups: list[str] = []
    for j, name in enumerate(ds.feature_names):
        directive = spec.columns.get(name, Passthrough())
        col = ds.rows[:, j]
        codes = ds.categorical_levels.get(name)
        if isinstance(directive, Passthrough):
            if codes is not None:
                raise DataError(
                    f"column {name!r} is categorical and needs a one-hot directive"
                )
            out_cols.append(col)
            out_names.append(name)
            out_groups.append(ds.column_groups[j])
            continue
        values, levels = _levels(name, directive, col, codes)
        for key, level, label in levels:
            if level != directive.reference:
                out_cols.append((values == key).astype(float))
                out_names.append(f"{name}_{label}")
                out_groups.append(name)
    if not out_cols:
        raise DataError(
            "encoding spec leaves no column: every column is one-hot with only its reference level"
        )

    return Dataset(
        feature_names=tuple(out_names),
        rows=np.column_stack(out_cols),
        labels=ds.labels,
        actions=ds.actions,
        column_groups=tuple(out_groups),
        label_mapping=ds.label_mapping,
    )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _csv_records(path) -> Iterator[list[str]]:
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = None
            for row in reader:
                if header is None:
                    header = row
                elif len(row) != len(header):
                    raise DataError(
                        f"{path}: line {reader.line_num} has {len(row)} fields, "
                        f"expected {len(header)}"
                    )
                yield row
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path} is not a readable UTF-8 CSV file: {exc}") from None


def read_table(path) -> tuple[list[str], Iterator[list[str]]]:
    """Header and data rows of a UTF-8, comma-separated, headered file.

    Used for header reads, to place the errors of :func:`read_typed_table`
    and by the test references; every data cell the package uses comes
    from :func:`read_typed_table`.  A leading byte-order mark is skipped,
    not read into the first column name.  Rows are read as they are
    consumed, so a caller that needs only the header reads no further than
    the first row; the file closes when the rows run out or are dropped.
    An unreadable or non-UTF-8 file, an empty file, a file with no data
    row, and a row whose width differs from the header's each raise
    :class:`DataError` naming the file.
    """
    records = _csv_records(path)
    header = next(records, None)
    if header is None:
        raise DataError(f"{path}: empty file (no header row)")
    first = next(records, None)
    if first is None:
        raise DataError(f"{path}: no rows")
    return header, itertools.chain([first], records)


def read_typed_table(path, dtype) -> np.ndarray:
    """Data rows of a headered CSV file as one structured array of ``dtype``.

    ``dtype`` has a field per column, or a 1-d subarray field per run of
    like columns.  One ``np.loadtxt`` pass parses the numeric fields; an
    object field, which must be a scalar field, holds each cell's text.  The
    file must pass the checks of :func:`read_table`, with two differences: a
    number must be one numpy parses (it refuses ``float``'s digit
    separators, as in ``1_000.5``), and no header cell may hold a line break
    (an all-object ``dtype`` would take the rest of a longer header as a
    record, and a numeric one would report a cell of it).

    A file numpy refuses, or whose line breaks do not match its records
    (numpy skips blank lines, and a quoted cell may hold a line break), is
    read once more with :func:`read_table`: that raises its own errors, or
    ``line N has a non-numeric field`` where ``dtype`` wants a number, and
    supplies the text cells, so a quoted line break reads back as written.
    A refusal it cannot place raises :class:`DataError` naming the file.
    """
    dtype = np.dtype(dtype)
    if any("\n" in name or "\r" in name for name in read_table(path)[0]):
        raise DataError(f"{path}: a header cell holds a line break")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    # numpy reads with universal newlines: \r\n, \r and \n each end a line
    breaks = raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")
    del raw
    try:
        with warnings.catch_warnings():  # a file with no records is refused below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            records = np.loadtxt(
                path, dtype=dtype, delimiter=",", quotechar='"', encoding="utf-8-sig",
                comments=None, ndmin=1, skiprows=1,
            )
    except ValueError as exc:
        _rescan(path, dtype)
        raise DataError(f"{path}: {exc}") from None
    # the header and every record but perhaps the last end in a line break
    if len(records) == 0 or breaks - len(records) not in (0, 1):
        _rescan(path, dtype, records)
    return records


def _rescan(path, dtype: np.dtype, records: np.ndarray | None = None) -> None:
    """Read ``path`` with :func:`read_table`, raising where ``dtype`` wants a
    number and the cell is none; copy each text cell into ``records``."""
    columns = [(name, dtype[name].base.kind)
               for name in dtype.names for _ in range(math.prod(dtype[name].shape))]
    parsers = {"f": float, "i": int, "u": int}
    for i, row in enumerate(read_table(path)[1]):
        for (name, kind), cell in zip(columns, row):
            if kind in parsers:
                try:
                    parsers[kind](cell)
                except ValueError:
                    raise DataError(f"{path}: line {i + 2} has a non-numeric field") from None
            elif records is not None:
                records[name][i] = cell


def write_table(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write the header, then each row as it comes.

    The one place a CSV file is written.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_csv(
    path,
    label_column: str,
    action_column: str | None = None,
    group_column: str | None = None,
    positive_label: str | None = None,
) -> Dataset:
    """Load a UTF-8, comma-separated, headered table (see :func:`read_table`)
    into a Dataset.

    Every cell is read as text by one :func:`read_typed_table` pass, so a
    header cell may not hold a line break, and a row of the wrong width is
    reported before any missing cell.  Missing cells are rejected, not
    imputed.  The label column must take exactly two distinct values; the
    lexicographically larger raw value maps to 1 unless ``positive_label``
    overrides it.  The applied mapping is recorded on the Dataset.  A
    feature column is numeric when ``float`` parses every cell, and a NaN or
    infinite cell in it is an error; any other is stored as codes into its
    sorted levels, flagged for encoding in ``categorical_levels``.
    ``group_column``, when given, must exist and is left out of the
    features; its values are not stored.  The label, action and group
    columns must be three different columns.
    """
    header = read_table(path)[0]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    special = [col for col in (label_column, action_column, group_column) if col is not None]
    for col in special:
        if col not in header:
            raise DataError(f"{path}: missing column {col!r}")
        if special.count(col) > 1:
            raise DataError(
                f"{path}: column {col!r} is named for more than one of the label, "
                "action and group columns"
            )
    for col in header:
        if col.startswith(RESERVED_PREFIX) and col not in special:
            raise DataError(
                f"{path}: column {col!r} uses the reserved {RESERVED_PREFIX!r} prefix "
                "(bookkeeping columns such as stored potential outcomes must be "
                "loaded with their dedicated reader, not as features)"
            )

    records = read_typed_table(path, [(f"f{j}", object) for j in range(len(header))])
    cells = np.column_stack([records[name] for name in records.dtype.names])
    del records  # ``cells`` holds the same strings; this lowers the peak memory
    missing = np.argwhere(cells == "")
    if len(missing):
        i, j = missing[0]
        raise DataError(f"{path}: missing value in column {header[j]!r}, data row {i + 1}")

    raw_labels = cells[:, header.index(label_column)]
    distinct = np.unique(raw_labels).tolist()
    if len(distinct) != 2:
        raise DataError(
            f"{path}: label column {label_column!r} is not binary "
            f"({len(distinct)} distinct values)"
        )
    if positive_label is not None:
        if positive_label not in distinct:
            raise DataError(f"{path}: positive_label {positive_label!r} not among {distinct}")
        one = positive_label
    else:
        one = distinct[1]
    zero = distinct[0] if one == distinct[1] else distinct[1]

    feature_names: list[str] = []
    cols: list[np.ndarray] = []
    categorical: dict[str, tuple[str, ...]] = {}
    for j, name in enumerate(header):
        if name in special:
            continue
        try:
            values = cells[:, j].astype(float)  # float() on each cell, as Python parses it
        except ValueError:
            levels, codes = np.unique(cells[:, j], return_inverse=True)
            values = codes.astype(float)
            categorical[name] = tuple(levels.tolist())
        else:
            i = np.argmin(np.isfinite(values))
            if not np.isfinite(values[i]):
                raise DataError(f"non-finite value {cells[i, j]!r} in column {name!r}, "
                                f"data row {i + 1}")
        cols.append(values)
        feature_names.append(name)
    if not feature_names:
        raise DataError(f"{path}: no feature columns")

    return Dataset(
        feature_names=tuple(feature_names),
        rows=np.column_stack(cols),
        labels=(raw_labels == one).astype(np.int8),
        actions=cells[:, header.index(action_column)].astype(str) if action_column else None,
        categorical_levels=categorical,
        label_mapping=(zero, one),
    )


# ---------------------------------------------------------------------------
# Cross-validation folds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldAssignment:
    """A partition of ``n`` row indices into ``fold_count`` balanced folds."""

    fold_count: int
    assignment: np.ndarray

    def __post_init__(self):
        assignment = np.asarray(self.assignment, dtype=int)
        if self.fold_count < 2:
            raise DataError("fold count must be at least 2")
        counts = np.bincount(assignment, minlength=self.fold_count)
        if len(counts) > self.fold_count or (counts == 0).any():
            raise DataError("every fold must be non-empty")
        if counts.max() - counts.min() > 1:
            raise DataError("fold sizes may differ by at most 1")
        object.__setattr__(self, "assignment", _freeze(assignment))

    @property
    def n(self) -> int:
        return len(self.assignment)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


def kfold(n: int, k: int, seed: int, labels: Sequence[int] | None = None) -> FoldAssignment:
    """Deterministic balanced fold assignment; stratified when labels given.

    Stratification deals each label class round-robin across folds in one
    continuous pass, so fold sizes still differ by at most 1 overall.
    Without labels every row is of one class, whose shuffle is the order.
    """
    if k < 2:
        raise DataError("fold count must be at least 2")
    if k > n:
        raise DataError(f"cannot split {n} rows into {k} folds")
    labels = np.zeros(n, dtype=int) if labels is None else np.asarray(labels)
    if labels.shape != (n,):
        raise DataError("labels length does not match n")
    rng = np.random.default_rng(seed)
    order = np.concatenate(
        [rng.permutation(np.flatnonzero(labels == v)) for v in np.unique(labels)]
    )
    assignment = np.empty(n, dtype=int)
    assignment[order] = np.arange(n) % k
    return FoldAssignment(fold_count=k, assignment=assignment)
