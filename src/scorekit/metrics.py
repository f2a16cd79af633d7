"""Classification metrics and the cross-validated k x M evaluation sweep."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._math import expit
from .data import Dataset, FoldAssignment, kfold
from .errors import DataError, NumericError
from .glm import _fitted, cv_select_many, fit_logistic, linear_predictor, predict_prob
from .selection import StepFailure, forward_stepwise, selectable_groups
from .srr import rescale_round


def _scores_and_labels(scores, labels):
    """``scores`` as floats and ``labels`` as an array, both 1-d and of one length."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError("scores and labels must be 1-d and the same length")
    return scores, labels


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative.

    The Mann-Whitney U statistic, counted by a merge in O(n log n); tied
    pairs count one half.  Each class's scores are sorted on their own, and
    one stable argsort of negatives-then-positives merges the two sorted
    runs, putting every negative ahead of the positives it ties.  A
    positive at merged position k with j positives ahead of it then has
    k - j negatives at or below it, and U is the sum of those counts less
    one half per tied (negative, positive) pair.  Every count is an
    integer, so 2U is exact and the result is the correctly rounded
    U / (n_pos * n_neg).  Labels other than 1 count as negatives.  Raises
    :class:`DataError` when a score is NaN.
    """
    scores, labels = _scores_and_labels(scores, labels)
    if np.isnan(scores).any():
        raise DataError("AUC scores contain NaN")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs both classes present")
    # np.compress, unlike a boolean index, does not slow down on interleaved labels
    merged = np.concatenate([np.sort(np.compress(~pos, scores)), np.sort(np.compress(pos, scores))])
    order = np.argsort(merged, kind="stable")
    is_pos = order >= n_neg
    at_or_below = int(np.flatnonzero(is_pos).sum()) - n_pos * (n_pos - 1) // 2
    # a run of equal values that holds both classes is entered once, at the
    # step from its last negative to its first positive; its tied pairs are
    # its negatives times its positives, counted from that step alone
    ordered = merged[order]
    step = np.flatnonzero((is_pos[1:] > is_pos[:-1]) & (ordered[1:] == ordered[:-1]))
    value = ordered[step]
    tied = int((step + 1 - np.searchsorted(ordered, value, "left"))
               @ (np.searchsorted(ordered, value, "right") - step - 1))
    return float((at_or_below - 0.5 * tied) / (n_pos * n_neg))


def accuracy(predictions, labels) -> float:
    """Fraction of exact matches between two binary vectors."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise DataError("predictions and labels must have the same length")
    return float(np.mean(predictions == labels))


def best_threshold(scores, labels) -> float:
    """Score cutoff (predict 1 iff score >= cutoff) maximizing accuracy.

    Candidates are the distinct non-NaN scores plus max + 1 (NaN, predicting
    all 0, when a score is NaN); ties break toward the smaller cutoff.  A
    label is correct only when it is 1 and predicted 1, or 0 and predicted 0.
    With each class's non-NaN scores sorted, cutoff c gets right
    ``len(ones) - searchsorted(ones, c)`` ones and ``searchsorted(zeros, c)``
    zeros; a NaN-score row is below every cutoff, the same at each.
    """
    scores, labels = _scores_and_labels(scores, labels)
    top = np.max(scores) + 1.0  # NaN when any score is NaN
    kept = ~np.isnan(scores)
    ones, zeros = (np.sort(np.compress(kept & (labels == value), scores)) for value in (1, 0))
    cutoffs = np.append(np.unique(np.compress(kept, scores)), top)
    correct = len(ones) - np.searchsorted(ones, cutoffs) + np.searchsorted(zeros, cutoffs)
    # the cutoffs ascend, so the first maximum is the smallest best cutoff
    return float(cutoffs[np.argmax(correct)])


# ---------------------------------------------------------------------------
# k x M sweep
# ---------------------------------------------------------------------------

SCORECARD = "scorecard"
LOGISTIC_FULL = "logistic_full"
LASSO_FULL = "lasso_full"
LASSO_SELECTED = "lasso_selected"
SWEEP_HEADER = ("method", "k", "M", "fold", "auc", "accuracy", "error")


@dataclass(frozen=True)
class SweepCell:
    method: str
    k: int | None
    M: int | None
    fold: int
    auc: float
    accuracy: float
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    """Per-fold AUC/accuracy for every (k, M) cell plus benchmark rows."""

    cells: tuple[SweepCell, ...]
    k_values: tuple[int, ...]
    M_values: tuple[int, ...]

    def __post_init__(self):
        for cell in self.cells:
            if cell.error is None and not 0.0 <= cell.auc <= 1.0:
                raise NumericError("AUC outside [0, 1]")
        requested = {(k, M) for k in self.k_values for M in self.M_values}
        seen = {(c.k, c.M) for c in self.cells if c.method == SCORECARD}
        if seen != requested:
            raise NumericError("sweep grid does not cover the requested (k, M) set exactly")
        object.__setattr__(self, "cells", tuple(self.cells))

    def aucs(self, method: str, k: int | None = None, M: int | None = None) -> list[float]:
        """AUC of each successful cell of ``method``, at ``k`` and ``M`` when given."""
        return [
            c.auc
            for c in self.cells
            if c.method == method and c.error is None
            and (k is None or c.k == k) and (M is None or c.M == M)
        ]

    def mean_auc(self, method: str, k: int | None = None, M: int | None = None) -> float:
        vals = self.aucs(method, k, M)
        if not vals:
            cell = "" if k is None and M is None else f" (k={k}, M={M})"
            raise NumericError(f"no successful cells for {method}{cell}")
        return float(np.mean(vals))

    def rows(self):
        """One :data:`SWEEP_HEADER` row per cell; a failed cell has empty
        metrics and its error text."""
        for c in self.cells:
            yield [
                c.method,
                "" if c.k is None else c.k,
                "" if c.M is None else c.M,
                c.fold,
                "" if c.error else repr(c.auc),
                "" if c.error else repr(c.accuracy),
                c.error or "",
            ]


def _cell(method, k, M, fold, measure, *args) -> SweepCell:
    """The cell scored (AUC, accuracy) by ``measure(*args)``, or the error it raises."""
    try:
        return SweepCell(method, k, M, fold, *measure(*args))
    except (DataError, NumericError) as exc:
        return SweepCell(method, k, M, fold, np.nan, np.nan, str(exc))


def _by_prob(prob, labels):
    """AUC of fitted probabilities, and the accuracy of cutting them at 1/2."""
    return auc(prob, labels), accuracy(prob >= 0.5, labels)


def cv_sweep(
    ds: Dataset,
    k_values,
    M_values,
    folds: FoldAssignment,
    grouped: bool = True,
    n_lambda: int = 30,
    inner_folds: int = 5,
    seed: int = 0,
) -> SweepResult:
    """Cross-validated accuracy of scorecards over a (k, M) grid.

    Per fold: select/regress on the training part, score the held-out part
    with the integer weights.  Benchmarks fitted on the same folds:
    full-feature logistic regression, full-feature lasso, and the unrounded
    selected-feature lasso that the scorecard rounds.  Each fold's
    full-feature lasso and its selected-feature lasso at every k are
    cross-validated by one :func:`cv_select_many` batch, after one forward
    selection to the largest k.

    A cell whose fit or scoring raises a DataError or NumericError records
    that error, and the sweep continues.  A failed ``lasso_selected`` cell
    gives each scorecard cell of its k its error: the selection's, k beyond
    the selectable features, a selection step up to k that no candidate
    could fit, or the failure of its own lasso or AUC.
    """
    k_values = tuple(sorted(set(int(k) for k in k_values)))
    M_values = tuple(sorted(set(int(M) for M in M_values)))
    if folds.n != ds.n:
        raise DataError("fold assignment does not cover the dataset")
    cells: list[SweepCell] = []
    k_max = max(k_values)

    for f in range(folds.fold_count):
        train, test = ds.take(folds.train_indices(f)), ds.take(folds.test_indices(f))
        y_tr, y_te = train.labels, test.labels
        cells.append(_cell(LOGISTIC_FULL, None, None, f, lambda: _by_prob(
            predict_prob(fit_logistic(train.rows, y_tr, on_divergence="clamp"), test.rows), y_te
        )))

        try:
            k_fit = min(k_max, len(selectable_groups(train, grouped)))
            steps, stop = forward_stepwise(train, k_fit, grouped=grouped).step_groups, None
        except StepFailure as exc:  # the steps before it are kept
            steps, stop = exc.trace.step_groups, exc
        except (DataError, NumericError) as exc:  # no step: every k records exc
            steps, stop, k_fit = (), exc, k_max
        fitted = [k for k in k_values if k <= len(steps)]
        column_sets = [None] + [[j for g in steps[:k] for j in g] for k in fitted]
        inner = kfold(train.n, inner_folds, seed=seed * 100003 + f, labels=y_tr)
        try:
            paths = cv_select_many(
                train.rows, y_tr, inner, column_sets, n_lambda=n_lambda, lambda_min_ratio=1e-3
            )
        except (DataError, NumericError) as exc:
            paths = [exc] * len(column_sets)
        cells.append(_cell(LASSO_FULL, None, None, f, lambda: _by_prob(
            _fitted(paths[0]).predict_prob(test.rows), y_te
        )))
        selected = dict(zip(fitted, zip(column_sets[1:], paths[1:])))

        def lasso(k):
            """k's selected columns and fitted path, or the error that left k unfitted."""
            if k > k_fit:
                raise DataError(f"k={k} exceeds the {k_fit} selectable features")
            if k > len(steps):
                raise stop
            cols, path = selected[k]
            return cols, _fitted(path)

        def lasso_selected(k):
            cols, path = lasso(k)
            score = path.linear_score(test.rows[:, cols])
            return auc(score, y_te), accuracy(expit(score) >= 0.5, y_te)

        def scorecard(k, M):
            cols, path = lasso(k)
            w = rescale_round(path.coefficients_at()[1], M)
            s_tr = linear_predictor(0.0, w, train.rows[:, cols])
            s_te = linear_predictor(0.0, w, test.rows[:, cols])
            return auc(s_te, y_te), accuracy(s_te >= best_threshold(s_tr, y_tr), y_te)

        for k in k_values:
            bench = _cell(LASSO_SELECTED, k, None, f, lasso_selected, k)
            cells.append(bench)
            cells.extend(
                replace(bench, method=SCORECARD, M=M) if bench.error
                else _cell(SCORECARD, k, M, f, scorecard, k, M)
                for M in M_values
            )

    return SweepResult(cells=tuple(cells), k_values=k_values, M_values=M_values)
