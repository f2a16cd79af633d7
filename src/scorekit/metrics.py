"""Classification metrics and the cross-validated k x M evaluation sweep."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, FoldAssignment, kfold
from .errors import DataError, NumericError
from .glm import cv_select, fit_logistic, predict_prob
from .selection import StepFailure, forward_stepwise, selectable_groups
from .srr import rescale_round


def _tie_groups(scores: np.ndarray):
    """Ascending order of `scores`, the sorted values, and tie-group starts.

    The one sort behind :func:`best_threshold`.  ``first[i]`` is True where
    sorted position ``i`` opens a run of equal scores; NaNs sort last, one
    per run.  The sort is numpy's default (unstable) kind, so the rows
    inside a run come in no fixed order, and ``best_threshold`` never reads
    that order: it reads its cumulative label counts only at run starts.
    A NaN is a run of its own whose place depends on the sort, which is why
    ``best_threshold`` drops NaN scores first.
    """
    order = np.argsort(scores)
    ordered = scores[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return order, ordered, first


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
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError("scores and labels must be 1-d and the same length")
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

    Candidates are the distinct observed scores plus one above the max;
    ties break toward the smaller cutoff.  A label counts as correct only
    when it is 1 and predicted 1, or 0 and predicted 0.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError("scores and labels must be 1-d and the same length")
    top = np.max(scores) + 1.0  # NaN when any score is NaN
    n_zero = np.count_nonzero(labels == 0)
    # a NaN score is below every cutoff, and a NaN cutoff predicts all 0 as `top` does
    kept = ~np.isnan(scores)
    order, ordered, first = _tie_groups(scores[kept])
    starts = np.flatnonzero(first)
    cutoffs = np.append(ordered[starts], top)
    # sorted position of each cutoff: the rows from there on are predicted 1
    at = np.append(starts, np.searchsorted(ordered, top))
    sorted_labels = labels[kept][order]
    ones = np.concatenate([[0], np.cumsum(sorted_labels == 1)])
    zeros = np.concatenate([[0], np.cumsum(sorted_labels == 0)])
    correct = (ones[-1] - ones[at]) + n_zero - (zeros[-1] - zeros[at])
    # accuracies are multiples of 1/n, so distinct ones differ by far more than
    # the 1e-12 tie tolerance and the first maximum is the smallest best cutoff
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


def _prob_cells(method, fold, prob_test, y_test) -> SweepCell:
    return SweepCell(
        method=method,
        k=None,
        M=None,
        fold=fold,
        auc=auc(prob_test, y_test),
        accuracy=accuracy((np.asarray(prob_test) >= 0.5).astype(int), y_test),
    )


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
    selected-feature lasso that the scorecard rounds.  A failing cell records
    its error and the sweep continues; when a selection step cannot be fit,
    each k below it is still scored and each k from it on records that step's
    failure.
    """
    k_values = tuple(sorted(set(int(k) for k in k_values)))
    M_values = tuple(sorted(set(int(M) for M in M_values)))
    if folds.n != ds.n:
        raise DataError("fold assignment does not cover the dataset")
    cells: list[SweepCell] = []
    k_max = max(k_values)

    for f in range(folds.fold_count):
        tr_idx, te_idx = folds.train_indices(f), folds.test_indices(f)
        train, test = ds.take(tr_idx), ds.take(te_idx)
        y_tr = train.labels.astype(float)
        y_te = test.labels

        # benchmarks on all features
        try:
            full_fit = fit_logistic(train.rows, y_tr, on_divergence="clamp")
            prob = predict_prob(full_fit, test.rows)
            cells.append(_prob_cells(LOGISTIC_FULL, f, prob, y_te))
        except (DataError, NumericError) as exc:
            cells.append(SweepCell(LOGISTIC_FULL, None, None, f, np.nan, np.nan, str(exc)))
        inner = kfold(train.n, inner_folds, seed=seed * 100003 + f, labels=train.labels)
        try:
            full_path = cv_select(
                train.rows, y_tr, inner, n_lambda=n_lambda, lambda_min_ratio=1e-3
            )
            cells.append(_prob_cells(LASSO_FULL, f, full_path.predict_prob(test.rows), y_te))
        except (DataError, NumericError) as exc:
            cells.append(SweepCell(LASSO_FULL, None, None, f, np.nan, np.nan, str(exc)))

        failure = None  # the step no candidate could fit, if any
        try:
            k_fit = min(k_max, len(selectable_groups(train, grouped)))
            trace = forward_stepwise(train, k_fit, grouped=grouped)
        except StepFailure as exc:
            trace, failure = exc.trace, exc
        except (DataError, NumericError) as exc:
            for k in k_values:
                cells.append(SweepCell(LASSO_SELECTED, k, None, f, np.nan, np.nan, str(exc)))
                for M in M_values:
                    cells.append(SweepCell(SCORECARD, k, M, f, np.nan, np.nan, str(exc)))
            continue

        for k in k_values:
            try:
                if k > k_fit:
                    raise DataError(f"k={k} exceeds the {k_fit} selectable features")
                if k > len(trace.step_groups):
                    raise NumericError(str(failure))
                cols = [j for g in trace.step_groups[:k] for j in g]
                path = cv_select(
                    train.rows[:, cols], y_tr, inner, n_lambda=n_lambda, lambda_min_ratio=1e-3
                )
                intercept, coefs = path.coefficients_at()
                score_te_raw = path.linear_score(test.rows[:, cols])
                cells.append(
                    SweepCell(
                        LASSO_SELECTED,
                        k,
                        None,
                        f,
                        auc(score_te_raw, y_te),
                        accuracy((path.predict_prob(test.rows[:, cols]) >= 0.5).astype(int), y_te),
                    )
                )
            except (DataError, NumericError) as exc:
                cells.append(SweepCell(LASSO_SELECTED, k, None, f, np.nan, np.nan, str(exc)))
                for M in M_values:
                    cells.append(SweepCell(SCORECARD, k, M, f, np.nan, np.nan, str(exc)))
                continue

            for M in M_values:
                try:
                    w = rescale_round(coefs, M)
                    s_tr = train.rows[:, cols] @ w
                    s_te = test.rows[:, cols] @ w
                    cell_auc = auc(s_te, y_te)
                    t = best_threshold(s_tr, train.labels)
                    cells.append(
                        SweepCell(
                            SCORECARD,
                            k,
                            M,
                            f,
                            cell_auc,
                            accuracy((s_te >= t).astype(int), y_te),
                        )
                    )
                except (DataError, NumericError) as exc:
                    cells.append(SweepCell(SCORECARD, k, M, f, np.nan, np.nan, str(exc)))

    return SweepResult(cells=tuple(cells), k_values=k_values, M_values=M_values)
