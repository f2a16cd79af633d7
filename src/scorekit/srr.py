"""Select-regress-and-round: integer-weight scorecards.

Pipeline: pick ``k`` features by forward stepwise selection, fit an
L1-regularized logistic model on them with a cross-validated penalty, then
rescale the surviving coefficients into ``[-M, M]`` and round to integers.
The result is a weighted checklist: sum the weights of the applicable
attributes and compare against a threshold.  The regression intercept is
never rescaled or rounded; any additive constant is absorbed by the
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._math import round_half_away_from_zero
from .data import Dataset, FoldAssignment, JsonRecord
from .errors import DataError
from .glm import cv_select, linear_predictor
from .selection import SelectionTrace, forward_stepwise

RELEASE = "release"
WITHHOLD = "withhold"


def finite_threshold(value, owner: str) -> float:
    """A release threshold as a float, refused if NaN (releases nobody) or infinite."""
    threshold = float(value)
    if not np.isfinite(threshold):
        raise DataError(f"{owner} threshold must be finite, got {threshold!r}")
    return threshold


@dataclass(frozen=True)
class Scorecard(JsonRecord):
    """An ordered list of (feature, integer weight) pairs plus a threshold.

    ``raw_coefficients`` / ``scaling`` / ``selection`` record how the card
    was derived: the pre-rounding model coefficients (original scale, in
    ``feature_names`` order over the selected columns) and the factor
    ``M / max|coef|`` applied before rounding.
    """

    entries: tuple[tuple[str, int], ...]
    weight_bound: int
    feature_budget: int
    threshold: float | None = None
    feature_names: tuple[str, ...] = ()
    raw_coefficients: tuple[float, ...] = ()
    intercept: float = 0.0
    scaling: float = 0.0
    # declared last: the field order is scorecard.json's key order
    selection: SelectionTrace | None = None

    def __post_init__(self):
        entries = tuple((str(name), int(w)) for name, w in self.entries)
        if any(abs(w) > self.weight_bound for _, w in entries):
            raise DataError("scorecard weight exceeds the declared bound")
        if len({name for name, _ in entries}) != len(entries):
            raise DataError("duplicate feature in scorecard entries")
        if self.threshold is not None:
            finite_threshold(self.threshold, "scorecard")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(
            self, "raw_coefficients", tuple(float(c) for c in self.raw_coefficients)
        )
        if isinstance(self.selection, dict):
            object.__setattr__(self, "selection", SelectionTrace(**self.selection))

    def weight_vector(self, feature_names) -> np.ndarray:
        """The card's weights aligned to a column layout; columns off the card
        weigh 0.  A layout missing a card feature is a DataError."""
        names = tuple(feature_names)
        missing = [name for name, _ in self.entries if name not in names]
        if missing:
            raise DataError(f"covariate layout is missing scorecard features {missing}")
        w = np.zeros(len(names))
        for name, weight in self.entries:
            w[names.index(name)] = weight
        return w

    def scores(self, X, feature_names) -> np.ndarray:
        """The score of every row of ``X``, whose columns ``feature_names``
        names: the one place a card meets a covariate matrix.  Identical rows
        get identical scores (see :func:`~scorekit.glm.linear_predictor`)."""
        return np.atleast_1d(linear_predictor(0.0, self.weight_vector(feature_names), X))

    def render(self) -> str:
        """Two-column Feature / Score table plus the threshold line."""
        width = max([len("Feature")] + [len(name) for name, _ in self.entries]) if self.entries else len("Feature")
        lines = [f"{'Feature':<{width}}  Score", f"{'-' * width}  -----"]
        for name, w in self.entries:
            lines.append(f"{name:<{width}}  {w:5d}")
        if self.threshold is not None:
            lines.append("")
            lines.append(f"{RELEASE} if total score < {self.threshold:g}")
        return "\n".join(lines)


def rescale_round(coefs, M: int) -> np.ndarray:
    """Map coefficients into integers in [-M, M].

    Each weight is round(M * coef / max|coef|), with exact halves rounded
    away from zero, so the largest-magnitude coefficient always maps to
    +-M.  An all-zero input returns all zeros.
    """
    if M < 1:
        raise DataError("weight bound M must be at least 1")
    coefs = np.asarray(coefs, dtype=float)
    top = np.max(np.abs(coefs)) if coefs.size else 0.0
    if top == 0.0:
        return np.zeros(coefs.shape, dtype=int)
    return round_half_away_from_zero(M * coefs / top).astype(int)


def build_scorecard(
    ds: Dataset,
    k: int,
    M: int,
    folds_for_lambda: FoldAssignment,
    threshold: float | None = None,
    grouped: bool = True,
    n_lambda: int = 100,
) -> Scorecard:
    """Run select -> regress -> round on an encoded dataset.

    The fitted card may use fewer than ``k`` features: the lasso can zero
    out coefficients, and rounding can zero out more.
    """
    trace = forward_stepwise(ds, k, grouped=grouped)
    cols = list(trace.ordered_features)
    names = tuple(ds.feature_names[j] for j in cols)
    path = cv_select(
        ds.rows[:, cols], ds.labels.astype(float), folds_for_lambda, n_lambda=n_lambda
    )
    intercept, coefs = path.coefficients_at()
    weights = rescale_round(coefs, M)
    top = float(np.max(np.abs(coefs))) if coefs.size else 0.0
    entries = tuple(
        (name, int(w)) for name, w in zip(names, weights) if w != 0
    )
    card = Scorecard(
        entries=entries,
        weight_bound=M,
        feature_budget=k,
        threshold=threshold,
        selection=trace,
        feature_names=names,
        raw_coefficients=tuple(float(c) for c in coefs),
        intercept=float(intercept),
        scaling=(M / top) if top > 0.0 else 0.0,
    )
    return card


def score(card: Scorecard, x: Mapping[str, float]) -> float:
    """Sum of weights times feature values; integer-valued on 0/1 rows.
    Only the card's features are read from ``x``."""
    names = tuple(name for name, _ in card.entries if name in x)
    return float(card.scores([[x[name] for name in names]], names)[0])


def decide(card: Scorecard, x: Mapping[str, float]) -> str:
    """Favorable action (release) iff score is strictly below the threshold."""
    if card.threshold is None:
        raise DataError("scorecard has no decision threshold set")
    return RELEASE if score(card, x) < card.threshold else WITHHOLD
