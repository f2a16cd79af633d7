"""Forward stepwise feature selection.

At each step the candidate whose inclusion most reduces training deviance is
added; for a fixed number of added features this ordering is what any
constant-penalty criterion (AIC, BIC, ...) would produce.  Indicator columns
that came from one source column are treated as a single feature by default,
so a binned age column enters or stays out as a block.  Every candidate of
a step is fitted in one :func:`glm.fit_logistic_many` batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import Dataset, JsonRecord
from .errors import DataError, NumericError
from .glm import _design, fit_logistic_many

_TIE_EPS = 1e-10


@dataclass(frozen=True)
class SelectionTrace(JsonRecord):
    """Greedy selection order with the training deviance after each step."""

    ordered_features: tuple[int, ...]
    step_groups: tuple[tuple[int, ...], ...]
    step_names: tuple[str, ...]
    step_deviance: tuple[float, ...]

    def __post_init__(self):
        flat = tuple(self.ordered_features)
        if len(set(flat)) != len(flat):
            raise DataError("selected column indices must be unique")
        object.__setattr__(self, "ordered_features", flat)
        object.__setattr__(self, "step_groups", tuple(tuple(g) for g in self.step_groups))
        object.__setattr__(self, "step_names", tuple(self.step_names))
        object.__setattr__(self, "step_deviance", tuple(float(d) for d in self.step_deviance))


class StepFailure(NumericError):
    """A selection step where no candidate could be fit; ``trace`` holds
    the steps before it."""

    def __init__(self, message: str, trace: SelectionTrace):
        super().__init__(message)
        self.trace = trace


def selectable_groups(ds: Dataset, grouped: bool) -> list[tuple[str, tuple[int, ...]]]:
    """(name, columns) of each candidate: a column group, or one column when
    ``grouped`` is False.  A candidate whose columns are all constant on
    ``ds`` (dropped by the full-row :func:`glm._design` that the fits use)
    is left out: its fit would give it coefficient 0 and the deviance of the
    features already in.
    """
    live = _design(ds.rows, None)[3]
    if not grouped:
        return [(name, (j,)) for j, name in enumerate(ds.feature_names) if live[j]]
    groups: dict[str, list[int]] = {}
    for j, g in enumerate(ds.column_groups):
        groups.setdefault(g, []).append(j)
    return [(g, tuple(cols)) for g, cols in groups.items() if live[cols].any()]


def forward_stepwise(ds: Dataset, k: int, grouped: bool = True) -> SelectionTrace:
    """Greedily select ``k`` features (column groups) by training deviance.

    Only :func:`selectable_groups` are offered.  Ties break toward the lower
    column index.  A perfectly separating candidate is ranked by the
    deviance reached when the solver hits its divergence bound, which is
    effectively zero, so it still wins the step.
    A candidate whose fit ends in a NumericError (say, the complement of a
    column already in) is skipped; only a step where no candidate fits
    raises, a :class:`StepFailure` naming the step and its first failed
    candidate and carrying the steps that did fit.
    """
    groups = selectable_groups(ds, grouped)
    if not 1 <= k <= len(groups):
        raise DataError(
            f"k must be between 1 and the number of selectable features ({len(groups)}); got {k}"
        )

    y = ds.labels.astype(float)
    selected_cols: list[int] = []
    step_groups: list[tuple[int, ...]] = []
    step_names: list[str] = []
    step_dev: list[float] = []
    remaining = list(groups)

    for step in range(k):
        fits = fit_logistic_many(
            ds.rows, y, [selected_cols + list(cols) for _, cols in remaining],
            max_iter=60, tol=1e-8, on_divergence="clamp",
        )
        best = None  # (deviance, position, name, cols)
        failure = None  # (name, error) of the step's first unfittable candidate
        for pos, ((name, cols), fit) in enumerate(zip(remaining, fits)):
            if isinstance(fit, NumericError):
                failure = failure or (name, fit)
                continue
            dev = -2.0 * fit.log_likelihood
            if best is None or dev < best[0] - _TIE_EPS:
                best = (dev, pos, name, cols)
        if best is None:
            name, exc = failure
            raise StepFailure(
                f"step {step + 1}: solver failed for every candidate, "
                f"first {name!r}: {exc}",
                SelectionTrace(selected_cols, step_groups, step_names, step_dev),
            ) from exc
        dev, pos, name, cols = best
        del remaining[pos]
        selected_cols.extend(cols)
        step_groups.append(cols)
        step_names.append(name)
        step_dev.append(dev)

    return SelectionTrace(selected_cols, step_groups, step_names, step_dev)
