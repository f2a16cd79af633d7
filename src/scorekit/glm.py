"""Logistic regression solvers.

Two fitting routes: unregularized maximum likelihood via iteratively
reweighted least squares (:func:`fit_logistic`), and an L1-regularized
path (:func:`fit_lasso_path`) with cross-validated penalty selection
(:func:`cv_select`).  Each proximal-Newton step of the path solves its
small quadratic subproblem exactly on the active set, with a linear solve
checked for sign consistency and against the KKT conditions of the inactive
features.  Its gradient is exact and its weighted Gram rebuilt only once the
iterate has moved, so a settled point meets the KKT conditions without a
line search.  ``cv_select`` fits the full-data path and every fold's path as
one batch: each active-set round is one stacked solve for every problem
still moving, and a single path is the batch of one.  Dependent active
columns are solved by least squares; coordinate descent remains only for an
inconsistent system or an active set that keeps cycling.

The lasso standardizes features internally for penalization and reports
coefficients on the original scale; the intercept is never penalized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._math import expit, log_likelihood_bernoulli, logit
from .data import FoldAssignment, JsonRecord
from .errors import DataError, NumericError

# |linear predictor| beyond this means fitted probabilities within ~3e-7 of
# 0/1; an unconverged fit drifting past it is treated as (quasi-)complete
# separation.  Convergence is checked first, so a genuinely converged steep
# fit is never flagged.
DIVERGENCE_BOUND = 15.0

_MIN_WEIGHT = 1e-6


@dataclass(frozen=True)
class GlmFit(JsonRecord):
    """A fitted logistic model: intercept, slope coefficients, diagnostics."""

    intercept: float
    coefficients: np.ndarray
    converged: bool
    iterations: int
    log_likelihood: float

    def __post_init__(self):
        coefs = np.asarray(self.coefficients, dtype=float)
        coefs.flags.writeable = False
        object.__setattr__(self, "coefficients", coefs)
        if self.converged and not (
            np.isfinite(self.intercept)
            and np.all(np.isfinite(coefs))
            and np.isfinite(self.log_likelihood)
        ):
            raise NumericError("converged fit contains non-finite values")


def _check_xy(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DataError("X must be a 2-d matrix")
    if y.shape != (X.shape[0],):
        raise DataError("y length does not match X")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise DataError("non-finite entries in X or y")
    return X, y


def fit_logistic(
    X,
    y,
    max_iter: int = 100,
    tol: float = 1e-7,
    on_divergence: str = "error",
) -> GlmFit:
    """Maximum-likelihood logistic fit via IRLS with step-halving.

    The log-likelihood is non-decreasing across iterations.  If the fitted
    log-odds drift past ``DIVERGENCE_BOUND`` the data are (quasi-)completely
    separated and the MLE does not exist; by default this raises,
    ``on_divergence="clamp"`` instead returns the (unconverged) fit at the
    point the bound was hit, which is what forward selection uses to rank a
    perfectly separating candidate.  A column that does not vary (the rule
    of :func:`_varying`, shared with the lasso) gets coefficient 0.
    """
    if on_divergence not in ("error", "clamp"):
        raise ValueError("on_divergence must be 'error' or 'clamp'")
    X, y = _check_xy(X, y)
    n, p = X.shape
    # a constant column would copy the intercept and make the normal
    # equations singular
    live = _varying(X.mean(axis=0), X.std(axis=0))
    Xa = np.column_stack([np.ones(n), X[:, live]])
    beta = np.zeros(Xa.shape[1])
    eta = Xa @ beta
    ll = log_likelihood_bernoulli(eta, y)
    converged, iterations = False, max_iter

    for it in range(1, max_iter + 1):
        prob = expit(eta)
        w = np.maximum(prob * (1.0 - prob), _MIN_WEIGHT)
        z = eta + (y - prob) / w
        WX = Xa * w[:, None]
        try:
            new_beta = np.linalg.solve(Xa.T @ WX, WX.T @ z)
        except np.linalg.LinAlgError:
            raise NumericError(
                "singular weighted normal equations (exactly collinear columns?)"
            ) from None
        if not np.all(np.isfinite(new_beta)):
            raise NumericError("weighted least squares produced non-finite coefficients")

        # step-halving keeps the log-likelihood non-decreasing
        step = new_beta - beta
        factor = 1.0
        for _ in range(30):
            candidate = beta + factor * step
            cand_eta = Xa @ candidate
            cand_ll = log_likelihood_bernoulli(cand_eta, y)
            if cand_ll >= ll - 1e-12:
                break
            factor /= 2.0
        delta = float(np.max(np.abs(factor * step)))
        beta = candidate
        eta = cand_eta
        ll = cand_ll

        if delta < tol:
            converged, iterations = True, it
            break
        if np.max(np.abs(eta)) > DIVERGENCE_BOUND:
            if on_divergence == "error":
                raise NumericError(
                    "quasi-complete separation detected: coefficients diverging, "
                    f"fitted log-odds exceeded +-{DIVERGENCE_BOUND:g}; "
                    "the MLE does not exist for these data"
                )
            iterations = it
            break

    coefs = np.zeros(p)
    coefs[live] = beta[1:]
    return GlmFit(
        intercept=float(beta[0]),
        coefficients=coefs,
        converged=converged,
        iterations=iterations,
        log_likelihood=ll,
    )


# ---------------------------------------------------------------------------
# L1-regularized path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LassoPath(JsonRecord):
    """Coefficients along a decreasing penalty grid, original scale.

    The first grid point is the smallest penalty that zeroes every slope,
    so ``coefficients[0]`` is exactly zero.  ``converged[i]`` records whether
    the fit at penalty ``i`` converged within the solver's iteration caps.
    ``cv_mean`` / ``cv_se`` hold the per-penalty mean and standard error of
    validation deviance once :func:`cv_select` has run; ``selected_index``
    points at the winner.
    """

    lambda_grid: np.ndarray
    intercepts: np.ndarray
    coefficients: np.ndarray
    converged: np.ndarray
    cv_mean: np.ndarray | None = None
    cv_se: np.ndarray | None = None
    selected_index: int | None = None

    def __post_init__(self):
        grid = np.asarray(self.lambda_grid, dtype=float)
        if np.any(np.diff(grid) >= 0):
            raise NumericError("lambda grid must be strictly decreasing")
        for name in ("lambda_grid", "intercepts", "coefficients", "cv_mean", "cv_se"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)
        converged = np.asarray(self.converged, dtype=bool)
        converged.flags.writeable = False
        object.__setattr__(self, "converged", converged)

    @property
    def n_lambda(self) -> int:
        return len(self.lambda_grid)

    def _need_selected(self) -> int:
        if self.selected_index is None:
            raise NumericError("no penalty selected; run cv_select first")
        return self.selected_index

    def coefficients_at(self, index: int | None = None) -> tuple[float, np.ndarray]:
        i = self._need_selected() if index is None else index
        return float(self.intercepts[i]), self.coefficients[i]

    def predict_prob(self, X, index: int | None = None) -> np.ndarray:
        return expit(self.linear_score(X, index))

    def linear_score(self, X, index: int | None = None) -> np.ndarray:
        b0, coefs = self.coefficients_at(index)
        return linear_predictor(b0, coefs, X)


def _check_classes(y):
    if len(y) < 2:
        raise DataError("need at least two rows")
    ybar = y.mean()
    if ybar <= 0.0 or ybar >= 1.0:
        raise DataError("y contains a single class; cannot fit a lasso path")


def _default_grid(D, y, n_lambda, lambda_min_ratio):
    """The default penalty grid, log-spaced from lambda_max down to
    ``lambda_min_ratio`` times that.

    lambda_max, the smallest penalty whose solution has every slope at zero,
    comes from the null-model gradient on ``D``, the full data's standardized
    design from :func:`_design`.
    """
    lam_max = float(np.max(np.abs(D[1:] @ (y - y.mean()))) / len(y))
    if lam_max <= 0.0:
        lam_max = 1.0  # y independent of every column; any grid gives zeros
    return np.geomspace(lam_max, lam_max * lambda_min_ratio, n_lambda)


def _design(X, rows):
    """One problem's design ``[1, standardized X[rows]]``, transposed.

    Returns the C-contiguous ``(p+1) x n`` block, whose row 0 is the
    intercept's ones, with the column means and scales it was standardized
    by and the :func:`_varying` mask of columns that vary.  ``rows=None``
    takes every row.  The block is filled and standardized in place.
    """
    n = X.shape[0] if rows is None else len(rows)
    D = np.empty((X.shape[1] + 1, n))
    D[0] = 1.0
    Z = D[1:]
    Z[...] = (X if rows is None else X[rows]).T
    mean = Z.mean(axis=1)
    Z -= mean[:, None]
    sd = np.sqrt(np.einsum("ij,ij->i", Z, Z) / n)
    keep = _varying(mean, sd)
    sd_safe = np.where(keep, sd, 1.0)
    Z /= sd_safe[:, None]
    return D, mean, sd_safe, keep


def _varying(mean, sd):
    """The columns that vary: sd > 1e-12 * max(|mean|, 1), since a float
    constant such as 0.1 gets an sd near 1e-17, not 0."""
    return sd > 1e-12 * np.maximum(np.abs(mean), 1.0)


def _soft(v: float, t: float) -> float:
    if v > t:
        return v - t
    if v < -t:
        return v + t
    return 0.0


# an active-set solve whose active coordinates miss their equations by more
# than this is (numerically) singular: it is re-solved by least squares, and
# one that still misses is inconsistent
_RESIDUAL_FLOOR = 1e-10

# a problem's weighted Gram is rebuilt once its standardized iterate has
# moved more than this (max norm) from the point the Gram was built at
_GRAM_REUSE = 0.01

# sweeps a coordinate-descent fallback takes before it reports non-convergence
_MAX_SWEEPS = 10000


def _coordinate_descent(G, h, aug, lam, keep, tol, max_sweeps) -> bool:
    """Cyclic coordinate descent on the Gram-space subproblem, in place.

    ``aug`` is ``[b0, beta...]`` and is updated in place.  Each coordinate
    update is O(p), so sweeps cost O(p^2) regardless of the sample count;
    coordinate 0 (the intercept) is unpenalized.  Full sweeps discover the
    active set, then cheap sweeps over nonzeros run until stable.  Returns
    whether a full sweep moved no coordinate by ``tol`` or more within
    ``max_sweeps`` sweeps.
    """
    p = len(aug) - 1
    q = G @ aug

    def update(j: int, penalty: float) -> float:
        nonlocal q
        gjj = G[j, j]
        if gjj <= 0.0:
            return 0.0
        num = h[j] - q[j] + gjj * aug[j]
        new = _soft(num, penalty) / gjj
        d = new - aug[j]
        if d != 0.0:
            aug[j] = new
            q += G[:, j] * d
        return abs(d)

    def sweep(indices) -> float:
        max_delta = update(0, 0.0)
        for j in indices:
            if keep[j]:
                max_delta = max(max_delta, update(j + 1, lam))
        return max_delta

    all_idx = np.arange(p)
    for _ in range(max_sweeps):
        if sweep(all_idx) < tol:
            return True
        active = np.flatnonzero(aug[1:])
        for _ in range(max_sweeps):
            if sweep(active) < tol:
                break
    return False


def _active_set_solve(G, h, aug, lam, penalized, tol, max_sweeps) -> np.ndarray:
    """Exact active-set solves of a batch of weighted quadratic surrogates.

    Problem k minimizes  b' G[k] b / 2 - h[k]' b + lam * ||beta||_1  over
    ``b = [b0, beta...]``, where ``G[k]`` is a weighted Gram ``Xa' W Xa / n``
    of its augmented design [1, Xs]; ``penalized[k]`` marks the coordinates
    of ``aug[k]`` that carry the penalty (never the intercept).  Starting
    from S = {intercept} and the nonzeros of the warm start ``aug[k]`` with
    their signs s, it solves
    ``G[S,S] b = h[S] - lam * s[S]`` exactly, drops from S every coefficient
    whose sign disagrees with s, and adds every inactive feature whose
    gradient ``h - G b`` exceeds ``lam`` in magnitude, with that gradient's
    sign, until no feature violates the optimality conditions (the
    active-set cycling of glmnet and the sign-consistency test of the lasso
    homotopy).

    Each round is one stacked solve for the whole batch: an inactive
    coordinate is an identity row and column with a zero right-hand side, so
    it solves to exactly zero, and each problem follows the iterates it
    would follow alone.  The round's gradient checks the solve: a problem
    whose active residual ``grad[S] - lam * s[S]`` exceeds
    ``_RESIDUAL_FLOOR`` (dependent active columns), or any problem when the
    stacked solve meets an exactly singular system, is re-solved alone by
    minimum-norm least squares.  Any solution of a consistent system
    minimizes the subproblem on its sign pattern (Osborne, Presnell &
    Turlach 2000; Tibshirani 2013), so the sign and entering checks go on.
    An inconsistent system, or more than 2p+2 rounds, falls back, alone, to
    :func:`_coordinate_descent` from the warm start.  ``aug`` is updated in
    place.  Returns whether each solve converged (always, unless a fallback
    ran out of ``max_sweeps``).
    """
    B, q = aug.shape
    warm = aug.copy()
    active = penalized & (warm != 0.0)
    sign = np.sign(warm) * active
    active[:, 0] = True
    eye = np.eye(q)
    cycling = np.ones(B, dtype=bool)
    fallback = np.zeros(B, dtype=bool)
    for _ in range(2 * q):
        # a problem that has finished or fallen back rides along as an
        # identity system, so that one factorization serves the whole batch
        M = np.where(active[:, :, None] & active[:, None, :], G, eye)
        M[~cycling] = eye
        rhs = np.where(active, h - lam * sign, 0.0)
        try:
            b = np.where(active, np.linalg.solve(M, rhs[:, :, None])[:, :, 0], 0.0)
        except np.linalg.LinAlgError:  # an exactly singular system sinks the stack
            b = np.full((B, q), np.nan)
        grad = h - (G @ b[:, :, None])[:, :, 0]
        miss = np.where(active, np.abs(grad - lam * sign), 0.0).max(axis=1)
        singular = cycling & ~(miss <= _RESIDUAL_FLOOR)  # NaN misses too
        for k in np.flatnonzero(singular):
            S = active[k]
            b[k] = 0.0
            b[k, S] = np.linalg.lstsq(G[k][np.ix_(S, S)], rhs[k, S])[0]
            grad[k] = h[k] - G[k] @ b[k]
            fallback[k] = not np.abs(grad[k, S] - lam * sign[k, S]).max() <= _RESIDUAL_FLOOR
        cycling &= ~fallback
        flipped = b * sign < 0.0
        enter = (np.abs(grad) > lam) & penalized & ~active & ~flipped.any(axis=1, keepdims=True)
        done = cycling & ~(flipped | enter).any(axis=1)
        aug[done] = b[done]
        cycling &= ~done
        if not cycling.any():
            break
        active = (active & ~flipped) | enter
        sign = np.where(enter, np.sign(grad), sign * ~flipped)
    fallback |= cycling
    converged = np.ones(B, dtype=bool)
    for k in np.flatnonzero(fallback):
        converged[k] = _coordinate_descent(
            G[k], h[k], warm[k], lam, penalized[k, 1:], tol, max_sweeps
        )
        aug[k] = warm[k]
    return converged


def _fit_paths(
    X, y, row_sets, lambda_grid=None, n_lambda=100, lambda_min_ratio=1e-4, tol=1e-7, max_outer=50
):
    """Lasso paths of several row subsets of ``(X, y)`` over one grid, as one batch.

    Problem k fits the rows ``row_sets[k]`` (``None`` for every row) on its
    own standardized design.  Without ``lambda_grid`` the grid is
    :func:`_default_grid` of problem 0, which must take every row, and
    problem 0 takes grid point 0 as the exact all-zero solution: at its
    lambda_max float noise would otherwise leak through.  Each outer step of
    the problems still moving is one :func:`_active_set_solve`.  A model
    takes the exact gradient ``D(y - p)/n``, so where a step vanishes the
    lasso's KKT conditions hold whatever Gram it carries; the Gram
    ``D W D'/n`` is rebuilt only once the iterate has moved more than
    ``_GRAM_REUSE`` (max norm, standardized scale) from where it was built
    (lazy Hessians, Doikov, Chayti & Jaggi 2023), which saves most O(n q^2)
    products for a few more O(n q) steps.  No line search is taken: a
    problem leaves once its step is below ``tol``, and after ``max_outer``
    steps the rest are recorded as unconverged.  Returns one
    :class:`LassoPath` per problem.
    """
    q, B = X.shape[1] + 1, len(row_sets)
    designs, ys, means, scales = [], [], [], []
    penalized = np.zeros((B, q), dtype=bool)
    aug = np.zeros((B, q))
    for k, rows in enumerate(row_sets):
        D, mean, sd, penalized[k, 1:] = _design(X, rows)
        designs.append(D)
        ys.append(y if rows is None else y[rows])
        means.append(mean)
        scales.append(sd)
        aug[k, 0] = logit(ys[k].mean())
    default = lambda_grid is None
    grid = _default_grid(designs[0], y, n_lambda, lambda_min_ratio) if default else lambda_grid
    sizes = np.array([len(yk) for yk in ys])
    solutions = np.empty((B, len(grid), q))
    converged = np.ones((B, len(grid)), dtype=bool)
    everyone = np.arange(B)
    grams = np.empty((B, q, q))
    anchors = np.full((B, q), np.inf)  # the iterate each Gram was built at

    for i, lam in enumerate(grid):
        live = everyone[1:] if default and i == 0 else everyone
        for _ in range(max_outer):
            if not live.size:
                break
            # the elementwise pieces of every live problem in one pass
            ends = np.cumsum(sizes[live])
            prob = expit(np.concatenate([aug[k] @ designs[k] for k in live]))
            w = np.maximum(prob * (1.0 - prob), _MIN_WEIGHT)
            resid = np.concatenate([ys[k] for k in live]) - prob
            stale = np.max(np.abs(aug[live] - anchors[live]), axis=1) > _GRAM_REUSE
            score = np.empty((len(live), q))  # D(y - p) of each live problem
            for j, k in enumerate(live):
                rows = slice(ends[j] - sizes[k], ends[j])
                if stale[j]:
                    grams[k] = (designs[k] * w[rows]) @ designs[k].T / sizes[k]
                    anchors[k] = aug[k]
                score[j] = designs[k] @ resid[rows]
            G, step = grams[live], aug[live]
            h = (G @ step[:, :, None])[:, :, 0] + score / sizes[live, None]
            solved = _active_set_solve(G, h, step, lam, penalized[live], tol, _MAX_SWEEPS)
            settled = np.max(np.abs(step - aug[live]), axis=1) < tol
            aug[live] = step
            converged[live[settled], i] = solved[settled]
            live = live[~settled]
        else:
            converged[live, i] = False
        solutions[:, i] = aug

    paths = []
    for k in range(B):
        coefs = solutions[k, :, 1:] / scales[k]
        paths.append(
            LassoPath(
                lambda_grid=grid,
                intercepts=solutions[k, :, 0] - coefs @ means[k],
                coefficients=coefs,
                converged=converged[k],
            )
        )
    return paths


def fit_lasso_path(
    X,
    y,
    n_lambda: int = 100,
    lambda_min_ratio: float = 1e-4,
    tol: float = 1e-7,
    max_outer: int = 50,
    lambda_grid=None,
) -> LassoPath:
    """L1-penalized logistic path by proximal Newton with exact subproblem solves.

    The grid is log-spaced from the smallest penalty with an all-zero
    solution (computed from the null-model gradient) down to
    ``lambda_min_ratio`` times that; solutions are warm-started along the
    path.  Passing ``lambda_grid`` overrides the grid.  The fit is the
    one-problem case of the batched solve :func:`cv_select` runs.
    """
    X, y = _check_xy(X, y)
    _check_classes(y)
    grid = None if lambda_grid is None else np.asarray(lambda_grid, dtype=float)
    return _fit_paths(X, y, [None], grid, n_lambda, lambda_min_ratio, tol, max_outer)[0]


def kkt_violation(path: LassoPath, X, y, index: int) -> tuple[float, float]:
    """Max KKT residuals at one grid point: (inactive excess, active residual).

    For zero coefficients the penalized gradient must satisfy |g_j| <= lam;
    for nonzero coefficients g_j + lam * sign(beta_j) must vanish.  Gradients
    are evaluated on the internal standardized scale where the penalty
    applies.
    """
    X, y = _check_xy(X, y)
    D, mean, sd, keep = _design(X, None)
    lam = float(path.lambda_grid[index])
    b0, coefs = path.coefficients_at(index)
    beta_std = coefs * sd
    eta = b0 + X @ coefs
    grad = D[1:] @ (expit(eta) - y) / len(y)
    zero = (beta_std == 0.0) & keep
    active = (beta_std != 0.0) & keep
    inactive_excess = float(np.max(np.abs(grad[zero]) - lam)) if zero.any() else 0.0
    active_resid = (
        float(np.max(np.abs(grad[active] + lam * np.sign(beta_std[active]))))
        if active.any()
        else 0.0
    )
    return inactive_excess, active_resid


def validation_deviance(intercept: float, coefs, X, y) -> float:
    """Mean per-observation binomial deviance of a fitted model on (X, y)."""
    X, y = _check_xy(X, y)
    eta = intercept + X @ coefs
    return -2.0 * log_likelihood_bernoulli(eta, y) / len(y)


def cv_select(
    X,
    y,
    folds: FoldAssignment,
    n_lambda: int = 100,
    lambda_min_ratio: float = 1e-4,
) -> LassoPath:
    """Cross-validate the penalty grid and select the deviance minimizer.

    The grid comes from the full data; the full-data path and each fold's
    path on its training portion are fitted over it as one batch, and each
    fold scores mean validation deviance at every penalty.  The selected
    penalty is the argmin of mean validation deviance, ties breaking toward
    the larger penalty.  Raises ``NumericError`` when the selected penalty
    did not converge in the full-data fit or in any fold.
    """
    X, y = _check_xy(X, y)
    if folds.n != X.shape[0]:
        raise DataError("fold assignment does not cover X's rows")
    _check_classes(y)
    train = [folds.train_indices(f) for f in range(folds.fold_count)]
    for f, tr in enumerate(train):
        for part, where in ((y[tr], "training"), (y[folds.test_indices(f)], "validation")):
            if len(np.unique(part)) < 2:
                raise NumericError(
                    f"fold {f} has a single-class {where} split; "
                    "use stratified folds (kfold with labels)"
                )
    full, *subs = _fit_paths(X, y, [None, *train], None, n_lambda, lambda_min_ratio)
    per_fold = np.empty((folds.fold_count, full.n_lambda))
    for f, sub in enumerate(subs):
        va = folds.test_indices(f)
        eta = sub.intercepts[:, None] + sub.coefficients @ X[va].T
        per_fold[f] = -2.0 * np.sum(y[va] * eta - np.logaddexp(0.0, eta), axis=1) / len(va)
    cv_mean = per_fold.mean(axis=0)
    cv_se = per_fold.std(axis=0, ddof=1) / np.sqrt(folds.fold_count)
    selected = int(np.argmin(cv_mean))  # first minimum = largest penalty on ties
    for k, path in enumerate([full, *subs]):
        if not path.converged[selected]:
            where = "the full-data fit" if k == 0 else f"fold {k - 1}"
            raise NumericError(
                f"lasso did not converge at the selected penalty "
                f"(lambda index {selected}) in {where}"
            )
    return replace(full, cv_mean=cv_mean, cv_se=cv_se, selected_index=selected)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def linear_predictor(intercept: float, coefs, X) -> np.ndarray | float:
    """``intercept + x . coefs`` for one row or each row of a matrix.

    Each row is summed by the same loop wherever it sits, so identical rows
    get bit-identical scores and rank as ties.  ``X @ coefs`` does not
    promise that: BLAS gemv may round a row differently depending on its
    position in the matrix, which splits a tie by one ulp and moves the AUC.
    """
    X = np.asarray(X, dtype=float)
    return intercept + np.einsum("...j,j->...", X, np.asarray(coefs, dtype=float))


def linear_score(fit: GlmFit, x) -> np.ndarray | float:
    """Linear predictor (logit scale) for one row or a matrix of rows."""
    x = np.asarray(x, dtype=float)
    p = len(fit.coefficients)
    if x.shape[-1] != p:
        raise DataError(f"feature vector has length {x.shape[-1]}, model expects {p}")
    out = linear_predictor(fit.intercept, fit.coefficients, x)
    return float(out) if np.ndim(out) == 0 else out


def predict_prob(fit: GlmFit, x) -> np.ndarray | float:
    """Fitted probability logit^{-1}(intercept + coef . x)."""
    return expit(linear_score(fit, x))
