"""Logistic regression solvers: one batched proximal-Newton engine.

:func:`_fit_paths` fits the L1-penalized logistic paths of many (row set,
column set) problems as one batch.  The lasso path (:func:`fit_lasso_path`),
cross-validated penalty selection (:func:`cv_select_many`, whose one-set case
is :func:`cv_select`) and unpenalized maximum likelihood
(:func:`fit_logistic_many`, whose batch of one is :func:`fit_logistic`) are
all its problems, the last on the penalty grid [0], where proximal Newton is
Newton.  Each step solves its quadratic subproblem exactly: at a positive
penalty by feature-sign descent (linear solves on the active set, steps that
stop where a coefficient crosses zero, and moves along a null direction
where active columns are dependent), at penalty 0 by one stacked linear
solve.  Its gradient is exact and its weighted Gram rebuilt only once the
iterate has moved, so a settled point meets the KKT conditions without a
line search.  One rank rule (:func:`_nonzero`) decides every singular
system, in the rank test and in the stacked LU's minimum-norm fallback.

Features are standardized internally and coefficients reported on the
original scale; the intercept is never penalized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._math import expit, log_likelihood_bernoulli, logit
from .data import FoldAssignment, JsonRecord, _freeze, check_sd
from .errors import DataError, NumericError

# |linear predictor| beyond this means fitted probabilities within ~3e-7 of
# 0/1; an unpenalized fit still moving past it is treated as
# (quasi-)complete separation.  Convergence is checked first, so a fit that
# has converged is never flagged, but the rule sees only |eta|: a steep fit
# whose MLE exists can pass the bound on its way there and be flagged too.
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
        coefs = _freeze(np.asarray(self.coefficients, dtype=float))
        object.__setattr__(self, "coefficients", coefs)
        if self.converged and not (
            np.isfinite(self.intercept)
            and np.all(np.isfinite(coefs))
            and np.isfinite(self.log_likelihood)
        ):
            raise NumericError("converged fit contains non-finite values")


def _check_xy(X, y):
    """``X``, ``y`` as floats and the full-row :func:`_design` of ``X``, refused
    unless ``X`` is a finite matrix with rows and ``y`` is one 0/1 label per row."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("X must be a 2-d matrix with at least one row")
    if y.shape != (X.shape[0],):
        raise DataError("y length does not match X")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise DataError("non-finite entries in X or y")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("y must contain only 0 or 1")
    return X, y, _design(X, None)


def _fitted(result):
    """One result of a ``*_many`` batch, raising the error it holds."""
    if isinstance(result, Exception):
        raise result
    return result


def fit_logistic(
    X, y, max_iter: int = 100, tol: float = 1e-7, on_divergence: str = "error"
) -> GlmFit:
    """Maximum-likelihood logistic fit by Newton's method: the lasso path at
    the one penalty 0, as the batch of one of :func:`fit_logistic_many`.

    From every coefficient at 0 it takes full Newton steps, with no
    step-halving, until no coefficient moves by ``tol`` on the standardized
    scale, within ``max_iter`` steps.  A design whose first weighted Gram is
    rank-deficient by the rank rule (:func:`_nonzero`) raises.  A fit still
    moving once its fitted log-odds pass ``DIVERGENCE_BOUND`` is taken for
    (quasi-)complete separation, where the MLE does not exist; the rule reads
    only the log-odds, so a steep fit whose MLE exists can be stopped too.
    By default this raises, and ``on_divergence="clamp"`` returns that
    iterate, unconverged, which is how forward selection ranks a perfectly
    separating candidate.  A column that does not vary (the rule of
    :func:`_design`, shared with the lasso) gets coefficient 0.
    """
    return _fitted(fit_logistic_many(X, y, [None], max_iter, tol, on_divergence)[0])


def fit_logistic_many(
    X, y, column_sets, max_iter: int = 100, tol: float = 1e-7, on_divergence: str = "error"
) -> list:
    """:func:`fit_logistic` of ``y`` on each column subset of ``X``, as one batch.

    Fit s regresses ``y`` on the columns ``column_sets[s]`` of ``X``
    (``None`` for every column), which are its coefficients' order.  The
    fits are the problems of one :func:`_fit_paths` call on the grid [0],
    each on its columns that vary in the full-row :func:`_design` of ``X``,
    so each outer step of the fits still moving is one stacked Newton
    solve.  Each keeps the rules of :func:`fit_logistic`: it starts at 0,
    takes full steps, stops below ``tol`` on the standardized scale, and is
    unfittable when its design is rank-deficient or, with
    ``on_divergence="error"``, once it diverges.  Returns, per set, its
    :class:`GlmFit` or the :class:`NumericError` its fit met.
    """
    if on_divergence not in ("error", "clamp"):
        raise ValueError("on_divergence must be 'error' or 'clamp'")
    X, y, full = _check_xy(X, y)
    p = X.shape[1]
    live = full[3]  # a constant column would copy the intercept; it stays out, at 0
    sets = [np.arange(p) if cols is None else np.asarray(cols, dtype=int) for cols in column_sets]
    if not sets:
        return []
    fitted = [cols[live[cols]] for cols in sets]
    paths, stops = _fit_paths([full], [y], fitted, [0.0], tol=tol, max_outer=max_iter)
    errors = {"singular": "singular weighted normal equations (exactly collinear columns?)"}
    if on_divergence == "error":
        errors["diverged"] = (
            f"fitted log-odds passed +-{DIVERGENCE_BOUND:g} while the fit was still moving; "
            "(quasi-)complete separation suspected"
        )
    b0 = np.array([path.intercepts[0] for (path,) in paths])
    coefs = np.zeros((len(sets), p))  # each fit's coefficients on every column
    for s, (varying, (path,)) in enumerate(zip(fitted, paths)):
        coefs[s, varying] = path.coefficients[0]
    ll = log_likelihood_bernoulli(b0[:, None] + coefs @ X.T, y)
    return [
        NumericError(errors[stop]) if stop in errors
        else GlmFit(float(b0[s]), coefs[s, cols], bool(path.converged[0]), steps, float(ll[s]))
        for s, (cols, (path,), ((steps, stop),)) in enumerate(zip(sets, paths, stops))
    ]


# ---------------------------------------------------------------------------
# Penalized paths: the engine
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
                arr = _freeze(np.asarray(arr, dtype=float))
                object.__setattr__(self, name, arr)
        converged = _freeze(np.asarray(self.converged, dtype=bool))
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
    by and the mask of columns that vary, the only column statistics a fit
    computes (forward selection offers candidates by the same mask); an sd
    that overflows raises the :func:`~scorekit.data.check_sd` ``DataError``,
    naming column ``x{j}``.
    ``rows=None`` takes every row.  The block is filled and standardized in place.
    """
    n = X.shape[0] if rows is None else len(rows)
    D = np.empty((X.shape[1] + 1, n))
    D[0] = 1.0
    Z = D[1:]
    Z[...] = (X if rows is None else X[rows]).T
    with np.errstate(over="ignore", invalid="ignore"):
        mean = Z.mean(axis=1)
        Z -= mean[:, None]
        sd = np.sqrt(np.einsum("ij,ij->i", Z, Z) / n)
    check_sd(sd, [f"x{j}" for j in range(len(sd))])
    # the columns that vary: sd > 1e-12 * max(|mean|, 1), since a float
    # constant such as 0.1 gets an sd near 1e-17, not 0
    keep = sd > 1e-12 * np.maximum(np.abs(mean), 1.0)
    sd_safe = np.where(keep, sd, 1.0)
    Z /= sd_safe[:, None]
    return D, mean, sd_safe, keep


# the rank rule (_nonzero): an eigenvalue of a Gram block at most this times
# the block's largest counts as zero.  An active-set solve whose active
# coordinates miss their equations by more than this is re-solved by that
# rule, and one that still misses is inconsistent.  An inactive feature enters
# only when its gradient exceeds lam by more than this: a copy of an active
# column exceeds it by rounding alone, and admitting it would swap the two
# copies back and forth at no gain.
_RESIDUAL_FLOOR = 1e-10

# a problem's weighted Gram is rebuilt once its standardized iterate has
# moved more than this (max norm) from the point the Gram was built at
_GRAM_REUSE = 0.01

# active-set rounds per coordinate before a subproblem solve stops and
# reports non-convergence
_ROUND_CAP = 2


def _step(aug, d, cross, reach):
    """Each row's move from ``aug`` along ``d``: as far as ``reach`` or to the
    first zero crossing of a coordinate marked in ``cross``, whichever comes
    first.  Returns the step lengths and the moved rows, with every coordinate
    that crossed at exactly zero."""
    at = np.divide(aug, -d, out=np.full(d.shape, np.inf), where=cross)
    t = np.minimum(at.min(axis=1), reach)
    finite = np.where(t < np.inf, t, 0.0)
    return t, np.where(at <= t[:, None], 0.0, aug + finite[:, None] * d)


def _active_set_solve(G, h, aug, lam, penalized) -> np.ndarray:
    """Feature-sign descent on a batch of weighted quadratic surrogates.

    Problem k minimizes  b' G[k] b / 2 - h[k]' b + lam[k] * ||beta||_1  over
    ``b = [b0, beta...]``, where ``G[k]`` is a weighted Gram ``Xa' W Xa / n``
    of its augmented design [1, Xs], and ``lam`` holds one penalty per
    problem; ``penalized[k]`` marks the coordinates
    of ``aug[k]`` that carry the penalty (never the intercept).  The iterate
    starts at the warm start ``aug[k]``, with S = {intercept} and its nonzeros
    and their signs s.  Each round solves ``G[S,S] b = h[S] - lam * s[S]``,
    the minimizer of the objective on that sign pattern, and moves toward it
    (feature-sign search, Lee, Battle, Raina & Ng 2007):

    - no active coefficient changes sign: the iterate becomes ``b``, and every
      inactive feature whose gradient ``h - G b`` exceeds ``lam`` in magnitude
      (by more than ``_RESIDUAL_FLOOR``) enters S at zero with that
      gradient's sign; with none, the problem is solved;
    - a sign changes: the iterate steps toward ``b`` and stops at the first
      zero crossing, whose coordinate leaves S;
    - the system is inconsistent (dependent active columns): the iterate moves
      along its least-squares residual, which lies in the null space of
      ``G[S,S]``, where the objective falls linearly, until a coefficient
      reaches zero and leaves S (Osborne, Presnell & Turlach 2000);
    - the step has zero length, because an entering feature solved to the
      wrong sign: those features leave S.  When every entering feature did,
      only the most violating one stays; one that stalls alone
      depends on S and displaces an active coefficient along the null vector
      ``s_j [e_j - G[S,S]^+ G[S,j]]``.

    Every move strictly lowers the objective and sign patterns are finite, so
    a problem cannot cycle.  Each round is one stacked :func:`_solve` per
    width among the problems still cycling, a problem's width reaching its
    last penalized coordinate: an inactive coordinate is an identity row and
    column with a zero right-hand side, so it solves to exactly zero, and
    each problem follows the iterates it would follow alone.  There only a
    system whose LU is exactly singular takes :func:`_min_norm`, and the
    round's gradient checks every solve: the problems whose active residual
    ``grad[S] - lam * s[S]`` exceeds ``_RESIDUAL_FLOOR`` are re-solved by
    :func:`_min_norm` in one batch.
    Any solution of a consistent system minimizes the objective on its sign
    pattern (Tibshirani 2013), so it is a target like ``b``.  ``aug`` is
    updated in place.  Returns whether each problem was solved within
    ``_ROUND_CAP`` rounds per coordinate.
    """
    B, q = aug.shape
    lam = np.reshape(lam, (-1, 1))
    reach = q - penalized[:, ::-1].argmax(axis=1)  # past each problem's last penalized coordinate
    active = penalized & (aug != 0.0)
    sign = np.sign(aug) * active
    active[:, 0] = True
    cycling = np.ones(B, dtype=bool)
    for _ in range(_ROUND_CAP * q):
        rhs = np.where(active, h - lam * sign, 0.0)
        b = np.zeros((B, q))
        for w in np.unique(reach[cycling]):
            c = cycling & (reach == w)
            b[c, :w] = _solve(G[c, :w, :w], rhs[c, :w], active[c, :w])
        grad = h - (G @ b[:, :, None])[:, :, 0]
        miss = np.where(active, np.abs(grad - lam * sign), 0.0).max(axis=1)
        redo = cycling & ~(miss <= _RESIDUAL_FLOOR)
        ray = np.zeros(B, dtype=bool)  # inconsistent: b holds the residual to move along
        if redo.any():
            b[redo] = _min_norm(G[redo], rhs[redo], active[redo])
            grad[redo] = h[redo] - (G[redo] @ b[redo, :, None])[:, :, 0]
            resid = np.where(active, grad - lam * sign, 0.0)
            ray = redo & ~(np.abs(resid).max(axis=1) <= _RESIDUAL_FLOOR)
            b[ray] = resid[ray]
        cross = sign * b < 0.0
        flat = cycling & ~ray & ~cross.any(axis=1)
        aug[flat] = b[flat]
        enter = (np.abs(grad) > lam + _RESIDUAL_FLOOR) & penalized & ~active & flat[:, None]
        cycling &= ~(flat & ~enter.any(axis=1))
        moving = cycling & ~flat
        if moving.any():
            d = np.where(ray[:, None], b, b - aug)
            t, moved = _step(aug, d, cross, np.where(ray, np.inf, 1.0))
            fresh = active & penalized & (aug == 0.0)  # entered at zero, not yet moved
            # a step of zero length drops the wrong-signed entering features;
            # with none right, the most violating one alone stays
            stalled = moving & (t == 0.0)
            wrong = cross & fresh & stalled[:, None]
            lone = stalled & ~(fresh & ~wrong).any(axis=1)
            if lone.any():
                pull = np.where(fresh, np.abs(h - (G @ aug[:, :, None])[:, :, 0]), -1.0)
                best = np.arange(q) == pull.argmax(axis=1)[:, None]
                wrong[lone] = fresh[lone] & ~best[lone]
                alone = lone & (fresh.sum(axis=1) == 1)
                k = np.flatnonzero(alone)  # each depends on S: displace along its null vector
                j = fresh[k].argmax(axis=1)
                d[k] = fresh[k] - _min_norm(G[k], G[k, :, j], active[k] & ~fresh[k])
                d[k] *= sign[k, j, None]
                t[alone], moved[alone] = _step(aug[alone], d[alone], sign[alone] * d[alone] < 0.0, np.inf)
            step = moving & (0.0 < t) & (t < np.inf)
            aug[step] = moved[step]
            drop = wrong | (step[:, None] & penalized & active & (sign * aug <= 0.0))
            active &= ~drop
            sign *= ~drop
        active |= enter
        sign = np.where(enter, np.sign(grad), sign)
        if not cycling.any():
            break
    return ~cycling


def _fit_paths(
    standardized, row_ys, column_sets, lambda_grid=None, n_lambda=100,
    lambda_min_ratio=1e-4, tol=1e-7, max_outer=50,
):
    """Lasso paths of every (row set, column set) pair, as one batch.

    ``standardized[r]`` is the :func:`_design` of one row set of X, the
    first taking every row, and ``row_ys[r]`` holds its labels.  Problem
    (s, r) fits design r on the columns ``column_sets[s]`` (``None`` for
    every column).  :func:`_design` works column by column, and each problem
    gathers its columns from its row set's design, so its design is the one
    it would standardize alone.  Problems of different widths share the
    batch: a narrower problem's trailing coordinates are unpenalized columns
    of zeros, which never enter its active set.  Without ``lambda_grid``
    each column set's grid is :func:`_default_grid` of its head problem
    (s, 0), and each head problem takes grid point 0 as the exact all-zero
    solution: at its lambda_max float noise would otherwise leak through.
    Each outer step of the problems still moving is one
    :func:`_active_set_solve`, each problem at its own grid's penalty; it
    stacks the problems by width and sends only an exactly singular system
    to the fallback, so no problem's steps depend on the rest of the batch.
    A model takes the exact gradient
    ``D(y - p)/n``, so where a step vanishes the lasso's KKT conditions hold
    whatever Gram it carries; the Gram ``D W D'/n`` is rebuilt only once the
    iterate has moved more than ``_GRAM_REUSE`` (max norm, standardized
    scale) from where it was built (lazy Hessians, Doikov, Chayti & Jaggi
    2023), which saves most O(n q^2) products for a few more O(n q) steps.
    No line search is taken: a problem leaves once its step is below
    ``tol``, and after ``max_outer`` steps the rest are recorded as
    unconverged.

    At a grid point of penalty 0 (a 0 in ``lambda_grid``; default grids are
    positive) proximal Newton is Newton (Lee, Sun & Saunders 2014): every
    varying column is active, so each outer step is one stacked
    :func:`_solve` for every problem still moving.  A path whose
    first penalty is 0 starts at 0, not at the intercept-only fit.  Two rules
    end such a problem early, unconverged, where the maximum-likelihood fit
    does not exist: it is ``"singular"`` when the Gram of its first step
    there is not :func:`_full_rank` (a rank-deficient design), and it has
    ``"diverged"`` once it is still moving with ``max |eta|`` past
    ``DIVERGENCE_BOUND`` (suspected (quasi-)separation, Albert & Anderson
    1984; a steep fit whose MLE exists can pass the bound too).

    Returns ``paths[s][r]``, the :class:`LassoPath` of problem (s, r), and
    ``stops[s][r]``, its outer steps in all and ``"singular"``,
    ``"diverged"`` or ``None``.
    """
    sets = [None if cols is None else np.asarray(cols, dtype=int) for cols in column_sets]
    problems = [(s, r) for s in range(len(sets)) for r in range(len(standardized))]
    B = len(problems)
    q = max(len(standardized[0][0]) if cols is None else 1 + len(cols) for cols in sets)
    designs, means, scales = [], [], []
    penalized = np.zeros((B, q), dtype=bool)
    for k, (s, r) in enumerate(problems):
        D, mean, sd, keep = standardized[r]
        if sets[s] is not None:
            cols = sets[s]
            D, mean, sd, keep = D[np.concatenate([[0], cols + 1])], mean[cols], sd[cols], keep[cols]
        designs.append(D)
        means.append(mean)
        scales.append(sd)
        penalized[k, 1 : len(D)] = keep
    ys = [row_ys[r] for _, r in problems]
    default = lambda_grid is None
    heads = np.array([r == 0 for _, r in problems])
    grids = np.array([
        _default_grid(designs[k], ys[k], n_lambda, lambda_min_ratio) if default else lambda_grid
        for k in np.flatnonzero(heads)
    ])
    lams = grids[[s for s, _ in problems]]  # each problem's grid
    n_grid = grids.shape[1]
    aug = np.zeros((B, q))
    aug[:, 0] = [logit(yk.mean()) if lam else 0.0 for yk, lam in zip(ys, lams[:, 0])]
    sizes = np.array([len(yk) for yk in ys])
    widths = np.array([len(D) for D in designs])
    solutions = np.empty((B, n_grid, q))
    converged = np.zeros((B, n_grid), dtype=bool)
    converged[:, 0] = default & heads
    everyone = np.arange(B)
    grams = np.zeros((B, q, q))
    anchors = np.full((B, q), np.inf)  # the iterate each Gram was built at
    steps, stops = np.zeros(B, dtype=int), np.full(B, None)
    kept = penalized.copy()  # each problem's coordinates: its intercept and penalized ones
    kept[:, 0] = True

    for i in range(n_grid):
        live = everyone[~heads] if default and i == 0 else everyone
        newton = not lams[:, i].any()  # nothing penalized: Newton steps
        for taken in range(max_outer + 1):
            if not live.size:
                break
            # the elementwise pieces of every live problem in one pass
            starts = np.cumsum(sizes[live]) - sizes[live]
            eta = np.concatenate([aug[k, : widths[k]] @ designs[k] for k in live])
            if newton and taken:  # a problem still moving past the bound diverges
                far = np.maximum.reduceat(np.abs(eta), starts) > DIVERGENCE_BOUND
                stops[live[far]] = "diverged"
                eta, live = eta[np.repeat(~far, sizes[live])], live[~far]
                starts = np.cumsum(sizes[live]) - sizes[live]
            if taken == max_outer or not live.size:
                break
            prob = expit(eta)
            w = np.maximum(prob * (1.0 - prob), _MIN_WEIGHT)
            resid = np.concatenate([ys[k] for k in live]) - prob
            stale = np.max(np.abs(aug[live] - anchors[live]), axis=1) > _GRAM_REUSE
            anchors[live[stale]] = aug[live[stale]]
            score = np.zeros((len(live), q))  # D(y - p) of each live problem
            for j, (k, start, rebuild) in enumerate(zip(live.tolist(), starts.tolist(), stale)):
                D, rows = designs[k], slice(start, start + len(ys[k]))
                if rebuild:
                    grams[k, : len(D), : len(D)] = (D * w[rows]) @ D.T / sizes[k]
                score[j, : len(D)] = D @ resid[rows]
            if newton and not taken:
                fits = _full_rank(grams[live], kept[live])
                stops[live[~fits]] = "singular"
                live, score = live[fits], score[fits]
                if not live.size:
                    break
            G, step = grams[live], aug[live]
            h = (G @ step[:, :, None])[:, :, 0] + score / sizes[live, None]
            if newton:
                step, solved = _solve(G, h, kept[live]), np.ones(len(live), dtype=bool)
            else:
                solved = _active_set_solve(G, h, step, lams[live, i], penalized[live])
            settled = np.max(np.abs(step - aug[live]), axis=1) < tol
            aug[live] = step
            steps[live] += 1
            converged[live[settled], i] = solved[settled]
            live = live[~settled]
        solutions[:, i] = aug

    paths, ends = [[] for _ in sets], [[] for _ in sets]
    for k, (s, _) in enumerate(problems):
        coefs = solutions[k, :, 1 : widths[k]] / scales[k]
        paths[s].append(LassoPath(
            lambda_grid=grids[s], intercepts=solutions[k, :, 0] - coefs @ means[k],
            coefficients=coefs, converged=converged[k],
        ))
        ends[s].append((int(steps[k]), stops[k]))
    return paths, ends


def _padded(G, on):
    """Each ``G[k]`` on its coordinates marked in ``on[k]``, every other one a diagonal
    entry at the mean of the marked diagonal, which lies between its extreme eigenvalues."""
    mean = np.where(on, np.diagonal(G, axis1=1, axis2=2), 0.0).sum(axis=1) / on.sum(axis=1)
    return np.where(on[:, :, None] & on[:, None, :], G, np.eye(G.shape[1]) * mean[:, None, None])


def _nonzero(ev):
    """The rank rule: each row's ascending eigenvalues above ``_RESIDUAL_FLOOR`` times its last."""
    return ev > _RESIDUAL_FLOOR * ev[:, -1:]


def _full_rank(G, on):
    """Whether each :func:`_padded` ``G[k]`` has no eigenvalue the rank rule zeroes."""
    return _nonzero(np.linalg.eigvalsh(_padded(G, on))).all(axis=1)


def _min_norm(G, rhs, on):
    """The minimum-norm least-squares solution of each ``G[k] x = rhs[k]`` on
    its coordinates marked in ``on[k]``, the rest exactly 0, by one batched
    ``eigh`` of the :func:`_padded` blocks without the eigenvalues the rank
    rule zeroes (Golub & Van Loan 2013, section 5.5)."""
    ev, V = np.linalg.eigh(_padded(G, on))
    inv = np.divide(1.0, ev, out=np.zeros_like(ev), where=_nonzero(ev))
    x = np.einsum("kij,kj->ki", V, inv * np.einsum("kji,kj->ki", V, np.where(on, rhs, 0.0)))
    return np.where(on, x, 0.0)


def _solve(G, rhs, on):
    """Each ``G[k] x = rhs[k]`` solved on its coordinates marked in ``on[k]``, the rest 0, by
    one stacked LU; only a system whose LU is exactly singular takes :func:`_min_norm`."""
    M = np.where(on[:, :, None] & on[:, None, :], G, np.eye(G.shape[1]))
    try:
        return np.where(on, np.linalg.solve(M, rhs[:, :, None])[:, :, 0], 0.0)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(M)[0] == 0.0  # sign 0: their LU meets an exact zero pivot
        x = np.zeros(rhs.shape)
        x[~singular] = np.linalg.solve(M[~singular], rhs[~singular, :, None])[:, :, 0]
        x[singular] = _min_norm(G[singular], rhs[singular], on[singular])
        return np.where(on, x, 0.0)


def fit_lasso_path(
    X, y, n_lambda: int = 100, lambda_min_ratio: float = 1e-4, tol: float = 1e-7,
    max_outer: int = 50, lambda_grid=None,
) -> LassoPath:
    """L1-penalized logistic path by proximal Newton with exact subproblem solves.

    The grid is log-spaced from the smallest penalty with an all-zero
    solution (computed from the null-model gradient) down to
    ``lambda_min_ratio`` times that; solutions are warm-started along the
    path.  Passing ``lambda_grid`` overrides the grid; a penalty of 0 in it
    takes Newton steps (see :func:`_fit_paths`).  The fit is the one-problem
    case of the batched solve :func:`cv_select` runs.
    """
    X, y, full = _check_xy(X, y)
    _check_classes(y)
    grid = None if lambda_grid is None else np.asarray(lambda_grid, dtype=float)
    paths, _ = _fit_paths([full], [y], [None], grid, n_lambda, lambda_min_ratio, tol, max_outer)
    return paths[0][0]


def kkt_violation(path: LassoPath, X, y, index: int) -> tuple[float, float]:
    """Max KKT residuals at one grid point: (inactive excess, active residual).

    For zero coefficients the penalized gradient must satisfy |g_j| <= lam;
    for nonzero coefficients g_j + lam * sign(beta_j) must vanish.  Gradients
    are evaluated on the internal standardized scale where the penalty
    applies.
    """
    X, y, (D, mean, sd, keep) = _check_xy(X, y)
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


def cv_select(
    X, y, folds: FoldAssignment, n_lambda: int = 100, lambda_min_ratio: float = 1e-4
) -> LassoPath:
    """Cross-validate the penalty grid and select the deviance minimizer.

    The grid comes from the full data; the full-data path and each fold's
    path on its training portion are fitted over it as one batch, and each
    fold scores mean validation deviance at every penalty.  The selected
    penalty is the argmin of mean validation deviance, ties breaking toward
    the larger penalty.  Raises ``NumericError`` when the selected penalty
    did not converge in the full-data fit or in any fold.  The selection is
    the one-set case of :func:`cv_select_many`.
    """
    return _fitted(cv_select_many(X, y, folds, [None], n_lambda, lambda_min_ratio)[0])


def cv_select_many(
    X,
    y,
    folds: FoldAssignment,
    column_sets,
    n_lambda: int = 100,
    lambda_min_ratio: float = 1e-4,
) -> list:
    """:func:`cv_select` of ``y`` on each column subset of ``X``, as one batch.

    Set s selects the penalty of a lasso on the columns ``column_sets[s]``
    (``None`` for every column) over its own default grid.  Every set's
    full-data path and fold paths are fitted by one :func:`_fit_paths`
    call.  Returns, per set, its :class:`LassoPath` with ``cv_mean``,
    ``cv_se`` and ``selected_index`` filled, or the ``NumericError`` that
    set's selected penalty raised by not converging.  Inputs that no set can
    be fitted on (a single-class ``y`` or fold) raise.
    """
    X, y, design = _check_xy(X, y)
    if folds.n != X.shape[0]:
        raise DataError("fold assignment does not cover X's rows")
    _check_classes(y)
    train = [folds.train_indices(f) for f in range(folds.fold_count)]
    valid = [folds.test_indices(f) for f in range(folds.fold_count)]
    for f, (tr, va) in enumerate(zip(train, valid)):
        for part, where in ((y[tr], "training"), (y[va], "validation")):
            if len(np.unique(part)) < 2:
                raise NumericError(
                    f"fold {f} has a single-class {where} split; "
                    "use stratified folds (kfold with labels)"
                )
    designs, labels = [design, *(_design(X, tr) for tr in train)], [y, *(y[tr] for tr in train)]
    fitted, _ = _fit_paths(designs, labels, column_sets, None, n_lambda, lambda_min_ratio)
    out = []
    for cols, (full, *subs) in zip(column_sets, fitted):
        Xs = X if cols is None else X[:, cols]
        per_fold = np.empty((folds.fold_count, full.n_lambda))
        for f, (sub, va) in enumerate(zip(subs, valid)):
            eta = sub.intercepts[:, None] + sub.coefficients @ Xs[va].T
            per_fold[f] = -2.0 * log_likelihood_bernoulli(eta, y[va]) / len(va)
        cv_mean = per_fold.mean(axis=0)
        cv_se = per_fold.std(axis=0, ddof=1) / np.sqrt(folds.fold_count)
        selected = int(np.argmin(cv_mean))  # first minimum = largest penalty on ties
        unconverged = [k for k, path in enumerate([full, *subs]) if not path.converged[selected]]
        if unconverged:
            where = "the full-data fit" if unconverged[0] == 0 else f"fold {unconverged[0] - 1}"
            out.append(NumericError(
                f"lasso did not converge at the selected penalty "
                f"(lambda index {selected}) in {where}"
            ))
        else:
            out.append(replace(full, cv_mean=cv_mean, cv_se=cv_se, selected_index=selected))
    return out


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def linear_predictor(intercept: float, coefs, X) -> np.ndarray | float:
    """``intercept + x . coefs`` for one row or each row of a matrix.

    Each row is summed by the same loop wherever it sits, so identical rows
    get bit-identical scores and rank as ties.  ``X @ coefs`` does not
    promise that: BLAS gemv may round a row differently depending on its
    position in the matrix, which splits a tie by one ulp and moves the AUC.
    A row whose length is not the number of coefficients, or a 0-d input,
    is a DataError.
    """
    X, coefs = np.asarray(X, dtype=float), np.asarray(coefs, dtype=float)
    if X.shape[-1:] != coefs.shape:
        length = X.shape[-1] if X.ndim else "none (a 0-d input)"
        raise DataError(f"feature vector has length {length}, model expects {len(coefs)}")
    return intercept + np.einsum("...j,j->...", X, coefs)


def linear_score(fit: GlmFit, x) -> np.ndarray | float:
    """Linear predictor (logit scale) for one row or a matrix of rows."""
    out = linear_predictor(fit.intercept, fit.coefficients, x)
    return float(out) if np.ndim(out) == 0 else out


def predict_prob(fit: GlmFit, x) -> np.ndarray | float:
    """Fitted probability logit^{-1}(intercept + coef . x)."""
    return expit(linear_score(fit, x))
