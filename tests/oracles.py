"""Independent reference implementations used to freeze expected values.

Everything here is deliberately slow and, but for one, structurally
unrelated to the library's own algorithms: bracket-shrinking maximization
and one-fit IRLS with step-halving instead of batched Newton steps,
coordinate descent instead of feature-sign active-set solves, one
pseudo-inverse per system instead of one batched eigendecomposition of
padded blocks, O(n^2) pair counting instead of rank sums, bisection
instead of closed forms, row-by-row CSV loops instead of one typed parse,
cell-by-cell interval and category tests instead of one comparison per
indicator column.
The exception is forward selection, whose reference fits one candidate at
a time where the library fits a step's candidates as one batch.  Tests
compare the fast paths against these.
"""

import math
from statistics import NormalDist

import numpy as np

from scorekit import glm
from scorekit.data import RESERVED_PREFIX, Dataset, read_table
from scorekit.errors import DataError, NumericError
from scorekit.policy import RELEASE, WITHHOLD, CaseTable
from scorekit.selection import SelectionTrace, selectable_groups
from scorekit.synth import _CODE_COLUMNS, COHORT_COLUMNS, SyntheticCohort, _infer_groups


def logistic_ll(intercept, coefs, X, y):
    eta = intercept + X @ np.asarray(coefs)
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def deviance(intercept, coefs, X, y):
    """Mean per-observation binomial deviance of a fitted model on (X, y)."""
    return -2.0 * logistic_ll(intercept, coefs, X, y) / len(y)


def direct_max_oracle(X, y, iters=60):
    """Coordinate-wise golden-section maximizer of the log-likelihood."""
    p = X.shape[1]
    theta = np.zeros(p + 1)
    width = 8.0
    phi = (math.sqrt(5.0) - 1.0) / 2.0

    def ll(t):
        return logistic_ll(t[0], t[1:], X, y)

    for _ in range(iters):
        for j in range(p + 1):
            lo, hi = theta[j] - width, theta[j] + width
            a, b = hi - phi * (hi - lo), lo + phi * (hi - lo)
            ta, tb = theta.copy(), theta.copy()
            for _ in range(80):
                ta[j], tb[j] = a, b
                if ll(ta) < ll(tb):
                    lo = a
                    a, b = b, lo + phi * (hi - lo)
                else:
                    hi = b
                    b, a = a, hi - phi * (hi - lo)
            theta[j] = 0.5 * (lo + hi)
        width = max(width * 0.7, 1e-6)
    return theta


def irls(X, y, max_iter=100, tol=1e-7, clamp=False):
    """One maximum-likelihood logistic fit by IRLS on the raw design, the
    reference for ``glm.fit_logistic``: from 0, with step-halving, until no
    coefficient moves by ``tol``.  A fit still moving once its fitted
    log-odds pass ``glm.DIVERGENCE_BOUND`` raises, or with ``clamp`` returns
    that iterate unconverged; an exactly singular weighted system raises.  A
    column that does not vary gets coefficient 0.  Returns a ``GlmFit``.
    """
    n, p = X.shape
    keep = X.std(axis=0) > 1e-12 * np.maximum(np.abs(X.mean(axis=0)), 1.0)
    D = np.column_stack([np.ones(n), X[:, keep]])
    beta, eta = np.zeros(D.shape[1]), np.zeros(n)
    ll = logistic_ll(beta[0], beta[1:], X[:, keep], y)
    for it in range(1, max_iter + 1):
        prob = 1.0 / (1.0 + np.exp(-eta))
        w = np.maximum(prob * (1.0 - prob), 1e-6)
        try:
            target = np.linalg.solve(D.T @ (D * w[:, None]), D.T @ (w * eta + y - prob))
        except np.linalg.LinAlgError:
            raise NumericError("singular weighted normal equations") from None
        factor = 1.0
        for _ in range(30):
            cand = beta + factor * (target - beta)
            cand_ll = logistic_ll(cand[0], cand[1:], X[:, keep], y)
            if cand_ll >= ll - 1e-12:
                break
            factor /= 2.0
        delta = np.max(np.abs(cand - beta))
        beta, eta, ll = cand, D @ cand, cand_ll
        if delta < tol:
            break
        if np.max(np.abs(eta)) > glm.DIVERGENCE_BOUND:
            if not clamp:
                raise NumericError("quasi-complete separation detected")
            break
    coefs = np.zeros(p)
    coefs[keep] = beta[1:]
    return glm.GlmFit(float(beta[0]), coefs, bool(delta < tol), it, ll)


def soft_threshold(v, t):
    if v > t:
        return v - t
    if v < -t:
        return v + t
    return 0.0


def coordinate_descent(G, h, aug, lam, keep, tol, max_sweeps=10000):
    """Cyclic coordinate descent on the lasso's Gram-space subproblem
    ``b' G b / 2 - h' b + lam * ||b[1:]||_1``, in place: the reference for
    ``glm._active_set_solve``.

    ``aug`` is ``[b0, beta...]`` and is updated in place; coordinate 0 (the
    intercept) is unpenalized and ``keep`` masks the penalized coordinates
    that may move.  Full sweeps discover the active set, then cheap sweeps
    over nonzeros run until stable.  Returns whether a full sweep moved no
    coordinate by ``tol`` or more within ``max_sweeps`` sweeps.
    """
    p = len(aug) - 1
    q = G @ aug

    def update(j, penalty):
        nonlocal q
        gjj = G[j, j]
        if gjj <= 0.0:
            return 0.0
        num = h[j] - q[j] + gjj * aug[j]
        new = soft_threshold(num, penalty) / gjj
        d = new - aug[j]
        if d != 0.0:
            aug[j] = new
            q += G[:, j] * d
        return abs(d)

    def sweep(indices):
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


def min_norm_solve(G, rhs, on):
    """The minimum-norm least-squares solution of ``G x = rhs`` on the
    coordinates marked in ``on``, every other coordinate 0, from numpy's
    pseudo-inverse of that block alone, which counts a singular value at most
    1e-10 times the largest as zero: the per-problem reference for
    ``glm._min_norm``."""
    x = np.zeros(len(rhs))
    x[on] = np.linalg.pinv(G[np.ix_(on, on)], rcond=1e-10, hermitian=True) @ rhs[on]
    return x


def forward_stepwise_reference(ds, k, grouped=True, fit_logistic=None):
    """``selection.forward_stepwise`` as one ``glm.fit_logistic`` call per
    candidate (or one ``fit_logistic(X, y)``, ``GlmFit`` or raising
    ``NumericError``): the reference for its batched steps.

    Returns the trace of the steps that fit and, per step, each candidate's
    ``(name, GlmFit or NumericError)`` in offer order.  The trace ends at a
    step where no candidate fits, where ``forward_stepwise`` raises.
    """
    y = ds.labels.astype(float)
    remaining = selectable_groups(ds, grouped)
    selected, groups, names, deviances, steps = [], [], [], [], []
    for _ in range(k):
        fits = []
        for name, cols in remaining:
            X = ds.rows[:, selected + list(cols)]
            try:
                fit = (
                    glm.fit_logistic(X, y, max_iter=60, tol=1e-8, on_divergence="clamp")
                    if fit_logistic is None else fit_logistic(X, y)
                )
            except NumericError as exc:
                fit = exc
            fits.append((name, fit))
        steps.append(fits)
        best = None  # (deviance, position)
        for pos, (_, fit) in enumerate(fits):
            if isinstance(fit, NumericError):
                continue
            dev = -2.0 * fit.log_likelihood
            if best is None or dev < best[0] - 1e-10:
                best = (dev, pos)
        if best is None:
            break
        name, cols = remaining.pop(best[1])
        selected.extend(cols)
        groups.append(cols)
        names.append(name)
        deviances.append(best[0])
    return SelectionTrace(selected, groups, names, deviances), steps


def auc_brute_force(scores, labels):
    """O(n^2) pair counting with half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def auc_tie_loop(scores, labels):
    """Rank-sum AUC with a Python loop over tie groups: the reference for
    the merge count, which must reproduce it bit for bit on any scores
    without NaN.  Runs are split where neighbours differ, so equal infinite
    scores tie as equal finite ones do."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = len(scores) - n_pos
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    boundaries = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(scores)]])
    for s, e in zip(starts, ends):
        ranks[order[s:e]] = 0.5 * (s + e - 1) + 1.0
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def verify_theorem_mc_concat(auc_target, gamma, n, seed=0):
    """``noise.verify_theorem_mc`` as three separate normal draws, concatenated,
    with an int label vector and the tie-loop AUC: the reference for its
    single in-place buffer, which must return the same triple bit for bit."""
    rng = np.random.default_rng(seed)
    half = n // 2
    mu_gap = math.sqrt(2.0) * NormalDist().inv_cdf(auc_target)
    scores = np.concatenate([rng.normal(0.0, 1.0, half), rng.normal(mu_gap, 1.0, half)])
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])
    noisy = scores + rng.normal(0.0, math.sqrt(gamma), 2 * half) if gamma > 0 else scores
    empirical = auc_tie_loop(noisy, labels)
    z = NormalDist().inv_cdf(auc_target) / math.sqrt(1.0 + gamma)
    analytic = 0.5 * math.erfc(-z / math.sqrt(2.0))
    return empirical, analytic, abs(empirical - analytic)


def best_threshold_loop(scores, labels):
    """Accuracy-maximizing cutoff by re-scoring every row at every candidate."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    candidates = np.concatenate([np.unique(scores), [np.max(scores) + 1.0]])
    best_t, best_acc = candidates[0], -1.0
    for t in candidates:
        acc = float(np.mean((scores >= t).astype(int) == labels))
        if acc > best_acc + 1e-12:
            best_t, best_acc = t, acc
    return float(best_t)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def bisect_mixture(target, p1, shift):
    """Slow solver for (1 - p1) s(x) + p1 s(x + shift) = target.

    Both logistic terms are within s(-80) of 0 at the bracket's low end and
    of 1 at its high end, so the root lies inside it."""
    lo, hi = -80.0 - abs(shift), 80.0 + abs(shift)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if (1 - p1) * sigmoid(mid) + p1 * sigmoid(mid + shift) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rr_chain_oracle(r_rel, r_wh, p_u, alpha, d_rel, d_wh, observed_release, q):
    """Straight-line scalar re-implementation of the three-step adjustment."""
    gamma = bisect_mixture(q, p_u, alpha)
    p1, p0 = sigmoid(gamma + alpha), sigmoid(gamma)
    post_rel = p1 * p_u / (p1 * p_u + p0 * (1 - p_u))
    post_wh = (1 - p1) * p_u / ((1 - p1) * p_u + (1 - p0) * (1 - p_u))
    beta_rel = bisect_mixture(r_rel, post_rel, d_rel)
    beta_wh = bisect_mixture(r_wh, post_wh, d_wh)
    if observed_release:
        return (1 - post_rel) * sigmoid(beta_wh) + post_rel * sigmoid(beta_wh + d_wh)
    return (1 - post_wh) * sigmoid(beta_rel) + post_wh * sigmoid(beta_rel + d_rel)


def hanley_mcneil_se(a, n_pos, n_neg):
    """Standard error of an empirical AUC estimate."""
    q1 = a / (2 - a)
    q2 = 2 * a * a / (1 + a)
    var = (a * (1 - a) + (n_pos - 1) * (q1 - a * a) + (n_neg - 1) * (q2 - a * a)) / (
        n_pos * n_neg
    )
    return math.sqrt(max(var, 1e-18))


def load_cohort_rows(path):
    """Cohort CSV read row by row with ``float``/``int`` on each cell: the
    reference for ``synth.load_cohort_csv``'s single typed parse, which must
    give the same cohort bit for bit and raise the same ``DataError``."""
    header, rows = read_table(path)
    tail = len(COHORT_COLUMNS)
    if tuple(header[-tail:]) != COHORT_COLUMNS:
        raise DataError(f"{path}: not a cohort CSV (expected trailing columns {list(COHORT_COLUMNS)})")
    names = tuple(header[:-tail])
    p = len(names)
    X, codes, actions, judges = [], [], [], []
    for line, row in enumerate(rows, start=2):
        try:
            X.extend(map(float, row[:p]))
            codes.extend([int(row[p + 1]), int(row[p + 3]), int(row[p + 4]), int(row[p + 5])])
        except (ValueError, OverflowError):
            raise DataError(f"{path}: line {line} has a non-numeric field") from None
        actions.append(row[p])
        judges.append(row[p + 2])
    n = len(actions)
    if not set(codes) <= {0, 1}:
        k = next(k for k, code in enumerate(codes) if code not in (0, 1))
        raise DataError(f"{path}: line {k // 4 + 2} column {_CODE_COLUMNS[k % 4]!r} "
                        f"must be 0 or 1, got {codes[k]}")
    if not set(actions) <= {RELEASE, WITHHOLD}:
        k = next(k for k, action in enumerate(actions) if action not in (RELEASE, WITHHOLD))
        raise DataError(f"{path}: line {k + 2} column 'action' "
                        f"must be {RELEASE!r} or {WITHHOLD!r}, got {actions[k]}")
    X = np.array(X, dtype=float).reshape(n, p)
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        i, j = bad[0]
        raise DataError(f"{path}: line {i + 2} column {names[j]!r} must be a finite number, "
                        f"got {X[i, j]}")
    codes = np.array(codes, dtype=np.int8).reshape(n, 4)
    outcome, po_r, po_w, u = codes.T
    table = CaseTable(
        X=X,
        released=np.array(actions) == RELEASE,
        outcomes=outcome,
        po_release=po_r,
        po_withhold=po_w,
        feature_names=names,
        column_groups=_infer_groups(names),
    )
    return SyntheticCohort(table=table, u=u, judges=np.array(judges))


def load_csv_rows(path, label_column, action_column=None, group_column=None, positive_label=None):
    """CSV table read row by row with ``float`` on each cell: the reference
    for ``data.load_csv``'s single typed parse.  It keeps two orders that
    the typed parse does not: a missing cell is reported before a later
    row's width error, and a column's cells are parsed in order, so a
    non-finite cell ahead of a text cell is an error, not a category.  It
    also reads a header cell holding a line break, which ``load_csv``
    refuses."""
    header, body = read_table(path)
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    special = [c for c in (label_column, action_column, group_column) if c is not None]
    for col in special:
        if col not in header:
            raise DataError(f"{path}: missing column {col!r}")
    for col in header:
        if col.startswith(RESERVED_PREFIX) and col not in special:
            raise DataError(
                f"{path}: column {col!r} uses the reserved {RESERVED_PREFIX!r} prefix "
                "(bookkeeping columns such as stored potential outcomes must be "
                "loaded with their dedicated reader, not as features)"
            )
    columns = {name: [] for name in header}
    for i, row in enumerate(body, start=1):
        for name, cell in zip(header, row):
            if cell == "":
                raise DataError(f"{path}: missing value in column {name!r}, data row {i}")
            columns[name].append(cell)

    raw_labels = columns[label_column]
    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise DataError(f"{path}: label column {label_column!r} is not binary "
                        f"({len(distinct)} distinct values)")
    if positive_label is not None:
        if positive_label not in distinct:
            raise DataError(f"{path}: positive_label {positive_label!r} not among {distinct}")
        one = positive_label
    else:
        one = distinct[1]
    zero = distinct[0] if one == distinct[1] else distinct[1]

    names, cols, categorical = [], [], {}
    for name in header:
        if name in special:
            continue
        values = []
        for i, cell in enumerate(columns[name], start=1):
            try:
                value = float(cell)
            except ValueError:
                levels = tuple(sorted(set(columns[name])))
                values = [levels.index(c) for c in columns[name]]
                categorical[name] = levels
                break
            if not math.isfinite(value):
                raise DataError(f"non-finite value {cell!r} in column {name!r}, data row {i}")
            values.append(value)
        names.append(name)
        cols.append(values)
    if not names:
        raise DataError(f"{path}: no feature columns")
    return Dataset(
        feature_names=tuple(names),
        rows=np.array(cols, dtype=float).T,
        labels=[int(v == one) for v in raw_labels],
        actions=np.array(columns[action_column]) if action_column else None,
        categorical_levels=categorical,
        label_mapping=(zero, one),
    )


def _token(value):
    """A category or cut point as an indicator name spells it: a whole float
    drops its ``.0``."""
    return str(value).removesuffix(".0") if isinstance(value, float) else str(value)


def default_bin_labels(cuts):
    """``lt_<first cut>``, ``<cut>_<next cut>`` for each inner bin, ``ge_<last cut>``."""
    edges = [_token(float(c)) for c in cuts]
    inner = [edges[i] + "_" + edges[i + 1] for i in range(len(edges) - 1)]
    return ["lt_" + edges[0]] + inner + ["ge_" + edges[-1]]


def encode_cells(ds, columns):
    """``data.encode`` cell by cell, from the plain JSON form of an encoding
    spec (column name -> directive object): each row's level is the bin whose
    ``[lo, hi)`` interval holds the cell, or the declared category equal to it
    (by code text for a categorical column).  Returns ``(names, groups,
    rows)``; rejects nothing."""
    names, groups, out = [], [], []
    for j, name in enumerate(ds.feature_names):
        d = columns.get(name, {"type": "passthrough"})
        cells = ds.rows[:, j].tolist()
        if d["type"] == "passthrough":
            names.append(name)
            groups.append(ds.column_groups[j])
            out.append(cells)
            continue
        if d["type"] == "bins":
            levels = d.get("labels") or default_bin_labels(d["cuts"])
            tokens = levels
            bounds = [-math.inf] + [float(c) for c in d["cuts"]] + [math.inf]
            row_levels = [
                next(lv for lv, lo, hi in zip(levels, bounds, bounds[1:]) if lo <= v < hi)
                for v in cells
            ]
        else:
            levels = list(d["categories"])
            tokens = [_token(c) for c in levels]
            codes = ds.categorical_levels.get(name)
            if codes is None:
                row_levels = [next(c for c in levels if float(c) == v) for v in cells]
            else:
                row_levels = [next(c for c in levels if str(c) == codes[int(v)]) for v in cells]
        for level, token in zip(levels, tokens):
            if level != d["reference"]:
                names.append(f"{name}_{token}")
                groups.append(name)
                out.append([1.0 if r == level else 0.0 for r in row_levels])
    return tuple(names), tuple(groups), np.array(out, dtype=float).T
