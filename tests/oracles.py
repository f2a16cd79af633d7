"""Independent reference implementations used to freeze expected values.

Everything here is deliberately slow and structurally unrelated to the
library's own algorithms: bracket-shrinking maximization instead of IRLS,
O(n^2) pair counting instead of rank sums, bisection instead of closed
forms, a row-by-row CSV loop instead of one typed parse.  Tests compare the
fast paths against these.
"""

import math

import numpy as np

from scorekit.data import read_table
from scorekit.errors import DataError
from scorekit.policy import RELEASE, WITHHOLD, CaseTable
from scorekit.synth import _CODE_COLUMNS, COHORT_COLUMNS, SyntheticCohort, _infer_groups


def logistic_ll(intercept, coefs, X, y):
    eta = intercept + X @ np.asarray(coefs)
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


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
    the loop-free ranks, which must reproduce it bit for bit on finite scores."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = len(scores) - n_pos
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    boundaries = np.flatnonzero(np.diff(sorted_scores) != 0) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(scores)]])
    for s, e in zip(starts, ends):
        ranks[order[s:e]] = 0.5 * (s + e - 1) + 1.0
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


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
