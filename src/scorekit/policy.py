"""Offline policy evaluation on observed decision data.

Observed cases live in one container, :class:`CaseTable`: covariates, the
observed action and outcome, optional potential outcomes, and the covariate
layout (feature names and their source groups) that rule construction needs.

The value of a candidate policy (its adverse-outcome rate if followed for
every case) is estimated with a response surface: where the policy agrees
with the observed action, the observed outcome is used; elsewhere the
fitted counterfactual stands in.  Actions are boolean release masks
throughout (True = release); strings appear only where text is read or written.

The sensitivity analysis quantifies how much that estimate moves if an
unobserved binary covariate ``u`` shifted both the decision and the outcome.
Given the four assumed parameters (prevalence of u, its log-odds effect on
the decision, its log-odds effects on the outcome under each action), the
observed data pin down the remaining selection/outcome intercepts through
two-point logistic mixtures, and the counterfactual for the action not taken
follows from the posterior of ``u`` given the action that was.  A sweep over
many regimes solves the chain once per distinct regime key and case.  The
case table keeps the surface's predictions and those counterfactuals: each
further policy estimated with the same surface costs no prediction, and each
further policy swept with the same surface and regimes one masked sum.
Each mixture solve is one closed form on the odds scale that does not
cancel, and hands back the two sigmoids its residual check evaluated, so the
chain takes no logarithm and evaluates no sigmoid twice.  It solves positive
shifts up to about 354 and roots up to about 709 in size; beyond, it raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol, Sequence

import numpy as np

from ._math import clip_prob, expit
from .data import Dataset, FoldAssignment, _freeze, check_spread, covariate_layout
from .errors import DataError, NumericError
from .glm import LassoPath, cv_select, linear_predictor
from .srr import RELEASE, WITHHOLD, Scorecard, finite_threshold

RESPONSE_SURFACE = "response_surface"
ROSENBAUM_RUBIN = "rosenbaum_rubin"
ORACLE = "oracle"


# CaseTable's per-case columns and the dtype each is stored as (None: as given)
_CASE_COLUMNS = (
    ("X", float),
    ("released", None),
    ("outcomes", float),
    ("po_release", float),
    ("po_withhold", float),
)


def _mask(value, what: str) -> np.ndarray:
    """``value`` as a boolean release mask (True = release); anything else
    is a DataError.  Never a cast: numpy casts every non-empty string,
    ``"withhold"`` included, to True."""
    mask = np.asarray(value)
    if mask.dtype != bool:
        raise DataError(f"{what} must be a boolean release mask, got dtype {mask.dtype}")
    return mask


def _decisions(policy, cases) -> np.ndarray:
    """``policy.released(cases.X)``: a boolean mask (:func:`_mask`) holding one
    flag per case, or a DataError.  Never broadcast: a one-element mask is
    not a decision for every case."""
    released = _mask(policy.released(cases.X), "policy.released(X)")
    if released.shape != (len(cases),):
        raise DataError(
            f"policy.released(X) has shape {released.shape}, expected ({len(cases)},)")
    return released


@dataclass(frozen=True)
class CaseTable:
    """Observed decision cases, held column by column, and their covariate layout.

    ``X`` has one covariate row per case, ``released`` the observed action
    as a boolean mask (True = released) and ``outcomes`` the observed 0/1
    outcome.  Potential outcomes are carried only by synthetic cohorts; when
    present, the observed outcome must equal the potential outcome of the
    observed action.  ``actions`` is the mask as ``release``/``withhold``
    strings, for output.

    ``feature_names`` names the columns of ``X`` and ``column_groups`` the
    source feature of each, under the layout rule that
    :class:`~scorekit.data.Dataset` shares (:func:`~scorekit.data.covariate_layout`):
    the names are unique, one per column, and the groups default to the
    names.  Without names the columns are ``x0`` ... ``x{p-1}``.
    :meth:`released_dataset` is the one conversion to a ``Dataset``.
    """

    X: np.ndarray
    released: np.ndarray
    outcomes: np.ndarray
    po_release: np.ndarray | None = None
    po_withhold: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None
    column_groups: tuple[str, ...] | None = None
    # the predictions of the last surface used on this table, and
    # sensitivity_sweep's branch tables for that surface and its last regimes:
    # (surface, r_rel, r_wh, regimes, {flag: (table, key_of_regime)}); see _predictions
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, dtype in _CASE_COLUMNS:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, np.asarray(value, dtype=dtype))
        _mask(self.released, "released")
        n = len(self.outcomes)
        if n == 0:
            raise DataError("no cases")
        columns = [getattr(self, name) for name, _ in _CASE_COLUMNS]
        if self.X.ndim != 2 or any(col is not None and len(col) != n for col in columns):
            raise DataError("case columns must all have one entry (X: one row) per case")
        p = self.X.shape[1]
        names = [f"x{j}" for j in range(p)] if self.feature_names is None else self.feature_names
        names, groups = covariate_layout(names, self.column_groups, p)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "column_groups", groups)
        if not np.all(np.isfinite(self.X)):
            raise DataError("covariates contain non-finite values")
        check_spread(self.X, names)
        po = [col for col in (self.po_release, self.po_withhold) if col is not None]
        if len(po) == 1:
            raise DataError("either both potential outcomes are present or neither")
        if not all(np.isin(col, (0.0, 1.0)).all() for col in [self.outcomes, *po]):
            raise DataError("outcome must be 0 or 1")
        if po and np.any(self.outcomes != np.where(self.released, po[0], po[1])):
            raise DataError("observed outcome must equal the potential outcome of the action taken")
        for col in columns:  # read-only, so that no write can undo the checks above
            if col is not None:
                _freeze(col)

    @property
    def actions(self) -> np.ndarray:
        return np.where(self.released, RELEASE, WITHHOLD)

    def __len__(self) -> int:
        return len(self.outcomes)

    def take(self, indices) -> "CaseTable":
        """Row subset with the same covariate layout."""
        indices = np.asarray(indices)
        return replace(self, **{
            name: getattr(self, name)[indices]
            for name, _ in _CASE_COLUMNS
            if getattr(self, name) is not None
        })

    def released_dataset(self) -> Dataset:
        """The released cases as a Dataset with this layout: rules are fit
        where the outcome under release was observed."""
        released = np.flatnonzero(self.released)
        if len(released) == 0:
            raise DataError("no released cases")
        return Dataset(
            feature_names=self.feature_names,
            rows=self.X[released],
            labels=self.outcomes[released].astype(int),
            column_groups=self.column_groups,
        )


def cases_from_dataset(ds: Dataset, release_value: str | None = None) -> CaseTable:
    """Cases from a Dataset, released where the action is ``release_value``,
    with the Dataset's covariate layout."""
    if ds.actions is None:
        raise DataError("dataset has no action column")
    values = sorted(set(ds.actions.tolist()))
    if release_value is None:
        if set(values) <= {RELEASE, WITHHOLD}:
            release_value = RELEASE
        else:
            raise DataError(
                f"action values {values} are not {RELEASE!r}/{WITHHOLD!r}; pass release_value"
            )
    if release_value not in values:
        raise DataError(f"release value {release_value!r} is none of the action values {values}")
    return CaseTable(
        X=ds.rows,
        released=ds.actions == release_value,
        outcomes=ds.labels,
        feature_names=ds.feature_names,
        column_groups=ds.column_groups,
    )


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class Policy(Protocol):
    """A total, deterministic decision function: one release flag per covariate row."""

    def released(self, X: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class ScorecardPolicy:
    """Release iff the integer score is strictly below the threshold."""

    card: Scorecard
    feature_names: tuple[str, ...]
    threshold: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        thr = self.card.threshold if self.threshold is None else self.threshold
        if thr is None:
            raise DataError("no threshold: set one on the card or the policy")
        object.__setattr__(self, "threshold", finite_threshold(thr, "policy"))
        self.card.weight_vector(self.feature_names)  # rejects a layout missing a card feature

    def scores(self, X: np.ndarray) -> np.ndarray:
        return self.card.scores(X, self.feature_names)

    def released(self, X: np.ndarray) -> np.ndarray:
        return self.scores(X) < self.threshold


@dataclass(frozen=True)
class RiskModelPolicy:
    """Release iff a fitted risk model predicts risk below a threshold."""

    intercept: float
    coefficients: np.ndarray
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "threshold", finite_threshold(self.threshold, "policy"))
        # a read-only copy, so that no write to the caller's array changes a decision
        coefficients = _freeze(np.array(self.coefficients, dtype=float))
        object.__setattr__(self, "coefficients", coefficients)

    def risk(self, X: np.ndarray) -> np.ndarray:
        return expit(np.atleast_1d(linear_predictor(self.intercept, self.coefficients, X)))

    def released(self, X: np.ndarray) -> np.ndarray:
        return self.risk(X) < self.threshold


@dataclass(frozen=True)
class FixedActionsPolicy:
    """Replay a precomputed release mask (audit tool, not a function of x);
    ``np.full(n, True)`` releases every case."""

    fixed: np.ndarray

    def __post_init__(self):
        # a read-only copy: a write to the caller's array or to a returned mask changes nothing
        fixed = _freeze(_mask(self.fixed, "fixed").copy())
        object.__setattr__(self, "fixed", fixed)

    def released(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] != len(self.fixed):
            raise DataError("fixed action vector does not match the case count")
        return self.fixed


# ---------------------------------------------------------------------------
# Response surface
# ---------------------------------------------------------------------------


def surface_design(X: np.ndarray, released: np.ndarray) -> np.ndarray:
    """[x, action, action * x] design: covariates, the action indicator, and
    all action-covariate interactions."""
    a = released.astype(float)[:, None]
    return np.hstack([X, a, a * X])


@dataclass(frozen=True)
class ResponseSurface:
    """Fitted outcome model r^(t | x) for both actions, plus Pr(release | x).

    The outcome model is a lasso logistic regression on the covariates, the
    action indicator, and all action-covariate interactions; the release
    model is a lasso logistic regression of the action on the covariates
    (it supplies the release probability the sensitivity analysis needs).
    """

    outcome_path: LassoPath
    release_path: LassoPath
    n_features: int

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise DataError(
                f"covariate rows have {X.shape[1]} features, surface expects {self.n_features}"
            )
        return X

    def predict_both(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(r^(release | x), r^(withhold | x)) for every row.

        The outcome coefficients split into the covariate, action and
        interaction blocks of :func:`surface_design`, so each action's linear
        predictor is one pass over ``X`` with that action's coefficients; no
        interaction design is built.
        """
        X = self._check(X)
        b0, coefs = self.outcome_path.coefficients_at()
        p = self.n_features
        c_x, c_a, c_ax = coefs[:p], coefs[p], coefs[p + 1 :]
        released = expit(linear_predictor(b0 + c_a, c_x + c_ax, X))
        withheld = expit(linear_predictor(b0, c_x, X))
        return released, withheld

    def release_prob(self, X) -> np.ndarray:
        return self.release_path.predict_prob(self._check(X))


def fit_response_surface(
    cases: CaseTable,
    folds: FoldAssignment,
    n_lambda: int = 100,
) -> ResponseSurface:
    """Fit the outcome and release models on a set of observed cases."""
    released = cases.released
    if released.all() or (~released).all():
        raise DataError("cannot identify counterfactuals: only one action observed")
    if folds.n != len(cases):
        raise DataError("fold assignment does not cover the cases")
    outcome_path = cv_select(
        surface_design(cases.X, released), cases.outcomes, folds, n_lambda=n_lambda
    )
    release_path = cv_select(cases.X, released.astype(float), folds, n_lambda=n_lambda)
    return ResponseSurface(
        outcome_path=outcome_path, release_path=release_path, n_features=cases.X.shape[1]
    )


# ---------------------------------------------------------------------------
# Policy value estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyEstimate:
    """Estimated (release rate, adverse-outcome rate) for one policy."""

    action_rate: float
    value: float
    method: str

    def __post_init__(self):
        if not (0.0 <= self.action_rate <= 1.0 and 0.0 <= self.value <= 1.0):
            raise NumericError("policy estimate rates must lie in [0, 1]")


def estimate_policy(
    cases: CaseTable, policy: Policy, surface: ResponseSurface
) -> PolicyEstimate:
    """Response-surface estimate of a policy's adverse-outcome rate.

    Uses the observed outcome wherever the policy prescribes the observed
    action, and the fitted counterfactual estimate elsewhere.  The surface
    must have been fitted on cases disjoint from these (fold discipline is
    the caller's job).  A surface is immutable, so its predictions on
    ``cases`` are computed once and kept on the table, keyed on the
    surface's identity (:func:`_predictions`): every further policy
    estimated or swept with the same surface object reuses them.
    """
    released = _decisions(policy, cases)
    return _surface_estimate(cases, released, *_predictions(cases, surface))


def _predictions(cases: CaseTable, surface: ResponseSurface):
    """``surface.predict_both(cases.X)``, kept in the table's memo while
    ``surface`` is the memo's surface object.  Another surface computes
    them again and stores a fresh memo, which drops the old surface's
    branch tables."""
    memo = cases._memo
    if memo is None or memo[0] is not surface:
        memo = (surface, *surface.predict_both(cases.X), None, {})
        object.__setattr__(cases, "_memo", memo)
    return memo[1], memo[2]


def _surface_estimate(cases: CaseTable, released, r_rel, r_wh) -> PolicyEstimate:
    modeled = np.where(released, r_rel, r_wh)
    agree = released == cases.released
    value = float(np.mean(np.where(agree, cases.outcomes, modeled)))
    return PolicyEstimate(
        action_rate=float(np.mean(released)),
        value=value,
        method=RESPONSE_SURFACE,
    )


# ---------------------------------------------------------------------------
# Sensitivity to an unobserved binary covariate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SensitivityParams:
    """Assumed influence of the unobserved covariate u.

    ``p_u``: Pr(u = 1); ``alpha``: log-odds shift of release when u = 1;
    ``delta_release`` / ``delta_withhold``: log-odds shifts of the adverse
    outcome under each action when u = 1.  Only finiteness is checked here:
    solving a regime with a shift above about 354 raises a NumericError, in
    a sweep for every policy that disagrees with any case of the action
    whose chain the regime breaks (see :func:`sensitivity_sweep`).
    """

    p_u: float
    alpha: float
    delta_release: float
    delta_withhold: float

    def __post_init__(self):
        if not 0.0 < self.p_u < 1.0:
            raise DataError("p_u must lie strictly inside (0, 1)")
        for v in (self.alpha, self.delta_release, self.delta_withhold):
            if not np.isfinite(v):
                raise DataError("sensitivity shifts must be finite")


def _solve_two_point_mixture(target, p1, shift):
    """The unique x with (1-p1)*sigmoid(x) + p1*sigmoid(x + shift) = target:
    the log of :func:`_mixture_root`'s g.  The arguments broadcast against
    each other; a column of parameters against a row of targets costs only
    the full-size arrays the quadratic needs."""
    x = np.log(_mixture_root(target, p1, shift)[0])
    return x if np.ndim(x) else float(x)


def _mixture_root(target, p1, shift):
    """(g, sigmoid(x), sigmoid(x + shift)) on the odds scale: the closed form's
    positive root ``g = e^x``, and ``g/(1+g)`` and ``g/(1/A+g)``, ``A = e^shift``,
    as the 1e-10 residual check evaluates them.  An entry whose g is not
    positive and finite or fails the check raises a NumericError: positive
    shifts above about 354 (``b*b`` overflows) and roots beyond |x| of about
    709 (the odds overflow)."""
    q = np.asarray(target, dtype=float)
    p1 = np.clip(np.asarray(p1, dtype=float), 0.0, 1.0)
    shift = np.asarray(shift, dtype=float)
    if np.any((q <= 0.0) | (q >= 1.0)):
        raise NumericError("mixture target must lie strictly inside (0, 1)")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g = _mixture_closed_form(q, p1, shift)
        s0, s1 = g / (1.0 + g), g / (np.exp(-shift) + g)
        # a NaN g fails the first comparison and an infinite one (NaN
        # sigmoids) the second; a g that underflows to 0 leaves a residual,
        # q, that can be below 1e-10, hence the first
        solved = np.min(g, initial=np.inf) > 0.0 and np.max(
            np.abs(s0 + p1 * (s1 - s0) - q), initial=0.0) <= 1e-10
    if not solved:
        raise NumericError("two-point mixture solve did not reach a residual of 1e-10")
    return g, s0, s1


def _mixture_closed_form(q, p1, shift):
    """The positive root g = e^x of A(1-q) g^2 + b g - q = 0, A = e^shift, in
    the form that does not cancel (Numerical Recipes 5.6): with Q = b +
    sign(b) sqrt(b^2 + 4A(1-q)q), the roots are -Q / 2A(1-q) and 2q / Q."""
    A = np.exp(shift)
    m2a, q2 = (-2.0 * A) * (1.0 - q), 2.0 * q
    b = (1.0 - p1) + p1 * A - q * (1.0 + A)
    # b^2 + 4 A(1-q) q > 0 for 0 < q < 1, so the square root is real and Q != 0
    Q = b + np.copysign(np.sqrt(b * b - m2a * q2), b)
    return np.maximum(Q / m2a, q2 / Q)


def solve_gamma(p_u: float, alpha: float, q):
    """Baseline release log-odds gamma implied by an observed release rate.

    Solves (1-p_u) sigmoid(gamma) + p_u sigmoid(gamma + alpha) = q; the
    mixture is increasing in gamma so the solution is unique.
    """
    return _solve_two_point_mixture(q, p_u, alpha)


def posterior_u(gamma, alpha, p_u, released):
    """Pr(u = 1 | action, x) by Bayes' rule under the logistic selection model.

    ``released`` is the action's release flag: a bool, or a bool array that
    broadcasts against ``gamma``.
    """
    released = _mask(released, "released")
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(gamma)):
        raise DataError("gamma must be finite")
    post_withheld, post_released = _bayes_u(expit(gamma), expit(gamma + alpha), p_u)
    out = np.where(released, post_released, post_withheld)
    return out if np.ndim(out) else float(out)


def _bayes_u(rel_u0, rel_u1, p_u) -> tuple:
    """(Pr(u = 1 | withheld, x), Pr(u = 1 | released, x)), indexed by the
    release flag, from Pr(release | u = 0, x) and Pr(release | u = 1, x)."""
    num_rel = rel_u1 * p_u
    num_wh = (1.0 - rel_u1) * p_u
    return (
        num_wh / (num_wh + (1.0 - rel_u0) * (1.0 - p_u)),
        num_rel / (num_rel + rel_u0 * (1.0 - p_u)),
    )


def solve_beta(rhat, posterior_u1, delta):
    """Baseline outcome log-odds beta implied by a surface estimate.

    Solves (1-pu) sigmoid(beta) + pu sigmoid(beta + delta) = rhat where pu
    is the posterior Pr(u=1 | action, x).  Boundary posteriors (0 or 1)
    reduce to a plain logit.
    """
    return _solve_two_point_mixture(rhat, posterior_u1, delta)


def _counterfactual(q, r_other, released: bool, p_u, alpha, delta, pair_of_key):
    """Adjusted Pr(adverse outcome under the action not taken | observed action, x)
    for rows all observed under one action, ``released`` its flag.

    The whole chain: gamma from the release probabilities ``q``, the
    posteriors of u under each action, beta of the action not taken from its
    surface estimates ``r_other`` and the posterior of u given that action,
    then that action's outcome model mixed over the posterior of u given
    the action actually taken.  The posteriors use sigmoid(gamma) and
    sigmoid(gamma + alpha), and the mix sigmoid(beta) and sigmoid(beta +
    delta), as the two solves computed them for their residual checks.
    The regime parameters broadcast against the rows: a column of distinct
    (p_u, alpha) pairs, ``pair_of_key`` mapping each row of the ``delta``
    column to its pair, solves every regime key in one pass.  Its one
    caller is :func:`_branch_table`.
    """
    _, rel_u0, rel_u1 = _mixture_root(clip_prob(q), p_u, alpha)
    post = _bayes_u(rel_u0, rel_u1, p_u)
    post_observed, post_other = post[released][pair_of_key], post[not released][pair_of_key]
    _, s0, s1 = _mixture_root(clip_prob(r_other), post_other, delta)
    return (1.0 - post_observed) * s0 + post_observed * s1


def rr_counterfactual(
    rhat_release,
    rhat_withhold,
    params: SensitivityParams,
    observed_released,
    release_prob,
):
    """Adjusted counterfactual Pr(r(other action) = 1 | observed action, x)
    for one regime.  Vectorized; ``observed_released`` is the observed
    action's release flag, a bool or a bool array.  The rows observed under
    each action are solved as the one-regime :func:`_branch_table` of
    :func:`sensitivity_sweep`, in blocks of at most ``_SWEEP_BLOCK`` rows.
    """
    q, r_rel, r_wh, observed = np.broadcast_arrays(
        np.asarray(release_prob, dtype=float),
        np.asarray(rhat_release, dtype=float),
        np.asarray(rhat_withhold, dtype=float),
        _mask(observed_released, "observed_released"),
    )
    out = np.empty(q.shape)
    for released, r_other in ((True, r_wh), (False, r_rel)):
        rows = observed == released  # a branch with no rows solves nothing
        out[rows] = _branch_table(q[rows], r_other[rows], released, [params])[0][0]
    return out if out.ndim else float(out)


def rr_estimate(
    cases: CaseTable,
    policy: Policy,
    surface: ResponseSurface,
    params: SensitivityParams,
) -> PolicyEstimate:
    """Policy value with sensitivity-adjusted counterfactuals.

    Identical to :func:`estimate_policy` except that, where the policy
    disagrees with the observed action, the counterfactual comes from the
    unobserved-covariate adjustment instead of the raw surface estimate.
    This is the one-regime case of :func:`sensitivity_sweep`.
    """
    band = sensitivity_sweep(cases, policy, surface, [params])
    return PolicyEstimate(
        action_rate=band.action_rate,
        value=band.values[0],
        method=ROSENBAUM_RUBIN,
    )


@dataclass(frozen=True)
class SensitivityBand:
    """Min/max policy-value estimates over a set of sensitivity regimes.

    The unadjusted response-surface estimate (the delta = 0 collapse) is
    always included as `baseline` and participates in the band.
    """

    low: float
    high: float
    baseline: float
    action_rate: float
    values: tuple[float, ...]

    @property
    def width(self) -> float:
        return self.high - self.low


# keys x cases solved or summed at once by sensitivity_sweep; bounds its
# temporaries to a few MiB (a dozen float arrays of this size) whatever the table size
_SWEEP_BLOCK = 1 << 15


def sensitivity_sweep(
    cases: CaseTable,
    policy: Policy,
    surface: ResponseSurface,
    regimes: Sequence[SensitivityParams],
) -> SensitivityBand:
    """The :func:`rr_estimate` value of every regime, and their band.

    A case's counterfactual under a regime does not depend on the policy, so
    ``cases`` keeps, next to the surface predictions that
    :func:`estimate_policy` shares (:func:`_predictions`, keyed on the
    identity of the immutable surface), the tables of the last regimes swept
    with that surface, reused while the regimes compare equal: per observed
    action, the table of :func:`_branch_table` (a released case needs only
    the withhold counterfactual, a withheld case only the release one).
    Other regimes replace the tables and keep the predictions.  A branch's table
    is solved the first time a policy disagrees with one of its cases, and
    holds keys x the branch's cases for as long as the ``CaseTable`` lives;
    a failed solve stores nothing.  Each call sums the disagreeing cases'
    columns in blocks and scatters each key's sum back to its regimes.  A
    key's sum depends only on the key and on the key count, so the order of
    the regimes changes no value.  A block holds at most ``_SWEEP_BLOCK``
    key-case pairs, so temporaries stay bounded whatever the number of keys
    and cases.  A regime that any case of a branch cannot solve raises a
    NumericError for every policy that disagrees with a case of that branch,
    not only for the policies that flip the failing case.
    """
    if not regimes:
        raise DataError("need at least one sensitivity regime")
    released = _decisions(policy, cases)
    regimes = tuple(regimes)
    r_rel, r_wh = _predictions(cases, surface)
    *_, swept, tables = cases._memo
    if swept != regimes:
        tables = {}
        object.__setattr__(cases, "_memo", (surface, r_rel, r_wh, regimes, tables))
    base = _surface_estimate(cases, released, r_rel, r_wh)
    disagree = released != cases.released
    totals = np.full(len(regimes), np.sum(cases.outcomes[~disagree]))
    for flag, r_other in ((True, r_wh), (False, r_rel)):
        branch = cases.released == flag
        cols = np.flatnonzero(disagree[branch])
        if not len(cols):
            continue
        if flag not in tables:
            tables[flag] = _branch_table(
                surface.release_prob(cases.X[branch]), r_other[branch], flag, regimes)
        table, key_of_regime = tables[flag]
        sums = np.zeros(len(table))
        step = max(1, _SWEEP_BLOCK // len(table))
        for block in np.split(cols, np.arange(step, len(cols), step)):
            # np.take's copy is C-ordered; table[:, block] is F-ordered and sums in another order
            sums += np.take(table, block, axis=1).sum(axis=1)
        totals += sums[key_of_regime]
    values = totals / len(cases)
    return SensitivityBand(
        low=float(min(values.min(), base.value)),
        high=float(max(values.max(), base.value)),
        baseline=base.value,
        action_rate=base.action_rate,
        values=tuple(values.tolist()),
    )


def _branch_table(q, r_other, released: bool, regimes):
    """(keys x cases counterfactual table, key of each regime) for cases all
    observed under one action, ``released`` its flag.  The regimes collapse
    to their distinct (p_u, alpha, delta of the action not taken) keys, in
    first-seen order; one :func:`_counterfactual` call per block of
    ``_SWEEP_BLOCK`` entries solves gamma and the posteriors once per
    distinct (p_u, alpha) pair and beta and the mix once per key."""
    pairs: dict[tuple[float, float], int] = {}  # (p_u, alpha) -> pair number
    pair_of_regime = [pairs.setdefault((p.p_u, p.alpha), len(pairs)) for p in regimes]
    p_u, alpha = np.array(list(pairs)).T[:, :, None]
    deltas = [p.delta_withhold if released else p.delta_release for p in regimes]
    keys: dict[tuple[int, float], int] = {}  # (pair, delta) -> key number
    key_of_regime = [keys.setdefault(k, len(keys)) for k in zip(pair_of_regime, deltas)]
    pair_of_key = np.array([pair for pair, _ in keys])
    delta = np.array([[d] for _, d in keys])
    table = np.empty((len(keys), len(q)))
    step = max(1, _SWEEP_BLOCK // len(keys))
    for start in range(0, len(q), step):
        block = slice(start, start + step)
        table[:, block] = _counterfactual(
            q[block], r_other[block], released, p_u, alpha, delta, pair_of_key)
    return table, key_of_regime


def regime_grid(alpha: float, p_values, delta_values) -> list[SensitivityParams]:
    """All combinations of prevalence and outcome shifts at one alpha."""
    return [
        SensitivityParams(p_u=p, alpha=alpha, delta_release=dr, delta_withhold=dw)
        for p in p_values
        for dr in delta_values
        for dw in delta_values
    ]
