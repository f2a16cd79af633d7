"""Synthetic bail-domain cohorts with stored potential outcomes.

The generator draws covariates (binned age, prior-failure counts, noise
features), assigns each case to a judge, draws the release decision from a
logistic selection model on the observed covariates and the judge, and draws
both potential outcomes from logistic outcome models.  Because both
potential outcomes are recorded, the exact value of any policy can be
computed and used as ground truth for the estimators that only see observed
data.  Ignorability holds by construction unless a hidden covariate is
switched on.

The generator's design is fixed; only the size, the seed and the hidden
covariate are settable.  Intercepts are calibrated by root-finding so the
cohort hits its target marginals (release rate, adverse rate among released
/ withheld) in expectation.

A cohort is a :class:`~scorekit.policy.CaseTable` (covariate layout and
potential outcomes included) plus what only the generator knows: each
case's hidden covariate ``u`` and judge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._math import expit
from .data import (
    Bins, Dataset, EncodingSpec, _freeze, encode, read_table, read_typed_table, write_table,
)
from .errors import DataError, NumericError
from .policy import ORACLE, CaseTable, Policy, PolicyEstimate, SensitivityParams, _decisions
from .srr import RELEASE, WITHHOLD

AGE_LABELS = ("18_20", "21_25", "26_30", "31_35", "36_40", "41_45", "46_50", "51_plus")
PRIOR_LABELS = ("0", "1", "2", "3", "4_plus")

# Covariate draws: ages over _AGE_SPAN, binned at _AGE_CUTS; prior failures
# 0.._PRIOR_MAX with Pr(k) proportional to _PRIOR_DECAY^k; _N_NOISE standard
# normal noise features.
_AGE_CUTS = (21, 26, 31, 36, 41, 46, 51)
_AGE_SPAN = (18, 69)
_PRIOR_MAX = 6
_PRIOR_DECAY = 0.5
_N_NOISE = 2

# Target marginals the intercepts are calibrated to.
_RELEASE_RATE = 0.69
_ADVERSE_RATE_RELEASED = 0.15
_ADVERSE_RATE_WITHHELD = 0.09

# Adverse-outcome log-odds profiles: risk falls with age, rises with prior
# failures; the withheld profile is flatter (failing after posting bail is
# rarer and less covariate-driven).
_OUTCOME_RELEASE = {
    "age_18_20": 1.8, "age_21_25": 1.4, "age_26_30": 1.0, "age_31_35": 0.7,
    "age_36_40": 0.55, "age_41_45": 0.4, "age_46_50": 0.25,
    "priors_1": 1.1, "priors_2": 1.5, "priors_3": 1.75, "priors_4_plus": 2.0,
}
_OUTCOME_WITHHOLD = {name: 0.5 * v for name, v in _OUTCOME_RELEASE.items()}

# Judges release clean-record defendants far more readily, but beyond that
# first drop the release rate correlates only weakly with risk; the large
# judge-to-judge intercept spread dominates.
_SELECTION = {
    "age_18_20": -0.96, "age_21_25": -0.72, "age_26_30": -0.51, "age_31_35": -0.35,
    "age_36_40": -0.22, "age_41_45": -0.11,
    "priors_1": -1.76, "priors_2": -2.0, "priors_3": -2.16, "priors_4_plus": -2.32,
}
_JUDGE_OFFSETS = (-1.2, -0.8, -0.4, -0.1, 0.1, 0.4, 0.9, 1.5)

# u is always drawn and recorded; without a hidden covariate it has no effects
_NO_HIDDEN_U = SensitivityParams(p_u=0.3, alpha=0.0, delta_release=0.0, delta_withhold=0.0)


@dataclass(frozen=True)
class GeneratorConfig:
    """Cohort size, seed and, optionally, a hidden covariate ``u`` with
    these effects on the decision and the outcomes."""

    n: int
    seed: int
    hidden_u: SensitivityParams | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DataError("n must be at least 1")


@dataclass(frozen=True)
class SyntheticCohort:
    """Generated cases with potential outcomes, plus each case's hidden
    covariate ``u`` (0/1) and judge id.

    ``feature_names`` and ``column_groups`` are the table's covariate layout.
    """

    table: CaseTable
    u: np.ndarray
    judges: np.ndarray

    def __post_init__(self):
        u = _freeze(np.asarray(self.u, dtype=np.int8))
        object.__setattr__(self, "u", u)
        judges = _freeze(np.asarray(self.judges))
        object.__setattr__(self, "judges", judges)
        if u.shape != (self.n,) or judges.shape != (self.n,):
            raise DataError("u and judges must have one entry per case")

    @property
    def n(self) -> int:
        return len(self.table)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.table.feature_names

    @property
    def column_groups(self) -> tuple[str, ...]:
        return self.table.column_groups

    def case_table(self) -> CaseTable:
        return self.table


def _calibrate_intercept(eta: np.ndarray, target: float, weights: np.ndarray | None = None) -> float:
    """Scalar c with (weighted) mean of sigmoid(eta + c) equal to target."""

    def achieved(c: float) -> float:
        p = expit(eta + c)
        if weights is None:
            return float(p.mean())
        return float((weights * p).sum() / weights.sum())

    lo, hi = -30.0, 30.0
    for _ in range(60):  # 60 / 2^60 is far below the 1e-6 check
        mid = 0.5 * (lo + hi)
        if achieved(mid) < target:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    if abs(achieved(c) - target) > 1e-6:
        raise NumericError(
            f"could not calibrate intercept to marginal {target}; achieved {achieved(c)}"
        )
    return c


def _linear_term(names: tuple[str, ...], X: np.ndarray, coefs: Mapping[str, float]) -> np.ndarray:
    eta = np.zeros(X.shape[0])
    for name, v in coefs.items():
        eta += v * X[:, names.index(name)]
    return eta


def bail_encoding_spec() -> EncodingSpec:
    return EncodingSpec(
        columns={
            "age": Bins(cuts=_AGE_CUTS, labels=AGE_LABELS, reference=AGE_LABELS[-1]),
            "priors": Bins(
                cuts=(1, 2, 3, 4), labels=PRIOR_LABELS, reference=PRIOR_LABELS[0]
            ),
        }
    )


def generate(config: GeneratorConfig) -> SyntheticCohort:
    """Draw a cohort; deterministic for a fixed config (seed included)."""
    rng = np.random.default_rng(config.seed)
    n = config.n

    lo, hi = _AGE_SPAN
    ages = rng.choice(np.arange(lo, hi + 1), size=n, p=_age_weights(lo, hi))
    prior_support = np.arange(_PRIOR_MAX + 1)
    prior_p = _PRIOR_DECAY ** prior_support
    priors = rng.choice(prior_support, size=n, p=prior_p / prior_p.sum())
    noise = rng.standard_normal((n, _N_NOISE))

    raw = Dataset(
        feature_names=("age", "priors") + tuple(f"noise_{j}" for j in range(_N_NOISE)),
        rows=np.column_stack([ages.astype(float), priors.astype(float), noise]),
        labels=np.zeros(n, dtype=np.int8),
    )
    enc = encode(raw, bail_encoding_spec())
    X = enc.rows
    names = enc.feature_names

    hidden = config.hidden_u or _NO_HIDDEN_U
    u = rng.binomial(1, hidden.p_u, size=n)
    judges = rng.integers(0, len(_JUDGE_OFFSETS), size=n)
    offsets = np.asarray(_JUDGE_OFFSETS, dtype=float)[judges]

    eta_sel = _linear_term(names, X, _SELECTION) + offsets + hidden.alpha * u
    c_sel = _calibrate_intercept(eta_sel, _RELEASE_RATE)
    p_release = expit(eta_sel + c_sel)
    released = rng.random(n) < p_release

    eta_rel = _linear_term(names, X, _OUTCOME_RELEASE) + hidden.delta_release * u
    c_rel = _calibrate_intercept(eta_rel, _ADVERSE_RATE_RELEASED, weights=p_release)
    po_release = rng.random(n) < expit(eta_rel + c_rel)

    eta_wh = _linear_term(names, X, _OUTCOME_WITHHOLD) + hidden.delta_withhold * u
    c_wh = _calibrate_intercept(eta_wh, _ADVERSE_RATE_WITHHELD, weights=1.0 - p_release)
    po_withhold = rng.random(n) < expit(eta_wh + c_wh)

    table = CaseTable(
        X=X,
        released=released,
        outcomes=np.where(released, po_release, po_withhold),
        po_release=po_release,
        po_withhold=po_withhold,
        feature_names=names,
        column_groups=enc.column_groups,
    )
    judge_ids = np.array([f"judge_{j:02d}" for j in range(len(_JUDGE_OFFSETS))])
    return SyntheticCohort(table=table, u=u, judges=judge_ids[judges])


def _age_weights(lo: int, hi: int) -> np.ndarray:
    ages = np.arange(lo, hi + 1)
    w = (hi + 2.0) - ages  # younger defendants more common
    return w / w.sum()


def oracle_value(table: CaseTable, policy: Policy) -> PolicyEstimate:
    """Exact policy value from the stored potential outcomes."""
    if table.po_release is None:
        raise DataError("cohort is missing potential outcomes")
    released = _decisions(policy, table)
    value = float(np.mean(np.where(released, table.po_release, table.po_withhold)))
    return PolicyEstimate(
        action_rate=float(np.mean(released)),
        value=value,
        method=ORACLE,
    )


# ---------------------------------------------------------------------------
# Cohort CSV round trip
# ---------------------------------------------------------------------------

# Trailing columns of a cohort CSV, after the features.  The reserved "__"
# prefix makes load_csv refuse the file, so evaluation code cannot silently
# treat stored potential outcomes as features.
COHORT_COLUMNS = ("action", "outcome", "judge", "__po_release", "__po_withhold", "__u")
# the 0/1 columns of a cohort CSV, in the order load_cohort_csv checks them
_CODE_COLUMNS = ("outcome", "__po_release", "__po_withhold", "__u")
# rows write_cohort_csv formats at a time
_WRITE_BLOCK = 2048


def write_cohort_csv(cohort: SyntheticCohort, path) -> None:
    """Cohort to CSV; read it back with :func:`load_cohort_csv`.

    Rows are formatted :data:`_WRITE_BLOCK` at a time, so the cell strings
    of only one block are held at once.
    """
    t = cohort.table
    actions = t.actions

    def rows():
        for start in range(0, cohort.n, _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            columns = [_float_cells(column) for column in t.X[block].T] + [
                actions[block].tolist(),
                t.outcomes[block].astype(int).tolist(),
                cohort.judges[block].tolist(),
                t.po_release[block].astype(int).tolist(),
                t.po_withhold[block].astype(int).tolist(),
                cohort.u[block].tolist(),
            ]
            yield from zip(*columns)

    write_table(path, list(cohort.feature_names) + list(COHORT_COLUMNS), rows())


def _float_cells(column: np.ndarray) -> list[str]:
    """``repr`` of every float in a column, formatted once per distinct value.

    Values are told apart by their bit pattern: ``np.unique`` on the floats
    would merge -0.0 with 0.0.
    """
    bits, inverse = np.unique(np.ascontiguousarray(column, dtype=float).view(np.uint64),
                              return_inverse=True)
    cells = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
    return cells[inverse].tolist()


def load_cohort_csv(path) -> SyntheticCohort:
    """Read a cohort CSV written by :func:`write_cohort_csv` (see
    :func:`~scorekit.data.read_typed_table` for the checks every cohort
    CSV gets).

    A feature cell that is NaN or infinite, an ``action`` cell that is not
    ``release`` or ``withhold``, and an ``outcome``, ``__po_release``,
    ``__po_withhold`` or ``__u`` cell that is not 0 or 1 raise
    :class:`DataError` naming the file, the line and the column.
    """
    header = read_table(path)[0]
    tail = len(COHORT_COLUMNS)
    if tuple(header[-tail:]) != COHORT_COLUMNS:
        raise DataError(f"{path}: not a cohort CSV (expected trailing columns {list(COHORT_COLUMNS)})")
    names = tuple(header[:-tail])
    records = read_typed_table(path, [("X", float, (len(names),))] + [
        (name, object if name in ("action", "judge") else np.int64) for name in COHORT_COLUMNS
    ])
    codes = np.column_stack([records[name] for name in _CODE_COLUMNS])
    bad = np.flatnonzero((codes != 0) & (codes != 1))
    if len(bad):
        k = bad[0]
        raise DataError(f"{path}: line {k // 4 + 2} column {_CODE_COLUMNS[k % 4]!r} "
                        f"must be 0 or 1, got {codes.flat[k]}")
    actions = records["action"]
    released = actions == RELEASE
    known = released | (actions == WITHHOLD)
    if not known.all():
        k = np.argmin(known)
        raise DataError(f"{path}: line {k + 2} column 'action' "
                        f"must be {RELEASE!r} or {WITHHOLD!r}, got {actions[k]}")
    X = np.ascontiguousarray(records["X"])
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        i, j = bad[0]
        raise DataError(f"{path}: line {i + 2} column {names[j]!r} must be a finite number, "
                        f"got {X[i, j]}")
    outcome, po_r, po_w, u = codes.astype(np.int8).T
    table = CaseTable(
        X=X,
        released=released,
        outcomes=outcome,
        po_release=po_r,
        po_withhold=po_w,
        feature_names=names,
        column_groups=_infer_groups(names),
    )
    return SyntheticCohort(table=table, u=u, judges=records["judge"].astype(str))


def _infer_groups(names: tuple[str, ...]) -> tuple[str, ...]:
    """Group the indicator columns of :func:`bail_encoding_spec`'s columns
    back under their source column; every other column is its own group."""
    sources = bail_encoding_spec().columns
    return tuple(next((c for c in sources if name.startswith(f"{c}_")), name) for name in names)
