"""Analytic AUC under additive score noise, and empirical noise-ratio estimation.

With class-conditional normal true scores of common variance sigma^2 and
independent additive N(0, sigma_eps^2) noise, the degraded AUC is

    auc_hat = Phi( Phi^{-1}(auc) / sqrt(1 + gamma) ),   gamma = sigma_eps^2 / sigma^2.

For a given simple integer rule, gamma is estimated by mapping the integer
scores back to the logit scale (undoing the rescale-and-round scaling
factor), taking the variance of the centered difference from the true model
scores, and dividing by the within-class variance of the true scores.

Normal CDF/quantile come from the standard library: ``math.erfc`` and
``statistics.NormalDist.inv_cdf`` (rational approximation, double
precision), both well below the 1e-10 relative error this module needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DataError, NumericError
from .metrics import auc

_STD_NORMAL = NormalDist()


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_ppf(q: float) -> float:
    if not 0.0 < q < 1.0:
        raise NumericError("normal quantile needs an argument strictly inside (0, 1)")
    return _STD_NORMAL.inv_cdf(q)


@dataclass(frozen=True)
class ScoreModel:
    """Class-conditional score geometry behind the AUC formula."""

    mu_p: float
    mu_n: float
    sigma: float
    sigma_eps: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise NumericError("within-class standard deviation must be positive")
        if self.sigma_eps < 0.0:
            raise NumericError("noise standard deviation cannot be negative")

    @property
    def gamma(self) -> float:
        return (self.sigma_eps / self.sigma) ** 2

    @property
    def auc_true(self) -> float:
        return norm_cdf((self.mu_p - self.mu_n) / (math.sqrt(2.0) * self.sigma))

    @property
    def auc_noisy(self) -> float:
        return auc_under_noise(self.auc_true, self.gamma)


def auc_under_noise(auc_y: float, gamma: float):
    """Exact degraded AUC; identity at gamma = 0, -> 0.5 as gamma grows."""
    if gamma < 0.0:
        raise NumericError("gamma must be nonnegative")
    auc_arr = np.asarray(auc_y, dtype=float)
    if np.any((auc_arr <= 0.0) | (auc_arr >= 1.0)):
        raise NumericError("auc_y must lie strictly inside (0, 1)")
    scale = math.sqrt(1.0 + gamma)
    out = np.vectorize(lambda a: norm_cdf(norm_ppf(a) / scale))(auc_arr)
    return float(out) if out.ndim == 0 else out


def estimate_gamma(true_scores, simple_scores, scale_factor: float, labels) -> ScoreModel:
    """Noise ratio of a simple rule relative to the true (logit-scale) scores.

    ``scale_factor`` is the rescale-and-round constant M / max|coef|; the
    integer scores divided by it live on the true-score scale.  The
    difference is centered before taking its variance because the simple
    score carries no intercept, so its level is arbitrary.  The within-class
    variance is the unweighted mean of the two class-conditional variances.
    """
    true_scores = np.asarray(true_scores, dtype=float)
    simple_scores = np.asarray(simple_scores, dtype=float)
    labels = np.asarray(labels)
    if true_scores.shape != simple_scores.shape or true_scores.shape != labels.shape:
        raise DataError("score and label vectors must all have the same length")
    if scale_factor <= 0.0:
        raise DataError("scale_factor must be positive")
    pos = labels == 1
    if not pos.any() or pos.all():
        raise DataError("both classes must be present")

    diff = simple_scores / scale_factor - true_scores
    diff = diff - diff.mean()
    sigma_eps = float(np.sqrt(np.var(diff, ddof=1)))

    var_p = float(np.var(true_scores[pos], ddof=1))
    var_n = float(np.var(true_scores[~pos], ddof=1))
    if var_p == 0.0 or var_n == 0.0:
        raise NumericError("a class has zero within-class variance of true scores")
    return ScoreModel(
        mu_p=float(true_scores[pos].mean()),
        mu_n=float(true_scores[~pos].mean()),
        sigma=math.sqrt(0.5 * (var_p + var_n)),
        sigma_eps=sigma_eps,
    )


def verify_theorem_mc(
    auc_target: float, gamma: float, n: int, seed: int = 0
) -> tuple[float, float, float]:
    """Monte-Carlo check of the formula: (empirical, analytic, |difference|).

    Samples ``n // 2`` scores per class from normals whose mean separation
    is sqrt(2) * Phi^{-1}(auc_target) (unit within-class sd), adds
    N(0, gamma) noise, and measures the rank AUC.
    """
    if n < 1000:
        raise DataError("need at least 1000 samples for a meaningful check")
    rng = np.random.default_rng(seed)
    half = n // 2
    mu_gap = math.sqrt(2.0) * norm_ppf(auc_target)
    scores = np.concatenate(
        [rng.normal(0.0, 1.0, half), rng.normal(mu_gap, 1.0, half)]
    )
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])
    noisy = scores + rng.normal(0.0, math.sqrt(gamma), 2 * half) if gamma > 0 else scores
    empirical = auc(noisy, labels)
    analytic = auc_under_noise(auc_target, gamma)
    return empirical, analytic, abs(empirical - analytic)


def theory_curve(auc_values, gamma_values) -> list[tuple[float, float, float]]:
    """(auc_y, gamma, auc_hat) grid rows for external plotting."""
    return [
        (float(a), float(g), auc_under_noise(float(a), float(g)))
        for a in np.asarray(auc_values, dtype=float)
        for g in np.asarray(gamma_values, dtype=float)
    ]
