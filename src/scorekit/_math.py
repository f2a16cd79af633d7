"""Small numerical helpers used by several modules."""

from __future__ import annotations

import numpy as np

# Probabilities are clamped away from {0, 1} before any logit-scale solve;
# the mixture equations are undefined at the boundary.
PROB_CLIP = 1e-6


def expit(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))  # never overflows; equals exp(z) where z < 0
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def logit(p: float) -> float:
    return float(np.log(p) - np.log1p(-p))


def clip_prob(p):
    return np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)


def log_likelihood_bernoulli(eta, y):
    """Sum of Bernoulli log-likelihoods given linear predictors `eta`, over
    the last axis: a float for one vector, one sum per row of a matrix."""
    eta = np.asarray(eta, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.sum(y * eta - np.logaddexp(0.0, eta), axis=-1)
    return float(out) if out.ndim == 0 else out


def round_half_away_from_zero(x):
    """Round to nearest integer with exact .5 values rounded away from zero."""
    x = np.asarray(x, dtype=float)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)
