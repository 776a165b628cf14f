"""Importance-sampling estimators for Z, KL divergences, and TVD.

All estimators work in log space and take the partition-function estimate as
an explicit argument, so a trainer can share one moving-average Z, and the
batch's weights w = P/q from `importance_ratios`, across the divergence
estimates it compares. Exact oracles over enumerated universes live at the bottom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteEstimate, NonpositiveZ, SupportViolation


@dataclass
class Estimate:
    value: float
    standard_error: float


@dataclass(frozen=True)
class ZMovingAverage:
    """Running mean of per-batch unbiased Z estimates."""

    value: float = 0.0
    iterations: int = 0

    def fold(self, z_hat: float) -> "ZMovingAverage":
        i = self.iterations
        return ZMovingAverage(value=(i * self.value + z_hat) / (i + 1), iterations=i + 1)


def _mean_se(terms: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the terms, or NonFiniteEstimate if either
    is not finite (overflowing terms are inf or nan)."""
    n = len(terms)
    se = float(np.std(terms, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    mean = float(np.mean(terms))
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NonFiniteEstimate("estimate is non-finite: its terms overflow")
    return mean, se


def importance_ratios(log_p_score: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """exp(log P - log q) per sample; the proposal must cover the EBM support."""
    if np.isneginf(log_q).any():
        raise SupportViolation("proposal assigns zero probability to a drawn sample")
    return np.exp(log_p_score - log_q)


def kl_p_from_logs(
    weights: np.ndarray, log_p_score: np.ndarray, log_pi: np.ndarray, z: float
) -> Estimate:
    """KL(p || pi) via -log z + (1/z) E_q[w log(P/pi)], w = P/q, p = P/Z."""
    if z <= 0.0:
        raise NonpositiveZ(f"KL estimator needs z > 0, got {z}")
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.zeros_like(weights)
        mass = weights > 0.0
        terms[mass] = weights[mass] * (log_p_score[mass] - log_pi[mass])
        mean, se = _mean_se(terms)
    return Estimate(value=-np.log(z) + mean / z, standard_error=se / z)


def tvd_p_from_logs(
    weights: np.ndarray, log_q: np.ndarray, log_pi: np.ndarray, z: float
) -> Estimate:
    """TVD(p, pi) via (1/2) E_q |pi/q - w/z|, w = P/q."""
    if z <= 0.0:
        raise NonpositiveZ(f"TVD estimator needs z > 0, got {z}")
    with np.errstate(over="ignore", invalid="ignore"):
        terms = 0.5 * np.abs(np.exp(log_pi - log_q) - weights / z)
        value, se = _mean_se(terms)
    return Estimate(value=value, standard_error=se)


def kl_models_from_logs(log_pi: np.ndarray, log_a: np.ndarray) -> Estimate:
    """KL(pi || a) from samples drawn from pi: mean of log(pi/a)."""
    if np.isneginf(log_a).any():
        raise SupportViolation("reference model assigns zero probability to a drawn sample")
    value, se = _mean_se(log_pi - log_a)
    return Estimate(value=value, standard_error=se)


# -- exact oracles over enumerated universes ---------------------------------


def _check_pair(d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    if d1.shape != d2.shape:
        raise ConfigError("distributions must share one universe")
    for d in (d1, d2):
        if abs(d.sum() - 1.0) > 1e-6 or (d < 0).any():
            raise ConfigError("exact divergences need normalized distributions")
    return d1, d2


def exact_kl(d1: np.ndarray, d2: np.ndarray) -> float:
    """KL(d1 || d2): the terms d1 * log(d1 / d2) on d1's support, 0 off it,
    summed over the whole universe. The terms are built in one new array;
    beside it the only arrays made are masks, one byte per entry."""
    d1, d2 = _check_pair(d1, d2)
    mass = d1 > 0
    if ((d2 <= 0) & mass).any():
        raise SupportViolation("second distribution misses support of the first")
    terms = np.zeros_like(d1)
    np.divide(d1, d2, out=terms, where=mass)
    np.log(terms, out=terms, where=mass)
    np.multiply(d1, terms, out=terms, where=mass)
    return float(np.sum(terms))
