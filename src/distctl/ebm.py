"""Unnormalized target models built from a base model and moment constraints.

Two shapes: an exponential tilt of the base (general case, parameters fitted
by self-normalized importance sampling plus SGD) and a base-times-predicate
product (shortcut when every constraint is pointwise).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import seqspace
from .errors import (
    ConfigError,
    DegenerateWeights,
    EmptySupport,
    MixedConstraints,
    UnattainableTarget,
)
from .features import ConstraintSet
from .lm import TabularARModel
from .seqspace import SampleBatch

EXPONENTIAL = "exponential"
POINTWISE_PRODUCT = "pointwise-product"

DEFAULT_LAMBDA_CLAMP = 20.0


@dataclass(kw_only=True)
class FitConfig:
    sample_count: int = 100000
    learning_rate: float = 0.5
    seed: int = 0
    tolerance: float = 0.01
    max_steps: int = 10000
    lambda_clamp: float = DEFAULT_LAMBDA_CLAMP

    def __post_init__(self):
        if self.sample_count < 1:
            raise ConfigError("must be >= 1", "sample_count")
        if not self.learning_rate > 0:
            raise ConfigError("must be > 0", "learning_rate")
        if not self.tolerance > 0:
            raise ConfigError("must be > 0", "tolerance")
        if self.max_steps < 1:
            raise ConfigError("must be >= 1", "max_steps")
        if not self.lambda_clamp > 0:
            raise ConfigError("must be > 0", "lambda_clamp")


@dataclass
class FitReport:
    lam: np.ndarray
    achieved_moments: np.ndarray
    objective: float
    steps_used: int
    converged: bool

    def to_document(self) -> dict:
        return {
            "lambda": [float(v) for v in self.lam],
            "achieved_moments": [float(v) for v in self.achieved_moments],
            "objective": float(self.objective),
            "steps_used": self.steps_used,
            "converged": self.converged,
        }


@dataclass
class Ebm:
    """score(x) = base(x) * tilt(x). `mode` reads the shape from lam and the
    constraint set: the product base(x) * b(x) when lam is empty and the set
    (all pointwise) is not, else the tilt exp(lam . phi(x)), one lam each."""

    base: TabularARModel
    constraint_set: ConstraintSet
    lam: np.ndarray
    lambda_clamp: float = DEFAULT_LAMBDA_CLAMP
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        if self.mode == EXPONENTIAL and len(self.lam) != len(self.constraint_set):
            raise ConfigError("lambda length must match the constraint count")
        if np.abs(self.lam).max(initial=0.0) > self.lambda_clamp + 1e-12:
            raise ConfigError("lambda exceeds lambda_clamp")
        if self.mode == POINTWISE_PRODUCT and not self.constraint_set.all_pointwise:
            raise MixedConstraints(
                "pointwise-product shortcut needs an all-pointwise constraint set; "
                "hybrid sets go through fit_lambda"
            )

    @property
    def mode(self) -> str:
        product = len(self.constraint_set) and not len(self.lam)
        return POINTWISE_PRODUCT if product else EXPONENTIAL

    @property
    def space(self):
        return self.base.space

    def log_score_batch(self, batch: SampleBatch) -> np.ndarray:
        return self.log_scores(
            self.base.log_prob_batch(batch), self.constraint_set.feature_matrix(batch)
        )

    def log_scores(self, log_base: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Log-scores of rows from their base log-probs and feature matrix: the
        tilt phi @ lam, or log b(x), b the product of the (all pointwise, 0 or
        1) feature columns."""
        if self.mode == POINTWISE_PRODUCT:
            with np.errstate(divide="ignore"):
                return log_base + np.log(phi.prod(axis=1))
        return log_base + phi @ self.lam

    def exact_normalize(self) -> tuple[float, np.ndarray]:
        """Exact partition function and normalized distribution over the universe.
        The tilt is applied in place in the base's prefix-DP log-probs, one
        ENUMERATION_CHUNK_ROWS block at a time, each block through `log_scores`
        with its cached universe features cast to float; then the exp, the sum
        and the divide, in place too. Beside the cached features, the
        distribution is the only universe-sized array it makes."""
        if "exact" not in self._cache:
            scores = self.base.exact_log_distribution()
            phi = self.phi_universe()
            for rows in self._universe_blocks():
                scores[rows] = self.log_scores(scores[rows], phi[rows].astype(float))
            np.exp(scores, out=scores)
            z = float(scores.sum())
            if z <= 0.0:
                raise EmptySupport("EBM scores sum to zero over the universe")
            scores /= z
            self._cache["exact"] = (z, scores)
        return self._cache["exact"]

    def phi_universe(self) -> np.ndarray:
        """Cached constraint-feature matrix over the universe, in enumeration
        order: bool when every feature is binary, one byte per sequence per
        feature, else float64. It is filled block by block from
        `feature_matrix` (`SequenceSpace.enumeration_blocks`), so the universe's
        token matrix is never built."""
        if "phi_univ" not in self._cache:
            blocks = self.space.enumeration_blocks()  # runs the guard before the allocation
            binary = all(c.feature.binary for c in self.constraint_set)
            phi = np.empty(
                (self.space.universe_size, len(self.constraint_set)),
                dtype=bool if binary else float,
            )
            row = 0
            for block in blocks:
                phi[row : row + len(block)] = self.constraint_set.feature_matrix(block)
                row += len(block)
            self._cache["phi_univ"] = phi
        return self._cache["phi_univ"]

    def universe_moments(self, dist: np.ndarray) -> np.ndarray:
        """E_dist[phi] of a distribution over the universe, in enumeration
        order, summed one ENUMERATION_CHUNK_ROWS block at a time; on a
        one-block universe that is `dist @ phi` itself."""
        phi = self.phi_universe()
        return sum(dist[rows] @ phi[rows].astype(float) for rows in self._universe_blocks())

    def exact_moments(self) -> np.ndarray:
        """Exact constraint moments of the normalized distribution, summed
        block by block (`universe_moments`)."""
        return self.universe_moments(self.exact_normalize()[1])

    def _universe_blocks(self) -> Iterator[slice]:
        """Consecutive row slices of the universe, ENUMERATION_CHUNK_ROWS rows at most."""
        n, step = self.space.universe_size, seqspace.ENUMERATION_CHUNK_ROWS
        return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def moment_preserving_perturbations(
    p: np.ndarray,
    phi: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Distributions near p with exactly p's feature moments and normalization,
    yielded one at a time: at most `count` of them.

    Random directions are projected orthogonal to the all-ones vector and every
    feature column (restricted to p's support), then added with half the
    largest step that preserves positivity. Used to sample the constraint
    manifold around an exponential-family point.
    """
    p = np.asarray(p, dtype=float)
    active = p > 0
    basis = np.column_stack([np.ones(int(active.sum())), phi[active]])
    made = attempts = 0
    while made < count and attempts < 50 * count:
        attempts += 1
        r = rng.standard_normal(int(active.sum()))
        residual = r - basis @ np.linalg.lstsq(basis, r, rcond=None)[0]
        norm = np.abs(residual).max()
        if norm < 1e-12:
            continue
        v = np.zeros_like(p)
        v[active] = residual
        negative = v < 0
        if not negative.any():
            continue
        t = 0.5 * float(np.min(p[negative] / -v[negative]))
        c = p + t * v
        c[c < 0] = 0.0  # guard against rounding at the positivity boundary
        c /= c.sum()
        made += 1
        yield c


def snis_weights(lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Normalized importance weights exp(lam . phi_i) / sum, shift-stabilized."""
    s = phi @ lam
    with np.errstate(invalid="ignore"):
        w = np.exp(s - s.max())
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateWeights("importance weights degenerated to an unusable sum")
    return w / total


def snis_moments(lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Self-normalized moment estimate from base-model samples' feature rows."""
    if phi.shape[0] < 1:
        raise ConfigError("snis_moments needs at least one sample")
    return snis_weights(lam, phi) @ phi


def snis_objective_grad(
    lam: np.ndarray, phi: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Squared moment-gap objective and its analytic gradient in lambda.

    d mu_hat_j / d lam_m is the weighted feature covariance, so the gradient
    is -2 * Cov_w(phi) @ (targets - mu_hat).
    """
    w = snis_weights(lam, phi)
    mu = w @ phi
    gap = targets - mu
    centered = phi - mu
    cov = (centered * w[:, None]).T @ centered
    return float(gap @ gap), -2.0 * (cov @ gap)


def build_pointwise(base: TabularARModel, constraint_set: ConstraintSet) -> Ebm:
    """Base-times-predicate EBM; only legal when every constraint is pointwise."""
    return Ebm(base=base, constraint_set=constraint_set, lam=np.zeros(0))


def fit_lambda(
    base: TabularARModel,
    constraint_set: ConstraintSet,
    config: FitConfig,
) -> tuple[FitReport, Ebm]:
    """Fit exponential-tilt parameters so estimated moments hit their targets.

    Draws the base-model sample set once, then descends the squared moment gap
    with the analytic SNIS gradient, clamping lambdas each step. Pointwise
    members ride along in the exponential with target 1.0.
    """
    if len(constraint_set) == 0:
        raise ConfigError("fit_lambda needs at least one constraint")
    if constraint_set.all_pointwise:
        raise ConfigError(
            "all constraints are pointwise; use build_pointwise instead of fit_lambda"
        )
    rng = np.random.default_rng(config.seed)
    samples = base.sample_batch(config.sample_count, rng)
    phi = constraint_set.feature_matrix(samples)
    targets = constraint_set.targets

    for j, spec in enumerate(constraint_set):
        lo, hi = float(phi[:, j].min()), float(phi[:, j].max())
        if targets[j] < lo or targets[j] > hi:
            raise UnattainableTarget(spec.feature.id, float(targets[j]), lo, hi)

    clamp = config.lambda_clamp
    lam = np.zeros(len(constraint_set))

    lr = config.learning_rate
    steps_used = 0
    converged = False
    while True:
        objective, grad = snis_objective_grad(lam, phi, targets)
        if objective < config.tolerance:
            converged = True
            break
        if steps_used >= config.max_steps:
            break
        lam = np.clip(lam - lr * grad, -clamp, clamp)
        steps_used += 1

    report = FitReport(
        lam=lam.copy(),
        achieved_moments=snis_moments(lam, phi),
        objective=objective,
        steps_used=steps_used,
        converged=converged,
    )
    return report, Ebm(base=base, constraint_set=constraint_set, lam=lam, lambda_clamp=clamp)
