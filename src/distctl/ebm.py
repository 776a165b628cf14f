"""Unnormalized target models built from a base model and moment constraints.

Every target has one shape, the I-projection of the base onto its constraints:
P(x) = a(x) * b(x) * exp(lam . phi(x)), with a the base, b the product of the
pointwise (0 or 1) features and phi the distributional features. lam is
fitted by self-normalized importance sampling plus SGD on the base samples
with b = 1; a pointwise-only target has no lam to fit.
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
    UnattainableTarget,
)
from .features import ConstraintSet
from .lm import TabularARModel
from .seqspace import SampleBatch

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
    """score(x) = base(x) * b(x) * exp(lam . phi(x)): b is the product of the
    constraint set's pointwise (0 or 1) columns, phi its distributional columns,
    one lam each in constraint order (a pointwise-only target has an empty lam)."""

    base: TabularARModel
    constraint_set: ConstraintSet
    lam: np.ndarray
    lambda_clamp: float = DEFAULT_LAMBDA_CLAMP
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        pointwise = self.constraint_set.pointwise
        self.pointwise_columns = np.flatnonzero(pointwise)
        self.lambda_columns = np.flatnonzero(~pointwise)
        if len(self.lam) != len(self.lambda_columns):
            raise ConfigError("lambda length must match the distributional constraint count")
        if np.abs(self.lam).max(initial=0.0) > self.lambda_clamp + 1e-12:
            raise ConfigError("lambda exceeds lambda_clamp")

    @property
    def space(self):
        return self.base.space

    def log_score_batch(self, batch: SampleBatch) -> np.ndarray:
        return self.log_scores(
            self.base.log_prob_batch(batch), self.constraint_set.feature_matrix(batch)
        )

    def log_scores(self, log_base: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Log-scores of rows from their base log-probs and feature matrix:
        log b(x), b the product of the pointwise columns, then the tilt of the
        distributional columns by lam. A term whose columns are absent is not
        added at all."""
        scores = log_base
        if len(self.pointwise_columns):
            with np.errstate(divide="ignore"):
                scores = scores + np.log(phi[:, self.pointwise_columns].prod(axis=1))
        if len(self.lambda_columns):
            scores = scores + phi[:, self.lambda_columns] @ self.lam
        return scores

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


def fit_lambda(
    base: TabularARModel,
    constraint_set: ConstraintSet,
    config: FitConfig,
) -> tuple[FitReport, Ebm]:
    """The target of a constraint set, with lam fitted so the estimated
    moments of its distributional constraints hit their targets.

    A set with no distributional constraint has no lam: the fit returns at
    once, converged at step 0, and draws nothing. Otherwise it draws the
    base-model sample set once and keeps the rows whose pointwise columns are
    all 1 (b(x) = 0 elsewhere, so they carry no weight); then it checks each
    target against the kept rows' feature hull and descends the squared moment
    gap with the analytic SNIS gradient, clamping lambdas each step.
    """
    if len(constraint_set) == 0:
        raise ConfigError("fit_lambda needs at least one constraint")
    clamp = config.lambda_clamp
    pointwise = constraint_set.pointwise
    if pointwise.all():
        empty = np.zeros(0)
        report = FitReport(empty, empty, objective=0.0, steps_used=0, converged=True)
        return report, Ebm(base=base, constraint_set=constraint_set, lam=empty, lambda_clamp=clamp)
    rng = np.random.default_rng(config.seed)
    samples = base.sample_batch(config.sample_count, rng)
    phi = constraint_set.feature_matrix(samples)
    specs = [c for c in constraint_set if not c.pointwise]
    targets = constraint_set.targets[~pointwise]
    if pointwise.any():
        kept = (phi[:, pointwise] == 1.0).all(axis=1)
        if not kept.any():
            ids = ", ".join(repr(c.feature.id) for c in constraint_set if c.pointwise)
            raise EmptySupport(f"no base sample satisfies the pointwise constraints {ids}")
        phi = phi[kept][:, ~pointwise]

    for j, spec in enumerate(specs):
        lo, hi = float(phi[:, j].min()), float(phi[:, j].max())
        if targets[j] < lo or targets[j] > hi:
            raise UnattainableTarget(spec.feature.id, float(targets[j]), lo, hi)

    lam = np.zeros(len(specs))
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
