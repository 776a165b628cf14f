"""Comparison trainers: reward-maximizing policy gradient, KL-penalized reward,
and rejection sampling followed by a supervised k-gram fit.

The policy-gradient trainers are iterations of `dpg.run_loop` with DPG's
signature: `baseline_iteration` draws an on-policy batch and feeds one
per-sample weight to the same score-function update as `dpg_iteration`.
The weight is the reward of the trainer's kind; the KL-penalized trainer
subtracts beta * log(pi/a) from the feature reward (no PPO machinery), so
with beta = 0 it reduces bitwise to the plain feature-reward trainer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dpg import LoopConfig, TrainResult, TrainState, run_loop
from .ebm import Ebm
from .errors import ConfigError, NoAcceptedSamples, NoPointwiseConstraints
from .features import ConstraintSet
from .lm import TabularARModel, check_fit_args, mle_fit
from .metrics import EvalOptions
from .seqspace import SampleBatch

REINFORCE_PHI = "reinforce-phi"
REINFORCE_P = "reinforce-P"
KL_PENALIZED = "kl-penalized"
REJECTION_MLE = "rejection-mle"

TRAINER_KINDS = (REINFORCE_PHI, REINFORCE_P, KL_PENALIZED)

# Multiplicative step of the beta controller in `baseline_iteration`.
BETA_STEP = 0.1

@dataclass(kw_only=True)
class BaselineConfig(LoopConfig):
    kind: str
    beta: float | None = None
    kl_target: float | None = None  # set: a controller moves beta toward this KL(pi || a)

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in TRAINER_KINDS:
            raise ConfigError(f"must be one of {TRAINER_KINDS}, got {self.kind!r}", "kind")
        if (self.beta is not None) != (self.kind == KL_PENALIZED):
            raise ConfigError("must be given exactly when kind is kl-penalized", "beta")
        if self.beta is not None and not self.beta >= 0:
            raise ConfigError("must be >= 0", "beta")
        if self.kl_target is not None and self.kind != KL_PENALIZED:
            raise ConfigError("must be given only when kind is kl-penalized", "kl_target")
        if self.kl_target is not None and not self.kl_target >= 0:
            raise ConfigError("must be >= 0", "kl_target")


def baseline_iteration(
    state: TrainState, target: Ebm, config: BaselineConfig, rng: np.random.Generator
) -> TrainState:
    """One policy-gradient step on samples from the policy itself.

    Applies learning_rate * mean_k(weight * grad log pi), where the weight is
    the feature sum (reinforce-phi), the target score (reinforce-P), or the
    feature sum - beta * log(pi(x)/a(x)) with a the target's base
    (kl-penalized). With a `kl_target`, beta then moves multiplicatively by
    (1 + BETA_STEP): up while the estimated KL(pi||a) exceeds the target,
    down otherwise.
    """
    k = config.samples_per_iteration
    samples = state.policy.sample_batch(k, rng)
    state.samples_drawn += k
    if config.kind == REINFORCE_P:
        weights = np.exp(target.log_score_batch(samples))
    else:
        weights = target.constraint_set.feature_matrix(samples).sum(axis=1)
    if config.kind == KL_PENALIZED:
        log_ratio = state.policy.log_prob_batch(samples) - target.base.log_prob_batch(samples)
        weights = weights - state.beta * log_ratio
    grad = state.policy.grad_weighted_sum(samples, weights)
    state.policy.apply_update(grad, config.learning_rate / k)
    if config.kl_target is not None:
        if float(log_ratio.mean()) > config.kl_target:
            state.beta = state.beta * (1.0 + BETA_STEP)
        else:
            state.beta = state.beta / (1.0 + BETA_STEP)
    state.iteration += 1
    return state


@dataclass(kw_only=True)
class RejectionConfig:
    """Rejection sampling from the base, then an order-`fit_order` MLE fit."""

    sample_budget: int
    fit_order: int
    fit_smoothing: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.sample_budget < 1:
            raise ConfigError("must be >= 1", "sample_budget")
        check_fit_args(self.fit_order, self.fit_smoothing, prefix="fit_")
        if self.seed < 0:
            raise ConfigError("must be >= 0", "seed")


@dataclass
class RejectionStats:
    drawn: int
    kept: int

    @property
    def acceptance_rate(self) -> float:
        return self.kept / self.drawn if self.drawn else 0.0


def rejection_mle(
    base: TabularARModel, constraint_set: ConstraintSet, config: RejectionConfig
) -> tuple[TabularARModel, RejectionStats]:
    """Sample the base block by block (`sample_blocks`), keep the sequences
    whose pointwise features are all 1, MLE-fit on them."""
    pointwise = constraint_set.pointwise
    if not pointwise.any():
        raise NoPointwiseConstraints("constraint set has no pointwise members")
    budget = config.sample_budget
    rng = np.random.default_rng(config.seed)
    tokens, lengths = [], []
    for block in base.sample_blocks(budget, rng):
        accept = (constraint_set.feature_matrix(block)[:, pointwise] == 1.0).all(axis=1)
        tokens.append(block.tokens[accept])
        lengths.append(block.lengths[accept])
    kept = SampleBatch(tokens=np.concatenate(tokens), lengths=np.concatenate(lengths))
    stats = RejectionStats(drawn=budget, kept=len(kept))
    if not stats.kept:
        raise NoAcceptedSamples(
            f"no sample satisfied the pointwise predicate within budget {budget}"
        )
    model = mle_fit(base.space, kept, order=config.fit_order, smoothing=config.fit_smoothing)
    return model, stats


def train_baseline(
    base: TabularARModel,
    target: Ebm,
    config: BaselineConfig,
    eval_options: EvalOptions | None = None,
) -> TrainResult:
    """A policy-gradient baseline through the distributional trainer's loop,
    one `baseline_iteration` per loop step. The feature reward is the sum over
    constraint features (a single constraint's reward is just its feature).
    The final state keeps the final beta."""
    return run_loop(base, target, config, config.kind, baseline_iteration, eval_options)
