"""Comparison trainers: reward-maximizing policy gradient, KL-penalized reward,
and rejection sampling followed by a supervised k-gram fit.

The KL-penalized trainer is a plain score-function policy gradient on the
penalized per-sample reward (no PPO machinery); with beta = 0 it reduces
bitwise to the plain feature-reward trainer.
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

# Multiplicative step of the adaptive-beta controller in `kl_penalized_step`.
BETA_STEP = 0.1

# Rows that `rejection_mle` draws from the base at a time.
_REJECTION_CHUNK = 8192


@dataclass(kw_only=True)
class BaselineConfig(LoopConfig):
    kind: str
    beta: float | None = None
    beta_adaptive: bool = False
    kl_target: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in TRAINER_KINDS:
            raise ConfigError(f"must be one of {TRAINER_KINDS}, got {self.kind!r}", "kind")
        if (self.beta is not None) != (self.kind == KL_PENALIZED):
            raise ConfigError("must be given exactly when kind is kl-penalized", "beta")
        if self.beta is not None and not self.beta >= 0:
            raise ConfigError("must be >= 0", "beta")
        if self.beta_adaptive and self.kl_target is None:
            raise ConfigError("needs a kl_target", "beta_adaptive")


def reinforce_step(
    policy: TabularARModel,
    reward_fn,
    k: int,
    learning_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One policy-gradient step on samples from the policy itself.

    Applies learning_rate * mean_k(reward * grad log pi); returns the rewards.
    """
    samples = policy.sample_batch(k, rng)
    rewards = np.asarray(reward_fn(samples), dtype=float)
    grad = policy.grad_weighted_sum(samples, rewards)
    policy.apply_update(grad, learning_rate / k)
    return rewards


def kl_penalized_step(
    policy: TabularARModel,
    base: TabularARModel,
    reward_fn,
    beta: float,
    k: int,
    learning_rate: float,
    rng: np.random.Generator,
    beta_adaptive: bool = False,
    kl_target: float | None = None,
) -> float:
    """Policy-gradient step on reward(x) - beta * log(pi(x)/a(x)); returns new beta.

    When adaptive, beta moves multiplicatively by (1 + BETA_STEP): up while the
    estimated KL(pi||a) exceeds the target, down otherwise.
    """
    samples = policy.sample_batch(k, rng)
    rewards = np.asarray(reward_fn(samples), dtype=float)
    log_ratio = policy.log_prob_batch(samples) - base.log_prob_batch(samples)
    penalized = rewards - beta * log_ratio
    grad = policy.grad_weighted_sum(samples, penalized)
    policy.apply_update(grad, learning_rate / k)
    if beta_adaptive:
        estimated_kl = float(log_ratio.mean())
        if estimated_kl > kl_target:
            beta = beta * (1.0 + BETA_STEP)
        else:
            beta = beta / (1.0 + BETA_STEP)
    return beta


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
    """Sample the base, keep the sequences whose pointwise features are all 1,
    MLE-fit on them."""
    pointwise = np.array([c.pointwise for c in constraint_set], dtype=bool)
    if not pointwise.any():
        raise NoPointwiseConstraints("constraint set has no pointwise members")
    budget = config.sample_budget
    rng = np.random.default_rng(config.seed)
    tokens, lengths = [], []
    drawn = 0
    while drawn < budget:
        n = min(_REJECTION_CHUNK, budget - drawn)
        batch = base.sample_batch(n, rng)
        drawn += n
        accept = (constraint_set.feature_matrix(batch)[:, pointwise] == 1.0).all(axis=1)
        tokens.append(batch.tokens[accept])
        lengths.append(batch.lengths[accept])
    kept = SampleBatch(tokens=np.concatenate(tokens), lengths=np.concatenate(lengths))
    stats = RejectionStats(drawn=drawn, kept=len(kept))
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
    """Run a policy-gradient baseline through the distributional trainer's loop.
    The feature reward is the sum over constraint features (a single
    constraint's reward is just its feature). The final state keeps the final
    beta."""
    constraint_set = target.constraint_set

    def phi_reward(batch: SampleBatch) -> np.ndarray:
        return constraint_set.feature_matrix(batch).sum(axis=1)

    def score_reward(batch: SampleBatch) -> np.ndarray:
        return np.exp(target.log_score_batch(batch))

    k, lr = config.samples_per_iteration, config.learning_rate
    beta = config.beta

    def step(state: TrainState, rng: np.random.Generator) -> None:
        nonlocal beta
        if config.kind == KL_PENALIZED:
            beta = kl_penalized_step(
                state.policy, base, phi_reward, beta, k, lr, rng,
                beta_adaptive=config.beta_adaptive, kl_target=config.kl_target,
            )
        else:
            reward = phi_reward if config.kind == REINFORCE_PHI else score_reward
            reinforce_step(state.policy, reward, k, lr, rng)

    state = run_loop(base, target, config, config.kind, step, eval_options)
    state.beta = beta
    return TrainResult(policy=state.policy, history=state.history, state=state)
