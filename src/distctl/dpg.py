"""Adaptive distributional policy-gradient training toward an EBM target.

Each iteration draws a batch from the frozen proposal, applies importance
weighted score-function updates to the policy (weight = score(x)/q(x)), folds
the batch's partition-function estimate into a moving average, and, when
adaptivity is on, swaps the proposal for the policy whenever the policy's
estimated divergence from the target drops strictly below the proposal's.
Both divergence estimates reuse the iteration's samples and the shared
moving-average Z. A swap replaces the proposal with a fresh frozen copy of
the policy, releasing the old one first so that only one copy is held.

The proposal is state that only the iterations read. The first iteration
makes it, and Adam's moments, from the policy while the policy is still the
lifted base; `run_loop` drops both after the last iteration. The policy and
the proposal are lifted models (see `lm`): each stores the base's rows once
plus a row per context the policy has written, so a copy costs the row map
and those rows, and the moments are sized by the number of contexts, not by
a model's store. Adam steps only the contexts some gradient has touched, so
under either optimizer an iteration writes the rows it steps, not the table.

`run_loop` is the one training loop: it owns the policy initialisation,
draws from the `train` and `eval` streams of its config's seed, and takes its
snapshot cadence from the `eval` block's `EvalOptions.eval_every`. Every
trainer is an iteration of it with one signature,
`iteration(state, target, config, rng)`: `dpg_iteration` here, and
`baselines.baseline_iteration` for the comparison trainers.

`seed_streams` is the package's one maker of generators: every draw of a run
(the λ-fit's, rejection-mle's, each snapshot's, the samples file's, the
oracle's perturbations) takes one of its named streams, so no two estimates
share draws. Library functions that draw take the caller's generator.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .ebm import Ebm
from .errors import ConfigError, NumericalError
from .estimators import (
    ZMovingAverage,
    importance_ratios,
    kl_p_from_logs,
    tvd_p_from_logs,
)
from .lm import RowGradient, TabularARModel
from .metrics import EvalOptions, MetricsRecord, snapshot
from .seqspace import guard_count

ADAPTIVITY_KL = "kl"
ADAPTIVITY_TVD = "tvd"
ADAPTIVITY_NONE = "none"
ADAPTIVITIES = (ADAPTIVITY_KL, ADAPTIVITY_TVD, ADAPTIVITY_NONE)

OPTIMIZER_SGD = "sgd"
OPTIMIZER_ADAM = "adam"
OPTIMIZERS = (OPTIMIZER_SGD, OPTIMIZER_ADAM)

GDC_METHOD = "gdc"  # the method name of `train`, as a config's `trainer.method`


@dataclass(kw_only=True)
class LoopConfig:
    """Settings shared by every trainer that `run_loop` drives."""

    iterations: int = 0
    samples_per_iteration: int = 1
    learning_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0:
            raise ConfigError("must be >= 0", "iterations")
        if self.samples_per_iteration < 1:
            raise ConfigError("must be >= 1", "samples_per_iteration")
        guard_count(self.samples_per_iteration, "samples_per_iteration")
        if not self.learning_rate > 0:
            raise ConfigError("must be > 0", "learning_rate")
        if self.seed < 0:
            raise ConfigError("must be >= 0", "seed")


@dataclass(kw_only=True)
class DpgConfig(LoopConfig):
    adaptivity: str = ADAPTIVITY_KL
    optimizer: str = OPTIMIZER_SGD

    def __post_init__(self):
        super().__post_init__()
        if self.adaptivity not in ADAPTIVITIES:
            raise ConfigError(
                f"must be one of {ADAPTIVITIES}, got {self.adaptivity!r}", "adaptivity"
            )
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"must be one of {OPTIMIZERS}, got {self.optimizer!r}", "optimizer")


@dataclass
class AdamState:
    """First/second moment accumulators for the batch-gradient preconditioner,
    one row per context, and a mask of the contexts some gradient has
    touched. An untouched context has zero moments, so its step is exactly
    0.0: `step` updates and returns the touched rows only."""

    m: np.ndarray
    v: np.ndarray
    touched: np.ndarray
    t: int = 0

    @classmethod
    def like(cls, model: TabularARModel) -> "AdamState":
        """Zero moments, one row per context of `model`."""
        shape = (model.coding.n_contexts, model.space.vocabulary.size)
        return cls(m=np.zeros(shape), v=np.zeros(shape), touched=np.zeros(shape[0], dtype=bool))

    def step(self, grad: RowGradient) -> RowGradient:
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        self.touched[grad.rows] = True
        rows = np.flatnonzero(self.touched)
        g = np.zeros((len(rows), self.m.shape[1]))  # zero on the rows this batch missed
        g[np.searchsorted(rows, grad.rows)] = grad.values
        m = self.m[rows] = b1 * self.m[rows] + (1 - b1) * g
        v = self.v[rows] = b2 * self.v[rows] + (1 - b2) * g * g
        m_hat = m / (1 - b1**self.t)
        v_hat = v / (1 - b2**self.t)
        return RowGradient(rows, m_hat / (np.sqrt(v_hat) + eps))


@dataclass
class IterationDecision:
    iteration: int
    z_hat: float
    div_policy: float | None
    div_proposal: float | None
    swapped: bool


@dataclass
class TrainState:
    policy: TabularARModel
    # DPG only, and only from the first iteration through the last (`end_iterations`):
    proposal: TabularARModel | None = None  # the frozen proposal the training draws come from
    adam: AdamState | None = None  # the optimizer's moments, when it is Adam
    zma: ZMovingAverage = field(default_factory=ZMovingAverage)
    history: list[MetricsRecord] = field(default_factory=list)
    decisions: list[IterationDecision] = field(default_factory=list)
    beta: float | None = None  # a kl-penalized run's beta, moved by its controller
    proposal_updates: int = 0
    iteration: int = 0
    samples_drawn: int = 0

    def end_iterations(self) -> None:
        """Drop what only the iterations read: the proposal and Adam's moments."""
        self.proposal = self.adam = None


@dataclass
class TrainResult:
    policy: TabularARModel
    history: list[MetricsRecord]
    state: TrainState


SeedStreams = namedtuple("SeedStreams", "fit train eval samples")  # np.random.Generator each


def seed_streams(seed: int) -> SeedStreams:
    """A run's independent RNG streams, the package's one maker of
    generators. `fit`, the λ-fit's base draws, is the root stream
    `default_rng(seed)`; `train`, `eval` and `samples` are the seed's
    spawned children 0-2. A spawned stream depends only on its index, so
    adding one leaves the others as they were."""
    return SeedStreams(*map(np.random.default_rng, [seed, *np.random.SeedSequence(seed).spawn(3)]))


def init_state(base: TabularARModel, config: LoopConfig) -> TrainState:
    """Policy starts as the base distribution re-expressed at trainable capacity.

    A DPG run's proposal waits for its first iteration (`dpg_iteration`); the
    comparison trainers sample from the policy itself and have none.
    """
    policy = base.to_order(max(base.order, base.space.lmax), trainable=True)
    return TrainState(policy=policy, beta=getattr(config, "beta", None))


def dpg_iteration(
    state: TrainState, target: Ebm, config: DpgConfig, rng: np.random.Generator
) -> TrainState:
    """One DPG step. The first one starts the proposal as a frozen copy of
    the policy (its row map and stored rows); each swap takes a new one."""
    if state.proposal is None:
        state.proposal = state.policy.frozen_copy()
        if config.optimizer == OPTIMIZER_ADAM:
            state.adam = AdamState.like(state.policy)
    k = config.samples_per_iteration
    samples = state.proposal.sample_batch(k, rng)
    state.samples_drawn += k
    log_q = state.proposal.log_prob_batch(samples)
    log_p_score = target.log_score_batch(samples)
    weights = importance_ratios(log_p_score, log_q)

    grad = state.policy.grad_weighted_sum(samples, weights)
    if state.adam is not None:
        grad = state.adam.step(RowGradient(grad.rows, grad.values / k))
        learning_rate = config.learning_rate
    else:
        learning_rate = config.learning_rate / k
    state.policy.apply_update(grad, learning_rate)

    z_hat = float(np.add.reduce(weights) / k)  # bitwise `np.mean`, without its overhead
    state.zma = state.zma.fold(z_hat)

    div_policy = div_proposal = None
    swapped = False
    if config.adaptivity != ADAPTIVITY_NONE and state.zma.value > 0.0:
        log_pi = state.policy.log_prob_batch(samples)
        if config.adaptivity == ADAPTIVITY_KL:
            divergence = partial(kl_p_from_logs, weights, log_p_score)
        else:
            divergence = partial(tvd_p_from_logs, weights, log_q)
        div_policy = divergence(log_pi, state.zma.value).value
        div_proposal = divergence(log_q, state.zma.value).value
        if div_policy < div_proposal:
            state.proposal = None  # released first, so one proposal is held at a time
            state.proposal = state.policy.frozen_copy()
            state.proposal_updates += 1
            swapped = True
    state.decisions.append(
        IterationDecision(
            iteration=state.iteration,
            z_hat=z_hat,
            div_policy=div_policy,
            div_proposal=div_proposal,
            swapped=swapped,
        )
    )
    state.iteration += 1
    return state


def run_loop(
    base: TabularARModel,
    target: Ebm,
    config: LoopConfig,
    method: str,
    iteration: Callable[[TrainState, Ebm, LoopConfig, np.random.Generator], TrainState],
    eval_options: EvalOptions | None = None,
) -> TrainResult:
    """Run `iteration(state, target, config, rng_train)` for `config.iterations`
    iterations, with a metric snapshot before the first and after every
    `eval_options.eval_every`-th. `method` labels the snapshots. After the last
    iteration the state drops what only the iterations read
    (`TrainState.end_iterations`), before that step's snapshot.

    Training and evaluation consume the `train` and `eval` streams of
    `seed_streams(config.seed)`, so snapshot cadence never perturbs the
    training trajectory. A NumericalError raised by iteration i or by its
    snapshot (i = 0: the snapshot before the first) stops the run with its
    message prefixed `iteration i: `.
    """
    if target.base.space != base.space:
        raise ConfigError("target EBM and trained base must share one sequence space")
    eval_options = eval_options or EvalOptions()
    streams = seed_streams(config.seed)
    state = init_state(base, config)
    for i in range(config.iterations + 1):
        try:
            if i > 0:
                iteration(state, target, config, streams.train)
                if i == config.iterations:
                    state.end_iterations()
            if i % eval_options.eval_every == 0:
                record = snapshot(
                    i, method, state.policy, target, streams.eval, eval_options, state.zma.value
                )
                state.history.append(record)
        except NumericalError as e:
            raise e.at_iteration(i)
    return TrainResult(policy=state.policy, history=state.history, state=state)


def train(
    base: TabularARModel,
    target: Ebm,
    config: DpgConfig,
    eval_options: EvalOptions | None = None,
) -> TrainResult:
    """Adaptive DPG toward `target`, one `dpg_iteration` per loop step."""
    return run_loop(base, target, config, GDC_METHOD, dpg_iteration, eval_options)
