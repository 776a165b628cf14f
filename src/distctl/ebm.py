"""Unnormalized target models built from a base model and moment constraints.

Every target has one shape, the I-projection of the base onto its constraints:
P(x) = a(x) * b(x) * exp(lam . phi(x)), with a the base, b the product of the
pointwise (0 or 1) features and phi the distributional features. lam is fitted
by damped Newton on the convex dual, estimated by self-normalized importance
sampling on the base samples with b = 1; a pointwise-only target has none.

The target's exact quantities come from a DP over (step t, base context c,
feature state s), with no universe-sized array: the base's next-token
distribution depends on c only, and b and phi on the state their product
automaton (`ConstraintSet.automaton`) ends in. A backward pass gives
beta(t, c, s), the tilted mass of every completion, so Z = beta(0, (), start)
and the target's own next-token law is
p(v | t, c, s) = a(v | c) * beta(t + 1, c', s') / beta(t, c, s); p is thus an
exact autoregressive model, and a prefix h has p-mass a(h) * beta(t, c, s) / Z.
`Ebm.exact_target` caches the beta tables once per target, one
(contexts, states) table per step, guarded by `exact_target_automaton`. At
the last step every child's beta is b * exp(lam . phi) of its state, so
there a context counts only through its stored base row, and the table is
kept per row. beta is linear in that terminal value, so the same pass with
terminal b * exp(lam . phi) * phi_j gives Z * E_p[phi_j]
(`Ebm.exact_target_terms`, the expectation-semiring sum by linearity).
`Ebm.exact_policy_terms` runs the forward pass that a policy's exact
KL(p || pi) and E_pi[phi] need, forming p's next-token laws as it reads them.
The `oracle` command's Pythagorean check alone reaches the universe: by
two prefix passes in enumeration order, the base's log-probs
(`lm.exact_log_distribution`) and the automaton's final states
(`Ebm.universe_states`), which `exact_normalize` joins into p.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import seqspace
from .errors import (
    AutomatonTooLarge,
    ConfigError,
    DegenerateWeights,
    EmptySupport,
    SupportViolation,
    UnattainableTarget,
)
from .features import Automaton, ConstraintSet
from .lm import TabularARModel
from .seqspace import SampleBatch

DEFAULT_LAMBDA_CLAMP = 20.0
MAX_HALVINGS = 30  # a Newton step halved this often without lowering the dual stops the fit


@dataclass(kw_only=True)
class FitConfig:
    sample_count: int = 100000
    seed: int = 0
    tolerance: float = 0.01
    max_steps: int = 10000
    lambda_clamp: float = DEFAULT_LAMBDA_CLAMP

    def __post_init__(self):
        if self.sample_count < 1:
            raise ConfigError("must be >= 1", "sample_count")
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
    rows_used: int  # the drawn rows the fit weighs: those with b = 1
    converged: bool

    def to_document(self) -> dict:
        return {
            "lambda": [float(v) for v in self.lam],
            "achieved_moments": [float(v) for v in self.achieved_moments],
            "objective": float(self.objective),
            "steps_used": self.steps_used,
            "rows_used": self.rows_used,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class ExactTarget:
    """The exact DP of a target (see the module docstring). `beta[t]` is
    beta(t, c, s) as a (keys, states) table, keyed as `_step_keys` says: for
    t < lmax - 1 by the b**min(t, m) base contexts, the last min(t, m)
    tokens as a base-b numeral (m the base's context length), and at the
    last step by the base's stored rows. At lmax, where EOS is forced, beta
    is `value` for every context. The tables hold no vocabulary axis:
    p(v | t, c, s) is formed where it is read."""

    automaton: Automaton  # the constraint set's product automaton
    value: np.ndarray  # (states,): b * exp(lam . phi) of a sequence ending in the state
    beta: list[np.ndarray]
    z: float


def _step_keys(base: TabularARModel, t: int, contexts):
    """Where step t's tables put these base contexts: at their numeral, or
    at the last step, where every child's beta is `value` so that the step
    reads a context only through its row, at their stored base row."""
    if t + 1 < base.space.lmax:
        return contexts
    return base.row_map[base.coding.step_offset(t) :][contexts]


def _step_size(base: TabularARModel, t: int) -> int:
    """How many keys step t's tables have (`_step_keys`)."""
    if t + 1 < base.space.lmax:
        return base.space.body_size ** min(t, base.coding.m_eff)
    return len(base.log_softmax)


def exact_target_automaton(base: TabularARModel, constraint_set: ConstraintSet) -> Automaton:
    """The constraint set's product automaton, once the target DP's tables
    over it are known to fit: their cells, the keys of every step
    (`_step_size`) times the states, may not pass ENUMERATION_GUARD, the
    most rows the universe guard lets an enumeration hold. Raises
    AutomatonTooLarge past that, or past MAX_FEATURE_STATES product states."""
    auto = constraint_set.automaton(base.space)
    cells = sum(_step_size(base, t) for t in range(base.space.lmax)) * auto.n_states
    if cells > seqspace.ENUMERATION_GUARD:
        raise AutomatonTooLarge(
            f"the exact target's DP would hold {cells} (step, base context, state) cells, "
            f"more than {seqspace.ENUMERATION_GUARD}"
        )
    return auto


def _child_contexts(contexts: np.ndarray, rank, b: int, t: int, m: int) -> np.ndarray:
    """The base context at t + 1 after a context at t takes the body token of
    this rank (broadcast)."""
    return (contexts * b + rank) % b ** min(t + 1, m)


def _group(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in 0..size-1, ascending, and each key's index among
    them, as `np.unique(keys, return_inverse=True)` gives them. When the key
    range is at most a few times the key count they come from a count over
    it, which makes fewer keys-sized arrays than the sort: a part's arrays
    set the walk's peak, and `test_metrics`' warm exact snapshot peaks at
    0.86 universe-sized arrays so, against 1.20 by sorting alone."""
    if size > 4 * len(keys):
        return np.unique(keys, return_inverse=True)
    seen = np.bincount(keys, minlength=size) > 0
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[keys]


def _backward(base: TabularARModel, auto: Automaton, terminal: np.ndarray) -> Iterator[np.ndarray]:
    """The backward pass for a terminal vector, (states,): the tables
    beta(t, c, s) = sum over the completions of (c, s) at t of their base
    probability times `terminal` of the state they end in, yielded from the
    last step back to step 0. Each step runs one token at a time over
    (keys, states) tables, so nothing has a vocabulary axis, and keys the
    last step by stored base row. beta is linear in `terminal`: a consumer
    that keeps only the last table holds two at a time."""
    space, log_a = base.space, base.log_softmax
    body = np.asarray(space.vocabulary.body_indices, dtype=np.int64)
    eos, b, m = space.vocabulary.eos_index, space.body_size, base.coding.m_eff
    step_states = auto.delta[:, body]
    after = auto.delta.T  # the state after each token, EOS staying
    # the last step, per stored row: a(v | row) times `terminal` after v
    beta = sum(np.exp(log_a[:, v])[:, None] * terminal[after[v]] for v in range(len(after)))
    yield beta
    for t in reversed(range(space.lmax - 1)):
        lo = base.coding.step_offset(t)
        rows = base.row_map[lo : lo + b ** min(t, m)]  # the stored row of each context at t
        contexts = np.arange(len(rows))
        beta_t = np.exp(log_a[rows, eos])[:, None] * terminal
        for r, v in enumerate(body):
            keys = _step_keys(base, t + 1, _child_contexts(contexts, r, b, t, m))
            child = beta[keys[:, None], step_states[:, r]]  # a fresh gather, scaled in place
            beta_t += np.multiply(child, np.exp(log_a[rows, v])[:, None], out=child)
        beta = beta_t
        yield beta


def _start(base: TabularARModel, beta_0: np.ndarray) -> float:
    """beta(0, (), start) from step 0's table: every automaton starts in state 0."""
    return float(beta_0[_step_keys(base, 0, np.zeros(1, dtype=np.int64))[0], 0])


def _exact_target(ebm: "Ebm") -> ExactTarget:
    """The backward pass with terminal `value`, every table kept."""
    auto = exact_target_automaton(ebm.base, ebm.constraint_set)
    value = np.exp(ebm.log_scores(np.zeros(auto.n_states), auto.values))
    beta = list(_backward(ebm.base, auto, value))[::-1]
    z = _start(ebm.base, beta[0])
    if not z > 0.0:
        raise EmptySupport("EBM scores sum to zero over the universe")
    return ExactTarget(automaton=auto, value=value, beta=beta, z=z)


class _PolicyWalk:
    """The forward pass of `Ebm.exact_policy_terms`, depth first over parts
    of at most ENUMERATION_CHUNK_ROWS (joint context, state) pairs.

    A pair holds the joint context, the last max(m_a, m_pi) tokens as a
    base-b numeral, the automaton's state, and the p- and policy masses of
    its prefixes. A part's children are made a part at a time, so the pass
    holds a few parts per step, never a whole step. Once the context drops a
    token, equal pairs within a part merge; parts stay independent, so a
    bounded-order policy whose contexts outnumber a part visits some of them
    once per part. The vocabulary-wide work of a part is done once per
    (stored policy row, base context, state) group, or at the last step per
    (stored policy row, stored base row, state), so shared rows are read
    once; each pair then takes its group's scalars, and
    the sums run over the pairs in their own order, so the result does not
    depend on how the policy stores its rows.
    """

    def __init__(self, target: "Ebm", policy: TabularARModel):
        space = target.space
        self.dp = target.exact_target()
        self.base, self.policy = target.base, policy
        self.body = np.asarray(space.vocabulary.body_indices, dtype=np.int64)
        self.eos, self.b, self.lmax = space.vocabulary.eos_index, space.body_size, space.lmax
        self.m_a, self.m_pi = target.base.coding.m_eff, policy.coding.m_eff
        self.m = max(self.m_a, self.m_pi)
        self.step_states = self.dp.automaton.delta[:, self.body]

    def terms(self) -> tuple[float, np.ndarray]:
        """KL(p || pi) and E_pi[phi]: every part's terms, summed in the order
        the walk visits the parts, each before its children. The walk keeps a
        stack of child-part generators, one per step, so its depth is lmax
        whatever Python's recursion limit."""
        start = np.zeros(1, dtype=np.int64)  # the empty context, in the automaton's state 0
        pending = [iter([(0, start, start, np.ones(1), np.ones(1))])]
        kl, e_phi = 0.0, np.zeros(self.dp.automaton.values.shape[1])
        while pending:
            part = next(pending[-1], None)
            if part is None:
                pending.pop()
                continue
            part_kl, part_phi, children = self._visit(*part)
            kl, e_phi = kl + part_kl, e_phi + part_phi
            if children is not None:
                pending.append(children)
        return kl, e_phi

    def _visit(
        self, t: int, context: np.ndarray, state: np.ndarray, p_mass: np.ndarray,
        pi_mass: np.ndarray,
    ):
        """The KL(p || pi) and E_pi[phi] terms of one part's pairs at step t,
        and a generator of its children's parts (None at the last step)."""
        b, states = self.b, self.dp.automaton.n_states
        keys = context % b ** min(t, self.m_pi)  # built in place: a part's arrays are the peak
        keys += self.policy.coding.step_offset(t)
        keys = self.policy.row_map[keys]
        n_target = _step_size(self.base, t)
        keys *= n_target
        keys += _step_keys(self.base, t, context % b ** min(t, self.m_a))
        keys *= states
        keys += state
        groups, member = _group(keys, len(self.policy.log_softmax) * n_target * states)
        live = np.bincount(member, p_mass, len(groups)) > 0
        step_kl, ending, p_body, pi_body = self._group_terms(t, groups, n_target, live)
        kl, e_phi = float(p_mass @ step_kl[member]), pi_mass @ ending[member]
        if t + 1 == self.lmax:
            return kl, e_phi, None
        children = self._children(t, context, state, p_mass, pi_mass, member, p_body, pi_body)
        return kl, e_phi, children

    def _children(self, t, context, state, p_mass, pi_mass, member, p_body, pi_body):
        """The parts of step t + 1, each the children of at most
        ENUMERATION_CHUNK_ROWS // b parents, made one at a time."""
        b, m, states = self.b, self.m, self.dp.automaton.n_states
        parents = max(1, seqspace.ENUMERATION_CHUNK_ROWS // b)
        for lo in range(0, len(context), parents):
            part = slice(lo, lo + parents)
            next_context = (context[part, None] * b + np.arange(b)).ravel()
            next_state = self.step_states[state[part]].ravel()
            next_p = (p_mass[part, None] * p_body[member[part]]).ravel()
            next_pi = (pi_mass[part, None] * pi_body[member[part]]).ravel()
            if t + 1 > m:  # the joint context drops its oldest token: equal pairs merge
                keys, inverse = _group(next_context % b**m * states + next_state, b**m * states)
                next_context, next_state = np.divmod(keys, states)
                next_p = np.bincount(inverse, next_p, len(keys))
                next_pi = np.bincount(inverse, next_pi, len(keys))
            yield t + 1, next_context, next_state, next_p, next_pi

    def _target_next(self, t: int, target_keys: np.ndarray, states: np.ndarray) -> np.ndarray:
        """(len(states), V): p(v | t, c, s), a(v | c) times beta after v,
        normalized by its sum beta(t, c, s) (0 where that is 0), at each
        (step-t key of c, state), keyed as `_step_keys` says."""
        dp, b, base = self.dp, self.b, self.base
        if t + 1 == self.lmax:
            p_next = np.exp(base.log_softmax[target_keys])
            p_next[:, self.body] *= dp.value[self.step_states[states]]
        else:
            rows = base.row_map[base.coding.step_offset(t) :][target_keys]
            p_next = np.exp(base.log_softmax[rows])
            children = _child_contexts(target_keys[:, None], np.arange(b), b, t, self.m_a)
            children = _step_keys(base, t + 1, children)
            p_next[:, self.body] *= dp.beta[t + 1][children, self.step_states[states]]
        p_next[:, self.eos] *= dp.value[states]
        beta = p_next.sum(axis=1, keepdims=True)
        return np.divide(p_next, beta, out=p_next, where=beta > 0)

    def _group_terms(self, t: int, groups: np.ndarray, n_target: int, live: np.ndarray):
        """Per group: sum_v p log p - sum_v p log pi where p has mass (else 0),
        the phi of the sequences that end at this step or, at lmax - 1, at the
        forced EOS next, and the next body token's p and pi, which the
        children read."""
        auto, eos, body = self.dp.automaton, self.eos, self.body
        g_row, rest = np.divmod(groups, n_target * auto.n_states)
        g_target, g_state = np.divmod(rest, auto.n_states)
        log_pi = self.policy.log_softmax[g_row]
        pi_next = np.exp(log_pi)
        p_next = self._target_next(t, g_target, g_state)
        mass = p_next > 0
        if (mass & (pi_next == 0.0))[live].any():
            raise SupportViolation("second distribution misses support of the first")
        log_ratio = np.log(p_next, out=np.zeros_like(p_next), where=mass)
        np.subtract(log_ratio, log_pi, out=log_ratio, where=mass)
        step_kl = np.where(live, (p_next * log_ratio).sum(axis=1), 0.0)
        ending = pi_next[:, eos, None] * auto.values[g_state]
        if t + 1 == self.lmax:
            ending += (pi_next[:, body, None] * auto.values[self.step_states[g_state]]).sum(axis=1)
        return step_kl, ending, p_next[:, body], pi_next[:, body]


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

    def exact_target(self) -> ExactTarget:
        """The target's exact DP tables and Z, computed once (see the module
        docstring). Raises AutomatonTooLarge past the guard of
        `exact_target_automaton`, and EmptySupport when Z is 0."""
        if "dp" not in self._cache:
            self._cache["dp"] = _exact_target(self)
        return self._cache["dp"]

    def exact_target_terms(self) -> tuple[float, np.ndarray]:
        """Exact KL(p || a) and E_p[phi], in the order of `exact_policy_terms`.
        phi depends only on the state a sequence ends in, so Z * E_p[phi_j] is
        the backward pass with terminal `value * phi_j`, one column at a time,
        keeping only its step-0 table. On p's support b = 1, so
        KL(p || a) = lam . E_p[phi] - log Z over the distributional columns.
        Nothing is cached: only the `oracle` command reads them."""
        dp = self.exact_target()

        def start_mass(terminal):  # beta(0, (), start) of the pass, keeping the last table only
            return _start(self.base, deque(_backward(self.base, dp.automaton, terminal), 1).pop())

        moments = np.array([start_mass(dp.value * phi_j) for phi_j in dp.automaton.values.T]) / dp.z
        return float(moments[self.lambda_columns] @ self.lam) - float(np.log(dp.z)), moments

    def exact_policy_terms(self, policy: TabularARModel) -> tuple[float, np.ndarray]:
        """Exact KL(p || policy) and E_policy[phi], from a forward pass over
        the policy's prefixes h of any order (`_PolicyWalk`):
        KL(p || pi) = sum_h M(h) * sum_v p(v | h) * (log p(v | h) - log pi(v | h)),
        M(h) the p-mass of h. Raises SupportViolation where p has mass on
        (h, v) but pi(v | h) is 0, its exp underflowed included."""
        return _PolicyWalk(self, policy).terms()

    def exact_normalize(self) -> tuple[float, np.ndarray]:
        """Exact partition function and normalized distribution over the universe.
        The tilt is applied in place in the base's prefix-DP log-probs, one
        ENUMERATION_CHUNK_ROWS block at a time, each block through `log_scores`
        with its features gathered from the cached universe states
        (`universe_states`); then the exp, the sum and the divide, in place
        too. Beside the states, the distribution is the only universe-sized
        array it makes."""
        if "exact" not in self._cache:
            scores = self.base.exact_log_distribution()
            states, values = self.universe_states()
            step = seqspace.ENUMERATION_CHUNK_ROWS
            for lo in range(0, len(scores), step):
                rows = slice(lo, lo + step)
                scores[rows] = self.log_scores(scores[rows], values[states[rows]])
            np.exp(scores, out=scores)
            z = float(scores.sum())
            if z <= 0.0:
                raise EmptySupport("EBM scores sum to zero over the universe")
            scores /= z
            self._cache["exact"] = (z, scores)
        return self._cache["exact"]

    def universe_states(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (states, values): the state the constraint set's automaton
        (`ConstraintSet.automaton`) ends in on every sequence, in enumeration
        order, as the smallest unsigned dtype that holds the state count, and
        the automaton's values, so that `values[states]` is the universe's
        feature matrix. The universe guard runs before anything
        universe-sized is made."""
        if "states" not in self._cache:
            self.space.guard()
            auto = self.constraint_set.automaton(self.space)
            self._cache["states"] = (_final_states(self.space, auto), auto.values)
        return self._cache["states"]


def _final_states(space: seqspace.SequenceSpace, auto: Automaton) -> np.ndarray:
    """The automaton's state after every sequence, in enumeration order: a
    prefix pass, length by length, as `lm.exact_log_distribution` runs it.
    The b children of the length-k prefix of rank i are the length-(k + 1)
    ranks i * b .. i * b + b - 1, each its parent's state stepped on one body
    token; parents are gathered ENUMERATION_CHUNK_ROWS at a time."""
    b, chunk = space.body_size, seqspace.ENUMERATION_CHUNK_ROWS
    dtype = np.min_scalar_type(auto.n_states - 1)
    step = auto.delta[:, space.vocabulary.body_indices].astype(dtype)
    offsets = seqspace.length_offsets(b, space.lmax + 1)
    states = np.empty(space.universe_size, dtype=dtype)
    states[0] = 0  # the empty sequence, in the start state
    for k in range(space.lmax):
        parents = states[offsets[k] : offsets[k + 1]]
        children = states[offsets[k + 1] : offsets[k + 2]].reshape(len(parents), b)
        for lo in range(0, len(parents), chunk):
            children[lo : lo + chunk] = step[parents[lo : lo + chunk]]
    return states


def moment_preserving_perturbations(
    p: np.ndarray,
    states: np.ndarray,
    values: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Distributions near p with exactly p's feature moments and normalization,
    yielded one at a time: at most `count` of them. The features of sequence
    x are `values[states[x]]` (`Ebm.universe_states`; a raw feature matrix
    is its own values, with `np.arange(n)` as the states).

    Random directions on p's support are projected orthogonal to the all-ones
    vector and every feature column there, through the Gram matrix of
    [1, phi] on the support, then added with half the largest step that
    preserves positivity. Used to sample the constraint manifold around an
    exponential-family point. The Gram matrix and each direction's
    right-hand side are sums per state, so they come from one bincount over
    the states each; the projection and the positivity room run block by
    block, so a perturbation holds one universe-sized array, the direction
    that becomes the candidate.
    """
    p = np.asarray(p, dtype=float)
    active = p > 0
    basis = np.column_stack([np.ones(len(values)), values])  # [1, phi] of each state
    gram = basis.T @ (basis * np.bincount(states[active], minlength=len(values))[:, None])
    step = seqspace.ENUMERATION_CHUNK_ROWS
    blocks = [slice(lo, lo + step) for lo in range(0, len(p), step)]
    made = attempts = 0
    while made < count and attempts < 50 * count:
        attempts += 1
        c = np.zeros_like(p)  # the direction, then the candidate
        c[active] = rng.standard_normal(int(np.count_nonzero(active)))
        rhs = basis.T @ np.bincount(states, c, len(values))  # c is 0 off p's support
        projection = basis @ np.linalg.lstsq(gram, rhs, rcond=None)[0]  # of each state
        room = np.inf  # the step that takes the first support cell to 0
        for rows in blocks:
            part = c[rows]
            part -= np.where(active[rows], projection[states[rows]], 0.0)
            negative = part < 0
            if negative.any():
                room = min(room, float(np.min(p[rows][negative] / -part[negative])))
        if np.abs(c).max() < 1e-12 or room == np.inf:
            continue
        c *= 0.5 * room
        c += p
        np.maximum(c, 0.0, out=c)  # guard against rounding at the positivity boundary
        c /= c.sum()
        made += 1
        yield c


def snis_weights(lam: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalized importance weights exp(lam . phi_i) / sum, shift-stabilized,
    and the log of the mean unnormalized weight, log mean_i exp(lam . phi_i)."""
    s = phi @ lam
    shift = s.max()
    with np.errstate(invalid="ignore"):
        w = np.exp(s - shift)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateWeights("importance weights degenerated to an unusable sum")
    return w / total, float(shift + np.log(total / len(w)))


def snis_moments(lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Self-normalized moment estimate from base-model samples' feature rows."""
    if phi.shape[0] < 1:
        raise ConfigError("snis_moments needs at least one sample")
    return snis_weights(lam, phi)[0] @ phi


def snis_dual(
    lam: np.ndarray, phi: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """The convex dual log mean_i exp(lam . phi_i) - lam . targets over the
    sample rows, with its gradient, the SNIS moment gap mu_hat - targets, and
    its Hessian, the SNIS-weighted feature covariance. Its minimiser is the lam
    whose SNIS moments hit the targets."""
    w, log_mean = snis_weights(lam, phi)
    mu = w @ phi
    centered = phi - mu
    cov = (centered * w[:, None]).T @ centered
    return log_mean - float(lam @ targets), mu - targets, cov


def fit_lambda(
    base: TabularARModel,
    constraint_set: ConstraintSet,
    config: FitConfig,
) -> tuple[FitReport, Ebm]:
    """The target of a constraint set, with lam fitted so the estimated
    moments of its distributional constraints hit their targets.

    A set with no distributional constraint has no lam: the fit returns at
    once, converged at step 0, and draws nothing. Otherwise it draws the
    base-model sample set once, block by block (`sample_blocks`), featurizes
    each block and keeps only the feature matrix phi: it holds phi and a
    block, never the whole draw. It
    keeps the rows whose pointwise columns are all 1 (b(x) = 0 elsewhere, so
    they carry no weight); then it checks each target against the kept rows'
    feature hull and runs damped Newton on
    `snis_dual`: minimum-norm steps (collinear features still step), clipped to
    the clamp and halved until the dual decreases. It converges once max |gap|
    < `tolerance`, and stops short at `max_steps` or when no halving lowers the
    dual (the root lies outside the clamp box). `objective` is the squared gap
    at the returned lam; `rows_used` counts the kept rows: `sample_count` when
    no constraint is pointwise, 0 when nothing is drawn.
    """
    if len(constraint_set) == 0:
        raise ConfigError("fit_lambda needs at least one constraint")
    clamp = config.lambda_clamp
    pointwise = constraint_set.pointwise
    if pointwise.all():
        empty = np.zeros(0)
        report = FitReport(empty, empty, objective=0.0, steps_used=0, rows_used=0, converged=True)
        return report, Ebm(base=base, constraint_set=constraint_set, lam=empty, lambda_clamp=clamp)
    rng = np.random.default_rng(config.seed)
    phi = np.empty((config.sample_count, len(constraint_set)))
    lo = 0
    for block in base.sample_blocks(config.sample_count, rng):
        phi[lo : lo + len(block)] = constraint_set.feature_matrix(block)
        lo += len(block)
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
    dual, gap, cov = snis_dual(lam, phi, targets)
    steps_used = 0
    while np.abs(gap).max() >= config.tolerance and steps_used < config.max_steps:
        step = np.linalg.lstsq(cov, -gap, rcond=None)[0]
        for halving in range(MAX_HALVINGS):
            trial = np.clip(lam + step / 2.0**halving, -clamp, clamp)
            trial_dual, trial_gap, trial_cov = snis_dual(trial, phi, targets)
            if trial_dual < dual:
                break
        else:
            break  # the clipped step cannot lower the dual
        lam, dual, gap, cov = trial, trial_dual, trial_gap, trial_cov
        steps_used += 1

    report = FitReport(
        lam=lam.copy(),
        achieved_moments=snis_moments(lam, phi),
        objective=float(gap @ gap),
        steps_used=steps_used,
        rows_used=len(phi),
        converged=bool(np.abs(gap).max() < config.tolerance),
    )
    return report, Ebm(base=base, constraint_set=constraint_set, lam=lam, lambda_clamp=clamp)
