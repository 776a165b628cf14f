"""Independent oracles and generators shared across the test suite.

Everything here is deliberately written against the math, not against the
library's code paths: naive loops, explicit chain rules, bisection on exact
enumerations.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from distctl.ebm import Ebm
from distctl.errors import ConfigError
from distctl.estimators import (
    Estimate,
    kl_models_from_logs,
    kl_p_from_logs,
    tvd_p_from_logs,
    z_estimate_from_logs,
)
from distctl.features import Feature, PrefixMatch, TokenPresence, TokenRatio, WordlistPresence
from distctl.lm import RowGradient, TabularARModel
from distctl.seqspace import SampleBatch, Sequence, SequenceSpace, Vocabulary, length_offsets

LETTERS = "abcdefghij"


def small_space(body: int, lmax: int) -> SequenceSpace:
    vocab = Vocabulary.from_body_tokens(list(LETTERS[:body]))
    return SequenceSpace(vocabulary=vocab, lmax=lmax)


# -- the universe, one sequence at a time ---------------------------------------


def enumerate_sequences(space: SequenceSpace):
    """Yield every sequence once: shortest first, lexicographic by vocabulary
    index within a length."""
    space.guard()
    for k in range(space.lmax + 1):
        for tokens in itertools.product(space.vocabulary.body_indices, repeat=k):
            yield Sequence(tokens)


def _numeral(space: SequenceSpace, tokens) -> int:
    """`tokens` read as a base-b numeral whose digits are body-token ranks."""
    digit = {v: r for r, v in enumerate(space.vocabulary.body_indices)}
    value = 0
    for t in tokens:
        value = value * space.body_size + digit[t]
    return value


def sequence_rank(space: SequenceSpace, seq: Sequence) -> int:
    """Position of `seq` in enumeration order: the number of shorter sequences
    plus its base-b numeral."""
    return sum(space.body_size**k for k in range(len(seq))) + _numeral(space, seq.tokens)


# -- features, one sequence at a time --------------------------------------------


class PredicateTable(Feature):
    """Explicit sequence-to-value map, for tests that need an arbitrary feature."""

    def __init__(self, table: dict, default=0.0, binary=True, feature_id="table"):
        self.table = dict(table)
        self.default = default
        self.binary = binary
        self.id = feature_id
        if binary and not set(self.table.values()) | {default} <= {0.0, 1.0}:
            raise ConfigError("binary predicate-table may only hold 0/1 values")

    def evaluate_batch(self, batch: SampleBatch) -> np.ndarray:
        return np.array([self.table.get(x, self.default) for x in batch.sequences()], dtype=float)


def feature_value(feature: Feature, x: Sequence) -> float:
    """A feature's value on one sequence, from its definition."""
    if isinstance(feature, TokenPresence):
        return 1.0 if feature.index in x.tokens else 0.0
    if isinstance(feature, WordlistPresence):
        return 1.0 if feature.indices & set(x.tokens) else 0.0
    if isinstance(feature, TokenRatio):
        den = sum(1 for t in x.tokens if t in feature.den)
        if den == 0:
            return feature.empty_default
        return sum(1 for t in x.tokens if t in feature.num) / den
    if isinstance(feature, PrefixMatch):
        return 1.0 if x.tokens[: len(feature.pattern)] == feature.pattern else 0.0
    if isinstance(feature, PredicateTable):
        return feature.table.get(x, feature.default)
    raise TypeError(f"no reference for feature {type(feature).__name__}")


# -- importance-sampling estimates from models --------------------------------------


def estimate_z(target: Ebm, proposal: TabularARModel, samples: SampleBatch) -> Estimate:
    return z_estimate_from_logs(target.log_score_batch(samples), proposal.log_prob_batch(samples))


def estimate_kl_p_from(target, policy, proposal, samples, z: float) -> Estimate:
    """KL(p || policy) from samples drawn from the proposal."""
    return kl_p_from_logs(*_ebm_logs(target, policy, proposal, samples), z)


def estimate_tvd(target, policy, proposal, samples, z: float) -> Estimate:
    """TVD(p, policy) from samples drawn from the proposal."""
    return tvd_p_from_logs(*_ebm_logs(target, policy, proposal, samples), z)


def _ebm_logs(target: Ebm, policy, proposal, samples: SampleBatch) -> tuple:
    """Log-score, proposal and policy log-probs of the samples."""
    return (
        target.log_score_batch(samples),
        proposal.log_prob_batch(samples),
        policy.log_prob_batch(samples),
    )


def estimate_kl_between_models(
    policy: TabularARModel, reference: TabularARModel, samples: SampleBatch
) -> Estimate:
    """KL(policy || reference) from samples drawn from the policy."""
    return kl_models_from_logs(policy.log_prob_batch(samples), reference.log_prob_batch(samples))


def random_model(
    space: SequenceSpace,
    order: int,
    rng: np.random.Generator,
    scale: float = 1.0,
    trainable: bool = False,
) -> TabularARModel:
    model = TabularARModel.uniform_logits(space, order=order, trainable=trainable)
    model.logits += scale * rng.standard_normal(model.logits.shape)
    model.invalidate()
    return model


def from_distribution(
    space: SequenceSpace, probs: np.ndarray, trainable: bool = False
) -> TabularARModel:
    """Full-context model whose distribution equals `probs` (enumeration order)."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (space.universe_size,):
        raise ConfigError("probs must cover the universe in enumeration order")
    if abs(probs.sum() - 1.0) > 1e-9 or (probs < 0).any():
        raise ConfigError("probs must be a normalized distribution")
    b = space.body_size
    lmax = space.lmax
    offsets = length_offsets(b, lmax)
    # mass[r] = total probability of sequences having prefix r, built leaf-up
    mass = probs.copy()
    for k in range(lmax - 1, -1, -1):
        lo, hi = offsets[k], offsets[k] + b**k
        children = mass[offsets[k + 1] : offsets[k + 1] + b ** (k + 1)]
        mass[lo:hi] += children.reshape(b**k, b).sum(axis=1)
    order = max(lmax, 1)
    coding = TabularARModel.uniform_logits(space, order).coding
    v = space.vocabulary.size
    eos = space.vocabulary.eos_index
    body = np.asarray(space.vocabulary.body_indices, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        logits = np.zeros((coding.n_contexts, v))
        for k in range(coding.m_eff + 1):
            lo = int(coding.offsets[k])
            count = b**k
            pm = mass[offsets[k] : offsets[k] + count]
            cond = np.zeros((count, v))
            cond[:, eos] = probs[offsets[k] : offsets[k] + count]
            if k < lmax:
                kids = mass[offsets[k + 1] : offsets[k + 1] + count * b].reshape(count, b)
                cond[:, body] = kids
            ok = pm > 0
            cond[ok] /= pm[ok, None]
            cond[~ok] = 1.0 / v  # unreachable contexts: keep rows usable
            logits[lo : lo + count] = np.log(cond)
    if trainable and np.isneginf(logits).any():
        raise ConfigError("distribution has zeros; a trainable model needs full support")
    return TabularARModel(space=space, order=order, logits=logits, trainable=trainable)


def uniform_over_universe(space: SequenceSpace, trainable: bool = False) -> TabularARModel:
    """The uniform distribution over the whole universe (not uniform next-token)."""
    u = np.full(space.universe_size, 1.0 / space.universe_size)
    return from_distribution(space, u, trainable=trainable)


def scaled(ebm: Ebm, log_scale_delta: float) -> Ebm:
    """The same EBM with every score multiplied by exp(log_scale_delta)."""
    return Ebm(
        base=ebm.base,
        constraint_set=ebm.constraint_set,
        lam=ebm.lam.copy(),
        mode=ebm.mode,
        lambda_clamp=ebm.lambda_clamp,
        log_scale=ebm.log_scale + log_scale_delta,
    )


# -- the batch operations encoded step by step ------------------------------------


def iter_events(model: TabularARModel, batch: SampleBatch):
    """Per step: (row indices, context codes, emitted tokens) of free emissions.

    Free emissions are the body tokens plus the EOS choice for sequences
    shorter than lmax. The context value is rolled one step at a time, on the
    rows that emitted a body token only.
    """
    coding = model.coding
    lengths = batch.lengths
    eos = model.space.vocabulary.eos_index
    val = np.zeros(len(batch), dtype=np.int64)
    for t in range(model.space.lmax):
        emit_body = lengths > t
        active = lengths >= t
        if not active.any():
            break
        codes = coding.step_offset(t) + val
        toks = np.where(emit_body, batch.tokens[:, t], eos)
        rows = np.nonzero(active)[0]
        yield rows, codes[rows], toks[rows].astype(np.int64)
        rolled = val * coding.body_size + coding.rank_of[np.where(emit_body, batch.tokens[:, t], 0)]
        if t + 1 > coding.m_eff:
            rolled %= coding.modulus
        val = np.where(emit_body, rolled, val)


def step_log_prob_batch(model: TabularARModel, batch: SampleBatch) -> np.ndarray:
    """Log-probs accumulated step by step over the active rows only."""
    logprob = model._log_softmax()
    out = np.zeros(len(batch))
    for rows, codes, toks in iter_events(model, batch):
        out[rows] += logprob[codes, toks]
    return out


def step_grad_weighted_sum(
    model: TabularARModel, batch: SampleBatch, weights: np.ndarray
) -> RowGradient:
    """Row-sparse batch gradient from per-step event lists, summed per cell by
    one `np.bincount` over the steps' one-hot then softmax events."""
    logprob = model._log_softmax()
    weights = np.asarray(weights, dtype=float)
    v = model.space.vocabulary.size
    events = list(iter_events(model, batch))
    touched, inverse = np.unique(
        np.concatenate([codes for _, codes, _ in events]), return_inverse=True
    )
    cells, values = [], []
    start = 0
    for rows, codes, toks in events:
        row_cells = inverse[start : start + len(rows)] * v
        start += len(rows)
        w = weights[rows]
        cells += [row_cells + toks, (row_cells[:, None] + np.arange(v)).ravel()]
        values += [w, (-w[:, None] * np.exp(logprob[codes])).ravel()]
    grad = np.bincount(
        np.concatenate(cells), weights=np.concatenate(values), minlength=len(touched) * v
    )
    return RowGradient(touched, grad.reshape(len(touched), v))


def gumbel_sample_batch(model: TabularARModel, n: int, rng: np.random.Generator) -> SampleBatch:
    """Ancestral Gumbel-max sampling with the noise written -log(-log u) and
    added to the log-probs, the context rolled on growing rows only."""
    logprob = model._log_softmax()
    coding = model.coding
    lmax = model.space.lmax
    eos = model.space.vocabulary.eos_index
    tokens = np.full((n, lmax), -1, dtype=np.int32)
    lengths = np.full(n, lmax, dtype=np.int64)
    val = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for t in range(lmax):
        u = rng.random((n, model.space.vocabulary.size))
        if not alive.any():
            continue
        codes = coding.step_offset(t) + val
        with np.errstate(divide="ignore"):
            gumbel = -np.log(-np.log(u))
        pick = np.argmax(logprob[codes] + gumbel, axis=1)
        ended = alive & (pick == eos)
        lengths[ended] = t
        grow = alive & ~ended
        tokens[grow, t] = pick[grow].astype(np.int32)
        rolled = val * coding.body_size + coding.rank_of[np.where(grow, pick, 0)]
        if t + 1 > coding.m_eff:
            rolled %= coding.modulus
        val = np.where(grow, rolled, val)
        alive = grow
    return SampleBatch(tokens=tokens, lengths=lengths)


def naive_log_prob(model: TabularARModel, seq: Sequence) -> float:
    """Chain-rule product computed step by step with explicit softmax calls."""
    steps = list(seq.tokens)
    if len(seq) < model.space.lmax:
        steps.append(model.space.vocabulary.eos_index)
    lp = 0.0
    for t, tok in enumerate(steps):
        row = model.logits[_context_row(model, steps[:t])]
        probs = np.exp(row - row.max())
        probs = probs / probs.sum()
        lp += float(np.log(probs[tok]))
    return lp


def grad_log_prob(model: TabularARModel, x: Sequence) -> np.ndarray:
    """Score-function gradient of log model(x) as a dense logits-shaped table
    (one-hot minus softmax at each visited context), from the library's
    row-sparse gradient."""
    batch = SampleBatch.from_sequences(model.space, [x])
    return model.grad_weighted_sum(batch, np.ones(1)).dense(len(model.logits))


def _context_row(model: TabularARModel, history: list[int]) -> int:
    """Table row of the context formed by the last m_eff tokens of `history`."""
    m = model.coding.m_eff
    window = history[-m:] if m > 0 else []
    return int(model.coding.offsets[len(window)]) + _numeral(model.space, window)


def _context_rows(model: TabularARModel, batch: SampleBatch, t: int) -> np.ndarray:
    """Context row of every sequence at step t."""
    prefixes = [row[: min(t, n)].tolist() for row, n in zip(batch.tokens, batch.lengths)]
    return np.array([_context_row(model, p) for p in prefixes], dtype=np.int64)


def dense_grad_weighted_sum(
    model: TabularARModel, batch: SampleBatch, weights: np.ndarray
) -> np.ndarray:
    """Reference batch gradient on a dense table: per step, `np.add.at` of the
    one-hot events, then of the softmax events, over the batch in order."""
    logits = model.logits
    m = np.max(logits, axis=1, keepdims=True)
    prob = np.exp(logits - (m + np.log(np.sum(np.exp(logits - m), axis=1, keepdims=True))))
    eos = model.space.vocabulary.eos_index
    grad = np.zeros_like(logits)
    for t in range(model.space.lmax):
        rows = np.nonzero(batch.lengths >= t)[0]
        if len(rows) == 0:
            break
        codes = _context_rows(model, batch, t)[rows]
        toks = np.where(batch.lengths[rows] > t, batch.tokens[rows, t], eos).astype(np.int64)
        w = weights[rows]
        np.add.at(grad, (codes, toks), w)
        np.add.at(grad, codes, -w[:, None] * prob[codes])
    return grad


def exact_moment_curve(base_dist: np.ndarray, phi: np.ndarray, lam: float) -> float:
    """Exact tilted moment E_{p_lam}[phi] over an enumerated universe."""
    w = base_dist * np.exp(lam * phi)
    return float((w @ phi) / w.sum())


def bisect_lambda(
    base_dist: np.ndarray,
    phi: np.ndarray,
    target: float,
    lo: float = -50.0,
    hi: float = 50.0,
    iters: int = 200,
) -> float:
    """Root of E_{p_lam}[phi] = target by bisection (moments increase in lam)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if exact_moment_curve(base_dist, phi, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exact_entropy(d: np.ndarray) -> float:
    d = np.asarray(d, dtype=float)
    mass = d > 0
    return float(-np.sum(d[mass] * np.log(d[mass])))


def dist_n(seq: Sequence, n: int) -> float:
    """Distinct n-grams over total n-grams within one sequence; 1.0 when too short."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    total = len(seq) - n + 1
    if total < 1:
        return 1.0
    return len(Counter(seq.tokens[i : i + n] for i in range(total))) / total


def naive_bleu(candidate: Sequence, references: list[Sequence], n: int) -> float:
    """Textbook BLEU-n: uniform weights, clipped precision with a 1e-9 floor,
    closest-reference-length brevity penalty (ties to the shorter length)."""
    c = len(candidate)
    log_p = 0.0
    for m in range(1, n + 1):
        cand = Counter(candidate.tokens[i : i + m] for i in range(c - m + 1))
        clipped = 0
        for gram, count in cand.items():
            best = 0
            for ref in references:
                rc = Counter(ref.tokens[i : i + m] for i in range(len(ref) - m + 1))
                best = max(best, rc[gram])
            clipped += min(count, best)
        total = c - m + 1
        p = clipped / total if total > 0 else 0.0
        log_p += np.log(max(p, 1e-9)) / n
    r = min((len(ref) for ref in references), key=lambda L: (abs(L - c), L))
    bp = 1.0 if c > r else float(np.exp(1.0 - r / c))
    return bp * float(np.exp(log_p))


def snis_standard_error(weights: np.ndarray, phi: np.ndarray, mu: float) -> float:
    """Delta-method standard error of a self-normalized estimate."""
    w = weights / weights.sum()
    return float(np.sqrt(np.sum(w**2 * (phi - mu) ** 2)))


def corpus_text(lines: list[list[str]]) -> str:
    return "\n".join(" ".join(row) for row in lines) + "\n"


def synthetic_corpus(
    rng: np.random.Generator,
    tokens: list[str],
    weights: list[float],
    n_lines: int,
    min_len: int,
    max_len: int,
) -> str:
    probs = np.asarray(weights, dtype=float)
    probs = probs / probs.sum()
    lines = []
    for _ in range(n_lines):
        length = int(rng.integers(min_len, max_len + 1))
        lines.append(list(rng.choice(tokens, size=length, p=probs)))
    return corpus_text(lines)
