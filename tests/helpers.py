"""Independent oracles and generators shared across the test suite.

Everything here is deliberately written against the math, not against the
library's code paths: naive loops, explicit chain rules, bisection on exact
enumerations.
"""

from __future__ import annotations

import base64
import bisect
import itertools
import json
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np

from distctl import lm, seqspace
from distctl.ebm import Ebm, FitConfig
from distctl.errors import ConfigError, EmptyCorpus, TooFewSamples
from distctl.estimators import (
    Estimate,
    _check_pair,
    importance_ratios,
    kl_models_from_logs,
    kl_p_from_logs,
    tvd_p_from_logs,
)
from distctl.features import (
    ConstraintSet,
    ConstraintSpec,
    Feature,
    PrefixMatch,
    TokenPresence,
    TokenRatio,
    WordlistPresence,
)
from distctl.lm import RowGradient, TabularARModel, _row_log_softmax, mle_fit
from distctl.seqspace import (
    SampleBatch,
    SequenceSpace,
    Vocabulary,
    length_offsets,
    string_space_size,
    tokenize_corpus,
)

LETTERS = "abcdefghij"


@dataclass(frozen=True)
class Sequence:
    """EOS-free body of a sequence, as a tuple of vocabulary indices."""

    tokens: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def length(self) -> int:
        return len(self.tokens)


def validate(space: SequenceSpace, seq: Sequence) -> None:
    """Raise ConfigError unless `seq` is a sequence of `space`."""
    if len(seq) > space.lmax:
        raise ConfigError(f"sequence length {len(seq)} exceeds lmax {space.lmax}")
    eos = space.vocabulary.eos_index
    for t in seq.tokens:
        if t == eos:
            raise ConfigError("EOS may not appear in a sequence body")
        if not 0 <= t < space.vocabulary.size:
            raise ConfigError(f"token index {t} out of vocabulary range")


def batch_from(space: SequenceSpace, seqs: list[Sequence]) -> SampleBatch:
    """The batch of `seqs` at the width of `space`, each validated first."""
    for s in seqs:
        validate(space, s)
    return batch_of(seqs, space.lmax)


def sequences(batch: SampleBatch) -> list[Sequence]:
    """The rows of a batch, one Sequence each."""
    rows = zip(batch.tokens.tolist(), batch.lengths.tolist())
    return [Sequence(tuple(row[:n])) for row, n in rows]


def small_space(body: int, lmax: int) -> SequenceSpace:
    vocab = Vocabulary.from_body_tokens(list(LETTERS[:body]))
    return SequenceSpace(vocabulary=vocab, lmax=lmax)


# -- the universe, one sequence at a time ---------------------------------------


def enumeration_blocks(space: SequenceSpace):
    """The universe in enumeration order, as consecutive batches of at most
    ENUMERATION_CHUNK_ROWS rows, each inside one length block: the tests'
    referee for the library's prefix passes over the universe order. The
    guard runs before the first block is asked for."""
    space.guard()
    b, chunk = space.body_size, seqspace.ENUMERATION_CHUNK_ROWS
    return (
        _block(space, k, lo, min(lo + chunk, b**k))
        for k in range(space.lmax + 1)
        for lo in range(0, b**k, chunk)
    )


def _block(space: SequenceSpace, k: int, lo: int, hi: int) -> SampleBatch:
    """Ranks lo..hi-1 of the length-k strings. Column j holds the j-th of the
    rank's k base-b digits, most significant first: over all ranks, runs of
    b**(k-1-j) equal tokens that cycle through the body, of which the first
    and last runs met here may be cut short."""
    b = space.body_size
    body = np.asarray(space.vocabulary.body_indices, dtype=np.int32)
    tokens = np.full((hi - lo, space.lmax), -1, dtype=np.int32)
    for j in range(k):
        run = b ** (k - 1 - j)
        first = lo // run
        values = body[np.arange(first, (hi - 1) // run + 1) % b]
        counts = np.full(len(values), run)
        counts[0] -= lo - first * run
        counts[-1] -= (first + len(values)) * run - hi
        tokens[:, j] = np.repeat(values, counts)
    return SampleBatch(tokens=tokens, lengths=np.full(hi - lo, k, dtype=np.int64))


def enumeration(space: SequenceSpace) -> SampleBatch:
    """The whole universe as one SampleBatch: the concatenation of
    `enumeration_blocks(space)`. Built fresh on every call: spaces compare by
    value, so a batch cached per space would carry the emission events one
    test scored on it into another test."""
    blocks = list(enumeration_blocks(space))
    return SampleBatch(
        tokens=np.concatenate([block.tokens for block in blocks]),
        lengths=np.concatenate([block.lengths for block in blocks]),
    )


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
    """Explicit sequence-to-value map, for tests that need an arbitrary
    feature. Its automaton is the trie of the table's keys: state 0 is the
    empty prefix, each other prefix of a key has a state of its own, and one
    last state holds every sequence that has left the trie."""

    def __init__(self, table: dict, default=0.0, binary=True, feature_id="table"):
        self.table = dict(table)
        self.default = default
        self.binary = binary
        self.id = feature_id
        if binary and not set(self.table.values()) | {default} <= {0.0, 1.0}:
            raise ConfigError("binary predicate-table may only hold 0/1 values")
        nodes = {(): 0}
        edges = {}  # (state, token) -> child state
        for x in self.table:
            for k in range(1, len(x) + 1):
                child = nodes.setdefault(x.tokens[:k], len(nodes))
                edges[nodes[x.tokens[: k - 1]], x.tokens[k - 1]] = child
        self.off = len(nodes)
        self.values = np.array(
            [self.table.get(Sequence(prefix), default) for prefix in nodes] + [default]
        )
        keys = sorted(edges)  # then a last edge that no (state, token) reaches, to off
        self.edge_keys = np.array([self._key(s, t) for s, t in keys] + [np.iinfo(np.int64).max])
        self.edge_child = np.array([edges[k] for k in keys] + [self.off])

    @staticmethod
    def _key(states, tokens):
        """One int per (state, token), ordered as the pairs are; the -1
        padding token keys no edge."""
        return np.asarray(states, dtype=np.int64) * (1 << 32) + tokens

    def n_states(self, lmax: int) -> int:
        return self.off + 1

    def step(self, states: np.ndarray, tokens: np.ndarray, lmax: int) -> np.ndarray:
        key = self._key(states, tokens)
        at = np.searchsorted(self.edge_keys, key)
        return np.where(self.edge_keys[at] == key, self.edge_child[at], self.off)

    def value(self, states: np.ndarray, lmax: int) -> np.ndarray:
        return self.values[states]


def feature_column(feature: Feature, batch: SampleBatch) -> np.ndarray:
    """One feature's values on a batch, from the library's evaluation path
    (`ConstraintSet.feature_matrix`)."""
    return ConstraintSet([ConstraintSpec(feature, 0.5)]).feature_matrix(batch)[:, 0]


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


def expectation_phi(samples: SampleBatch, constraint_set) -> np.ndarray:
    """Per-feature sample means, in constraint order."""
    if len(samples) < 1:
        raise ConfigError("expectation_phi needs at least one sample")
    if len(constraint_set) == 0:
        return np.zeros(0)
    return constraint_set.feature_matrix(samples).mean(axis=0)


# -- importance-sampling estimates from models --------------------------------------


def z_estimate_from_logs(log_p_score: np.ndarray, log_q: np.ndarray) -> Estimate:
    """Z as the mean importance ratio P/q of the samples, with its standard error."""
    r = importance_ratios(log_p_score, log_q)
    se = float(np.std(r, ddof=1) / np.sqrt(len(r))) if len(r) > 1 else 0.0
    return Estimate(value=float(np.mean(r)), standard_error=se)


def estimate_z(target: Ebm, proposal: TabularARModel, samples: SampleBatch) -> Estimate:
    return z_estimate_from_logs(target.log_score_batch(samples), proposal.log_prob_batch(samples))


def estimate_kl_p_from(target, policy, proposal, samples, z: float) -> Estimate:
    """KL(p || policy) from samples drawn from the proposal."""
    log_p_score, log_q, log_pi = ebm_logs(target, policy, proposal, samples)
    return kl_p_from_logs(importance_ratios(log_p_score, log_q), log_p_score, log_pi, z)


def estimate_tvd(target, policy, proposal, samples, z: float) -> Estimate:
    """TVD(p, policy) from samples drawn from the proposal."""
    log_p_score, log_q, log_pi = ebm_logs(target, policy, proposal, samples)
    return tvd_p_from_logs(importance_ratios(log_p_score, log_q), log_q, log_pi, z)


def ebm_logs(target: Ebm, policy, proposal, samples: SampleBatch) -> tuple:
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


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the tracemalloc peak in bytes of the call): the
    most memory the call held at once, of what it allocated itself."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def universe_arrays(nbytes: float, space: SequenceSpace) -> float:
    """`nbytes` in universe-sized float64 arrays of `space`: 8 bytes per sequence."""
    return nbytes / (8 * space.universe_size)


def uniform_model(space: SequenceSpace, order: int = 1, trainable: bool = False) -> TabularARModel:
    """Uniform next-token distribution at every context (all-zero logits)."""
    m_eff = min(order - 1, space.lmax - 1)
    logits = np.zeros((string_space_size(space.body_size, m_eff), space.vocabulary.size))
    return TabularARModel(space=space, order=order, logits=logits, trainable=trainable)


def dense_logits(model: TabularARModel) -> np.ndarray:
    """The logits row of every context, in context order: the stored rows
    gathered through the model's map."""
    return model.logits[model.row_map]


def dense_log_softmax(model: TabularARModel) -> np.ndarray:
    """The log-softmax row of every context, in context order."""
    return model._logprob[model.row_map]


def dense_table_bytes(model: TabularARModel) -> int:
    """Bytes of one float64 table with a row per context: n_contexts x V x 8."""
    return model.coding.n_contexts * model.space.vocabulary.size * 8


def v2_document(model: TabularARModel) -> dict:
    """The version-2 model document of `model`, which `from_document` still
    reads: the version-3 header and rows, with `rows` and `row_map` as JSON
    number lists."""
    header, rows, index = model._encoded()
    return {**header, "version": 2, "rows": rows.tolist(), "row_map": index[model.row_map].tolist()}


def v3_document(header: dict, rows: np.ndarray, row_map: np.ndarray) -> dict:
    """A version-3 model document with `header`'s other keys: `rows` as the
    base64 of little-endian float64 cells, row-major, and `row_map` of one
    little-endian int32 per context."""
    def text(values, dtype):
        return base64.b64encode(np.asarray(values).astype(dtype).tobytes()).decode()

    return {**header, "version": 3, "rows": text(rows, "<f8"), "row_map": text(row_map, "<i4")}


def strict_json(text: str):
    """`json.loads` of `text`, refusing the NaN and Infinity constants that
    Python's `json` reads but RFC 8259 does not allow."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def document_arrays(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """(rows, row_map) of a version-3 model document, decoded from its base64
    text: rows of the vocabulary's width, and one index per context."""
    width = len(doc["vocabulary"]["tokens"])
    rows = np.frombuffer(base64.b64decode(doc["rows"]), dtype="<f8").reshape(-1, width)
    return rows, np.frombuffer(base64.b64decode(doc["row_map"]), dtype="<i4")


def full_gradient(grad: np.ndarray) -> RowGradient:
    """Every row of a logits-shaped gradient, one per context."""
    return RowGradient(np.arange(len(grad)), grad)


def dense_gradient(grad: RowGradient, n_contexts: int) -> np.ndarray:
    """A row-sparse gradient scattered into a zero logits-shaped table."""
    out = np.zeros((n_contexts, grad.values.shape[1]))
    out[grad.rows] = grad.values
    return out


def dense_adam_step(adam, grad: RowGradient) -> RowGradient:
    """Reference Adam step on the whole table: every context's moments move,
    the ones no gradient has touched included, and the step covers every
    context. It has `AdamState.step`'s signature, to be patched in for it.

    It gives the row-sparse step's results bit for bit, but for one case: a
    logit of exactly -0.0 in a context no gradient has touched. Its step is
    0.0 here, and -0.0 + 0.0 writes 0.0, where the row-sparse step leaves the
    -0.0 alone. No demo or benchmark base has such a logit."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    g = dense_gradient(grad, len(adam.m))
    adam.t += 1
    adam.m = b1 * adam.m + (1 - b1) * g
    adam.v = b2 * adam.v + (1 - b2) * g * g
    m_hat = adam.m / (1 - b1**adam.t)
    v_hat = adam.v / (1 - b2**adam.t)
    return full_gradient(m_hat / (np.sqrt(v_hat) + eps))


def invalidate(model: TabularARModel) -> None:
    """Recompute a model's log-softmax after editing its `logits` in place."""
    model._logprob = _row_log_softmax(model.logits)


def random_model(
    space: SequenceSpace,
    order: int,
    rng: np.random.Generator,
    scale: float = 1.0,
    trainable: bool = False,
) -> TabularARModel:
    model = uniform_model(space, order=order, trainable=trainable)
    model.logits += scale * rng.standard_normal(model.logits.shape)
    invalidate(model)
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
    coding = uniform_model(space, order).coding
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


@dataclass
class ScaledEbm(Ebm):
    """An EBM whose every score is multiplied by exp(log_scale)."""

    log_scale: float = 0.0

    def log_scores(self, log_base, phi):
        return super().log_scores(log_base + self.log_scale, phi)


def member_log_scores(ebm: Ebm, batch: SampleBatch) -> np.ndarray:
    """log a(x) + log b(x) + lam . phi(x), one feature evaluation per member in
    constraint order: b(x) multiplies the pointwise members' values, and the
    distributional members' values are stacked into phi."""
    b = np.ones(len(batch))
    phi = []
    for c in ebm.constraint_set:
        values = np.array([feature_value(c.feature, x) for x in sequences(batch)])
        if c.pointwise:
            b *= values
        else:
            phi.append(values)
    tilt = np.column_stack(phi) @ ebm.lam if phi else 0.0
    with np.errstate(divide="ignore"):
        return ebm.base.log_prob_batch(batch) + np.log(b) + tilt


def universe_features(ebm: Ebm) -> np.ndarray:
    """The target's feature matrix over the universe, in enumeration order:
    `feature_matrix` over `enumeration_blocks`, one block at a time, so the
    universe's token matrix is never built."""
    phi = np.empty((ebm.space.universe_size, len(ebm.constraint_set)))
    row = 0
    for block in enumeration_blocks(ebm.space):
        phi[row : row + len(block)] = ebm.constraint_set.feature_matrix(block)
        row += len(block)
    return phi


def universe_moments(ebm: Ebm, dist: np.ndarray) -> np.ndarray:
    """E_dist[phi] of a distribution over the universe, in enumeration order,
    summed one ENUMERATION_CHUNK_ROWS slice of the universe at a time over
    `universe_features`; on a one-slice universe that is `dist @ phi` itself."""
    phi, step = universe_features(ebm), seqspace.ENUMERATION_CHUNK_ROWS
    return sum(dist[lo : lo + step] @ phi[lo : lo + step] for lo in range(0, len(dist), step))


def exact_moments(ebm: Ebm) -> np.ndarray:
    """The target's constraint moments by enumeration: `universe_moments` of
    its normalized distribution."""
    return universe_moments(ebm, ebm.exact_normalize()[1])


def whole_matrix_normalize(ebm: Ebm) -> tuple[float, np.ndarray]:
    """(Z, p) with the score applied to the whole universe in one expression:
    the base's exact log-probs, plus log of the row product of the pointwise
    columns, plus the distributional columns @ lam, of `universe_features`."""
    log_base = ebm.base.exact_log_distribution()
    phi = universe_features(ebm)
    pointwise = np.array([c.pointwise for c in ebm.constraint_set], dtype=bool)
    with np.errstate(divide="ignore"):
        scores = log_base + np.log(phi[:, pointwise].prod(axis=1)) + phi[:, ~pointwise] @ ebm.lam
    weights = np.exp(scores)
    z = float(weights.sum())
    return z, weights / z


def scaled(ebm: Ebm, log_scale_delta: float) -> Ebm:
    """The same EBM with every score multiplied by exp(log_scale_delta)."""
    return ScaledEbm(
        base=ebm.base,
        constraint_set=ebm.constraint_set,
        lam=ebm.lam.copy(),
        log_scale=getattr(ebm, "log_scale", 0.0) + log_scale_delta,
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
    logprob = dense_log_softmax(model)
    out = np.zeros(len(batch))
    for rows, codes, toks in iter_events(model, batch):
        out[rows] += logprob[codes, toks]
    return out


def gumbel_sample_batch(model: TabularARModel, n: int, rng: np.random.Generator) -> SampleBatch:
    """Ancestral Gumbel-max sampling with the noise written -log(-log u) and
    added to the log-probs, the context rolled on growing rows only."""
    logprob = dense_log_softmax(model)
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


def reference_sample_block(model: TabularARModel, n: int, rng: np.random.Generator) -> SampleBatch:
    """The library's block sampler as it was written step by step: each step
    draws its (n, V) uniforms, then, while some row grows, picks the growing
    rows' tokens and rolls their contexts, ending a row at its EOS pick. The
    batch keeps the codes computed while sampling, as the library's does."""
    logprob, coding = model._logprob, model.coding
    lmax, v = model.space.lmax, model.space.vocabulary.size
    eos = model.space.vocabulary.eos_index
    tokens = np.full((n, lmax), -1, dtype=np.int32)
    lengths = np.full(n, lmax, dtype=np.int64)
    codes = np.zeros((lmax, n), dtype=np.int64)  # step-major; 0 once a row has ended
    val = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for t in range(lmax):
        u = rng.random((n, v))
        if not alive.any():
            continue
        np.multiply(coding.step_offset(t) + val, alive, out=codes[t])
        with np.errstate(divide="ignore"):
            np.log(u, out=u)
            np.negative(u, out=u)
            np.log(u, out=u)
        pick = np.argmax(np.subtract(logprob[model.row_map[codes[t]]], u, out=u), axis=1)
        ended = alive & (pick == eos)
        lengths[ended] = t
        grow = alive & ~ended
        tokens[grow, t] = pick[grow].astype(np.int32)
        val = (val * coding.body_size + coding.rank_of[pick]) % coding.modulus
        alive = grow
    batch = SampleBatch(tokens=tokens, lengths=lengths)
    lm._events(model.space, batch).codes[coding.m_eff] = codes.T
    return batch


def naive_log_prob(model: TabularARModel, seq: Sequence) -> float:
    """Chain-rule product computed step by step with explicit softmax calls."""
    steps = list(seq.tokens)
    if len(seq) < model.space.lmax:
        steps.append(model.space.vocabulary.eos_index)
    lp = 0.0
    for t, tok in enumerate(steps):
        row = dense_logits(model)[_context_row(model, steps[:t])]
        probs = np.exp(row - row.max())
        probs = probs / probs.sum()
        lp += float(np.log(probs[tok]))
    return lp


def grad_log_prob(model: TabularARModel, x: Sequence) -> np.ndarray:
    """Score-function gradient of log model(x) as a dense logits-shaped table
    (one-hot minus softmax at each visited context), from the library's
    row-sparse gradient."""
    batch = batch_from(model.space, [x])
    return dense_gradient(model.grad_weighted_sum(batch, np.ones(1)), model.coding.n_contexts)


def _context_row(model: TabularARModel, history: list[int]) -> int:
    """Table row of the context formed by the last m_eff tokens of `history`."""
    m = model.coding.m_eff
    window = history[-m:] if m > 0 else []
    return int(model.coding.offsets[len(window)]) + _numeral(model.space, window)


def _context_rows(model: TabularARModel, batch: SampleBatch, t: int) -> np.ndarray:
    """Context row of every sequence at step t."""
    prefixes = [row[: min(t, n)].tolist() for row, n in zip(batch.tokens, batch.lengths)]
    return np.array([_context_row(model, p) for p in prefixes], dtype=np.int64)


def _dense_softmax(model: TabularARModel) -> np.ndarray:
    """Every context's next-token probabilities, from its logits row."""
    logits = dense_logits(model)
    m = np.max(logits, axis=1, keepdims=True)
    return np.exp(logits - (m + np.log(np.sum(np.exp(logits - m), axis=1, keepdims=True))))


def _steps_by_prefix(model: TabularARModel, batch: SampleBatch):
    """Per step: (row indices, context rows, emitted tokens) of the free
    emissions, in batch order, each context found from the row's prefix."""
    eos = model.space.vocabulary.eos_index
    for t in range(model.space.lmax):
        rows = np.nonzero(batch.lengths >= t)[0]
        if len(rows) == 0:
            break
        codes = _context_rows(model, batch, t)[rows]
        toks = np.where(batch.lengths[rows] > t, batch.tokens[rows, t], eos).astype(np.int64)
        yield rows, codes, toks


def dense_grad_weighted_sum(
    model: TabularARModel, batch: SampleBatch, weights: np.ndarray
) -> np.ndarray:
    """Reference batch gradient on a dense table, row by row: per step,
    `np.add.at` of the weights into the emitted cells and into their context
    rows' totals, over the batch in order; then the emitted sums minus each
    row's total times its softmax."""
    prob = _dense_softmax(model)
    emitted, totals = np.zeros_like(prob), np.zeros(len(prob))
    for rows, codes, toks in _steps_by_prefix(model, batch):
        np.add.at(emitted, (codes, toks), weights[rows])
        np.add.at(totals, codes, weights[rows])
    return emitted - totals[:, None] * prob


def cellwise_grad_weighted_sum(
    model: TabularARModel, batch: SampleBatch, weights: np.ndarray
) -> np.ndarray:
    """The batch gradient summed cell by cell on a dense table: per step,
    `np.add.at` of the one-hot events, then of the softmax events, over the
    batch in order. The same sum as `dense_grad_weighted_sum` in another
    order, so it agrees to rounding, not bit for bit."""
    prob = _dense_softmax(model)
    grad = np.zeros_like(prob)
    for rows, codes, toks in _steps_by_prefix(model, batch):
        w = weights[rows]
        np.add.at(grad, (codes, toks), w)
        np.add.at(grad, codes, -w[:, None] * prob[codes])
    return grad


def reinforce_step(
    policy: TabularARModel, reward_fn, k: int, learning_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Reference policy-gradient step on samples from the policy itself:
    applies learning_rate * mean_k(reward * grad log pi); returns the rewards."""
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
    kl_target: float | None = None,
    beta_step: float = 0.1,
) -> float:
    """Reference step on reward(x) - beta * log(pi(x)/a(x)); returns the new
    beta. With a `kl_target`, beta moves by (1 + beta_step) after the update:
    up while the batch estimate of KL(pi||a) exceeds the target, down otherwise."""
    samples = policy.sample_batch(k, rng)
    rewards = np.asarray(reward_fn(samples), dtype=float)
    log_ratio = policy.log_prob_batch(samples) - base.log_prob_batch(samples)
    penalized = rewards - beta * log_ratio
    grad = policy.grad_weighted_sum(samples, penalized)
    policy.apply_update(grad, learning_rate / k)
    if kl_target is not None:
        estimated_kl = float(log_ratio.mean())
        if estimated_kl > kl_target:
            beta = beta * (1.0 + beta_step)
        else:
            beta = beta / (1.0 + beta_step)
    return beta


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


def exact_tvd(d1: np.ndarray, d2: np.ndarray) -> float:
    """Total variation distance of two distributions over one universe, with
    the input checks of `estimators.exact_kl`."""
    d1, d2 = _check_pair(d1, d2)
    return float(0.5 * np.abs(d1 - d2).sum())


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


def _ngram_counts(tokens: tuple[int, ...], n: int) -> Counter:
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def naive_corpus_dist_n(samples: list[Sequence], n: int) -> float:
    """Pooled distinct/total n-gram ratio, one sequence at a time."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    distinct: set = set()
    total = 0
    for s in samples:
        if len(s) >= n:
            distinct.update(_ngram_counts(s.tokens, n))
            total += len(s) - n + 1
    if total == 0:
        return 1.0
    return len(distinct) / total


def _closest_reference_length(sorted_lengths: list[int], own: int) -> int:
    """Closest length among the other samples; ties prefer the shorter.

    `sorted_lengths` covers every sample including the candidate, so one
    instance of the candidate's own length is dropped first.
    """
    pos = bisect.bisect_left(sorted_lengths, own)
    rest = sorted_lengths[:pos] + sorted_lengths[pos + 1 :]
    if not rest:
        return own
    j = bisect.bisect_left(rest, own)
    options = [rest[k] for k in (j - 1, j) if 0 <= k < len(rest)]
    return min(options, key=lambda r: (abs(r - own), r))


def naive_self_bleu_n(samples: list[Sequence], n: int) -> float:
    """Mean over long-enough samples of BLEU-n against all other samples, one
    sequence at a time: for every n-gram, the two largest per-sequence counts
    make "max over references except self" a lookup."""
    if len(samples) < 2:
        raise TooFewSamples("self-BLEU needs at least two samples")
    if n < 1:
        raise ConfigError("n must be >= 1")
    candidates = [i for i, s in enumerate(samples) if len(s) >= n]
    if not candidates:
        return 0.0
    # tops[m][gram] = (best count, owner index, second-best count)
    tops: list[dict] = [dict() for _ in range(n)]
    for i, s in enumerate(samples):
        for m in range(1, n + 1):
            if len(s) < m:
                continue
            for gram, c in _ngram_counts(s.tokens, m).items():
                entry = tops[m - 1].get(gram)
                if entry is None:
                    tops[m - 1][gram] = (c, i, 0)
                else:
                    c1, owner, c2 = entry
                    if c > c1:
                        tops[m - 1][gram] = (c, i, c1)
                    elif c > c2:
                        tops[m - 1][gram] = (c1, owner, c)
    sorted_lengths = sorted(len(s) for s in samples)
    scores = []
    for i in candidates:
        s = samples[i]
        log_precision = 0.0
        for m in range(1, n + 1):
            clipped = 0
            for gram, c in _ngram_counts(s.tokens, m).items():
                c1, owner, c2 = tops[m - 1][gram]
                clipped += min(c, c1 if owner != i else c2)
            p = clipped / (len(s) - m + 1)
            log_precision += np.log(max(p, 1e-9)) / n
        r = _closest_reference_length(sorted_lengths, len(s))
        bp = 1.0 if len(s) > r else float(np.exp(1.0 - r / len(s)))
        scores.append(bp * float(np.exp(log_precision)))
    return float(np.mean(scores))


def naive_zipf_rows(samples: list[Sequence], vocab: Vocabulary) -> list[tuple[int, str, int]]:
    """(rank, token, frequency) rows from a `Counter`, frequency descending,
    ties by vocabulary index."""
    counts = Counter()
    for s in samples:
        counts.update(s.tokens)
    if not counts:
        raise EmptyCorpus("zipf table needs at least one token")
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(rank + 1, vocab.tokens[tok], freq) for rank, (tok, freq) in enumerate(ordered)]


def zipf_total(rows) -> int:
    """Token count of a Zipf table: the sum of its frequency column."""
    return sum(freq for _, _, freq in rows)


def batch_of(seqs: list[Sequence], width: int | None = None) -> SampleBatch:
    """Token-matrix batch of `seqs`, padded with -1 to `width` (default: the
    longest sequence), without a space: tokens may be any non-negative ints."""
    width = max([len(s) for s in seqs] + [0]) if width is None else width
    tokens = np.full((len(seqs), width), -1, dtype=np.int32)
    for i, s in enumerate(seqs):
        tokens[i, : len(s)] = s.tokens
    return SampleBatch(tokens=tokens, lengths=np.array([len(s) for s in seqs], dtype=np.int64))


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


def hybrid_task() -> tuple[TabularARModel, ConstraintSet, FitConfig]:
    """Criterion 10's hybrid task: an order-2 base fitted on a 300-line corpus
    over four tokens (lmax 5), the pointwise constraint A ('c' present) and
    the distributional B ('d' present, target 0.5), both rare under the base,
    and the fit config the criterion uses."""
    rng = np.random.default_rng(33)
    text = synthetic_corpus(
        rng, tokens=["a", "b", "c", "d"], weights=[0.52, 0.40, 0.045, 0.035],
        n_lines=300, min_len=2, max_len=5,
    )
    tok = tokenize_corpus(text, lmax=5)
    base = mle_fit(tok.space, tok.batch, order=2, smoothing=0.25)
    v = tok.space.vocabulary
    cs = ConstraintSet([
        ConstraintSpec(TokenPresence(v, "c", feature_id="A"), 1.0, pointwise=True),
        ConstraintSpec(TokenPresence(v, "d", feature_id="B"), 0.5),
    ])
    config = FitConfig(sample_count=100000, tolerance=1e-4)
    return base, cs, config


def exact_hybrid_projection(base: TabularARModel, cs: ConstraintSet) -> tuple[float, np.ndarray]:
    """(lam*, p*) of a set with one pointwise and one distributional constraint,
    in that order: p* = a * b * exp(lam* phi) normalized, with lam* bisected on
    the base conditioned on b, by naive per-sequence feature values."""
    seqs = list(enumerate_sequences(base.space))
    b, phi = (np.array([feature_value(c.feature, x) for x in seqs]) for c in cs)
    conditioned = base.exact_distribution() * b
    conditioned /= conditioned.sum()
    lam = bisect_lambda(conditioned, phi, cs.targets[1])
    p = conditioned * np.exp(lam * phi)
    return lam, p / p.sum()
