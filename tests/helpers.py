"""Independent oracles and generators shared across the test suite.

Everything here is deliberately written against the math, not against the
library's code paths: naive loops, explicit chain rules, bisection on exact
enumerations.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from distctl.lm import TabularARModel
from distctl.seqspace import SampleBatch, Sequence, SequenceSpace, Vocabulary

LETTERS = "abcdefghij"


def small_space(body: int, lmax: int) -> SequenceSpace:
    vocab = Vocabulary.from_body_tokens(list(LETTERS[:body]))
    return SequenceSpace(vocabulary=vocab, lmax=lmax)


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


def naive_log_prob(model: TabularARModel, seq: Sequence) -> float:
    """Chain-rule product computed step by step with explicit softmax calls."""
    m = model.coding.m_eff
    lp = 0.0
    history: list[int] = []
    rank = {v: r for r, v in enumerate(model.space.vocabulary.body_indices)}

    def context_row(hist):
        window = hist[-m:] if m > 0 else []
        val = 0
        for tok in window:
            val = val * model.space.body_size + rank[tok]
        return int(model.coding.offsets[len(window)]) + val

    for tok in seq.tokens:
        row = model.logits[context_row(history)]
        probs = np.exp(row - row.max())
        probs = probs / probs.sum()
        lp += float(np.log(probs[tok]))
        history.append(tok)
    if len(seq) < model.space.lmax:
        row = model.logits[context_row(history)]
        probs = np.exp(row - row.max())
        probs = probs / probs.sum()
        lp += float(np.log(probs[model.space.vocabulary.eos_index]))
    return lp


def grad_log_prob(model: TabularARModel, x: Sequence) -> np.ndarray:
    """Score-function gradient of log model(x) as a dense logits-shaped table
    (one-hot minus softmax at each visited context), from the library's
    row-sparse gradient."""
    batch = SampleBatch.from_sequences(model.space, [x])
    return model.grad_weighted_sum(batch, np.ones(1)).dense(len(model.logits))


def _context_rows(model: TabularARModel, batch: SampleBatch, t: int) -> np.ndarray:
    """Context row of every sequence at step t, from its last m_eff tokens."""
    m = model.coding.m_eff
    rank = {v: r for r, v in enumerate(model.space.vocabulary.body_indices)}
    out = []
    for row, n in zip(batch.tokens, batch.lengths):
        window = [int(tok) for tok in row[: min(t, n)]][-m:] if m > 0 else []
        val = 0
        for tok in window:
            val = val * model.space.body_size + rank[tok]
        out.append(int(model.coding.offsets[len(window)]) + val)
    return np.array(out, dtype=np.int64)


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
