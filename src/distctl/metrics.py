"""Evaluation metrics: constraint expectations, diversity, token-frequency tables.

Dist-n is pooled over a sample corpus (distinct n-grams over total n-grams
across all samples; pooling keeps the duplicate monotonicity property that a
per-sample mean lacks). Self-BLEU-n scores each long-enough sample against all
others as references, with uniform 1..n weights, clipped precisions floored at
1e-9, and the closest-reference-length brevity penalty.

`EvalOptions` is the config's whole `eval` block. A `snapshot` evaluates a
policy on fresh samples, and `metrics_columns` is the one definition of a
snapshot's CSV columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ebm import Ebm
from .errors import ConfigError, EmptyCorpus, TooFewSamples
from .estimators import Estimate, importance_ratios, kl_models_from_logs, kl_p_from_logs
from .lm import TabularARModel
from .seqspace import SampleBatch, Vocabulary

PRECISION_FLOOR = 1e-9


@dataclass(frozen=True)
class NgramCounts:
    """What pooled Dist-n and Self-BLEU-n need of a batch's m-grams, m = 1..max_n.

    `distinct[m - 1]` is the number of distinct m-grams in the corpus, and
    `clipped[m - 1][i]` is the number of row i's m-grams matched by another
    row: each distinct gram counts min(row i's count, the largest count among
    the other rows).
    """

    distinct: list[int]
    clipped: list[np.ndarray]


def ngram_counts(samples: SampleBatch, max_n: int) -> NgramCounts:
    """Count the batch's m-grams for m = 1..max_n in one pass over the token matrix.

    An m-gram's id is its (m-1)-gram prefix's dense id times the token base
    plus its last token, re-densified by `np.unique` at every m, so ids stay
    below rows * width * base whatever n and the vocabulary size.
    """
    tokens = samples.tokens.astype(np.int64)
    lengths = samples.lengths
    n_rows, width = tokens.shape
    base = int(tokens.max(initial=-1)) + 1  # the -1 padding is always masked out
    rows = np.broadcast_to(np.arange(n_rows)[:, None], tokens.shape)
    distinct: list[int] = []
    clipped: list[np.ndarray] = []
    ids = tokens
    for m in range(1, max_n + 1):
        starts = max(width - m + 1, 0)
        valid = np.arange(starts) + m <= lengths[:, None]
        if not valid.any():  # no row is m long, so no row is longer either
            distinct.append(0)
            clipped.append(np.zeros(n_rows))
            continue
        if m > 1:
            ids = ids[:, :starts] * base + tokens[:, m - 1 :]
        grams, dense = np.unique(ids[valid], return_inverse=True)
        ids = np.zeros((n_rows, starts), dtype=np.int64)
        ids[valid] = dense
        distinct.append(len(grams))
        # per-row count of each gram, then per gram: best count, its row, second best
        row_gram = rows[:, :starts][valid] * len(grams) + dense
        pairs, pair_of = np.unique(row_gram, return_inverse=True)
        count = np.bincount(pair_of)
        row, gram = np.divmod(pairs, len(grams))
        order = np.argsort(gram * (int(count.max()) + 1) - count)  # by gram, then count descending
        ranked = np.append(count[order], 0)
        head = np.flatnonzero(np.diff(gram[order], prepend=-1))  # one per gram, by id
        best, owner = ranked[head], row[order[head]]
        second = np.where(np.diff(head, append=len(order)) > 1, ranked[head + 1], 0)
        # ties for the best count leave best == second, so any owner gives the same clip
        other = np.where(row == owner[gram], second[gram], best[gram])
        clipped.append(np.bincount(row, weights=np.minimum(count, other), minlength=n_rows))
    return NgramCounts(distinct=distinct, clipped=clipped)


def _counts_up_to(samples: SampleBatch, n: int, counts: NgramCounts | None) -> NgramCounts:
    if counts is None:
        return ngram_counts(samples, n)
    if len(counts.distinct) < n:
        raise ConfigError(f"n-gram counts stop at {len(counts.distinct)}, below n = {n}")
    return counts


def corpus_dist_n(samples: SampleBatch, n: int, counts: NgramCounts | None = None) -> float:
    """Pooled distinct/total n-gram ratio across the whole sample corpus.

    `counts` (from `ngram_counts(samples, >= n)`) shares one count across calls.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    total = int(np.maximum(samples.lengths - n + 1, 0).sum())
    if total == 0:
        return 1.0
    return _counts_up_to(samples, n, counts).distinct[n - 1] / total


def _closest_other_length(lengths: np.ndarray) -> np.ndarray:
    """Indexed by a length L: the closest length among the other samples of a
    sample of length L; ties prefer the shorter."""
    hist = np.bincount(lengths)
    span = np.arange(len(hist))
    others = hist - np.eye(len(hist), dtype=hist.dtype)  # row L: all samples but one of length L
    distance = 2 * np.abs(span - span[:, None]) + (span > span[:, None])  # odd when longer
    return np.argmin(np.where(others > 0, distance, 2 * len(hist) + 1), axis=1)


def self_bleu_n(samples: SampleBatch, n: int, counts: NgramCounts | None = None) -> float:
    """Mean over long-enough samples of BLEU-n against all other samples.

    Each order m's clipped matches come from `ngram_counts`, which keeps the
    two largest per-sequence counts of every gram, so "max over references
    except self" is a lookup instead of a rescan. `counts` (from
    `ngram_counts(samples, >= n)`) shares one count across calls.
    """
    if len(samples) < 2:
        raise TooFewSamples("self-BLEU needs at least two samples")
    if n < 1:
        raise ConfigError("n must be >= 1")
    lengths = samples.lengths
    candidates = np.flatnonzero(lengths >= n)
    if len(candidates) == 0:
        return 0.0
    counts = _counts_up_to(samples, n, counts)
    own = lengths[candidates]
    log_precision = np.zeros(len(candidates))
    for m in range(1, n + 1):
        p = counts.clipped[m - 1][candidates] / (own - m + 1)
        log_precision += np.log(np.maximum(p, PRECISION_FLOOR)) / n
    r = _closest_other_length(lengths)[own]
    bp = np.where(own > r, 1.0, np.exp(1.0 - r / own))
    return float(np.mean(bp * np.exp(log_precision)))


def zipf_table(samples: SampleBatch, vocab: Vocabulary) -> list[tuple[int, str, int]]:
    """(rank, token, frequency) rows, frequency non-increasing, ties by vocab index."""
    body = samples.tokens[np.arange(samples.width) < samples.lengths[:, None]]
    if not body.size:
        raise EmptyCorpus("zipf table needs at least one token")
    counts = np.bincount(body, minlength=vocab.size)
    ordered = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    return [(rank + 1, vocab.tokens[tok], int(counts[tok])) for rank, tok in enumerate(ordered)]


# -- per-evaluation snapshots -------------------------------------------------


@dataclass
class EvalOptions:
    """The `eval` block: the snapshot cadence of a trained run, the sample
    size of each snapshot, whether it adds the exact columns, and the exact
    KL(p || pi) below which an ablation row counts as converged."""

    eval_every: int = 10
    sample_size: int = 1024
    exact: bool = False
    threshold: float | None = None

    def __post_init__(self):
        if self.sample_size < 2:
            raise ConfigError("must be >= 2", "sample_size")
        if self.eval_every < 1:
            raise ConfigError("must be >= 1", "eval_every")
        if self.threshold is not None and not self.threshold > 0:
            raise ConfigError("must be > 0", "threshold")
        if self.threshold is not None and not self.exact:  # it compares the exact KL
            raise ConfigError("needs exact_oracle", "threshold")


@dataclass
class MetricsRecord:
    step: int
    method: str
    e_phi: np.ndarray
    kl_p_pi: Estimate
    kl_pi_a: Estimate
    dist_n: dict[int, float]
    self_bleu_n: dict[int, float]
    z_estimate: float
    kl_p_pi_exact: float | None = None
    e_phi_exact: np.ndarray | None = None


def snapshot(
    step: int,
    method: str,
    policy: TabularARModel,
    target: Ebm,
    rng_eval: np.random.Generator,
    options: EvalOptions,
    zma_value: float = 0.0,
) -> MetricsRecord:
    """Evaluate the policy on fresh samples; optionally add the exact columns,
    from the target's DP (`Ebm.exact_policy_terms`), with no universe-sized
    array. The batch's features, base log-probs and importance weights P/pi
    are evaluated once each; with no moving-average Z, Z is the weights' mean.
    A trainable policy holds no next-token probability 0.0 (`lm` refuses one
    where it would be made), so KL(p || pi) is finite."""
    batch = policy.sample_batch(options.sample_size, rng_eval)
    phi = target.constraint_set.feature_matrix(batch)
    log_pi = policy.log_prob_batch(batch)
    log_a = target.base.log_prob_batch(batch)
    kl_pi_a = kl_models_from_logs(log_pi, log_a)
    log_p_score = target.log_scores(log_a, phi)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends as NonFiniteEstimate
        weights = importance_ratios(log_p_score, log_pi)
    z = zma_value if zma_value > 0.0 else float(np.mean(weights))
    if z > 0.0:
        kl_p_pi = kl_p_from_logs(weights, log_p_score, log_pi, z)
    else:
        kl_p_pi = Estimate(value=float("nan"), standard_error=float("nan"))
    grams = ngram_counts(batch, 5)
    record = MetricsRecord(
        step=step,
        method=method,
        e_phi=phi.mean(axis=0),
        kl_p_pi=kl_p_pi,
        kl_pi_a=kl_pi_a,
        dist_n={k: corpus_dist_n(batch, k, grams) for k in (1, 2, 3)},
        self_bleu_n={k: self_bleu_n(batch, k, grams) for k in (3, 4, 5)},
        z_estimate=zma_value,
    )
    if options.exact:
        record.kl_p_pi_exact, record.e_phi_exact = target.exact_policy_terms(policy)
    return record


def metrics_columns(record: MetricsRecord, constraint_ids: list[str]) -> list[tuple[str, str]]:
    """A record's CSV row as ordered (column, text) pairs; a CSV's header is
    its first row's columns. The exact columns follow when the record has
    them. Pairs, not a dict: ids `x` and `exact_x` both name `e_phi_exact_x`."""
    values = list(zip([f"e_phi_{cid}" for cid in constraint_ids], record.e_phi, strict=True))
    values += [("kl_p_pi", record.kl_p_pi.value), ("kl_p_pi_se", record.kl_p_pi.standard_error),
               ("kl_pi_a", record.kl_pi_a.value), ("kl_pi_a_se", record.kl_pi_a.standard_error)]
    values += [(f"dist_{k}", record.dist_n[k]) for k in (1, 2, 3)]
    values += [(f"self_bleu_{k}", record.self_bleu_n[k]) for k in (3, 4, 5)]
    values.append(("z_ma", record.z_estimate))
    if record.kl_p_pi_exact is not None:
        values.append(("kl_p_pi_exact", record.kl_p_pi_exact))
        exact_columns = [f"e_phi_exact_{cid}" for cid in constraint_ids]
        values += zip(exact_columns, record.e_phi_exact, strict=True)
    pairs = [("step", str(record.step)), ("method", record.method)]
    return pairs + [(name, repr(float(v))) for name, v in values]
