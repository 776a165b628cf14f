"""Evaluation metrics: constraint expectations, diversity, token-frequency tables.

Dist-n is pooled over a sample corpus (distinct n-grams over total n-grams
across all samples; pooling keeps the duplicate monotonicity property that a
per-sample mean lacks). Self-BLEU-n scores each long-enough sample against all
others as references, with uniform 1..n weights, clipped precisions floored at
1e-9, and the closest-reference-length brevity penalty.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .ebm import Ebm
from .errors import ConfigError, EmptyCorpus, TooFewSamples
from .estimators import (
    Estimate,
    exact_kl,
    kl_models_from_logs,
    kl_p_from_logs,
)
from .lm import TabularARModel
from .seqspace import SampleBatch, Sequence, Vocabulary

PRECISION_FLOOR = 1e-9


def expectation_phi(samples: SampleBatch, constraint_set) -> np.ndarray:
    """Per-feature sample means, in constraint order."""
    if len(samples) < 1:
        raise ConfigError("expectation_phi needs at least one sample")
    if len(constraint_set) == 0:
        return np.zeros(0)
    return constraint_set.feature_matrix(samples).mean(axis=0)


def _ngram_counts(tokens: tuple[int, ...], n: int) -> Counter:
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def corpus_dist_n(samples: list[Sequence], n: int) -> float:
    """Pooled distinct/total n-gram ratio across the whole sample corpus."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    distinct: set = set()
    total = 0
    for s in samples:
        if len(s) >= n:
            c = _ngram_counts(s.tokens, n)
            distinct.update(c)
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


def self_bleu_n(samples: list[Sequence], n: int) -> float:
    """Mean over long-enough samples of BLEU-n against all other samples.

    Runs in time linear in the corpus size by keeping, for every n-gram, the
    two largest per-sequence counts (so "max over references except self" is a
    lookup instead of a rescan).
    """
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
            own = _ngram_counts(s.tokens, m)
            clipped = 0
            for gram, c in own.items():
                c1, owner, c2 = tops[m - 1][gram]
                max_other = c1 if owner != i else c2
                clipped += min(c, max_other)
            p = clipped / (len(s) - m + 1)
            log_precision += np.log(max(p, PRECISION_FLOOR)) / n
        r = _closest_reference_length(sorted_lengths, len(s))
        bp = 1.0 if len(s) > r else float(np.exp(1.0 - r / len(s)))
        scores.append(bp * float(np.exp(log_precision)))
    return float(np.mean(scores))


@dataclass
class ZipfTable:
    """(rank, token, frequency) rows, frequency non-increasing, ties by vocab index."""

    rows: list[tuple[int, str, int]]

    @property
    def total(self) -> int:
        return sum(freq for _, _, freq in self.rows)

    @property
    def tail_length(self) -> int:
        return len(self.rows)


def zipf_table(samples: list[Sequence], vocab: Vocabulary) -> ZipfTable:
    counts = Counter()
    for s in samples:
        counts.update(s.tokens)
    if not counts:
        raise EmptyCorpus("zipf table needs at least one token")
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = [(rank + 1, vocab.tokens[tok], freq) for rank, (tok, freq) in enumerate(ordered)]
    return ZipfTable(rows=rows)


# -- per-evaluation snapshots -------------------------------------------------


@dataclass
class EvalOptions:
    sample_size: int = 1024
    exact: bool = False

    def __post_init__(self):
        if self.sample_size < 2:
            raise ConfigError("must be >= 2", "sample_size")


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
    base: TabularARModel,
    target: Ebm,
    rng_eval: np.random.Generator,
    options: EvalOptions,
    zma_value: float = 0.0,
) -> MetricsRecord:
    """Evaluate the policy on fresh samples; optionally add enumeration-exact columns."""
    batch = policy.sample_batch(options.sample_size, rng_eval)
    constraint_set = target.constraint_set
    e_phi = expectation_phi(batch, constraint_set)
    log_pi = policy.log_prob_batch(batch)
    kl_pi_a = kl_models_from_logs(log_pi, base.log_prob_batch(batch))
    log_p_score = target.log_score_batch(batch)
    z = zma_value
    if z <= 0.0:
        z = float(np.mean(np.exp(log_p_score - log_pi)))
    if z > 0.0:
        kl_p_pi = kl_p_from_logs(log_p_score, log_pi, log_pi, z)
    else:
        kl_p_pi = Estimate(value=float("nan"), standard_error=float("nan"), sample_count=len(batch))
    seqs = batch.sequences()
    record = MetricsRecord(
        step=step,
        method=method,
        e_phi=e_phi,
        kl_p_pi=kl_p_pi,
        kl_pi_a=kl_pi_a,
        dist_n={k: corpus_dist_n(seqs, k) for k in (1, 2, 3)},
        self_bleu_n={k: self_bleu_n(seqs, k) for k in (3, 4, 5)},
        z_estimate=zma_value,
    )
    if options.exact:
        _, p = target.exact_normalize()
        pi_dist = policy.exact_distribution()
        record.kl_p_pi_exact = exact_kl(p, pi_dist)
        record.e_phi_exact = pi_dist @ target.phi_universe()
    return record


def metrics_csv_header(constraint_ids: list[str], exact: bool) -> list[str]:
    cols = ["step", "method"]
    cols += [f"e_phi_{cid}" for cid in constraint_ids]
    cols += ["kl_p_pi", "kl_p_pi_se", "kl_pi_a", "kl_pi_a_se"]
    cols += [f"dist_{k}" for k in (1, 2, 3)]
    cols += [f"self_bleu_{k}" for k in (3, 4, 5)]
    cols += ["z_ma"]
    if exact:
        cols += ["kl_p_pi_exact"]
        cols += [f"e_phi_exact_{cid}" for cid in constraint_ids]
    return cols


def metrics_csv_row(record: MetricsRecord) -> list[str]:
    vals: list = [record.step, record.method]
    vals += [repr(float(v)) for v in record.e_phi]
    vals += [
        repr(float(record.kl_p_pi.value)),
        repr(float(record.kl_p_pi.standard_error)),
        repr(float(record.kl_pi_a.value)),
        repr(float(record.kl_pi_a.standard_error)),
    ]
    vals += [repr(float(record.dist_n[k])) for k in (1, 2, 3)]
    vals += [repr(float(record.self_bleu_n[k])) for k in (3, 4, 5)]
    vals += [repr(float(record.z_estimate))]
    if record.kl_p_pi_exact is not None:
        vals += [repr(float(record.kl_p_pi_exact))]
        vals += [repr(float(v)) for v in record.e_phi_exact]
    return [str(v) for v in vals]
