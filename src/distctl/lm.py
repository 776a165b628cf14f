"""Tabular order-k autoregressive models over a finite sequence space.

Termination convention: a model emits body tokens step by step; at every step
before lmax the softmax covers the full vocabulary (EOS included), and at step
lmax EOS is forced with probability 1. Every model is therefore an exactly
normalized distribution over the finite universe.

Contexts are the last min(k-1, t) tokens at step t (begin-of-sequence padding
is implicit in the shorter-context rows), indexed with the same
length-then-lex coding used for sequence enumeration.

Emission events: a batch's free emissions are laid out step-aligned, (n, lmax).
Step t of row i is active when t <= length_i (the body tokens, then EOS at a
free end; the forced EOS at lmax is no event), its step token is the body
token or EOS, and its context code is the table row of its context, 0 where
the step is not active. The step tokens and the mask depend on the space only;
the codes depend on the model order through m_eff. Each batch keeps one record
of them, filled lazily, with one code matrix per m_eff it was scored under;
`sample_batch` stores the codes it computes while sampling. Batches are
read-only, so the record cannot go stale. A log-prob is one gather of
(code, token) cells summed step by step, in chain-rule order.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    EmptyCorpus,
    NonFiniteLogits,
    NotTrainable,
    SchemaMismatch,
    UniverseTooLarge,
)
from .seqspace import (
    ENUMERATION_GUARD,
    SampleBatch,
    Sequence,
    SequenceSpace,
    Vocabulary,
    length_offsets,
    string_space_size,
)

MODEL_FORMAT = "distctl-tabular-ar"
MODEL_VERSION = 1
_WRITE_CHUNK_ROWS = 65536  # rows joined into one string per file write


def check_fit_args(order: int, smoothing: float = 0.0, prefix: str = "") -> None:
    """The range rules of an order-`order` model fit, which need no space;
    `prefix` goes in front of the field names (`fit_` for rejection-mle)."""
    if order < 1:
        raise ConfigError("must be >= 1", f"{prefix}order")
    if not smoothing >= 0:
        raise ConfigError("must be >= 0", f"{prefix}smoothing")


class _Coding:
    """Rolling-context arithmetic shared by every batched model operation."""

    def __init__(self, space: SequenceSpace, order: int):
        check_fit_args(order)
        self.space = space
        self.body_size = space.body_size
        self.m_eff = min(order - 1, max(space.lmax - 1, 0))
        self.n_contexts = string_space_size(self.body_size, self.m_eff)
        if self.n_contexts > ENUMERATION_GUARD:
            raise UniverseTooLarge(
                f"context table would hold {self.n_contexts} rows "
                f"(> {ENUMERATION_GUARD})"
            )
        self.offsets = length_offsets(self.body_size, self.m_eff)
        self.modulus = self.body_size**self.m_eff if self.m_eff > 0 else 1
        # vocabulary index -> body rank (EOS slot unused)
        rank = np.zeros(space.vocabulary.size, dtype=np.int64)
        for r, v in enumerate(space.vocabulary.body_indices):
            rank[v] = r
        self.rank_of = rank

    def step_offset(self, t: int) -> int:
        return int(self.offsets[min(t, self.m_eff)])

    def encode(self, tokens: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Context code of every step of a token matrix, (n, lmax) stored
        step-major, 0 where `active` is false.

        The context value rolls one token per step, val * b + rank of the
        token, kept to the last m_eff tokens by the modulus (a no-op while
        the context is shorter). Past a row's end it rolls padding, which
        the mask discards.
        """
        ranks = self.rank_of[np.maximum(tokens.T, 0)]
        codes = np.zeros(ranks.shape, dtype=np.int64)
        val = np.zeros(len(tokens), dtype=np.int64)
        for t in range(len(codes)):
            codes[t] = self.step_offset(t) + val
            val = (val * self.body_size + ranks[t]) % self.modulus
        codes[~active.T] = 0
        return codes.T


class RowGradient(NamedTuple):
    """A logits-table gradient kept as the context rows it touches."""

    rows: np.ndarray  # sorted, unique context indices
    values: np.ndarray  # (len(rows), vocabulary size)

    @classmethod
    def full(cls, grad: np.ndarray) -> "RowGradient":
        """Every row of a logits-shaped gradient."""
        return cls(np.arange(len(grad)), grad)

    def dense(self, n_contexts: int) -> np.ndarray:
        """The gradient scattered into a zero logits-shaped table."""
        out = np.zeros((n_contexts, self.values.shape[1]))
        out[self.rows] = self.values
        return out


def _row_log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax; a row's result does not depend on the other rows."""
    m = np.max(logits, axis=1, keepdims=True)
    lse = m + np.log(np.sum(np.exp(logits - m), axis=1, keepdims=True))
    return logits - lse


@dataclass
class _Events:
    """A batch's free emissions (see the module docstring). Each matrix is
    (n, lmax), stored step-major: `.T` is contiguous per step."""

    space: SequenceSpace
    toks: np.ndarray  # int64: body token, EOS at the free end
    active: np.ndarray  # bool: t <= length
    codes: dict[int, np.ndarray] = field(default_factory=dict)  # m_eff -> int64 codes


def _events(space: SequenceSpace, batch: SampleBatch) -> _Events:
    """The batch's event record, built on first use under `space`."""
    record = batch._events
    if record is None or record.space != space:
        reach = np.arange(space.lmax + 1)[:, None] <= batch.lengths  # row t: length >= t
        eos = np.int64(space.vocabulary.eos_index)
        toks = np.where(reach[1:], batch.tokens.T, eos)
        record = batch._events = _Events(space, toks.T, reach[:-1].T)
    return record


def _coded_events(coding: _Coding, batch: SampleBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codes, toks, active) of the batch under `coding`; each order is encoded once."""
    record = _events(coding.space, batch)
    codes = record.codes.get(coding.m_eff)
    if codes is None:
        codes = record.codes[coding.m_eff] = coding.encode(batch.tokens, record.active)
    return codes, record.toks, record.active


@dataclass
class TabularARModel:
    """Softmax next-token table over all reachable contexts."""

    space: SequenceSpace
    order: int
    logits: np.ndarray
    trainable: bool = False
    _logprob: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.coding = _Coding(self.space, self.order)
        expected = (self.coding.n_contexts, self.space.vocabulary.size)
        if self.logits.shape != expected:
            raise ConfigError(f"logits shape {self.logits.shape} != expected {expected}")
        if np.isnan(self.logits).any():
            raise ConfigError("logits contain NaN")
        if np.isposinf(self.logits).any():
            raise ConfigError("logits contain +inf")
        if self.trainable and np.isneginf(self.logits).any():
            raise ConfigError("-inf logit sentinel is only permitted in frozen models")
        if np.isneginf(self.logits).all(axis=1).any():
            raise ConfigError("a context row has no admissible next token")

    # -- constructors -------------------------------------------------------

    @classmethod
    def uniform_logits(cls, space: SequenceSpace, order: int = 1, trainable: bool = False):
        """Uniform next-token distribution at every context (all-zero logits)."""
        coding = _Coding(space, order)
        logits = np.zeros((coding.n_contexts, space.vocabulary.size))
        return cls(space=space, order=order, logits=logits, trainable=trainable)

    # -- core ---------------------------------------------------------------

    def _log_softmax(self) -> np.ndarray:
        """The cached log-softmax table; `apply_update` refreshes the rows it changes."""
        if self._logprob is None:
            self._logprob = _row_log_softmax(self.logits)
        return self._logprob

    def invalidate(self):
        """Drop the cached log-softmax after editing `logits` in place."""
        self._logprob = None

    def log_prob_batch(self, batch: SampleBatch) -> np.ndarray:
        codes, toks, active = _coded_events(self.coding, batch)
        steps = np.where(active.T, self._log_softmax()[codes.T, toks.T], 0.0)
        out = np.zeros(len(batch))
        for step in steps:  # chain-rule order; x + 0.0 == x on inactive steps
            out += step
        return out

    def sample_batch(self, n: int, rng: np.random.Generator) -> SampleBatch:
        """Ancestral sampling, vectorized over the batch via the Gumbel-max trick.
        The batch keeps the context codes of this model's order."""
        if n < 1:
            raise ConfigError("sample count must be >= 1")
        logprob = self._log_softmax()
        coding = self.coding
        lmax = self.space.lmax
        eos = self.space.vocabulary.eos_index
        tokens = np.full((n, lmax), -1, dtype=np.int32)
        lengths = np.full(n, lmax, dtype=np.int64)
        codes = np.zeros((lmax, n), dtype=np.int64)  # step-major, as `_Coding.encode`
        val = np.zeros(n, dtype=np.int64)
        alive = np.ones(n, dtype=bool)
        for t in range(lmax):
            u = rng.random((n, self.space.vocabulary.size))
            if not alive.any():
                continue  # keep rng consumption independent of outcomes
            np.multiply(coding.step_offset(t) + val, alive, out=codes[t])  # 0 once ended
            # Gumbel noise -log(-log u), subtracted in place: a - b == a + (-b)
            with np.errstate(divide="ignore"):
                np.log(u, out=u)
                np.negative(u, out=u)
                np.log(u, out=u)
            pick = np.argmax(np.subtract(logprob[codes[t]], u, out=u), axis=1)
            ended = alive & (pick == eos)
            lengths[ended] = t
            grow = alive & ~ended
            tokens[grow, t] = pick[grow].astype(np.int32)
            # every row rolls its pick; an ended row's value is unused, its codes stay 0
            val = (val * coding.body_size + coding.rank_of[pick]) % coding.modulus
            alive = grow
        batch = SampleBatch(tokens=tokens, lengths=lengths)
        _events(self.space, batch).codes[coding.m_eff] = codes.T
        return batch

    def grad_weighted_sum(self, batch: SampleBatch, weights: np.ndarray) -> RowGradient:
        """Sum over the batch of weight_i * grad log_prob(x_i), on the touched rows.

        Each free emission adds its weight to the emitted cell and minus its
        weight times the softmax to every cell of its context row. The events
        are summed per cell with `np.bincount`, in step-major then batch order,
        so every cell sees the same additions as a dense `np.add.at` table.
        """
        if not self.trainable:
            raise NotTrainable("model is frozen")
        codes, toks, active = _coded_events(self.coding, batch)
        v = self.space.vocabulary.size
        weights = np.asarray(weights, dtype=float)
        # step-major events: step 0 of every active row, then step 1, ...
        events = active.T
        ev_codes = codes.T[events]
        w = np.broadcast_to(weights, events.shape)[events]
        touched, inverse = np.unique(ev_codes, return_inverse=True)
        row_cells = inverse * v
        onehot_cells = row_cells + toks.T[events]
        soft_cells = row_cells[:, None] + np.arange(v)
        soft_values = -w[:, None] * np.exp(self._log_softmax()[ev_codes])
        bounds = np.concatenate([[0], np.cumsum(events.sum(axis=1))])
        cells, values = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):  # per step: one-hots, then softmax rows
            cells += [onehot_cells[lo:hi], soft_cells[lo:hi].ravel()]
            values += [w[lo:hi], soft_values[lo:hi].ravel()]
        grad = np.bincount(
            np.concatenate(cells), weights=np.concatenate(values), minlength=len(touched) * v
        )
        return RowGradient(touched, grad.reshape(len(touched), v))

    def apply_update(self, grad: RowGradient, learning_rate: float) -> "TabularARModel":
        """Add learning_rate * grad to its rows and refresh only those rows of
        the cached log-softmax. Raises NonFiniteLogits, leaving the model as it
        was, if the update would make a logit NaN or infinite."""
        if not self.trainable:
            raise NotTrainable("model is frozen")
        rows, values = grad
        if values.shape != (len(rows), self.logits.shape[1]):
            raise ConfigError("gradient shape does not match logits")
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            updated = self.logits[rows] + learning_rate * values
        finite = np.isfinite(updated)
        if not finite.all():
            raise NonFiniteLogits(
                f"update with learning rate {learning_rate:g} makes "
                f"{int((~finite).sum())} logits non-finite"
            )
        self.logits[rows] = updated
        if self._logprob is not None:
            self._logprob[rows] = _row_log_softmax(updated)
        return self

    def exact_log_distribution(self) -> np.ndarray:
        """Log-probability of every sequence, aligned with space.enumeration().

        A prefix DP, length by length: a length-k prefix's log-prob is its
        length-(k-1) parent's plus the next-token entry of the parent's
        context row, and the EOS column closes each length below lmax.
        """
        self.space.guard()
        logprob = self._log_softmax()
        coding = self.coding
        b, lmax = coding.body_size, self.space.lmax
        eos = self.space.vocabulary.eos_index
        body = np.asarray(self.space.vocabulary.body_indices, dtype=np.int64)
        offsets = length_offsets(b, lmax)
        out = np.empty(self.space.universe_size)
        prefix = np.zeros(1)
        for k in range(lmax):
            m = min(k, coding.m_eff)
            lo = int(coding.offsets[m])
            block = logprob[lo : lo + b**m]  # rows of the contexts "last m symbols"
            grid = prefix.reshape(-1, b**m)  # column = the prefix's context value
            out[offsets[k] : offsets[k] + b**k] = (grid + block[:, eos]).ravel()
            prefix = (grid[:, :, None] + block[:, body]).ravel()
        out[offsets[lmax] :] = prefix
        return out

    def exact_distribution(self) -> np.ndarray:
        """Probability of every sequence, aligned with space.enumeration()."""
        return np.exp(self.exact_log_distribution())

    def frozen_copy(self) -> "TabularARModel":
        """Frozen snapshot: a copy of the logits and of the cached log-softmax.
        It recomputes and re-validates nothing (the logits already passed)."""
        logprob = self._log_softmax()
        twin = copy.copy(self)
        twin.logits = self.logits.copy()
        twin.trainable = False
        twin._logprob = logprob.copy()
        return twin

    def to_order(self, order: int, trainable: bool = False) -> "TabularARModel":
        """Re-express the same distribution with a longer context window."""
        new_coding = _Coding(self.space, order)
        old = self.coding
        if new_coding.m_eff < old.m_eff:
            raise ConfigError("to_order cannot shorten the context window")
        b = new_coding.body_size
        rows = np.zeros(new_coding.n_contexts, dtype=np.int64)
        for k in range(new_coding.m_eff + 1):
            lo = int(new_coding.offsets[k])
            count = b**k
            ko = min(old.m_eff, k)
            # suffix value of the last ko symbols of each length-k string
            vals = np.arange(count, dtype=np.int64) % (b**ko if ko > 0 else 1)
            rows[lo : lo + count] = old.offsets[ko] + vals
        return TabularARModel(
            space=self.space, order=order, logits=self.logits[rows].copy(), trainable=trainable
        )

    # -- persistence --------------------------------------------------------

    def _header(self) -> dict:
        """Every key of the model document except `logits`, which comes last."""
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "order": self.order,
            "lmax": self.space.lmax,
            "vocabulary": {
                "tokens": list(self.space.vocabulary.tokens),
                "eos_index": self.space.vocabulary.eos_index,
            },
            "trainable": self.trainable,
        }

    def to_document(self) -> dict:
        return {**self._header(), "logits": self.logits.tolist()}

    def write_document(self, path: str | Path) -> None:
        """Write `json.dumps(self.to_document()) + "\\n"` to `path`, byte for byte,
        without building the document.

        A row's JSON text depends only on its bytes, so each distinct row is
        encoded once and the rows are streamed in chunks. Tables expanded by
        `to_order` repeat most of their rows.
        """
        logits = np.ascontiguousarray(self.logits)
        n, v = logits.shape
        row_bytes = logits.view(np.dtype((np.void, v * logits.itemsize))).ravel()
        distinct, inverse = np.unique(row_bytes, return_inverse=True)
        texts = [json.dumps(row) for row in distinct.view(logits.dtype).reshape(-1, v).tolist()]
        head = json.dumps(self._header())
        with open(path, "w") as f:
            f.write(head[:-1] + ', "logits": [')
            for start in range(0, n, _WRITE_CHUNK_ROWS):
                chunk = inverse[start : start + _WRITE_CHUNK_ROWS].tolist()
                f.write((", " if start else "") + ", ".join([texts[i] for i in chunk]))
            f.write("]}\n")

    @classmethod
    def from_document(cls, doc: dict) -> "TabularARModel":
        if not isinstance(doc, dict):
            raise SchemaMismatch("model document must be a mapping")
        expected_keys = {"format", "version", "order", "lmax", "vocabulary", "trainable", "logits"}
        if set(doc) != expected_keys:
            missing = expected_keys - set(doc)
            extra = set(doc) - expected_keys
            raise SchemaMismatch(f"model document keys mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        if doc["format"] != MODEL_FORMAT:
            raise SchemaMismatch(f"unexpected document format {doc['format']!r}")
        if doc["version"] != MODEL_VERSION:
            raise SchemaMismatch(
                f"unsupported model version {doc['version']!r} (expected {MODEL_VERSION})"
            )
        vocab_doc = doc["vocabulary"]
        if not isinstance(vocab_doc, dict) or set(vocab_doc) != {"tokens", "eos_index"}:
            raise SchemaMismatch("vocabulary block keys mismatch")
        tokens, eos_index = vocab_doc["tokens"], vocab_doc["eos_index"]
        _expect_field(
            isinstance(tokens, list) and all(isinstance(t, str) for t in tokens),
            "vocabulary.tokens", "a list of strings",
        )
        ints = {"vocabulary.eos_index": eos_index, "order": doc["order"], "lmax": doc["lmax"]}
        for key, value in ints.items():
            _expect_field(isinstance(value, int) and not isinstance(value, bool), key, "an integer")
        _expect_field(isinstance(doc["trainable"], bool), "trainable", "a boolean")
        try:
            logits = np.asarray(doc["logits"])
        except ValueError:  # ragged rows
            logits = None
        _expect_field(
            logits is not None and logits.ndim == 2 and logits.dtype.kind in "iuf",
            "logits", "a 2-D array of numbers",
        )
        space = SequenceSpace(vocabulary=Vocabulary(tuple(tokens), eos_index), lmax=doc["lmax"])
        logits = logits.astype(float, copy=False)
        return cls(space=space, order=doc["order"], logits=logits, trainable=doc["trainable"])


def _expect_field(ok: bool, key: str, expected: str) -> None:
    if not ok:
        raise SchemaMismatch(f"model document field {key!r} must be {expected}")


def mle_fit(
    space: SequenceSpace,
    corpus: list[Sequence],
    order: int,
    smoothing: float = 0.0,
) -> TabularARModel:
    """Add-lambda-smoothed maximum-likelihood k-gram fit.

    Only free emissions are counted: the forced EOS at full length is not an
    observation. Contexts never visited by the corpus get a uniform row.
    """
    if not corpus:
        raise EmptyCorpus("mle_fit needs a non-empty corpus")
    check_fit_args(order, smoothing)
    coding = _Coding(space, order)
    counts = np.zeros((coding.n_contexts, space.vocabulary.size))
    codes, toks, active = _coded_events(coding, SampleBatch.from_sequences(space, corpus))
    np.add.at(counts, (codes[active], toks[active]), 1.0)
    counts += smoothing
    with np.errstate(divide="ignore"):
        logits = np.log(counts)
    unvisited = ~np.isfinite(logits).any(axis=1)
    logits[unvisited] = 0.0
    return TabularARModel(space=space, order=order, logits=logits, trainable=False)
