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
of them, each matrix built on first read, with one code matrix per m_eff it
was scored under; `sample_batch` stores the codes it computes while sampling.
A batch that is only featurized (a lambda-fit or rejection-sampling block)
never builds its step tokens or mask. Batches are read-only, so the record
cannot go stale. A log-prob is one flat `take` of the cells
code * V + token of the log-softmax table, summed step by step, in chain-rule
order.

A model holds one state from construction: its stored rows (`logits`, the
store), a `row_map` from each context to its stored row, and the store's
log-softmax. A model built with no map (by `mle_fit` or directly) gets the
identity map: one stored row per context, in context order. A `to_order`
lift keeps the source's rows once, so most contexts share a row. The first
write to a context (`apply_update`) gives it a row of its own, appended to
the store (copy on write); the rows stored at construction are never
written, and a `frozen_copy` is never written at all. Every reader goes
through the map.

A trainable model gives every next token probability above 0.0 in float64:
construction refuses a table that does not (ConfigError), and `apply_update`
an update that would not (SaturatedPolicy). A frozen model is not checked.

The model document (version 2) holds each distinct row some context reads
once, in `rows`, and each context's index into them, in `row_map`; it reads
back with that map. `write_document` writes the bytes of
`json.dumps(to_document()) + "\\n"`, turning `_WRITE_CHUNK_CELLS` numbers into
text at a time. A document of another version is refused.

Sampling draws blocks of at most `_SAMPLE_CHUNK_ROWS` rows, one after
another from the caller's generator, each through all its steps, so a step's
uniforms and Gumbel scores are block x V, not n x V. `sample_batch` fills its
outputs from the blocks; the lambda-fit featurizes each block and keeps only
the features, and rejection sampling keeps only each block's accepted rows.
"""

from __future__ import annotations

import copy
import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    EmptyCorpus,
    NonFiniteLogits,
    NotTrainable,
    SaturatedPolicy,
    SchemaMismatch,
)
from .seqspace import (
    SampleBatch,
    SequenceSpace,
    Vocabulary,
    length_offsets,
    string_space_size,
)

MODEL_FORMAT = "distctl-tabular-ar"
MODEL_VERSION = 2
# Rows a sampling block draws through all its steps. A draw of more rows takes
# its blocks one after another from one stream, so its rows depend on this size.
_SAMPLE_CHUNK_ROWS = 4096
_GATHER_CHUNK_ROWS = 4096  # context rows the exact prefix DP gathers at a time
_WRITE_CHUNK_CELLS = 4096  # numbers `write_document` turns into JSON text at a time


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
        space.guard(self.m_eff, "context table")
        self.n_contexts = string_space_size(self.body_size, self.m_eff)
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


def _gumbel_argmax(logprob: np.ndarray, codes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each row's argmax of its context row's log-probs plus Gumbel noise
    -log(-log u), the noise formed in `u` and subtracted in place: a - b == a + (-b)."""
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
        np.negative(u, out=u)
        np.log(u, out=u)
    return np.argmax(np.subtract(logprob[codes], u, out=u), axis=1)


def _grown(table: np.ndarray, count: int) -> np.ndarray:
    """A copy of `table` with `count` rows appended, left unset."""
    out = np.empty((len(table) + count, table.shape[1]))
    out[: len(table)] = table
    return out


def _row_log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax; a row's result does not depend on the other rows."""
    m = np.max(logits, axis=1, keepdims=True)
    lse = m + np.log(np.sum(np.exp(logits - m), axis=1, keepdims=True))
    return logits - lse


def _zero_cells(logprob: np.ndarray) -> str | None:
    """The count of a log-softmax table's cells of probability 0.0 in float64,
    with its smallest log-prob, as text; None when there are none."""
    low = logprob.min()
    if np.exp(low) > 0.0:  # exp is monotone: the smallest cell decides
        return None
    zeros = np.count_nonzero(np.exp(logprob) == 0.0)
    return f"{zeros} next-token probabilities at 0.0 (smallest log-prob {low:.3g})"


@dataclass
class _Events:
    """A batch's free emissions (see the module docstring), each matrix built
    on first read. Each is (n, lmax), stored step-major: `.T` is contiguous
    per step."""

    space: SequenceSpace
    tokens: np.ndarray  # the batch's, read-only
    lengths: np.ndarray
    codes: dict[int, np.ndarray] = field(default_factory=dict)  # m_eff -> int64 codes

    @cached_property
    def toks(self) -> np.ndarray:
        """int64: body token, EOS at the free end."""
        grows = np.arange(1, self.space.lmax + 1)[:, None] <= self.lengths  # row t: length > t
        eos = np.int64(self.space.vocabulary.eos_index)
        return np.where(grows, self.tokens.T, eos).T

    @cached_property
    def active(self) -> np.ndarray:
        """bool: t <= length."""
        return (np.arange(self.space.lmax)[:, None] <= self.lengths).T


def _events(space: SequenceSpace, batch: SampleBatch) -> _Events:
    """The batch's event record under `space`, made on first use."""
    record = batch._events
    if record is None or record.space != space:
        record = batch._events = _Events(space, batch.tokens, batch.lengths)
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
    """Softmax next-token table over all reachable contexts.

    `logits` holds the stored rows and `row_map[c]` is the stored row of
    context c; with no map given, it is the identity and `logits` needs one
    row per context. The rows stored at construction (`_shared`) may serve
    many contexts and are never written (see the module docstring).
    `_logprob` is the store's log-softmax, computed at construction.
    """

    space: SequenceSpace
    order: int
    logits: np.ndarray
    trainable: bool = False
    row_map: np.ndarray | None = field(default=None, repr=False)  # None: the identity
    _logprob: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.coding = _Coding(self.space, self.order)
        n, v = self.coding.n_contexts, self.space.vocabulary.size
        given = self.row_map
        if given is None:
            expected = (n, v)
            self.row_map = np.arange(n, dtype=np.int64)
        else:
            expected = (len(self.logits), v)
            ok = given.shape == (n,) and given.dtype == np.int64
            if not (ok and 0 <= given.min() and given.max() < len(self.logits)):
                raise ConfigError(f"row_map must be {n} int64 stored-row indices")
        if self.logits.shape != expected:
            raise ConfigError(f"logits shape {self.logits.shape} != expected {expected}")
        self._shared = len(self.logits)
        if not np.isfinite(self.logits).all():  # one pass; the checks below name the fault
            if np.isnan(self.logits).any():
                raise ConfigError("logits contain NaN")
            if np.isposinf(self.logits).any():
                raise ConfigError("logits contain +inf")
            if self.trainable and np.isneginf(self.logits).any():
                raise ConfigError("-inf logit sentinel is only permitted in frozen models")
            if np.isneginf(self.logits).all(axis=1).any():
                raise ConfigError("a context row has no admissible next token")
        # `apply_update` keeps the rows it changes up to date
        self._logprob = _row_log_softmax(self.logits)
        if self.trainable and (zeros := _zero_cells(self._logprob)):
            raise ConfigError(f"a trainable model holds {zeros}")

    @property
    def log_softmax(self) -> np.ndarray:
        """The store's log-softmax, read-only to callers: context c's
        next-token log-probs are row `row_map[c]`."""
        return self._logprob

    # -- core ---------------------------------------------------------------

    def _own(self, contexts: np.ndarray, stored: np.ndarray) -> np.ndarray:
        """`stored`, the stored rows of `contexts`, after copy on write: each
        context whose row is shared gets a new row of its own, appended to the
        store and left for the caller to fill."""
        fresh = stored < self._shared
        count = int(fresh.sum())
        if not count:
            return stored
        n = len(self.logits)
        stored[fresh] = self.row_map[contexts[fresh]] = np.arange(n, n + count)
        self.logits = _grown(self.logits, count)
        self._logprob = _grown(self._logprob, count)
        return stored

    def log_prob_batch(self, batch: SampleBatch) -> np.ndarray:
        codes, toks, active = _coded_events(self.coding, batch)
        logprob = self._logprob
        cells = self.row_map[codes.T] * logprob.shape[1] + toks.T
        steps = np.where(active.T, logprob.take(cells), 0.0)
        out = np.zeros(len(batch))
        for step in steps:  # chain-rule order; x + 0.0 == x on inactive steps
            out += step
        return out

    def sample_batch(self, n: int, rng: np.random.Generator) -> SampleBatch:
        """Ancestral sampling, vectorized over the batch via the Gumbel-max trick.
        The batch keeps the context codes of this model's order. Past one
        block, its outputs are filled from `sample_blocks`, a block at a time,
        so its scratch stays block-sized."""
        if n <= _SAMPLE_CHUNK_ROWS:
            return next(self.sample_blocks(n, rng))
        m = self.coding.m_eff
        tokens = np.empty((n, self.space.lmax), dtype=np.int32)
        lengths = np.empty(n, dtype=np.int64)
        codes = np.empty((self.space.lmax, n), dtype=np.int64)  # step-major, as `_Coding.encode`
        lo = 0
        for block in self.sample_blocks(n, rng):
            rows = slice(lo, lo + len(block))
            tokens[rows], lengths[rows] = block.tokens, block.lengths
            codes[:, rows] = _events(self.space, block).codes[m].T
            lo = rows.stop
        batch = SampleBatch(tokens=tokens, lengths=lengths)
        _events(self.space, batch).codes[m] = codes.T
        return batch

    def sample_blocks(self, n: int, rng: np.random.Generator) -> Iterator[SampleBatch]:
        """n rows of ancestral sampling in blocks of at most `_SAMPLE_CHUNK_ROWS`
        rows, drawn one after another from `rng`; each block keeps its context
        codes."""
        if n < 1:
            raise ConfigError("sample count must be >= 1")
        for lo in range(0, n, _SAMPLE_CHUNK_ROWS):
            yield self._sample_block(min(_SAMPLE_CHUNK_ROWS, n - lo), rng)

    def _sample_block(self, n: int, rng: np.random.Generator) -> SampleBatch:
        """n rows of ancestral sampling by the Gumbel-max trick. Each step draws
        its (n, V) uniforms from `rng`, whatever the outcomes."""
        logprob = self._logprob
        coding = self.coding
        lmax = self.space.lmax
        v = self.space.vocabulary.size
        eos = self.space.vocabulary.eos_index
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
            pick = _gumbel_argmax(logprob, self.row_map[codes[t]], u)
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
        Each step's one-hots and softmax rows are written in place into one
        cell array and one value array, the only event x V buffers it holds
        besides the touched rows' softmax, computed once.
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
        cells = np.empty(len(w) * (v + 1), dtype=np.int64)
        values = np.empty(len(cells))
        softmax = np.exp(self._logprob[self.row_map[touched]])  # each touched row once
        bounds = np.concatenate([[0], np.cumsum(events.sum(axis=1))])
        for lo, hi in zip(bounds[:-1], bounds[1:]):  # per step: one-hots, then softmax rows
            one = slice(lo * (v + 1), lo * (v + 1) + hi - lo)
            soft = slice(one.stop, hi * (v + 1))
            cells[one], values[one] = onehot_cells[lo:hi], w[lo:hi]
            np.add(row_cells[lo:hi, None], np.arange(v), out=cells[soft].reshape(-1, v))
            step = values[soft].reshape(-1, v)
            softmax.take(inverse[lo:hi], axis=0, out=step)
            np.multiply(-w[lo:hi, None], step, out=step)
        grad = np.bincount(cells, weights=values, minlength=len(touched) * v)
        return RowGradient(touched, grad.reshape(len(touched), v))

    def apply_update(self, grad: RowGradient, learning_rate: float) -> "TabularARModel":
        """Add learning_rate * grad to its rows and refresh only those rows of
        the log-softmax; a context written for the first time gets its
        own stored row. Leaving the model as it was, raises NonFiniteLogits if
        the update would make a logit NaN or infinite, and SaturatedPolicy if
        it would give a next token probability 0.0."""
        if not self.trainable:
            raise NotTrainable("model is frozen")
        rows, values = grad
        if values.shape != (len(rows), self.logits.shape[1]):
            raise ConfigError("gradient shape does not match logits")
        stored = self.row_map[rows]
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            updated = self.logits[stored] + learning_rate * values
        finite = np.isfinite(updated)
        if not finite.all():
            raise NonFiniteLogits(
                f"update with learning rate {learning_rate:g} makes "
                f"{int((~finite).sum())} logits non-finite"
            )
        logprob = _row_log_softmax(updated)
        if zeros := _zero_cells(logprob):
            raise SaturatedPolicy(f"update with learning rate {learning_rate:g} leaves {zeros}")
        stored = self._own(rows, stored)
        self.logits[stored] = updated
        self._logprob[stored] = logprob
        return self

    def exact_log_distribution(self) -> np.ndarray:
        """Log-probability of every sequence, in enumeration order.

        A prefix DP, length by length, in place in the returned array: the
        slot of length k first holds the prefixes' log-probs, each its
        length-(k-1) parent's plus the next-token entry of the parent's
        context row. Their children are written into the slot of length k+1,
        and then the EOS column closes the slot in place. The slot of lmax
        keeps its prefixes, as EOS is forced there. Every sum is taken in
        chain-rule order, as `log_prob_batch` takes it. The context rows are
        read through the map in chunks of at most `_GATHER_CHUNK_ROWS`, so the
        gathered blocks are chunk-sized, never the size of the context table.
        """
        self.space.guard()
        logprob = self._logprob
        coding = self.coding
        b, lmax = coding.body_size, self.space.lmax
        eos = self.space.vocabulary.eos_index
        offsets = length_offsets(b, lmax + 1)  # offsets[lmax + 1]: the universe size
        out = np.empty(self.space.universe_size)
        out[0] = 0.0  # the empty prefix
        for k in range(lmax):
            m = min(k, coding.m_eff)
            lo = int(coding.offsets[m])  # rows of the contexts "last m symbols"
            grid = out[offsets[k] : offsets[k + 1]].reshape(-1, b**m)  # column = context value
            children = out[offsets[k + 1] : offsets[k + 2]].reshape(*grid.shape, b)
            for start in range(0, b**m, _GATHER_CHUNK_ROWS):
                cols = slice(start, min(start + _GATHER_CHUNK_ROWS, b**m))
                block = logprob[self.row_map[lo + cols.start : lo + cols.stop]]
                parents, kids = grid[:, cols], children[:, cols]
                # body tokens are the vocabulary in order with the EOS column left out
                np.add(parents[:, :, None], block[:, :eos], out=kids[:, :, :eos])
                np.add(parents[:, :, None], block[:, eos + 1 :], out=kids[:, :, eos:])
                parents += block[:, eos]
        return out

    def exact_distribution(self) -> np.ndarray:
        """Probability of every sequence, in enumeration order."""
        out = self.exact_log_distribution()
        return np.exp(out, out=out)

    def frozen_copy(self) -> "TabularARModel":
        """Frozen snapshot holding one store: a copy of the log-softmax, which
        is also its logits (a row's softmax does not change under a shift, so
        the distribution is the same), and a copy of the row map. It
        recomputes and re-validates nothing (the logits already passed), and
        nothing writes it afterwards: a DPG swap takes a new copy."""
        twin = copy.copy(self)
        twin.logits = twin._logprob = self._logprob.copy()
        twin.row_map = self.row_map.copy()
        twin.trainable = False
        return twin

    def to_order(self, order: int, trainable: bool = False) -> "TabularARModel":
        """Re-express the same distribution with a longer context window.

        Each context of the result reads the row of its last `self.order - 1`
        symbols: the result stores this model's rows once, with a row map.
        """
        new_coding = _Coding(self.space, order)
        old = self.coding
        if new_coding.m_eff < old.m_eff:
            raise ConfigError("to_order cannot shorten the context window")
        b = new_coding.body_size
        rows = np.zeros(new_coding.n_contexts, dtype=np.int64)
        for k in range(new_coding.m_eff + 1):
            block = rows[int(new_coding.offsets[k]) : int(new_coding.offsets[k]) + b**k]
            ko = min(old.m_eff, k)
            # suffix value of the last ko symbols of each length-k string
            np.remainder(np.arange(len(block)), b**ko, out=block)
            block += old.offsets[ko]
        # in place; "raise" would buffer a copy, "clip" never clips
        np.take(self.row_map, rows, out=rows, mode="clip")
        return TabularARModel(
            space=self.space,
            order=order,
            logits=self.logits.copy(),
            trainable=trainable,
            row_map=rows,
        )

    # -- persistence --------------------------------------------------------

    def _encoded(self) -> tuple[dict, np.ndarray, np.ndarray]:
        """(header, rows, index) of the model document. The header holds every
        key but `rows` and `row_map`. `rows` are the stored rows some context
        reads (a store-sized mask finds them), grouped exactly by their bytes,
        so -0.0 and 0.0 stay apart. `index[s]` is stored row s's row in `rows`,
        so the document's `row_map` is `index[self.row_map]`."""
        logits = np.ascontiguousarray(self.logits)
        row_bytes = logits.view(np.dtype((np.void, logits.shape[1] * logits.itemsize))).ravel()
        read = np.zeros(len(logits), dtype=bool)
        read[self.row_map] = True
        stored = np.flatnonzero(read)
        distinct, distinct_of = np.unique(row_bytes[stored], return_inverse=True)
        index = np.zeros(len(logits), dtype=np.int64)
        index[stored] = distinct_of
        header = {
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
        return header, distinct.view(logits.dtype).reshape(len(distinct), -1), index

    def to_document(self) -> dict:
        """The model document: the header, `rows` and `row_map` (see `_encoded`)."""
        header, rows, index = self._encoded()
        return {**header, "rows": rows.tolist(), "row_map": index[self.row_map].tolist()}

    def write_document(self, path: str | Path) -> None:
        """Write `model.json`: the bytes of `json.dumps(self.to_document()) + "\\n"`.
        `rows` and `row_map` become text `_WRITE_CHUNK_CELLS` numbers at a time
        (whole rows, at least one), so the write holds no list or text of either."""
        header, rows, index = self._encoded()
        per_row = max(1, _WRITE_CHUNK_CELLS // rows.shape[1])
        row_map = self.row_map
        chunks = {
            "rows": (rows[lo : lo + per_row] for lo in range(0, len(rows), per_row)),
            "row_map": (index[row_map[lo : lo + _WRITE_CHUNK_CELLS]]
                        for lo in range(0, len(row_map), _WRITE_CHUNK_CELLS)),
        }
        with open(path, "w") as out:
            out.write(json.dumps(header)[:-1])
            for key, parts in chunks.items():
                out.write(f", {json.dumps(key)}: [")
                for i, part in enumerate(parts):
                    out.write((", " if i else "") + json.dumps(part.tolist())[1:-1])
                out.write("]")
            out.write("}\n")

    @classmethod
    def from_document(cls, doc: dict) -> "TabularARModel":
        if not isinstance(doc, dict):
            raise SchemaMismatch("model document must be a mapping")
        version = doc.get("version")
        if version != MODEL_VERSION:  # before the keys, which differ across versions
            raise SchemaMismatch(f"unsupported model version {version!r} (expected {MODEL_VERSION})")
        expected_keys = {"format", "version", "order", "lmax", "vocabulary", "trainable", "rows", "row_map"}
        if set(doc) != expected_keys:
            missing = expected_keys - set(doc)
            extra = set(doc) - expected_keys
            raise SchemaMismatch(f"model document keys mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        if doc["format"] != MODEL_FORMAT:
            raise SchemaMismatch(f"unexpected document format {doc['format']!r}")
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
            rows = np.asarray(doc["rows"])
        except ValueError:  # ragged rows
            rows = None
        _expect_field(
            rows is not None and rows.ndim == 2 and rows.dtype.kind in "iuf",
            "rows", "a 2-D array of numbers",
        )
        space = SequenceSpace(vocabulary=Vocabulary(tuple(tokens), eos_index), lmax=doc["lmax"])
        row_map, n = doc["row_map"], _Coding(space, doc["order"]).n_contexts
        _expect_field(
            isinstance(row_map, list) and len(row_map) == n
            and all(type(i) is int and 0 <= i < len(rows) for i in row_map),
            "row_map", f"a list of {n} integers in 0..{len(rows) - 1}",
        )
        return cls(space=space, order=doc["order"], logits=rows.astype(float, copy=False),
                   trainable=doc["trainable"], row_map=np.array(row_map, dtype=np.int64))


def _expect_field(ok: bool, key: str, expected: str) -> None:
    if not ok:
        raise SchemaMismatch(f"model document field {key!r} must be {expected}")


def mle_fit(
    space: SequenceSpace,
    corpus: SampleBatch,
    order: int,
    smoothing: float = 0.0,
) -> TabularARModel:
    """Add-lambda-smoothed maximum-likelihood k-gram fit on the rows of a
    batch of `space`.

    Only free emissions are counted: the forced EOS at full length is not an
    observation. Contexts never visited by the corpus get a uniform row. A
    batch of another width, or with a body token outside the space's body
    (EOS included), is refused.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("mle_fit needs a non-empty corpus")
    check_fit_args(order, smoothing)
    if corpus.width != space.lmax or not ((corpus.lengths >= 0) & (corpus.lengths <= space.lmax)).all():
        raise ConfigError(f"must be a batch of width {space.lmax} with lengths 0..{space.lmax}", "corpus")
    body = corpus.tokens[np.arange(space.lmax) < corpus.lengths[:, None]]
    if ((body < 0) | (body >= space.vocabulary.size) | (body == space.vocabulary.eos_index)).any():
        raise ConfigError("must hold body tokens of the space's vocabulary, EOS excluded", "corpus")
    coding = _Coding(space, order)
    counts = np.zeros((coding.n_contexts, space.vocabulary.size))
    codes, toks, active = _coded_events(coding, corpus)
    np.add.at(counts, (codes[active], toks[active]), 1.0)
    counts += smoothing
    with np.errstate(divide="ignore"):
        logits = np.log(counts)
    unvisited = ~np.isfinite(logits).any(axis=1)
    logits[unvisited] = 0.0
    return TabularARModel(space=space, order=order, logits=logits, trainable=False)
