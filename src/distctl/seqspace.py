"""Finite sequence universes: vocabulary, sequences, enumeration, corpus ingestion.

A space holds every sequence of body tokens (EOS excluded) with length
0..lmax. The universe is materialized once, as one SampleBatch
(`SequenceSpace.enumeration`); there is no per-sequence iterator. Its order
(length ascending, then lexicographic by vocabulary index) is the alignment
contract for every exact oracle in the package: any array "over the
universe" is indexed in this order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyCorpus, UniverseTooLarge

ENUMERATION_GUARD = 10**7

DEFAULT_EOS = "<eos>"


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token list with exactly one reserved end-of-sequence token."""

    tokens: tuple[str, ...]
    eos_index: int

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise ConfigError("vocabulary tokens must be unique")
        if any(not t for t in self.tokens):
            raise ConfigError("vocabulary tokens must be non-empty strings")
        if not 0 <= self.eos_index < len(self.tokens):
            raise ConfigError(f"eos_index {self.eos_index} out of range")

    @classmethod
    def from_body_tokens(cls, body: list[str], eos_token: str = DEFAULT_EOS) -> "Vocabulary":
        if eos_token in body:
            raise ConfigError(f"reserved EOS token {eos_token!r} collides with a body token")
        return cls(tokens=tuple(body) + (eos_token,), eos_index=len(body))

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def body_indices(self) -> tuple[int, ...]:
        """Vocabulary indices of non-EOS tokens, in vocabulary order."""
        return tuple(i for i in range(len(self.tokens)) if i != self.eos_index)

    def index(self, token: str) -> int:
        """The index of a body token. Features see EOS-free bodies only, so a
        feature on the EOS token would be identically 0."""
        try:
            i = self.tokens.index(token)
        except ValueError:
            raise ConfigError(f"token {token!r} not in vocabulary") from None
        if i == self.eos_index:
            raise ConfigError(f"token {token!r} is the end-of-sequence token, not a body token")
        return i


@dataclass(frozen=True)
class Sequence:
    """EOS-free body of a sequence, as a tuple of vocabulary indices."""

    tokens: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def length(self) -> int:
        return len(self.tokens)


def string_space_size(base: int, max_len: int) -> int:
    """Number of strings over `base` symbols with length 0..max_len (exact int)."""
    return sum(base**k for k in range(max_len + 1))


def length_offsets(base: int, max_len: int) -> np.ndarray:
    """offsets[k] = number of strings strictly shorter than k symbols."""
    counts = [base**k for k in range(max_len + 1)]
    return np.concatenate([[0], np.cumsum(counts[:-1])]).astype(np.int64)


@dataclass
class SampleBatch:
    """Column batch of sequences: int32 token matrix padded with -1, plus lengths.

    Both arrays are made read-only on construction, because the models that
    score a batch keep its emission events in `_events` (see `lm`).
    """

    tokens: np.ndarray
    lengths: np.ndarray
    _events: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.tokens.flags.writeable = False
        self.lengths.flags.writeable = False

    def __len__(self) -> int:
        return self.tokens.shape[0]

    @property
    def width(self) -> int:
        return self.tokens.shape[1]

    def sequences(self) -> list[Sequence]:
        return [
            Sequence(tuple(int(t) for t in row[:n]))
            for row, n in zip(self.tokens, self.lengths)
        ]

    def row(self, i: int) -> Sequence:
        return Sequence(tuple(int(t) for t in self.tokens[i, : self.lengths[i]]))

    @classmethod
    def from_sequences(cls, space: "SequenceSpace", seqs: list[Sequence]) -> "SampleBatch":
        width = space.lmax
        tokens = np.full((len(seqs), width), -1, dtype=np.int32)
        lengths = np.zeros(len(seqs), dtype=np.int64)
        for i, s in enumerate(seqs):
            space.validate(s)
            tokens[i, : len(s)] = s.tokens
            lengths[i] = len(s)
        return cls(tokens=tokens, lengths=lengths)


@dataclass(frozen=True)
class SequenceSpace:
    """All sequences of 0..lmax body tokens over one vocabulary."""

    vocabulary: Vocabulary
    lmax: int
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.lmax < 1:
            raise ConfigError("lmax must be a positive integer")

    @property
    def body_size(self) -> int:
        return self.vocabulary.size - 1

    @property
    def universe_size(self) -> int:
        return string_space_size(self.body_size, self.lmax)

    def guard(self) -> None:
        if self.universe_size > ENUMERATION_GUARD:
            raise UniverseTooLarge(
                f"universe has {self.universe_size} sequences "
                f"(> {ENUMERATION_GUARD} enumeration guard)"
            )

    def validate(self, seq: Sequence) -> None:
        if len(seq) > self.lmax:
            raise ConfigError(f"sequence length {len(seq)} exceeds lmax {self.lmax}")
        eos = self.vocabulary.eos_index
        for t in seq.tokens:
            if t == eos:
                raise ConfigError("EOS may not appear in a sequence body")
            if not 0 <= t < self.vocabulary.size:
                raise ConfigError(f"token index {t} out of vocabulary range")

    def enumeration(self) -> SampleBatch:
        """The whole universe as one cached SampleBatch, in enumeration order.

        Within the length-k block, column j holds the j-th of k base-b digits
        of the row's rank: b**j runs of each body token, each run b**(k-1-j)
        rows long. The block is contiguous, so its reshape is a view and the
        columns are written in place.
        """
        if "enum" not in self._cache:
            self.guard()
            b, n = self.body_size, self.universe_size
            tokens = np.full((n, self.lmax), -1, dtype=np.int32)
            lengths = np.zeros(n, dtype=np.int64)
            body = np.asarray(self.vocabulary.body_indices, dtype=np.int32)
            row = 0
            for k in range(self.lmax + 1):
                for j in range(k):
                    runs = tokens[row : row + b**k].reshape(b**j, b, b ** (k - 1 - j), self.lmax)
                    runs[..., j] = body[:, None]
                lengths[row : row + b**k] = k
                row += b**k
            self._cache["enum"] = SampleBatch(tokens=tokens, lengths=lengths)
        return self._cache["enum"]


@dataclass
class TokenizedCorpus:
    sequences: list[Sequence]
    vocabulary: Vocabulary
    truncated: int


def tokenize_corpus(text: str, lmax: int, eos_token: str = DEFAULT_EOS) -> TokenizedCorpus:
    """Whitespace-tokenize one sequence per line; build vocabulary plus EOS.

    Lines longer than lmax are truncated (tallied, not rejected); lines with no
    tokens are skipped.
    """
    if not text.strip():
        raise EmptyCorpus("corpus text is empty")
    rows: list[list[str]] = []
    truncated = 0
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        if len(words) > lmax:
            words = words[:lmax]
            truncated += 1
        rows.append(words)
    if not rows:
        raise EmptyCorpus("corpus has no tokenized lines")
    body = sorted({w for row in rows for w in row})
    vocab = Vocabulary.from_body_tokens(body, eos_token=eos_token)
    index = {w: i for i, w in enumerate(vocab.tokens)}
    seqs = [Sequence(tuple(index[w] for w in row)) for row in rows]
    return TokenizedCorpus(sequences=seqs, vocabulary=vocab, truncated=truncated)
