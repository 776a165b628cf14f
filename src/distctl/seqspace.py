"""Finite sequence universes: vocabulary, sequence batches, the universe order, corpora.

A space holds every sequence of body tokens (EOS excluded) with length
0..lmax. A sequence is a row of a SampleBatch: a corpus is read into one
batch (`tokenize_corpus`). The universe itself is never a batch. Its order
(length ascending, then lexicographic by vocabulary index) is the alignment
contract for every exact oracle in the package: any array "over the
universe" is indexed in this order, and two prefix passes fill one, each
length-k prefix of rank i having its children at the length-(k + 1) ranks
i * b .. i * b + b - 1: the base's log-probs (`lm.exact_log_distribution`)
and the constraint automaton's final states (`ebm.Ebm.universe_states`).
Both run under the enumeration guard (`SequenceSpace.guard`) and read their
parents a chunk at a time, so only the result is universe-sized."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyCorpus, UniverseTooLarge

ENUMERATION_GUARD = 10**7
ENUMERATION_CHUNK_ROWS = 1 << 16  # rows, parents or prefixes an exact pass takes at once

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
    def from_body_tokens(cls, body: list[str]) -> "Vocabulary":
        if DEFAULT_EOS in body:
            raise ConfigError(f"reserved EOS token {DEFAULT_EOS!r} collides with a body token")
        return cls(tokens=tuple(body) + (DEFAULT_EOS,), eos_index=len(body))

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


@dataclass(frozen=True)
class SequenceSpace:
    """All sequences of 0..lmax body tokens over one vocabulary."""

    vocabulary: Vocabulary
    lmax: int

    def __post_init__(self):
        if self.lmax < 1:
            raise ConfigError("lmax must be a positive integer")

    @property
    def body_size(self) -> int:
        return self.vocabulary.size - 1

    @property
    def universe_size(self) -> int:
        return string_space_size(self.body_size, self.lmax)

    def guard(self, max_len: int | None = None, what: str = "universe") -> None:
        """Raise UniverseTooLarge if the strings of 0..max_len body tokens
        (default lmax: the universe) number more than ENUMERATION_GUARD; `what`
        names them in the message. With two or more body tokens, strings up to
        the guard's bit length already outnumber it, so the count never runs
        longer than that whatever `max_len`, and the message holds no
        unbounded number."""
        max_len = self.lmax if max_len is None else max_len
        b = self.body_size
        if b < 2:
            count = max_len + 1 if b else 1
        else:
            count = string_space_size(b, min(max_len, ENUMERATION_GUARD.bit_length()))
        if count > ENUMERATION_GUARD:
            raise UniverseTooLarge(
                f"{what} would hold more than {ENUMERATION_GUARD} rows, one per string "
                f"of 0..{max_len} of the {b} body tokens (enumeration guard)"
            )


@dataclass
class TokenizedCorpus:
    space: SequenceSpace
    batch: SampleBatch
    truncated: int


def tokenize_corpus(text: str, lmax: int) -> TokenizedCorpus:
    """Whitespace-tokenize one sequence per line into the space of its
    vocabulary (plus EOS) and `lmax`, and a batch of that space's width.

    Lines longer than lmax are truncated (tallied, not rejected), and a word
    seen only past position lmax is not in the vocabulary; lines with no tokens
    are skipped.
    """
    if not text.strip():
        raise EmptyCorpus("corpus text is empty")
    rows = [words for words in map(str.split, text.splitlines()) if words]
    if not rows:
        raise EmptyCorpus("corpus has no tokenized lines")
    body = sorted({w for row in rows for w in row[:lmax]})
    space = SequenceSpace(Vocabulary.from_body_tokens(body), lmax)
    index = {w: i for i, w in enumerate(body)}
    full = np.array([len(row) for row in rows], dtype=np.int64)
    lengths = np.minimum(full, lmax)
    tokens = np.full((len(rows), lmax), -1, dtype=np.int32)
    tokens[np.arange(lmax) < lengths[:, None]] = [index[w] for row in rows for w in row[:lmax]]
    batch = SampleBatch(tokens=tokens, lengths=lengths)
    return TokenizedCorpus(space=space, batch=batch, truncated=int((full > lmax).sum()))
