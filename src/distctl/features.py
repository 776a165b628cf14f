"""Rule-based feature functions and moment-constraint specifications.

Every feature is total over the universe, including the empty sequence, and
is evaluated on whole batches only; the tests hold each one equal to a
per-sequence reference over full enumerations and random batches.

The token features read the positions of their hits: a token comparison over
the batch's token matrix, kept to the cells inside each row's body (`_hit_rows`).
A presence feature scatters 1.0 into the rows hit, and a ratio counts each
row's hits with `np.bincount`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .seqspace import SampleBatch, Vocabulary


def _hit_rows(batch: SampleBatch, hit: np.ndarray) -> np.ndarray:
    """The row of each True cell of `hit`, an (n, width) mask over the batch's
    tokens, that lies inside its row's body (column < length), in row order."""
    rows, cols = np.divmod(np.flatnonzero(hit), batch.width)
    return rows[cols < batch.lengths[rows]]


def _presence(batch: SampleBatch, hit: np.ndarray) -> np.ndarray:
    """1.0 for each row with a hit inside its body, else 0.0."""
    out = np.zeros(len(batch))
    out[_hit_rows(batch, hit)] = 1.0
    return out


class Feature:
    """Base feature: a named, range-declared function of a sequence, which
    each kind evaluates with `evaluate_batch(batch)`, one value per row."""

    id: str
    binary: bool


class TokenPresence(Feature):
    binary = True

    def __init__(self, vocab: Vocabulary, token: str, feature_id: str | None = None):
        self.index = vocab.index(token)
        self.id = feature_id or f"has_{token}"

    def evaluate_batch(self, batch: SampleBatch) -> np.ndarray:
        return _presence(batch, batch.tokens == self.index)


class WordlistPresence(Feature):
    """1 iff the sequence contains at least one token from the list."""

    binary = True

    def __init__(self, vocab: Vocabulary, tokens: list[str], feature_id: str | None = None):
        if not tokens:
            raise ConfigError("must be non-empty", "tokens")
        self.indices = frozenset(vocab.index(t) for t in tokens)
        self.id = feature_id or "has_any_" + "_".join(sorted(tokens))

    def evaluate_batch(self, batch: SampleBatch) -> np.ndarray:
        return _presence(batch, np.isin(batch.tokens, list(self.indices)))


class TokenRatio(Feature):
    """Count(numerator tokens) / count(denominator tokens), a real in [0, 1].

    `empty_default` is returned when the sequence contains no denominator
    token at all (the empty sequence included).
    """

    binary = False

    def __init__(
        self,
        vocab: Vocabulary,
        numerator: list[str],
        denominator: list[str],
        empty_default: float = 0.0,
        feature_id: str | None = None,
    ):
        self.num = frozenset(vocab.index(t) for t in numerator)
        self.den = frozenset(vocab.index(t) for t in denominator)
        if not self.num <= self.den:
            raise ConfigError("must be a subset of the denominator", "numerator")
        if not 0.0 <= empty_default <= 1.0:
            raise ConfigError("must lie in [0, 1]", "empty_default")
        self.empty_default = empty_default
        self.id = feature_id or "ratio_" + "_".join(sorted(numerator))

    def evaluate_batch(self, batch: SampleBatch) -> np.ndarray:
        n = len(batch)
        num = np.bincount(_hit_rows(batch, np.isin(batch.tokens, list(self.num))), minlength=n)
        den = np.bincount(_hit_rows(batch, np.isin(batch.tokens, list(self.den))), minlength=n)
        out = np.full(n, self.empty_default, dtype=float)
        nonzero = den > 0
        out[nonzero] = num[nonzero] / den[nonzero]
        return out


class PrefixMatch(Feature):
    """1 iff the sequence starts with the given token string."""

    binary = True

    def __init__(self, vocab: Vocabulary, tokens: list[str], feature_id: str | None = None):
        if not tokens:
            raise ConfigError("must be non-empty", "tokens")
        self.pattern = tuple(vocab.index(t) for t in tokens)
        self.id = feature_id or "prefix_" + "_".join(tokens)

    def evaluate_batch(self, batch: SampleBatch) -> np.ndarray:
        k = len(self.pattern)
        if k > batch.width:
            return np.zeros(len(batch))
        long_enough = batch.lengths >= k
        match = (batch.tokens[:, :k] == np.asarray(self.pattern)).all(axis=1)
        return (long_enough & match).astype(float)


# Feature class of each constraint `kind` in a config; the constructors'
# keyword names are the kind's JSON keys.
FEATURE_KINDS = {
    "token-presence": TokenPresence,
    "wordlist-presence": WordlistPresence,
    "prefix-match": PrefixMatch,
    "token-ratio": TokenRatio,
}


@dataclass(frozen=True)
class ConstraintSpec:
    """One feature with its target moment; pointwise means every x must satisfy it.
    Every feature takes values in [0, 1], and so does every target."""

    feature: Feature
    target: float
    pointwise: bool = False

    def __post_init__(self):
        name = f"'{self.feature.id}'"
        if self.pointwise:
            if not self.feature.binary:
                raise ConfigError(f"needs a binary feature; {name} is real-valued", "pointwise")
            if self.target != 1.0:
                raise ConfigError(f"must be 1.0 for the pointwise constraint {name}", "target")
        elif self.feature.binary and not 0.0 < self.target < 1.0:
            raise ConfigError(
                f"must lie strictly inside (0, 1) for the binary feature {name}; use a "
                "pointwise constraint to express certainty",
                "target",
            )
        elif not 0.0 <= self.target <= 1.0:
            raise ConfigError(f"must lie in [0, 1] for the real-valued feature {name}", "target")


class ConstraintSet:
    """Ordered constraints with unique feature ids."""

    def __init__(self, constraints: list[ConstraintSpec]):
        ids = [c.feature.id for c in constraints]
        if len(set(ids)) != len(ids):
            raise ConfigError("constraint feature ids must be unique")
        self.constraints = list(constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    @property
    def ids(self) -> list[str]:
        return [c.feature.id for c in self.constraints]

    @property
    def targets(self) -> np.ndarray:
        return np.array([c.target for c in self.constraints])

    @property
    def all_pointwise(self) -> bool:
        return len(self.constraints) > 0 and all(c.pointwise for c in self.constraints)

    def feature_matrix(self, batch: SampleBatch) -> np.ndarray:
        """(n_samples, n_constraints) feature values, columns in constraint order.
        This is the library's one evaluation of features."""
        if not self.constraints:
            return np.zeros((len(batch), 0))
        return np.column_stack([c.feature.evaluate_batch(batch) for c in self.constraints])
