"""Rule-based feature functions and moment-constraint specifications.

Every feature is total over the universe, including the empty sequence, and
is evaluated on whole batches only; the tests hold each one equal to a
per-sequence reference over full enumerations and random batches.

The token features read the positions of their hits: a token comparison over
the batch's token matrix, kept to the cells inside each row's body (`_hit_rows`).
A presence feature scatters 1.0 into the rows hit, and a ratio counts each
row's hits with `np.bincount`.

Every feature kind is also a finite automaton over a sequence's body tokens
(`Feature.automaton`): a start state, a transition on each body token, and
the feature's value on the state a sequence ends in. A presence feature needs
one bit, a prefix match its match position plus "failed", and a ratio its
(numerator, denominator) counts. A constraint set's automaton is the product
of its members', guarded by MAX_FEATURE_STATES; the exact target DP of `ebm`
runs over it instead of over the universe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AutomatonTooLarge, ConfigError
from .seqspace import SampleBatch, SequenceSpace, Vocabulary

MAX_FEATURE_STATES = 1 << 12  # product states a constraint set's automaton may hold


@dataclass(frozen=True)
class Automaton:
    """A function of a sequence as a finite automaton: it starts in `start`,
    steps from state s to `delta[s, v]` on body token v (a vocabulary index;
    the EOS column is never read), and is worth `values[s]` on a sequence that
    ends in state s. `values` is (n_states,) for one feature, and
    (n_states, n_features) for a constraint set's product."""

    start: int
    delta: np.ndarray  # (n_states, vocabulary size) int64
    values: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.delta)


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


def _guard_states(count: int) -> None:
    """Raise AutomatonTooLarge past MAX_FEATURE_STATES states."""
    if count > MAX_FEATURE_STATES:
        raise AutomatonTooLarge(
            f"the constraint features' automaton would hold {count} states, "
            f"more than {MAX_FEATURE_STATES}"
        )


def _presence_automaton(space: SequenceSpace, indices) -> Automaton:
    """One bit: set by the first of `indices`, then kept."""
    delta = np.zeros((2, space.vocabulary.size), dtype=np.int64)
    delta[0, list(indices)] = 1
    delta[1] = 1
    return Automaton(start=0, delta=delta, values=np.array([0.0, 1.0]))


class Feature:
    """Base feature: a named, range-declared function of a sequence, which
    each kind evaluates with `evaluate_batch(batch)`, one value per row, and
    declares as a finite automaton with `automaton(space)`."""

    id: str
    binary: bool


class TokenPresence(Feature):
    binary = True

    def __init__(self, vocab: Vocabulary, token: str, feature_id: str | None = None):
        self.index = vocab.index(token)
        self.id = feature_id or f"has_{token}"

    def evaluate_batch(self, batch: SampleBatch) -> np.ndarray:
        return _presence(batch, batch.tokens == self.index)

    def automaton(self, space: SequenceSpace) -> Automaton:
        return _presence_automaton(space, [self.index])


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

    def automaton(self, space: SequenceSpace) -> Automaton:
        return _presence_automaton(space, self.indices)


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
        return self._ratio(num, den)

    def _ratio(self, num: np.ndarray, den: np.ndarray) -> np.ndarray:
        """num / den for each pair of counts, `empty_default` where den is 0."""
        out = np.full(len(num), self.empty_default, dtype=float)
        nonzero = den > 0
        out[nonzero] = num[nonzero] / den[nonzero]
        return out

    def automaton(self, space: SequenceSpace) -> Automaton:
        """State num * (lmax + 1) + den: the counts so far, each at most lmax
        (the step past lmax is never taken, and is clipped to stay a state)."""
        side = space.lmax + 1
        _guard_states(side * side)
        num, den = np.divmod(np.arange(side * side), side)
        grows_num = np.isin(np.arange(space.vocabulary.size), list(self.num))
        grows_den = np.isin(np.arange(space.vocabulary.size), list(self.den))
        new_num = np.minimum(num[:, None] + grows_num, space.lmax)
        new_den = np.minimum(den[:, None] + grows_den, space.lmax)
        return Automaton(start=0, delta=new_num * side + new_den, values=self._ratio(num, den))


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

    def automaton(self, space: SequenceSpace) -> Automaton:
        """State j < k: the first j tokens match; k: matched; k + 1: failed."""
        k = len(self.pattern)
        delta = np.full((k + 2, space.vocabulary.size), k + 1, dtype=np.int64)
        delta[np.arange(k), self.pattern] = np.arange(1, k + 1)
        delta[k] = k
        values = np.zeros(k + 2)
        values[k] = 1.0
        return Automaton(start=0, delta=delta, values=values)


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
    def pointwise(self) -> np.ndarray:
        """Which constraints are pointwise: one bool per constraint, in order."""
        return np.array([c.pointwise for c in self.constraints], dtype=bool)

    def automaton(self, space: SequenceSpace) -> Automaton:
        """The product of the members' automata, the first member's state the
        most significant digit; its values are one column per constraint, in
        order. Raises AutomatonTooLarge past MAX_FEATURE_STATES states."""
        parts = [c.feature.automaton(space) for c in self.constraints]
        _guard_states(int(np.prod([a.n_states for a in parts], dtype=object)))
        start = 0
        delta = np.zeros((1, space.vocabulary.size), dtype=np.int64)
        values = np.zeros((1, 0))
        for a in parts:  # append one digit: state s * n + s_a
            n = a.n_states
            start = start * n + a.start
            delta = (delta[:, None, :] * n + a.delta[None, :, :]).reshape(-1, delta.shape[1])
            values = np.column_stack([np.repeat(values, n, axis=0), np.tile(a.values, len(values))])
        return Automaton(start=start, delta=delta, values=values)

    def feature_matrix(self, batch: SampleBatch) -> np.ndarray:
        """(n_samples, n_constraints) feature values, columns in constraint order.
        This is the library's one evaluation of features."""
        if not self.constraints:
            return np.zeros((len(batch), 0))
        return np.column_stack([c.feature.evaluate_batch(batch) for c in self.constraints])
