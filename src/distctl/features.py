"""Rule-based feature functions and moment-constraint specifications.

Every feature is total over the universe, including the empty sequence, and
is defined once, as a finite automaton over a sequence's body tokens (see
`Feature`). A presence feature needs one bit, a prefix match its match
position plus "failed", and a ratio its (numerator, denominator) counts.
`ConstraintSet.feature_matrix` folds each feature over a batch, one state per
row and no table; `ConstraintSet.automaton` tabulates the members' product
for the exact target DP of `ebm`, guarded by MAX_FEATURE_STATES before any
table is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AutomatonTooLarge, ConfigError
from .seqspace import SampleBatch, SequenceSpace, Vocabulary

MAX_FEATURE_STATES = 1 << 12  # product states a constraint set's automaton may hold


@dataclass(frozen=True)
class Automaton:
    """A function of a sequence as a finite automaton: it starts in state 0,
    steps from state s to `delta[s, v]` on token v (a vocabulary index; on
    EOS every state stays), and is worth `values[s]` on a sequence that ends
    in state s. `values` is (n_states,) for one feature, and
    (n_states, n_features) for a constraint set's product."""

    delta: np.ndarray  # (n_states, vocabulary size) int64
    values: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.delta)


def _token_hits(vocab: Vocabulary, indices) -> np.ndarray:
    """1 at each of `indices`, else 0, over the vocabulary and the -1 padding."""
    hits = np.zeros(vocab.size + 1, dtype=np.int64)
    hits[list(indices)] = 1
    return hits


def _guard_states(count: int) -> None:
    """Raise AutomatonTooLarge past MAX_FEATURE_STATES states."""
    if count > MAX_FEATURE_STATES:
        raise AutomatonTooLarge(
            f"the constraint features' automaton would hold {count} states, "
            f"more than {MAX_FEATURE_STATES}"
        )


class Feature:
    """Base feature: a named, range-declared function of a sequence, which
    each kind defines as a finite automaton that starts in state 0. A kind
    declares its state count on sequences of at most `lmax` tokens
    (`n_states(lmax)`), the state after each of a batch of (state, token)
    pairs (`step(states, tokens, lmax)`, a token being a vocabulary index or
    a batch's -1 padding), and the value of each state
    (`value(states, lmax)`)."""

    id: str
    binary: bool

    def automaton(self, space: SequenceSpace) -> Automaton:
        """The feature's transition table over the space's vocabulary, EOS
        staying. Raises AutomatonTooLarge past MAX_FEATURE_STATES states,
        before the table is built."""
        lmax, size = space.lmax, space.vocabulary.size
        count = self.n_states(lmax)
        _guard_states(count)
        states = np.arange(count)
        tokens = np.tile(np.arange(size), count)
        delta = self.step(np.repeat(states, size), tokens, lmax).reshape(count, size)
        delta[:, space.vocabulary.eos_index] = states
        return Automaton(delta=delta, values=self.value(states, lmax))


class WordlistPresence(Feature):
    """1 iff the sequence contains at least one token from the list: one bit,
    set by the first of them, then kept."""

    binary = True

    def __init__(self, vocab: Vocabulary, tokens: list[str], feature_id: str | None = None):
        if not tokens:
            raise ConfigError("must be non-empty", "tokens")
        self.indices = frozenset(vocab.index(t) for t in tokens)
        self.hits = _token_hits(vocab, self.indices)
        self.id = feature_id or "has_any_" + "_".join(sorted(tokens))

    def n_states(self, lmax: int) -> int:
        return 2

    def step(self, states: np.ndarray, tokens: np.ndarray, lmax: int) -> np.ndarray:
        return states | self.hits[tokens]

    def value(self, states: np.ndarray, lmax: int) -> np.ndarray:
        return states.astype(float)


class TokenPresence(WordlistPresence):
    def __init__(self, vocab: Vocabulary, token: str, feature_id: str | None = None):
        super().__init__(vocab, [token], feature_id or f"has_{token}")
        self.index = vocab.index(token)


class TokenRatio(Feature):
    """Count(numerator tokens) / count(denominator tokens), a real in [0, 1].

    `empty_default` is returned when the sequence contains no denominator
    token at all (the empty sequence included). The state is
    num * (lmax + 1) + den, the counts so far, each at most lmax (a step past
    lmax is never taken on a sequence, and is clipped to stay a state).
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
        self.num_hits, self.den_hits = _token_hits(vocab, self.num), _token_hits(vocab, self.den)
        self.id = feature_id or "ratio_" + "_".join(sorted(numerator))

    def n_states(self, lmax: int) -> int:
        return (lmax + 1) ** 2

    def step(self, states: np.ndarray, tokens: np.ndarray, lmax: int) -> np.ndarray:
        num, den = np.divmod(states, lmax + 1)
        num = np.minimum(num + self.num_hits[tokens], lmax)
        den = np.minimum(den + self.den_hits[tokens], lmax)
        return num * (lmax + 1) + den

    def value(self, states: np.ndarray, lmax: int) -> np.ndarray:
        """num / den, `empty_default` where den is 0."""
        num, den = np.divmod(states, lmax + 1)
        out = np.full(len(states), self.empty_default, dtype=float)
        nonzero = den > 0
        out[nonzero] = num[nonzero] / den[nonzero]
        return out


class PrefixMatch(Feature):
    """1 iff the sequence starts with the given token string. With k pattern
    tokens, state j < k: the first j tokens match, so pattern token j moves it
    to j + 1 and any other token to failed; k: matched; k + 1: failed. Both
    of the last two stay."""

    binary = True

    def __init__(self, vocab: Vocabulary, tokens: list[str], feature_id: str | None = None):
        if not tokens:
            raise ConfigError("must be non-empty", "tokens")
        self.pattern = tuple(vocab.index(t) for t in tokens)
        k = len(self.pattern)
        # per state: the token that advances it (-2: none), its next state on it and on any other
        self.expected = np.array(self.pattern + (-2, -2))
        self.on_match = np.array([*range(1, k + 1), k, k + 1])
        self.on_miss = np.array([k + 1] * k + [k, k + 1])
        self.id = feature_id or "prefix_" + "_".join(tokens)

    def n_states(self, lmax: int) -> int:
        return len(self.pattern) + 2

    def step(self, states: np.ndarray, tokens: np.ndarray, lmax: int) -> np.ndarray:
        matched = tokens == self.expected[states]
        return np.where(matched, self.on_match[states], self.on_miss[states])

    def value(self, states: np.ndarray, lmax: int) -> np.ndarray:
        return (states == len(self.pattern)).astype(float)


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
        order. Raises AutomatonTooLarge past MAX_FEATURE_STATES states, before
        any member's table is built."""
        counts = [c.feature.n_states(space.lmax) for c in self.constraints]
        _guard_states(int(np.prod(counts, dtype=object)))
        delta = np.zeros((1, space.vocabulary.size), dtype=np.int64)
        values = np.zeros((1, 0))
        for c in self.constraints:  # append one digit: state s * n + s_c
            a = c.feature.automaton(space)
            n = a.n_states
            delta = (delta[:, None, :] * n + a.delta[None, :, :]).reshape(-1, delta.shape[1])
            values = np.column_stack([np.repeat(values, n, axis=0), np.tile(a.values, len(values))])
        return Automaton(delta=delta, values=values)

    def feature_matrix(self, batch: SampleBatch) -> np.ndarray:
        """(n_samples, n_constraints) feature values, columns in constraint order.
        This is the library's one evaluation of features: each feature's
        automaton steps once per token column, one state per row, and a cell
        past its row's length leaves the state as it is."""
        features = [c.feature for c in self.constraints]
        states = [np.zeros(len(batch), dtype=np.int64) for _ in features]
        for col in range(int(batch.lengths.max(initial=0))):
            inside, tokens = batch.lengths > col, batch.tokens[:, col].astype(np.intp)
            for j, f in enumerate(features):
                states[j] = np.where(inside, f.step(states[j], tokens, batch.width), states[j])
        values = [f.value(s, batch.width) for f, s in zip(features, states)]
        return np.column_stack(values) if values else np.zeros((len(batch), 0))
