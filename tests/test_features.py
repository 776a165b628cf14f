import inspect

import numpy as np
import pytest

from distctl.baselines import RejectionConfig, rejection_mle
from distctl.config import FEATURE_SCHEMAS
from distctl.ebm import Ebm
from distctl.errors import AutomatonTooLarge, ConfigError, NoPointwiseConstraints
from distctl.features import (
    FEATURE_KINDS,
    MAX_FEATURE_STATES,
    ConstraintSet,
    ConstraintSpec,
    Feature,
    PrefixMatch,
    TokenPresence,
    TokenRatio,
    WordlistPresence,
)
from distctl.lm import TabularARModel
from distctl.seqspace import SampleBatch, SequenceSpace, Vocabulary

from helpers import (
    PredicateTable,
    Sequence,
    batch_from,
    enumerate_sequences,
    enumeration,
    feature_column,
    feature_value,
    sequences,
    small_space,
    uniform_model,
)


@pytest.fixture
def pronoun_space():
    vocab = Vocabulary.from_body_tokens(["he", "she", "ball", "lab"])
    return SequenceSpace(vocabulary=vocab, lmax=4)


def rows(space, *seqs):
    """A batch of the given token tuples."""
    return batch_from(space, [Sequence(tuple(s)) for s in seqs])


def test_token_presence(pronoun_space):
    v = pronoun_space.vocabulary
    f = TokenPresence(v, "ball")
    batch = rows(pronoun_space, (v.index("ball"), v.index("he")), (v.index("he"),), ())
    assert np.array_equal(feature_column(f, batch), [1.0, 0.0, 0.0])


def test_token_ratio_pronoun_rule(pronoun_space):
    v = pronoun_space.vocabulary
    f = TokenRatio(v, ["she"], ["she", "he"])
    she, he = v.index("she"), v.index("he")
    values = feature_column(f, rows(pronoun_space, (she, he, she), ()))
    assert values[0] == pytest.approx(2.0 / 3.0)
    assert values[1] == 0.0  # declared default on pronoun-free text
    g = TokenRatio(v, ["she"], ["she", "he"], empty_default=0.5)
    assert feature_column(g, rows(pronoun_space, (v.index("ball"),)))[0] == 0.5


def test_token_ratio_validation(pronoun_space):
    v = pronoun_space.vocabulary
    with pytest.raises(ConfigError):
        TokenRatio(v, ["ball"], ["she", "he"])  # numerator not inside denominator
    with pytest.raises(ConfigError):
        TokenRatio(v, ["she"], ["she"], empty_default=2.0)


def test_prefix_match(pronoun_space):
    v = pronoun_space.vocabulary
    f = PrefixMatch(v, ["she", "ball"])
    she, ball, he = v.index("she"), v.index("ball"), v.index("he")
    batch = rows(pronoun_space, (she, ball, he), (she,), ())
    assert np.array_equal(feature_column(f, batch), [1.0, 0.0, 0.0])
    with pytest.raises(ConfigError):
        PrefixMatch(v, [])


def test_predicate_table():
    table = PredicateTable({Sequence((0,)): 1.0}, default=0.0)
    assert np.array_equal(feature_column(table, rows(small_space(2, 2), (0,), (1,))), [1.0, 0.0])
    with pytest.raises(ConfigError):
        PredicateTable({Sequence((0,)): 0.5}, binary=True)


def test_wordlist_presence(pronoun_space):
    v = pronoun_space.vocabulary
    f = WordlistPresence(v, ["ball", "lab"])
    batch = rows(pronoun_space, (v.index("lab"),), (v.index("he"),))
    assert np.array_equal(feature_column(f, batch), [1.0, 0.0])
    with pytest.raises(ConfigError):
        WordlistPresence(v, [])


FEATURES = pytest.mark.parametrize("make", [
    lambda v: TokenPresence(v, "a"),
    lambda v: WordlistPresence(v, ["a", "c"]),
    lambda v: TokenRatio(v, ["a"], ["a", "b"]),
    lambda v: PrefixMatch(v, ["b", "a"]),
    lambda v: TokenRatio(v, ["a", "c"], ["a", "b", "c"], empty_default=0.25),
    lambda v: PrefixMatch(v, ["c"] * 5),  # longer than lmax: never matches
    lambda v: PredicateTable({Sequence(()): 0.7, Sequence((0, 1)): 1.0, Sequence((1, 0, 2)): 0.3,
                              Sequence((1,)): 0.0}, default=0.2, binary=False),
])


def run_automaton(automaton, x: Sequence):
    """The value of the state the automaton ends `x` in, one token at a time."""
    state = 0
    for token in x.tokens:
        state = automaton.delta[state, token]
    return automaton.values[state]


@FEATURES
def test_automaton_ends_every_sequence_at_its_value(make):
    space = small_space(3, 4)
    f = make(space.vocabulary)
    xs = sequences(enumeration(space))
    ends = [run_automaton(f.automaton(space), x) for x in xs]
    assert np.array_equal(ends, [feature_value(f, x) for x in xs])


def test_constraint_set_automaton_is_the_product_of_its_members():
    space = small_space(3, 4)
    v = space.vocabulary
    members = [TokenRatio(v, ["a"], ["a", "b"]), PrefixMatch(v, ["b", "a"]),
               WordlistPresence(v, ["a", "c"])]
    cs = ConstraintSet([ConstraintSpec(f, 0.5) for f in members])
    auto = cs.automaton(space)
    assert auto.n_states == np.prod([f.automaton(space).n_states for f in members])
    batch = enumeration(space)
    ends = np.array([run_automaton(auto, x) for x in sequences(batch)])
    assert np.array_equal(ends, cs.feature_matrix(batch))
    empty = ConstraintSet([]).automaton(space)
    assert (empty.n_states, empty.values.shape) == (1, (1, 0))


def test_automata_are_guarded_before_they_are_built():
    """A ratio at lmax 64 would count its tokens in 65 ** 2 = 4,225 states,
    one at lmax 10,000 in 1e8: each is refused before its table exists, and
    so is a product past the guard."""
    space = small_space(3, 63)
    v = space.vocabulary
    ratio = TokenRatio(v, ["a"], ["a", "b"])
    assert ratio.automaton(space).n_states == 64**2 <= MAX_FEATURE_STATES
    for lmax, count in ((64, 4225), (10_000, 10_001**2)):
        with pytest.raises(AutomatonTooLarge, match=f"{count} states, more than 4096"):
            ConstraintSet([ConstraintSpec(ratio, 0.5)]).automaton(small_space(3, lmax))
    with pytest.raises(AutomatonTooLarge, match="8192 states"):
        ConstraintSet([ConstraintSpec(ratio, 0.5), ConstraintSpec(TokenPresence(v, "c"), 0.5)]
                      ).automaton(space)


def test_a_ratio_past_lmax_63_is_folded_without_its_table(monkeypatch, rng):
    """At lmax 200 a ratio's table would hold 201 ** 2 states, past the
    guard, but a batch is folded one state per row and builds none: rows of
    every length up to 200, padding with body tokens, read as the scalar
    reference does."""
    space = small_space(3, 200)
    f = TokenRatio(space.vocabulary, ["a"], ["a", "b"], empty_default=0.5)

    def no_table(self, space):
        raise AssertionError("built a transition table to evaluate a batch")

    monkeypatch.setattr(Feature, "automaton", no_table)
    lengths = rng.integers(0, space.lmax + 1, size=300)
    lengths[:3] = 0, 64, space.lmax
    tokens = rng.integers(0, space.body_size, size=(300, space.lmax)).astype(np.int32)
    batch = SampleBatch(tokens=tokens, lengths=lengths)
    assert np.array_equal(feature_column(f, batch), [feature_value(f, x) for x in sequences(batch)])


def test_every_feature_kind_has_a_config_schema_of_its_keywords():
    """`config.FEATURE_SCHEMAS` and `FEATURE_KINDS` name the same kinds, and
    a kind's JSON keys are its constructor's keywords besides `vocab` and
    `feature_id`, the required ones those without a default."""
    assert set(FEATURE_SCHEMAS) == set(FEATURE_KINDS)
    for kind, cls in FEATURE_KINDS.items():
        params = inspect.signature(cls).parameters
        keywords = {name: p for name, p in params.items() if name not in ("vocab", "feature_id")}
        keys, required = FEATURE_SCHEMAS[kind]
        assert set(keys) == set(keywords), kind
        assert set(required) == {n for n, p in keywords.items() if p.default is p.empty}, kind


@FEATURES
def test_batch_matches_scalar_over_enumeration(make):
    space = small_space(3, 4)
    f = make(space.vocabulary)
    batch = enumeration(space)
    vectorized = feature_column(f, batch)
    scalar = np.array([feature_value(f, s) for s in sequences(batch)])
    assert np.array_equal(vectorized, scalar)


@FEATURES
def test_batch_matches_scalar_on_random_batches(make, rng):
    """Random batches with empty and full-width rows, and padding cells that
    hold body tokens: only the cells inside a row's body may count."""
    space = small_space(4, 5)
    f = make(space.vocabulary)
    for n in (2, 7, 200):
        lengths = rng.integers(0, space.lmax + 1, size=n)
        lengths[:2] = 0, space.lmax
        tokens = rng.integers(0, space.body_size, size=(n, space.lmax)).astype(np.int32)
        garbage = np.arange(space.lmax) >= lengths[:, None]
        tokens[garbage & (rng.random(tokens.shape) < 0.5)] = -1
        batch = SampleBatch(tokens=tokens, lengths=lengths)
        bodies = [Sequence(tuple(row[:k])) for row, k in zip(tokens.tolist(), lengths.tolist())]
        scalar = np.array([feature_value(f, x) for x in bodies])
        assert np.array_equal(feature_column(f, batch), scalar)


def test_binary_features_are_binary_over_enumeration():
    space = small_space(3, 4)
    v = space.vocabulary
    for f in (TokenPresence(v, "b"), WordlistPresence(v, ["a"]), PrefixMatch(v, ["c"])):
        values = feature_column(f, enumeration(space))
        assert set(np.unique(values)) <= {0.0, 1.0}


def test_evaluate_is_pure(pronoun_space):
    v = pronoun_space.vocabulary
    f = TokenRatio(v, ["she"], ["she", "he"])
    x = rows(pronoun_space, (v.index("she"), v.index("he")))
    assert np.array_equal(feature_column(f, x), feature_column(f, x))


def test_evaluate_vector_and_empty_set():
    space = small_space(3, 3)
    v = space.vocabulary
    empty = ConstraintSet([])
    assert empty.feature_matrix(rows(space, (0,))).shape == (1, 0)
    cs = ConstraintSet([
        ConstraintSpec(TokenPresence(v, "a"), 1.0, pointwise=True),
        ConstraintSpec(TokenPresence(v, "b"), 1.0, pointwise=True),
    ])
    assert np.array_equal(cs.feature_matrix(rows(space, (0, 1))), [[1.0, 1.0]])


def test_hybrid_vector_example():
    space = small_space(4, 4)
    v = space.vocabulary
    sports = TokenPresence(v, "a", feature_id="sports")
    female = TokenPresence(v, "b", feature_id="female")
    cs = ConstraintSet([
        ConstraintSpec(sports, 1.0, pointwise=True),
        ConstraintSpec(female, 0.5, pointwise=False),
    ])
    x = rows(space, (v.index("a"), v.index("c")))  # sports yes, female no
    assert np.array_equal(cs.feature_matrix(x), [[1.0, 0.0]])


def product_b(space, cs, batch):
    """b(x) of a pointwise-only EBM: its score over a base log-prob of 0."""
    ebm = Ebm(base=uniform_model(space), constraint_set=cs, lam=[])
    return np.exp(ebm.log_scores(np.zeros(len(batch)), cs.feature_matrix(batch)))


def test_pointwise_predicate(monkeypatch):
    space = small_space(3, 3)
    v = space.vocabulary
    cs = ConstraintSet([
        ConstraintSpec(TokenPresence(v, "a"), 1.0, pointwise=True),
        ConstraintSpec(TokenPresence(v, "b"), 1.0, pointwise=True),
    ])
    assert np.array_equal(product_b(space, cs, rows(space, (0, 1), (0,))), [1.0, 0.0])
    distributional = ConstraintSet([ConstraintSpec(TokenPresence(v, "a"), 0.5)])
    base = uniform_model(space)

    def no_draws(*args):
        raise AssertionError("rejection sampling drew before checking its constraints")

    monkeypatch.setattr(TabularARModel, "_sample_block", no_draws)  # every draw's core
    config = RejectionConfig(sample_budget=10, fit_order=1)
    with pytest.raises(NoPointwiseConstraints):
        rejection_mle(base, distributional, config, np.random.default_rng(0))


def test_pointwise_predicate_iff_all_satisfied():
    space = small_space(2, 3)
    v = space.vocabulary
    cs = ConstraintSet([
        ConstraintSpec(TokenPresence(v, "a"), 1.0, pointwise=True),
        ConstraintSpec(TokenPresence(v, "b"), 1.0, pointwise=True),
    ])
    expected = [
        1.0 if all(feature_value(c.feature, x) == 1.0 for c in cs) else 0.0
        for x in enumerate_sequences(space)
    ]
    assert np.array_equal(product_b(space, cs, enumeration(space)), expected)


def test_constraint_spec_validation():
    space = small_space(3, 3)
    v = space.vocabulary
    with pytest.raises(ConfigError):
        ConstraintSpec(TokenRatio(v, ["a"], ["a", "b"]), 1.0, pointwise=True)
    with pytest.raises(ConfigError):
        ConstraintSpec(TokenPresence(v, "a"), 0.9, pointwise=True)
    with pytest.raises(ConfigError):
        ConstraintSpec(TokenPresence(v, "a"), 1.0, pointwise=False)
    with pytest.raises(ConfigError):
        ConstraintSpec(TokenPresence(v, "a"), 0.0, pointwise=False)
    ConstraintSpec(TokenRatio(v, ["a"], ["a", "b"]), 0.0)  # real-valued may sit at 0


def test_real_valued_target_must_lie_in_unit_interval():
    v = small_space(3, 3).vocabulary
    for target in (1.5, -0.1):
        with pytest.raises(ConfigError) as err:
            ConstraintSpec(TokenRatio(v, ["a"], ["a", "b"]), target=target)
        assert err.value.field == "target"
    ConstraintSpec(TokenRatio(v, ["a"], ["a", "b"]), target=1.0)


def test_eos_is_not_a_feature_token():
    v = small_space(3, 3).vocabulary
    eos = v.tokens[v.eos_index]
    for make in (
        lambda: TokenPresence(v, eos),
        lambda: WordlistPresence(v, ["a", eos]),
        lambda: PrefixMatch(v, [eos]),
        lambda: TokenRatio(v, [eos], ["a", eos]),
    ):
        with pytest.raises(ConfigError, match="end-of-sequence"):
            make()


def test_constraint_set_unique_ids():
    space = small_space(3, 3)
    v = space.vocabulary
    with pytest.raises(ConfigError):
        ConstraintSet([
            ConstraintSpec(TokenPresence(v, "a"), 0.5),
            ConstraintSpec(TokenPresence(v, "a"), 0.7),
        ])
