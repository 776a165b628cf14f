import numpy as np
import pytest

from distctl.baselines import RejectionConfig, rejection_mle
from distctl.ebm import Ebm
from distctl.errors import ConfigError, NoPointwiseConstraints
from distctl.features import (
    ConstraintSet,
    ConstraintSpec,
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
    assert np.array_equal(f.evaluate_batch(batch), [1.0, 0.0, 0.0])


def test_token_ratio_pronoun_rule(pronoun_space):
    v = pronoun_space.vocabulary
    f = TokenRatio(v, ["she"], ["she", "he"])
    she, he = v.index("she"), v.index("he")
    values = f.evaluate_batch(rows(pronoun_space, (she, he, she), ()))
    assert values[0] == pytest.approx(2.0 / 3.0)
    assert values[1] == 0.0  # declared default on pronoun-free text
    g = TokenRatio(v, ["she"], ["she", "he"], empty_default=0.5)
    assert g.evaluate_batch(rows(pronoun_space, (v.index("ball"),)))[0] == 0.5


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
    assert np.array_equal(f.evaluate_batch(batch), [1.0, 0.0, 0.0])
    with pytest.raises(ConfigError):
        PrefixMatch(v, [])


def test_predicate_table():
    table = PredicateTable({Sequence((0,)): 1.0}, default=0.0)
    assert np.array_equal(table.evaluate_batch(rows(small_space(2, 2), (0,), (1,))), [1.0, 0.0])
    with pytest.raises(ConfigError):
        PredicateTable({Sequence((0,)): 0.5}, binary=True)


def test_wordlist_presence(pronoun_space):
    v = pronoun_space.vocabulary
    f = WordlistPresence(v, ["ball", "lab"])
    batch = rows(pronoun_space, (v.index("lab"),), (v.index("he"),))
    assert np.array_equal(f.evaluate_batch(batch), [1.0, 0.0])
    with pytest.raises(ConfigError):
        WordlistPresence(v, [])


FEATURES = pytest.mark.parametrize("make", [
    lambda v: TokenPresence(v, "a"),
    lambda v: WordlistPresence(v, ["a", "c"]),
    lambda v: TokenRatio(v, ["a"], ["a", "b"]),
    lambda v: PrefixMatch(v, ["b", "a"]),
    lambda v: TokenRatio(v, ["a", "c"], ["a", "b", "c"], empty_default=0.25),
])


@FEATURES
def test_batch_matches_scalar_over_enumeration(make):
    space = small_space(3, 4)
    f = make(space.vocabulary)
    batch = enumeration(space)
    vectorized = f.evaluate_batch(batch)
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
        assert np.array_equal(f.evaluate_batch(batch), scalar)


def test_binary_features_are_binary_over_enumeration():
    space = small_space(3, 4)
    v = space.vocabulary
    for f in (TokenPresence(v, "b"), WordlistPresence(v, ["a"]), PrefixMatch(v, ["c"])):
        values = f.evaluate_batch(enumeration(space))
        assert set(np.unique(values)) <= {0.0, 1.0}


def test_evaluate_is_pure(pronoun_space):
    v = pronoun_space.vocabulary
    f = TokenRatio(v, ["she"], ["she", "he"])
    x = rows(pronoun_space, (v.index("she"), v.index("he")))
    assert np.array_equal(f.evaluate_batch(x), f.evaluate_batch(x))


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

    def no_draws(self, n, rng):
        raise AssertionError("rejection sampling drew before checking its constraints")

    monkeypatch.setattr(TabularARModel, "sample_batch", no_draws)
    with pytest.raises(NoPointwiseConstraints):
        rejection_mle(base, distributional, RejectionConfig(sample_budget=10, fit_order=1))


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
