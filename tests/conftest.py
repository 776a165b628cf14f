import numpy as np
import pytest

from distctl.features import ConstraintSet, ConstraintSpec, TokenPresence
from distctl.seqspace import SequenceSpace, Vocabulary

from helpers import uniform_over_universe


@pytest.fixture
def ab_space():
    """vocab {a, b, <eos>}, lmax 2: the 7-sequence universe."""
    vocab = Vocabulary.from_body_tokens(["a", "b"])
    return SequenceSpace(vocabulary=vocab, lmax=2)


@pytest.fixture
def ab_uniform(ab_space):
    """Uniform distribution over the 7-sequence universe."""
    return uniform_over_universe(ab_space)


@pytest.fixture
def presence_a_pointwise(ab_space):
    feature = TokenPresence(ab_space.vocabulary, "a")
    return ConstraintSet([ConstraintSpec(feature, target=1.0, pointwise=True)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
