import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distctl
from distctl import seqspace
from distctl.errors import ConfigError, EmptyCorpus, UniverseTooLarge
from distctl.lm import TabularARModel
from distctl.seqspace import (
    ENUMERATION_GUARD,
    SampleBatch,
    SequenceSpace,
    Vocabulary,
    tokenize_corpus,
)

from helpers import (
    Sequence,
    batch_from,
    batch_of,
    enumerate_sequences,
    enumeration,
    enumeration_blocks,
    sequence_rank,
    sequences,
    small_space,
    validate,
)


def test_vocabulary_rejects_duplicates_and_bad_eos():
    with pytest.raises(ConfigError):
        Vocabulary(("a", "a", "<eos>"), 2)
    with pytest.raises(ConfigError):
        Vocabulary(("a", "", "<eos>"), 2)
    with pytest.raises(ConfigError):
        Vocabulary(("a", "<eos>"), 5)
    with pytest.raises(ConfigError):
        Vocabulary.from_body_tokens(["a", "<eos>"])


def test_enumerate_seven_sequences(ab_space):
    seqs = [s.tokens for s in enumerate_sequences(ab_space)]
    # epsilon, a, b, aa, ab, ba, bb with a=0, b=1
    assert seqs == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_single_token_vocab():
    space = small_space(1, 1)
    assert [s.tokens for s in enumerate_sequences(space)] == [(), (0,)]


def test_enumerate_count_geometric_series():
    space = small_space(3, 4)
    expected = sum(3**k for k in range(5))  # 121
    assert expected == 121
    assert space.universe_size == expected
    assert sum(1 for _ in enumerate_sequences(space)) == expected


@settings(max_examples=25, deadline=None)
@given(body=st.integers(1, 4), lmax=st.integers(1, 6))
def test_enumeration_matches_closed_form_and_is_valid(body, lmax):
    space = small_space(body, lmax)
    seqs = list(enumerate_sequences(space))
    assert len(seqs) == space.universe_size
    assert len(set(s.tokens for s in seqs)) == len(seqs)
    for s in seqs:
        validate(space, s)


@pytest.mark.parametrize("chunk", [1, 5, 9, 1 << 16])
@pytest.mark.parametrize("body, lmax", [(1, 4), (2, 5), (3, 4), (4, 3)])
def test_enumeration_blocks_tile_the_universe_in_order(monkeypatch, chunk, body, lmax):
    monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", chunk)
    space = small_space(body, lmax)
    reference = batch_of(list(enumerate_sequences(space)), lmax)
    blocks = list(enumeration_blocks(space))
    for block in blocks:
        assert 1 <= len(block) <= chunk and len(set(block.lengths.tolist())) == 1
    tokens = np.concatenate([block.tokens for block in blocks])
    assert tokens.dtype == np.int32 and np.array_equal(tokens, reference.tokens)
    assert np.array_equal(np.concatenate([block.lengths for block in blocks]), reference.lengths)
    enum = enumeration(space)
    assert np.array_equal(enum.tokens, reference.tokens)
    assert np.array_equal(enum.lengths, reference.lengths)


def test_enumeration_count_at_size_caps():
    space = small_space(5, 8)
    expected = sum(5**k for k in range(9))
    assert space.universe_size == expected == 488281
    batch = enumeration(space)
    assert len(batch) == expected
    assert int(np.sum(batch.lengths == 8)) == 5**8


def test_enumeration_deterministic(ab_space):
    first = [s.tokens for s in enumerate_sequences(ab_space)]
    second = [s.tokens for s in enumerate_sequences(ab_space)]
    assert first == second
    batch = enumeration(ab_space)
    assert [tuple(r) for r in batch.tokens.tolist()] == [
        tuple(r) for r in enumeration(ab_space).tokens.tolist()
    ]


def test_universe_guard():
    space = small_space(10, 8)  # > 1e8 sequences
    with pytest.raises(UniverseTooLarge):
        list(enumerate_sequences(space))
    with pytest.raises(UniverseTooLarge):
        enumeration(space)


def test_guard_decides_a_long_space_at_once():
    space = small_space(5, 10_000)
    with pytest.raises(UniverseTooLarge, match="universe would hold more than 10000000 rows") as err:
        space.guard()
    assert len(str(err.value)) < 200
    with pytest.raises(UniverseTooLarge, match="context table") as err:
        TabularARModel(space=space, order=10_000, logits=np.zeros((1, 6)))
    assert len(str(err.value)) < 200
    started = time.perf_counter()
    with pytest.raises(UniverseTooLarge):
        small_space(5, 100_000).guard()
    assert time.perf_counter() - started < 1.0  # a full sum of 100,001 powers takes minutes
    one_token = small_space(1, ENUMERATION_GUARD)
    with pytest.raises(UniverseTooLarge):
        one_token.guard()
    small_space(1, ENUMERATION_GUARD - 1).guard()
    under = small_space(5, 9)  # 2,441,406 sequences
    under.guard()
    assert under.universe_size == sum(5**k for k in range(10))


def test_sequence_rank_matches_enumeration_order():
    space = small_space(3, 3)
    for i, s in enumerate(enumerate_sequences(space)):
        assert sequence_rank(space, s) == i


def test_sample_batch_round_trip(ab_space):
    seqs = [Sequence(()), Sequence((0,)), Sequence((1, 0))]
    batch = batch_from(ab_space, seqs)
    assert sequences(batch) == seqs
    assert batch.tokens.tolist() == [[-1, -1], [0, -1], [1, 0]]
    assert batch.lengths.tolist() == [0, 1, 2]
    with pytest.raises(ConfigError):
        batch_from(ab_space, [Sequence((0, 1, 0))])  # too long
    with pytest.raises(ConfigError):
        batch_from(ab_space, [Sequence((2,))])  # EOS in body


def test_tokenize_basic():
    out = tokenize_corpus("a b\nb", lmax=4)
    assert [s.tokens for s in sequences(out.batch)] == [(0, 1), (1,)]
    assert out.space.vocabulary.tokens == ("a", "b", "<eos>")
    assert out.space.lmax == out.batch.width == 4
    assert out.truncated == 0


def test_tokenize_truncates_long_lines():
    out = tokenize_corpus("x x x x x x", lmax=3)
    assert len(out.batch) == 1
    assert sequences(out.batch)[0].tokens == (0, 0, 0)
    assert out.truncated == 1


def test_tokenize_vocabulary_skips_words_past_lmax():
    out = tokenize_corpus("a b c", lmax=1)
    assert out.space.vocabulary.tokens == ("a", "<eos>")
    assert out.truncated == 1


def test_tokenize_vocab_size_includes_eos():
    lines = "\n".join("alpha beta gamma delta eps" for _ in range(100))
    out = tokenize_corpus(lines, lmax=8)
    assert out.space.vocabulary.size == 6


@settings(max_examples=60, deadline=None)
@given(
    lines=st.lists(
        st.lists(st.sampled_from(["a", "b", "cc", "d9", "eos"]), max_size=7), min_size=1, max_size=12
    ),
    lmax=st.integers(1, 4),
    gap=st.sampled_from([" ", "  ", "\t", " \t "]),
)
def test_tokenize_corpus_matches_a_per_line_reference(lines, lmax, gap):
    text = "\n".join(gap + gap.join(words) for words in lines)
    if not any(lines):
        with pytest.raises(EmptyCorpus):
            tokenize_corpus(text, lmax)
        return
    out = tokenize_corpus(text, lmax)
    kept = [words for words in lines if words]
    body = sorted({w for words in kept for w in words[:lmax]})
    space = SequenceSpace(Vocabulary.from_body_tokens(body), lmax)
    index = space.vocabulary.index
    reference = batch_from(space, [Sequence(tuple(index(w) for w in ws[:lmax])) for ws in kept])
    assert out.space == space
    assert out.truncated == sum(len(words) > lmax for words in kept)
    for name in ("tokens", "lengths"):
        got, want = getattr(out.batch, name), getattr(reference, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_tokenize_empty_corpus():
    with pytest.raises(EmptyCorpus):
        tokenize_corpus("", lmax=3)
    with pytest.raises(EmptyCorpus):
        tokenize_corpus("\n  \n", lmax=3)


def test_tokenize_rejects_reserved_eos():
    with pytest.raises(ConfigError):
        tokenize_corpus("a <eos> b", lmax=3)


def test_lmax_positive():
    vocab = Vocabulary.from_body_tokens(["a"])
    with pytest.raises(ConfigError):
        SequenceSpace(vocabulary=vocab, lmax=0)


def test_enumeration_batch_alignment():
    for body, lmax in [(2, 3), (1, 1), (1, 4), (3, 4), (4, 2)]:
        space = small_space(body, lmax)
        batch = enumeration(space)
        listed = list(enumerate_sequences(space))
        assert sequences(batch) == listed
        assert np.all(batch.lengths == [len(s) for s in listed])
        assert np.all(batch.tokens[np.arange(lmax) >= batch.lengths[:, None]] == -1)


def test_library_has_one_sequence_representation():
    """A sequence is a row of a SampleBatch; the per-sequence type and its
    conversions live in the test helpers."""
    assert not hasattr(distctl, "Sequence") and "Sequence" not in distctl.__all__
    assert not hasattr(seqspace, "Sequence")
    for name in ("sequences", "row", "from_sequences"):
        assert not hasattr(SampleBatch, name), name
    assert not hasattr(SequenceSpace, "validate")
    assert not hasattr(SequenceSpace, "enumeration")
