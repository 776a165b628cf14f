import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distctl.errors import ConfigError, EmptyCorpus, TooFewSamples
from distctl.features import ConstraintSet, ConstraintSpec, TokenPresence
from distctl.metrics import (
    corpus_dist_n,
    expectation_phi,
    self_bleu_n,
    zipf_table,
)
from distctl.seqspace import SampleBatch, Sequence

from helpers import dist_n, naive_bleu, small_space

SEQS = st.lists(
    st.lists(st.integers(0, 2), min_size=0, max_size=6).map(lambda t: Sequence(tuple(t))),
    min_size=2,
    max_size=12,
)


def test_expectation_phi_all_satisfying(ab_space):
    cs = ConstraintSet([ConstraintSpec(TokenPresence(ab_space.vocabulary, "a"), 0.5)])
    batch = SampleBatch.from_sequences(ab_space, [Sequence((0,)), Sequence((0, 1))])
    assert np.array_equal(expectation_phi(batch, cs), [1.0])


def test_expectation_phi_empty_set(ab_space):
    batch = SampleBatch.from_sequences(ab_space, [Sequence((0,))])
    assert expectation_phi(batch, ConstraintSet([])).shape == (0,)


def test_expectation_phi_matches_enumeration(rng):
    space = small_space(3, 4)
    from helpers import random_model

    model = random_model(space, 2, rng)
    cs = ConstraintSet([ConstraintSpec(TokenPresence(space.vocabulary, "a"), 0.5)])
    exact = float(model.exact_distribution() @ cs.feature_matrix(space.enumeration())[:, 0])
    batch = model.sample_batch(100000, np.random.default_rng(0))
    est = float(expectation_phi(batch, cs)[0])
    se = np.sqrt(exact * (1 - exact) / len(batch))
    assert abs(est - exact) < 3 * se


# -- dist-n ---------------------------------------------------------------


def test_dist_n_fixtures():
    assert dist_n(Sequence((0, 0, 0, 0)), 1) == pytest.approx(0.25)
    assert dist_n(Sequence((0, 1, 0, 1)), 1) == pytest.approx(0.5)
    assert dist_n(Sequence((0, 1, 0, 1)), 2) == pytest.approx(2.0 / 3.0)
    assert dist_n(Sequence((0, 1, 2)), 3) == 1.0
    assert dist_n(Sequence((0,)), 2) == 1.0  # shorter than n
    with pytest.raises(ConfigError):
        dist_n(Sequence((0,)), 0)


def test_corpus_dist_n_pools_ngrams():
    corpus = [Sequence((0, 1)), Sequence((0, 1))]
    # pooled: 2 distinct unigrams out of 4 tokens
    assert corpus_dist_n(corpus, 1) == pytest.approx(0.5)
    assert corpus_dist_n([Sequence(())], 1) == 1.0


@settings(max_examples=50, deadline=None)
@given(SEQS, st.integers(1, 3))
def test_duplicate_never_increases_corpus_dist(samples, n):
    before = corpus_dist_n(samples, n)
    dup = samples + [samples[0]]
    assert corpus_dist_n(dup, n) <= before + 1e-12


@settings(max_examples=40, deadline=None)
@given(SEQS, st.integers(1, 3))
def test_dist_and_self_bleu_permutation_invariant(samples, n):
    reversed_corpus = list(reversed(samples))
    assert corpus_dist_n(samples, n) == corpus_dist_n(reversed_corpus, n)
    assert self_bleu_n(samples, n) == pytest.approx(self_bleu_n(reversed_corpus, n), abs=1e-12)


# -- self-BLEU ---------------------------------------------------------------


def test_self_bleu_identical_corpus():
    corpus = [Sequence((0, 1, 2, 0)) for _ in range(5)]
    for n in (3, 4):
        assert self_bleu_n(corpus, n) == pytest.approx(1.0)


def test_self_bleu_disjoint_vocabularies():
    corpus = [Sequence((0, 0, 0, 0)), Sequence((1, 1, 1, 1))]
    assert self_bleu_n(corpus, 3) <= 1e-8


def test_self_bleu_matches_naive_oracle():
    corpus = [
        Sequence((0, 1, 2, 0, 1)),
        Sequence((1, 2, 0, 1)),
        Sequence((2, 2, 0, 1, 1)),
    ]
    for n in (3, 4, 5):
        expected = []
        for i, cand in enumerate(corpus):
            if len(cand) < n:
                continue
            refs = [corpus[j] for j in range(len(corpus)) if j != i]
            expected.append(naive_bleu(cand, refs, n))
        assert self_bleu_n(corpus, n) == pytest.approx(float(np.mean(expected)), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(SEQS, st.integers(1, 3))
def test_self_bleu_matches_naive_oracle_random(samples, n):
    expected = []
    for i, cand in enumerate(samples):
        if len(cand) < n:
            continue
        refs = [samples[j] for j in range(len(samples)) if j != i]
        expected.append(naive_bleu(cand, refs, n))
    if not expected:
        assert self_bleu_n(samples, n) == 0.0
    else:
        assert self_bleu_n(samples, n) == pytest.approx(float(np.mean(expected)), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(SEQS, st.integers(1, 3))
def test_duplicate_never_decreases_self_bleu(samples, n):
    before = self_bleu_n(samples, n)
    dup = samples + [samples[0]]
    assert self_bleu_n(dup, n) >= before - 1e-12


def test_self_bleu_short_sequences_excluded():
    corpus = [Sequence((0,)), Sequence((0, 1, 2)), Sequence((0, 1, 2))]
    # the single-token sequence is no candidate but still serves as a reference
    assert self_bleu_n(corpus, 3) == pytest.approx(1.0)
    assert self_bleu_n([Sequence((0,)), Sequence((1,))], 3) == 0.0


def test_self_bleu_too_few_samples():
    with pytest.raises(TooFewSamples):
        self_bleu_n([Sequence((0, 1, 2))], 3)


# -- zipf ---------------------------------------------------------------------


def test_zipf_rows(ab_space):
    table = zipf_table([Sequence((0, 0, 1))], ab_space.vocabulary)
    assert table.rows == [(1, "a", 2), (2, "b", 1)]
    assert table.total == 3


def test_zipf_tie_break_by_vocab_index():
    space = small_space(3, 4)
    table = zipf_table([Sequence((2, 1))], space.vocabulary)
    assert [rank for rank, _, _ in table.rows] == [1, 2]
    assert [tok for _, tok, _ in table.rows] == ["b", "c"]


def test_zipf_near_flat_on_balanced_corpus():
    space = small_space(3, 4)
    corpus = [Sequence((0, 1, 2)) for _ in range(10)]
    table = zipf_table(corpus, space.vocabulary)
    freqs = [f for _, _, f in table.rows]
    assert max(freqs) == min(freqs) == 10


def test_zipf_empty_corpus(ab_space):
    with pytest.raises(EmptyCorpus):
        zipf_table([Sequence(())], ab_space.vocabulary)


@settings(max_examples=40, deadline=None)
@given(SEQS)
def test_zipf_sum_identity(samples):
    space = small_space(3, 6)
    total = sum(len(s) for s in samples)
    if total == 0:
        with pytest.raises(EmptyCorpus):
            zipf_table(samples, space.vocabulary)
        return
    table = zipf_table(samples, space.vocabulary)
    assert table.total == total
    freqs = [f for _, _, f in table.rows]
    assert all(f1 >= f2 for f1, f2 in zip(freqs, freqs[1:]))
