import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distctl import estimators, metrics
from distctl.ebm import Ebm
from distctl.estimators import exact_kl
from distctl.lm import TabularARModel
from distctl.errors import ConfigError, EmptyCorpus, TooFewSamples
from distctl.features import ConstraintSet, ConstraintSpec, TokenPresence
from distctl.metrics import (
    EvalOptions,
    corpus_dist_n,
    ngram_counts,
    self_bleu_n,
    snapshot,
    zipf_table,
)
from distctl.seqspace import Vocabulary

from helpers import (
    Sequence,
    batch_from,
    batch_of,
    dense_table_bytes,
    dist_n,
    enumeration,
    expectation_phi,
    naive_bleu,
    naive_corpus_dist_n,
    naive_self_bleu_n,
    naive_zipf_rows,
    random_model,
    small_space,
    traced_peak,
    universe_arrays,
    zipf_total,
)

SEQS = st.lists(
    st.lists(st.integers(0, 2), min_size=0, max_size=6).map(lambda t: Sequence(tuple(t))),
    min_size=2,
    max_size=12,
)


def test_expectation_phi_all_satisfying(ab_space):
    cs = ConstraintSet([ConstraintSpec(TokenPresence(ab_space.vocabulary, "a"), 0.5)])
    batch = batch_from(ab_space, [Sequence((0,)), Sequence((0, 1))])
    assert np.array_equal(expectation_phi(batch, cs), [1.0])


def test_expectation_phi_empty_set(ab_space):
    batch = batch_from(ab_space, [Sequence((0,))])
    assert expectation_phi(batch, ConstraintSet([])).shape == (0,)


def test_expectation_phi_matches_enumeration(rng):
    space = small_space(3, 4)
    model = random_model(space, 2, rng)
    cs = ConstraintSet([ConstraintSpec(TokenPresence(space.vocabulary, "a"), 0.5)])
    exact = float(model.exact_distribution() @ cs.feature_matrix(enumeration(space))[:, 0])
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
    assert corpus_dist_n(batch_of(corpus), 1) == pytest.approx(0.5)
    assert corpus_dist_n(batch_of([Sequence(())]), 1) == 1.0


@settings(max_examples=50, deadline=None)
@given(SEQS, st.integers(1, 3))
def test_duplicate_never_increases_corpus_dist(samples, n):
    before = corpus_dist_n(batch_of(samples), n)
    dup = samples + [samples[0]]
    assert corpus_dist_n(batch_of(dup), n) <= before + 1e-12


@settings(max_examples=40, deadline=None)
@given(SEQS, st.integers(1, 3))
def test_dist_and_self_bleu_permutation_invariant(samples, n):
    batch, reversed_batch = batch_of(samples), batch_of(list(reversed(samples)))
    assert corpus_dist_n(batch, n) == corpus_dist_n(reversed_batch, n)
    assert self_bleu_n(batch, n) == pytest.approx(self_bleu_n(reversed_batch, n), abs=1e-12)


# -- self-BLEU ---------------------------------------------------------------


def test_self_bleu_identical_corpus():
    corpus = [Sequence((0, 1, 2, 0)) for _ in range(5)]
    for n in (3, 4):
        assert self_bleu_n(batch_of(corpus), n) == pytest.approx(1.0)


def test_self_bleu_disjoint_vocabularies():
    corpus = [Sequence((0, 0, 0, 0)), Sequence((1, 1, 1, 1))]
    assert self_bleu_n(batch_of(corpus), 3) <= 1e-8


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
        assert self_bleu_n(batch_of(corpus), n) == pytest.approx(float(np.mean(expected)), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(SEQS, st.integers(1, 3))
def test_self_bleu_matches_naive_oracle_random(samples, n):
    batch = batch_of(samples)
    expected = []
    for i, cand in enumerate(samples):
        if len(cand) < n:
            continue
        refs = [samples[j] for j in range(len(samples)) if j != i]
        expected.append(naive_bleu(cand, refs, n))
    if not expected:
        assert self_bleu_n(batch, n) == 0.0
    else:
        assert self_bleu_n(batch, n) == pytest.approx(float(np.mean(expected)), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(SEQS, st.integers(1, 3))
def test_duplicate_never_decreases_self_bleu(samples, n):
    before = self_bleu_n(batch_of(samples), n)
    dup = samples + [samples[0]]
    assert self_bleu_n(batch_of(dup), n) >= before - 1e-12


def test_self_bleu_short_sequences_excluded():
    corpus = [Sequence((0,)), Sequence((0, 1, 2)), Sequence((0, 1, 2))]
    # the single-token sequence is no candidate but still serves as a reference
    assert self_bleu_n(batch_of(corpus), 3) == pytest.approx(1.0)
    assert self_bleu_n(batch_of([Sequence((0,)), Sequence((1,))]), 3) == 0.0


def test_self_bleu_too_few_samples():
    with pytest.raises(TooFewSamples):
        self_bleu_n(batch_of([Sequence((0, 1, 2))]), 3)


# -- batch metrics against the per-sequence references ---------------------------


@st.composite
def token_batches(draw):
    """(vocabulary size, width, sequences) with vocabulary 1-12 and width 1-7."""
    vocab_size = draw(st.integers(1, 12))
    width = draw(st.integers(1, 7))
    row = st.lists(st.integers(0, vocab_size - 1), max_size=width)
    rows = draw(st.lists(row, min_size=2, max_size=16))
    return vocab_size, width, [Sequence(tuple(r)) for r in rows]


def assert_equals_references(seqs, width, ns=range(1, 6)):
    batch = batch_of(seqs, width)
    counts = ngram_counts(batch, max(ns))
    for n in ns:
        dist = naive_corpus_dist_n(seqs, n)
        assert corpus_dist_n(batch, n) == corpus_dist_n(batch, n, counts) == dist
        bleu = naive_self_bleu_n(seqs, n)
        assert self_bleu_n(batch, n) == self_bleu_n(batch, n, counts) == bleu


@settings(max_examples=200, deadline=None)
@given(token_batches())
def test_batch_metrics_equal_per_sequence_references(drawn):
    vocab_size, width, seqs = drawn
    assert_equals_references(seqs, width)
    vocab = Vocabulary.from_body_tokens([f"t{i}" for i in range(vocab_size)])
    if any(len(s) for s in seqs):
        assert zipf_table(batch_of(seqs, width), vocab) == naive_zipf_rows(seqs, vocab)
    else:
        with pytest.raises(EmptyCorpus):
            zipf_table(batch_of(seqs, width), vocab)


EDGE_CORPORA = {
    # the unigram (0,) has its top count, 2, in both rows 0 and 1
    "top-count-tie": ([(0, 0, 1, 2), (0, 0, 2, 1), (1, 2, 0)], 4),
    "empty-rows": ([(), (0, 1, 2), (), (0, 1)], 3),
    "n-above-width": ([(0, 1), (1,), (1, 0)], 2),
    # every other length equals the own one: the closest reference length is it
    "equal-lengths": ([(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 0, 0)], 3),
    "duplicated": ([(0, 1, 2, 0), (1, 1), (0, 1, 2, 0), (1, 1)], 4),
}


@pytest.mark.parametrize("name", sorted(EDGE_CORPORA))
def test_batch_metrics_edge_cases(name):
    rows, width = EDGE_CORPORA[name]
    seqs = [Sequence(r) for r in rows]
    assert_equals_references(seqs, width)
    batch = batch_of(seqs, width)
    for n in range(1, 6):
        candidates = [i for i, s in enumerate(seqs) if len(s) >= n]
        if not candidates:
            assert corpus_dist_n(batch, n) == 1.0 and self_bleu_n(batch, n) == 0.0
            continue
        refs = [[r for j, r in enumerate(seqs) if j != i] for i in candidates]
        textbook = np.mean([naive_bleu(seqs[i], rs, n) for i, rs in zip(candidates, refs)])
        assert self_bleu_n(batch, n) == pytest.approx(float(textbook), abs=1e-9)


def test_batch_metrics_large_vocabulary():
    # base-V ids of 5-grams over V = 2**16 tokens wrap in int64 at V**4 == 2**64,
    # which would merge grams that differ only in their first token
    top = 2**16 - 1
    twins = [Sequence((top, 1, 2, 3, 4)), Sequence((top - 1, 1, 2, 3, 4))]
    assert corpus_dist_n(batch_of(twins), 5) == 1.0
    precisions = [4 / 5, 3 / 4, 2 / 3, 1 / 2, 1e-9]  # the floor: no shared 5-gram
    assert self_bleu_n(batch_of(twins), 5) == pytest.approx(np.exp(np.mean(np.log(precisions))))
    rng = np.random.default_rng(5)
    seqs = twins + [
        Sequence(tuple(int(t) for t in rng.choice([1, 2, top - 1, top], size=k)))
        for k in rng.integers(0, 8, size=40)
    ]
    assert_equals_references(seqs, 7, ns=[5])


@pytest.mark.parametrize("rows, counted", [(2, True), (512, False)], ids=["2-rows", "512-rows"])
def test_ngram_counts_group_over_exact_ranges(rows, counted, monkeypatch):
    """`ngram_counts` groups each order's grams, then its row-gram pairs,
    over their exact ranges. A 2-row batch's pairs all fall where `_group`
    counts, and a long 512-row batch's where it sorts. Both batches equal the
    references."""
    group, sides = metrics._group, []

    def spy(keys, size):
        assert len(keys) == 0 or keys.max() < size  # the range holds every key
        sides.append(size <= 4 * len(keys))
        return group(keys, size)

    rng = np.random.default_rng(rows)
    seqs = [Sequence(tuple(int(t) for t in rng.integers(0, 6, size=k)))
            for k in rng.integers(3, 8, size=rows)]
    with monkeypatch.context() as patched:
        patched.setattr(metrics, "_group", spy)
        ngram_counts(batch_of(seqs, 7), 5)
    pairs = sides[1::2]
    assert len(pairs) == 5 and all(pairs) == counted
    assert_equals_references(seqs, 7)


def test_ngram_counts_must_reach_n():
    batch = batch_of([Sequence((0, 1, 2)), Sequence((1, 2))])
    counts = ngram_counts(batch, 2)
    with pytest.raises(ConfigError):
        self_bleu_n(batch, 3, counts)


@pytest.mark.parametrize("pointwise", [False, True], ids=["exponential", "pointwise-product"])
def test_snapshot_evaluates_features_and_base_once(pointwise, monkeypatch, rng):
    space = small_space(3, 4)
    base = random_model(space, 2, rng)
    policy = base.to_order(space.lmax, trainable=True)
    spec = ConstraintSpec(TokenPresence(space.vocabulary, "a"), 1.0 if pointwise else 0.4, pointwise)
    cs = ConstraintSet([spec])
    if pointwise:
        target = Ebm(base=base, constraint_set=cs, lam=np.zeros(0))
        assert list(target.pointwise_columns) == [0] and not len(target.lambda_columns)
    else:
        target = Ebm(base=base, constraint_set=cs, lam=np.array([0.8]))
    calls = []
    feature_matrix, log_prob_batch = ConstraintSet.feature_matrix, TabularARModel.log_prob_batch

    def counted_features(self, batch):
        calls.append("features")
        return feature_matrix(self, batch)

    def counted_log_probs(self, batch):
        calls.append("base" if self is base else "policy")
        return log_prob_batch(self, batch)

    monkeypatch.setattr(ConstraintSet, "feature_matrix", counted_features)
    monkeypatch.setattr(TabularARModel, "log_prob_batch", counted_log_probs)
    record = snapshot(0, "gdc", policy, target, rng, EvalOptions(sample_size=64))
    assert sorted(calls) == ["base", "features", "policy"]
    assert sorted(record.dist_n) == [1, 2, 3] and sorted(record.self_bleu_n) == [3, 4, 5]


# -- zipf ---------------------------------------------------------------------


def test_zipf_rows(ab_space):
    table = zipf_table(batch_of([Sequence((0, 0, 1))]), ab_space.vocabulary)
    assert table == [(1, "a", 2), (2, "b", 1)]
    assert zipf_total(table) == 3


def test_zipf_tie_break_by_vocab_index():
    space = small_space(3, 4)
    table = zipf_table(batch_of([Sequence((2, 1))]), space.vocabulary)
    assert [rank for rank, _, _ in table] == [1, 2]
    assert [tok for _, tok, _ in table] == ["b", "c"]


def test_zipf_near_flat_on_balanced_corpus():
    space = small_space(3, 4)
    corpus = [Sequence((0, 1, 2)) for _ in range(10)]
    table = zipf_table(batch_of(corpus), space.vocabulary)
    freqs = [f for _, _, f in table]
    assert max(freqs) == min(freqs) == 10


def test_zipf_empty_corpus(ab_space):
    with pytest.raises(EmptyCorpus):
        zipf_table(batch_of([Sequence(())]), ab_space.vocabulary)


@settings(max_examples=40, deadline=None)
@given(SEQS)
def test_zipf_sum_identity(samples):
    space = small_space(3, 6)
    total = sum(len(s) for s in samples)
    if total == 0:
        with pytest.raises(EmptyCorpus):
            zipf_table(batch_of(samples), space.vocabulary)
        return
    table = zipf_table(batch_of(samples), space.vocabulary)
    assert zipf_total(table) == total
    freqs = [f for _, _, f in table]
    assert all(f1 >= f2 for f1, f2 in zip(freqs, freqs[1:]))


def test_exact_snapshot_calls_no_enumeration_oracle(monkeypatch, rng):
    """The exact columns come from the target DP alone: every enumeration
    oracle is made to fail, and the snapshot still matches enumeration."""
    space = small_space(3, 4)
    base = random_model(space, 2, rng)
    cs = ConstraintSet([ConstraintSpec(TokenPresence(space.vocabulary, "a"), 0.4)])
    target = Ebm(base=base, constraint_set=cs, lam=np.array([0.8]))
    policy = random_model(space, space.lmax, rng)
    p, pi = target.exact_normalize()[1], policy.exact_distribution()
    expected = exact_kl(p, pi), pi @ cs.feature_matrix(enumeration(space))

    def refused(*args, **kwargs):
        raise AssertionError("an enumeration oracle was called")

    for owner, name in ((Ebm, "exact_normalize"), (Ebm, "universe_states"),
                        (TabularARModel, "exact_distribution"),
                        (TabularARModel, "exact_log_distribution"), (estimators, "exact_kl")):
        monkeypatch.setattr(owner, name, refused)
    record = snapshot(0, "gdc", policy, target, rng, EvalOptions(sample_size=64, exact=True))
    assert record.kl_p_pi_exact == pytest.approx(expected[0], rel=1e-12)
    np.testing.assert_allclose(record.e_phi_exact, expected[1], rtol=1e-12, atol=0)


def test_warm_exact_snapshot_holds_less_than_one_universe_array(rng):
    """Once the target's DP tables are cached, an exact snapshot makes no
    universe-sized array: its exact columns come from the forward pass over
    the policy's prefixes (`Ebm.exact_policy_terms`), which holds a few
    arrays of at most one part of ENUMERATION_CHUNK_ROWS prefixes. Here the
    longest prefixes, 32,768 of them, fit in one part, and the peak reads
    0.88 universe-sized float64 arrays; the enumerating snapshot read 1.26
    (the policy's distribution and `exact_kl`'s masks). The policy's dense
    table would be 1.12 such arrays, so the snapshot builds nothing of its
    size."""
    space = small_space(8, 6)  # 299,593 sequences
    base = random_model(space, 2, rng)
    cs = ConstraintSet([ConstraintSpec(TokenPresence(space.vocabulary, "a"), 0.4)])
    target = Ebm(base=base, constraint_set=cs, lam=np.array([0.8]))
    policy = base.to_order(space.lmax, trainable=True)
    options = EvalOptions(sample_size=64, exact=True)
    snapshot(0, "gdc", policy, target, rng, options)  # fills the target's caches
    _, peak = traced_peak(snapshot, 1, "gdc", policy, target, rng, options)
    assert universe_arrays(dense_table_bytes(policy), space) > 1.1
    assert universe_arrays(peak, space) <= 0.95


def test_snapshot_reads_a_frozen_policy_with_zero_probability_cells(rng):
    """A frozen model may hold cells of probability 0.0 by design (an
    unsmoothed fit), and its snapshot runs; a trainable policy cannot hold
    one (`lm` refuses it where it would be made, see test_lm)."""
    space = small_space(3, 4)
    base = random_model(space, 2, rng)
    cs = ConstraintSet([ConstraintSpec(TokenPresence(space.vocabulary, "a"), 0.4)])
    options = EvalOptions(sample_size=16)
    logits = base.logits.copy()
    logits[0, 1] = -np.inf
    frozen = TabularARModel(space=space, order=2, logits=logits)
    frozen_target = Ebm(base=frozen, constraint_set=cs, lam=np.array([0.8]))
    record = snapshot(0, "eval", frozen, frozen_target, rng, options)
    assert np.isfinite(record.kl_pi_a.value)
