import json

import numpy as np
import pytest
import scipy.stats

from distctl.errors import (
    ConfigError,
    EmptyCorpus,
    NonFiniteLogits,
    NotTrainable,
    SchemaMismatch,
)
from distctl.lm import MODEL_VERSION, RowGradient, TabularARModel, mle_fit
from distctl.seqspace import SampleBatch, Sequence

from helpers import (
    dense_grad_weighted_sum,
    enumerate_sequences,
    from_distribution,
    grad_log_prob,
    gumbel_sample_batch,
    naive_log_prob,
    random_model,
    sequence_rank,
    small_space,
    step_grad_weighted_sum,
    step_log_prob_batch,
    uniform_over_universe,
)


def test_mle_next_token_ratio_before_eos(ab_space):
    corpus = [Sequence((0,)), Sequence((0,)), Sequence((1,))]
    model = mle_fit(ab_space, corpus, order=1, smoothing=0.0)
    probs = np.exp(model.logits[0] - np.log(np.sum(np.exp(model.logits[0]))))
    # transitions at the first position: a, a, b plus three EOS events
    assert probs[0] / (probs[0] + probs[1]) == pytest.approx(2.0 / 3.0)


def test_mle_smoothing_gives_full_support(ab_space):
    corpus = [Sequence((0,))]
    model = mle_fit(ab_space, corpus, order=2, smoothing=1.0)
    assert (model.exact_distribution() > 0).all()


def test_mle_concentrates_on_single_sequence(ab_space):
    target = Sequence((0, 1))
    model = mle_fit(ab_space, [target], order=1, smoothing=0.0)
    dist = model.exact_distribution()
    assert dist[sequence_rank(ab_space, target)] == dist.max()
    # with a repeated token the maximum is unique
    repeated = Sequence((0, 0))
    model2 = mle_fit(ab_space, [repeated], order=1, smoothing=0.0)
    dist2 = model2.exact_distribution()
    assert np.argmax(dist2) == sequence_rank(ab_space, repeated)
    assert dist2[sequence_rank(ab_space, repeated)] == pytest.approx(1.0)


def test_mle_empty_corpus(ab_space):
    with pytest.raises(EmptyCorpus):
        mle_fit(ab_space, [], order=1)


def test_log_prob_uniform_binary():
    space = small_space(1, 1)
    model = TabularARModel.uniform_logits(space, order=1)
    batch = SampleBatch.from_sequences(space, [Sequence(()), Sequence((0,))])
    assert model.log_prob_batch(batch) == pytest.approx([np.log(0.5), np.log(0.5)])


def test_forced_eos_at_lmax(ab_space):
    model = TabularARModel.uniform_logits(ab_space, order=1)
    # P([a,a]) = (1/3) * (1/3) * 1: the step at lmax carries no EOS factor
    batch = SampleBatch.from_sequences(ab_space, [Sequence((0, 0))])
    assert model.log_prob_batch(batch)[0] == pytest.approx(np.log(1.0 / 9.0))


@pytest.mark.parametrize("body,lmax,order", [(2, 2, 1), (3, 4, 2), (5, 5, 3), (5, 8, 2)])
def test_normalization_over_universe(body, lmax, order, rng):
    space = small_space(body, lmax)
    model = random_model(space, order, rng, scale=1.5)
    assert model.exact_distribution().sum() == pytest.approx(1.0, abs=1e-9)


def test_log_prob_matches_chain_rule_oracle(rng):
    for _ in range(20):
        space = small_space(int(rng.integers(2, 4)), int(rng.integers(2, 5)))
        model = random_model(space, int(rng.integers(1, 4)), rng)
        seqs = list(enumerate_sequences(space))[:: max(1, space.universe_size // 10)]
        batch = SampleBatch.from_sequences(space, seqs)
        expected = [naive_log_prob(model, seq) for seq in seqs]
        assert model.log_prob_batch(batch) == pytest.approx(expected, rel=1e-10)


def test_mle_model_matches_chain_rule_oracle(ab_space):
    corpus = [Sequence((0,)), Sequence((0, 1)), Sequence((1,)), Sequence((0,))]
    model = mle_fit(ab_space, corpus, order=2, smoothing=0.5)
    batch = ab_space.enumeration()
    expected = [naive_log_prob(model, seq) for seq in batch.sequences()]
    assert model.log_prob_batch(batch) == pytest.approx(expected, rel=1e-10)


def test_sampling_frequency():
    space = small_space(1, 1)
    model = TabularARModel.uniform_logits(space, order=1)
    seqs = model.sample_batch(10000, np.random.default_rng(11)).sequences()
    freq = sum(1 for s in seqs if s.tokens == (0,)) / 10000
    assert abs(freq - 0.5) < 0.02  # 3 sigma of Bin(10000, 1/2) is 0.015


def test_sampling_deterministic(ab_space, rng):
    model = random_model(ab_space, 2, rng)
    first = model.sample_batch(500, np.random.default_rng(3)).sequences()
    assert first == model.sample_batch(500, np.random.default_rng(3)).sequences()


def test_sampling_degenerate_point_mass(ab_space):
    dist = np.zeros(ab_space.universe_size)
    dist[0] = 1.0  # all mass on the empty sequence
    model = from_distribution(ab_space, dist)
    batch = model.sample_batch(200, np.random.default_rng(0))
    assert all(s.tokens == () for s in batch.sequences())


@pytest.mark.parametrize("body,lmax,order,scale", [(3, 3, 2, 0.8), (2, 4, 1, 1.2), (4, 3, 3, 0.5)])
def test_sampling_chi_square_goodness_of_fit(body, lmax, order, scale, rng):
    space = small_space(body, lmax)
    model = random_model(space, order, rng, scale=scale)
    exact = model.exact_distribution()
    batch = model.sample_batch(100000, np.random.default_rng(123))
    ranks = [sequence_rank(space, s) for s in batch.sequences()]
    counts = np.bincount(ranks, minlength=space.universe_size)
    expected = exact * len(ranks)
    keep = expected >= 5
    observed = counts[keep].astype(float)
    buckets = expected[keep]
    if (~keep).any():
        observed = np.concatenate([observed, [counts[~keep].sum()]])
        buckets = np.concatenate([buckets, [expected[~keep].sum()]])
    stat, pvalue = scipy.stats.chisquare(observed, buckets)
    assert pvalue > 0.001


def test_grad_zero_when_softmax_saturated(ab_space):
    model = TabularARModel.uniform_logits(ab_space, order=1, trainable=True)
    model.logits[0, 0] = 60.0  # next token 'a' is near-deterministic
    model.invalidate()
    grad = grad_log_prob(model, Sequence((0, 0)))
    assert np.abs(grad[0]).max() < 1e-20


def test_grad_uniform_binary_half():
    space = small_space(1, 2)
    model = TabularARModel.uniform_logits(space, order=1, trainable=True)
    grad = grad_log_prob(model, Sequence((0, 0)))
    # two free steps, each contributing (1 - 1/2) on 'a' and -1/2 on EOS
    assert grad[0, 0] == pytest.approx(1.0)
    assert grad[0, 1] == pytest.approx(-1.0)


def test_grad_matches_finite_differences(rng):
    for _ in range(100):
        space = small_space(int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        model = random_model(space, int(rng.integers(1, 4)), rng, trainable=True)
        seqs = list(enumerate_sequences(space))
        x = seqs[int(rng.integers(len(seqs)))]
        one = SampleBatch.from_sequences(space, [x])
        grad = grad_log_prob(model, x)
        direction = rng.standard_normal(model.logits.shape)
        eps = 1e-6
        plus = TabularARModel(
            space=space, order=model.order, logits=model.logits + eps * direction, trainable=True
        )
        minus = TabularARModel(
            space=space, order=model.order, logits=model.logits - eps * direction, trainable=True
        )
        numeric = (plus.log_prob_batch(one)[0] - minus.log_prob_batch(one)[0]) / (2 * eps)
        analytic = float((grad * direction).sum())
        scale = max(abs(numeric), abs(analytic), 1e-8)
        assert abs(numeric - analytic) / scale < 1e-6


def test_grad_requires_trainable(ab_space):
    model = TabularARModel.uniform_logits(ab_space, order=1)
    with pytest.raises(NotTrainable):
        grad_log_prob(model, Sequence((0,)))
    with pytest.raises(NotTrainable):
        model.apply_update(RowGradient.full(np.zeros_like(model.logits)), 0.1)


def test_apply_update_identity_and_reversibility(ab_space, rng):
    model = random_model(ab_space, 2, rng, trainable=True)
    before = model.logits.copy()
    model.apply_update(RowGradient.full(np.zeros_like(before)), 0.5)
    assert np.array_equal(model.logits, before)
    grad = rng.standard_normal(before.shape)
    model.apply_update(RowGradient.full(grad), 0.25)
    model.apply_update(RowGradient.full(-grad), 0.25)
    # add-then-subtract of the identical increment restores up to one rounding ulp
    assert np.allclose(model.logits, before, rtol=0.0, atol=1e-14)


def test_apply_update_monotone_in_target_token(ab_space):
    model = TabularARModel.uniform_logits(ab_space, order=1, trainable=True)
    before = np.exp(model._log_softmax()[0, 0])
    grad = np.zeros_like(model.logits)
    grad[0, 0] = 5.0
    model.apply_update(RowGradient.full(grad), 1.0)
    after = np.exp(model._log_softmax()[0, 0])
    assert after > before


def test_serialize_round_trip(ab_space, rng):
    model = random_model(ab_space, 2, rng)
    doc = json.loads(json.dumps(model.to_document()))
    restored = TabularARModel.from_document(doc)
    assert np.array_equal(restored.logits, model.logits)
    enum = ab_space.enumeration()
    assert np.array_equal(restored.log_prob_batch(enum), model.log_prob_batch(enum))


def test_serialize_round_trip_with_neg_inf(ab_space):
    model = mle_fit(ab_space, [Sequence((0,))], order=1, smoothing=0.0)
    assert np.isneginf(model.logits).any()
    doc = json.loads(json.dumps(model.to_document()))
    restored = TabularARModel.from_document(doc)
    assert np.array_equal(restored.logits, model.logits)


def test_write_document_matches_to_document_bytes(tmp_path, rng):
    space = small_space(3, 4)
    distinct = random_model(space, 3, rng, trainable=True)
    expanded = random_model(space, 2, rng).to_order(space.lmax, trainable=True)
    for _ in range(3):
        batch = expanded.sample_batch(8, rng)
        expanded.apply_update(expanded.grad_weighted_sum(batch, rng.standard_normal(8)), 0.5)
    neg_inf = mle_fit(space, [Sequence((0, 1)), Sequence((2,)), Sequence(())], order=2)
    signed_zero = TabularARModel.uniform_logits(small_space(2, 2), order=2)
    signed_zero.logits[1, 0] = -0.0
    one_row = TabularARModel.uniform_logits(small_space(2, 1), order=1)
    # the row shapes each case stands for
    assert len(np.unique(distinct.logits, axis=0)) == len(distinct.logits)
    assert len(np.unique(expanded.logits, axis=0)) < len(expanded.logits) // 2
    assert np.isneginf(neg_inf.logits).any()
    rows = signed_zero.logits
    assert np.array_equal(rows[0], rows[1]) and rows[0].tobytes() != rows[1].tobytes()
    assert one_row.logits.shape[0] == 1
    cases = {"distinct": distinct, "expanded": expanded, "neg-inf": neg_inf,
             "signed-zero": signed_zero, "one-row": one_row}
    for name, model in cases.items():
        path = tmp_path / f"{name}.json"
        model.write_document(path)
        text = path.read_text()
        assert text == json.dumps(model.to_document()) + "\n", name
        restored = TabularARModel.from_document(json.loads(text))
        assert restored.logits.tobytes() == model.logits.tobytes(), name


def test_deserialize_corrupt_field(ab_space):
    doc = TabularARModel.uniform_logits(ab_space, order=1).to_document()
    doc["logitz"] = doc.pop("logits")
    with pytest.raises(SchemaMismatch):
        TabularARModel.from_document(doc)


def test_deserialize_version_mismatch(ab_space):
    doc = TabularARModel.uniform_logits(ab_space, order=1).to_document()
    doc["version"] = MODEL_VERSION + 1
    with pytest.raises(SchemaMismatch, match="version"):
        TabularARModel.from_document(doc)


def test_mle_fit_range_rules_name_their_field(ab_space):
    corpus = [Sequence((0,))]
    for field, bad in (("order", dict(order=0)), ("smoothing", dict(order=1, smoothing=-1.0)),
                       ("smoothing", dict(order=1, smoothing=float("nan")))):
        with pytest.raises(ConfigError) as err:
            mle_fit(ab_space, corpus, **bad)
        assert err.value.field == field


def test_trainable_rejects_neg_inf(ab_space):
    model = mle_fit(ab_space, [Sequence((0,))], order=1, smoothing=0.0)
    with pytest.raises(ConfigError):
        TabularARModel(space=ab_space, order=1, logits=model.logits, trainable=True)


def test_from_distribution_reproduces_any_distribution(rng):
    space = small_space(3, 3)
    raw = rng.random(space.universe_size)
    dist = raw / raw.sum()
    model = from_distribution(space, dist)
    assert np.allclose(model.exact_distribution(), dist, atol=1e-12)


def test_uniform_over_universe(ab_space):
    model = uniform_over_universe(ab_space)
    assert np.allclose(model.exact_distribution(), np.full(7, 1.0 / 7.0))


def test_to_order_preserves_distribution(rng):
    space = small_space(3, 4)
    model = random_model(space, 2, rng)
    lifted = model.to_order(4)
    assert np.allclose(lifted.exact_distribution(), model.exact_distribution(), atol=1e-14)
    with pytest.raises(ConfigError):
        lifted.to_order(2)


def test_batch_and_scalar_log_prob_agree(rng):
    space = small_space(3, 4)
    model = random_model(space, 3, rng)
    batch = space.enumeration()
    vectorized = model.log_prob_batch(batch)
    scalar = np.array([naive_log_prob(model, s) for s in batch.sequences()])
    assert np.allclose(vectorized, scalar, rtol=0, atol=1e-12)


# -- batch-proportional paths, checked bitwise against the table-wide ones ----


ORDERS = pytest.mark.parametrize(
    "order_of",
    [lambda lmax: 1, lambda lmax: 2, lambda lmax: lmax, lambda lmax: lmax + 1],
    ids=["1", "2", "lmax", "lmax+1"],
)


@ORDERS
def test_prefix_dp_matches_enumeration_bitwise(order_of, rng):
    for body, lmax in [(1, 1), (2, 3), (3, 4), (4, 3)]:
        space = small_space(body, lmax)
        model = random_model(space, order_of(lmax), rng, scale=1.5)
        expected = np.exp(model.log_prob_batch(space.enumeration()))
        assert np.array_equal(model.exact_distribution(), expected)


def test_prefix_dp_matches_enumeration_with_neg_inf_rows(rng):
    space = small_space(3, 3)
    dist = rng.random(space.universe_size)
    dist[rng.random(space.universe_size) < 0.4] = 0.0
    model = from_distribution(space, dist / dist.sum())
    assert np.isneginf(model.logits).any()
    expected = np.exp(model.log_prob_batch(space.enumeration()))
    assert np.array_equal(model.exact_distribution(), expected)


def test_row_sparse_gradient_matches_dense_reference_bitwise(rng):
    for _ in range(20):
        space = small_space(int(rng.integers(2, 5)), int(rng.integers(1, 5)))
        model = random_model(space, int(rng.integers(1, space.lmax + 2)), rng, trainable=True)
        batch = model.sample_batch(int(rng.integers(1, 200)), rng)
        weights = rng.standard_normal(len(batch)) * 3.0
        grad = model.grad_weighted_sum(batch, weights)
        assert np.array_equal(grad.rows, np.unique(grad.rows))
        dense = grad.dense(len(model.logits))
        assert np.array_equal(dense, dense_grad_weighted_sum(model, batch, weights))


def test_sparse_updates_refresh_log_softmax_bitwise(rng):
    space = small_space(4, 4)
    model = random_model(space, space.lmax, rng, trainable=True)
    model.log_prob_batch(space.enumeration())  # fill the cache before updating
    for _ in range(20):
        batch = model.sample_batch(int(rng.integers(1, 64)), rng)
        model.apply_update(model.grad_weighted_sum(batch, rng.standard_normal(len(batch))), 0.7)
    refreshed = model._log_softmax().copy()
    model.invalidate()
    assert np.array_equal(refreshed, model._log_softmax())


def test_frozen_copy_is_a_snapshot(rng):
    space = small_space(3, 3)
    policy = random_model(space, space.lmax, rng, trainable=True)
    frozen = policy.frozen_copy()
    logits, dist = frozen.logits.copy(), frozen.exact_distribution()
    for _ in range(5):
        batch = policy.sample_batch(32, rng)
        policy.apply_update(policy.grad_weighted_sum(batch, np.ones(len(batch))), 1.0)
    assert not np.array_equal(policy.logits, logits)
    assert np.array_equal(frozen.logits, logits)
    assert np.array_equal(frozen.exact_distribution(), dist)
    with pytest.raises(NotTrainable):
        frozen.grad_weighted_sum(batch, np.ones(len(batch)))
    with pytest.raises(NotTrainable):
        frozen.apply_update(RowGradient.full(np.zeros_like(logits)), 0.1)


def test_non_finite_update_raises_and_leaves_model_unchanged(rng):
    space = small_space(2, 3)
    model = random_model(space, space.lmax, rng, trainable=True)
    before, logprob = model.logits.copy(), model._log_softmax().copy()
    grad = RowGradient(np.array([1]), np.array([[1.0, -np.inf, 0.0]]))
    with pytest.raises(NonFiniteLogits):
        model.apply_update(grad, 0.5)
    with pytest.raises(NonFiniteLogits):
        model.apply_update(RowGradient(np.array([0]), np.array([[1e308, 0.0, 0.0]])), 1e10)
    assert np.array_equal(model.logits, before)
    assert np.array_equal(model._log_softmax(), logprob)


# -- emission events, checked bitwise against the step-by-step encoding ---------


def long_sampler(space, order, rng):
    """A random model whose EOS is unlikely, so most rows run to many steps."""
    model = random_model(space, order, rng)
    model.logits[:, space.vocabulary.eos_index] -= 2.0
    model.invalidate()
    return model


def assert_scores_match_step_by_step(model, batch, rng):
    assert np.array_equal(model.log_prob_batch(batch), step_log_prob_batch(model, batch))
    weights = rng.standard_normal(len(batch)) * 3.0
    grad = model.grad_weighted_sum(batch, weights)
    reference = step_grad_weighted_sum(model, batch, weights)
    assert np.array_equal(grad.rows, reference.rows)
    assert np.array_equal(grad.values, reference.values)


@ORDERS
def test_event_layout_matches_step_by_step_bitwise(order_of, rng):
    # lmax 9: a numpy row sum over 9 steps would switch to pairwise order,
    # so only the step-order sum matches bit for bit
    for body, lmax in [(1, 1), (2, 3), (3, 4), (2, 9)]:
        space = small_space(body, lmax)
        model = random_model(space, order_of(lmax), rng, scale=1.5, trainable=True)
        sampler = long_sampler(space, 1 if model.coding.m_eff > 0 else lmax, rng)
        batch = sampler.sample_batch(300, rng)
        assert_scores_match_step_by_step(model, batch, rng)
        assert np.array_equal(sampler.log_prob_batch(batch), step_log_prob_batch(sampler, batch))
        assert set(batch._events.codes) == {model.coding.m_eff, sampler.coding.m_eff}
        rebuilt = SampleBatch.from_sequences(space, batch.sequences())
        assert_scores_match_step_by_step(model, rebuilt, rng)
        assert set(rebuilt._events.codes) == {model.coding.m_eff}


@ORDERS
def test_sample_batch_keeps_the_encoders_codes(order_of, rng):
    for body, lmax in [(2, 3), (3, 4), (2, 9)]:
        space = small_space(body, lmax)
        model = long_sampler(space, order_of(lmax), rng)
        batch = model.sample_batch(300, rng)
        rebuilt = SampleBatch(tokens=batch.tokens.copy(), lengths=batch.lengths.copy())
        model.log_prob_batch(rebuilt)
        m = model.coding.m_eff
        assert np.array_equal(batch._events.codes[m], rebuilt._events.codes[m])
        assert np.array_equal(batch._events.toks, rebuilt._events.toks)
        assert np.array_equal(batch._events.active, rebuilt._events.active)


@ORDERS
def test_sample_batch_matches_gumbel_reference_bitwise(order_of, rng):
    for body, lmax in [(1, 2), (2, 3), (3, 4), (2, 9)]:
        space = small_space(body, lmax)
        model = long_sampler(space, order_of(lmax), rng)
        logits = model.logits.copy()
        logits[:, :-1][rng.random((len(logits), body)) < 0.3] = -np.inf  # EOS stays finite
        for candidate in (model, TabularARModel(space, model.order, logits)):
            ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
            batch = candidate.sample_batch(400, ours)
            reference = gumbel_sample_batch(candidate, 400, theirs)
            assert np.array_equal(batch.tokens, reference.tokens)
            assert np.array_equal(batch.lengths, reference.lengths)
            assert ours.random() == theirs.random()


def test_batches_are_read_only(ab_space, rng):
    model = random_model(ab_space, 2, rng)
    batches = [
        model.sample_batch(8, rng),
        SampleBatch.from_sequences(ab_space, [Sequence((0, 1)), Sequence(())]),
        small_space(2, 2).enumeration(),
    ]
    for batch in batches:
        with pytest.raises(ValueError):
            batch.tokens[0, 0] = 1
        with pytest.raises(ValueError):
            batch.lengths[0] = 0
