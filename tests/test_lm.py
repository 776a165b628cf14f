import json

import numpy as np
import pytest
import scipy.stats

from distctl.errors import (
    ConfigError,
    EmptyCorpus,
    NonFiniteLogits,
    NotTrainable,
    SaturatedPolicy,
    SchemaMismatch,
)
from distctl import lm
from distctl.features import ConstraintSet, ConstraintSpec, TokenPresence
from distctl.lm import MODEL_VERSION, RowGradient, TabularARModel, _row_log_softmax, mle_fit
from distctl.seqspace import SampleBatch, SequenceSpace, Vocabulary

from helpers import (
    Sequence,
    batch_from,
    batch_of,
    dense_grad_weighted_sum,
    dense_gradient,
    dense_log_softmax,
    dense_logits,
    dense_table_bytes,
    enumerate_sequences,
    enumeration,
    from_distribution,
    full_gradient,
    grad_log_prob,
    gumbel_sample_batch,
    invalidate,
    naive_log_prob,
    random_model,
    sequence_rank,
    sequences,
    small_space,
    step_grad_weighted_sum,
    step_log_prob_batch,
    traced_peak,
    uniform_model,
    uniform_over_universe,
)


def test_mle_next_token_ratio_before_eos(ab_space):
    corpus = [Sequence((0,)), Sequence((0,)), Sequence((1,))]
    model = mle_fit(ab_space, batch_from(ab_space, corpus), order=1, smoothing=0.0)
    probs = np.exp(model.logits[0] - np.log(np.sum(np.exp(model.logits[0]))))
    # transitions at the first position: a, a, b plus three EOS events
    assert probs[0] / (probs[0] + probs[1]) == pytest.approx(2.0 / 3.0)


def test_mle_smoothing_gives_full_support(ab_space):
    corpus = [Sequence((0,))]
    model = mle_fit(ab_space, batch_from(ab_space, corpus), order=2, smoothing=1.0)
    assert (model.exact_distribution() > 0).all()


def test_mle_concentrates_on_single_sequence(ab_space):
    target = Sequence((0, 1))
    model = mle_fit(ab_space, batch_from(ab_space, [target]), order=1, smoothing=0.0)
    dist = model.exact_distribution()
    assert dist[sequence_rank(ab_space, target)] == dist.max()
    # with a repeated token the maximum is unique
    repeated = Sequence((0, 0))
    model2 = mle_fit(ab_space, batch_from(ab_space, [repeated]), order=1, smoothing=0.0)
    dist2 = model2.exact_distribution()
    assert np.argmax(dist2) == sequence_rank(ab_space, repeated)
    assert dist2[sequence_rank(ab_space, repeated)] == pytest.approx(1.0)


def test_mle_empty_corpus(ab_space):
    with pytest.raises(EmptyCorpus):
        mle_fit(ab_space, batch_from(ab_space, []), order=1)


def test_log_prob_uniform_binary():
    space = small_space(1, 1)
    model = uniform_model(space, order=1)
    batch = batch_from(space, [Sequence(()), Sequence((0,))])
    assert model.log_prob_batch(batch) == pytest.approx([np.log(0.5), np.log(0.5)])


def test_forced_eos_at_lmax(ab_space):
    model = uniform_model(ab_space, order=1)
    # P([a,a]) = (1/3) * (1/3) * 1: the step at lmax carries no EOS factor
    batch = batch_from(ab_space, [Sequence((0, 0))])
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
        batch = batch_from(space, seqs)
        expected = [naive_log_prob(model, seq) for seq in seqs]
        assert model.log_prob_batch(batch) == pytest.approx(expected, rel=1e-10)


def test_mle_model_matches_chain_rule_oracle(ab_space):
    corpus = [Sequence((0,)), Sequence((0, 1)), Sequence((1,)), Sequence((0,))]
    model = mle_fit(ab_space, batch_from(ab_space, corpus), order=2, smoothing=0.5)
    batch = enumeration(ab_space)
    expected = [naive_log_prob(model, seq) for seq in sequences(batch)]
    assert model.log_prob_batch(batch) == pytest.approx(expected, rel=1e-10)


def test_sampling_frequency():
    space = small_space(1, 1)
    model = uniform_model(space, order=1)
    seqs = sequences(model.sample_batch(10000, np.random.default_rng(11)))
    freq = sum(1 for s in seqs if s.tokens == (0,)) / 10000
    assert abs(freq - 0.5) < 0.02  # 3 sigma of Bin(10000, 1/2) is 0.015


def test_sampling_deterministic(ab_space, rng):
    model = random_model(ab_space, 2, rng)
    first = sequences(model.sample_batch(500, np.random.default_rng(3)))
    assert first == sequences(model.sample_batch(500, np.random.default_rng(3)))


def test_sampling_degenerate_point_mass(ab_space):
    dist = np.zeros(ab_space.universe_size)
    dist[0] = 1.0  # all mass on the empty sequence
    model = from_distribution(ab_space, dist)
    batch = model.sample_batch(200, np.random.default_rng(0))
    assert all(s.tokens == () for s in sequences(batch))


@pytest.mark.parametrize("body,lmax,order,scale", [(3, 3, 2, 0.8), (2, 4, 1, 1.2), (4, 3, 3, 0.5)])
def test_sampling_chi_square_goodness_of_fit(body, lmax, order, scale, rng):
    space = small_space(body, lmax)
    model = random_model(space, order, rng, scale=scale)
    exact = model.exact_distribution()
    batch = model.sample_batch(100000, np.random.default_rng(123))
    ranks = [sequence_rank(space, s) for s in sequences(batch)]
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
    model = uniform_model(ab_space, order=1, trainable=True)
    model.logits[0, 0] = 60.0  # next token 'a' is near-deterministic
    invalidate(model)
    grad = grad_log_prob(model, Sequence((0, 0)))
    assert np.abs(grad[0]).max() < 1e-20


def test_grad_uniform_binary_half():
    space = small_space(1, 2)
    model = uniform_model(space, order=1, trainable=True)
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
        one = batch_from(space, [x])
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
    model = uniform_model(ab_space, order=1)
    with pytest.raises(NotTrainable):
        grad_log_prob(model, Sequence((0,)))
    with pytest.raises(NotTrainable):
        model.apply_update(full_gradient(np.zeros_like(model.logits)), 0.1)


def test_apply_update_identity_and_reversibility(ab_space, rng):
    model = random_model(ab_space, 2, rng, trainable=True)
    before = model.logits.copy()
    model.apply_update(full_gradient(np.zeros_like(before)), 0.5)
    assert np.array_equal(dense_logits(model), before)
    grad = rng.standard_normal(before.shape)
    model.apply_update(full_gradient(grad), 0.25)
    model.apply_update(full_gradient(-grad), 0.25)
    # add-then-subtract of the identical increment restores up to one rounding ulp
    assert np.allclose(dense_logits(model), before, rtol=0.0, atol=1e-14)


def test_apply_update_monotone_in_target_token(ab_space):
    model = uniform_model(ab_space, order=1, trainable=True)
    before = np.exp(dense_log_softmax(model)[0, 0])
    grad = np.zeros_like(model.logits)
    grad[0, 0] = 5.0
    model.apply_update(full_gradient(grad), 1.0)
    after = np.exp(dense_log_softmax(model)[0, 0])
    assert after > before


def round_trip(model):
    """The model `from_document` reads back from `model`'s written text."""
    return TabularARModel.from_document(json.loads(json.dumps(model.to_document())))


def test_serialize_round_trip(ab_space, rng):
    model = random_model(ab_space, 2, rng)
    restored = round_trip(model)
    assert np.array_equal(dense_logits(restored), model.logits)
    enum = enumeration(ab_space)
    assert np.array_equal(restored.log_prob_batch(enum), model.log_prob_batch(enum))


def test_serialize_round_trip_with_neg_inf(ab_space):
    model = mle_fit(ab_space, batch_from(ab_space, [Sequence((0,))]), order=1, smoothing=0.0)
    assert np.isneginf(model.logits).any()
    assert np.array_equal(dense_logits(round_trip(model)), model.logits)


def test_write_document_peak_is_pinned_against_the_dense_table(tmp_path, rng):
    """Writing a lifted policy groups the stored rows its contexts read and
    turns the rows and the row map into text `lm._WRITE_CHUNK_CELLS` numbers
    at a time, so it holds no Python list or text of either. Against the
    dense table (one row of V floats per context), the traced peak of a
    second write (the first pays numpy's lazy imports) stays below 0.15 of
    it while the store holds the base's rows only (measured: 0.068; 0.75
    when the write built the whole document). Once every context has a row
    of its own, the rows the contexts read are a table's worth, and grouping
    them by their bytes sorts a copy: the peak stays below 3.5 tables
    (measured: 3.43 on four seeds)."""
    space = small_space(9, 6)
    model = random_model(space, 2, rng).to_order(space.lmax, trainable=True)
    assert model.coding.n_contexts == 66430 and len(model.logits) == 10
    for bound in (0.15, 3.5):
        model.write_document(tmp_path / "first.json")
        _, peak = traced_peak(model.write_document, tmp_path / "model.json")
        assert peak < bound * dense_table_bytes(model)
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "first.json").read_bytes()
        # every context gets a stored row of its own, equal to its base row
        model.apply_update(full_gradient(np.zeros_like(dense_logits(model))), 1.0)


def test_round_trip_restores_every_stored_bit(tmp_path, monkeypatch, rng):
    space = small_space(3, 4)
    distinct = random_model(space, 3, rng, trainable=True)
    expanded = random_model(space, 2, rng).to_order(space.lmax, trainable=True)
    for _ in range(3):
        batch = expanded.sample_batch(8, rng)
        expanded.apply_update(expanded.grad_weighted_sum(batch, rng.standard_normal(8)), 0.5)
    corpus = batch_from(space, [Sequence((0, 1)), Sequence((2,)), Sequence(())])
    neg_inf = mle_fit(space, corpus, order=2)
    signed_zero = uniform_model(small_space(2, 2), order=2)
    signed_zero.logits[1, 0] = -0.0
    one_row = uniform_model(small_space(2, 1), order=1)
    # the row shapes each case stands for
    assert len(np.unique(distinct.logits, axis=0)) == len(distinct.logits)
    assert len(np.unique(dense_logits(expanded), axis=0)) < expanded.coding.n_contexts // 2
    assert np.isneginf(neg_inf.logits).any()
    rows = signed_zero.logits
    assert np.array_equal(rows[0], rows[1]) and rows[0].tobytes() != rows[1].tobytes()
    assert one_row.logits.shape[0] == 1
    private = random_model(space, 2, rng).to_order(space.lmax, trainable=True)
    private.apply_update(full_gradient(np.zeros_like(dense_logits(private))), 1.0)
    assert len(np.unique(private.logits, axis=0)) < len(private.logits) // 2
    cases = {"distinct": distinct, "expanded": expanded, "private": private, "neg-inf": neg_inf,
             "signed-zero": signed_zero, "one-row": one_row}
    default_cells = lm._WRITE_CHUNK_CELLS
    for name, model in cases.items():
        expected = (json.dumps(model.to_document()) + "\n").encode()
        # one chunk, then chunks below a row's width: every row and most of
        # the map, -Infinity and -0.0 included, sit at a chunk edge
        for cells in (default_cells, 2):
            monkeypatch.setattr(lm, "_WRITE_CHUNK_CELLS", cells)
            path = tmp_path / f"{name}-{cells}.json"
            model.write_document(path)
            assert path.read_bytes() == expected, (name, cells)
        text = path.read_text()
        doc = json.loads(text)
        assert len(doc["rows"]) == len({row.tobytes() for row in dense_logits(model)}), name
        restored = TabularARModel.from_document(doc)
        assert dense_logits(restored).tobytes() == dense_logits(model).tobytes(), name
        assert restored.trainable == model.trainable, name
        restored.write_document(tmp_path / f"{name}-again.json")
        assert (tmp_path / f"{name}-again.json").read_text() == text, name


def test_refuses_a_version_1_document(rng):
    """A version-1 document, as an order-2 base written before version 2
    (every context's row in `logits`, in context order), is refused by its
    version, not by its keys."""
    model = random_model(small_space(9, 7), 2, rng)
    doc = {**model.to_document(), "version": 1, "logits": model.logits.tolist()}
    del doc["rows"], doc["row_map"]
    with pytest.raises(SchemaMismatch, match=r"^unsupported model version 1 \(expected 2\)$"):
        TabularARModel.from_document(json.loads(json.dumps(doc)))


def test_deserialize_corrupt_field(ab_space):
    doc = uniform_model(ab_space, order=1).to_document()
    doc["rowz"] = doc.pop("rows")
    with pytest.raises(SchemaMismatch, match="rows"):
        TabularARModel.from_document(doc)


def test_deserialize_version_mismatch(ab_space):
    doc = uniform_model(ab_space, order=1).to_document()
    doc["version"] = MODEL_VERSION + 1
    with pytest.raises(SchemaMismatch, match=f"version {MODEL_VERSION + 1}"):
        TabularARModel.from_document(doc)


def test_mle_fit_range_rules_name_their_field(ab_space):
    corpus = [Sequence((0,))]
    for field, bad in (("order", dict(order=0)), ("smoothing", dict(order=1, smoothing=-1.0)),
                       ("smoothing", dict(order=1, smoothing=float("nan")))):
        with pytest.raises(ConfigError) as err:
            mle_fit(ab_space, batch_from(ab_space, corpus), **bad)
        assert err.value.field == field


def test_mle_fit_refuses_a_batch_not_of_its_space(ab_space):
    eos = ab_space.vocabulary.eos_index
    wide = SampleBatch(tokens=np.zeros((1, ab_space.lmax + 1), dtype=np.int32), lengths=np.array([1]))
    bad_tokens = ([eos], [ab_space.vocabulary.size], [-1])
    for batch in [wide] + [batch_of([Sequence(tuple(t))], ab_space.lmax) for t in bad_tokens]:
        with pytest.raises(ConfigError) as err:
            mle_fit(ab_space, batch, order=1)
        assert err.value.field == "corpus"


def test_trainable_rejects_neg_inf(ab_space):
    model = mle_fit(ab_space, batch_from(ab_space, [Sequence((0,))]), order=1, smoothing=0.0)
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
    # a mapped model's lift composes the two maps, leaving the source's as it was
    mid = model.to_order(3)
    mid_map = mid.row_map.copy()
    assert dense_logits(mid.to_order(4)).tobytes() == dense_logits(lifted).tobytes()
    assert np.array_equal(mid.row_map, mid_map)


def test_batch_and_scalar_log_prob_agree(rng):
    space = small_space(3, 4)
    model = random_model(space, 3, rng)
    batch = enumeration(space)
    vectorized = model.log_prob_batch(batch)
    scalar = np.array([naive_log_prob(model, s) for s in sequences(batch)])
    assert np.allclose(vectorized, scalar, rtol=0, atol=1e-12)


# -- batch-proportional paths, checked bitwise against the table-wide ones ----


ORDERS = pytest.mark.parametrize(
    "order_of",
    [lambda lmax: 1, lambda lmax: 2, lambda lmax: lmax, lambda lmax: lmax + 1],
    ids=["1", "2", "lmax", "lmax+1"],
)


@ORDERS
def test_prefix_dp_matches_enumeration_bitwise(order_of, rng):
    """The in-place prefix DP sums each sequence's log-probs in chain-rule
    order, EOS last, as `log_prob_batch` does, wherever EOS sits in the
    vocabulary: first, in the middle or last."""
    for body, lmax in [(1, 1), (2, 3), (3, 4), (4, 3)]:
        letters = list("abcd"[:body])
        for eos in sorted({0, body // 2, body}):
            tokens = tuple(letters[:eos]) + ("<eos>",) + tuple(letters[eos:])
            space = SequenceSpace(vocabulary=Vocabulary(tokens, eos_index=eos), lmax=lmax)
            model = random_model(space, order_of(lmax), rng, scale=1.5)
            expected = model.log_prob_batch(enumeration(space))
            assert np.array_equal(model.exact_log_distribution(), expected)
            assert np.array_equal(model.exact_distribution(), np.exp(expected))


def test_prefix_dp_matches_enumeration_with_neg_inf_rows(rng):
    space = small_space(3, 3)
    dist = rng.random(space.universe_size)
    dist[rng.random(space.universe_size) < 0.4] = 0.0
    model = from_distribution(space, dist / dist.sum())
    assert np.isneginf(model.logits).any()
    expected = np.exp(model.log_prob_batch(enumeration(space)))
    assert np.array_equal(model.exact_distribution(), expected)


def test_row_sparse_gradient_matches_dense_reference_bitwise(rng):
    for _ in range(20):
        space = small_space(int(rng.integers(2, 5)), int(rng.integers(1, 5)))
        model = random_model(space, int(rng.integers(1, space.lmax + 2)), rng, trainable=True)
        batch = model.sample_batch(int(rng.integers(1, 200)), rng)
        weights = rng.standard_normal(len(batch)) * 3.0
        grad = model.grad_weighted_sum(batch, weights)
        assert np.array_equal(grad.rows, np.unique(grad.rows))
        dense = dense_gradient(grad, len(model.logits))
        assert np.array_equal(dense, dense_grad_weighted_sum(model, batch, weights))


def test_grad_weighted_sum_holds_two_event_tables(rng):
    """The gradient writes each step's one-hots and softmax rows in place into
    one cell array and one value array (events x (V + 1) each), and beside
    them holds a step's gathered rows and a few event-long vectors: about 2.3
    such tables on a wide vocabulary, where separate softmax buffers and their
    concatenation held about 4."""
    wide = Vocabulary.from_body_tokens([f"w{i}" for i in range(49)])
    space = SequenceSpace(vocabulary=wide, lmax=6)
    model = random_model(space, 2, rng, trainable=True)
    model.logits[:, space.vocabulary.eos_index] -= 3.0  # most rows run long
    invalidate(model)
    batch = model.sample_batch(2000, rng)
    events = int(lm._events(space, batch).active.sum())
    _, peak = traced_peak(model.grad_weighted_sum, batch, rng.random(len(batch)))
    assert peak <= 2.5 * events * (space.vocabulary.size + 1) * 8


def test_sparse_updates_refresh_log_softmax_bitwise(rng):
    space = small_space(4, 4)
    model = random_model(space, space.lmax, rng, trainable=True)
    model.log_prob_batch(enumeration(space))  # fill the cache before updating
    for _ in range(20):
        batch = model.sample_batch(int(rng.integers(1, 64)), rng)
        model.apply_update(model.grad_weighted_sum(batch, rng.standard_normal(len(batch))), 0.7)
    refreshed = model._logprob.copy()
    invalidate(model)
    assert np.array_equal(refreshed, model._logprob)


@pytest.mark.parametrize("trainable", [False, True])
@pytest.mark.parametrize("warm", [False, True], ids=["cold-base", "warm-base"])
def test_lifted_log_softmax_is_the_recomputed_one_bitwise(trainable, warm, rng):
    space = small_space(3, 4)
    for order in (1, 2, 3):
        base = random_model(space, order, rng, scale=2.0, trainable=warm)
        for _ in range(3 if warm else 0):  # rows appended, their log-softmax refreshed one by one
            batch = base.sample_batch(8, rng)
            base.apply_update(base.grad_weighted_sum(batch, rng.standard_normal(8)), 0.5)
        lifted = base.to_order(space.lmax, trainable=trainable)
        assert lifted._logprob.tobytes() == base._logprob.tobytes()  # recomputed: the same bits
        assert np.array_equal(lifted._logprob, _row_log_softmax(lifted.logits))
        assert not np.shares_memory(lifted._logprob, base._logprob)


@pytest.mark.parametrize("trainable, cells, message", [
    (False, {(0, 0): np.nan}, "logits contain NaN"),
    (False, {(1, 1): np.inf}, r"logits contain \+inf"),
    (False, {(0, 0): np.inf, (1, 0): np.nan, (2, 0): -np.inf}, "logits contain NaN"),
    (True, {(2, 1): -np.inf}, "-inf logit sentinel is only permitted"),
    (False, {3: -np.inf}, "a context row has no admissible next token"),
    (True, {3: -np.inf}, "-inf logit sentinel is only permitted"),
    # finite, but its exp is 0.0 in float64; a frozen model may hold it
    (True, {(0, 1): -1e5}, r"^a trainable model holds 1 next-token probabilities at 0\.0 "),
])
def test_bad_logits_name_their_fault(trainable, cells, message, rng):
    space = small_space(3, 3)
    logits = random_model(space, 2, rng).logits.copy()
    for cell, value in cells.items():
        logits[cell] = value
    with pytest.raises(ConfigError, match=message):
        TabularARModel(space=space, order=2, logits=logits, trainable=trainable)


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
        frozen.apply_update(full_gradient(np.zeros_like(logits)), 0.1)


def test_frozen_copy_holds_one_table(rng):
    space = small_space(3, 3)
    policy = random_model(space, 2, rng).to_order(space.lmax, trainable=True)
    policy.apply_update(RowGradient(np.array([1, 5]), rng.standard_normal((2, 4))), 1.0)
    frozen = policy.frozen_copy()
    assert frozen.logits is frozen._logprob
    assert frozen.logits.tobytes() == policy._logprob.tobytes()
    assert np.array_equal(frozen.exact_distribution(), policy.exact_distribution())
    assert not np.shares_memory(frozen.row_map, policy.row_map)


def test_non_finite_update_raises_and_leaves_model_unchanged(rng):
    space = small_space(2, 3)
    model = random_model(space, space.lmax, rng, trainable=True)
    before, logprob = model.logits.copy(), model._logprob.copy()
    grad = RowGradient(np.array([1]), np.array([[1.0, -np.inf, 0.0]]))
    with pytest.raises(NonFiniteLogits):
        model.apply_update(grad, 0.5)
    with pytest.raises(NonFiniteLogits):
        model.apply_update(RowGradient(np.array([0]), np.array([[1e308, 0.0, 0.0]])), 1e10)
    assert np.array_equal(model.logits, before)
    assert np.array_equal(model._logprob, logprob)


# -- copy on write: a lifted model's row map ------------------------------------


def test_updates_give_each_touched_context_one_row_of_its_own(rng):
    """After k updates a lifted model stores the base's rows, untouched, then
    one row for each context that an applied RowGradient touched; every other
    context still reads its base row."""
    space = small_space(3, 4)
    base = random_model(space, 2, rng)
    model = base.to_order(space.lmax, trainable=True)
    shared = len(base.logits)
    assert len(model.logits) == shared and model.row_map.shape == (model.coding.n_contexts,)
    touched = set()
    for k in range(1, 6):
        batch = model.sample_batch(4, rng)
        grad = model.grad_weighted_sum(batch, rng.standard_normal(len(batch)))
        model.apply_update(grad, 0.5)
        touched |= set(grad.rows.tolist())
        assert len(model.logits) == shared + len(touched), k
    assert len(touched) < model.coding.n_contexts // 2
    assert model.logits[:shared].tobytes() == base.logits.tobytes()
    own = model.row_map >= shared
    assert set(np.flatnonzero(own).tolist()) == touched
    assert sorted(model.row_map[own].tolist()) == list(range(shared, len(model.logits)))
    assert np.array_equal(model.row_map[~own], base.to_order(space.lmax).row_map[~own])
    refreshed = model._logprob.copy()
    invalidate(model)
    assert np.array_equal(refreshed, model._logprob)


def test_a_constructed_model_copies_on_write(rng):
    """A trainable model built from a full table, as `mle_fit` builds one, has
    the identity map; its first update appends one row per written context,
    in context order, and leaves the constructed rows' bytes alone."""
    space = small_space(3, 4)
    n = random_model(space, 3, rng).coding.n_contexts
    table = rng.standard_normal((n, space.vocabulary.size))
    model = TabularARModel(space=space, order=3, logits=table.copy(), trainable=True)
    assert np.array_equal(model.row_map, np.arange(n))
    written = np.array([1, 4, 7])
    model.apply_update(RowGradient(written, rng.standard_normal((3, space.vocabulary.size))), 0.5)
    assert len(model.logits) == n + len(written)
    assert model.logits[:n].tobytes() == table.tobytes()
    assert np.array_equal(model.row_map[written], np.arange(n, n + len(written)))
    untouched = np.setdiff1d(np.arange(n), written)
    assert np.array_equal(model.row_map[untouched], untouched)
    assert np.array_equal(model._logprob, _row_log_softmax(model.logits))


def _update_to(cell: float) -> tuple[TabularARModel, RowGradient]:
    """A lifted uniform policy whose context 2 has a row of its own, and an
    update that sets the rows of contexts 1 (still a base row) and 2 to
    [0, cell, cell], which is also their log-softmax."""
    space = small_space(2, 3)
    model = uniform_model(space, order=2).to_order(space.lmax, trainable=True)
    model.apply_update(RowGradient(np.array([2]), np.zeros((1, 3))), 1.0)
    return model, RowGradient(np.array([1, 2]), np.array([[0.0, cell, cell]] * 2))


def test_an_update_writes_a_cell_just_above_the_underflow():
    model, grad = _update_to(-745.0)  # exp: float64's smallest subnormal
    model.apply_update(grad, 1.0)
    assert model._logprob[model.row_map[[1, 2]]].tolist() == [[0.0, -745.0, -745.0]] * 2


def test_an_update_that_writes_a_zero_probability_is_refused():
    """exp(-746.0) is 0.0 in float64: the update raises SaturatedPolicy,
    naming the count and the smallest log-prob, and leaves the model as it
    was, its store length included."""
    model, grad = _update_to(-746.0)
    before = [model.logits.copy(), model._logprob.copy(), model.row_map.copy()]
    with pytest.raises(SaturatedPolicy) as err:
        model.apply_update(grad, 1.0)
    assert str(err.value) == (
        "update with learning rate 1 leaves 4 next-token probabilities at 0.0 (smallest log-prob -746)"
    )
    after = [model.logits, model._logprob, model.row_map]
    assert [a.tobytes() for a in after] == [b.tobytes() for b in before]
    assert len(model.logits) == len(before[0])


def test_a_refused_update_leaves_a_lifted_model_as_it_was(rng):
    space = small_space(2, 3)
    model = random_model(space, 2, rng).to_order(space.lmax, trainable=True)
    model.apply_update(RowGradient(np.array([2]), rng.standard_normal((1, 3))), 0.5)
    before = [model.logits.copy(), model._logprob.copy(), model.row_map.copy()]
    # context 1 still shares a base row, context 2 has its own
    grad = RowGradient(np.array([1, 2]), np.array([[0.0, 0.0, 0.0], [1.0, -np.inf, 0.0]]))
    with pytest.raises(NonFiniteLogits):
        model.apply_update(grad, 0.5)
    after = [model.logits, model._logprob, model.row_map]
    assert [a.tobytes() for a in after] == [b.tobytes() for b in before]


def test_write_document_encodes_each_distinct_stored_row_once(rng):
    """Once every context has a row of its own, as Adam leaves a store, the
    store repeats the base's rows; the document still holds each distinct
    row once."""
    space = small_space(3, 4)
    base = random_model(space, 2, rng)
    model = base.to_order(space.lmax, trainable=True)
    model.apply_update(full_gradient(np.zeros_like(dense_logits(model))), 1.0)
    assert len(model.logits) == len(base.logits) + model.coding.n_contexts
    doc = model.to_document()
    assert len(doc["rows"]) == len(base.logits)
    assert np.array_equal(np.array(doc["rows"])[doc["row_map"]], dense_logits(model))


# -- emission events, checked bitwise against the step-by-step encoding ---------


def long_sampler(space, order, rng):
    """A random model whose EOS is unlikely, so most rows run to many steps."""
    model = random_model(space, order, rng)
    model.logits[:, space.vocabulary.eos_index] -= 2.0
    invalidate(model)
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
        rebuilt = batch_from(space, sequences(batch))
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
        sampled, scored = lm._events(space, batch), lm._events(space, rebuilt)
        assert np.array_equal(sampled.codes[m], scored.codes[m])
        assert np.array_equal(sampled.toks, scored.toks)
        assert np.array_equal(sampled.active, scored.active)


def test_a_featurized_batch_builds_no_step_tokens_or_mask(rng):
    space = small_space(3, 5)
    model = long_sampler(space, 2, rng)
    batch = model.sample_batch(200, rng)
    ConstraintSet([ConstraintSpec(TokenPresence(space.vocabulary, "a"), 0.5)]).feature_matrix(batch)
    record = lm._events(space, batch)
    assert set(record.codes) == {model.coding.m_eff}  # kept from sampling
    assert not {"toks", "active"} & set(vars(record))
    model.log_prob_batch(batch)
    assert {"toks", "active"} <= set(vars(record))


def sample_like_the_gumbel_reference(order_of, rng):
    """Sample every case with both samplers from one seed; assert the batches
    are equal and the streams end at the same place."""
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


@ORDERS
def test_sample_batch_matches_gumbel_reference_bitwise(order_of, rng):
    sample_like_the_gumbel_reference(order_of, rng)


def assert_codes_are_the_encoders(model, batch):
    rebuilt = SampleBatch(tokens=batch.tokens.copy(), lengths=batch.lengths.copy())
    model.log_prob_batch(rebuilt)
    m = model.coding.m_eff
    sampled, scored = lm._events(model.space, batch), lm._events(model.space, rebuilt)
    assert np.array_equal(sampled.codes[m], scored.codes[m])


def stream_cases(order_of, rng):
    """Every (model, n, bit generator) of the block checks: a model and a copy
    with -inf body cells, n = 400 (57 * 7 + 1, a ragged last block), 14 (whole
    blocks), 7 and 3 (within one block), on PCG64, MT19937 and Philox."""
    for body, lmax in [(1, 2), (2, 3), (3, 4), (2, 9)]:
        space = small_space(body, lmax)
        model = long_sampler(space, order_of(lmax), rng)
        logits = model.logits.copy()
        logits[:, :-1][rng.random((len(logits), body)) < 0.3] = -np.inf  # EOS stays finite
        for candidate in (model, TabularARModel(space, model.order, logits)):
            for n in (400, 14, 7, 3):
                for stream in (np.random.PCG64, np.random.MT19937, np.random.Philox):
                    yield candidate, n, stream


def successive_reference_draws(model, n, generator):
    """The reference's one-shot draws of 7 rows at a time, one after another."""
    return [gumbel_sample_batch(model, min(7, n - lo), generator) for lo in range(0, n, 7)]


@ORDERS
def test_sample_blocks_replay_the_one_shot_stream_bitwise(monkeypatch, order_of, rng):
    """Each block of 7 rows is the reference's one-shot draw of its rows, taken
    from the generator, of any kind, where the block before left it: with a
    ragged last block, whole blocks, n within one block, and blocks whose rows
    have all ended while other rows still grow. Each block keeps the encoder's
    codes, and the generator ends where the reference's does."""
    monkeypatch.setattr(lm, "_SAMPLE_CHUNK_ROWS", 7)
    all_ended = False
    for candidate, n, stream in stream_cases(order_of, rng):
        ours, theirs = np.random.Generator(stream(11)), np.random.Generator(stream(11))
        blocks = list(candidate.sample_blocks(n, ours))
        assert [len(b) for b in blocks] == [min(7, n - lo) for lo in range(0, n, 7)]
        for block, reference in zip(blocks, successive_reference_draws(candidate, n, theirs)):
            assert np.array_equal(block.tokens, reference.tokens)
            assert np.array_equal(block.lengths, reference.lengths)
            assert_codes_are_the_encoders(candidate, block)
            # its rows all end before the last step, whose scores it skips
            all_ended |= bool(block.lengths.max() < candidate.space.lmax - 1)
        np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)
    assert all_ended


@ORDERS
def test_sample_batch_matches_gumbel_reference_bitwise_across_chunks(monkeypatch, order_of, rng):
    """With blocks of 7 rows, `sample_batch` is the reference's successive block
    draws joined, with the encoder's codes, and the generator ends where the
    reference's does."""
    monkeypatch.setattr(lm, "_SAMPLE_CHUNK_ROWS", 7)
    for candidate, n, stream in stream_cases(order_of, rng):
        whole, theirs = np.random.Generator(stream(11)), np.random.Generator(stream(11))
        batch = candidate.sample_batch(n, whole)
        references = successive_reference_draws(candidate, n, theirs)
        assert np.array_equal(batch.tokens, np.concatenate([r.tokens for r in references]))
        assert np.array_equal(batch.lengths, np.concatenate([r.lengths for r in references]))
        assert_codes_are_the_encoders(candidate, batch)
        np.testing.assert_equal(whole.bit_generator.state, theirs.bit_generator.state)


def test_sample_batch_scratch_is_chunk_sized(rng):
    """On a wide vocabulary, sampling holds its outputs (tokens, lengths and
    codes) and one block's scratch: a few chunk x V buffers and the block's
    own rows, never an n x V buffer or batch-sized step state."""
    wide = Vocabulary.from_body_tokens([f"w{i}" for i in range(199)])
    space, n = SequenceSpace(vocabulary=wide, lmax=3), 24_000
    model = random_model(space, 1, rng)
    model._logprob
    chunk = lm._SAMPLE_CHUNK_ROWS * space.vocabulary.size * 8
    assert n >= 4 * lm._SAMPLE_CHUNK_ROWS and n * space.vocabulary.size * 8 > 4 * chunk
    batch, peak = traced_peak(model.sample_batch, n, rng)
    outputs = batch.tokens.nbytes + batch.lengths.nbytes + lm._events(space, batch).codes[0].nbytes
    assert peak <= outputs + 3 * chunk


def test_batches_are_read_only(ab_space, rng):
    model = random_model(ab_space, 2, rng)
    batches = [
        model.sample_batch(8, rng),
        batch_from(ab_space, [Sequence((0, 1)), Sequence(())]),
        enumeration(small_space(2, 2)),
    ]
    for batch in batches:
        with pytest.raises(ValueError):
            batch.tokens[0, 0] = 1
        with pytest.raises(ValueError):
            batch.lengths[0] = 0
