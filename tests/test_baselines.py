import numpy as np
import pytest

from distctl.baselines import (
    BETA_STEP,
    BaselineConfig,
    RejectionConfig,
    baseline_iteration,
    rejection_mle,
    train_baseline,
)
from distctl.dpg import DpgConfig, TrainState, init_state, train
from distctl.ebm import Ebm
from distctl.errors import ConfigError, NoAcceptedSamples
from distctl.estimators import exact_kl
from distctl.features import ConstraintSet, ConstraintSpec, PrefixMatch, TokenPresence
from distctl.lm import _SAMPLE_CHUNK_ROWS, mle_fit
from distctl.metrics import EvalOptions

from helpers import (
    PredicateTable,
    batch_from,
    dense_logits,
    enumeration,
    exact_entropy,
    feature_value,
    grad_log_prob,
    invalidate,
    kl_penalized_step,
    random_model,
    reinforce_step,
    sequences,
    small_space,
    uniform_model,
    universe_moments,
)


@pytest.fixture
def task(ab_space, ab_uniform, presence_a_pointwise):
    return ab_uniform, Ebm(base=ab_uniform, constraint_set=presence_a_pointwise, lam=[])


def test_config_validation():
    with pytest.raises(ConfigError):
        BaselineConfig(kind="unknown")
    with pytest.raises(ConfigError):
        BaselineConfig(kind="reinforce-phi", beta=1.0, iterations=1, learning_rate=0.1)
    with pytest.raises(ConfigError):
        BaselineConfig(kind="kl-penalized", iterations=1, learning_rate=0.1)  # beta missing
    with pytest.raises(ConfigError):
        BaselineConfig(kind="rejection-mle")  # budget and order missing
    with pytest.raises(ConfigError):
        BaselineConfig(kind="reinforce-phi", iterations=-3)
    with pytest.raises(ConfigError):
        BaselineConfig(kind="kl-penalized", beta=-5.0)
    with pytest.raises(ConfigError) as err:
        BaselineConfig(kind="reinforce-phi", kl_target=0.2)  # no beta to control
    assert err.value.field == "kl_target"


def test_rejection_config_validation():
    RejectionConfig(sample_budget=1, fit_order=1, fit_smoothing=0.0)
    for field, bad in (
        ("sample_budget", dict(sample_budget=0, fit_order=1)),
        ("fit_order", dict(sample_budget=1, fit_order=0)),
        ("fit_smoothing", dict(sample_budget=1, fit_order=1, fit_smoothing=-1.0)),
        ("seed", dict(sample_budget=1, fit_order=1, seed=-1)),
    ):
        with pytest.raises(ConfigError) as err:
            RejectionConfig(**bad)
        assert err.value.field == field
    with pytest.raises(TypeError):
        RejectionConfig(sample_budget=10)  # fit_order has no default


def test_float_range_rules_reject_nan():
    nan = float("nan")
    with pytest.raises(ConfigError) as err:
        RejectionConfig(sample_budget=1, fit_order=1, fit_smoothing=nan)
    assert str(err.value) == "fit_smoothing must be >= 0"
    with pytest.raises(ConfigError) as err:
        BaselineConfig(kind="kl-penalized", beta=nan)
    assert err.value.field == "beta"
    with pytest.raises(ConfigError) as err:
        BaselineConfig(kind="kl-penalized", beta=0.15, kl_target=nan)
    assert str(err.value) == "kl_target must be >= 0"


def test_reinforce_zero_reward_no_update(ab_uniform):
    never = PredicateTable({}, default=0.0, feature_id="never")
    cs = ConstraintSet([ConstraintSpec(never, 1.0, pointwise=True)])
    target = Ebm(base=ab_uniform, constraint_set=cs, lam=[])
    policy = ab_uniform.to_order(2, trainable=True)
    before = dense_logits(policy).copy()
    config = BaselineConfig(kind="reinforce-phi", samples_per_iteration=64, learning_rate=0.5)
    baseline_iteration(TrainState(policy=policy), target, config, np.random.default_rng(0))
    assert np.array_equal(dense_logits(policy), before)


def test_reinforce_constant_reward_zero_expected_update(rng):
    space = small_space(2, 3)
    policy = random_model(space, space.lmax, rng, scale=0.5, trainable=True)
    enum = enumeration(space)
    pi = policy.exact_distribution()
    expected = np.zeros_like(policy.logits)
    for i, seq in enumerate(sequences(enum)):
        expected += pi[i] * 3.0 * grad_log_prob(policy, seq)
    assert np.abs(expected).max() < 1e-12


def test_reinforce_reaches_reward_but_drifts_far(task):
    base, target = task
    ev = EvalOptions(sample_size=64, eval_every=10000)
    a_dist = base.exact_distribution()
    rcfg = BaselineConfig(
        kind="reinforce-phi", iterations=800, samples_per_iteration=128,
        learning_rate=2.0, seed=0,
    )
    reinforce = train_baseline(base, target, rcfg, ev)
    r_pi = reinforce.policy.exact_distribution()
    assert universe_moments(target, r_pi)[0] > 0.99
    gcfg = DpgConfig(
        iterations=300, samples_per_iteration=128, learning_rate=1.0, seed=0
    )
    gdc = train(base, target, gcfg, ev)
    g_pi = gdc.policy.exact_distribution()
    assert exact_kl(r_pi, a_dist) >= 2.0 * exact_kl(g_pi, a_dist)


def test_reinforce_p_zero_score_no_update(ab_space, ab_uniform):
    never = PredicateTable({}, default=0.0, feature_id="never")
    cs = ConstraintSet([ConstraintSpec(never, 1.0, pointwise=True)])
    target = Ebm(base=ab_uniform, constraint_set=cs, lam=[])
    cfg = BaselineConfig(
        kind="reinforce-P", iterations=3, samples_per_iteration=32,
        learning_rate=1.0, seed=0,
    )
    result = train_baseline(ab_uniform, target, cfg, EvalOptions(sample_size=16, eval_every=100))
    assert np.allclose(
        result.policy.exact_distribution(), ab_uniform.exact_distribution(), atol=1e-12
    )


def test_reinforce_p_entropy_collapses_monotonically():
    space = small_space(2, 3)
    base = random_model(space, 2, np.random.default_rng(42), scale=0.8)
    cs = ConstraintSet(
        [ConstraintSpec(TokenPresence(space.vocabulary, "a"), 1.0, pointwise=True)]
    )
    target = Ebm(base=base, constraint_set=cs, lam=[])
    state = TrainState(policy=base.to_order(space.lmax, trainable=True))
    policy = state.policy
    config = BaselineConfig(kind="reinforce-P", samples_per_iteration=1024, learning_rate=30.0)
    rng_train = np.random.default_rng(1)

    entropies = [exact_entropy(policy.exact_distribution())]
    for i in range(1, 601):
        baseline_iteration(state, target, config, rng_train)
        if i % 150 == 0:
            entropies.append(exact_entropy(policy.exact_distribution()))
    assert all(a >= b - 1e-9 for a, b in zip(entropies, entropies[1:]))
    assert entropies[-1] < 0.05  # mass sits on essentially one sequence


def test_reward_p_loses_diversity_to_gdc():
    """Paired runs on one pointwise task: the reward-P policy's final samples
    repeat more (higher Self-BLEU-5) and cover no more token ranks.

    The base suppresses early EOS so the score argmax is a full-length
    sequence; otherwise the collapsed corpus is too short for 5-grams.
    """
    from distctl.metrics import self_bleu_n, zipf_table

    space = small_space(4, 6)
    base = uniform_model(space, order=2)
    base.logits[:, space.vocabulary.eos_index] = -6.0
    base.logits += 0.3 * np.random.default_rng(3).standard_normal(base.logits.shape)
    invalidate(base)
    cs = ConstraintSet(
        [ConstraintSpec(TokenPresence(space.vocabulary, "a"), 1.0, pointwise=True)]
    )
    target = Ebm(base=base, constraint_set=cs, lam=[])
    ev = EvalOptions(sample_size=64, eval_every=10**6)
    gdc = train(
        base, target,
        DpgConfig(iterations=300, samples_per_iteration=256, learning_rate=2.0, seed=0),
        ev,
    )
    reward_p = train_baseline(
        base, target,
        BaselineConfig(kind="reinforce-P", iterations=400, samples_per_iteration=256,
                       learning_rate=30000.0, seed=0),
        ev,
    )
    assert exact_entropy(reward_p.policy.exact_distribution()) < 0.05
    rng = np.random.default_rng(99)
    gdc_samples = gdc.policy.sample_batch(1000, rng)
    rp_samples = reward_p.policy.sample_batch(1000, rng)
    assert self_bleu_n(rp_samples, 5) > self_bleu_n(gdc_samples, 5)
    gdc_tail = len(zipf_table(gdc_samples, space.vocabulary))
    rp_tail = len(zipf_table(rp_samples, space.vocabulary))
    assert gdc_tail >= rp_tail


def test_kl_penalized_beta_zero_is_reinforce_bitwise(task):
    base, target = task
    state_a = TrainState(policy=base.to_order(2, trainable=True))
    state_b = TrainState(policy=base.to_order(2, trainable=True), beta=0.0)
    pol_a, pol_b = state_a.policy, state_b.policy
    loop = dict(samples_per_iteration=64, learning_rate=0.7)
    reinforce = BaselineConfig(kind="reinforce-phi", **loop)
    penalized = BaselineConfig(kind="kl-penalized", beta=0.0, **loop)

    for step in range(5):
        baseline_iteration(state_a, target, reinforce, np.random.default_rng(step))
        baseline_iteration(state_b, target, penalized, np.random.default_rng(step))
    assert np.array_equal(pol_a.logits, pol_b.logits)


@pytest.mark.parametrize(
    "kind, beta, kl_target",
    [
        ("reinforce-phi", None, None),
        ("reinforce-P", None, None),
        ("kl-penalized", 0.15, None),
        ("kl-penalized", 1.0, 0.02),
    ],
    ids=["reinforce-phi", "reinforce-P", "kl-penalized-fixed-beta", "kl-penalized-kl-target"],
)
def test_baseline_iteration_is_the_reference_step_bitwise(kind, beta, kl_target):
    """`baseline_iteration` against the per-kind reference steps of
    `helpers`, on one RNG seed: the same logits and the same beta, bit for
    bit, after every iteration."""
    space = small_space(2, 3)
    base = random_model(space, 2, np.random.default_rng(4), scale=0.8)
    cs = ConstraintSet(
        [ConstraintSpec(TokenPresence(space.vocabulary, "a"), 1.0, pointwise=True)]
    )
    target = Ebm(base=base, constraint_set=cs, lam=[])
    config = BaselineConfig(
        kind=kind, beta=beta, kl_target=kl_target, samples_per_iteration=64, learning_rate=2.0
    )
    state = init_state(base, config)
    reference = init_state(base, config).policy
    start = reference.logits.copy()
    ref_beta = beta

    def phi_reward(batch):
        return cs.feature_matrix(batch).sum(axis=1)

    def score_reward(batch):
        return np.exp(target.log_score_batch(batch))

    rng, rng_reference = np.random.default_rng(9), np.random.default_rng(9)
    betas = []
    for _ in range(12):
        baseline_iteration(state, target, config, rng)
        if kind == "kl-penalized":
            ref_beta = kl_penalized_step(
                reference, base, phi_reward, ref_beta, 64, 2.0, rng_reference,
                kl_target=kl_target, beta_step=BETA_STEP,
            )
        else:
            reward = phi_reward if kind == "reinforce-phi" else score_reward
            reinforce_step(reference, reward, 64, 2.0, rng_reference)
        assert state.policy.logits.tobytes() == reference.logits.tobytes()
        assert repr(state.beta) == repr(ref_beta)
        betas.append(state.beta)
    assert not np.array_equal(reference.logits, start)
    if kl_target is None:
        assert set(betas) == {beta}
    else:  # the controller moved beta both ways
        assert max(betas) > beta > min(betas)


def test_kl_penalized_huge_beta_pins_policy(task):
    base, target = task
    # a stiff penalty needs a step size of order 1/beta for plain SGD stability
    cfg = BaselineConfig(
        kind="kl-penalized", iterations=200, samples_per_iteration=128,
        learning_rate=2e-7, beta=1e6, seed=0,
    )
    result = train_baseline(base, target, cfg, EvalOptions(sample_size=32, eval_every=10000))
    kl = exact_kl(result.policy.exact_distribution(), base.exact_distribution())
    assert kl < 1e-3


def test_kl_penalized_controller_tracks_target(task):
    base, target = task
    for seed in (0, 1):
        cfg = BaselineConfig(
            kind="kl-penalized", iterations=400, samples_per_iteration=256,
            learning_rate=0.5, beta=1.0, kl_target=0.2, seed=seed,
        )
        result = train_baseline(base, target, cfg, EvalOptions(sample_size=32, eval_every=10000))
        kl = exact_kl(result.policy.exact_distribution(), base.exact_distribution())
        assert 0.5 * 0.2 <= kl <= 2.0 * 0.2


def test_baseline_determinism(task):
    base, target = task
    cfg = BaselineConfig(
        kind="reinforce-phi", iterations=20, samples_per_iteration=64,
        learning_rate=1.0, seed=7,
    )
    one = train_baseline(base, target, cfg, EvalOptions(sample_size=32, eval_every=5))
    two = train_baseline(base, target, cfg, EvalOptions(sample_size=32, eval_every=5))
    assert np.array_equal(one.policy.logits, two.policy.logits)


@pytest.mark.parametrize(
    "kind, beta", [("reinforce-phi", None), ("reinforce-P", None), ("kl-penalized", 0.15)]
)
def test_baseline_counts_iterations_and_samples(task, kind, beta):
    base, target = task
    cfg = BaselineConfig(kind=kind, beta=beta, iterations=5, samples_per_iteration=8)
    ev = EvalOptions(sample_size=32, eval_every=10000)
    state = train_baseline(base, target, cfg, ev).state
    assert (state.iteration, state.samples_drawn) == (5, 40)
    assert state.decisions == []  # the swap decisions are DPG's


# -- rejection sampling + supervised fit ----------------------------------------


def test_rejection_accepts_everything_with_trivial_predicate(ab_space, ab_uniform):
    always = PredicateTable({}, default=1.0, feature_id="always")
    cs = ConstraintSet([ConstraintSpec(always, 1.0, pointwise=True)])
    model, stats = rejection_mle(
        ab_uniform, cs, RejectionConfig(sample_budget=20000, fit_order=2, fit_smoothing=0.1)
    )
    assert stats.acceptance_rate == 1.0
    assert stats.kept == 20000
    assert exact_kl(model.exact_distribution(), ab_uniform.exact_distribution()) < 0.05


def test_rejection_acceptance_rate_matches_enumeration(ab_space, ab_uniform, presence_a_pointwise):
    target = Ebm(base=ab_uniform, constraint_set=presence_a_pointwise, lam=[])
    exact_rate, _ = target.exact_normalize()
    budget = 40000
    config = RejectionConfig(sample_budget=budget, fit_order=2, fit_smoothing=0.5)
    _, stats = rejection_mle(ab_uniform, presence_a_pointwise, config)
    se = np.sqrt(exact_rate * (1 - exact_rate) / budget)
    assert abs(stats.acceptance_rate - exact_rate) < 3 * se
    # a distributional column does not take part in the accept test
    mixed = ConstraintSet(
        list(presence_a_pointwise) + [ConstraintSpec(TokenPresence(ab_space.vocabulary, "b"), 0.5)]
    )
    assert rejection_mle(ab_uniform, mixed, config)[1] == stats


def test_rejection_fit_equals_a_row_by_row_reference(rng):
    space = small_space(3, 3)
    base = random_model(space, 2, rng)
    feature = TokenPresence(space.vocabulary, "a")
    cs = ConstraintSet([ConstraintSpec(feature, 1.0, pointwise=True)])
    budget = 2 * _SAMPLE_CHUNK_ROWS + 1000  # past two blocks, ragged
    config = RejectionConfig(sample_budget=budget, fit_order=2, fit_smoothing=0.5)
    model, stats = rejection_mle(base, cs, config)
    draws = np.random.default_rng(config.seed)
    kept = []
    for block in base.sample_blocks(budget, draws):
        kept += [x for x in sequences(block) if feature_value(feature, x) == 1.0]
    assert (stats.drawn, stats.kept) == (budget, len(kept))
    reference = mle_fit(space, batch_from(space, kept), order=2, smoothing=0.5)
    assert model.logits.tobytes() == reference.logits.tobytes()


def test_rejection_capacity_gap_documented(rng):
    # unigram refit cannot represent "starts with b then a": satisfaction < 1
    space = small_space(2, 4)
    base = random_model(space, 2, rng, scale=0.4)
    cs = ConstraintSet(
        [ConstraintSpec(PrefixMatch(space.vocabulary, ["b", "a"]), 1.0, pointwise=True)]
    )
    model, stats = rejection_mle(
        base, cs, RejectionConfig(sample_budget=30000, fit_order=1, fit_smoothing=0.0)
    )
    satisfaction = float(
        model.exact_distribution() @ cs.feature_matrix(enumeration(space))[:, 0]
    )
    assert stats.kept > 100
    assert satisfaction < 0.9


def test_rejection_no_accepted_samples(ab_space, ab_uniform):
    never = PredicateTable({}, default=0.0, feature_id="never")
    cs = ConstraintSet([ConstraintSpec(never, 1.0, pointwise=True)])
    with pytest.raises(NoAcceptedSamples):
        rejection_mle(
            ab_uniform, cs, RejectionConfig(sample_budget=500, fit_order=1, fit_smoothing=1.0)
        )
