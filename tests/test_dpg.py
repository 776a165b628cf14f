import numpy as np
import pytest

from distctl.dpg import DpgConfig, dpg_iteration, init_state, train
from distctl.ebm import Ebm, build_pointwise
from distctl.errors import ConfigError
from distctl.estimators import exact_kl
from distctl.features import ConstraintSet, ConstraintSpec, PrefixMatch, TokenPresence
from distctl.lm import TabularARModel
from distctl.metrics import EvalOptions

from helpers import from_distribution, grad_log_prob, random_model, scaled, small_space


def make_pointwise(space, base, token="a"):
    cs = ConstraintSet(
        [ConstraintSpec(TokenPresence(space.vocabulary, token), 1.0, pointwise=True)]
    )
    return build_pointwise(base, cs)


def identity_ebm(space, base):
    cs = ConstraintSet([ConstraintSpec(TokenPresence(space.vocabulary, "a"), 0.5)])
    return Ebm(base=base, constraint_set=cs, lam=np.zeros(1))


def test_already_optimal_stays_put(ab_space, ab_uniform):
    target = identity_ebm(ab_space, ab_uniform)  # lam = 0 so p = a
    config = DpgConfig(
        iterations=50, samples_per_iteration=512, learning_rate=0.5, eval_every=50, seed=0
    )
    result = train(ab_uniform, target, config, EvalOptions(sample_size=64))
    _, p = target.exact_normalize()
    assert exact_kl(p, result.policy.exact_distribution()) < 1e-3


def test_pointwise_convergence(ab_space, ab_uniform):
    target = make_pointwise(ab_space, ab_uniform)
    config = DpgConfig(
        iterations=150, samples_per_iteration=256, learning_rate=1.0, eval_every=50, seed=1
    )
    result = train(ab_uniform, target, config, EvalOptions(sample_size=64))
    _, p = target.exact_normalize()
    pi = result.policy.exact_distribution()
    assert exact_kl(p, pi) < 0.05
    satisfied = float(pi @ target.phi_universe()[:, 0])
    assert satisfied > 0.9


def test_exact_expected_update_is_minus_z_grad_ce(rng):
    space = small_space(3, 3)
    for _ in range(5):
        base = random_model(space, 2, rng, scale=0.6)
        target = identity_ebm(space, base)
        target.lam = rng.uniform(-1.0, 1.0, size=1)
        policy = random_model(space, space.lmax, rng, scale=0.4, trainable=True)
        proposal = random_model(space, 2, rng, scale=0.6)
        enum = space.enumeration()
        q = proposal.exact_distribution()
        scores = np.exp(target.log_score_batch(enum))
        z = scores.sum()
        p = scores / z
        expected_update = np.zeros_like(policy.logits)
        grad_ce = np.zeros_like(policy.logits)
        for i, seq in enumerate(enum.sequences()):
            g = grad_log_prob(policy, seq)
            expected_update += q[i] * (scores[i] / q[i]) * g
            grad_ce += -p[i] * g
        assert np.abs(expected_update - (-z) * grad_ce).max() < 1e-8


def test_fixed_point_zero_expected_update(rng):
    space = small_space(2, 3)
    base = random_model(space, 1, rng, scale=0.5)
    target = identity_ebm(space, base)
    target.lam = np.array([0.7])
    _, p = target.exact_normalize()
    policy = from_distribution(space, p, trainable=True)
    enum = space.enumeration()
    scores = np.exp(target.log_score_batch(enum))
    update = np.zeros_like(policy.logits)
    for i, seq in enumerate(enum.sequences()):
        update += scores[i] * grad_log_prob(policy, seq)
    assert np.abs(update).max() < 1e-10


def test_proposal_swaps_only_on_strict_improvement(ab_space, ab_uniform):
    target = make_pointwise(ab_space, ab_uniform)
    config = DpgConfig(iterations=60, samples_per_iteration=128, learning_rate=0.5, seed=3)
    result = train(ab_uniform, target, config, EvalOptions(sample_size=64))
    swaps = [d for d in result.state.decisions if d.swapped]
    assert swaps, "expected at least one proposal replacement"
    for d in result.state.decisions:
        if d.swapped:
            assert d.div_policy < d.div_proposal


def test_scale_invariance_of_updates_and_decisions(ab_space, ab_uniform):
    target = make_pointwise(ab_space, ab_uniform)
    base_cfg = dict(iterations=40, samples_per_iteration=64, eval_every=40, seed=5)
    reference = train(
        ab_uniform, target, DpgConfig(learning_rate=0.8, **base_cfg), EvalOptions(sample_size=32)
    )
    for c in (0.5, 2.0):
        rescaled = train(
            ab_uniform,
            scaled(target, np.log(c)),
            DpgConfig(learning_rate=0.8 / c, **base_cfg),
            EvalOptions(sample_size=32),
        )
        assert np.allclose(rescaled.policy.logits, reference.policy.logits, atol=1e-9)
        assert [d.swapped for d in rescaled.state.decisions] == [
            d.swapped for d in reference.state.decisions
        ]


def test_zero_iterations(ab_space, ab_uniform):
    target = identity_ebm(ab_space, ab_uniform)
    config = DpgConfig(iterations=0, samples_per_iteration=8, learning_rate=0.1, seed=0)
    result = train(ab_uniform, target, config, EvalOptions(sample_size=16))
    assert len(result.history) == 1 and result.history[0].step == 0
    assert np.allclose(result.policy.exact_distribution(), ab_uniform.exact_distribution())


def test_training_deterministic_under_seed(ab_space, ab_uniform):
    target = make_pointwise(ab_space, ab_uniform)
    config = DpgConfig(iterations=25, samples_per_iteration=64, learning_rate=0.7, seed=9)
    one = train(ab_uniform, target, config, EvalOptions(sample_size=32))
    two = train(ab_uniform, target, config, EvalOptions(sample_size=32))
    assert np.array_equal(one.policy.logits, two.policy.logits)


def test_adaptivity_deferred_until_z_positive(rng):
    space = small_space(3, 4)
    base = random_model(space, 2, rng, scale=0.3)
    cs = ConstraintSet(
        [ConstraintSpec(PrefixMatch(space.vocabulary, ["c", "c", "c"]), 1.0, pointwise=True)]
    )
    target = build_pointwise(base, cs)
    config = DpgConfig(iterations=4, samples_per_iteration=4, learning_rate=0.1, seed=2)
    state = init_state(base, config)
    rng_train = np.random.default_rng(0)
    for _ in range(4):
        dpg_iteration(state, target, config, rng_train)
    skipped = [d for d in state.decisions if d.div_policy is None]
    # with 4 tiny batches on a rare prefix the moving average stays at zero
    assert state.zma.value == 0.0
    assert len(skipped) == 4 and not any(d.swapped for d in state.decisions)


def test_tvd_adaptivity_runs_and_swaps(ab_space, ab_uniform):
    target = make_pointwise(ab_space, ab_uniform)
    config = DpgConfig(
        iterations=60, samples_per_iteration=128, learning_rate=0.5, adaptivity="tvd", seed=6
    )
    result = train(ab_uniform, target, config, EvalOptions(sample_size=32))
    assert result.state.proposal_updates > 0


def test_adaptive_beats_non_adaptive_on_rare_constraint():
    space = small_space(3, 5)
    base = TabularARModel.uniform_logits(space, order=1)
    base.logits[:, space.vocabulary.index("c")] -= 2.5
    base.invalidate()
    cs = ConstraintSet(
        [ConstraintSpec(PrefixMatch(space.vocabulary, ["c", "c"]), 1.0, pointwise=True)]
    )
    target = build_pointwise(base, cs)
    z, p = target.exact_normalize()
    assert z < 1e-3  # genuinely rare under the base

    def samples_to_threshold(adaptivity, budget=400):
        config = DpgConfig(
            iterations=budget,
            samples_per_iteration=256,
            learning_rate=128.0,
            adaptivity=adaptivity,
            seed=11,
        )
        state = init_state(base, config)
        rng_train = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
        for _ in range(budget):
            dpg_iteration(state, target, config, rng_train)
            if exact_kl(p, state.policy.exact_distribution()) < 0.1:
                return state.samples_drawn
        return np.inf

    adaptive = samples_to_threshold("kl")
    plain = samples_to_threshold("none")
    assert adaptive < plain


def test_adam_preconditioning_converges(ab_space, ab_uniform):
    target = make_pointwise(ab_space, ab_uniform)
    config = DpgConfig(
        iterations=150, samples_per_iteration=256, learning_rate=0.05,
        optimizer="adam", eval_every=150, seed=1,
    )
    result = train(ab_uniform, target, config, EvalOptions(sample_size=64))
    _, p = target.exact_normalize()
    assert exact_kl(p, result.policy.exact_distribution()) < 0.05


def test_config_validation():
    with pytest.raises(ConfigError):
        DpgConfig(iterations=-1, samples_per_iteration=8, learning_rate=0.1)
    with pytest.raises(ConfigError):
        DpgConfig(iterations=1, samples_per_iteration=0, learning_rate=0.1)
    with pytest.raises(ConfigError):
        DpgConfig(iterations=1, samples_per_iteration=8, learning_rate=0.1, adaptivity="bogus")
    with pytest.raises(ConfigError):
        DpgConfig(iterations=1, samples_per_iteration=8, learning_rate=0.1, optimizer="sign")


def test_learning_rate_rule_rejects_nan():
    with pytest.raises(ConfigError) as err:
        DpgConfig(iterations=1, samples_per_iteration=8, learning_rate=float("nan"))
    assert err.value.field == "learning_rate"
