import numpy as np
import pytest

from distctl.ebm import (
    Ebm,
    FitConfig,
    build_pointwise,
    fit_lambda,
    moment_preserving_perturbations,
    snis_moments,
    snis_objective_grad,
    snis_weights,
)
from distctl.errors import (
    ConfigError,
    DegenerateWeights,
    EmptySupport,
    MixedConstraints,
    UnattainableTarget,
)
from distctl.estimators import exact_kl
from distctl.features import ConstraintSet, ConstraintSpec, TokenPresence
from distctl.metrics import EvalOptions, snapshot
from distctl.seqspace import SampleBatch, Sequence

from helpers import (
    PredicateTable,
    bisect_lambda,
    from_distribution,
    random_model,
    scaled,
    small_space,
    snis_standard_error,
)


def presence_set(space, token, target, pointwise=False):
    return ConstraintSet(
        [ConstraintSpec(TokenPresence(space.vocabulary, token), target, pointwise=pointwise)]
    )


def fit_config(n=100000, lr=0.5, tol=1e-6, steps=20000, seed=0, clamp=20.0):
    return FitConfig(
        sample_count=n,
        learning_rate=lr,
        seed=seed,
        tolerance=tol,
        max_steps=steps,
        lambda_clamp=clamp,
    )


# -- score ---------------------------------------------------------------


def scores(ebm, *seqs):
    """Unnormalized scores of the given sequences."""
    return np.exp(ebm.log_score_batch(SampleBatch.from_sequences(ebm.space, list(seqs))))


def test_score_identity_at_lambda_zero(ab_space, ab_uniform):
    cs = presence_set(ab_space, "a", 0.5)
    ebm = Ebm(base=ab_uniform, constraint_set=cs, lam=np.zeros(1))
    enum = ab_space.enumeration()
    expected = np.exp(ab_uniform.log_prob_batch(enum))
    assert np.exp(ebm.log_score_batch(enum)) == pytest.approx(expected, rel=1e-12)


def test_score_pointwise_zero(ab_space, ab_uniform, presence_a_pointwise):
    ebm = build_pointwise(ab_uniform, presence_a_pointwise)
    none_a, one_a = scores(ebm, Sequence((1, 1)), Sequence((0,)))
    assert none_a == 0.0
    assert one_a == pytest.approx(1.0 / 7.0)


def test_score_log2_doubles(ab_space, ab_uniform):
    cs = presence_set(ab_space, "a", 0.5)
    ebm = Ebm(base=ab_uniform, constraint_set=cs, lam=np.array([np.log(2.0)]))
    assert scores(ebm, Sequence((0,)))[0] == pytest.approx(2.0 / 7.0, rel=1e-12)


# -- snis ------------------------------------------------------------------


def test_snis_lambda_zero_is_plain_mean(rng):
    phi = rng.random((500, 3))
    assert np.allclose(snis_moments(np.zeros(3), phi), phi.mean(axis=0))


def test_snis_identical_rows_collapse(rng):
    v = np.array([0.2, 0.9])
    phi = np.tile(v, (50, 1))
    for lam in (np.zeros(2), np.array([3.0, -2.0])):
        assert np.allclose(snis_moments(lam, phi), v)


def test_snis_matches_enumeration_oracle(ab_space, ab_uniform):
    cs = presence_set(ab_space, "a", 0.5)
    lam = np.array([1.0])
    a_dist = ab_uniform.exact_distribution()
    phi_univ = cs.feature_matrix(ab_space.enumeration())[:, 0]
    tilt = a_dist * np.exp(lam[0] * phi_univ)
    exact = float(tilt @ phi_univ / tilt.sum())
    samples = ab_uniform.sample_batch(100000, np.random.default_rng(5))
    phi = cs.feature_matrix(samples)
    estimate = snis_moments(lam, phi)[0]
    se = snis_standard_error(np.exp(phi[:, 0] * lam[0]), phi[:, 0], estimate)
    assert abs(estimate - exact) < 3 * se


def test_snis_degenerate_weights():
    with pytest.raises(DegenerateWeights):
        snis_weights(np.array([1.0]), np.array([[np.inf], [np.inf]]))


def test_snis_gradient_matches_finite_differences(rng):
    phi = rng.random((2000, 3))
    targets = np.array([0.3, 0.6, 0.4])
    lam = rng.standard_normal(3)
    _, grad = snis_objective_grad(lam, phi, targets)
    eps = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = eps
        up, _ = snis_objective_grad(lam + e, phi, targets)
        down, _ = snis_objective_grad(lam - e, phi, targets)
        numeric = (up - down) / (2 * eps)
        assert abs(numeric - grad[j]) / max(abs(numeric), 1e-10) < 1e-5


# -- fitting -----------------------------------------------------------------


def test_fit_converges_immediately_on_base_moments(ab_space, ab_uniform):
    cfg = fit_config(n=20000, tol=0.01)
    samples = ab_uniform.sample_batch(cfg.sample_count, np.random.default_rng(cfg.seed))
    cs_probe = presence_set(ab_space, "a", 0.5)
    base_moment = float(cs_probe.feature_matrix(samples).mean())
    cs = presence_set(ab_space, "a", base_moment)
    report, ebm = fit_lambda(ab_uniform, cs, cfg)
    assert report.converged
    assert report.steps_used == 0
    assert np.allclose(report.lam, 0.0)


def test_fit_matches_bisection_oracle(ab_space, ab_uniform):
    cs = presence_set(ab_space, "a", 0.9)
    report, ebm = fit_lambda(ab_uniform, cs, fit_config())
    assert report.converged
    a_dist = ab_uniform.exact_distribution()
    phi = cs.feature_matrix(ab_space.enumeration())[:, 0]
    oracle = bisect_lambda(a_dist, phi, 0.9)
    assert abs(report.lam[0] - oracle) < 0.05


def test_fit_default_tolerance_is_paper_value():
    cfg = FitConfig(sample_count=10, learning_rate=0.5)
    assert cfg.tolerance == 0.01
    with pytest.raises(ConfigError):
        FitConfig(learning_rate=0.0)


@pytest.mark.parametrize("field", ["learning_rate", "tolerance", "lambda_clamp"])
def test_fit_config_rejects_nan(field):
    with pytest.raises(ConfigError) as err:
        FitConfig(**{field: float("nan")})
    assert err.value.field == field


def test_fit_unattainable_target(ab_space):
    # base assigns zero mass to sequences containing 'a'
    third = 1.0 / 3.0
    dist = np.array([third, 0.0, third, 0.0, 0.0, 0.0, third])
    base = from_distribution(ab_space, dist)
    cs = presence_set(ab_space, "a", 0.5)
    with pytest.raises(UnattainableTarget) as err:
        fit_lambda(base, cs, fit_config(n=5000))
    assert "has_a" in str(err.value)


def test_fit_rejects_all_pointwise(ab_uniform, presence_a_pointwise):
    with pytest.raises(ConfigError):
        fit_lambda(ab_uniform, presence_a_pointwise, fit_config(n=100))


def test_fit_warm_start_dominates(rng):
    space = small_space(3, 5)
    base = random_model(space, 2, rng, scale=0.7)
    v = space.vocabulary
    first = ConstraintSpec(TokenPresence(v, "a"), 0.7)
    second = ConstraintSpec(TokenPresence(v, "b"), 0.3)
    cfg = fit_config(n=30000, tol=1e-5)
    report_s, _ = fit_lambda(base, ConstraintSet([first]), cfg)
    assert report_s.converged
    for seed in (0, 1, 2):
        cfg2 = fit_config(n=30000, tol=1e-5, seed=seed)
        cold, _ = fit_lambda(base, ConstraintSet([first, second]), cfg2)
        warm, _ = fit_lambda(
            base,
            ConstraintSet([first, second]),
            cfg2,
            warm_start=np.array([report_s.lam[0], 0.0]),
        )
        assert warm.converged and cold.converged
        assert warm.steps_used <= cold.steps_used


# -- pointwise product and normalization --------------------------------------


def test_build_pointwise_uniform_example(ab_uniform, presence_a_pointwise):
    ebm = build_pointwise(ab_uniform, presence_a_pointwise)
    z, p = ebm.exact_normalize()
    assert z == pytest.approx(4.0 / 7.0, rel=1e-12)
    expected = np.array([0.0, 0.25, 0.0, 0.25, 0.25, 0.25, 0.0])
    assert np.allclose(p, expected)


def test_build_pointwise_b_identically_one(ab_space, ab_uniform):
    always = PredicateTable({}, default=1.0, feature_id="always")
    cs = ConstraintSet([ConstraintSpec(always, 1.0, pointwise=True)])
    ebm = build_pointwise(ab_uniform, cs)
    z, p = ebm.exact_normalize()
    assert z == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(p, ab_uniform.exact_distribution())


def test_build_pointwise_empty_support(ab_space, ab_uniform):
    never = PredicateTable({}, default=0.0, feature_id="never")
    cs = ConstraintSet([ConstraintSpec(never, 1.0, pointwise=True)])
    ebm = build_pointwise(ab_uniform, cs)
    with pytest.raises(EmptySupport):
        ebm.exact_normalize()


def test_build_pointwise_rejects_hybrid(ab_space, ab_uniform):
    v = ab_space.vocabulary
    cs = ConstraintSet([
        ConstraintSpec(TokenPresence(v, "a"), 1.0, pointwise=True),
        ConstraintSpec(TokenPresence(v, "b"), 0.5),
    ])
    with pytest.raises(MixedConstraints):
        build_pointwise(ab_uniform, cs)


def test_exact_normalize_z_one_at_lambda_zero(ab_space, ab_uniform):
    cs = presence_set(ab_space, "a", 0.5)
    ebm = Ebm(base=ab_uniform, constraint_set=cs, lam=np.zeros(1))
    z, _ = ebm.exact_normalize()
    assert z == pytest.approx(1.0, abs=1e-9)


def test_scaled_scores_double_z_keep_p(ab_uniform, presence_a_pointwise):
    ebm = build_pointwise(ab_uniform, presence_a_pointwise)
    z, p = ebm.exact_normalize()
    z2, p2 = scaled(ebm, np.log(2.0)).exact_normalize()
    assert z2 == pytest.approx(2 * z, rel=1e-12)
    assert np.allclose(p2, p)



def test_exact_oracles_leave_the_enumeration_unencoded(rng):
    # scoring the cached universe would pin a code matrix per model order to it
    space = small_space(3, 4)
    base = random_model(space, 2, rng)
    policy = base.to_order(space.lmax, trainable=True)
    ebm = Ebm(base=base, constraint_set=presence_set(space, "a", 0.4), lam=np.array([0.8]))
    ebm.exact_normalize()
    ebm.exact_moments()
    policy.exact_distribution()
    snapshot(0, "gdc", policy, base, ebm, rng, EvalOptions(sample_size=64, exact=True))
    assert space.enumeration()._events is None


@pytest.mark.parametrize("pointwise", [False, True], ids=["exponential", "pointwise-product"])
def test_exact_normalize_matches_enumeration_bitwise(pointwise, rng):
    space = small_space(3, 4)
    base = random_model(space, 2, rng, scale=1.0)
    cs = presence_set(space, "a", 1.0 if pointwise else 0.4, pointwise=pointwise)
    if pointwise:
        ebm = scaled(build_pointwise(base, cs), 0.3)
    else:
        ebm = Ebm(base=base, constraint_set=cs, lam=np.array([-1.7]), log_scale=0.3)
    scores = np.exp(ebm.log_score_batch(space.enumeration()))
    z, p = ebm.exact_normalize()
    assert z == float(scores.sum())
    assert np.array_equal(p, scores / z)


# -- information-geometry properties -------------------------------------------


def test_pointwise_limit_of_clamped_exponential(ab_space, ab_uniform, presence_a_pointwise):
    exponential = Ebm(
        base=ab_uniform,
        constraint_set=presence_a_pointwise,
        lam=np.array([20.0]),
        lambda_clamp=20.0,
    )
    product = build_pointwise(ab_uniform, presence_a_pointwise)
    _, p_exp = exponential.exact_normalize()
    _, p_prod = product.exact_normalize()
    # KL taken from the product side: the exponential keeps full support
    assert exact_kl(p_prod, p_exp) < 1e-3


def exact_tilted(base_dist, phi, lam):
    scores = base_dist * np.exp(phi @ lam)
    return scores / scores.sum()


def test_pythagorean_identity(rng):
    space = small_space(3, 4)
    base = random_model(space, 2, rng, scale=0.5)
    cs = presence_set(space, "b", 0.6)
    a_dist = base.exact_distribution()
    phi = cs.feature_matrix(space.enumeration())
    lam_star = bisect_lambda(a_dist, phi[:, 0], 0.6)
    p = exact_tilted(a_dist, phi, np.array([lam_star]))
    kl_p_a = exact_kl(p, a_dist)
    perturbed = moment_preserving_perturbations(p, phi, count=6, rng=rng)
    assert len(perturbed) >= 5
    for c in perturbed:
        assert abs(float(c @ phi[:, 0]) - 0.6) < 1e-9
        residual = abs(exact_kl(c, a_dist) - exact_kl(c, p) - kl_p_a)
        assert residual < 1e-4


def test_pythagorean_identity_with_mixture_witness(rng):
    """The base conditioned on the feature, remixed to the target moment, sits in C."""
    space = small_space(3, 4)
    base = random_model(space, 2, rng, scale=0.5)
    cs = presence_set(space, "b", 0.6)
    a_dist = base.exact_distribution()
    phi = cs.feature_matrix(space.enumeration())[:, 0]
    lam_star = bisect_lambda(a_dist, phi, 0.6)
    p = exact_tilted(a_dist, phi[:, None], np.array([lam_star]))
    on = a_dist * (phi == 1.0)
    off = a_dist * (phi == 0.0)
    c = 0.6 * on / on.sum() + 0.4 * off / off.sum()
    assert float(c @ phi) == pytest.approx(0.6, abs=1e-12)
    residual = abs(exact_kl(c, a_dist) - exact_kl(c, p) - exact_kl(p, a_dist))
    assert residual < 1e-4


def test_information_projection_optimality(rng):
    space = small_space(3, 4)
    base = random_model(space, 2, rng, scale=0.5)
    cs = presence_set(space, "a", 0.4)
    a_dist = base.exact_distribution()
    phi = cs.feature_matrix(space.enumeration())
    lam_star = bisect_lambda(a_dist, phi[:, 0], 0.4)
    p = exact_tilted(a_dist, phi, np.array([lam_star]))
    kl_p_a = exact_kl(p, a_dist)
    for c in moment_preserving_perturbations(p, phi, count=100, rng=rng):
        assert exact_kl(c, a_dist) >= kl_p_a - 1e-6


def test_fit_exact_moment_reaches_target(ab_space, ab_uniform):
    cs = presence_set(ab_space, "a", 0.8)
    report, ebm = fit_lambda(ab_uniform, cs, fit_config())
    assert report.converged
    assert abs(ebm.exact_moments()[0] - 0.8) < 0.02


def test_lambda_clamp_is_enforced(ab_space, ab_uniform):
    cs = presence_set(ab_space, "a", 0.999999)
    report, ebm = fit_lambda(ab_uniform, cs, fit_config(tol=1e-14, steps=3000, clamp=2.0))
    assert not report.converged
    assert abs(report.lam[0]) <= 2.0 + 1e-12
