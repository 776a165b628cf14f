import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distctl.ebm import Ebm
from distctl.errors import ConfigError, NonFiniteEstimate, NonpositiveZ, SupportViolation
from distctl.estimators import (
    ZMovingAverage,
    _mean_se,
    exact_kl,
    importance_ratios,
    kl_p_from_logs,
    tvd_p_from_logs,
)
from distctl.features import ConstraintSet, ConstraintSpec, TokenPresence

from helpers import (
    Sequence,
    enumeration,
    estimate_kl_between_models,
    estimate_kl_p_from,
    estimate_tvd,
    estimate_z,
    exact_entropy,
    exact_tvd,
    from_distribution,
    naive_log_prob,
    random_model,
    sequence_rank,
    small_space,
    traced_peak,
    z_estimate_from_logs,
)


@pytest.fixture
def pointwise_setup(ab_space, ab_uniform, presence_a_pointwise):
    ebm = Ebm(base=ab_uniform, constraint_set=presence_a_pointwise, lam=[])
    z, p = ebm.exact_normalize()
    return ebm, z, p


# -- Z ------------------------------------------------------------------------


def test_z_is_one_with_identity_weights(ab_space, ab_uniform):
    cs = ConstraintSet([ConstraintSpec(TokenPresence(ab_space.vocabulary, "a"), 0.5)])
    ebm = Ebm(base=ab_uniform, constraint_set=cs, lam=np.zeros(1))
    samples = ab_uniform.sample_batch(200, np.random.default_rng(0))
    est = estimate_z(ebm, ab_uniform, samples)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.standard_error == pytest.approx(0.0, abs=1e-12)


def test_z_matches_enumeration(pointwise_setup, ab_uniform):
    ebm, z, _ = pointwise_setup
    samples = ab_uniform.sample_batch(100000, np.random.default_rng(1))
    est = estimate_z(ebm, ab_uniform, samples)
    assert abs(est.value - z) < 3 * est.standard_error


def test_z_zero_variance_under_exact_proposal(pointwise_setup, ab_space):
    ebm, z, p = pointwise_setup
    proposal = from_distribution(ab_space, p)
    samples = proposal.sample_batch(500, np.random.default_rng(2))
    est = estimate_z(ebm, proposal, samples)
    assert est.value == pytest.approx(z, rel=1e-9)
    assert est.standard_error < 1e-12


def test_z_support_violation(pointwise_setup, ab_space):
    ebm, _, p = pointwise_setup
    narrow = from_distribution(ab_space, p)  # misses 'b'-only sequences
    bad = enumeration(ab_space)
    with pytest.raises(SupportViolation):
        estimate_z(ebm, narrow, bad)


# -- moving average -------------------------------------------------------------


def test_fold_z_basics():
    zma = ZMovingAverage()
    zma = zma.fold(2.0)
    assert zma.value == 2.0 and zma.iterations == 1
    zma = zma.fold(3.0)
    assert zma.value == pytest.approx(2.5)
    assert ZMovingAverage().fold(1.0).fold(3.0).value == pytest.approx(2.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=100))
def test_fold_z_equals_arithmetic_mean(batches):
    zma = ZMovingAverage()
    for b in batches:
        zma = zma.fold(b)
    assert zma.iterations == len(batches)
    mean = float(np.mean(batches))
    assert abs(zma.value - mean) <= 1e-12 * max(1.0, abs(mean))


def test_hundred_folds_track_exact_z(pointwise_setup, ab_uniform):
    ebm, z_exact, _ = pointwise_setup
    rng = np.random.default_rng(21)
    zma = ZMovingAverage()
    batch_size = 200
    for _ in range(100):
        zma = zma.fold(estimate_z(ebm, ab_uniform, ab_uniform.sample_batch(batch_size, rng)).value)
    # per-sample ratios are Bernoulli(4/7); combined SE over 100 x 200 draws
    sigma = np.sqrt(z_exact * (1 - z_exact))
    assert abs(zma.value - z_exact) < 3 * sigma / np.sqrt(100 * batch_size)


def test_z_unbiasedness_across_replications(pointwise_setup, ab_uniform, ab_space):
    ebm, z_exact, _ = pointwise_setup
    a_dist = ab_uniform.exact_distribution()
    scores = np.exp(ebm.log_score_batch(enumeration(ab_space)))
    ratios = scores / a_dist
    sigma = float(np.sqrt(a_dist @ (ratios - z_exact) ** 2))
    batch_size = 500
    rng = np.random.default_rng(7)
    estimates = [
        estimate_z(ebm, ab_uniform, ab_uniform.sample_batch(batch_size, rng)).value
        for _ in range(200)
    ]
    tolerance = 4 * sigma / np.sqrt(batch_size) / np.sqrt(200)
    assert abs(np.mean(estimates) - z_exact) < tolerance


# -- KL(p || pi) ------------------------------------------------------------------


def test_kl_p_pi_zero_when_policy_is_p(pointwise_setup, ab_space):
    ebm, z, p = pointwise_setup
    policy = from_distribution(ab_space, p)
    samples = policy.sample_batch(300, np.random.default_rng(3))
    est = estimate_kl_p_from(ebm, policy, policy, samples, z)
    assert abs(est.value) < 1e-12


def test_kl_p_pi_matches_enumeration(pointwise_setup, ab_uniform):
    ebm, z, p = pointwise_setup
    exact = exact_kl(p, ab_uniform.exact_distribution())
    samples = ab_uniform.sample_batch(100000, np.random.default_rng(4))
    est = estimate_kl_p_from(ebm, ab_uniform, ab_uniform, samples, z)
    assert exact == pytest.approx(np.log(7.0 / 4.0), rel=1e-12)
    assert abs(est.value - exact) <= max(3 * est.standard_error, 1e-9)


def test_kl_p_pi_z_misspecification_closed_form(pointwise_setup, ab_space):
    ebm, z, p = pointwise_setup
    policy = from_distribution(ab_space, p)
    samples = policy.sample_batch(400, np.random.default_rng(5))
    est = estimate_kl_p_from(ebm, policy, policy, samples, 2 * z)
    # with pi = q = p each ratio is z, each log term is log z:
    # estimate = -log(2z) + (z log z)/(2z) = -log 2 - (log z)/2
    expected = -np.log(2.0) - np.log(z) / 2.0
    assert est.value == pytest.approx(expected, abs=1e-9)


def test_kl_nonpositive_z(pointwise_setup, ab_uniform):
    ebm, _, _ = pointwise_setup
    samples = ab_uniform.sample_batch(10, np.random.default_rng(0))
    with pytest.raises(NonpositiveZ):
        estimate_kl_p_from(ebm, ab_uniform, ab_uniform, samples, 0.0)


# -- TVD ---------------------------------------------------------------------------


def test_tvd_zero_when_policy_is_p(pointwise_setup, ab_space):
    ebm, z, p = pointwise_setup
    policy = from_distribution(ab_space, p)
    samples = policy.sample_batch(300, np.random.default_rng(6))
    est = estimate_tvd(ebm, policy, policy, samples, z)
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_tvd_disjoint_support_near_one(ab_space, ab_uniform, pointwise_setup):
    ebm, z, p = pointwise_setup
    # policy lives exactly where p does not: sequences without 'a'
    third = 1.0 / 3.0
    off = np.array([third, 0.0, third, 0.0, 0.0, 0.0, third])
    policy = from_distribution(ab_space, off)
    exact = exact_tvd(p, off)
    assert exact == pytest.approx(1.0)
    samples = ab_uniform.sample_batch(100000, np.random.default_rng(7))
    est = estimate_tvd(ebm, policy, ab_uniform, samples, z)
    assert abs(est.value - 1.0) <= 3 * est.standard_error


def test_tvd_matches_enumeration(pointwise_setup, ab_uniform):
    ebm, z, p = pointwise_setup
    exact = exact_tvd(p, ab_uniform.exact_distribution())
    assert exact == pytest.approx(3.0 / 7.0, rel=1e-12)
    samples = ab_uniform.sample_batch(100000, np.random.default_rng(8))
    est = estimate_tvd(ebm, ab_uniform, ab_uniform, samples, z)
    assert abs(est.value - exact) <= 3 * est.standard_error


# -- overflow ------------------------------------------------------------------------


@pytest.mark.parametrize("estimator", [
    lambda weights, log_p_score, log_q, log_pi: kl_p_from_logs(weights, log_p_score, log_pi, 1.0),
    lambda weights, log_p_score, log_q, log_pi: tvd_p_from_logs(weights, log_q, log_pi, 1.0),
], ids=["kl", "tvd"])
def test_overflowing_terms_raise_non_finite_estimate(estimator):
    # a policy pushed to log-probs near -1e308: P/q * log(P/pi) overflows for
    # KL, and pi/q = exp(800) for TVD
    log_p_score = np.array([5.0, 1.0, -2.0])
    log_q = np.zeros(3)
    log_pi = np.array([-1.2e308, 800.0, -3.0])
    weights = importance_ratios(log_p_score, log_q)
    with pytest.raises(NonFiniteEstimate, match="non-finite"):
        estimator(weights, log_p_score, log_q, log_pi)


def numpy_mean_se(terms: np.ndarray) -> tuple[float, float]:
    """The mean and standard error as numpy's own `mean` and `std` give them."""
    se = float(np.std(terms, ddof=1) / np.sqrt(len(terms))) if len(terms) > 1 else 0.0
    return float(np.mean(terms)), se


def mean_se_cases(rng):
    """n = 1 and 2, constant arrays, sign-mixed and one-signed terms, lengths
    around numpy's 8-wide and 128-block pairwise sums, at magnitudes 1e-150
    to 1e150."""
    for scale in (1e-150, 1e-20, 1.0, 3e7, 1e150):
        yield np.array([scale])
        yield np.array([-scale, 2.5 * scale])
        for n in (2, 3, 8, 9, 127, 128, 129, 1000, 4097):
            yield np.full(n, -0.7 * scale)
            yield rng.standard_normal(n) * scale
            yield rng.exponential(size=n) * scale + 1e3 * scale


def test_mean_se_is_numpys_mean_and_std_bitwise(rng):
    for terms in mean_se_cases(rng):
        kept = terms.copy()
        got, expected = _mean_se(terms), numpy_mean_se(terms)
        assert np.array(got).tobytes() == np.array(expected).tobytes(), len(terms)
        assert terms.tobytes() == kept.tobytes()


@pytest.mark.parametrize("terms", [
    [np.inf, 1.0], [np.nan], [1e308, 1e308], [1e200, -1e200, 3.0], [1.3e154, -1.3e154],
], ids=["inf", "nan", "sum-overflows", "squares-overflow", "squares-sum-overflows"])
def test_mean_se_refuses_overflowing_terms(terms):
    """Terms whose mean or squared deviations overflow (under the estimators'
    `errstate`) give no estimate."""
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteEstimate):
        _mean_se(np.array(terms))


# -- KL(pi || a) ---------------------------------------------------------------------


def test_kl_models_zero_on_identical(ab_uniform):
    samples = ab_uniform.sample_batch(100, np.random.default_rng(9))
    est = estimate_kl_between_models(ab_uniform, ab_uniform, samples)
    assert est.value == 0.0
    assert est.standard_error == 0.0


def test_kl_models_enumeration_cross_check(rng):
    space = small_space(3, 3)
    pi = random_model(space, 2, rng, scale=0.6)
    ref = random_model(space, 1, rng, scale=0.6)
    exact = exact_kl(pi.exact_distribution(), ref.exact_distribution())
    samples = pi.sample_batch(100000, np.random.default_rng(10))
    est = estimate_kl_between_models(pi, ref, samples)
    assert abs(est.value - exact) <= 3 * est.standard_error


def test_kl_models_point_mass_closed_form(ab_space, ab_uniform):
    s = Sequence((0, 1))
    dist = np.zeros(ab_space.universe_size)
    dist[sequence_rank(ab_space, s)] = 1.0
    policy = from_distribution(ab_space, dist)
    samples = policy.sample_batch(50, np.random.default_rng(11))
    est = estimate_kl_between_models(policy, ab_uniform, samples)
    assert est.value == pytest.approx(-naive_log_prob(ab_uniform, s), rel=1e-12)


def test_kl_models_support_violation(ab_space, ab_uniform):
    third = 1.0 / 3.0
    ref = from_distribution(
        ab_space, np.array([third, 0.0, third, 0.0, 0.0, 0.0, third])
    )
    samples = enumeration(ab_space)
    with pytest.raises(SupportViolation):
        estimate_kl_between_models(ab_uniform, ref, samples)


# -- exact oracles ----------------------------------------------------------------------


def test_exact_kl_identity_and_hand_values():
    d = np.array([0.3, 0.7])
    assert exact_kl(d, d) == 0.0
    e = np.array([0.5, 0.5])
    hand = 0.3 * np.log(0.3 / 0.5) + 0.7 * np.log(0.7 / 0.5)
    assert exact_kl(d, e) == pytest.approx(hand, rel=1e-12)
    assert exact_kl(d, e) != exact_kl(e, d)


def test_exact_kl_past_the_float64_ratio_range_is_finite():
    """A cell where d1 / d2 overflows (d2 subnormal: a base with a logit gap
    near 1,400, as a model file may hold) takes log d1 - log d2, without a
    numpy warning (an error in this suite); the other cells keep their bits."""
    d2 = np.array([5e-324, 0.5, 0.5])
    d1 = np.array([0.5, 0.25, 0.25])
    kl = exact_kl(d1, d2)
    rest = 0.25 * np.log(0.25 / 0.5)
    assert kl == 0.5 * (np.log(0.5) - np.log(5e-324)) + rest + rest
    assert np.isfinite(kl)


def test_exact_kl_support_violation():
    with pytest.raises(SupportViolation, match="misses support of the first"):
        exact_kl(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    with pytest.raises(SupportViolation, match="misses support of the first"):  # compacted path
        exact_kl(np.array([0.0, 0.5, 0.5]), np.array([0.5, 0.5, 0.0]))
    # zero mass in the first distribution is fine
    assert exact_kl(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(np.log(2))


def masked_kl(d1: np.ndarray, d2: np.ndarray) -> float:
    """KL(d1 || d2) by its definition, each term 0 off d1's support, summed
    over the whole array in one np.sum."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.sum(np.where(d1 > 0, d1 * np.log(d1 / d2), 0.0)))


@pytest.mark.parametrize("zero_mass", [False, True], ids=["full-support", "zero-mass"])
def test_exact_kl_is_the_masked_formula_bitwise(zero_mass, rng):
    for n in (2, 3, 7, 1000, 100003):
        d1, d2 = rng.random(n) ** 3, rng.random(n) ** 3
        if zero_mass:
            off = rng.random(n) < 0.3
            off[0], off[-1] = True, False
            d1[off] = 0.0
            d2[off] *= rng.integers(0, 2, size=int(off.sum()))  # some zeros off the support
        d1, d2 = d1 / d1.sum(), d2 / d2.sum()
        kept = d1.copy(), d2.copy()
        assert exact_kl(d1, d2) == masked_kl(d1, d2)
        assert (d1.tobytes(), d2.tobytes()) == tuple(d.tobytes() for d in kept)  # inputs untouched
        assert (d1 > 0).all() != zero_mass


def test_exact_kl_with_zeros_holds_one_array_of_terms(rng):
    """With zeros in the first distribution the terms are still one new
    array: beside it only byte masks are made. It reads 1.13 arrays of the
    inputs' size here; compacting both inputs onto the 90% support read 2.04."""
    n = 1 << 16
    d1, d2 = rng.random(n), rng.random(n)
    d1[rng.random(n) < 0.1] = 0.0
    d1, d2 = d1 / d1.sum(), d2 / d2.sum()
    _, peak = traced_peak(exact_kl, d1, d2)
    assert peak <= 1.3 * d1.nbytes


def test_exact_oracles_validate_inputs():
    with pytest.raises(ConfigError):
        exact_kl(np.array([0.5, 0.2]), np.array([0.5, 0.5]))
    with pytest.raises(ConfigError):
        exact_tvd(np.array([0.5, 0.5]), np.array([0.5]))


def test_exact_entropy():
    assert exact_entropy(np.array([0.5, 0.5])) == pytest.approx(np.log(2))
    assert exact_entropy(np.array([1.0, 0.0])) == 0.0


# -- variance reduction motivating adaptivity ----------------------------------------------


def test_z_variance_shrinks_as_proposal_approaches_target(ab_space, pointwise_setup, ab_uniform):
    ebm, z, p = pointwise_setup
    a_dist = ab_uniform.exact_distribution()
    scores = np.exp(ebm.log_score_batch(enumeration(ab_space)))
    kls = []
    exact_sds = []
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        mix = (a_dist ** (1 - t)) * (p**t)
        mix = mix / mix.sum()
        support = mix > 0
        kls.append(exact_kl(p, mix))
        var = float(np.sum(mix[support] * (scores[support] / mix[support] - z) ** 2))
        exact_sds.append(np.sqrt(max(var, 0.0)))
    assert all(k1 >= k2 - 1e-12 for k1, k2 in zip(kls, kls[1:]))
    assert all(s1 >= s2 - 1e-12 for s1, s2 in zip(exact_sds, exact_sds[1:]))
    assert exact_sds[-1] == pytest.approx(0.0, abs=1e-9)
    # the estimator's reported standard error reflects the exact ordering
    q0 = ab_uniform
    q1 = from_distribution(ab_space, p)
    s0 = estimate_z(ebm, q0, q0.sample_batch(20000, np.random.default_rng(12)))
    s1 = estimate_z(ebm, q1, q1.sample_batch(20000, np.random.default_rng(12)))
    assert s1.standard_error < s0.standard_error


def test_low_level_log_interfaces_reject_bad_support():
    log_p = np.array([-1.0, -2.0])
    log_q = np.array([-np.inf, -1.0])
    with pytest.raises(SupportViolation):
        z_estimate_from_logs(log_p, log_q)
    with pytest.raises(SupportViolation):  # the divergences take these weights
        importance_ratios(log_p, log_q)
