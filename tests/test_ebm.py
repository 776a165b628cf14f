import numpy as np
import pytest

from distctl import ebm as ebm_module
from distctl.ebm import (
    DEFAULT_LAMBDA_CLAMP,
    Ebm,
    FitConfig,
    fit_lambda,
    moment_preserving_perturbations,
    snis_dual,
    snis_moments,
    snis_weights,
)
from distctl.errors import (
    AutomatonTooLarge,
    ConfigError,
    DegenerateWeights,
    EmptySupport,
    SupportViolation,
    UnattainableTarget,
    UniverseTooLarge,
)
from distctl import lm, seqspace
from distctl.estimators import exact_kl
from distctl.features import (
    ConstraintSet,
    ConstraintSpec,
    PrefixMatch,
    TokenPresence,
    TokenRatio,
    WordlistPresence,
)
from distctl.lm import RowGradient, TabularARModel
from distctl.metrics import EvalOptions, snapshot
from distctl.seqspace import SequenceSpace

from helpers import (
    PredicateTable,
    Sequence,
    batch_from,
    bisect_lambda,
    dense_logits,
    enumeration,
    exact_hybrid_projection,
    exact_moments,
    from_distribution,
    hybrid_task,
    invalidate,
    member_log_scores,
    random_model,
    scaled,
    small_space,
    snis_standard_error,
    traced_peak,
    uniform_model,
    universe_arrays,
    universe_moments,
    whole_matrix_normalize,
)


def presence_set(space, token, target, pointwise=False):
    return ConstraintSet(
        [ConstraintSpec(TokenPresence(space.vocabulary, token), target, pointwise=pointwise)]
    )


def fit_config(n=100000, tol=1e-6, steps=20000, seed=0, clamp=20.0):
    return FitConfig(
        sample_count=n,
        seed=seed,
        tolerance=tol,
        max_steps=steps,
        lambda_clamp=clamp,
    )


# -- score ---------------------------------------------------------------


def scores(ebm, *seqs):
    """Unnormalized scores of the given sequences."""
    return np.exp(ebm.log_score_batch(batch_from(ebm.space, list(seqs))))


def test_score_identity_at_lambda_zero(ab_space, ab_uniform):
    cs = presence_set(ab_space, "a", 0.5)
    ebm = Ebm(base=ab_uniform, constraint_set=cs, lam=np.zeros(1))
    enum = enumeration(ab_space)
    expected = np.exp(ab_uniform.log_prob_batch(enum))
    assert np.exp(ebm.log_score_batch(enum)) == pytest.approx(expected, rel=1e-12)


def test_score_pointwise_zero(ab_space, ab_uniform, presence_a_pointwise):
    ebm = Ebm(base=ab_uniform, constraint_set=presence_a_pointwise, lam=[])
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
    phi_univ = cs.feature_matrix(enumeration(ab_space))[:, 0]
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


def test_snis_dual_derivatives_match_finite_differences(rng):
    """The dual's gradient and Hessian match central differences of the dual
    and of its gradient."""
    phi = rng.random((2000, 3))
    targets = np.array([0.3, 0.6, 0.4])
    lam = rng.standard_normal(3)
    _, grad, hess = snis_dual(lam, phi, targets)
    eps = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = eps
        up, up_grad, _ = snis_dual(lam + e, phi, targets)
        down, down_grad, _ = snis_dual(lam - e, phi, targets)
        numeric = (up - down) / (2 * eps)
        assert abs(numeric - grad[j]) / max(abs(numeric), 1e-10) < 1e-5
        numeric_row = (up_grad - down_grad) / (2 * eps)
        assert np.abs(numeric_row - hess[j]).max() / np.abs(numeric_row).max() < 1e-5


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
    phi = cs.feature_matrix(enumeration(ab_space))[:, 0]
    oracle = bisect_lambda(a_dist, phi, 0.9)
    assert abs(report.lam[0] - oracle) < 0.05


def test_fit_default_tolerance_is_paper_value():
    cfg = FitConfig(sample_count=10)
    assert cfg.tolerance == 0.01
    with pytest.raises(ConfigError):
        FitConfig(tolerance=0.0)


@pytest.mark.parametrize("field", ["tolerance", "lambda_clamp"])
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


def test_fit_returns_at_once_on_all_pointwise(monkeypatch, ab_uniform, presence_a_pointwise):
    def no_draws(*args):
        raise AssertionError("a pointwise-only fit draws nothing")

    monkeypatch.setattr(type(ab_uniform), "_sample_block", no_draws)  # every draw's core
    report, ebm = fit_lambda(ab_uniform, presence_a_pointwise, fit_config(n=100))
    assert report.lam.shape == report.achieved_moments.shape == (0,)
    assert (report.steps_used, report.converged) == (0, True)
    assert ebm.lam.shape == (0,) and list(ebm.pointwise_columns) == [0]


def test_fit_holds_phi_and_a_block_never_the_draw(rng):
    """The fit featurizes its draw a block at a time and keeps only phi. Its
    peak is a few blocks' tokens and codes plus phi-sized arrays: phi and the
    Newton step's weights and centered copies, at most four floats a row for
    one feature. So it grows with the sample count by those alone, never by
    the rows' tokens and codes (lmax 12: 144 bytes a row, which a fit that
    drew the whole batch first held)."""
    space = small_space(2, 12)
    model = random_model(space, 2, rng)
    model.logits[:, space.vocabulary.eos_index] -= 2.0  # most rows run long
    invalidate(model)
    block = lm._SAMPLE_CHUNK_ROWS * space.lmax * (4 + 8)  # one block's tokens and codes
    peaks = {}
    for n in (40_000, 80_000):
        (report, _), peaks[n] = traced_peak(
            fit_lambda, model, presence_set(space, "a", 0.5), fit_config(n=n, steps=50)
        )
        assert report.rows_used == n and report.converged
        assert peaks[n] <= 4 * 8 * n + 4 * block
    assert peaks[80_000] - peaks[40_000] <= 4 * 8 * 40_000


def test_fit_steps_through_a_singular_covariance(ab_space, ab_uniform):
    """Two constraints with different ids on one token and target have equal
    feature columns, so the SNIS covariance is singular: the minimum-norm
    Newton step still converges, splitting the tilt between them."""
    v = ab_space.vocabulary
    cs = ConstraintSet([
        ConstraintSpec(TokenPresence(v, "a", feature_id="a1"), 0.9),
        ConstraintSpec(TokenPresence(v, "a", feature_id="a2"), 0.9),
    ])
    report, _ = fit_lambda(ab_uniform, cs, fit_config(n=20000))
    assert report.converged and report.steps_used <= 10
    assert np.abs(report.achieved_moments - 0.9).max() < 1e-6
    assert report.lam[0] == pytest.approx(report.lam[1], rel=1e-12)


def test_fit_rejects_an_empty_set(ab_uniform):
    with pytest.raises(ConfigError):
        fit_lambda(ab_uniform, ConstraintSet([]), fit_config(n=100))


# -- hybrid sets: a * b * exp(lam . phi) ----------------------------------------


def hybrid_set(pointwise, distributional, target):
    return ConstraintSet([
        ConstraintSpec(pointwise, 1.0, pointwise=True),
        ConstraintSpec(distributional, target),
    ])


def test_hybrid_exact_moments_at_the_bisected_lambda():
    base, cs, _ = hybrid_task()
    lam_star, p_star = exact_hybrid_projection(base, cs)
    assert lam_star == pytest.approx(2.169, abs=1e-3)
    ebm = Ebm(base=base, constraint_set=cs, lam=[lam_star])
    np.testing.assert_allclose(exact_moments(ebm), [1.0, 0.5], rtol=0, atol=1e-9)
    np.testing.assert_allclose(ebm.exact_normalize()[1], p_star, rtol=1e-9, atol=0)


def test_hybrid_target_is_zero_off_b(rng):
    space = small_space(3, 4)
    base = random_model(space, 2, rng)
    v = space.vocabulary
    cs = hybrid_set(TokenPresence(v, "a"), PrefixMatch(v, ["b"]), 0.4)
    ebm = Ebm(base=base, constraint_set=cs, lam=[1.3])
    b = cs.feature_matrix(enumeration(space))[:, 0]
    _, p = ebm.exact_normalize()
    assert (p[b == 0] == 0.0).all()
    assert (p[b == 1] > 0.0).all()
    assert exact_moments(ebm)[0] == pytest.approx(1.0, abs=1e-12)


def test_hybrid_hull_check_reads_the_rows_with_b_one(ab_space, ab_uniform):
    # has_a at 0.5 lies inside [0, 1] over every row, but is 1 on every row with b = 1
    v = ab_space.vocabulary
    cs = hybrid_set(TokenPresence(v, "a"), TokenPresence(v, "a", feature_id="a_too"), 0.5)
    with pytest.raises(UnattainableTarget) as err:
        fit_lambda(ab_uniform, cs, fit_config(n=5000))
    assert "a_too" in str(err.value)


def test_hybrid_fit_with_no_row_of_b_one_raises_empty_support(ab_space, ab_uniform):
    never = PredicateTable({}, default=0.0, feature_id="never")
    cs = hybrid_set(never, TokenPresence(ab_space.vocabulary, "a"), 0.5)
    with pytest.raises(EmptySupport) as err:
        fit_lambda(ab_uniform, cs, fit_config(n=5000))
    assert "'never'" in str(err.value)


def test_fit_reports_the_rows_it_weighs(ab_space, ab_uniform, presence_a_pointwise):
    """`rows_used` is the number of drawn rows with b = 1 for a hybrid set,
    every drawn row for a distributional-only set, and 0 for a pointwise-only
    set, which draws nothing."""
    v = ab_space.vocabulary
    config = fit_config(n=5000, tol=1e-4)
    draw = ab_uniform.sample_batch(config.sample_count, np.random.default_rng(config.seed))
    with_a = int((draw.tokens == v.index("a")).any(axis=1).sum())
    assert 0 < with_a < config.sample_count
    hybrid_a = hybrid_set(TokenPresence(v, "a"), TokenPresence(v, "b"), 0.6)
    hybrid, _ = fit_lambda(ab_uniform, hybrid_a, config)
    assert hybrid.rows_used == with_a
    assert hybrid.to_document()["rows_used"] == with_a
    distributional, _ = fit_lambda(ab_uniform, presence_set(ab_space, "b", 0.6), config)
    assert distributional.rows_used == config.sample_count
    pointwise, _ = fit_lambda(ab_uniform, presence_a_pointwise, config)
    assert pointwise.rows_used == 0


def test_hybrid_fit_is_near_the_exact_projection():
    """On criterion 10's task the fit weighs only the rows with b = 1: its
    target puts no mass off b and sits within 2e-3 nats of the projection."""
    base, cs, config = hybrid_task()
    report, ebm = fit_lambda(base, cs, config)
    _, p_star = exact_hybrid_projection(base, cs)
    _, p = ebm.exact_normalize()
    assert report.converged
    assert exact_moments(ebm)[0] == pytest.approx(1.0, abs=1e-12)
    assert exact_kl(p_star, p) < 2e-3


# -- pointwise product and normalization --------------------------------------


def test_build_pointwise_uniform_example(ab_uniform, presence_a_pointwise):
    ebm = Ebm(base=ab_uniform, constraint_set=presence_a_pointwise, lam=[])
    z, p = ebm.exact_normalize()
    assert z == pytest.approx(4.0 / 7.0, rel=1e-12)
    expected = np.array([0.0, 0.25, 0.0, 0.25, 0.25, 0.25, 0.0])
    assert np.allclose(p, expected)


def test_build_pointwise_b_identically_one(ab_space, ab_uniform):
    always = PredicateTable({}, default=1.0, feature_id="always")
    cs = ConstraintSet([ConstraintSpec(always, 1.0, pointwise=True)])
    ebm = Ebm(base=ab_uniform, constraint_set=cs, lam=[])
    z, p = ebm.exact_normalize()
    assert z == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(p, ab_uniform.exact_distribution())


def test_build_pointwise_empty_support(ab_space, ab_uniform):
    never = PredicateTable({}, default=0.0, feature_id="never")
    cs = ConstraintSet([ConstraintSpec(never, 1.0, pointwise=True)])
    ebm = Ebm(base=ab_uniform, constraint_set=cs, lam=[])
    with pytest.raises(EmptySupport):
        ebm.exact_normalize()


def test_exact_normalize_z_one_at_lambda_zero(ab_space, ab_uniform):
    cs = presence_set(ab_space, "a", 0.5)
    ebm = Ebm(base=ab_uniform, constraint_set=cs, lam=np.zeros(1))
    z, _ = ebm.exact_normalize()
    assert z == pytest.approx(1.0, abs=1e-9)


def test_lambda_pairs_with_the_distributional_columns_only(ab_space, ab_uniform):
    v = ab_space.vocabulary
    cs = hybrid_set(TokenPresence(v, "a"), TokenPresence(v, "b"), 0.5)
    for lam in ([], [0.5, 0.5]):
        with pytest.raises(ConfigError):
            Ebm(base=ab_uniform, constraint_set=cs, lam=lam)


def test_scaled_scores_double_z_keep_p(ab_uniform, presence_a_pointwise):
    ebm = Ebm(base=ab_uniform, constraint_set=presence_a_pointwise, lam=[])
    z, p = ebm.exact_normalize()
    z2, p2 = scaled(ebm, np.log(2.0)).exact_normalize()
    assert z2 == pytest.approx(2 * z, rel=1e-12)
    assert np.allclose(p2, p)



# The exact oracles' memory bounds, in universe-sized float64 arrays. A
# target's normalization holds the base's exact log-probs, which become its
# distribution in place, and the universe states, here one byte per
# sequence; the tilt's temporaries are block-sized. With those caches filled,
# the policy's exact distribution adds one array and its prefix DP's
# block-sized gathers; the snapshot's exact columns come from the target DP,
# whose parts hold at most ENUMERATION_CHUNK_ROWS prefixes, so it adds almost
# nothing. At 256-row blocks both targets read 2.64-2.65 (a tilt and a
# pointwise product; 2.64 over bool features); a snapshot that enumerated
# read 2.68 and 4.21 (its `exact_kl` compacted both distributions onto a
# pointwise target's support). The universe's token matrix of a length-8
# space would add four arrays, and its lengths one; the tests' per-block
# batches stay small while ENUMERATION_CHUNK_ROWS is.
ORACLE_SPACE = (4, 8)  # 87,381 sequences
ORACLE_UNIVERSE_ARRAYS = 2.7


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", 256)


def exact_oracles_peak(ebm, policy, rng):
    """The tracemalloc peak of every exact oracle a snapshot's target and policy
    have, in universe-sized float64 arrays."""

    def oracles():
        ebm.exact_normalize()
        exact_moments(ebm)
        policy.exact_distribution()
        snapshot(0, "gdc", policy, ebm, rng, EvalOptions(sample_size=64, exact=True))

    _, peak = traced_peak(oracles)
    return universe_arrays(peak, ebm.space)


def test_exact_oracles_leave_the_enumeration_unencoded(small_blocks, rng):
    # a universe batch is built per call, so no scoring can pin a code matrix to it
    space = small_space(*ORACLE_SPACE)
    base = random_model(space, 2, rng)
    policy = base.to_order(space.lmax, trainable=True)
    ebm = Ebm(base=base, constraint_set=presence_set(space, "a", 0.4), lam=np.array([0.8]))
    assert exact_oracles_peak(ebm, policy, rng) <= ORACLE_UNIVERSE_ARRAYS
    assert enumeration(space)._events is None


@pytest.mark.parametrize("pointwise", [False, True], ids=["exponential", "pointwise-product"])
def test_exact_normalize_matches_enumeration_bitwise(pointwise, rng):
    space = small_space(3, 4)
    base = random_model(space, 2, rng, scale=1.0)
    cs = presence_set(space, "a", 1.0 if pointwise else 0.4, pointwise=pointwise)
    if pointwise:
        ebm = scaled(Ebm(base=base, constraint_set=cs, lam=[]), 0.3)
    else:
        ebm = scaled(Ebm(base=base, constraint_set=cs, lam=np.array([-1.7])), 0.3)
    scores = np.exp(ebm.log_score_batch(enumeration(space)))
    z, p = ebm.exact_normalize()
    assert z == float(scores.sum())
    assert np.array_equal(p, scores / z)


@pytest.mark.parametrize(
    "pointwise", [(False,) * 3, (True,) * 3, (True, False, False), ()],
    ids=["exponential", "pointwise-product", "hybrid", "empty"],
)
def test_scores_match_member_by_member_reference_bitwise(pointwise, rng):
    space = small_space(3, 4)
    base = random_model(space, 2, rng)
    v = space.vocabulary
    features = [TokenPresence(v, "a"), PrefixMatch(v, ["b"]), WordlistPresence(v, ["a", "c"])]
    cs = ConstraintSet([
        ConstraintSpec(f, 1.0, pointwise=True) if pw else ConstraintSpec(f, 0.4)
        for f, pw in zip(features, pointwise)
    ])
    lam = np.array([2.5, -1.3, 0.7])[: pointwise.count(False)]
    ebm = Ebm(base=base, constraint_set=cs, lam=lam)
    enum = enumeration(space)
    reference = member_log_scores(ebm, enum)
    assert np.array_equal(ebm.log_score_batch(enum), reference)
    z, p = ebm.exact_normalize()
    assert z == float(np.exp(reference).sum())
    assert np.array_equal(p, np.exp(reference) / z)


def test_product_mode_evaluates_the_universe_once(monkeypatch, rng):
    """A normalization and an exact snapshot, each asked for twice, run the
    universe states pass once per target, and `feature_matrix` sees only the
    snapshot's samples, never a universe row."""
    space = small_space(3, 4)
    base = random_model(space, 2, rng)
    policy = base.to_order(space.lmax, trainable=True)
    passes, evaluated = [], []
    final_states, feature_matrix = ebm_module._final_states, ConstraintSet.feature_matrix

    def counted_pass(space, auto):
        passes.append(space)
        return final_states(space, auto)

    def counted(self, batch):
        evaluated.append(len(batch))
        return feature_matrix(self, batch)

    monkeypatch.setattr(ebm_module, "_final_states", counted_pass)
    monkeypatch.setattr(ConstraintSet, "feature_matrix", counted)
    targets = [
        Ebm(base=base, constraint_set=presence_set(space, "a", 1.0, pointwise=True), lam=[]),
        Ebm(base=base, constraint_set=presence_set(space, "a", 0.4), lam=np.array([0.8])),
    ]
    options = EvalOptions(sample_size=64, exact=True)
    for ebm in targets:
        for _ in range(2):
            ebm.exact_normalize()
            snapshot(0, "gdc", policy, ebm, rng, options)
        ebm.universe_states()
    assert len(passes) == len(targets)
    assert evaluated == [options.sample_size] * (2 * len(targets))


def test_exact_oracles_never_build_the_enumeration(small_blocks, rng):
    space = small_space(*ORACLE_SPACE)
    base = random_model(space, 2, rng)
    policy = base.to_order(space.lmax, trainable=True)
    for ebm in (
        Ebm(base=base, constraint_set=presence_set(space, "a", 0.4), lam=np.array([0.8])),
        Ebm(base=base, constraint_set=presence_set(space, "a", 1.0, pointwise=True), lam=[]),
    ):
        assert exact_oracles_peak(ebm, policy, rng) <= ORACLE_UNIVERSE_ARRAYS, ebm.lam
    assert not hasattr(SequenceSpace, "enumeration")
    assert not hasattr(SequenceSpace, "enumeration_blocks")


def test_cold_exact_normalize_holds_one_universe_array(small_blocks, rng):
    """A cold normalization makes the base's exact log-probs, which become the
    distribution in place, and the universe states, one byte per sequence:
    it reads 1.19 universe-sized float64 arrays (1.21-1.22 over bool features). A
    whole-universe tilt over float64 features read 3.05."""
    space = small_space(*ORACLE_SPACE)
    base = random_model(space, 2, rng)
    ebm = Ebm(base=base, constraint_set=presence_set(space, "a", 0.4), lam=np.array([0.8]))
    _, peak = traced_peak(ebm.exact_normalize)
    assert universe_arrays(peak, space) <= 1.3


def referee_sets(space):
    """Constraint sets for the states referee: each of the four kinds alone,
    a hybrid set (a pointwise presence beside a prefix match and a ratio, 200
    states) and the product of all four (400 states, past a byte)."""
    v = space.vocabulary
    presence, wordlist = TokenPresence(v, "a"), WordlistPresence(v, ["b", "d"])
    prefix = PrefixMatch(v, ["c", "a"])
    ratio = TokenRatio(v, ["a"], ["a", "b"], empty_default=0.5)
    hybrid = [ConstraintSpec(presence, 1.0, pointwise=True), ConstraintSpec(prefix, 0.2),
              ConstraintSpec(ratio, 0.5)]
    product = [ConstraintSpec(f, 0.4) for f in (presence, wordlist, prefix, ratio)]
    singles = [[ConstraintSpec(f, 0.4)] for f in (presence, wordlist, prefix, ratio)]
    return [ConstraintSet(specs) for specs in [*singles, hybrid, product]]


def zero_lambda_target(base, cs):
    return Ebm(base=base, constraint_set=cs, lam=np.zeros(int(np.count_nonzero(~cs.pointwise))))


@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
def test_universe_states_equal_the_feature_matrix_bitwise(monkeypatch, chunk):
    """`values[states]` is `feature_matrix` over the enumeration, bit for bit,
    whatever the number of parents the pass gathers at a time; the states take
    one byte up to 256 states and two past it."""
    monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", chunk)
    space = small_space(4, 4)
    base = uniform_model(space)
    for cs in referee_sets(space):
        full = cs.feature_matrix(enumeration(space))
        states, values = zero_lambda_target(base, cs).universe_states()
        n_states = cs.automaton(space).n_states
        assert states.dtype == (np.uint8 if n_states <= 256 else np.uint16), n_states
        assert values[states].shape == full.shape
        assert values[states].tobytes() == full.tobytes(), cs.ids


def test_universe_states_guard_before_any_allocation(monkeypatch):
    """Past the enumeration guard the states pass raises UniverseTooLarge
    before it builds the automaton or anything universe-sized (111,111,111
    sequences, so one byte each would be 106 MiB)."""
    space = small_space(10, 8)
    ebm = zero_lambda_target(uniform_model(space), presence_set(space, "a", 0.4))

    def refused(self, space):
        raise AssertionError("the automaton was built before the guard ran")

    def states():
        with pytest.raises(UniverseTooLarge):
            ebm.universe_states()

    monkeypatch.setattr(ConstraintSet, "automaton", refused)
    _, peak = traced_peak(states)
    assert peak < 1 << 20


TARGET_KINDS = ["binary", "mixed", "pointwise-product", "hybrid"]


def blockwise_target(kind, rng):
    """A target on a 1,365-sequence space (many 256-row blocks): three binary
    constraints (presence, wordlist and prefix-match), the same three plus a
    token-ratio, the three as a pointwise product, or the presence one
    pointwise beside the other two and the token-ratio."""
    space = small_space(4, 5)
    base = random_model(space, 2, rng, scale=1.0)
    v = space.vocabulary
    features = [TokenPresence(v, "a"), WordlistPresence(v, ["b", "d"]), PrefixMatch(v, ["c"])]
    if kind in ("mixed", "hybrid"):
        features.append(TokenRatio(v, ["a"], ["a", "b"], empty_default=0.5))
    pointwise = {"pointwise-product": len(features), "hybrid": 1}.get(kind, 0)
    cs = ConstraintSet([
        ConstraintSpec(f, 1.0, pointwise=True) if j < pointwise else ConstraintSpec(f, 0.4)
        for j, f in enumerate(features)
    ])
    return Ebm(base=base, constraint_set=cs, lam=rng.uniform(-3.0, 3.0, len(cs) - pointwise))


@pytest.mark.parametrize("chunk", [256, 7])  # whole blocks; a ragged last block
@pytest.mark.parametrize("kind", TARGET_KINDS)
def test_blockwise_tilt_equals_the_whole_matrix_tilt_bitwise(monkeypatch, rng, kind, chunk):
    monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", chunk)
    ebm = blockwise_target(kind, rng)
    z_ref, p_ref = whole_matrix_normalize(ebm)
    z, p = ebm.exact_normalize()
    assert z == z_ref
    assert p.tobytes() == p_ref.tobytes()


@pytest.mark.parametrize("kind", ["binary", "mixed"])
def test_universe_states_take_the_smallest_unsigned_dtype(monkeypatch, rng, kind):
    """Three binary constraints make 12 states, one byte per sequence; with
    the token-ratio they make 432, two bytes."""
    monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", 7)
    ebm = blockwise_target(kind, rng)
    states, values = ebm.universe_states()
    assert states.dtype == (np.uint8 if kind == "binary" else np.uint16)
    assert len(values) == (12 if kind == "binary" else 432) and values.dtype == np.float64
    full = ebm.constraint_set.feature_matrix(enumeration(ebm.space))
    assert values[states].tobytes() == full.tobytes()


@pytest.mark.parametrize("kind", ["binary", "mixed"])
def test_universe_moments_agree_with_the_whole_matrix(monkeypatch, rng, kind):
    """Blockwise sums associate differently: within 1e-12 relative of
    `d @ phi` on many blocks, and equal to it on one block."""
    ebm = blockwise_target(kind, rng)
    policy = random_model(ebm.space, 3, rng)
    dists = [ebm.exact_normalize()[1], policy.exact_distribution()]
    phi = ebm.constraint_set.feature_matrix(enumeration(ebm.space))  # the whole matrix at once
    for chunk in (256, 7):
        monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", chunk)
        for d in dists:
            np.testing.assert_allclose(universe_moments(ebm, d), d @ phi, rtol=1e-12, atol=0)
    monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", 1 << 16)
    for d in dists:
        assert universe_moments(ebm, d).tobytes() == (d @ phi).tobytes()
    assert exact_moments(ebm).tobytes() == (dists[0] @ phi).tobytes()


# -- the exact DP against enumeration ------------------------------------------

DP_RTOL = 1e-12
DP_KL_ATOL = 1e-14  # a KL near 0 (lam near 0) is compared absolutely


def dp_target(rng, base_order: int, case: int) -> Ebm:
    """A target on criterion 4's random small spaces (2-4 body tokens, lmax
    3-5): an order-`base_order` base and one to three of the four feature
    kinds, each binary one pointwise with probability 0.3. Every fourth case
    is pointwise-only, so p has zero-mass contexts; the others take every lam
    at +lambda_clamp, -lambda_clamp or in (-1.5, 1.5), by case."""
    space = small_space(int(rng.integers(2, 5)), int(rng.integers(3, 6)))
    v = space.vocabulary

    def token():
        return v.tokens[v.body_indices[int(rng.integers(space.body_size))]]

    base = random_model(space, base_order, rng, scale=0.6)
    kinds = [
        TokenPresence(v, token(), "presence"),
        WordlistPresence(v, [token(), token()], "wordlist"),
        PrefixMatch(v, [token() for _ in range(int(rng.integers(1, 3)))], "prefix"),
        TokenRatio(v, [v.tokens[0]], [v.tokens[0], v.tokens[1]], 0.3, "ratio"),
    ]
    pointwise_only = case % 4 == 0
    chosen = [kinds[i] for i in rng.permutation(3 if pointwise_only else 4)[: rng.integers(1, 4)]]
    cs = ConstraintSet([
        ConstraintSpec(f, 1.0, pointwise=True)
        if pointwise_only or (f.binary and rng.random() < 0.3) else ConstraintSpec(f, 0.5)
        for f in chosen
    ])
    count = int((~cs.pointwise).sum())
    if case % 3 < 2:
        lam = np.full(count, [DEFAULT_LAMBDA_CLAMP, -DEFAULT_LAMBDA_CLAMP][case % 3])
    else:
        lam = rng.uniform(-1.5, 1.5, size=count)
    return Ebm(base=base, constraint_set=cs, lam=lam)


def dp_policies(rng, ebm: Ebm) -> list[TabularARModel]:
    """Policies of every order 1..lmax, the base itself, and the base lifted
    to lmax with some contexts written (shared and owned rows)."""
    space = ebm.space
    policies = [random_model(space, k, rng, scale=0.6) for k in range(1, space.lmax + 1)]
    lifted = ebm.base.to_order(space.lmax, trainable=True)
    written = np.unique(rng.integers(0, lifted.coding.n_contexts, size=5))
    grad = rng.standard_normal((len(written), space.vocabulary.size))
    lifted.apply_update(RowGradient(written, grad), 0.5)
    return policies + [ebm.base, lifted]


def assert_dp_matches_enumeration(ebm: Ebm, rng) -> None:
    """Z of `Ebm.exact_target`, KL(p || a) and E_p[phi] of
    `exact_target_terms`, and KL(p || pi) and E_pi[phi] of
    `exact_policy_terms` for every policy of `dp_policies`, each against
    enumeration."""
    try:
        z, p = ebm.exact_normalize()
    except EmptySupport:  # a pointwise set no sequence satisfies
        with pytest.raises(EmptySupport):
            ebm.exact_target()
        return
    assert ebm.exact_target().z == pytest.approx(z, rel=DP_RTOL, abs=0)
    kl_p_a, moments = ebm.exact_target_terms()
    np.testing.assert_allclose(moments, exact_moments(ebm), rtol=DP_RTOL, atol=0)
    assert kl_p_a == pytest.approx(exact_kl(p, ebm.base.exact_distribution()),
                                   rel=DP_RTOL, abs=DP_KL_ATOL)
    for policy in dp_policies(rng, ebm):
        pi = policy.exact_distribution()
        kl, e_phi = ebm.exact_policy_terms(policy)
        assert kl == pytest.approx(exact_kl(p, pi), rel=DP_RTOL, abs=DP_KL_ATOL), policy.order
        np.testing.assert_allclose(e_phi, universe_moments(ebm, pi), rtol=DP_RTOL, atol=0)


@pytest.mark.parametrize("base_order", [1, 2, 3])
def test_target_dp_matches_enumeration(base_order):
    rng = np.random.default_rng(4000 + base_order)
    for case in range(16):
        assert_dp_matches_enumeration(dp_target(rng, base_order, case), rng)


def random_table(rng, space, feature_id: str) -> PredicateTable:
    """A real-valued table on up to eight random sequences of `space`, the
    empty one among them at times, each worth a uniform draw from [0, 1], as
    is every other sequence."""
    body = space.vocabulary.body_indices
    keys = {
        Sequence(tuple(int(t) for t in rng.choice(body, size=rng.integers(0, space.lmax + 1))))
        for _ in range(int(rng.integers(1, 9)))
    }
    return PredicateTable({x: float(rng.random()) for x in keys}, default=float(rng.random()),
                          binary=False, feature_id=feature_id)


@pytest.mark.parametrize("base_order", [1, 2])
def test_target_dp_matches_enumeration_on_arbitrary_features(base_order):
    """One or two random tables, each an automaton over the trie of its keys,
    so the DP runs on features that none of the four kinds can express."""
    rng = np.random.default_rng(4100 + base_order)
    for _ in range(8):
        space = small_space(int(rng.integers(2, 4)), int(rng.integers(3, 5)))
        tables = [random_table(rng, space, f"t{i}") for i in range(int(rng.integers(1, 3)))]
        cs = ConstraintSet([ConstraintSpec(t, 0.5) for t in tables])
        base = random_model(space, base_order, rng, scale=0.6)
        ebm = Ebm(base=base, constraint_set=cs, lam=rng.uniform(-1.5, 1.5, size=len(tables)))
        assert_dp_matches_enumeration(ebm, rng)


def test_policy_dp_does_not_depend_on_how_the_policy_stores_its_rows(rng):
    """A lifted policy shares its base's rows; the same distribution with one
    stored row per context gives the same bits."""
    space = small_space(3, 5)
    base = random_model(space, 2, rng)
    ebm = Ebm(base=base, constraint_set=presence_set(space, "a", 0.4), lam=np.array([0.8]))
    lifted = dp_policies(rng, ebm)[-1]
    dense = TabularARModel(space=space, order=lifted.order, logits=dense_logits(lifted))
    assert len(lifted.logits) < len(dense.logits)
    kl, e_phi = ebm.exact_policy_terms(lifted)
    kl_dense, e_phi_dense = ebm.exact_policy_terms(dense)
    assert (kl, e_phi.tobytes()) == (kl_dense, e_phi_dense.tobytes())


def test_policy_dp_in_small_parts_matches_one_part(monkeypatch, rng):
    space = small_space(3, 6)
    ebm = Ebm(base=random_model(space, 2, rng), constraint_set=presence_set(space, "b", 0.3),
              lam=np.array([-1.2]))
    for policy in dp_policies(rng, ebm):
        whole = ebm.exact_policy_terms(policy)
        monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", 7)
        kl, e_phi = ebm.exact_policy_terms(policy)
        monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", 1 << 16)
        assert kl == pytest.approx(whole[0], rel=DP_RTOL)
        np.testing.assert_allclose(e_phi, whole[1], rtol=DP_RTOL, atol=0)


def test_policy_dp_refuses_a_row_whose_exp_underflows_where_p_has_mass(rng):
    """A logit 1e5 below its row's others has a finite log-prob whose exp is
    0: where p puts mass on that token the exact KL is refused, as the
    enumerated KL refuses a sequence of probability 0; where p puts none it
    is not. A trainable model refuses such a cell, so the policy is frozen."""
    space = small_space(3, 3)
    v = space.vocabulary
    base = random_model(space, 2, rng)
    lifted = base.to_order(space.lmax)
    logits = lifted.logits.copy()
    logits[lifted.row_map[0], v.index("a")] -= 1e5  # the empty prefix's row, read by it alone
    policy = TabularARModel(space=space, order=space.lmax, logits=logits, row_map=lifted.row_map)
    assert np.count_nonzero(policy.row_map == policy.row_map[0]) == 1
    row = policy.log_softmax[policy.row_map[0]]
    assert np.isfinite(row).all() and np.exp(row[v.index("a")]) == 0.0
    tilted = Ebm(base=base, constraint_set=presence_set(space, "a", 0.4), lam=np.array([0.8]))
    with pytest.raises(SupportViolation, match="^second distribution misses support of the first$"):
        tilted.exact_policy_terms(policy)
    starts_with_b = ConstraintSet([ConstraintSpec(PrefixMatch(v, ["b"]), 1.0, pointwise=True)])
    ebm = Ebm(base=base, constraint_set=starts_with_b, lam=[])
    kl, _ = ebm.exact_policy_terms(policy)
    assert kl == pytest.approx(exact_kl(ebm.exact_normalize()[1], policy.exact_distribution()),
                               rel=DP_RTOL)


def test_target_dp_runs_past_the_enumeration_guard(rng):
    """Body 9 and lmax 12 hold 3.2e11 sequences, past the guard, yet Z and
    E_p[phi] come from the DP. For one presence feature both have a closed
    form in the base's presence rate, here from the complement: the chance
    that the order-2 base never emits the token. The policy pass gives
    KL(p || a) and E_a[phi] back for the base itself."""
    space = small_space(9, 12)
    base = random_model(space, 2, rng)
    lam = 1.1
    ebm = Ebm(base=base, constraint_set=presence_set(space, "c", 0.5), lam=np.array([lam]))
    with pytest.raises(UniverseTooLarge):
        ebm.exact_normalize()
    probs = np.exp(base.log_softmax[base.row_map])  # row 0: empty context; 1 + r: last token r
    c, eos = space.vocabulary.index("c"), space.vocabulary.eos_index
    alive, never = np.eye(len(probs))[0], 0.0  # mass per context of the prefixes without c
    for _ in range(space.lmax):
        never += alive @ probs[:, eos]
        moved = alive[:, None] * probs[:, space.vocabulary.body_indices]
        moved[:, c] = 0.0
        alive = np.concatenate([[0.0], moved.sum(axis=0)])
    has = 1.0 - (never + alive.sum())
    z = 1.0 + (np.exp(lam) - 1.0) * has
    assert ebm.exact_target().z == pytest.approx(z, rel=DP_RTOL)
    kl_p_a, moments = ebm.exact_target_terms()
    assert moments[0] == pytest.approx(np.exp(lam) * has / z, rel=DP_RTOL)
    assert kl_p_a == pytest.approx(lam * moments[0] - np.log(z), rel=DP_RTOL)
    kl, e_phi = ebm.exact_policy_terms(base)
    assert kl == pytest.approx(kl_p_a, rel=DP_RTOL)
    assert e_phi[0] == pytest.approx(has, rel=DP_RTOL)


def test_policy_dp_walks_sequences_longer_than_the_recursion_limit(rng):
    """At lmax 1,500 the walk is 1,500 steps deep. For an order-1 base a
    presence rate is a geometric sum, and the base as its own policy gives
    KL(p || a) back."""
    space = small_space(2, 1500)
    base = random_model(space, 1, rng)
    ebm = Ebm(base=base, constraint_set=presence_set(space, "a", 0.5), lam=np.array([0.7]))
    q = np.exp(base.log_softmax[0])
    stay = q[space.vocabulary.index("b")]  # a step that neither ends nor emits "a"
    never = q[space.vocabulary.eos_index] * (1 - stay**space.lmax) / (1 - stay) + stay**space.lmax
    kl, e_phi = ebm.exact_policy_terms(base)
    assert e_phi[0] == pytest.approx(1.0 - never, rel=DP_RTOL)
    assert kl == pytest.approx(ebm.exact_target_terms()[0], rel=DP_RTOL)


def test_target_dp_guards_the_product_state_count(ab_space, ab_uniform):
    """Thirteen presence features take 2 ** 13 product states, past the
    4,096 the guard allows: the DP refuses them by name, exit code 4."""
    v = ab_space.vocabulary
    cs = ConstraintSet([ConstraintSpec(TokenPresence(v, "a", f"a{i}"), 0.5) for i in range(13)])
    ebm = Ebm(base=ab_uniform, constraint_set=cs, lam=np.zeros(13))
    with pytest.raises(AutomatonTooLarge, match="8192 states, more than 4096") as err:
        ebm.exact_target()
    assert err.value.exit_code == 4



@pytest.mark.parametrize("kind", ["presence", "ratio"])
def test_target_dp_tables_hold_no_vocabulary_axis(rng, kind):
    """On a base of order lmax every prefix is its own base context, so the
    DP's tables are as large as they get: beta(t, c, s) holds b**t contexts
    times the states at each step t < lmax - 1, and the base's stored rows
    times the states at the last, and nothing else is kept. Building them
    peaks at 3.22 (presence, 2 states) and 3.06 (ratio, 81 states) times the
    tables' own bytes; a version that kept p(v | t, c, s) with its
    vocabulary axis peaked at 15.9 and 15.6 times them."""
    space = small_space(4, 8)
    base = random_model(space, space.lmax, rng)
    v = space.vocabulary
    feature = TokenPresence(v, "a") if kind == "presence" else TokenRatio(v, ["a"], ["a", "b"], 0.5)
    ebm = Ebm(base=base, constraint_set=ConstraintSet([ConstraintSpec(feature, 0.4)]),
              lam=np.array([0.8]))
    dp, peak = traced_peak(ebm.exact_target)
    states, rows = dp.automaton.n_states, len(base.log_softmax)
    keys = [4**t for t in range(space.lmax - 1)] + [rows]
    assert [t.shape for t in dp.beta] == [(k, states) for k in keys]
    tables = sum(t.nbytes for t in dp.beta)
    assert tables == 8 * states * sum(keys)
    assert peak <= 4.0 * tables


def test_target_dp_guards_its_table_cells(monkeypatch, rng):
    """An order-lmax base on body 4, lmax 5 gives the DP 85 contexts before
    the last step and 341 stored rows at it; a ratio's 36 states make 15,336
    cells, past a guard of 2,000 that the 1,365-sequence universe passes."""
    space = small_space(4, 5)
    base = random_model(space, space.lmax, rng)
    v = space.vocabulary
    ratio = ConstraintSet([ConstraintSpec(TokenRatio(v, ["a"], ["a", "b"], 0.5), 0.4)])
    ebm = Ebm(base=base, constraint_set=ratio, lam=np.array([0.8]))
    monkeypatch.setattr(seqspace, "ENUMERATION_GUARD", 2000)
    space.guard()
    with pytest.raises(AutomatonTooLarge, match="15336 .* cells, more than 2000$") as err:
        ebm.exact_target()
    assert err.value.exit_code == 4

# -- information-geometry properties -------------------------------------------


def test_pointwise_limit_of_clamped_exponential(ab_space, ab_uniform, presence_a_pointwise):
    # the same feature as a distributional constraint, tilted to the clamp
    (spec,) = presence_a_pointwise
    exponential = Ebm(
        base=ab_uniform,
        constraint_set=ConstraintSet([ConstraintSpec(spec.feature, 0.5)]),
        lam=np.array([20.0]),
        lambda_clamp=20.0,
    )
    product = Ebm(base=ab_uniform, constraint_set=presence_a_pointwise, lam=[])
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
    phi = cs.feature_matrix(enumeration(space))
    lam_star = bisect_lambda(a_dist, phi[:, 0], 0.6)
    p = exact_tilted(a_dist, phi, np.array([lam_star]))
    kl_p_a = exact_kl(p, a_dist)
    states = np.arange(len(phi))  # a raw feature matrix is its own values
    perturbed = list(moment_preserving_perturbations(p, states, phi, count=6, rng=rng))
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
    phi = cs.feature_matrix(enumeration(space))[:, 0]
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
    phi = cs.feature_matrix(enumeration(space))
    lam_star = bisect_lambda(a_dist, phi[:, 0], 0.4)
    p = exact_tilted(a_dist, phi, np.array([lam_star]))
    kl_p_a = exact_kl(p, a_dist)
    for c in moment_preserving_perturbations(p, np.arange(len(phi)), phi, count=100, rng=rng):
        assert exact_kl(c, a_dist) >= kl_p_a - 1e-6


@pytest.mark.parametrize("kind", ["hybrid", "token-ratio"])
def test_perturbations_keep_the_moments_and_the_mass(rng, kind):
    """On a hybrid target p's support is a strict subset of the universe (b
    is 0 off it), and on a token-ratio target the states are 25 counts: every
    witness keeps p's feature moments and total mass to 1e-12, stays >= 0
    and puts no mass off p's support."""
    space = small_space(4, 4)
    base = random_model(space, 2, rng, scale=1.0)
    v = space.vocabulary
    ratio = ConstraintSpec(TokenRatio(v, ["a"], ["a", "b"], empty_default=0.5), 0.5)
    if kind == "hybrid":
        cs = ConstraintSet([ConstraintSpec(TokenPresence(v, "a"), 1.0, pointwise=True),
                            ConstraintSpec(PrefixMatch(v, ["c"]), 0.4), ratio])
    else:
        cs = ConstraintSet([ratio])
    lam = rng.uniform(-1.5, 1.5, np.count_nonzero(~cs.pointwise))
    ebm = Ebm(base=base, constraint_set=cs, lam=lam)
    _, p = ebm.exact_normalize()
    support = p > 0
    assert support.all() == (kind == "token-ratio")
    phi = cs.feature_matrix(enumeration(space))
    states, values = ebm.universe_states()
    witnesses = list(moment_preserving_perturbations(p, states, values, count=5, rng=rng))
    assert len(witnesses) == 5
    for c in witnesses:
        assert c.min() >= 0.0 and not c[~support].any()
        assert abs(c.sum() - 1.0) <= 1e-12
        assert np.abs(c @ phi - p @ phi).max() <= 1e-12
        assert not np.array_equal(c, p)  # a witness, not p itself


def test_fit_exact_moment_reaches_target(ab_space, ab_uniform):
    cs = presence_set(ab_space, "a", 0.8)
    report, ebm = fit_lambda(ab_uniform, cs, fit_config())
    assert report.converged
    assert abs(exact_moments(ebm)[0] - 0.8) < 0.02


def test_lambda_clamp_is_enforced(ab_space, ab_uniform):
    cs = presence_set(ab_space, "a", 0.999999)
    report, ebm = fit_lambda(ab_uniform, cs, fit_config(tol=1e-14, steps=3000, clamp=2.0))
    assert not report.converged
    assert abs(report.lam[0]) <= 2.0 + 1e-12
