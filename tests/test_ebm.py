import numpy as np
import pytest

from distctl.ebm import (
    Ebm,
    FitConfig,
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
    UnattainableTarget,
)
from distctl import seqspace
from distctl.estimators import exact_kl
from distctl.features import (
    ConstraintSet,
    ConstraintSpec,
    PrefixMatch,
    TokenPresence,
    TokenRatio,
    WordlistPresence,
)
from distctl.metrics import EvalOptions, snapshot
from distctl.seqspace import SequenceSpace

from helpers import (
    PredicateTable,
    Sequence,
    batch_from,
    batch_of,
    bisect_lambda,
    enumerate_sequences,
    enumeration,
    exact_hybrid_projection,
    from_distribution,
    hybrid_task,
    member_log_scores,
    random_model,
    scaled,
    small_space,
    snis_standard_error,
    traced_peak,
    uniform_model,
    universe_arrays,
    whole_matrix_normalize,
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
    phi = cs.feature_matrix(enumeration(ab_space))[:, 0]
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


def test_fit_returns_at_once_on_all_pointwise(monkeypatch, ab_uniform, presence_a_pointwise):
    def no_draws(*args):
        raise AssertionError("a pointwise-only fit draws nothing")

    monkeypatch.setattr(type(ab_uniform), "sample_batch", no_draws)
    report, ebm = fit_lambda(ab_uniform, presence_a_pointwise, fit_config(n=100))
    assert report.lam.shape == report.achieved_moments.shape == (0,)
    assert (report.steps_used, report.converged) == (0, True)
    assert ebm.lam.shape == (0,) and list(ebm.pointwise_columns) == [0]


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
    np.testing.assert_allclose(ebm.exact_moments(), [1.0, 0.5], rtol=0, atol=1e-9)
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
    assert ebm.exact_moments()[0] == pytest.approx(1.0, abs=1e-12)


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


def test_hybrid_fit_is_near_the_exact_projection():
    """On criterion 10's task the fit weighs only the rows with b = 1: its
    target puts no mass off b and sits within 2e-3 nats of the projection."""
    base, cs, config = hybrid_task()
    report, ebm = fit_lambda(base, cs, config)
    _, p_star = exact_hybrid_projection(base, cs)
    _, p = ebm.exact_normalize()
    assert report.converged
    assert ebm.exact_moments()[0] == pytest.approx(1.0, abs=1e-12)
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
# distribution in place, and the universe features, here one bool per
# sequence; the tilt's temporaries are block-sized. With its caches filled, a
# snapshot adds the policy's distribution, and `exact_kl` its support masks.
# A target with a pointwise constraint has zeros in its distribution, so
# `exact_kl` also copies both distributions onto its support, nearly two arrays
# more. At 256-row blocks the peaks read 2.68 (a tilt alone) and 4.21 (a
# pointwise product). Keyed by whether the target has a pointwise constraint. The universe's token matrix of a length-8 space would add four
# arrays, and its lengths one; its per-block batches stay small while
# ENUMERATION_CHUNK_ROWS is.
ORACLE_SPACE = (4, 8)  # 87,381 sequences
ORACLE_UNIVERSE_ARRAYS = {False: 2.9, True: 4.6}


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", 256)


def exact_oracles_peak(ebm, policy, rng):
    """The tracemalloc peak of every exact oracle a snapshot's target and policy
    have, in universe-sized float64 arrays."""

    def oracles():
        ebm.exact_normalize()
        ebm.exact_moments()
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
    assert exact_oracles_peak(ebm, policy, rng) <= ORACLE_UNIVERSE_ARRAYS[False]
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
    space = small_space(3, 4)
    base = random_model(space, 2, rng)
    ebm = Ebm(base=base, constraint_set=presence_set(space, "a", 1.0, pointwise=True), lam=[])
    policy = base.to_order(space.lmax, trainable=True)
    universe_blocks, evaluated = [], []
    enumeration_blocks = SequenceSpace.enumeration_blocks
    evaluate_batch = TokenPresence.evaluate_batch

    def recorded_blocks(self):
        for block in enumeration_blocks(self):
            universe_blocks.append(block)
            yield block

    def counted(self, batch):
        evaluated.append(batch)
        return evaluate_batch(self, batch)

    monkeypatch.setattr(SequenceSpace, "enumeration_blocks", recorded_blocks)
    monkeypatch.setattr(TokenPresence, "evaluate_batch", counted)
    ebm.exact_normalize()
    snapshot(0, "gdc", policy, ebm, rng, EvalOptions(sample_size=64, exact=True))
    universe_rows = sum(len(b) for b in evaluated if any(b is u for u in universe_blocks))
    assert universe_rows == space.universe_size


def test_exact_oracles_never_build_the_enumeration(small_blocks, rng):
    space = small_space(*ORACLE_SPACE)
    base = random_model(space, 2, rng)
    policy = base.to_order(space.lmax, trainable=True)
    for ebm in (
        Ebm(base=base, constraint_set=presence_set(space, "a", 0.4), lam=np.array([0.8])),
        Ebm(base=base, constraint_set=presence_set(space, "a", 1.0, pointwise=True), lam=[]),
    ):
        pointwise = bool(len(ebm.pointwise_columns))
        assert exact_oracles_peak(ebm, policy, rng) <= ORACLE_UNIVERSE_ARRAYS[pointwise], pointwise
    assert not hasattr(SequenceSpace, "enumeration")


def test_cold_exact_normalize_holds_one_universe_array(small_blocks, rng):
    """A cold normalization makes the base's exact log-probs, which become the
    distribution in place, and the universe features, one bool per sequence:
    it reads 1.23 universe-sized float64 arrays. A whole-universe tilt over
    float64 features read 3.05."""
    space = small_space(*ORACLE_SPACE)
    base = random_model(space, 2, rng)
    ebm = Ebm(base=base, constraint_set=presence_set(space, "a", 0.4), lam=np.array([0.8]))
    _, peak = traced_peak(ebm.exact_normalize)
    assert universe_arrays(peak, space) <= 1.3


@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
def test_phi_universe_blockwise_equals_the_full_matrix_bitwise(monkeypatch, chunk):
    space = small_space(4, 4)
    v = space.vocabulary
    cs = ConstraintSet(
        [
            ConstraintSpec(TokenPresence(v, "a"), 0.4),
            ConstraintSpec(WordlistPresence(v, ["b", "d"]), 0.3),
            ConstraintSpec(PrefixMatch(v, ["c", "a"]), 0.2),
            ConstraintSpec(TokenRatio(v, ["a"], ["a", "b"], empty_default=0.5), 0.5),
        ]
    )
    full = cs.feature_matrix(batch_of(list(enumerate_sequences(space)), space.lmax))
    monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", chunk)
    base = uniform_model(space)
    phi = Ebm(base=base, constraint_set=cs, lam=np.zeros(len(cs))).phi_universe()
    assert phi.shape == full.shape and phi.tobytes() == full.tobytes()


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
def test_phi_universe_is_bool_only_when_every_feature_is_binary(monkeypatch, rng, kind):
    monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", 7)
    ebm = blockwise_target(kind, rng)
    phi = ebm.phi_universe()
    assert phi.dtype == (bool if kind == "binary" else np.float64)
    full = ebm.constraint_set.feature_matrix(enumeration(ebm.space))
    assert phi.astype(float).tobytes() == full.tobytes()


@pytest.mark.parametrize("kind", ["binary", "mixed"])
def test_universe_moments_agree_with_the_whole_matrix(monkeypatch, rng, kind):
    """Blockwise sums associate differently: within 1e-12 relative of
    `d @ phi` on many blocks, and equal to it on one block."""
    ebm = blockwise_target(kind, rng)
    policy = random_model(ebm.space, 3, rng)
    dists = [ebm.exact_normalize()[1], policy.exact_distribution()]
    phi = ebm.phi_universe().astype(float)
    for chunk in (256, 7):
        monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", chunk)
        for d in dists:
            np.testing.assert_allclose(ebm.universe_moments(d), d @ phi, rtol=1e-12, atol=0)
    monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", 1 << 16)
    for d in dists:
        assert ebm.universe_moments(d).tobytes() == (d @ phi).tobytes()
    assert ebm.exact_moments().tobytes() == (dists[0] @ phi).tobytes()


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
    perturbed = list(moment_preserving_perturbations(p, phi, count=6, rng=rng))
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
