"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The anchor task used by several criteria: a bigram base fitted on a 200-line
synthetic corpus (3 body tokens, lmax 5), one rare token whose presence
feature has a base moment inside [0.05, 0.15], distributional target 0.5.
"""

import time

import numpy as np
import pytest

from distctl.baselines import BaselineConfig, train_baseline
from distctl.dpg import DpgConfig, dpg_iteration, init_state, train
from distctl.ebm import (
    Ebm,
    FitConfig,
    fit_lambda,
    moment_preserving_perturbations,
    snis_dual,
)
from distctl.estimators import exact_kl, importance_ratios, kl_p_from_logs, tvd_p_from_logs
from distctl.features import ConstraintSet, ConstraintSpec, PrefixMatch, TokenPresence
from distctl.lm import TabularARModel, mle_fit
from distctl.metrics import EvalOptions, self_bleu_n, zipf_table
from distctl.seqspace import tokenize_corpus

from helpers import (
    Sequence,
    batch_from,
    batch_of,
    bisect_lambda,
    dist_n,
    ebm_logs,
    enumerate_sequences,
    enumeration,
    estimate_kl_between_models,
    estimate_z,
    exact_entropy,
    exact_hybrid_projection,
    exact_moments,
    exact_tvd,
    grad_log_prob,
    hybrid_task,
    invalidate,
    naive_bleu,
    random_model,
    sequences,
    small_space,
    synthetic_corpus,
    uniform_model,
    universe_features,
    z_estimate_from_logs,
    zipf_total,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def anchor():
    """Criterion-1 task: base model, constraint set, fitted EBM, exact artifacts."""
    started = time.monotonic()
    rng = np.random.default_rng(20240501)
    text = synthetic_corpus(
        rng, tokens=["a", "b", "c"], weights=[0.55, 0.43, 0.02],
        n_lines=200, min_len=2, max_len=5,
    )
    tok = tokenize_corpus(text, lmax=5)
    space = tok.space
    base = mle_fit(space, tok.batch, order=2, smoothing=0.25)
    constraint_set = ConstraintSet(
        [ConstraintSpec(TokenPresence(space.vocabulary, "c"), 0.5)]
    )
    fit_config = FitConfig(
        sample_count=100000,
        tolerance=1e-6,
        max_steps=20000,
    )
    fit_report, ebm = fit_lambda(base, constraint_set, fit_config, np.random.default_rng(0))
    z, p = ebm.exact_normalize()
    phi = universe_features(ebm)
    return {
        "space": space,
        "base": base,
        "constraint_set": constraint_set,
        "report": fit_report,
        "ebm": ebm,
        "z": z,
        "p": p,
        "phi": phi,
        "base_moment": float(base.exact_distribution() @ phi[:, 0]),
        "fit_seconds": time.monotonic() - started,
    }


def test_criterion_1_exact_oracle_lambda_fit(anchor):
    started = time.monotonic()
    m0 = anchor["base_moment"]
    rep = anchor["report"]
    exact_moment = float(anchor["p"] @ anchor["phi"][:, 0])
    elapsed = anchor["fit_seconds"] + (time.monotonic() - started)
    ok = (
        0.05 <= m0 <= 0.15
        and rep.converged
        and rep.objective < 0.01
        and abs(exact_moment - 0.5) < 0.02
        and elapsed < 60.0
    )
    report(
        1,
        ok,
        f"base moment {m0:.4f}, objective {rep.objective:.2e} (< 0.01), "
        f"exact moment {exact_moment:.4f} (|gap| {abs(exact_moment - 0.5):.4f} < 0.02), "
        f"{elapsed:.1f}s",
    )


def test_anchor_fit_lands_on_the_snis_root(anchor):
    """On the anchor task, the fit's lam is the root of the SNIS moment
    equation over its own kept rows (bisected, uniform over those rows) to
    1e-8, reached in at most 10 Newton steps."""
    base, constraint_set = anchor["base"], anchor["constraint_set"]
    config = FitConfig(sample_count=100000, tolerance=1e-12)
    fit_report, _ = fit_lambda(base, constraint_set, config, np.random.default_rng(0))
    rows = base.sample_batch(config.sample_count, np.random.default_rng(0))
    phi = constraint_set.feature_matrix(rows)[:, 0]
    root = bisect_lambda(np.full(len(phi), 1.0 / len(phi)), phi, 0.5)
    assert fit_report.converged and fit_report.steps_used <= 10
    assert abs(fit_report.lam[0] - root) < 1e-8


def test_criterion_2_pythagorean_identity(anchor):
    started = time.monotonic()
    base, phi = anchor["base"], anchor["phi"]
    a_dist = base.exact_distribution()
    # refine lambda on the exact moment curve so p sits on C(0.5) to machine precision
    lam_star = bisect_lambda(a_dist, phi[:, 0], 0.5)
    tilt = a_dist * np.exp(lam_star * phi[:, 0])
    p = tilt / tilt.sum()
    kl_p_a = exact_kl(p, a_dist)
    rng = np.random.default_rng(5)
    states = np.arange(len(phi))  # a raw feature matrix is its own values
    witnesses = list(moment_preserving_perturbations(p, states, phi, count=5, rng=rng))
    on = a_dist * (phi[:, 0] == 1.0)
    off = a_dist * (phi[:, 0] == 0.0)
    witnesses.append(0.5 * on / on.sum() + 0.5 * off / off.sum())
    residuals = [
        abs(exact_kl(c, a_dist) - exact_kl(c, p) - kl_p_a) for c in witnesses
    ]
    elapsed = time.monotonic() - started
    ok = len(witnesses) >= 5 and max(residuals) < 1e-4 and elapsed < 30.0
    report(
        2,
        ok,
        f"{len(witnesses)} witnesses in C, max residual {max(residuals):.2e} (< 1e-4), "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_pointwise_limit_equivalence(anchor):
    space, base = anchor["space"], anchor["base"]
    feature = TokenPresence(space.vocabulary, "c")
    cs = ConstraintSet([ConstraintSpec(feature, 1.0, pointwise=True)])
    # the same feature as a distributional constraint, tilted to the clamp
    tilted = ConstraintSet([ConstraintSpec(feature, 0.5)])
    clamped = Ebm(base=base, constraint_set=tilted, lam=np.array([20.0]), lambda_clamp=20.0)
    product = Ebm(base=base, constraint_set=cs, lam=[])
    _, p_clamped = clamped.exact_normalize()
    _, p_product = product.exact_normalize()
    kl = exact_kl(p_product, p_clamped)
    report(3, kl < 1e-3, f"exact KL(product, clamped-exponential) {kl:.2e} (< 1e-3)")


def test_criterion_4_estimator_battery():
    started = time.monotonic()
    rng = np.random.default_rng(424242)
    n = 100
    samples_per_case = 100000
    hits = {"z": 0, "kl_p_pi": 0, "tvd": 0, "kl_pi_a": 0}
    for case in range(n):
        space = small_space(int(rng.integers(2, 5)), int(rng.integers(3, 6)))
        base = random_model(space, int(rng.integers(1, 3)), rng, scale=0.6)
        policy = random_model(space, int(rng.integers(1, 3)), rng, scale=0.6)
        token = space.vocabulary.tokens[int(rng.integers(space.body_size))]
        if case % 4 == 0:
            cs = ConstraintSet(
                [ConstraintSpec(TokenPresence(space.vocabulary, token), 1.0, pointwise=True)]
            )
            target = Ebm(base=base, constraint_set=cs, lam=[])
        else:
            cs = ConstraintSet([ConstraintSpec(TokenPresence(space.vocabulary, token), 0.5)])
            lam = float(rng.uniform(-1.5, 1.5))
            target = Ebm(base=base, constraint_set=cs, lam=np.array([lam]))
        z, p = target.exact_normalize()
        a_dist = base.exact_distribution()
        pi_dist = policy.exact_distribution()
        case_rng = np.random.default_rng(1000 + case)
        from_base = base.sample_batch(samples_per_case, case_rng)
        from_policy = policy.sample_batch(samples_per_case, case_rng)

        # each batch is scored once, and every estimate reads those scores
        log_p_score, log_q, log_pi = ebm_logs(target, policy, base, from_base)
        weights = importance_ratios(log_p_score, log_q)
        est = z_estimate_from_logs(log_p_score, log_q)
        if abs(est.value - z) <= 3 * est.standard_error:
            hits["z"] += 1
        est = kl_p_from_logs(weights, log_p_score, log_pi, z)
        if abs(est.value - exact_kl(p, pi_dist)) <= 3 * est.standard_error:
            hits["kl_p_pi"] += 1
        est = tvd_p_from_logs(weights, log_q, log_pi, z)
        if abs(est.value - exact_tvd(p, pi_dist)) <= 3 * est.standard_error:
            hits["tvd"] += 1
        est = estimate_kl_between_models(policy, base, from_policy)
        if abs(est.value - exact_kl(pi_dist, a_dist)) <= 3 * est.standard_error:
            hits["kl_pi_a"] += 1
    elapsed = time.monotonic() - started
    ok = all(v >= 95 for v in hits.values()) and elapsed < 300.0
    report(
        4,
        ok,
        f"within 3 SE out of {n}: z={hits['z']}, kl_p_pi={hits['kl_p_pi']}, "
        f"tvd={hits['tvd']}, kl_pi_a={hits['kl_pi_a']} (each >= 95), {elapsed:.0f}s",
    )


def test_criterion_5_dpg_convergence(anchor):
    started = time.monotonic()
    base, ebm, p, phi = anchor["base"], anchor["ebm"], anchor["p"], anchor["phi"]
    e_p = float(p @ phi[:, 0])
    kls, gaps = [], []
    for seed in (0, 1, 2):
        config = DpgConfig(
            iterations=200,
            samples_per_iteration=1024,
            learning_rate=2.0,
            adaptivity="kl",
            seed=seed,
        )
        result = train(base, ebm, config, EvalOptions(sample_size=64, eval_every=100))
        pi = result.policy.exact_distribution()
        kls.append(exact_kl(p, pi))
        gaps.append(abs(float(pi @ phi[:, 0]) - e_p))
    elapsed = time.monotonic() - started
    ok = all(k < 0.05 for k in kls) and all(g < 0.05 for g in gaps) and elapsed < 300.0
    report(
        5,
        ok,
        f"exact KL(p, pi) per seed {[round(k, 4) for k in kls]} (< 0.05), "
        f"moment gaps {[round(g, 4) for g in gaps]} (< 0.05), {elapsed:.0f}s",
    )


def test_criterion_6_adaptivity_ablation():
    space = small_space(3, 5)
    base = uniform_model(space, order=1)
    base.logits[:, space.vocabulary.index("c")] -= 2.5
    invalidate(base)
    cs = ConstraintSet(
        [ConstraintSpec(PrefixMatch(space.vocabulary, ["c", "c"]), 1.0, pointwise=True)]
    )
    target = Ebm(base=base, constraint_set=cs, lam=[])
    rarity, p = target.exact_normalize()
    assert rarity <= 1e-3

    budget = 1200
    samples_per_iteration = 256

    def samples_to_threshold(adaptivity, seed):
        config = DpgConfig(
            iterations=budget,
            samples_per_iteration=samples_per_iteration,
            learning_rate=128.0,
            adaptivity=adaptivity,
            seed=seed,
        )
        state = init_state(base, config)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        for _ in range(budget):
            dpg_iteration(state, target, config, rng)
            if exact_kl(p, state.policy.exact_distribution()) < 0.1:
                return state.samples_drawn
        return float("inf")

    rows = []
    for seed in (11, 12, 13):
        rows.append(
            {v: samples_to_threshold(v, seed) for v in ("kl", "tvd", "none")}
        )
    adaptive_wins = all(r["kl"] < r["none"] for r in rows)
    ratios = [max(r["kl"], r["tvd"]) / min(r["kl"], r["tvd"]) for r in rows]
    similar = all(r <= 2.0 for r in ratios)
    report(
        6,
        adaptive_wins and similar,
        f"base satisfaction {rarity:.1e} (<= 1e-3); samples-to-threshold {rows}; "
        f"kl/tvd ratios {[round(r, 2) for r in ratios]} (<= 2)",
    )


def test_criterion_7_baseline_ordering():
    rng = np.random.default_rng(7)
    text = synthetic_corpus(
        rng, tokens=["a", "b", "c"], weights=[0.55, 0.42, 0.03],
        n_lines=200, min_len=2, max_len=5,
    )
    tok = tokenize_corpus(text, lmax=5)
    space = tok.space
    base = mle_fit(space, tok.batch, order=2, smoothing=0.25)
    cs = ConstraintSet(
        [ConstraintSpec(TokenPresence(space.vocabulary, "c"), 1.0, pointwise=True)]
    )
    target = Ebm(base=base, constraint_set=cs, lam=[])
    a_dist = base.exact_distribution()
    ev = EvalOptions(sample_size=64, eval_every=10**6)
    iterations, k = 300, 256
    ordering_hits = 0
    entropy_hits = 0
    for seed in (0, 1, 2):
        gdc = train(
            base, target,
            DpgConfig(iterations=iterations, samples_per_iteration=k, learning_rate=2.0,
                      seed=seed),
            ev,
        )
        penalized = train_baseline(
            base, target,
            BaselineConfig(kind="kl-penalized", iterations=iterations,
                           samples_per_iteration=k, learning_rate=1.0, beta=0.15,
                           seed=seed),
            ev,
        )
        reinforce = train_baseline(
            base, target,
            BaselineConfig(kind="reinforce-phi", iterations=iterations,
                           samples_per_iteration=k, learning_rate=1.0, seed=seed),
            ev,
        )
        reward_p = train_baseline(
            base, target,
            BaselineConfig(kind="reinforce-P", iterations=iterations,
                           samples_per_iteration=k, learning_rate=10000.0, seed=seed),
            ev,
        )
        kl = {
            "gdc": exact_kl(gdc.policy.exact_distribution(), a_dist),
            "kl-penalized": exact_kl(penalized.policy.exact_distribution(), a_dist),
            "reinforce-phi": exact_kl(reinforce.policy.exact_distribution(), a_dist),
        }
        if kl["gdc"] < kl["kl-penalized"] < kl["reinforce-phi"]:
            ordering_hits += 1
        entropies = {
            "gdc": exact_entropy(gdc.policy.exact_distribution()),
            "kl-penalized": exact_entropy(penalized.policy.exact_distribution()),
            "reinforce-phi": exact_entropy(reinforce.policy.exact_distribution()),
            "reinforce-P": exact_entropy(reward_p.policy.exact_distribution()),
        }
        if min(entropies, key=entropies.get) == "reinforce-P":
            entropy_hits += 1
    ok = ordering_hits >= 2 and entropy_hits == 3
    report(
        7,
        ok,
        f"KL ordering gdc < kl-penalized < reinforce-phi on {ordering_hits}/3 seeds "
        f"(need >= 2); reward-P entropy lowest on {entropy_hits}/3 (need 3)",
    )


def test_criterion_8_gradient_identities():
    rng = np.random.default_rng(88)
    # (a) score-function gradient vs central finite differences
    worst_fd = 0.0
    for _ in range(100):
        space = small_space(int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        model = random_model(space, int(rng.integers(1, 4)), rng, trainable=True)
        seqs = list(enumerate_sequences(space))
        x = seqs[int(rng.integers(len(seqs)))]
        one = batch_from(space, [x])
        grad = grad_log_prob(model, x)
        direction = rng.standard_normal(model.logits.shape)
        eps = 1e-6
        plus = TabularARModel(space=space, order=model.order,
                              logits=model.logits + eps * direction, trainable=True)
        minus = TabularARModel(space=space, order=model.order,
                               logits=model.logits - eps * direction, trainable=True)
        numeric = (plus.log_prob_batch(one)[0] - minus.log_prob_batch(one)[0]) / (2 * eps)
        analytic = float((grad * direction).sum())
        worst_fd = max(worst_fd, abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8))
    # (b) exact expected update equals -Z * grad CE(p, pi) by enumeration
    worst_update = 0.0
    for _ in range(20):
        space = small_space(int(rng.integers(2, 4)), 3)
        base = random_model(space, 2, rng, scale=0.5)
        cs = ConstraintSet(
            [ConstraintSpec(TokenPresence(space.vocabulary, "a"), 0.5)]
        )
        target = Ebm(base=base, constraint_set=cs, lam=rng.uniform(-1, 1, size=1))
        policy = random_model(space, space.lmax, rng, scale=0.4, trainable=True)
        proposal = random_model(space, 2, rng, scale=0.5)
        enum = enumeration(space)
        q = proposal.exact_distribution()
        scores = np.exp(target.log_score_batch(enum))
        z = scores.sum()
        p = scores / z
        expected_update = np.zeros_like(policy.logits)
        grad_ce = np.zeros_like(policy.logits)
        for i, seq in enumerate(sequences(enum)):
            g = grad_log_prob(policy, seq)
            expected_update += q[i] * (scores[i] / q[i]) * g
            grad_ce -= p[i] * g
        worst_update = max(worst_update, float(np.abs(expected_update - (-z) * grad_ce).max()))
    # (c) SNIS dual gradient and Hessian vs central finite differences
    worst_snis = 0.0
    phi = rng.random((3000, 3))
    targets = np.array([0.4, 0.5, 0.6])
    for _ in range(10):
        lam = rng.standard_normal(3)
        _, grad, hess, _ = snis_dual(lam, phi, targets)
        eps = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = eps
            up, up_grad, _, _ = snis_dual(lam + e, phi, targets)
            down, down_grad, _, _ = snis_dual(lam - e, phi, targets)
            numeric = (up - down) / (2 * eps)
            worst_snis = max(worst_snis, abs(numeric - grad[j]) / max(abs(numeric), 1e-10))
            numeric_row = (up_grad - down_grad) / (2 * eps)
            worst_snis = max(
                worst_snis, np.abs(numeric_row - hess[j]).max() / np.abs(numeric_row).max()
            )
    ok = worst_fd < 1e-6 and worst_update < 1e-8 and worst_snis < 1e-5
    report(
        8,
        ok,
        f"grad-vs-FD worst rel {worst_fd:.2e} (< 1e-6); expected-update identity worst "
        f"abs {worst_update:.2e} (< 1e-8); SNIS-dual grad/Hessian worst rel "
        f"{worst_snis:.2e} (< 1e-5)",
    )


def test_criterion_9_metric_oracles():
    checks = []
    checks.append(abs(dist_n(Sequence((0, 0, 0, 0)), 1) - 0.25) <= 1e-9)
    checks.append(abs(dist_n(Sequence((0, 1, 0, 1)), 1) - 0.5) <= 1e-9)
    checks.append(abs(dist_n(Sequence((0, 1, 0, 1)), 2) - 2.0 / 3.0) <= 1e-9)
    checks.append(abs(dist_n(Sequence((0, 1, 2)), 3) - 1.0) <= 1e-9)
    corpus = [
        Sequence((0, 1, 2, 0, 1)),
        Sequence((1, 2, 0, 1)),
        Sequence((2, 2, 0, 1, 1)),
    ]
    for n in (3, 4, 5):
        expected = np.mean(
            [
                naive_bleu(c, [corpus[j] for j in range(3) if j != i], n)
                for i, c in enumerate(corpus)
                if len(c) >= n
            ]
        )
        checks.append(abs(self_bleu_n(batch_of(corpus), n) - expected) <= 1e-9)
    degenerate = [Sequence((0, 1, 2, 0, 1)) for _ in range(4)]
    checks.append(abs(self_bleu_n(batch_of(degenerate), 5) - 1.0) <= 1e-9)
    space = small_space(3, 6)
    samples = [Sequence((0, 0, 1)), Sequence((2,)), Sequence((1, 1, 1, 2))]
    table = zipf_table(batch_from(space, samples), space.vocabulary)
    checks.append(zipf_total(table) == sum(len(s) for s in samples))
    ok = all(checks)
    report(9, ok, f"{sum(checks)}/{len(checks)} fixture identities hold exactly")


def test_criterion_10_hybrid_constraints():
    base, cs, config = hybrid_task()
    phi = cs.feature_matrix(enumeration(base.space))
    base_moments = base.exact_distribution() @ phi
    fit_report, ebm = fit_lambda(base, cs, config, np.random.default_rng(0))
    moments = exact_moments(ebm)
    z, p = ebm.exact_normalize()
    kl_star = exact_kl(exact_hybrid_projection(base, cs)[1], p)
    z_hat = estimate_z(ebm, base, base.sample_batch(20000, np.random.default_rng(1))).value
    dpg_config = DpgConfig(
        iterations=800,
        samples_per_iteration=1024,
        learning_rate=4.0 / z_hat,
        adaptivity="kl",
        seed=0,
    )
    result = train(base, ebm, dpg_config, EvalOptions(sample_size=64, eval_every=10**6))
    pi = result.policy.exact_distribution()
    policy_moments = pi @ phi
    gaps = np.abs(policy_moments - moments)
    ok = (
        base_moments[0] < 0.15
        and base_moments[1] < 0.15
        and fit_report.converged
        and moments[0] > 0.98
        and abs(moments[1] - 0.5) < 0.02
        and gaps.max() < 0.05
    )
    report(
        10,
        ok,
        f"base moments ({base_moments[0]:.3f}, {base_moments[1]:.3f}); fitted exact "
        f"E_p[A]={moments[0]:.4f} (> 0.98), E_p[B]={moments[1]:.4f} (|gap| < 0.02), "
        f"KL(p*||p)={kl_star:.1e} in {fit_report.steps_used} steps; policy gaps ({gaps[0]:.4f}, {gaps[1]:.4f}) (< 0.05)",
    )
