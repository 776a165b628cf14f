import tracemalloc

import numpy as np
import pytest

from distctl import dpg
from distctl.baselines import BaselineConfig, train_baseline
from distctl.dpg import ADAPTIVITIES, DpgConfig, LoopConfig, dpg_iteration, init_state, run_loop, train
from distctl.ebm import Ebm
from distctl.errors import ConfigError, NonpositiveZ
from distctl.estimators import exact_kl
from distctl.features import ConstraintSet, ConstraintSpec, PrefixMatch, TokenPresence
from distctl.lm import TabularARModel
from distctl.metrics import EvalOptions, metrics_columns

from helpers import (
    dense_adam_step,
    dense_log_softmax,
    dense_logits,
    dense_table_bytes,
    enumeration,
    from_distribution,
    full_gradient,
    grad_log_prob,
    invalidate,
    random_model,
    scaled,
    sequences,
    small_space,
    traced_peak,
    uniform_model,
    universe_moments,
)


def make_pointwise(space, base, token="a"):
    cs = ConstraintSet(
        [ConstraintSpec(TokenPresence(space.vocabulary, token), 1.0, pointwise=True)]
    )
    return Ebm(base=base, constraint_set=cs, lam=[])


def identity_ebm(space, base):
    cs = ConstraintSet([ConstraintSpec(TokenPresence(space.vocabulary, "a"), 0.5)])
    return Ebm(base=base, constraint_set=cs, lam=np.zeros(1))


def test_already_optimal_stays_put(ab_space, ab_uniform):
    target = identity_ebm(ab_space, ab_uniform)  # lam = 0 so p = a
    config = DpgConfig(
        iterations=50, samples_per_iteration=512, learning_rate=0.5, seed=0
    )
    result = train(ab_uniform, target, config, EvalOptions(sample_size=64, eval_every=50))
    _, p = target.exact_normalize()
    assert exact_kl(p, result.policy.exact_distribution()) < 1e-3


def test_pointwise_convergence(ab_space, ab_uniform):
    target = make_pointwise(ab_space, ab_uniform)
    config = DpgConfig(
        iterations=150, samples_per_iteration=256, learning_rate=1.0, seed=1
    )
    result = train(ab_uniform, target, config, EvalOptions(sample_size=64, eval_every=50))
    _, p = target.exact_normalize()
    pi = result.policy.exact_distribution()
    assert exact_kl(p, pi) < 0.05
    satisfied = universe_moments(target, pi)[0]
    assert satisfied > 0.9


def test_exact_expected_update_is_minus_z_grad_ce(rng):
    space = small_space(3, 3)
    for _ in range(5):
        base = random_model(space, 2, rng, scale=0.6)
        target = identity_ebm(space, base)
        target.lam = rng.uniform(-1.0, 1.0, size=1)
        policy = random_model(space, space.lmax, rng, scale=0.4, trainable=True)
        proposal = random_model(space, 2, rng, scale=0.6)
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
            grad_ce += -p[i] * g
        assert np.abs(expected_update - (-z) * grad_ce).max() < 1e-8


def test_fixed_point_zero_expected_update(rng):
    space = small_space(2, 3)
    base = random_model(space, 1, rng, scale=0.5)
    target = identity_ebm(space, base)
    target.lam = np.array([0.7])
    _, p = target.exact_normalize()
    policy = from_distribution(space, p, trainable=True)
    enum = enumeration(space)
    scores = np.exp(target.log_score_batch(enum))
    update = np.zeros_like(policy.logits)
    for i, seq in enumerate(sequences(enum)):
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
    base_cfg = dict(iterations=40, samples_per_iteration=64, seed=5)
    options = EvalOptions(sample_size=32, eval_every=40)
    reference = train(ab_uniform, target, DpgConfig(learning_rate=0.8, **base_cfg), options)
    for c in (0.5, 2.0):
        rescaled = train(
            ab_uniform,
            scaled(target, np.log(c)),
            DpgConfig(learning_rate=0.8 / c, **base_cfg),
            options,
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
    target = Ebm(base=base, constraint_set=cs, lam=[])
    config = DpgConfig(iterations=4, samples_per_iteration=4, learning_rate=0.1, seed=2)
    state = init_state(base, config)
    rng_train = np.random.default_rng(0)
    for _ in range(4):
        dpg_iteration(state, target, config, rng_train)
    skipped = [d for d in state.decisions if d.div_policy is None]
    # with 4 tiny batches on a rare prefix the moving average stays at zero
    assert state.zma.value == 0.0
    assert len(skipped) == 4 and not any(d.swapped for d in state.decisions)


# (adaptivity, optimizer, learning rate, lambda, seed): each run has several
# non-swap iterations between two swaps, so a kept proposal must stay as it
# was over several updates, and a swap must bring in all of them.
SWAP_RUNS = {
    "kl": ("kl", "sgd", 16.0, 1.0, 1),
    "tvd": ("tvd", "sgd", 0.5, 0.3, 1),
    "adam": ("kl", "adam", 2.0, 1.0, 2),
}


def swap_run(name, iterations=30):
    return dpg_run(*SWAP_RUNS[name], iterations)


def dpg_run(adaptivity, optimizer, learning_rate, lam, seed, iterations=30):
    space = small_space(3, 4)
    base = random_model(space, 2, np.random.default_rng(seed), scale=0.5)
    target = identity_ebm(space, base)
    target.lam = np.array([lam])
    config = DpgConfig(
        iterations=iterations, samples_per_iteration=8, learning_rate=learning_rate,
        adaptivity=adaptivity, optimizer=optimizer, seed=seed,
    )
    return base, target, config


def table_bytes(model):
    """The bytes of the model's logits and log-softmax, one row per context."""
    return dense_logits(model).tobytes(), dense_log_softmax(model).tobytes()


@pytest.mark.parametrize("name", sorted(SWAP_RUNS))
def test_a_swap_takes_the_policy_and_a_kept_proposal_stays_as_it_was(name):
    """After each iteration, a proposal that the iteration swapped in holds
    the policy's log-softmax bytes, context by context, and one it kept
    holds the bytes it held before (at the first iteration: the lifted
    base's, from which it was made)."""
    base, target, config = swap_run(name)
    state = init_state(base, config)
    rng = np.random.default_rng(config.seed)
    held = dense_log_softmax(state.policy).tobytes()
    for i in range(config.iterations):
        dpg_iteration(state, target, config, rng)
        now = dense_log_softmax(state.proposal).tobytes()
        if state.decisions[-1].swapped:
            assert now == dense_log_softmax(state.policy).tobytes(), i
        else:
            assert now == held, i
            assert now != dense_log_softmax(state.policy).tobytes(), i
        held = now
    swaps = [d.iteration for d in state.decisions if d.swapped]
    assert max(b - a for a, b in zip(swaps, swaps[1:])) > 3


def test_policy_updates_after_a_swap_leave_the_proposal_alone(rng):
    base, target, config = swap_run("kl")
    state = init_state(base, config)
    train_rng = np.random.default_rng(config.seed)
    while not state.proposal_updates:
        dpg_iteration(state, target, config, train_rng)
    before = table_bytes(state.proposal)
    shape = dense_logits(state.policy).shape
    state.policy.apply_update(full_gradient(rng.normal(size=shape)), 0.5)
    assert table_bytes(state.proposal) == before
    assert table_bytes(state.proposal)[0] != table_bytes(state.policy)[0]


# trainer -> config: every DPG optimizer and adaptivity, and each comparison trainer
TWIN_RUNS = {
    **{
        f"{optimizer}-{adaptivity}": DpgConfig(
            iterations=30, samples_per_iteration=8, seed=1,
            learning_rate=0.5 if optimizer == "sgd" else 2.0,
            adaptivity=adaptivity, optimizer=optimizer,
        )
        for optimizer in ("sgd", "adam") for adaptivity in ("kl", "tvd", "none")
    },
    **{
        kind: BaselineConfig(
            kind=kind, iterations=30, samples_per_iteration=8, seed=1,
            learning_rate=2.0, **extra,
        )
        for kind, extra in [
            ("reinforce-phi", {}), ("reinforce-P", {}),
            ("kl-penalized", {"beta": 0.15, "kl_target": 0.01}),
        ]
    },
}


@pytest.mark.parametrize("name", sorted(TWIN_RUNS))
def test_the_row_map_changes_no_bits(monkeypatch, tmp_path, name):
    """A run whose policy is the shared lift of the base, and one whose
    policy is a twin in which every context owns its row at construction
    (the same rows, one stored row per context, the identity map), end with
    the same logits and log-softmax bits, the same metric history and the
    same model.json bytes."""
    config = TWIN_RUNS[name]
    space = small_space(3, 4)
    base = random_model(space, 2, np.random.default_rng(1), scale=0.5)
    target = identity_ebm(space, base)
    target.lam = np.array([1.0])
    options = EvalOptions(eval_every=10, sample_size=16, exact=True)
    trainer = train if isinstance(config, DpgConfig) else train_baseline
    mapped = trainer(base, target, config, options)
    lift = TabularARModel.to_order

    def dense_lift(self, order, trainable=False):
        lifted = lift(self, order, trainable)
        return TabularARModel(space=space, order=order, logits=dense_logits(lifted),
                              trainable=trainable)

    monkeypatch.setattr(TabularARModel, "to_order", dense_lift)
    dense = trainer(base, target, config, options)
    # both copy on write the same contexts; the twin's map stays one-to-one
    n_contexts = dense.policy.coding.n_contexts
    assert len(dense.policy.logits) - n_contexts == len(mapped.policy.logits) - len(base.logits)
    assert len(np.unique(dense.policy.row_map)) == n_contexts
    assert table_bytes(mapped.policy) == table_bytes(dense.policy)
    ids = target.constraint_set.ids
    assert [metrics_columns(r, ids) for r in mapped.history] == [
        metrics_columns(r, ids) for r in dense.history
    ]
    mapped.policy.write_document(tmp_path / "mapped.json")
    dense.policy.write_document(tmp_path / "dense.json")
    assert (tmp_path / "mapped.json").read_bytes() == (tmp_path / "dense.json").read_bytes()
    if getattr(config, "adaptivity", "none") != "none":
        assert mapped.state.proposal_updates > 1
        assert mapped.state.proposal_updates == dense.state.proposal_updates


@pytest.mark.parametrize("name", sorted(SWAP_RUNS))
def test_a_dpg_run_takes_one_frozen_copy_per_swap(monkeypatch, name):
    """The first iteration copies the policy into the proposal, and each swap
    takes a new copy: `proposal_updates + 1` copies in all."""
    base, target, config = swap_run(name)
    copies = []
    frozen_copy = TabularARModel.frozen_copy

    def counted(self):
        copies.append(self)
        return frozen_copy(self)

    monkeypatch.setattr(TabularARModel, "frozen_copy", counted)
    result = train(base, target, config, EvalOptions(sample_size=16))
    assert result.state.proposal_updates > 1
    assert len(copies) == result.state.proposal_updates + 1


def test_dpg_init_state_allocates_no_table(rng):
    """The lifted policy stores the base's rows once, with a row map of one
    int64 per context; the proposal waits for the first iteration. So
    init_state allocates about a ninth of a dense table (one row of V = 9
    floats per context), and about as much scratch while it builds the map."""
    space = small_space(8, 6)  # a 37,449-context policy
    base = random_model(space, 2, rng)
    state, peak = traced_peak(init_state, base, DpgConfig(iterations=1))
    assert peak <= 0.25 * dense_table_bytes(state.policy)
    assert len(state.policy.logits) == len(base.logits)
    assert state.proposal is None and state.adam is None


def first_iteration_peak(rng, optimizer):
    """(state, traced peak in dense tables) of init_state and the first
    iteration of a 66,430-context lifted policy."""
    space = small_space(9, 6)
    base = random_model(space, 2, rng)
    config = DpgConfig(iterations=1, samples_per_iteration=64, optimizer=optimizer)

    def first_iteration():
        state = init_state(base, config)
        return dpg_iteration(state, identity_ebm(space, base), config, np.random.default_rng(0))

    state, peak = traced_peak(first_iteration)
    assert state.policy.coding.n_contexts == 66430
    return state, peak / dense_table_bytes(state.policy)


def test_dpg_first_iteration_copies_only_written_rows(rng):
    """init_state and the first SGD iteration of a 66,430-context lifted
    policy hold the policy's and the proposal's row maps and the few rows
    the batch wrote: well below one dense table, where dense models would
    hold three (the policy's logits and log-softmax, the proposal's copy)."""
    _, tables = first_iteration_peak(rng, "sgd")
    assert tables <= 0.35


def test_a_swap_holds_one_proposal_at_a_time(rng):
    """A swap releases the old proposal before it copies the policy, so a
    swapping iteration of a 66,430-context lifted policy peaks less than half
    a proposal (its row map and store) above the memory it started with; one
    that copied first would hold two proposals at once."""
    space = small_space(9, 6)
    base = random_model(space, 2, rng)
    target = identity_ebm(space, base)
    target.lam = np.array([1.0])
    config = DpgConfig(iterations=1, samples_per_iteration=64)
    train_rng = np.random.default_rng(0)
    tracemalloc.start()  # before the proposals exist, so their release is counted
    try:
        state = init_state(base, config)
        dpg_iteration(state, target, config, train_rng)  # makes the first proposal
        for _ in range(20):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            dpg_iteration(state, target, config, train_rng)
            peak = tracemalloc.get_traced_memory()[1] - start
            if state.decisions[-1].swapped:
                break
    finally:
        tracemalloc.stop()
    assert state.decisions[-1].swapped and state.policy.coding.n_contexts == 66430
    proposal = state.proposal.row_map.nbytes + state.proposal.logits.nbytes
    assert peak < 0.5 * proposal


def test_dpg_first_adam_iteration_holds_the_moments_and_the_written_rows(rng):
    """Under Adam the first iteration adds the two dense moment tables and
    nothing else table-sized: the step covers the touched contexts only, so
    the policy writes the batch's rows, not one row per context."""
    state, tables = first_iteration_peak(rng, "adam")
    assert tables <= 2.4
    assert len(state.policy.logits) < 0.01 * state.policy.coding.n_contexts


def test_adam_gives_only_the_contexts_it_has_stepped_rows_of_their_own(rng):
    """After k Adam iterations the policy stores the base's rows plus one row
    for each context in the moment mask, the contexts some gradient has
    touched: an untouched context's step is zero, so it is not written."""
    space = small_space(9, 6)  # a 66,430-context policy
    base = random_model(space, 2, rng)
    target = identity_ebm(space, base)
    config = DpgConfig(iterations=5, samples_per_iteration=8, optimizer="adam")
    state = init_state(base, config)
    train_rng = np.random.default_rng(0)
    shared = len(base.logits)
    for k in range(1, 6):
        dpg_iteration(state, target, config, train_rng)
        touched = state.adam.touched
        assert len(state.policy.logits) == shared + touched.sum(), k
        assert np.array_equal(state.policy.row_map >= shared, touched), k
    assert touched.sum() < 0.01 * len(touched)


# SWAP_RUNS["adam"], and an Adam run of each adaptivity
ADAM_RUNS = {"swap": SWAP_RUNS["adam"], **{a: (a, "adam", 2.0, 1.0, 1) for a in ADAPTIVITIES}}


@pytest.mark.parametrize("name", sorted(ADAM_RUNS))
def test_row_sparse_adam_matches_the_dense_reference_bitwise(monkeypatch, name):
    """Adam DPG with the row-sparse step and with the whole-table reference
    (`helpers.dense_adam_step`) gives the same policy and proposal bits and
    the same swap decisions after every iteration. The reference steps and
    writes every context; the row-sparse step only the touched ones."""
    base, target, config = dpg_run(*ADAM_RUNS[name])

    def run():
        state = init_state(base, config)
        rng = np.random.default_rng(config.seed)
        trace, stored = [], []
        for _ in range(config.iterations):
            dpg_iteration(state, target, config, rng)
            trace.append(
                (table_bytes(state.policy), table_bytes(state.proposal), state.decisions[-1].swapped)
            )
            stored.append(len(state.policy.logits))
        return state, trace, stored

    sparse, sparse_trace, sparse_stored = run()
    monkeypatch.setattr(dpg.AdamState, "step", dense_adam_step)
    _, dense_trace, dense_stored = run()
    for i, (one, other) in enumerate(zip(sparse_trace, dense_trace)):
        assert one == other, i
    every_context = len(base.logits) + sparse.policy.coding.n_contexts
    assert dense_stored[0] == every_context and sparse_stored[0] < every_context
    if config.adaptivity != "none":
        assert sparse.proposal_updates > 1


def test_dpg_snapshots_outside_the_iterations_hold_no_proposal(monkeypatch, rng):
    """The proposal and Adam's moments exist only while iterations run. The
    snapshot before the first runs beside the lifted policy's row map and
    the base's rows, and the one after the last beside those and the few
    rows Adam has stepped. One between them also runs beside Adam's two
    dense moment tables."""
    space = small_space(8, 6)  # a 37,449-context policy
    base = random_model(space, 2, rng)
    states, seen = [], []
    make_state = dpg.init_state
    monkeypatch.setattr(dpg, "init_state", lambda *args: states.append(make_state(*args)) or states[0])

    def record(step, *args):
        state = states[0]
        held = (state.proposal, state.adam)
        seen.append((step, [x is None for x in held], tracemalloc.get_traced_memory()[0]))

    monkeypatch.setattr(dpg, "snapshot", record)
    config = DpgConfig(iterations=4, samples_per_iteration=8, optimizer="adam")
    traced_peak(run_loop, base, identity_ebm(space, base), config, "gdc", dpg_iteration,
                EvalOptions(eval_every=2))
    table = dense_table_bytes(states[0].policy)
    assert [(step, gone) for step, gone, _ in seen] == [
        (0, [True] * 2), (2, [False] * 2), (4, [True] * 2)
    ]
    held = [current / table for _, _, current in seen]
    assert held[0] <= 0.15 and held[2] <= 0.15 and held[1] >= 2.0


@pytest.mark.parametrize(
    "where, named, message",
    [("iteration", None, "iteration 3: z"), ("iteration", 7, "iteration 7: z"),
     ("snapshot", None, "iteration 0: z")],
    ids=["iteration", "already-named", "snapshot"],
)
def test_run_loop_names_the_iteration_of_a_numerical_error_once(
    monkeypatch, ab_space, ab_uniform, where, named, message
):
    def fail():
        error = NonpositiveZ("z")
        raise error if named is None else error.at_iteration(named)

    def iteration(state, target, config, rng):
        if state.iteration == 2:  # the third iteration: loop step 3
            fail()
        state.iteration += 1

    if where == "snapshot":
        monkeypatch.setattr(dpg, "snapshot", lambda *args: fail())
    with pytest.raises(NonpositiveZ) as err:
        run_loop(ab_uniform, identity_ebm(ab_space, ab_uniform), LoopConfig(iterations=5),
                 "test", iteration)
    assert str(err.value) == message


def test_tvd_adaptivity_runs_and_swaps(ab_space, ab_uniform):
    target = make_pointwise(ab_space, ab_uniform)
    config = DpgConfig(
        iterations=60, samples_per_iteration=128, learning_rate=0.5, adaptivity="tvd", seed=6
    )
    result = train(ab_uniform, target, config, EvalOptions(sample_size=32))
    assert result.state.proposal_updates > 0


def test_adaptive_beats_non_adaptive_on_rare_constraint():
    space = small_space(3, 5)
    base = uniform_model(space, order=1)
    base.logits[:, space.vocabulary.index("c")] -= 2.5
    invalidate(base)
    cs = ConstraintSet(
        [ConstraintSpec(PrefixMatch(space.vocabulary, ["c", "c"]), 1.0, pointwise=True)]
    )
    target = Ebm(base=base, constraint_set=cs, lam=[])
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
        optimizer="adam", seed=1,
    )
    result = train(ab_uniform, target, config, EvalOptions(sample_size=64, eval_every=150))
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
