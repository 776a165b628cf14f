"""Experiment runner: fit, train, ablation, oracle, and eval subcommands.

One JSON config per experiment; numeric outputs are CSV only. Exit codes:
0 success, else the `exit_code` of the library error that stopped the run
(2 configuration error, 3 numerical failure, 4 size guard: the universe's, or
the constraint features' automaton's).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import REJECTION_MLE, RejectionConfig, rejection_mle, train_baseline
from .config import ExperimentConfig
from .dpg import GDC_METHOD, seed_streams, train
from .ebm import (
    FitReport,
    exact_target_automaton,
    fit_lambda,
    moment_preserving_perturbations,
)
from .errors import ConfigError, DistctlError
from .estimators import exact_kl
from .features import ConstraintSet
from .metrics import metrics_columns, snapshot, zipf_table
from .seqspace import SampleBatch

OUTPUT_ROOT_ENV = "DISTCTL_OUTPUT_ROOT"

EXIT_OK = 0


def _resolve_output(args, cfg: ExperimentConfig) -> Path:
    if args.output:
        return Path(args.output)
    if cfg.output:
        return cfg.config_dir / cfg.output
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "distctl-runs"))
    return root / Path(args.config).stem


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: Iterable[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _write_pairs(path: Path, rows: Iterator[list[tuple[str, str]]]) -> None:
    """A CSV of rows of (column, text) pairs, headed by the first row's
    columns; each row is made and written one at a time."""
    first = next(rows)
    texts = ([text for _, text in row] for row in itertools.chain([first], rows))
    _write_csv(path, [column for column, _ in first], texts)


class _Run:
    """One command's run: its config, output directory, phase seconds and
    artifacts. `end(name)` closes the phase that began where the previous one
    ended (the first one at `started`); `close` ends the `write` phase and
    writes manifest.json."""

    def __init__(self, cfg: ExperimentConfig, out_dir: Path, started: float):
        self.cfg = cfg
        self.out_dir = out_dir
        self.started = started
        self.phase_seconds: dict[str, float] = {}
        self.artifacts: dict[str, Path] = {}
        self._mark = started

    def end(self, name: str) -> None:
        now = time.monotonic()
        self.phase_seconds[name] = now - self._mark
        self._mark = now

    def artifact(self, name: str, ext: str) -> Path:
        """The path `out_dir/<name>.<ext>`, recorded in write order."""
        path = self.out_dir / f"{name}.{ext}"
        self.artifacts[name] = path
        return path

    def close(self) -> None:
        self.end("write")
        cfg = self.cfg
        doc = {
            "version": __version__,
            "config": {
                "seed": cfg.seed,
                "space": {"lmax": cfg.lmax},
                "base_model": cfg.base_model,
                "constraints": cfg.constraints,
                "fit": cfg.fit,
                "trainer": cfg.trainer,
                "eval": cfg.eval,
            },
            "artifacts": {name: str(p) for name, p in self.artifacts.items()},
            "wall_clock_seconds": time.monotonic() - self.started,
            "phase_seconds": self.phase_seconds,
        }
        _write_json(self.out_dir / "manifest.json", doc)


def _build(cfg: ExperimentConfig, needs_constraints: str = "", trainer=None, exact: bool = False):
    """The base model and the constraint set.

    What needs only the base's space runs before the base is fitted: the
    constraint set (a non-empty `needs_constraints` names the work that
    refuses an empty one), then the universe guard when the command is
    `exact` or the exact oracle is on, then a `trainer`'s policy-table guard.
    The exact target DP's guard, which reads the base's order, and a
    trainer's check of the base's cells follow the base's fit, before the
    target's."""
    constraint_set = None

    def check_space(space):
        nonlocal constraint_set
        constraint_set = cfg.build_constraints(space)
        if needs_constraints and len(constraint_set) == 0:
            raise ConfigError(
                f"config.constraints: {needs_constraints} needs at least one constraint"
            )
        if exact or cfg.eval_options.exact:
            space.guard()
        if trainer is not None:
            _guard_policy_table(space, trainer)

    base = cfg.build_base(check_space)
    if exact or cfg.eval_options.exact:
        exact_target_automaton(base, constraint_set)
    if trainer is not None:
        _check_base_cells(base, trainer)
    return base, constraint_set


def _guard_policy_table(space, config) -> None:
    """Refuse a policy whose context table cannot exist: a trained policy
    conditions on the whole prefix (see `dpg.init_state`), a rejection-mle
    fit on its last fit_order - 1 tokens."""
    order = config.fit_order if isinstance(config, RejectionConfig) else space.lmax
    space.guard(min(order, space.lmax) - 1, "policy context table")


def _check_base_cells(base, config) -> None:
    """Refuse, before the fit draws anything, a base with zero-probability
    cells for a policy that gives every cell mass, so KL(pi || a) is infinite."""
    rejection = isinstance(config, RejectionConfig)
    if (not rejection or config.fit_smoothing > 0) and np.isneginf(base.logits).any():
        policy = "a refit with fit_smoothing > 0" if rejection else "a trained policy"
        raise ConfigError(
            f"has zero-probability cells, and {policy} gives every cell mass (use smoothing > 0)",
            "config.base_model",
        )


def _fit_document(report: FitReport, constraint_set: ConstraintSet) -> dict:
    """fit_report.json: `lambda` and `achieved_moments` pair, in order, with
    `lambda_ids`, the distributional constraints' ids."""
    lambda_ids = [c.feature.id for c in constraint_set if not c.pointwise]
    return {"lambda_ids": lambda_ids, "constraint_ids": constraint_set.ids, **report.to_document()}


def run_fit(run: _Run) -> None:
    cfg = run.cfg
    base, constraint_set = _build(cfg, "fit")
    run.end("build")
    report, _ = fit_lambda(base, constraint_set, cfg.fit_config)
    run.end("fit")
    _write_json(run.artifact("fit_report", "json"), _fit_document(report, constraint_set))
    if not report.converged:
        gap = np.abs(report.achieved_moments - constraint_set.targets[~constraint_set.pointwise])
        print(f"fit did not converge: max |gap| {gap.max():.6g}", file=sys.stderr)


def _samples_file(path: Path, policy, vocab, n: int, rng) -> SampleBatch:
    """Write `n` samples of `policy`, one line each, and return their batch."""
    batch = policy.sample_batch(n, rng)
    rows = zip(batch.tokens.tolist(), batch.lengths.tolist())
    lines = [" ".join(vocab.tokens[t] for t in row[:k]) for row, k in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return batch


def _write_metrics(run: _Run, constraint_set: ConstraintSet, history) -> None:
    rows = (metrics_columns(record, constraint_set.ids) for record in history)
    _write_pairs(run.artifact("metrics", "csv"), rows)


def _write_samples(run: _Run, policy, rng) -> None:
    """samples.txt, then zipf.csv: the token frequencies of that one batch
    (only the header when every sample is empty)."""
    vocab, n = policy.space.vocabulary, run.cfg.eval_options.sample_size
    batch = _samples_file(run.artifact("samples", "txt"), policy, vocab, n, rng)
    table = zipf_table(batch, vocab) if batch.lengths.any() else []
    rows = [[str(r), tok, str(f)] for r, tok, f in table]
    _write_csv(run.artifact("zipf", "csv"), ["rank", "token", "frequency"], rows)


def _fit_and_train(run: _Run, method: str, base, constraint_set: ConstraintSet, rng_eval):
    """Fit the target and run the trainer. Returns only what the write phase
    needs: the fit document, the policy, its metric history and run.json's
    document. The target's exact caches (its DP tables) and the trainer's
    state are freed on return, before `model.json` is written; a DPG run's
    proposal is gone already, dropped after its last iteration
    (`dpg.run_loop`)."""
    cfg = run.cfg
    report, target = fit_lambda(base, constraint_set, cfg.fit_config)
    run.end("fit")
    config, eval_options = cfg.trainer_config, cfg.eval_options
    if method == REJECTION_MLE:
        policy, stats = rejection_mle(base, constraint_set, config)
        history = [snapshot(0, REJECTION_MLE, policy, target, rng_eval, eval_options)]
        extra_doc = {"acceptance_rate": stats.acceptance_rate, "kept": stats.kept, "drawn": stats.drawn}
    elif method == GDC_METHOD:
        result = train(base, target, config, eval_options)
        history, policy = result.history, result.policy
        extra_doc = {"proposal_updates": result.state.proposal_updates}
    else:
        result = train_baseline(base, target, config, eval_options)
        history, policy = result.history, result.policy
        extra_doc = {"final_beta": result.state.beta}
    run.end("train")
    fit_doc = _fit_document(report, constraint_set)
    return fit_doc, policy, history, {"method": method, **extra_doc}


def run_train(run: _Run) -> None:
    cfg = run.cfg
    method = cfg.method  # refuses a config without a trainer block before the build
    base, constraint_set = _build(cfg, "training", trainer=cfg.trainer_config)
    run.end("build")
    _, rng_eval, rng_samples = seed_streams(cfg.seed)
    fit_doc, policy, history, run_doc = _fit_and_train(
        run, method, base, constraint_set, rng_eval
    )
    _write_json(run.artifact("fit_report", "json"), fit_doc)
    _write_metrics(run, constraint_set, history)
    policy.write_document(run.artifact("model", "json"))
    _write_samples(run, policy, rng_samples)
    _write_json(run.artifact("run", "json"), run_doc)


def run_ablation(run: _Run) -> None:
    cfg = run.cfg
    if cfg.method != GDC_METHOD:
        raise ConfigError(
            f"config.trainer.method: the ablation grid trains {GDC_METHOD!r}, not {cfg.method!r}"
        )
    base, constraint_set = _build(cfg, trainer=cfg.trainer_config)
    run.end("build")
    _, target = fit_lambda(base, constraint_set, cfg.fit_config)
    run.end("fit")
    threshold = cfg.eval_options.threshold
    cells = []  # (grid pairs, snapshot) per row; a snapshot's pairs are made as the CSV is written
    for variant in cfg.ablation_variants:
        for seed in cfg.ablation_seeds:
            config = dataclasses.replace(cfg.trainer_config, adaptivity=variant, seed=seed)
            for record in train(base, target, config, cfg.eval_options).history:
                drawn = record.step * config.samples_per_iteration
                row = [("variant", variant), ("seed", str(seed)), ("samples_drawn", str(drawn))]
                if threshold is not None:  # needs exact_oracle, so every record is exact
                    row.append(("below_threshold", str(int(record.kl_p_pi_exact < threshold))))
                cells.append((row, record))
    run.end("train")
    rows = (row + metrics_columns(record, constraint_set.ids) for row, record in cells)
    _write_pairs(run.artifact("ablation", "csv"), rows)


def run_oracle(run: _Run) -> None:
    cfg = run.cfg
    # the oracle is exact whether or not eval.exact_oracle is on
    base, constraint_set = _build(cfg, exact=True)
    run.end("build")
    _, target = fit_lambda(base, constraint_set, cfg.fit_config)
    run.end("fit")
    kl_p_a, moments = target.exact_target_terms()
    # only the Pythagorean check enumerates: KL(c || a) - KL(c || p) - KL(p || a)
    # vanishes on every c with p's moments
    _, p = target.exact_normalize()
    a_dist = base.exact_distribution()
    rng = np.random.default_rng(cfg.seed)
    states, values = target.universe_states()
    perturbations = moment_preserving_perturbations(p, states, values, count=5, rng=rng)
    residual_max = max(  # folded in one perturbation at a time
        (abs(exact_kl(c, a_dist) - exact_kl(c, p) - kl_p_a) for c in perturbations),
        default=None,
    )
    doc = {
        "z": target.exact_target().z,
        "exact_moments": [float(m) for m in moments],
        "kl_p_a": kl_p_a,
        "pythagorean_residual_max": residual_max,
        "universe_size": base.space.universe_size,
    }
    run.end("oracle")
    _write_json(run.artifact("oracle", "json"), doc)


def run_eval(run: _Run) -> None:
    cfg = run.cfg
    if "model_file" not in cfg.base_model:
        raise ConfigError("config.base_model.model_file: eval needs a persisted model")
    model, constraint_set = _build(cfg)
    run.end("build")
    target = fit_lambda(model, constraint_set, cfg.fit_config)[1] if len(constraint_set) else None
    run.end("fit")
    rng = np.random.default_rng(cfg.seed)
    record = snapshot(0, "eval", model, target, rng, cfg.eval_options) if target is not None else None
    run.end("eval")
    if record is not None:
        _write_metrics(run, constraint_set, [record])
    _write_samples(run, model, rng)


# each command runs `run_<name>`, looked up when `main` is called, so a
# rebound `cli.run_<name>` is the one that runs
COMMANDS = ("fit", "train", "ablation", "oracle", "eval")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distctl",
        description="Constraint-controlled sequence model experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--output", help="output directory (overrides config)")
        p.add_argument("--seed-override", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        cfg = ExperimentConfig.load(args.config)
        if args.seed_override is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed_override)
        out_dir = _resolve_output(args, cfg)
        out_dir.mkdir(parents=True, exist_ok=True)
        run = _Run(cfg, out_dir, started)
        globals()[f"run_{args.command}"](run)
        run.close()
        return EXIT_OK
    except DistctlError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
