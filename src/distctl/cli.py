"""Experiment runner: fit, train, ablation, oracle, and eval subcommands.

One JSON config per experiment; numeric outputs are CSV only. Exit codes:
0 success, else the `exit_code` of the library error that stopped the run
(2 configuration error, 3 numerical failure, 4 universe guard).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import REJECTION_MLE, RejectionConfig, rejection_mle, train_baseline
from .config import GDC_METHOD, ExperimentConfig
from .dpg import seed_streams, train
from .ebm import (
    Ebm,
    build_pointwise,
    fit_lambda,
    moment_preserving_perturbations,
)
from .errors import ConfigError, DistctlError
from .estimators import exact_kl
from .features import ConstraintSet
from .metrics import (
    metrics_csv_header,
    metrics_csv_row,
    snapshot,
    zipf_table,
)
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


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


class _Phases:
    """Wall seconds of a run's consecutive phases: `end(name)` closes the phase
    that began where the previous one ended, the first one at `started`."""

    def __init__(self, started: float):
        self.seconds: dict[str, float] = {}
        self._mark = started

    def end(self, name: str) -> None:
        now = time.monotonic()
        self.seconds[name] = now - self._mark
        self._mark = now


def _manifest(
    out_dir: Path, cfg: ExperimentConfig, artifacts: dict, started: float, phases: _Phases
) -> Path:
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
        "artifacts": {name: str(p) for name, p in artifacts.items()},
        "wall_clock_seconds": time.monotonic() - started,
        "phase_seconds": phases.seconds,
    }
    path = out_dir / "manifest.json"
    _write_json(path, doc)
    return path


def _build_target(cfg: ExperimentConfig, base, constraint_set: ConstraintSet):
    """Pointwise sets take the product shortcut; anything else is fitted."""
    if constraint_set.all_pointwise:
        return None, build_pointwise(base, constraint_set)
    report, target = fit_lambda(base, constraint_set, cfg.build_fit_config())
    return report, target


def _check_policy_table(base, config) -> None:
    """Refuse, before the fit draws anything, a policy whose context table
    cannot exist: a trained policy conditions on the whole prefix (see
    `dpg.init_state`), a rejection-mle fit on its last fit_order - 1 tokens.
    A trained policy also starts at the base, so the base needs every cell."""
    if isinstance(config, RejectionConfig):
        order = config.fit_order
    else:
        order = base.space.lmax
        if np.isneginf(base.logits).any():
            raise ConfigError(
                "has zero-probability cells, and a trained policy starts at the base "
                "(use smoothing > 0)",
                "config.base_model",
            )
    base.space.guard(min(order, base.space.lmax) - 1, "policy context table")


def _fit_document(report, target: Ebm, constraint_set: ConstraintSet) -> dict:
    doc = {"mode": target.mode, "constraint_ids": constraint_set.ids}
    if report is not None:
        doc.update(report.to_document())
    else:
        doc["lambda"] = []
    return doc


def run_fit(cfg: ExperimentConfig, out_dir: Path, started: float) -> int:
    phases = _Phases(started)
    base = cfg.build_base()
    constraint_set = cfg.build_constraints(base.space)
    if len(constraint_set) == 0:
        raise ConfigError("config.constraints: fit needs at least one constraint")
    phases.end("build")
    report, target = _build_target(cfg, base, constraint_set)
    phases.end("fit")
    report_path = out_dir / "fit_report.json"
    _write_json(report_path, _fit_document(report, target, constraint_set))
    phases.end("write")
    _manifest(out_dir, cfg, {"fit_report": report_path}, started, phases)
    if report is not None and not report.converged:
        print(f"fit did not converge: objective {report.objective:.6g}", file=sys.stderr)
    return EXIT_OK


def _samples_file(path: Path, policy, vocab, n: int, rng) -> SampleBatch:
    """Write `n` samples of `policy`, one line each, and return their batch."""
    batch = policy.sample_batch(n, rng)
    rows = zip(batch.tokens.tolist(), batch.lengths.tolist())
    lines = [" ".join(vocab.tokens[t] for t in row[:k]) for row, k in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return batch


def _zipf_file(path: Path, batch: SampleBatch, vocab) -> None:
    table = zipf_table(batch, vocab)
    rows = [[str(r), tok, str(f)] for r, tok, f in table.rows]
    _write_csv(path, ["rank", "token", "frequency"], rows)


def run_train(cfg: ExperimentConfig, out_dir: Path, started: float) -> int:
    phases = _Phases(started)
    base = cfg.build_base()
    constraint_set = cfg.build_constraints(base.space)
    if len(constraint_set) == 0:
        raise ConfigError("config.constraints: training needs at least one constraint")
    eval_options = cfg.build_eval_options()
    if eval_options.exact:
        base.space.guard()
    method, config = cfg.method, cfg.build_trainer()
    _check_policy_table(base, config)
    phases.end("build")
    report, target = _build_target(cfg, base, constraint_set)
    phases.end("fit")
    artifacts: dict = {}
    _, rng_eval, rng_samples = seed_streams(cfg.seed)

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
    phases.end("train")

    report_path = out_dir / "fit_report.json"
    _write_json(report_path, _fit_document(report, target, constraint_set))
    artifacts["fit_report"] = report_path

    metrics_path = out_dir / "metrics.csv"
    header = metrics_csv_header(constraint_set.ids, eval_options.exact)
    _write_csv(metrics_path, header, [metrics_csv_row(record) for record in history])
    artifacts["metrics"] = metrics_path

    model_path = out_dir / "model.json"
    policy.write_document(model_path)
    artifacts["model"] = model_path

    vocab = base.space.vocabulary
    samples_path = out_dir / "samples.txt"
    samples = _samples_file(samples_path, policy, vocab, eval_options.sample_size, rng_samples)
    artifacts["samples"] = samples_path

    zipf_path = out_dir / "zipf.csv"
    _zipf_file(zipf_path, samples, vocab)
    artifacts["zipf"] = zipf_path

    run_doc_path = out_dir / "run.json"
    _write_json(run_doc_path, {"method": method, **extra_doc})
    artifacts["run"] = run_doc_path
    phases.end("write")
    _manifest(out_dir, cfg, artifacts, started, phases)
    return EXIT_OK


def run_ablation(cfg: ExperimentConfig, out_dir: Path, started: float) -> int:
    if cfg.method != GDC_METHOD:
        raise ConfigError(
            f"config.trainer.method: the ablation grid trains {GDC_METHOD!r}, not {cfg.method!r}"
        )
    phases = _Phases(started)
    variants = cfg.ablation_variants
    seeds = cfg.ablation_seeds
    base = cfg.build_base()
    constraint_set = cfg.build_constraints(base.space)
    eval_options = cfg.build_eval_options()
    if eval_options.exact:
        base.space.guard()
    _check_policy_table(base, cfg.build_trainer())
    phases.end("build")
    _, target = _build_target(cfg, base, constraint_set)
    phases.end("fit")
    threshold = cfg.eval.get("threshold")

    header = ["variant", "seed", "samples_drawn"]
    if threshold is not None:
        header.append("below_threshold")
    header += metrics_csv_header(constraint_set.ids, eval_options.exact)
    rows = []
    for variant in variants:
        for seed in seeds:
            config = cfg.build_trainer(adaptivity=variant, seed=seed)
            result = train(base, target, config, eval_options)
            for record in result.history:
                row = [variant, str(seed), str(record.step * config.samples_per_iteration)]
                if threshold is not None:  # needs exact_oracle, so every record is exact
                    row.append(str(int(record.kl_p_pi_exact < threshold)))
                rows.append(row + metrics_csv_row(record))
    phases.end("train")
    path = out_dir / "ablation.csv"
    _write_csv(path, header, rows)
    phases.end("write")
    _manifest(out_dir, cfg, {"ablation": path}, started, phases)
    return EXIT_OK


def run_oracle(cfg: ExperimentConfig, out_dir: Path, started: float) -> int:
    phases = _Phases(started)
    base = cfg.build_base()
    constraint_set = cfg.build_constraints(base.space)
    base.space.guard()
    phases.end("build")
    _, target = _build_target(cfg, base, constraint_set)
    phases.end("fit")
    z, p = target.exact_normalize()
    a_dist = base.exact_distribution()
    kl_p_a = exact_kl(p, a_dist)
    phi = target.phi_universe()
    rng = np.random.default_rng(cfg.seed)
    residuals = []
    for c in moment_preserving_perturbations(p, phi, count=5, rng=rng):
        residual = abs(exact_kl(c, a_dist) - exact_kl(c, p) - kl_p_a)
        residuals.append(residual)
    doc = {
        "z": z,
        "exact_moments": [float(m) for m in target.exact_moments()],
        "kl_p_a": kl_p_a,
        "pythagorean_residual_max": max(residuals) if residuals else None,
        "universe_size": base.space.universe_size,
    }
    phases.end("oracle")
    path = out_dir / "oracle.json"
    _write_json(path, doc)
    phases.end("write")
    _manifest(out_dir, cfg, {"oracle": path}, started, phases)
    return EXIT_OK


def run_eval(cfg: ExperimentConfig, out_dir: Path, started: float) -> int:
    if "model_file" not in cfg.base_model:
        raise ConfigError("config.base_model.model_file: eval needs a persisted model")
    phases = _Phases(started)
    model = cfg.build_base()
    constraint_set = cfg.build_constraints(model.space)
    eval_options = cfg.build_eval_options()
    if eval_options.exact:
        model.space.guard()
    phases.end("build")
    target = (
        _build_target(cfg, model, constraint_set)[1] if len(constraint_set) else None
    )
    phases.end("fit")
    rng = np.random.default_rng(cfg.seed)
    record = snapshot(0, "eval", model, target, rng, eval_options) if target is not None else None
    phases.end("eval")
    artifacts = {}
    if record is not None:
        path = out_dir / "metrics.csv"
        _write_csv(
            path,
            metrics_csv_header(constraint_set.ids, eval_options.exact),
            [metrics_csv_row(record)],
        )
        artifacts["metrics"] = path
    vocab = model.space.vocabulary
    samples_path = out_dir / "samples.txt"
    samples = _samples_file(samples_path, model, vocab, eval_options.sample_size, rng)
    artifacts["samples"] = samples_path
    zipf_path = out_dir / "zipf.csv"
    _zipf_file(zipf_path, samples, vocab)
    artifacts["zipf"] = zipf_path
    phases.end("write")
    _manifest(out_dir, cfg, artifacts, started, phases)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distctl",
        description="Constraint-controlled sequence model experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fit", "train", "ablation", "oracle", "eval"):
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
        if args.command == "fit":
            return run_fit(cfg, out_dir, started)
        if args.command == "train":
            return run_train(cfg, out_dir, started)
        if args.command == "ablation":
            return run_ablation(cfg, out_dir, started)
        if args.command == "oracle":
            return run_oracle(cfg, out_dir, started)
        return run_eval(cfg, out_dir, started)
    except DistctlError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
