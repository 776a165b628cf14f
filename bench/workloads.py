"""The benchmark's workloads: their inputs, their CLI processes and the
checks on what those processes write.

A workload run is one or more `distctl` CLI processes started one after
another. Each workload derives its config files from the seed and the
repository's `demo/` inputs (the ladder also generates its base model), and
writes them under the benchmark's own output directory. The seed reaches the
program only through `--seed-override` or through those generated files.

`small=True` shrinks every workload for the benchmark's self-test; checks
that need the full size to pass are then skipped.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEMO_DISTRIBUTIONAL_MOMENT_TOLERANCE = 0.1
LADDER_BASE_PRESENCE = 0.25
LADDER_LOGITS_SEED = 0
TRAIN_ARTIFACTS = (
    "fit_report.json",
    "metrics.csv",
    "model.json",
    "samples.txt",
    "zipf.csv",
    "run.json",
    "manifest.json",
)
ABLATION_ARTIFACTS = ("ablation.csv", "manifest.json")


@dataclass
class Step:
    """One CLI process of a workload run."""

    label: str
    command: str
    config: Path
    seed_override: int | None
    method: str
    snapshots: int

    def argv(self, out_dir: Path) -> list[str]:
        argv = [self.command, "--config", str(self.config), "--output", str(out_dir)]
        if self.seed_override is not None:
            argv += ["--seed-override", str(self.seed_override)]
        return argv


@dataclass
class Plan:
    steps: list[Step]
    setup_config: Path
    extra_checks: list = field(default_factory=list)


@dataclass
class TrainerRun:
    """The snapshot rows of one trainer run, read from its CSV."""

    label: str
    method: str
    rows: list[dict]

    def exact(self, i: int, column: str = "kl_p_pi_exact") -> float:
        return float(self.rows[i][column])


def _demo_config(root: Path, name: str) -> dict:
    cfg = json.loads((root / "demo" / f"{name}.json").read_text())
    cfg["base_model"]["corpus"] = str((root / "demo" / cfg["base_model"]["corpus"]).resolve())
    cfg.pop("output", None)
    return cfg


def _write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


def _snapshots(cfg: dict) -> int:
    t = cfg["trainer"]
    if t["method"] == "rejection-mle":
        return 1
    return 1 + t["iterations"] // cfg["eval"].get("eval_every", 10)


def _train_step(label: str, config: Path, cfg: dict, seed_override: int | None) -> Step:
    return Step(
        label=label,
        command="train",
        config=config,
        seed_override=seed_override,
        method=cfg["trainer"]["method"],
        snapshots=_snapshots(cfg),
    )


# -- demo-distributional ------------------------------------------------------


def _check_distributional(runs: list[TrainerRun], out_dirs: dict) -> list[str]:
    errors = []
    report = json.loads((out_dirs["train"] / "fit_report.json").read_text())
    if not report.get("converged"):
        errors.append("fit_report.converged is not true")
    moment = runs[0].exact(-1, "e_phi_exact_eclipse")
    if abs(moment - 0.5) > DEMO_DISTRIBUTIONAL_MOMENT_TOLERANCE:
        errors.append(
            f"final e_phi_exact_eclipse {moment:.4f} is not within "
            f"{DEMO_DISTRIBUTIONAL_MOMENT_TOLERANCE} of 0.5"
        )
    return errors


def plan_distributional(root: Path, work: Path, seed: int, small: bool) -> Plan:
    cfg = _demo_config(root, "distributional")
    if small:
        cfg["fit"]["sample_count"] = 5000
        cfg["trainer"].update(iterations=20, samples_per_iteration=256)
        cfg["eval"].update(eval_every=10, sample_size=64)
    config = _write_config(work / "inputs" / "distributional.json", cfg)
    return Plan(
        steps=[_train_step("train", config, cfg, seed)],
        setup_config=config,
        extra_checks=[] if small else [_check_distributional],
    )


# -- demo-ablation --------------------------------------------------------------


def _check_ablation(runs: list[TrainerRun], out_dirs: dict) -> list[str]:
    errors = []
    for run in runs:
        if run.label.startswith("kl/") and not any(r["below_threshold"] == "1" for r in run.rows):
            errors.append(f"ablation {run.label} never reaches below_threshold = 1")
    return errors


def plan_ablation(root: Path, work: Path, seed: int, small: bool) -> Plan:
    cfg = _demo_config(root, "ablation")
    if small:
        cfg["trainer"].update(iterations=40, samples_per_iteration=256)
        cfg["eval"].update(eval_every=20, sample_size=32)
    config = _write_config(work / "inputs" / "ablation.json", cfg)
    step = Step(
        label="ablation",
        command="ablation",
        config=config,
        seed_override=seed,
        method="gdc",
        snapshots=_snapshots(cfg),
    )
    return Plan(
        steps=[step],
        setup_config=config,
        extra_checks=[] if small else [_check_ablation],
    )


# -- demo-baselines -------------------------------------------------------------

# Settings of the comparison trainers; the learning rates and beta are the
# ones the acceptance tests use for these trainers.
BASELINE_TRAINERS = {
    "kl-penalized": {"method": "kl-penalized", "learning_rate": 1.0, "beta": 0.15},
    "reinforce-P": {"method": "reinforce-P", "learning_rate": 10000.0},
    "rejection-mle": {"method": "rejection-mle", "sample_budget": 20000, "fit_order": 2,
                      "fit_smoothing": 0.5},
}


def plan_baselines(root: Path, work: Path, seed: int, small: bool) -> Plan:
    """The pointwise demo with only its trainer's method (and that method's
    own settings) swapped; iterations, batch size and snapshot cadence stay."""
    base_cfg = _demo_config(root, "pointwise")
    if small:
        base_cfg["trainer"].update(iterations=40, samples_per_iteration=64)
        base_cfg["eval"].update(eval_every=20, sample_size=64)
    steps = []
    for label, trainer in BASELINE_TRAINERS.items():
        cfg = copy.deepcopy(base_cfg)
        if trainer["method"] == "rejection-mle":
            cfg["trainer"] = dict(trainer, sample_budget=2000 if small else trainer["sample_budget"])
        else:
            cfg["trainer"] = {
                "iterations": base_cfg["trainer"]["iterations"],
                "samples_per_iteration": base_cfg["trainer"]["samples_per_iteration"],
                **trainer,
            }
        config = _write_config(work / "inputs" / f"baselines-{label}.json", cfg)
        steps.append(_train_step(label, config, cfg, seed))
    return Plan(
        steps=steps,
        setup_config=steps[0].config,
    )


# -- ladder-5m ------------------------------------------------------------------


def presence_rates(logits, body: int, lmax: int):
    """Exact probability that each body token occurs in a sequence of the
    order-2 model with these logits (row 0: empty context; row 1 + r: last
    token r; column `body`: EOS), by a forward pass over contexts."""
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    rates = []
    for token in range(body):
        alive = np.zeros(body + 1)
        alive[0] = 1.0
        ended = 0.0
        for _ in range(lmax):
            ended += alive @ p[:, body]
            moved = alive[:, None] * p[:, :body]
            moved[:, token] = 0.0
            alive = np.concatenate([[0.0], moved.sum(axis=0)])
        rates.append(1.0 - ended - alive.sum())
    return np.array(rates)


def generate_ladder(root: Path, dest: Path, seed: int, body: int, lmax: int, trainer: dict,
                    fit_samples: int) -> Path:
    """Write a random order-2 base model and its train config; reuse them if present.

    The logits are standard normal, drawn once from LADDER_LOGITS_SEED; the
    constraint asks for presence 0.5 of the body token whose exact base
    presence is closest to LADDER_BASE_PRESENCE. The workload seed relabels
    the body tokens (a random permutation) and seeds the fit and training.
    Every seed thus poses the same problem up to token names and RNG streams:
    different random bases differ in how far DPG moves them in a fixed number
    of iterations (final/initial exact KL from 0.45 to 0.65 over eight bases
    at body 8, lmax 6), which would make `final_kl_p_pi_exact` spread across
    seeds by more than any bound allows.
    """
    config_path = dest / "config.json"
    if config_path.exists():
        return config_path
    sys.path.insert(0, str(root / "src"))
    from distctl import SequenceSpace, TabularARModel, Vocabulary

    logits = np.random.default_rng(LADDER_LOGITS_SEED).standard_normal((1 + body, body + 1))
    token = int(np.argmin(np.abs(presence_rates(logits, body, lmax) - LADDER_BASE_PRESENCE)))
    perm = np.random.default_rng(seed).permutation(body)
    rows = np.concatenate([[0], 1 + perm])
    cols = np.concatenate([perm, [body]])
    relabeled = np.empty_like(logits)
    relabeled[np.ix_(rows, cols)] = logits
    vocab = Vocabulary.from_body_tokens([f"w{i}" for i in range(body)])
    space = SequenceSpace(vocabulary=vocab, lmax=lmax)
    model = TabularARModel(space=space, order=2, logits=relabeled)
    dest.mkdir(parents=True, exist_ok=True)
    (dest / "base.json").write_text(json.dumps(model.to_document()) + "\n")
    cfg = {
        "seed": seed,
        "space": {"lmax": lmax},
        "base_model": {"model_file": "base.json"},
        "constraints": [
            {"id": "presence", "kind": "token-presence", "token": f"w{perm[token]}", "target": 0.5}
        ],
        "fit": {"sample_count": fit_samples, "tolerance": 1e-5},
        "trainer": trainer,
        "eval": {"eval_every": trainer["iterations"], "sample_size": 256, "exact_oracle": True},
    }
    return _write_config(config_path, cfg)


def plan_ladder(root: Path, work: Path, seed: int, small: bool) -> Plan:
    body, lmax, iterations = (5, 4, 4) if small else (9, 7, 24)
    trainer = {"method": "gdc", "iterations": iterations, "samples_per_iteration": 1024,
               "learning_rate": 2.0, "adaptivity": "kl"}
    dest = work.parent / "ladder-inputs" / f"seed-{seed}{'-small' if small else ''}"
    # With a 20k-row fit sample, the fitted lambda's sampling noise set most of
    # final_kl_p_pi_exact's spread across seeds; 200k rows cut it threefold.
    config = generate_ladder(root, dest, seed, body, lmax, trainer, 20000 if small else 200000)
    cfg = json.loads(config.read_text())
    return Plan(
        steps=[_train_step("train", config, cfg, None)],
        setup_config=config,
    )


PLANNERS = {
    "demo-distributional": plan_distributional,
    "demo-ablation": plan_ablation,
    "ladder-5m": plan_ladder,
    "demo-baselines": plan_baselines,
}


# -- output checks ----------------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _trainer_runs(step: Step, out_dir: Path) -> list[TrainerRun]:
    if step.command == "ablation":
        groups: dict[str, list] = {}
        for row in _read_csv(out_dir / "ablation.csv"):
            groups.setdefault(f"{row['variant']}/{row['seed']}", []).append(row)
        return [TrainerRun(label, step.method, rows) for label, rows in groups.items()]
    return [TrainerRun(step.label, step.method, _read_csv(out_dir / "metrics.csv"))]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run(plan: Plan, out_dirs: dict[str, Path], reports: dict[str, dict]) -> tuple[list[str], dict]:
    """Check one workload run's outputs; return (errors, digest).

    The digest holds the fixed-seed results a later change should leave
    alone or explain: lambda, fit steps, swap count, final exact KL of each
    trainer run and the sha256 of each metrics CSV.
    """
    errors: list[str] = []
    runs: list[TrainerRun] = []
    digest: dict = {"lambda": [], "fit_steps": 0, "swaps": 0, "final_kl": {}, "sha256": {}}
    for step in plan.steps:
        out = out_dirs[step.label]
        artifacts = ABLATION_ARTIFACTS if step.command == "ablation" else TRAIN_ARTIFACTS
        missing = [a for a in artifacts if not (out / a).is_file()]
        if missing:
            errors.append(f"{step.label}: missing artifacts {missing}")
            continue
        step_runs = _trainer_runs(step, out)
        for run in step_runs:
            if len(run.rows) != step.snapshots:
                errors.append(f"{run.label}: {len(run.rows)} snapshot rows, expected {step.snapshots}")
        runs += step_runs
        csv_name = "ablation.csv" if step.command == "ablation" else "metrics.csv"
        digest["sha256"][step.label] = _sha256(out / csv_name)
        if step.command == "train":
            report = json.loads((out / "fit_report.json").read_text())
            digest["lambda"] += report.get("lambda", [])
            digest["fit_steps"] += report.get("steps_used", 0)
        digest["swaps"] += sum(c["swaps"] or 0 for c in reports[step.label]["trainers"])
    if errors:
        return errors, digest

    base_kl = {r.exact(0) for r in runs if len(r.rows) > 1}
    for run in runs:
        first, last = run.exact(0), run.exact(-1)
        digest["final_kl"][run.label] = last
        if not (math.isfinite(last) and last >= 0.0):
            errors.append(f"{run.label}: final kl_p_pi_exact {last!r} is not finite and >= 0")
        elif run.method == "reinforce-P":
            # Maximizing E[P(x)] collapses the policy onto the constraint, so
            # KL(p||pi) rises by design; the reward must rise instead.
            column = next(c for c in run.rows[0] if c.startswith("e_phi_exact_"))
            if not run.exact(-1, column) > run.exact(0, column):
                errors.append(f"{run.label}: exact constraint moment did not rise")
        elif run.method == "rejection-mle":
            # One snapshot only: compare with the base model's KL, the step-0
            # value of the workload's other trainer runs.
            if not base_kl or not all(last < kl for kl in base_kl):
                errors.append(f"{run.label}: final kl_p_pi_exact {last:.4g} not below the base's")
        elif not last < first:
            errors.append(f"{run.label}: final kl_p_pi_exact {last:.4g} not below step-0 {first:.4g}")
    for check in plan.extra_checks:
        errors += check(runs, out_dirs)
    return errors, digest


def final_kl_mean(digest: dict) -> float:
    values = list(digest["final_kl"].values())
    return sum(values) / len(values)
