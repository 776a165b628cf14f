import csv
import dataclasses
import importlib.util
import inspect
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import distctl
from distctl import baselines as baselines_module
from distctl import config as config_module
from distctl import ebm as ebm_module
from distctl import cli, errors, lm, seqspace
from distctl.cli import main
from distctl.baselines import REJECTION_MLE, BaselineConfig, RejectionConfig
from distctl.config import ExperimentConfig
from distctl.dpg import GDC_METHOD, DpgConfig, seed_streams
from distctl.ebm import Ebm, FitConfig, fit_lambda
from distctl.errors import ConfigError
from distctl.estimators import exact_kl
from distctl.lm import TabularARModel
from distctl.metrics import EvalOptions
from distctl.seqspace import SequenceSpace, Vocabulary

from helpers import (
    synthetic_corpus,
    traced_peak,
    universe_arrays,
    universe_features,
    whole_matrix_normalize,
)


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(99)
    text = synthetic_corpus(
        rng,
        tokens=["red", "green", "blue", "gold"],
        weights=[0.4, 0.3, 0.2, 0.1],
        n_lines=120,
        min_len=1,
        max_len=5,
    )
    (tmp_path / "corpus.txt").write_text(text)
    return tmp_path


def write_config(workdir, name="exp.json", **overrides):
    cfg = {
        "seed": 0,
        "space": {"lmax": 5},
        "base_model": {"corpus": "corpus.txt", "order": 2, "smoothing": 0.5},
        "constraints": [
            {"id": "gold", "kind": "token-presence", "token": "gold", "target": 0.5}
        ],
        "fit": {"sample_count": 20000, "tolerance": 1e-4},
        "trainer": {
            "method": "gdc",
            "iterations": 10,
            "samples_per_iteration": 128,
            "learning_rate": 0.5,
        },
        "eval": {"eval_every": 5, "sample_size": 64, "exact_oracle": True},
        "output": "out",
    }
    cfg.update(overrides)
    path = workdir / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def demo_config(tmp_path, name, **space):
    """A demo config written to `tmp_path`, reading the demo corpus and writing
    to `tmp_path/out`; `space` keys replace the demo's."""
    demo = Path(__file__).parent.parent / "demo"
    cfg = json.loads((demo / f"{name}.json").read_text())
    cfg["base_model"]["corpus"] = str(demo / cfg["base_model"]["corpus"])
    cfg["space"].update(space)
    cfg["output"] = "out"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_fit_distributional(workdir):
    cfg = write_config(workdir)
    assert main(["fit", "--config", str(cfg)]) == 0
    report = json.loads((workdir / "out" / "fit_report.json").read_text())
    assert "mode" not in report
    assert report["lambda_ids"] == report["constraint_ids"] == ["gold"]
    assert len(report["lambda"]) == len(report["achieved_moments"]) == 1
    assert report["converged"] is True
    manifest = json.loads((workdir / "out" / "manifest.json").read_text())
    for path in manifest["artifacts"].values():
        assert Path(path).exists()
    assert "wall_clock_seconds" in manifest


def test_fit_pointwise_reports_no_lambda(workdir):
    cfg = write_config(
        workdir,
        constraints=[
            {
                "id": "gold",
                "kind": "token-presence",
                "token": "gold",
                "target": 1.0,
                "pointwise": True,
            }
        ],
    )
    assert main(["fit", "--config", str(cfg)]) == 0
    report = json.loads((workdir / "out" / "fit_report.json").read_text())
    assert report == {
        "lambda_ids": [],
        "constraint_ids": ["gold"],
        "lambda": [],
        "achieved_moments": [],
        "objective": 0.0,
        "steps_used": 0,
        "rows_used": 0,
        "converged": True,
    }


def test_unconverged_fit_reports_its_max_gap(workdir, capsys, monkeypatch):
    """A fit stopped short, here at a MAX_NEWTON_STEPS backstop of 1."""
    monkeypatch.setattr(ebm_module, "MAX_NEWTON_STEPS", 1)
    cfg = write_config(workdir, fit={"sample_count": 2000, "tolerance": 1e-12})
    assert main(["fit", "--config", str(cfg)]) == 0
    report = json.loads((workdir / "out" / "fit_report.json").read_text())
    assert report["converged"] is False and report["steps_used"] == 1
    gap = abs(report["achieved_moments"][0] - 0.5)
    assert f"fit did not converge: max |gap| {gap:.6g}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "train", "ablation", "oracle", "eval"])
def test_every_command_that_fits_reports_an_unconverged_fit(workdir, capsys, command):
    """A lam held at its clamp leaves the fit unconverged. Every command that
    fits still runs on that target and exits 0, and prints the fit's largest
    moment gap to stderr, once; a converged fit prints nothing."""
    overrides = {
        "trainer": dict(SMALL_LOOP, method="gdc"),
        "eval": {"eval_every": 1, "sample_size": 16, "exact_oracle": True,
                 "ablation": {"variants": ["kl"], "seeds": [0]}},
    }
    if command == "eval":  # eval reads a persisted base
        base = ExperimentConfig.load(write_config(workdir)).build_base()
        base.write_document(workdir / "base.json")
        overrides["base_model"] = {"model_file": "base.json"}
    for clamp, converged in ((20.0, True), (1e-3, False)):
        fit = {"sample_count": 2000, "tolerance": 1e-4, "lambda_clamp": clamp}
        cfg = write_config(workdir, fit=fit, **overrides)
        assert main([command, "--config", str(cfg)]) == 0
        loaded = ExperimentConfig.load(cfg)
        report, _ = fit_lambda(*cli._build(loaded), loaded.fit_config, seed_streams(0).fit)
        assert report.converged is converged
        gap = abs(report.achieved_moments[0] - 0.5)
        expected = "" if converged else f"fit did not converge: max |gap| {gap:.6g}\n"
        assert capsys.readouterr().err == expected


def test_fit_unattainable_exits_3(workdir):
    # 'gold' never follows 'gold' twice in a tiny budget: use an impossible prefix target
    cfg = write_config(
        workdir,
        constraints=[
            {
                "id": "impossible",
                "kind": "prefix-match",
                "tokens": ["gold", "gold", "gold", "gold", "gold"],
                "target": 0.5,
            }
        ],
        fit={"sample_count": 200, "tolerance": 1e-4},
    )
    code = main(["fit", "--config", str(cfg)])
    assert code == 3


def test_train_writes_all_artifacts(workdir):
    cfg = write_config(workdir)
    assert main(["train", "--config", str(cfg)]) == 0
    out = workdir / "out"
    rows = read_csv(out / "metrics.csv")
    header = rows[0]
    assert header[:2] == ["step", "method"]
    assert "kl_p_pi_exact" in header
    assert [r[0] for r in rows[1:]] == ["0", "5", "10"]
    manifest = json.loads((out / "manifest.json").read_text())
    for path in manifest["artifacts"].values():
        assert Path(path).exists()
    model_doc = json.loads((out / "model.json").read_text())
    assert model_doc["format"] == "distctl-tabular-ar"
    assert (out / "samples.txt").read_text().strip()
    zipf_rows = read_csv(out / "zipf.csv")
    assert zipf_rows[0] == ["rank", "token", "frequency"]


def test_train_zero_iterations_snapshot_only(workdir):
    cfg = write_config(
        workdir,
        trainer={
            "method": "gdc",
            "iterations": 0,
            "samples_per_iteration": 8,
            "learning_rate": 0.5,
        },
    )
    assert main(["train", "--config", str(cfg)]) == 0
    rows = read_csv(workdir / "out" / "metrics.csv")
    assert len(rows) == 2 and rows[1][0] == "0"


def test_train_byte_identical_reruns(workdir):
    cfg = write_config(workdir)
    assert main(["train", "--config", str(cfg), "--output", str(workdir / "run1")]) == 0
    assert main(["train", "--config", str(cfg), "--output", str(workdir / "run2")]) == 0
    for name in ("metrics.csv", "model.json", "samples.txt", "zipf.csv", "fit_report.json"):
        first = (workdir / "run1" / name).read_bytes()
        second = (workdir / "run2" / name).read_bytes()
        assert first == second, name


def test_model_json_reads_back_as_a_mapped_model_that_writes_the_same_bytes(workdir):
    assert main(["train", "--config", str(write_config(workdir))]) == 0
    text = (workdir / "out" / "model.json").read_text()
    doc = json.loads(text)
    model = TabularARModel.from_document(doc)
    assert len(model.logits) == len(doc["rows"])
    assert len(doc["rows"]) < len(doc["row_map"])
    model.write_document(workdir / "rewritten.json")
    assert (workdir / "rewritten.json").read_text() == text


def test_train_from_a_persisted_trained_policy(workdir, monkeypatch):
    """The lifted policy of a base read from model.json stores each of the
    file's rows once, and its run matches the run from a dense copy of the
    file (every context's row, read through an identity `row_map`) bit for
    bit."""
    assert main(["train", "--config", str(write_config(workdir))]) == 0
    doc = json.loads((workdir / "out" / "model.json").read_text())
    n = len(doc["row_map"])
    dense = {**doc, "rows": [doc["rows"][i] for i in doc["row_map"]], "row_map": list(range(n))}
    (workdir / "dense-model.json").write_text(json.dumps(dense))
    lift = TabularARModel.to_order
    stored = []

    def recording_lift(self, order, trainable=False):
        lifted = lift(self, order, trainable)
        stored.append(len(lifted.logits))
        return lifted

    monkeypatch.setattr(TabularARModel, "to_order", recording_lift)
    for name, model_file in (("mapped", "out/model.json"), ("dense", "dense-model.json")):
        cfg = write_config(workdir, name=f"from-{name}.json", base_model={"model_file": model_file},
                           output=name)
        assert main(["train", "--config", str(cfg)]) == 0
    assert stored == [len(doc["rows"]), n]
    assert (workdir / "mapped" / "metrics.csv").read_bytes() == (
        workdir / "dense" / "metrics.csv"
    ).read_bytes()


def test_seed_override_changes_metrics(workdir):
    cfg = write_config(workdir)
    main(["train", "--config", str(cfg), "--output", str(workdir / "s0")])
    main(["train", "--config", str(cfg), "--output", str(workdir / "s1"), "--seed-override", "5"])
    assert (workdir / "s0" / "metrics.csv").read_bytes() != (
        workdir / "s1" / "metrics.csv"
    ).read_bytes()


def test_paired_gdc_vs_reinforce_runs(workdir):
    cfg = write_config(workdir, name="gdc.json")
    baseline = write_config(
        workdir,
        name="reinforce.json",
        constraints=[
            {
                "id": "gold",
                "kind": "token-presence",
                "token": "gold",
                "target": 1.0,
                "pointwise": True,
            }
        ],
        trainer={
            "method": "reinforce-phi",
            "iterations": 10,
            "samples_per_iteration": 128,
            "learning_rate": 1.0,
        },
    )
    gdc_pointwise = write_config(
        workdir,
        name="gdc_pw.json",
        constraints=[
            {
                "id": "gold",
                "kind": "token-presence",
                "token": "gold",
                "target": 1.0,
                "pointwise": True,
            }
        ],
    )
    assert main(["train", "--config", str(gdc_pointwise), "--output", str(workdir / "a")]) == 0
    assert main(["train", "--config", str(baseline), "--output", str(workdir / "b")]) == 0
    left, right = read_csv(workdir / "a" / "metrics.csv"), read_csv(workdir / "b" / "metrics.csv")
    assert left[0] == right[0]  # comparable columns
    assert {row[1] for row in left[1:]} == {"gdc"}
    assert {row[1] for row in right[1:]} == {"reinforce-phi"}


def test_the_trainer_hooks_the_benchmark_launcher_binds(workdir, monkeypatch):
    """The benchmark's launcher times each trainer call by rebinding
    `cli.train` and `cli.train_baseline`, and reads the config's
    `iterations` and `samples_per_iteration` and the result's
    `state.proposal_updates`: one call of each, on a gdc and a
    reinforce-phi train."""
    calls = []

    def recording(name, fn):
        def wrapper(base, target, config, *args, **kwargs):
            result = fn(base, target, config, *args, **kwargs)
            samples = config.iterations * config.samples_per_iteration
            calls.append((name, samples, result.state.proposal_updates))
            return result

        return wrapper

    for name in ("train", "train_baseline"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    for method in ("gdc", "reinforce-phi"):
        path = write_config(workdir, name=f"{method}.json", output=method,
                            trainer=dict(SMALL_LOOP, method=method),
                            eval={"eval_every": 1, "sample_size": 16})
        assert main(["train", "--config", str(path)]) == 0, method
    assert [(name, samples) for name, samples, _ in calls] == [("train", 16), ("train_baseline", 16)]
    assert all(isinstance(swaps, int) for *_, swaps in calls)


def test_the_benchmark_launcher_sets_up_a_demo():
    """The benchmark times `bench/launch.py setup` on a demo config: its calls
    into `distctl.config` (load, the base, the constraints) must resolve."""
    root = Path(__file__).parent.parent
    spec = importlib.util.spec_from_file_location("launch", root / "bench" / "launch.py")
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    assert launch.main(["setup", str(root / "demo" / "distributional.json")]) == 0


def test_main_looks_up_its_command_when_called(workdir, monkeypatch):
    """`main` runs `run_<command>` as the module binds it at the call, so a
    rebound command function (a tracer's wrapper, a test's stub) is the one
    that runs."""
    runs = []
    monkeypatch.setattr(cli, "run_fit", runs.append)
    assert main(["fit", "--config", str(write_config(workdir))]) == 0
    [run] = runs
    assert isinstance(run, cli._Run) and run.cfg.fit_config.sample_count == 20000
    assert not (workdir / "out" / "fit_report.json").exists()


def test_commands_run_on_the_config_objects_load_built(workdir, monkeypatch):
    """The fit and the trainer get the objects the config built at load, and
    a seed override reaches both: the fit draws from the root stream of the
    overridden seed, the trainer from that seed's `train` and `eval` streams.
    An ablation cell is the trainer config with the variant's adaptivity,
    trained on the streams of the grid's seed."""
    runs, fits, calls = [], [], []

    class RecordingRun(cli._Run):
        def __init__(self, cfg, *args):
            super().__init__(cfg, *args)
            runs.append(cfg)

    def states(streams):  # the train and eval streams before the trainer draws
        return [stream.bit_generator.state for stream in (streams.train, streams.eval)]

    def recording(fn, into):
        def wrapper(base, target, config, streams, eval_options):
            into.append((config, states(streams), eval_options))
            return fn(base, target, config, streams, eval_options)

        return wrapper

    def recording_fit(base, constraint_set, config, rng):
        fits.append((config, rng.bit_generator.state))  # the stream before the fit draws
        return fit_lambda(base, constraint_set, config, rng)

    monkeypatch.setattr(cli, "_Run", RecordingRun)
    monkeypatch.setattr(cli, "fit_lambda", recording_fit)
    monkeypatch.setattr(cli, "train", recording(cli.train, calls))
    ablation = {"variants": ["kl", "none"], "seeds": [0, 2]}
    path = write_config(workdir, trainer=dict(SMALL_LOOP, method="gdc", optimizer="adam"),
                        eval={"eval_every": 1, "sample_size": 16, "ablation": ablation})
    assert main(["train", "--config", str(path), "--seed-override", "5"]) == 0
    cfg = runs[0]
    assert cfg.seed == 5
    [(fit_config, fit_stream)] = fits
    assert fit_stream == np.random.default_rng(5).bit_generator.state
    assert fit_stream != np.random.default_rng(0).bit_generator.state
    [(config, trainer_streams, eval_options)] = calls
    assert fit_config is cfg.fit_config
    assert config is cfg.trainer_config and eval_options is cfg.eval_options
    assert trainer_streams == states(seed_streams(5))
    assert trainer_streams != states(seed_streams(0))
    calls.clear()
    assert main(["ablation", "--config", str(path), "--seed-override", "5"]) == 0
    cfg = runs[1]
    cells = [("kl", 0), ("kl", 2), ("none", 0), ("none", 2)]
    assert len(calls) == len(cells)
    for (config, trainer_streams, eval_options), (adaptivity, seed) in zip(calls, cells):
        assert config == dataclasses.replace(cfg.trainer_config, adaptivity=adaptivity)
        assert trainer_streams == states(seed_streams(seed))
        assert eval_options is cfg.eval_options


@pytest.mark.parametrize("command", ["train", "ablation"])
def test_a_missing_trainer_block_exits_2_before_the_base_is_built(
    workdir, capsys, monkeypatch, command
):
    path = write_config(workdir)
    cfg = json.loads(path.read_text())
    del cfg["trainer"]
    path.write_text(json.dumps(cfg))

    def no_base(*args, **kwargs):
        raise AssertionError("built the base before refusing the config")

    monkeypatch.setattr(ExperimentConfig, "build_base", no_base)
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: config.trainer is a required block and missing\n"


def test_rejection_mle_method(workdir):
    cfg = write_config(
        workdir,
        constraints=[
            {
                "id": "gold",
                "kind": "token-presence",
                "token": "gold",
                "target": 1.0,
                "pointwise": True,
            }
        ],
        trainer={"method": "rejection-mle", "sample_budget": 5000, "fit_order": 2,
                 "fit_smoothing": 0.5},
    )
    assert main(["train", "--config", str(cfg)]) == 0
    run = json.loads((workdir / "out" / "run.json").read_text())
    assert run["method"] == "rejection-mle"
    assert 0.0 < run["acceptance_rate"] < 1.0


def test_rejection_mle_without_a_pointwise_constraint_exits_2_before_any_fit(
    workdir, capsys, monkeypatch
):
    """rejection-mle filters on the pointwise constraints, so a set without
    one is refused once the constraints are built: before the base's fit,
    the λ-fit's draws or rejection-mle's refit."""

    def never(*args, **kwargs):
        raise AssertionError("a fit ran before the refusal")

    for module, name in ((config_module, "mle_fit"), (baselines_module, "mle_fit"),
                         (cli, "fit_lambda")):
        monkeypatch.setattr(module, name, never)
    cfg = write_config(workdir, trainer=REJECTION_TRAINER)
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: constraint set has no pointwise members\n"


def test_ablation_grid(workdir):
    cfg = write_config(
        workdir,
        eval={
            "eval_every": 5,
            "sample_size": 32,
            "exact_oracle": True,
            "threshold": 0.5,
            "ablation": {"variants": ["kl", "none"], "seeds": [0, 1]},
        },
    )
    assert main(["ablation", "--config", str(cfg)]) == 0
    rows = read_csv(workdir / "out" / "ablation.csv")
    assert rows[0][:4] == ["variant", "seed", "samples_drawn", "below_threshold"]
    combos = {(r[0], r[1]) for r in rows[1:]}
    assert combos == {("kl", "0"), ("kl", "1"), ("none", "0"), ("none", "1")}


# Two presence constraints, so each e_phi column group has two members in order.
TWO_PRESENCE = [
    {"id": "gold", "kind": "token-presence", "token": "gold", "target": 0.5},
    {"id": "red", "kind": "token-presence", "token": "red", "target": 0.6},
]
QUICK_FIT = {"sample_count": 4000, "tolerance": 1e-3}


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_metrics_csv_header(workdir, exact):
    path = write_config(workdir, constraints=TWO_PRESENCE, fit=QUICK_FIT,
                        trainer=dict(SMALL_LOOP, method="gdc"),
                        eval={"eval_every": 1, "sample_size": 16, "exact_oracle": exact})
    assert main(["train", "--config", str(path)]) == 0
    rows = read_csv(workdir / "out" / "metrics.csv")
    sampled = [
        "step", "method", "e_phi_gold", "e_phi_red", "kl_p_pi", "kl_p_pi_se", "kl_pi_a",
        "kl_pi_a_se", "dist_1", "dist_2", "dist_3", "self_bleu_3", "self_bleu_4", "self_bleu_5",
        "z_ma",
    ]
    exact_columns = ["kl_p_pi_exact", "e_phi_exact_gold", "e_phi_exact_red"]
    assert rows[0] == sampled + (exact_columns if exact else [])
    assert [len(row) for row in rows[1:]] == [len(rows[0])] * 3


def test_metrics_csv_keeps_both_columns_of_one_name(workdir):
    """Ids `x` and `exact_x` both give a column `e_phi_exact_x`: the sampled
    column of `exact_x` and the exact column of `x`. Both stay, in order."""
    ids = [dict(c, id=cid) for c, cid in zip(TWO_PRESENCE, ["x", "exact_x"])]
    path = write_config(workdir, constraints=ids, fit=QUICK_FIT,
                        trainer=dict(SMALL_LOOP, method="gdc"),
                        eval={"eval_every": 2, "sample_size": 16, "exact_oracle": True})
    assert main(["train", "--config", str(path)]) == 0
    rows = read_csv(workdir / "out" / "metrics.csv")
    assert rows[0] == [
        "step", "method", "e_phi_x", "e_phi_exact_x", "kl_p_pi", "kl_p_pi_se", "kl_pi_a",
        "kl_pi_a_se", "dist_1", "dist_2", "dist_3", "self_bleu_3", "self_bleu_4", "self_bleu_5",
        "z_ma", "kl_p_pi_exact", "e_phi_exact_x", "e_phi_exact_exact_x",
    ]
    assert [len(row) for row in rows[1:]] == [len(rows[0])] * 2


@pytest.mark.parametrize("threshold", [None, 0.5], ids=["no-threshold", "threshold"])
def test_ablation_csv_header(workdir, threshold):
    eval_block = {"eval_every": 2, "sample_size": 16, "exact_oracle": True,
                  "ablation": {"variants": ["kl", "none"], "seeds": [0]}}
    if threshold is not None:
        eval_block["threshold"] = threshold
    path = write_config(workdir, fit=QUICK_FIT, trainer=dict(SMALL_LOOP, method="gdc"),
                        eval=eval_block)
    assert main(["ablation", "--config", str(path)]) == 0
    rows = read_csv(workdir / "out" / "ablation.csv")
    grid = ["variant", "seed", "samples_drawn"]
    if threshold is not None:
        grid.append("below_threshold")
    assert rows[0] == grid + [
        "step", "method", "e_phi_gold", "kl_p_pi", "kl_p_pi_se", "kl_pi_a", "kl_pi_a_se",
        "dist_1", "dist_2", "dist_3", "self_bleu_3", "self_bleu_4", "self_bleu_5", "z_ma",
        "kl_p_pi_exact", "e_phi_exact_gold",
    ]
    assert [row[:3] for row in rows[1:]] == [
        [variant, "0", drawn] for variant in ("kl", "none") for drawn in ("0", "16")
    ]


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_key_tables_name_the_fields_of_their_objects():
    """Each JSON key table of `config` and the object its block builds agree,
    so a field added on one side only fails here."""
    eval_fields = {"exact_oracle" if name == "exact" else name for name in _field_names(EvalOptions)}
    assert set(config_module.EVAL_KEYS) - {"ablation"} == eval_fields
    assert set(config_module.FIT_KEYS) == _field_names(FitConfig)
    for method, (keys, required) in config_module.TRAINER_SCHEMAS.items():
        cls = {GDC_METHOD: DpgConfig, REJECTION_MLE: RejectionConfig}.get(method, BaselineConfig)
        assert set(keys) <= _field_names(cls), method
        no_default = {
            f.name for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        }
        assert no_default - {"kind"} <= set(required), method  # `kind` is the method itself


PHASES = ["build", "fit", "train", "write"]
# Each command's artifacts, in write order.
ARTIFACTS = {
    "fit": ["fit_report"],
    "train": ["fit_report", "metrics", "model", "samples", "zipf", "run"],
    "ablation": ["ablation"],
    "oracle": ["oracle"],
    "eval": ["metrics", "samples", "zipf"],
}


def assert_manifest(manifest_path, names, artifacts):
    """The manifest times exactly the phases `names` and lists exactly
    `artifacts`, in that order, each an existing file."""
    manifest = json.loads(manifest_path.read_text())
    phases = manifest["phase_seconds"]
    assert list(phases) == names
    assert all(seconds >= 0.0 for seconds in phases.values())
    assert sum(phases.values()) <= manifest["wall_clock_seconds"]
    assert list(manifest["artifacts"]) == artifacts
    assert all(Path(path).is_file() for path in manifest["artifacts"].values())


@pytest.mark.parametrize("command", ["train", "ablation"])
def test_manifest_times_each_phase(workdir, command):
    ablation = {"variants": ["kl", "none"], "seeds": [0]}
    cfg = write_config(workdir, eval={"eval_every": 5, "sample_size": 32, "ablation": ablation})
    assert main([command, "--config", str(cfg)]) == 0
    assert_manifest(workdir / "out" / "manifest.json", PHASES, ARTIFACTS[command])


@pytest.mark.parametrize(
    "command, names",
    [
        ("fit", ["build", "fit", "write"]),
        ("oracle", ["build", "fit", "oracle", "write"]),
        ("eval", ["build", "fit", "eval", "write"]),
    ],
)
def test_manifest_times_each_phase_of_the_other_commands(workdir, command, names):
    cfg = write_config(workdir)
    if command == "eval":
        assert main(["train", "--config", str(cfg)]) == 0
        cfg = write_config(workdir, name="eval.json", base_model={"model_file": "out/model.json"},
                           output="eval-out")
    assert main([command, "--config", str(cfg)]) == 0
    out = "eval-out" if command == "eval" else "out"
    assert_manifest(workdir / out / "manifest.json", names, ARTIFACTS[command])
    if command == "eval":  # without constraints there is no snapshot, so no metrics.csv
        cfg = write_config(workdir, name="eval-unconstrained.json", constraints=[],
                           base_model={"model_file": "out/model.json"}, output="bare-out")
        assert main(["eval", "--config", str(cfg)]) == 0
        assert_manifest(workdir / "bare-out" / "manifest.json", names, ["samples", "zipf"])


# Tracemalloc peaks of the whole exact commands below, in universe-sized
# float64 arrays: the oracle reads 5.41-5.56 and train 2.54-2.55 from run to
# run. The oracle's perturbations project through a Gram matrix (it read 10.73
# when they built a support x (1 + k) basis for `lstsq`). A train's exact
# snapshots enumerate nothing, and its model write turns the document into
# text a chunk at a time, so its peak is the training's own (it read 7.84-7.97
# when the write built the whole document's lists and JSON text first).
EXACT_COMMAND_UNIVERSE_ARRAYS = {"oracle": 6.0, "train": 3.0}


@pytest.mark.parametrize("command", ["oracle", "train"])
def test_exact_commands_never_build_the_enumeration(workdir, monkeypatch, command):
    """The oracle holds about 6 universe-sized float64 arrays at once, and
    takes its moment-preserving perturbations one at a time; a train holds
    about 2.5, none of them its snapshots'. On this long, narrow space (two
    body tokens, lmax 14) the universe's token matrix alone would be 7 such
    arrays, its lengths one more, and the blocks it is joined from as many
    again. `write_document` holds a chunk of the model's text at a time, so
    the write adds little to what the train held before it."""
    monkeypatch.setattr(seqspace, "ENUMERATION_CHUNK_ROWS", 256)
    text = synthetic_corpus(np.random.default_rng(7), tokens=["red", "gold"], weights=[0.7, 0.3],
                            n_lines=120, min_len=1, max_len=8)
    (workdir / "narrow.txt").write_text(text)
    cfg = write_config(workdir, space={"lmax": 14},
                       base_model={"corpus": "narrow.txt", "order": 2, "smoothing": 0.5},
                       fit={"sample_count": 2000, "tolerance": 1e-4})
    code, peak = traced_peak(main, [command, "--config", str(cfg)])
    assert code == 0
    space = SequenceSpace(Vocabulary.from_body_tokens(["gold", "red"]), 14)  # 32,767 sequences
    assert universe_arrays(peak, space) <= EXACT_COMMAND_UNIVERSE_ARRAYS[command]
    assert not hasattr(SequenceSpace, "enumeration")
    assert not hasattr(SequenceSpace, "enumeration_blocks")


def test_oracle_identity_and_pointwise(workdir):
    cfg = write_config(workdir, constraints=[
        {"id": "gold", "kind": "token-presence", "token": "gold", "target": 1.0,
         "pointwise": True}
    ])
    assert main(["oracle", "--config", str(cfg)]) == 0
    doc = json.loads((workdir / "out" / "oracle.json").read_text())
    assert 0.0 < doc["z"] < 1.0
    assert doc["pythagorean_residual_max"] < 1e-4
    assert doc["exact_moments"][0] == pytest.approx(1.0)
    # no lambda: KL(p || a) = lam . E_p[phi] - log Z is -log Z alone
    assert doc["kl_p_a"] == pytest.approx(-np.log(doc["z"]), rel=1e-12, abs=0)


RATIO = {"id": "ratio", "kind": "token-ratio", "numerator": ["gold"],
         "denominator": ["gold", "red"], "target": 0.3}
ORACLE_CONSTRAINTS = {
    "distributional": [
        {"id": "gold", "kind": "token-presence", "token": "gold", "target": 0.5},
        {"id": "start", "kind": "prefix-match", "tokens": ["red"], "target": 0.6},
    ],
    "token-ratio": [RATIO],
    "hybrid": [
        {"id": "blue", "kind": "token-presence", "token": "blue", "target": 1.0,
         "pointwise": True},
        {"id": "colors", "kind": "wordlist-presence", "tokens": ["green", "gold"],
         "target": 0.7},
        RATIO,
    ],
}


@pytest.mark.parametrize("kind", list(ORACLE_CONSTRAINTS))
def test_oracle_matches_the_enumeration(workdir, kind):
    """`z`, `exact_moments` and `kl_p_a` equal the tests' enumeration of the
    same fitted target to 1e-12 relative, its features from `feature_matrix`
    over the universe's token blocks, and the Pythagorean residual is a
    number below 1e-12."""
    path = write_config(workdir, constraints=ORACLE_CONSTRAINTS[kind])
    assert main(["oracle", "--config", str(path)]) == 0
    doc = json.loads((workdir / "out" / "oracle.json").read_text())
    cfg = ExperimentConfig.load(path)
    base = cfg.build_base()
    constraint_set = cfg.build_constraints(base.space)
    _, target = fit_lambda(base, constraint_set, cfg.fit_config, seed_streams(cfg.seed).fit)
    z, p = whole_matrix_normalize(target)
    assert doc["universe_size"] == len(p)
    assert doc["z"] == pytest.approx(z, rel=1e-12, abs=0)
    np.testing.assert_allclose(doc["exact_moments"], p @ universe_features(target),
                               rtol=1e-12, atol=0)
    kl_p_a = exact_kl(p, base.exact_distribution())
    assert doc["kl_p_a"] == pytest.approx(kl_p_a, rel=1e-12, abs=0)
    residual = doc["pythagorean_residual_max"]
    assert isinstance(residual, float) and residual < 1e-12


def test_an_oracle_whose_tilt_can_overflow_exits_2(workdir, capsys):
    """With a clamp past MAX_TILT per distributional constraint, exp(lam . phi)
    can overflow: the oracle wrote z Infinity and nan moments, exit 0. The
    fit refuses such a clamp."""
    path = write_config(workdir, constraints=ORACLE_CONSTRAINTS["distributional"],
                        fit={"sample_count": 2000, "lambda_clamp": 1e6})
    assert main(["oracle", "--config", str(path)]) == 2
    assert "lambda_clamp must be <= 354.891 for 2 distributional constraints" in (
        capsys.readouterr().err
    )


def test_train_never_computes_the_target_moments(workdir, monkeypatch):
    """A snapshot reads the target's beta tables only: a train with
    exact_oracle on writes the same metrics.csv when E_p[phi] and KL(p || a)
    cannot be computed at all."""
    assert main(["train", "--config", str(write_config(workdir, output="free"))]) == 0

    def refuse(self):
        raise AssertionError("a train computed E_p[phi] and KL(p || a)")

    monkeypatch.setattr(Ebm, "exact_target_terms", refuse)
    assert main(["train", "--config", str(write_config(workdir, output="refused"))]) == 0
    assert (workdir / "refused" / "metrics.csv").read_bytes() == (
        workdir / "free" / "metrics.csv"
    ).read_bytes()


def test_eval_on_persisted_model(workdir):
    cfg = write_config(workdir)
    assert main(["train", "--config", str(cfg)]) == 0
    eval_cfg = write_config(
        workdir,
        name="eval.json",
        base_model={"model_file": "out/model.json"},
        output="eval-out",
    )
    assert main(["eval", "--config", str(eval_cfg)]) == 0
    assert (workdir / "eval-out" / "zipf.csv").exists()
    assert (workdir / "eval-out" / "metrics.csv").exists()


def test_samples_and_zipf_describe_one_batch(workdir):
    cfg = write_config(workdir)
    assert main(["train", "--config", str(cfg)]) == 0
    eval_cfg = write_config(
        workdir, name="eval.json", base_model={"model_file": "out/model.json"}, output="eval-out"
    )
    assert main(["eval", "--config", str(eval_cfg)]) == 0
    for out in (workdir / "out", workdir / "eval-out"):
        counts = Counter((out / "samples.txt").read_text().split())
        frequencies = {token: int(f) for _, token, f in read_csv(out / "zipf.csv")[1:]}
        assert counts == frequencies, out.name


def draws_by_call(monkeypatch, *names):
    """Record every block the sampler draws (`_sample_block`, every draw's
    core) under the name of the `cli` function among `names` whose call drew
    it, and None outside them."""
    blocks, current = {}, [None]
    draw_block = TabularARModel._sample_block

    def recording_block(self, n, rng):
        block = draw_block(self, n, rng)
        blocks.setdefault(current[0], []).append(block)
        return block

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            current[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                current[0] = None

        return wrapper

    monkeypatch.setattr(TabularARModel, "_sample_block", recording_block)
    for name in names:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    return blocks


def test_rejection_mle_and_the_fit_draw_from_different_streams(workdir, monkeypatch):
    """On a hybrid set both draw full blocks of the base: rejection-mle takes
    the run's `train` stream and the fit its `fit` stream, so rejection-mle's
    first block is not the fit's."""
    constraints = [dict(POINTWISE_GOLD, id="red", token="red"), GOLD_RATIO]
    path = write_config(workdir, constraints=constraints,
                        trainer=dict(REJECTION_TRAINER, sample_budget=5000),
                        eval={"sample_size": 16})
    blocks = draws_by_call(monkeypatch, "fit_lambda", "rejection_mle")
    assert main(["train", "--config", str(path)]) == 0
    fit, rejection = blocks["fit_lambda"][0], blocks["rejection_mle"][0]
    assert len(fit) == len(rejection) == lm._SAMPLE_CHUNK_ROWS
    assert not np.array_equal(fit.tokens, rejection.tokens)


def test_the_eval_snapshot_and_the_fit_draw_from_different_streams(workdir, monkeypatch):
    """`eval`'s snapshot takes the run's `eval` stream, not the fit's: the
    first tokens of its batch are not those of the fit's first block, which
    the same stream would repeat row for row."""
    assert main(["train", "--config", str(write_config(workdir))]) == 0
    path = write_config(workdir, name="eval.json", base_model={"model_file": "out/model.json"},
                        eval={"sample_size": 512}, output="eval-out")
    blocks = draws_by_call(monkeypatch, "fit_lambda", "snapshot")
    assert main(["eval", "--config", str(path)]) == 0
    [drawn], fit = blocks["snapshot"], blocks["fit_lambda"][0]
    assert len(drawn) == 512
    assert not np.array_equal(drawn.tokens[:, 0], fit.tokens[:512, 0])


def test_an_undefined_sampled_kl_writes_nan_in_its_two_columns(tmp_path, monkeypatch):
    """A snapshot with no Z_ma (step 0 here) none of whose draws has P > 0
    has z = 0: it writes `kl_p_pi` and `kl_p_pi_se` as nan, and the run
    exits 0. The ablation demo's step-0 rows do this; every other number
    they write is finite."""
    path, cfg = demo_config(tmp_path, "ablation")
    cfg["trainer"]["iterations"] = 0  # only the step-0 snapshots
    path.write_text(json.dumps(cfg))
    blocks = draws_by_call(monkeypatch, "train")
    assert main(["ablation", "--config", str(path)]) == 0
    loaded = ExperimentConfig.load(path)
    base, constraint_set = cli._build(loaded)
    target = Ebm(base=base, constraint_set=constraint_set, lam=[])
    assert all(np.isneginf(target.log_score_batch(block)).all() for block in blocks["train"])
    header, *rows = read_csv(tmp_path / "out" / "ablation.csv")
    ablation = cfg["eval"]["ablation"]
    assert len(rows) == len(ablation["variants"]) * len(ablation["seeds"])
    for row in rows:
        values = dict(zip(header, row))
        assert values["step"] == "0" and values["z_ma"] == "0.0"
        undefined = [column for column, text in values.items()
                     if column not in ("variant", "method") and not np.isfinite(float(text))]
        assert undefined == ["kl_p_pi", "kl_p_pi_se"]
        assert values["kl_p_pi"] == values["kl_p_pi_se"] == "nan"


def test_eval_of_a_model_that_emits_only_the_empty_sequence(tmp_path):
    """Every sample is empty: zipf.csv holds only its header, and the run
    writes its manifest."""
    space = SequenceSpace(Vocabulary.from_body_tokens(["a", "b"]), 2)
    logits = np.full((1, space.vocabulary.size), -np.inf)
    logits[0, space.vocabulary.eos_index] = 0.0  # the empty context allows only EOS
    TabularARModel(space, 1, logits).write_document(tmp_path / "model.json")
    cfg = {"seed": 0, "space": {"lmax": 2}, "base_model": {"model_file": "model.json"},
           "constraints": [], "eval": {"sample_size": 8}, "output": "out"}
    (tmp_path / "eval.json").write_text(json.dumps(cfg))
    assert main(["eval", "--config", str(tmp_path / "eval.json")]) == 0
    out = tmp_path / "out"
    assert (out / "samples.txt").read_text() == "\n" * 8
    assert read_csv(out / "zipf.csv") == [["rank", "token", "frequency"]]
    assert_manifest(out / "manifest.json", ["build", "fit", "eval", "write"], ["samples", "zipf"])


def test_a_base_with_an_underflowing_cell_evaluates_but_does_not_train(
    workdir, capsys, monkeypatch
):
    """A finite base logit 1e5 below its row's others gives that token
    probability 0.0 in float64: the frozen base still runs `eval`, and
    `train` refuses its trainable lift (exit 2) before the lambda fit,
    writing no metrics."""
    base = ExperimentConfig.load(write_config(workdir)).build_base()
    base.logits[0, 0] -= 1e5
    TabularARModel(base.space, base.order, base.logits).write_document(workdir / "model.json")
    path = write_config(workdir, name="from-file.json", base_model={"model_file": "model.json"})
    assert main(["eval", "--config", str(path), "--output", str(workdir / "eval")]) == 0
    assert (workdir / "eval" / "metrics.csv").exists()
    fits = []
    monkeypatch.setattr(cli, "fit_lambda", lambda *args, **kwargs: fits.append(args))
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: a trainable model holds 1 next-token probabilities at 0.0 (smallest log-prob -1e+05)\n"
    )
    assert fits == []
    assert not (workdir / "out" / "metrics.csv").exists()


@pytest.mark.parametrize("method", ["reinforce-P", "rejection-mle"])
def test_the_underflow_check_applies_to_the_trainers_of_the_lift(workdir, monkeypatch, method):
    """A comparison trainer trains the base's trainable lift, so an
    underflowing base is refused before the fit; rejection-mle fits a policy
    of its own, so it trains on that base."""
    base = ExperimentConfig.load(write_config(workdir)).build_base()
    base.logits[0, 0] -= 1e5
    TabularARModel(base.space, base.order, base.logits).write_document(workdir / "model.json")
    refused = method != "rejection-mle"
    trainer = dict(SMALL_LOOP, method=method) if refused else REJECTION_TRAINER
    path = write_config(workdir, name="from-file.json", base_model={"model_file": "model.json"},
                        constraints=[POINTWISE_GOLD], trainer=trainer,
                        eval={"eval_every": 1, "sample_size": 16})
    fits = []

    def recording(*args, **kwargs):
        fits.append(args)
        return fit_lambda(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_lambda", recording)
    assert main(["train", "--config", str(path)]) == (2 if refused else 0)
    assert len(fits) == (0 if refused else 1)


def test_config_errors_exit_2(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"seed": 0}))
    assert main(["fit", "--config", str(bad)]) == 2
    assert "space" in capsys.readouterr().err
    cfg = write_config(workdir, constraints=[
        {"id": "x", "kind": "token-presence", "token": "gold", "target": 1.5}
    ])
    assert main(["fit", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "constraints[0].target" in err
    missing = workdir / "nope.json"
    assert main(["fit", "--config", str(missing)]) == 2


def test_the_sample_count_guard_is_the_enumeration_guards_bound():
    assert seqspace.SAMPLE_COUNT_GUARD == seqspace.ENUMERATION_GUARD == 10**7
    seqspace.guard_count(seqspace.SAMPLE_COUNT_GUARD, "n")  # admitted: nothing is drawn here
    with pytest.raises(errors.SampleCountTooLarge) as err:
        seqspace.guard_count(seqspace.SAMPLE_COUNT_GUARD + 1, "n")
    assert (err.value.field, err.value.exit_code) == ("n", 4)


@pytest.mark.parametrize("count", [10**7 + 1, 10**13], ids=["bound+1", "1e13"])
@pytest.mark.parametrize(
    "block, key, method",
    [("fit", "sample_count", "gdc"), ("trainer", "samples_per_iteration", "gdc"),
     ("trainer", "samples_per_iteration", "reinforce-P"), ("eval", "sample_size", "gdc")],
    ids=["fit", "gdc", "reinforce-P", "eval"],
)
def test_a_sample_count_past_the_guard_exits_4_at_load(workdir, capsys, monkeypatch, block,
                                                       key, method, count):
    """`load` refuses a sample count past the guard, naming its field and the
    bound, before the base is built or anything drawn."""
    overrides = {
        "fit": {"sample_count": 2000},
        "trainer": dict(SMALL_LOOP, method=method),
        "eval": {"sample_size": 16},
    }
    overrides[block][key] = count
    cfg = write_config(workdir, **overrides)
    with pytest.raises(errors.SampleCountTooLarge) as err:
        ExperimentConfig.load(cfg)
    message = f"config.{block}.{key} must be <= 10000000 (the sample-count guard), got {count}"
    assert str(err.value) == message

    def no_build(*args, **kwargs):
        raise AssertionError("built the base of a refused config")

    monkeypatch.setattr(ExperimentConfig, "build_base", no_build)
    for command in ("fit", "train", "ablation"):
        assert main([command, "--config", str(cfg)]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"


def binary_file(workdir):
    path = workdir / "binary.bin"
    path.write_bytes(bytes(range(256)))
    return path


def directory(workdir):
    path = workdir / "a-directory"
    path.mkdir()
    return path


@pytest.mark.parametrize(
    "source, make, field",
    [
        ("config", directory, "config file"),
        ("config", binary_file, "config file"),
        ("corpus", directory, "config.base_model.corpus"),
        ("corpus", binary_file, "config.base_model.corpus"),
        ("model_file", directory, "config.base_model.model_file"),
        ("model_file", lambda workdir: workdir / "missing.json", "config.base_model.model_file"),
        ("model_file", lambda workdir: workdir / "corpus.txt", "config.base_model.model_file"),
    ],
    ids=["config-directory", "config-binary", "corpus-directory", "corpus-binary",
         "model-file-directory", "model-file-missing", "model-file-not-json"],
)
def test_unreadable_input_files_exit_2_naming_their_field(workdir, capsys, source, make, field):
    path = make(workdir)
    if source == "corpus":
        path = write_config(workdir, base_model={"corpus": path.name, "order": 2, "smoothing": 0.5})
    elif source == "model_file":
        path = write_config(workdir, base_model={"model_file": path.name})
    assert main(["fit", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}")


SMALL_LOOP = {"iterations": 2, "samples_per_iteration": 8, "learning_rate": 0.5}
KL_PENALIZED_TRAINER = dict(SMALL_LOOP, method="kl-penalized", beta=0.1)
POINTWISE_GOLD = {
    "id": "gold", "kind": "token-presence", "token": "gold", "target": 1.0, "pointwise": True,
}
GOLD_RATIO = {
    "id": "ratio", "kind": "token-ratio", "numerator": ["gold"], "denominator": ["gold", "red"],
    "target": 0.3,
}
REJECTION_TRAINER = {"method": "rejection-mle", "sample_budget": 100, "fit_order": 2}


@pytest.mark.parametrize(
    "command, edit, field",
    [
        (
            "train",
            lambda c: c.update(
                constraints=[POINTWISE_GOLD],
                trainer={"method": "rejection-mle", "sample_budget": 100, "fit_order": 2,
                         "fit_smoothing": -1},
            ),
            "config.trainer.fit_smoothing",
        ),
        ("train", lambda c: c.pop("trainer"), "config.trainer"),
        ("fit --seed-override -1", lambda c: c.pop("trainer"), "seed must be >= 0"),
        ("ablation", lambda c: c.pop("trainer"), "config.trainer"),
        (
            "ablation",
            lambda c: c.update(
                trainer={"method": "rejection-mle", "sample_budget": 100, "fit_order": 2}
            ),
            "config.trainer.method",
        ),
        (
            "ablation",
            lambda c: c["trainer"].update(method="reinforce-phi"),
            "config.trainer.method",
        ),
        ("ablation", lambda c: c["eval"].update(ablation=[1]), "config.eval.ablation"),
        ("train", lambda c: c["trainer"].update(policy_order="x"), "config.trainer.policy_order"),
        (
            "train",
            lambda c: c["trainer"].update(batch_update=False),
            "config.trainer.batch_update",
        ),
        (
            "train",
            lambda c: c.update(
                constraints=[POINTWISE_GOLD],
                trainer=dict(KL_PENALIZED_TRAINER, kl_target=0.5, beta_step=-1.0),
            ),
            "config.trainer.beta_step",
        ),
        (
            "train",
            lambda c: c.update(
                constraints=[POINTWISE_GOLD],
                trainer=dict(KL_PENALIZED_TRAINER, beta_adaptive=True, kl_target=0.5),
            ),
            "config.trainer.beta_adaptive",
        ),
        (
            "fit",
            lambda c: c.update(constraints=[{
                "id": "ratio", "kind": "token-ratio", "numerator": ["gold"],
                "denominator": ["gold", "red"], "target": 0.3, "empty_default": "x",
            }]),
            "config.constraints[0].empty_default",
        ),
        (
            "fit",
            lambda c: c["constraints"][0].update(pointwse=True),
            "config.constraints[0].pointwse",
        ),
        (
            "train",
            lambda c: c["trainer"].update(sample_budget=100),
            "config.trainer.sample_budget",
        ),
        (
            "train",
            lambda c: c.update(
                constraints=[POINTWISE_GOLD],
                trainer=dict(SMALL_LOOP, method="reinforce-phi", adaptivity="tvd"),
            ),
            "config.trainer.adaptivity",
        ),
        (
            "train",
            lambda c: c.update(
                constraints=[POINTWISE_GOLD], trainer=dict(KL_PENALIZED_TRAINER, kl_target="x")
            ),
            "config.trainer.kl_target",
        ),
        ("fit", lambda c: c["fit"].update(sample_count=0), "config.fit.sample_count"),
        ("train", lambda c: c["trainer"].update(learning_rate=0), "config.trainer.learning_rate"),
        ("train", lambda c: c["eval"].update(sample_size=1), "config.eval.sample_size"),
        (
            "fit",
            lambda c: c["constraints"].append(dict(c["constraints"][0], token="red")),
            "config.constraints",
        ),
        (
            "fit",
            lambda c: c.update(constraints=[dict(GOLD_RATIO, numerator=["blue"])]),
            "config.constraints[0].numerator",
        ),
        (
            "ablation",
            lambda c: c["eval"].update(ablation={"variants": ["fast"]}),
            "config.eval.ablation.variants",
        ),
        ("fit", lambda c: c["base_model"].update(order=0), "config.base_model.order"),
        ("fit", lambda c: c["base_model"].update(smoothing=-1), "config.base_model.smoothing"),
        (
            "fit",
            lambda c: c.update(constraints=[dict(GOLD_RATIO, target=1.5)]),
            "config.constraints[0].target",
        ),
        (
            "train",
            lambda c: c.update(
                constraints=[POINTWISE_GOLD], trainer=dict(REJECTION_TRAINER, sample_budget=0)
            ),
            "config.trainer.sample_budget",
        ),
        (
            "train",
            lambda c: c.update(
                constraints=[dict(POINTWISE_GOLD, token="<eos>")],
                eval=dict(c["eval"], exact_oracle=False),
            ),
            "config.constraints[0]: token '<eos>'",
        ),
        (
            "fit",
            lambda c: c["constraints"][0].update(token="<eos>"),
            "config.constraints[0]: token '<eos>'",
        ),
        (
            "fit",
            lambda c: c["base_model"].update(smoothing=float("nan")),
            "config.base_model.smoothing",
        ),
        (
            "train",
            lambda c: c.update(
                constraints=[POINTWISE_GOLD],
                trainer=dict(REJECTION_TRAINER, fit_smoothing=float("nan")),
            ),
            "config.trainer.fit_smoothing",
        ),
        ("fit", lambda c: c["fit"].update(tolerance=float("nan")), "config.fit.tolerance"),
        ("fit", lambda c: c["fit"].update(learning_rate=0.5), "config.fit.learning_rate"),
        (
            "train",
            lambda c: c["trainer"].update(learning_rate=float("inf")),
            "config.trainer.learning_rate",
        ),
        (
            "ablation",
            lambda c: c["eval"].update(threshold=0.5, exact_oracle=False),
            "config.eval.threshold needs exact_oracle",
        ),
        ("ablation", lambda c: c["eval"].update(threshold=0), "config.eval.threshold must be > 0"),
        ("train", lambda c: c["eval"].update(eval_every=0), "config.eval.eval_every must be >= 1"),
        # an ablation.csv takes its header from its first row, so the grid needs a cell
        (
            "ablation",
            lambda c: c["eval"].update(ablation={"variants": []}),
            "config.eval.ablation.variants must not be empty",
        ),
        (
            "ablation",
            lambda c: c["eval"].update(ablation={"seeds": []}),
            "config.eval.ablation.seeds must not be empty",
        ),
        (
            "train",
            lambda c: c.update(
                constraints=[POINTWISE_GOLD], trainer=dict(KL_PENALIZED_TRAINER, kl_target=-1.0)
            ),
            "config.trainer.kl_target must be >= 0",
        ),
    ],
    ids=[
        "rejection-mle-negative-smoothing",
        "train-without-trainer",
        "negative-seed-override",
        "ablation-without-trainer",
        "ablation-rejection-mle",
        "ablation-reinforce-phi",
        "ablation-not-an-object",
        "policy-order-removed",
        "batch-update-removed",
        "beta-step-removed",
        "beta-adaptive-removed",
        "empty-default-type",
        "unknown-constraint-key",
        "gdc-sample-budget",
        "reinforce-phi-adaptivity",
        "kl-target-type",
        "fit-sample-count",
        "trainer-learning-rate",
        "eval-sample-size",
        "duplicate-constraint-ids",
        "ratio-numerator-not-in-denominator",
        "ablation-unknown-variant",
        "base-model-order",
        "base-model-smoothing",
        "ratio-target-above-one",
        "rejection-mle-zero-budget",
        "pointwise-eos-token",
        "distributional-eos-token",
        "base-model-nan-smoothing",
        "rejection-mle-nan-smoothing",
        "fit-nan-tolerance",
        "fit-learning-rate-removed",
        "trainer-infinite-learning-rate",
        "threshold-without-exact-oracle",
        "threshold-not-positive",
        "eval-every-zero",
        "ablation-no-variants",
        "ablation-no-seeds",
        "kl-target-negative",
    ],
)
def test_malformed_config_exits_2_with_field_path(workdir, capsys, command, edit, field):
    path = write_config(workdir)
    cfg = json.loads(path.read_text())
    edit(cfg)
    path.write_text(json.dumps(cfg))
    assert main([*command.split(), "--config", str(path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda doc: doc.update(lmax="3"), "'lmax'"),
        (lambda doc: doc.update(order="2"), "'order'"),
        (lambda doc: doc.update(order=True), "'order'"),
        (lambda doc: doc.update(trainable=1), "'trainable'"),
        (lambda doc: doc.update(rows="x"), "'rows'"),
        (lambda doc: doc["rows"][1].pop(), "'rows'"),
        (lambda doc: doc["row_map"].pop(), "'row_map'"),
        (lambda doc: doc["row_map"].__setitem__(1, len(doc["rows"])), "'row_map'"),
        (lambda doc: doc["row_map"].__setitem__(1, -1), "'row_map'"),
        (lambda doc: doc["row_map"].__setitem__(1, 0.0), "'row_map'"),
        (lambda doc: doc["row_map"].__setitem__(1, False), "'row_map'"),
        (lambda doc: doc.update(version=3), "unsupported model version 3"),
        (lambda doc: doc.update(version=1), "unsupported model version 1"),
        (lambda doc: doc["vocabulary"].update(eos_index="4"), "'vocabulary.eos_index'"),
        (lambda doc: doc["vocabulary"].update(tokens="abc"), "'vocabulary.tokens'"),
    ],
    ids=["lmax-string", "order-string", "order-bool", "trainable-int", "rows-string",
         "rows-ragged", "row-map-short", "row-map-out-of-range", "row-map-negative",
         "row-map-float", "row-map-bool", "version-3", "version-1", "eos-index-string",
         "tokens-string"],
)
def test_malformed_model_file_exits_2_naming_the_field(workdir, capsys, edit, field):
    doc = ExperimentConfig.load(write_config(workdir)).build_base().to_document()
    edit(doc)
    (workdir / "model.json").write_text(json.dumps(doc))
    path = write_config(workdir, name="from-file.json", base_model={"model_file": "model.json"})
    assert main(["fit", "--config", str(path)]) == 2
    assert field in capsys.readouterr().err


def test_public_names_resolve():
    for name in distctl.__all__:
        assert getattr(distctl, name) is not None, name


@pytest.mark.parametrize("adaptivity", ["kl", "none"])
def test_non_finite_logits_exit_3_at_their_iteration(tmp_path, capsys, adaptivity):
    # a learning rate that would overflow the logits or an estimate stops the
    # run at its first update, on the next-token probabilities it sends to
    # 0.0, before any logit is non-finite (NonFiniteLogits: test_lm)
    path, cfg = demo_config(tmp_path, "distributional")
    cfg["fit"]["sample_count"] = 5000
    cfg["trainer"].update(
        iterations=5, samples_per_iteration=64, learning_rate=1e308, adaptivity=adaptivity
    )
    cfg["eval"].update(exact_oracle=False)
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 3
    assert capsys.readouterr().err == (
        "error: iteration 1: update with learning rate 1.5625e+306 leaves 220 next-token "
        "probabilities at 0.0 (smallest log-prob -1.27e+308)\n"
    )
    assert not (tmp_path / "out" / "metrics.csv").exists()


SATURATED = ("error: iteration 1: update with learning rate 97.6562 leaves 191 next-token "
             "probabilities at 0.0 (smallest log-prob -5.52e+04)\n")


def test_a_failed_snapshot_exits_3_naming_its_iteration(tmp_path, capsys):
    # learning rate 1e5 drives the policy off the target's support in its
    # first update, nine iterations before the first snapshot after the
    # start: the update gives next tokens probability 0.0 and is refused
    path, cfg = demo_config(tmp_path, "distributional")
    cfg["trainer"].update(iterations=40, learning_rate=1e5)
    cfg["eval"].update(eval_every=10, exact_oracle=True)
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 3
    assert capsys.readouterr().err == SATURATED
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_a_saturated_policy_exits_3_with_the_oracle_off(tmp_path, capsys):
    # the same run as above with no exact KL, whose sampled KL alone would
    # not flag the policy: the update is refused all the same
    path, cfg = demo_config(tmp_path, "distributional")
    cfg["trainer"].update(iterations=40, learning_rate=1e5)
    cfg["eval"].update(eval_every=10, exact_oracle=False)
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 3
    assert capsys.readouterr().err == SATURATED
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_a_saturating_reinforce_update_exits_3_at_its_iteration(tmp_path, capsys):
    # the comparison trainers update through the same `apply_update`: a
    # reinforce-P run of the pointwise demo at learning rate 1e9 is refused at
    # its first update, not at its first snapshot after the start (60)
    path, cfg = demo_config(tmp_path, "pointwise")
    cfg["trainer"] = {"method": "reinforce-P", "iterations": 600, "samples_per_iteration": 512,
                      "learning_rate": 1e9}
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 3
    assert capsys.readouterr().err == (
        "error: iteration 1: update with learning rate 1.95312e+06 leaves 29 next-token "
        "probabilities at 0.0 (smallest log-prob -4.29e+04)\n"
    )
    assert not (tmp_path / "out" / "metrics.csv").exists()


DEMO_CONFIGS = sorted((Path(__file__).parent.parent / "demo").glob("*.json"))


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=[p.stem for p in DEMO_CONFIGS])
def test_demo_configs_load(path):
    cfg = ExperimentConfig.load(path)
    assert cfg.fit_config.sample_count >= 1
    assert cfg.trainer_config.iterations > 0
    assert cfg.eval_options.exact
    assert len(cfg.build_constraints(cfg.build_base().space)) > 0


def test_rejection_mle_block_fails_at_load():
    """A bad rejection-mle value is refused before any of its draws."""
    raw = json.loads(
        (Path(__file__).parent.parent / "demo" / "pointwise.json").read_text()
    )
    raw["trainer"] = dict(REJECTION_TRAINER, sample_budget=10**9, fit_smoothing=-1)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert str(err.value) == "config.trainer.fit_smoothing must be >= 0"


def test_unknown_token_in_constraint_exits_2(workdir, capsys):
    cfg = write_config(workdir, constraints=[
        {"id": "x", "kind": "token-presence", "token": "platinum", "target": 0.5}
    ])
    assert main(["fit", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "constraints[0]" in err and "platinum" in err


def test_universe_guard_exits_4(tmp_path, capsys):
    rng = np.random.default_rng(1)
    tokens = [f"w{i}" for i in range(30)]
    text = synthetic_corpus(rng, tokens, [1.0] * 30, n_lines=300, min_len=3, max_len=8)
    (tmp_path / "corpus.txt").write_text(text)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "seed": 0,
        "space": {"lmax": 8},
        "base_model": {"corpus": "corpus.txt", "order": 2, "smoothing": 0.5},
        "constraints": [{"id": "w0", "kind": "token-presence", "token": "w0",
                         "target": 0.5}],
        "eval": {"exact_oracle": True},
        "output": "out",
    }))
    long_demo, _ = demo_config(tmp_path, "distributional", lmax=10_000)
    for path in (cfg, long_demo):
        assert main(["oracle", "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: universe would hold more than 10000000 rows")
        assert len(err) < 200


@pytest.mark.parametrize("command, name", [("train", "distributional"), ("ablation", "ablation")])
def test_policy_over_the_guard_exits_4_before_sampling(tmp_path, capsys, monkeypatch, command, name):
    path, cfg = demo_config(tmp_path, name, lmax=10_000)
    cfg["eval"]["exact_oracle"] = False
    cfg["eval"].pop("threshold", None)  # a threshold needs exact_oracle
    path.write_text(json.dumps(cfg))

    def no_draws(*args):
        raise AssertionError("sampled before checking the policy's context table")

    monkeypatch.setattr(TabularARModel, "_sample_block", no_draws)  # every draw's core
    assert main([command, "--config", str(path)]) == 4
    assert capsys.readouterr().err.startswith("error: policy context table would hold more than")


@pytest.mark.parametrize(
    "command, exact, message",
    [("oracle", False, "universe"), ("train", True, "universe"),
     ("train", False, "policy context table")],
    ids=["oracle", "train-exact", "train"],
)
def test_guards_run_before_the_base_fit(tmp_path, capsys, monkeypatch, command, exact, message):
    """A command's guards need only the space, so they run before the base
    is fitted: a long space costs no fit before the command exits 4."""
    path, cfg = demo_config(tmp_path, "distributional", lmax=20_000)
    cfg["eval"]["exact_oracle"] = exact
    path.write_text(json.dumps(cfg))

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted the base before the guards")

    monkeypatch.setattr(config_module, "mle_fit", no_fit)
    assert main([command, "--config", str(path)]) == 4
    assert capsys.readouterr().err.startswith(f"error: {message} would hold more than")


@pytest.mark.parametrize("command", ["oracle", "train", "ablation"])
@pytest.mark.parametrize("guard", ["states", "cells"])
def test_exact_target_over_its_guard_exits_4_before_the_fit(workdir, capsys, monkeypatch, command,
                                                              guard):
    """The exact target DP's guard reads the base, so it follows the base's
    fit but comes before the target's: thirteen presence constraints make
    8,192 product states, and an order-5 base's 85 contexts before the last
    step, plus its stored rows, times a ratio's 36 states make more than
    2,000 cells, a guard that the 1,365-sequence universe passes."""
    if guard == "states":
        constraints = [{"id": f"gold{i}", "kind": "token-presence", "token": "gold",
                        "target": 0.5} for i in range(13)]
        overrides = {"constraints": constraints}
        message = "the constraint features' automaton would hold 8192 states"
    else:
        monkeypatch.setattr(seqspace, "ENUMERATION_GUARD", 2000)
        ratio = {"id": "r", "kind": "token-ratio", "numerator": ["gold"],
                 "denominator": ["gold", "red"], "target": 0.3}
        overrides = {"constraints": [ratio],
                     "base_model": {"corpus": "corpus.txt", "order": 5, "smoothing": 0.5}}
        message = "the exact target's DP would hold "
    cfg = write_config(workdir, **overrides)

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted the target before the exact target's guard")

    monkeypatch.setattr(cli, "fit_lambda", no_fit)
    assert main([command, "--config", str(cfg)]) == 4
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("body, exact", [(["gold", "red"], False), (["gold"], False),
                                         (["gold"], True)], ids=["two", "one", "one-exact"])
def test_fit_evaluates_a_token_ratio_past_lmax_63_unless_exact(tmp_path, capsys, body, exact):
    """A token ratio counts in (lmax + 1) ** 2 states, 10,201 at lmax 100,
    past the automaton guard. A fit reads the ratio on its samples only, one
    state per row, so it runs; with exact_oracle on it exits 4 naming that
    count. One body token keeps the universe (101 sequences) inside its own
    guard, which two would trip first."""
    text = synthetic_corpus(np.random.default_rng(3), tokens=body, weights=[1.0] * len(body),
                            n_lines=120, min_len=1, max_len=8)
    (tmp_path / "corpus.txt").write_text(text)
    ratio = {"id": "r", "kind": "token-ratio", "numerator": ["gold"], "denominator": body,
             "target": 0.3}
    cfg = write_config(tmp_path, space={"lmax": 100}, constraints=[ratio],
                       fit={"sample_count": 4000, "tolerance": 1e-3},
                       eval={"exact_oracle": exact})
    code = main(["fit", "--config", str(cfg)])
    if exact:
        assert code == 4
        assert capsys.readouterr().err.startswith(
            "error: the constraint features' automaton would hold 10201 states")
    else:
        assert code == 0
        assert json.loads((tmp_path / "out" / "fit_report.json").read_text())["converged"]


@pytest.mark.parametrize(
    "command, name, trainer",
    [
        ("train", "distributional", None),
        ("train", "pointwise", KL_PENALIZED_TRAINER),
        ("ablation", "ablation", None),
        ("train", "pointwise", dict(REJECTION_TRAINER, sample_budget=2000, fit_smoothing=1.0)),
    ],
    ids=["gdc-fit", "kl-penalized", "ablation", "rejection-mle-smoothed"],
)
def test_zero_probability_base_exits_2_before_sampling(
    tmp_path, capsys, monkeypatch, command, name, trainer
):
    path, cfg = demo_config(tmp_path, name)
    cfg["base_model"]["smoothing"] = 0
    cfg["trainer"] = trainer or cfg["trainer"]
    path.write_text(json.dumps(cfg))
    assert np.isneginf(ExperimentConfig.load(path).build_base().logits).any()

    def no_draws(*args):
        raise AssertionError("sampled before checking the base")

    monkeypatch.setattr(TabularARModel, "_sample_block", no_draws)  # every draw's core
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.base_model has zero-probability cells")


def test_zero_probability_base_still_fits_rejection_mle(tmp_path):
    path, cfg = demo_config(tmp_path, "pointwise")
    cfg["base_model"]["smoothing"] = 0
    # An unsmoothed order-2 refit only emits transitions the base sampled, so
    # the sampled KL to the base stays finite; the exact KL from the target
    # would not (the refit misses part of the target's support).
    cfg["trainer"] = dict(REJECTION_TRAINER, sample_budget=2000, fit_smoothing=0)
    cfg["eval"]["exact_oracle"] = False
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 0


# Exit code of each error class, as the README lists them.
README_EXIT_CODES = {
    errors.ConfigError: 2,
    errors.SchemaMismatch: 2,
    errors.EmptyCorpus: 2,
    errors.NotTrainable: 2,
    errors.NoPointwiseConstraints: 2,
    errors.TooFewSamples: 2,
    errors.UnattainableTarget: 3,
    errors.NoAcceptedSamples: 3,
    errors.EmptySupport: 3,
    errors.DegenerateWeights: 3,
    errors.NonpositiveZ: 3,
    errors.SupportViolation: 3,
    errors.NonFiniteLogits: 3,
    errors.NonFiniteEstimate: 3,
    errors.SaturatedPolicy: 3,
    errors.UniverseTooLarge: 4,
    errors.AutomatonTooLarge: 4,
    errors.SampleCountTooLarge: 4,
}
ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.DistctlError)
    and cls not in (errors.DistctlError, errors.NumericalError)
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_exits_with_its_readme_code(cls, monkeypatch, capsys):
    code = README_EXIT_CODES[cls]
    assert cls.exit_code == code
    error = cls.__new__(cls)
    Exception.__init__(error, "boom")

    def load(config_cls, path):
        raise error

    monkeypatch.setattr(ExperimentConfig, "load", classmethod(load))
    assert main(["fit", "--config", "exp.json"]) == code
    assert capsys.readouterr().err == "error: boom\n"


def test_output_root_env(workdir, monkeypatch):
    monkeypatch.setenv("DISTCTL_OUTPUT_ROOT", str(workdir / "root"))
    cfg = write_config(workdir, name="enved.json", output=None)
    raw = json.loads(cfg.read_text())
    raw.pop("output")
    cfg.write_text(json.dumps(raw))
    assert main(["fit", "--config", str(cfg)]) == 0
    assert (workdir / "root" / "enved" / "fit_report.json").exists()
