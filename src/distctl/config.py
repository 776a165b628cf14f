"""Experiment configuration: one JSON document per run, validated with
field-path diagnostics, then materialized into the module-level objects."""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .baselines import (
    KL_PENALIZED,
    REINFORCE_P,
    REINFORCE_PHI,
    REJECTION_MLE,
    BaselineConfig,
    RejectionConfig,
)
from .dpg import ADAPTIVITIES, GDC_METHOD, DpgConfig, LoopConfig
from .ebm import FitConfig
from .errors import ConfigError
from .features import FEATURE_KINDS, ConstraintSet, ConstraintSpec
from .lm import TabularARModel, mle_fit
from .metrics import EvalOptions
from .seqspace import SequenceSpace, tokenize_corpus

# Each JSON block's keys with their types, and its required keys. Defaults and
# range checks are the field defaults and checks of the objects a block builds:
# at load, `cfg.fit_config` (a FitConfig), `cfg.trainer_config` (a DpgConfig,
# BaselineConfig or RejectionConfig) and `cfg.eval_options` (EvalOptions); the
# base model and the constraints once the vocabulary is known. Each object
# names the offending field and `_at` puts the block path in front. A cell of
# the ablation grid is `cfg.trainer_config` with `adaptivity` and `seed` replaced.
TOP_KEYS = {
    "seed": int, "space": dict, "base_model": dict, "constraints": list, "fit": dict,
    "trainer": dict, "eval": dict, "output": str,
}
BASE_MODEL_SCHEMAS = {  # the source key -> (keys, required)
    "corpus": (
        {"corpus": str, "order": int, "smoothing": float}, ("corpus", "order", "smoothing")
    ),
    "model_file": ({"model_file": str}, ("model_file",)),
}
CONSTRAINT_KEYS = {"id": str, "kind": str, "target": float, "pointwise": bool}
FEATURE_SCHEMAS = {  # kind -> (its own keys, required)
    "token-presence": ({"token": str}, ("token",)),
    "wordlist-presence": ({"tokens": list}, ("tokens",)),
    "prefix-match": ({"tokens": list}, ("tokens",)),
    "token-ratio": (
        {"numerator": list, "denominator": list, "empty_default": float},
        ("numerator", "denominator"),
    ),
}
FIT_KEYS = {"sample_count": int, "tolerance": float, "max_steps": int, "lambda_clamp": float}
LOOP_KEYS = {"iterations": int, "samples_per_iteration": int, "learning_rate": float}
TRAINER_SCHEMAS = {  # method -> (keys besides `method`, required)
    GDC_METHOD: ({**LOOP_KEYS, "adaptivity": str, "optimizer": str}, tuple(LOOP_KEYS)),
    REINFORCE_PHI: (LOOP_KEYS, tuple(LOOP_KEYS)),
    REINFORCE_P: (LOOP_KEYS, tuple(LOOP_KEYS)),
    KL_PENALIZED: ({**LOOP_KEYS, "beta": float, "kl_target": float}, tuple(LOOP_KEYS)),
    REJECTION_MLE: (
        {"sample_budget": int, "fit_order": int, "fit_smoothing": float},
        ("sample_budget", "fit_order"),
    ),
}
EVAL_KEYS = {
    "eval_every": int, "sample_size": int, "exact_oracle": bool, "threshold": float,
    "ablation": dict,
}
ABLATION_KEYS = {"variants": list, "seeds": list}
# The ablation grid when `eval.ablation` leaves it out.
ABLATION_SEEDS = (0, 1, 2)


def _expect(cond: bool, path: str, rule: str) -> None:
    if not cond:
        raise ConfigError(rule, path)


@contextmanager
def _at(path: str, key: str | None = None):
    """Prefix the block path `path` to the field named by the ConfigErrors
    raised inside, keeping their class; `key` replaces that field when the
    JSON key feeding it has another name (a list of values, as in
    `eval.ablation`)."""
    try:
        yield
    except ConfigError as e:
        field = key or e.field
        if field is None:
            raise type(e)(f"{path}: {e}") from None
        raise type(e)(e.rule, f"{path}.{field}") from None


def _check(block, path: str, keys: dict, required=()) -> dict:
    """Check one JSON object against its key table: required keys present,
    no unknown key, every value of its key's type (an int passes as float, and
    a float must be finite: JSON has no NaN or Infinity, but Python reads them)."""
    _expect(isinstance(block, dict), path, "must be an object")
    for key in required:
        _expect(key in block, f"{path}.{key}", "is a required field and missing")
    for key, value in block.items():
        _expect(key in keys, f"{path}.{key}", f"is an unknown key; expected one of {sorted(keys)}")
        kind = keys[key]
        allowed = (int, float) if kind is float else kind
        _expect(
            isinstance(value, allowed) and (kind is bool or not isinstance(value, bool)),
            f"{path}.{key}",
            f"must be {kind.__name__}, got {type(value).__name__}",
        )
        finite = not isinstance(value, float) or math.isfinite(value)
        _expect(finite, f"{path}.{key}", "must be finite")
    return block


def _read(path: Path, name: str, parse_json: bool = False):
    """The text of the file at `path`, or its JSON value with `parse_json`.
    A file that is missing, cannot be read (a directory, say), is not UTF-8
    text or not JSON is a ConfigError whose message begins with `name`."""
    try:
        text = path.read_text()
        return json.loads(text) if parse_json else text
    except FileNotFoundError:
        problem = f"not found: {path}"
    except json.JSONDecodeError as e:
        problem = f"is not valid JSON: {e}"
    except (OSError, UnicodeDecodeError) as e:
        problem = f"cannot be read: {e}"
    raise ConfigError(f"{name} {problem}")


def _schema(block, path: str, key: str, schemas: dict) -> tuple[dict, tuple]:
    """The (keys, required) schema that the value of `key` selects for a block."""
    _expect(isinstance(block, dict), path, "must be an object")
    choice = block.get(key)
    _expect(
        isinstance(choice, str) and choice in schemas,
        f"{path}.{key}",
        f"must be one of {tuple(schemas)}, got {choice!r}",
    )
    return schemas[choice]


def _fields(block: dict, *keys: str, **renamed: str) -> dict:
    """Keyword arguments for the keys a block sets: `keys` keep their name,
    `renamed` maps a field name to its JSON key."""
    pairs = [(key, key) for key in keys] + list(renamed.items())
    return {name: block[key] for name, key in pairs if key in block}


@dataclass
class ExperimentConfig:
    seed: int
    lmax: int
    base_model: dict
    constraints: list[dict]
    fit: dict
    trainer: dict
    eval: dict
    output: str | None
    config_dir: Path
    # built from the blocks above by __post_init__
    fit_config: FitConfig = field(init=False)
    eval_options: EvalOptions = field(init=False)
    trainer_config: DpgConfig | BaselineConfig | RejectionConfig | None = field(init=False)

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        raw = _read(path, "config file", parse_json=True)
        return cls.from_dict(raw, config_dir=path.parent)

    @classmethod
    def from_dict(cls, raw: dict, config_dir: Path = Path(".")) -> "ExperimentConfig":
        _check(raw, "config", TOP_KEYS, ("seed", "space", "base_model"))
        lmax = _check(raw["space"], "config.space", {"lmax": int}, ("lmax",))["lmax"]
        _expect(lmax >= 1, "config.space.lmax", "must be >= 1")
        base_model = raw["base_model"]
        sources = [key for key in BASE_MODEL_SCHEMAS if key in base_model]
        _expect(
            len(sources) == 1,
            "config.base_model",
            "needs exactly one of 'corpus' or 'model_file'",
        )
        _check(base_model, "config.base_model", *BASE_MODEL_SCHEMAS[sources[0]])
        constraints = raw.get("constraints", [])
        for i, c in enumerate(constraints):
            path = f"config.constraints[{i}]"
            keys, required = _schema(c, path, "kind", FEATURE_SCHEMAS)
            _check(c, path, {**CONSTRAINT_KEYS, **keys}, ("id", "target", *required))
        trainer = raw.get("trainer", {})
        if trainer:
            keys, required = _schema(trainer, "config.trainer", "method", TRAINER_SCHEMAS)
            _check(trainer, "config.trainer", {"method": str, **keys}, required)
        eval_block = _check(raw.get("eval", {}), "config.eval", EVAL_KEYS)
        _check(eval_block.get("ablation", {}), "config.eval.ablation", ABLATION_KEYS)
        return cls(
            seed=raw["seed"],
            lmax=lmax,
            base_model=base_model,
            constraints=constraints,
            fit=_check(raw.get("fit", {}), "config.fit", FIT_KEYS),
            trainer=trainer,
            eval=eval_block,
            output=raw.get("output"),
            config_dir=config_dir,
        )

    def __post_init__(self):
        """Build every config object that needs no vocabulary once, so that a
        bad value fails at load (and again after `dataclasses.replace`, as for
        a seed override), and keep those the commands run on: `fit_config`,
        `eval_options` and `trainer_config` (None without a trainer block).
        The base model and the constraints are checked when `build_base` and
        `build_constraints` build them."""
        for seed in self.ablation_seeds:
            _expect(
                isinstance(seed, int) and not isinstance(seed, bool),
                "config.eval.ablation.seeds",
                "must be integers",
            )
        with _at("config"):
            LoopConfig(seed=self.seed)
        with _at("config.fit"):
            self.fit_config = FitConfig(**self.fit)
        with _at("config.eval"):
            self.eval_options = EvalOptions(
                **_fields(self.eval, "eval_every", "sample_size", "threshold", exact="exact_oracle")
            )
        # an ablation.csv takes its header from its first row, so the grid needs a cell
        for key, values in (("variants", self.ablation_variants), ("seeds", self.ablation_seeds)):
            _expect(bool(values), f"config.eval.ablation.{key}", "must not be empty")
        with _at("config.eval.ablation", "variants"):
            for variant in self.ablation_variants:
                DpgConfig(adaptivity=variant)
        with _at("config.eval.ablation", "seeds"):
            for seed in self.ablation_seeds:
                LoopConfig(seed=seed)
        self.trainer_config = None
        if self.trainer:
            # the trainer keys are the field names of its method's config
            method = self.trainer["method"]
            t = {key: value for key, value in self.trainer.items() if key != "method"}
            if method != REJECTION_MLE:  # `dpg.run_loop`'s trainers take the run's seed
                t["seed"] = self.seed
            build = {REJECTION_MLE: RejectionConfig, GDC_METHOD: DpgConfig}.get(
                method, partial(BaselineConfig, kind=method)
            )
            with _at("config.trainer"):
                self.trainer_config = build(**t)

    @property
    def ablation_variants(self) -> list[str]:
        return self.eval.get("ablation", {}).get("variants", list(ADAPTIVITIES))

    @property
    def ablation_seeds(self) -> list[int]:
        return self.eval.get("ablation", {}).get("seeds", list(ABLATION_SEEDS))

    @property
    def method(self) -> str:
        """The trainer block's method; the commands that train need the block."""
        _expect(bool(self.trainer), "config.trainer", "is a required block and missing")
        return self.trainer["method"]

    # -- materialization -----------------------------------------------------

    def build_base(
        self, check_space: Callable[[SequenceSpace], None] = lambda space: None
    ) -> TabularARModel:
        """The base model. `check_space` gets the base's space first: before
        a corpus base is fitted, or once a persisted model is read."""
        if "model_file" in self.base_model:
            path = self.config_dir / self.base_model["model_file"]
            doc = _read(path, "config.base_model.model_file: file", parse_json=True)
            model = TabularARModel.from_document(doc)
            _expect(
                model.space.lmax == self.lmax,
                "config.space.lmax",
                f"is {self.lmax}, but the model file has lmax {model.space.lmax}",
            )
            check_space(model.space)
            return model
        path = self.config_dir / self.base_model["corpus"]
        corpus = tokenize_corpus(_read(path, "config.base_model.corpus: file"), self.lmax)
        check_space(corpus.space)
        with _at("config.base_model"):
            return mle_fit(
                corpus.space,
                corpus.batch,
                order=self.base_model["order"],
                smoothing=self.base_model["smoothing"],
            )

    def build_constraints(self, space: SequenceSpace) -> ConstraintSet:
        specs = []
        for i, c in enumerate(self.constraints):
            own = {key: value for key, value in c.items() if key not in CONSTRAINT_KEYS}
            with _at(f"config.constraints[{i}]"):
                feature = FEATURE_KINDS[c["kind"]](space.vocabulary, feature_id=c["id"], **own)
                specs.append(
                    ConstraintSpec(
                        feature=feature, target=float(c["target"]), **_fields(c, "pointwise")
                    )
                )
        with _at("config.constraints"):
            return ConstraintSet(specs)
