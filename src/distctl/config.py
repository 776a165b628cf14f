"""Experiment configuration: one JSON document per run, validated with
field-path diagnostics, then materialized into the module-level objects."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .baselines import (
    KL_PENALIZED,
    REINFORCE_P,
    REINFORCE_PHI,
    REJECTION_MLE,
    BaselineConfig,
)
from .dpg import ADAPTIVITIES, DpgConfig, LoopConfig
from .ebm import FitConfig
from .errors import ConfigError
from .features import (
    ConstraintSet,
    ConstraintSpec,
    PrefixMatch,
    TokenPresence,
    TokenRatio,
    WordlistPresence,
)
from .lm import TabularARModel, mle_fit
from .metrics import EvalOptions
from .seqspace import SequenceSpace, tokenize_corpus

GDC_METHOD = "gdc"

# Each JSON block's keys with their types, and its required keys. Defaults and
# range checks are the field defaults and checks of the dataclasses a block
# builds (FitConfig, DpgConfig, BaselineConfig, EvalOptions); loading a
# config builds each of them once so that a bad value fails at load time.
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
FIT_KEYS = {
    "sample_count": int, "learning_rate": float, "tolerance": float, "max_steps": int,
    "lambda_clamp": float,
}
LOOP_KEYS = {"iterations": int, "samples_per_iteration": int, "learning_rate": float}
TRAINER_SCHEMAS = {  # method -> (keys besides `method`, required)
    GDC_METHOD: ({**LOOP_KEYS, "adaptivity": str, "optimizer": str}, tuple(LOOP_KEYS)),
    REINFORCE_PHI: (LOOP_KEYS, tuple(LOOP_KEYS)),
    REINFORCE_P: (LOOP_KEYS, tuple(LOOP_KEYS)),
    KL_PENALIZED: (
        {**LOOP_KEYS, "beta": float, "beta_adaptive": bool, "kl_target": float},
        tuple(LOOP_KEYS),
    ),
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


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


@contextmanager
def _at(path: str):
    """Prefix the field path of a block to the ConfigErrors raised inside."""
    try:
        yield
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def _check(block, path: str, keys: dict, required=()) -> dict:
    """Check one JSON object against its key table: required keys present,
    no unknown key, every value of its key's type (an int passes as float)."""
    _expect(isinstance(block, dict), path, "must be an object")
    for key in required:
        _expect(key in block, f"{path}.{key}", "missing required field")
    for key, value in block.items():
        _expect(key in keys, f"{path}.{key}", f"unknown key; expected one of {sorted(keys)}")
        kind = keys[key]
        allowed = (int, float) if kind is float else kind
        _expect(
            isinstance(value, allowed) and (kind is bool or not isinstance(value, bool)),
            f"{path}.{key}",
            f"expected {kind.__name__}, got {type(value).__name__}",
        )
    return block


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

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from None
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
            "exactly one of 'corpus' or 'model_file' must be present",
        )
        _check(base_model, "config.base_model", *BASE_MODEL_SCHEMAS[sources[0]])
        if sources == ["corpus"]:
            _expect(base_model["order"] >= 1, "config.base_model.order", "must be >= 1")
            _expect(base_model["smoothing"] >= 0, "config.base_model.smoothing", "must be >= 0")
        constraints = raw.get("constraints", [])
        for i, c in enumerate(constraints):
            cls._validate_constraint(c, f"config.constraints[{i}]")
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
        """Build every config object once, so that a bad value fails at load
        (and again after `dataclasses.replace`, as for a seed override)."""
        threshold = self.eval.get("threshold")
        _expect(threshold is None or threshold > 0, "config.eval.threshold", "must be > 0")
        for seed in self.ablation_seeds:
            _expect(
                isinstance(seed, int) and not isinstance(seed, bool),
                "config.eval.ablation.seeds",
                "seeds must be integers",
            )
        with _at("config"):
            LoopConfig(seed=self.seed)
        with _at("config.fit"):
            self.build_fit_config()
        with _at("config.eval"):
            self.build_eval_options()
            LoopConfig(**_fields(self.eval, "eval_every"))
        with _at("config.eval.ablation"):
            for variant in self.ablation_variants:
                DpgConfig(adaptivity=variant)
            for seed in self.ablation_seeds:
                LoopConfig(seed=seed)
        if self.trainer and self.method == REJECTION_MLE:
            for key in ("sample_budget", "fit_order"):
                _expect(self.trainer[key] >= 1, f"config.trainer.{key}", "must be >= 1")
            _expect(
                self.trainer.get("fit_smoothing", 0.0) >= 0,
                "config.trainer.fit_smoothing",
                "must be >= 0",
            )
        elif self.trainer:
            with _at("config.trainer"):
                self.build_trainer()

    @staticmethod
    def _validate_constraint(c, path: str) -> None:
        keys, required = _schema(c, path, "kind", FEATURE_SCHEMAS)
        _check(c, path, {**CONSTRAINT_KEYS, **keys}, ("id", "target", *required))
        kind, target = c["kind"], c["target"]
        if c.get("pointwise"):
            _expect(target == 1.0, f"{path}.target", "pointwise target must be 1.0")
            _expect(
                kind != "token-ratio",
                f"{path}.kind",
                "token-ratio is real-valued; pointwise constraints need a binary feature",
            )
        elif kind != "token-ratio":
            _expect(
                0.0 < target < 1.0,
                f"{path}.target",
                "distributional target for a binary feature must lie strictly in (0, 1)",
            )
        else:
            _expect(0.0 <= target <= 1.0, f"{path}.target", "must lie in [0, 1]")
        if kind in ("wordlist-presence", "prefix-match"):
            _expect(len(c["tokens"]) > 0, f"{path}.tokens", "must be non-empty")

    @property
    def ablation_variants(self) -> list[str]:
        return self.eval.get("ablation", {}).get("variants", list(ADAPTIVITIES))

    @property
    def ablation_seeds(self) -> list[int]:
        return self.eval.get("ablation", {}).get("seeds", list(ABLATION_SEEDS))

    @property
    def method(self) -> str:
        """The trainer block's method; the commands that train need the block."""
        _expect(bool(self.trainer), "config.trainer", "missing required block")
        return self.trainer["method"]

    # -- materialization -----------------------------------------------------

    def build_base(self) -> TabularARModel:
        if "model_file" in self.base_model:
            doc = json.loads((self.config_dir / self.base_model["model_file"]).read_text())
            model = TabularARModel.from_document(doc)
            _expect(
                model.space.lmax == self.lmax,
                "config.space.lmax",
                f"model file has lmax {model.space.lmax}, config says {self.lmax}",
            )
            return model
        corpus_path = self.config_dir / self.base_model["corpus"]
        try:
            text = corpus_path.read_text()
        except FileNotFoundError:
            raise ConfigError(f"config.base_model.corpus: file not found: {corpus_path}")
        tokenized = tokenize_corpus(text, self.lmax)
        space = SequenceSpace(vocabulary=tokenized.vocabulary, lmax=self.lmax)
        return mle_fit(
            space,
            tokenized.sequences,
            order=self.base_model["order"],
            smoothing=self.base_model["smoothing"],
        )

    def build_constraints(self, space: SequenceSpace) -> ConstraintSet:
        vocab = space.vocabulary
        specs = []
        for i, c in enumerate(self.constraints):
            kind = c["kind"]
            with _at(f"config.constraints[{i}]"):
                if kind == "token-presence":
                    feature = TokenPresence(vocab, c["token"], feature_id=c["id"])
                elif kind == "wordlist-presence":
                    feature = WordlistPresence(vocab, c["tokens"], feature_id=c["id"])
                elif kind == "prefix-match":
                    feature = PrefixMatch(vocab, c["tokens"], feature_id=c["id"])
                else:
                    feature = TokenRatio(
                        vocab,
                        c["numerator"],
                        c["denominator"],
                        feature_id=c["id"],
                        **_fields(c, "empty_default"),
                    )
                spec = ConstraintSpec(
                    feature=feature, target=float(c["target"]), **_fields(c, "pointwise")
                )
                specs.append(spec)
        return ConstraintSet(specs)

    def build_fit_config(self) -> FitConfig:
        return FitConfig(
            seed=self.seed,
            **_fields(
                self.fit, "sample_count", "learning_rate", "tolerance", "max_steps", "lambda_clamp"
            ),
        )

    def build_trainer(
        self, adaptivity: str | None = None, seed: int | None = None
    ) -> DpgConfig | BaselineConfig:
        """The trainer block as the config of its method, with eval.eval_every.

        `adaptivity` and `seed` replace the block's and the config's (one cell
        of the ablation grid). The trainer keys are the dataclass field names.
        """
        method = self.method
        _expect(
            method != REJECTION_MLE,
            "config.trainer.method",
            "rejection-mle is fitted by rejection_mle, not trained",
        )
        t = {key: value for key, value in self.trainer.items() if key != "method"}
        t.update(_fields(self.eval, "eval_every"), seed=self.seed if seed is None else seed)
        if method != GDC_METHOD:
            return BaselineConfig(kind=method, **t)
        if adaptivity is not None:
            t["adaptivity"] = adaptivity
        return DpgConfig(**t)

    def rejection_args(self) -> dict:
        """Keyword arguments of `rejection_mle` from a rejection-mle trainer block."""
        return _fields(self.trainer, "sample_budget", order="fit_order", smoothing="fit_smoothing")

    def build_eval_options(self) -> EvalOptions:
        return EvalOptions(**_fields(self.eval, "sample_size", exact="exact_oracle"))
