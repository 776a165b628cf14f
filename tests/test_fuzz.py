"""A config fuzzer: small configs over the demo corpus's vocabulary, drawn
from the config schema and run through `cli.main`. The base is fitted on the
demo corpus, or read from a model file, version 3 or version 2, with logit
gaps up to +-700 (a frozen one may hold -inf cells); some rejection-mle
configs have no pointwise constraint, and must be refused (exit 2) before
anything is fitted.

Every run ends in exit 0 or in a named error's exit code (2 configuration, 3
numerical, 4 size guard), and no other exception escapes. A run that exits 0
writes strict JSON and only finite numbers, its model.json's rows included,
and every exact KL it writes is >= -1e-12, with two stated exceptions (see
`check_artifacts`).
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distctl import cli
from distctl.config import FEATURE_SCHEMAS, TRAINER_SCHEMAS
from distctl.dpg import ADAPTIVITIES, OPTIMIZERS
from distctl.lm import TabularARModel
from distctl.seqspace import SequenceSpace, Vocabulary

from helpers import strict_json, uniform_model, v3_document

DEMO_CORPUS = Path(__file__).parent.parent / "demo" / "corpus.txt"
TOKENS = ("cloud", "eclipse", "rain", "sun", "wind")  # the demo corpus's body
COMMANDS = ("fit", "train", "ablation", "oracle")
EXIT_CODES = (0, 2, 3, 4)
# An exact KL of a target that is its base reads a few ulp below 0: its Z
# rounds 1-2 ulp above 1.
EXACT_KL_FLOOR = -1e-12
TEXT_COLUMNS = ("method", "variant", "token")

tokens = st.sampled_from(TOKENS)
token_lists = st.lists(tokens, min_size=1, max_size=3, unique=True)
# at 0, at 1, near either edge of a binary feature's hull, and inside it
targets = st.sampled_from([0.0, 1e-9, 0.001, 0.5, 0.999, 1.0 - 1e-9, 1.0])
learning_rates = st.one_of(st.sampled_from([1e-8, 1.0, 128.0, 1e308]), st.floats(1e-8, 1e308))


@st.composite
def constraint_lists(draw, pointwise=True):
    constraints = []
    for i in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(FEATURE_SCHEMAS)))
        c = {"id": f"c{i}", "kind": kind}
        if kind == "token-presence":
            c["token"] = draw(tokens)
        elif kind == "token-ratio":
            c["denominator"] = draw(token_lists)
            c["numerator"] = draw(st.lists(st.sampled_from(c["denominator"]), min_size=1,
                                           unique=True))
            if draw(st.booleans()):
                c["empty_default"] = draw(st.sampled_from([0.0, 0.5, 1.0]))
        else:
            c["tokens"] = draw(token_lists)
        if kind != "token-ratio" and pointwise and draw(st.booleans()):
            c.update(pointwise=True, target=1.0)
        else:
            c["target"] = draw(targets)
        constraints.append(c)
    return constraints


@st.composite
def trainer_blocks(draw, method=None):
    method = method or draw(st.sampled_from(sorted(TRAINER_SCHEMAS)))
    if method == "rejection-mle":
        return {
            "method": method,
            "sample_budget": draw(st.integers(1, 3000)),
            "fit_order": draw(st.integers(1, 4)),
            "fit_smoothing": draw(st.sampled_from([0.0, 0.5])),
        }
    trainer = {
        "method": method,
        "iterations": draw(st.integers(0, 3)),
        "samples_per_iteration": draw(st.integers(1, 64)),
        "learning_rate": draw(learning_rates),
    }
    if method == "gdc":
        trainer["adaptivity"] = draw(st.sampled_from(ADAPTIVITIES))
        trainer["optimizer"] = draw(st.sampled_from(OPTIMIZERS))
    if method == "kl-penalized":
        trainer["beta"] = draw(st.sampled_from([0.0, 0.1, 10.0]))
        if draw(st.booleans()):
            trainer["kl_target"] = draw(st.sampled_from([0.0, 0.2]))
    return trainer


@st.composite
def model_documents(draw, lmax):
    """A model file's document, version 3 or version 2, over the demo
    corpus's vocabulary: uniform logits in +-gap, gap up to 700, so a cell's
    probability may underflow to 0; a frozen model may also hold -inf cells, a
    row of them included."""
    space = SequenceSpace(Vocabulary.from_body_tokens(list(TOKENS)), lmax)
    order = draw(st.integers(1, 3))
    trainable = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gap = draw(st.sampled_from([1.0, 50.0, 300.0, 700.0]))
    logits = rng.uniform(-gap, gap, uniform_model(space, order).logits.shape)
    if not trainable:
        logits[rng.random(logits.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = -np.inf
    header = TabularARModel(space=space, order=order, logits=np.zeros_like(logits)).to_document()
    header["trainable"] = trainable
    if draw(st.booleans()):
        return v3_document(header, logits, np.arange(len(logits)))
    return {**header, "version": 2, "rows": logits.tolist(), "row_map": list(range(len(logits)))}


@st.composite
def configs(draw):
    """(config, model document or None): the document is the base's model
    file, base.json."""
    lmax = draw(st.integers(1, 4))
    exact = draw(st.booleans())
    eval_block = {
        "eval_every": draw(st.integers(1, 3)),
        "sample_size": draw(st.integers(2, 64)),
        "exact_oracle": exact,
        "ablation": {
            "variants": draw(st.lists(st.sampled_from(ADAPTIVITIES), min_size=1, max_size=2,
                                      unique=True)),
            "seeds": [draw(st.integers(0, 3))],
        },
    }
    if exact and draw(st.booleans()):
        eval_block["threshold"] = 0.1
    model = draw(st.one_of(st.none(), model_documents(lmax)))
    base_model = {"model_file": "base.json"} if model else {
        "corpus": str(DEMO_CORPUS),
        "order": draw(st.integers(1, 4)),
        "smoothing": draw(st.sampled_from([0.0, 0.25, 1.0])),
    }
    # rejection-mle on a set with no pointwise constraint, one run in eight
    unfilterable = draw(st.integers(0, 7)) == 7
    cfg = {
        "seed": draw(st.integers(0, 3)),
        "space": {"lmax": lmax},
        "base_model": base_model,
        "constraints": draw(constraint_lists(pointwise=not unfilterable)),
        "fit": {
            "sample_count": draw(st.integers(1, 3000)),
            "tolerance": draw(st.sampled_from([1e-12, 1e-6, 0.01, 0.5])),
            "lambda_clamp": draw(st.sampled_from([1e-3, 1.0, 20.0, 700.0, 1e6])),
        },
        "trainer": draw(trainer_blocks("rejection-mle" if unfilterable else None)),
        "eval": eval_block,
    }
    return cfg, model


def _numbers(value):
    """Every number in a JSON value, depth first."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def check_artifacts(out: Path, cfg: dict) -> None:
    """Every JSON artifact of a run that exited 0 is strict JSON (no NaN or
    Infinity constant). Every number in every CSV and JSON artifact is
    finite, model.json's rows too (read through `from_document`), and every
    exact KL is >= EXACT_KL_FLOOR. Two exceptions:
    - the undefined sampled estimate: a snapshot with no Z_ma (z_ma 0.0)
      whose draws all miss the target's support writes `kl_p_pi` and
      `kl_p_pi_se` as nan (`metrics.snapshot`);
    - the model.json of a frozen rejection-mle refit with fit_smoothing 0
      holds -inf logits, the zero-probability sentinel frozen models may hold.
    """
    trainer = cfg["trainer"]
    frozen_refit = trainer["method"] == "rejection-mle" and trainer["fit_smoothing"] == 0.0
    for path in out.glob("*.json"):
        doc = strict_json(path.read_text())
        if path.name == "model.json":
            logits = TabularARModel.from_document(doc).logits
            assert not (np.isnan(logits).any() or np.isposinf(logits).any())
            assert frozen_refit or not np.isneginf(logits).any()
            del doc["rows"], doc["row_map"]
        assert all(math.isfinite(v) for v in _numbers(doc)), path.name
        if path.name == "oracle.json":
            assert doc["kl_p_a"] >= EXACT_KL_FLOOR
    for path in out.glob("*.csv"):
        with path.open() as f:
            for row in csv.DictReader(f):
                undefined = row.get("z_ma") == "0.0"
                for column, text in row.items():
                    if column in TEXT_COLUMNS:
                        continue
                    value = float(text)
                    if undefined and column in ("kl_p_pi", "kl_p_pi_se"):
                        assert math.isfinite(value) or math.isnan(value), (path.name, column)
                        continue
                    assert math.isfinite(value), (path.name, column, text)
                if "kl_p_pi_exact" in row:
                    assert float(row["kl_p_pi_exact"]) >= EXACT_KL_FLOOR


@settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(configs())
def test_every_fuzzed_config_exits_with_a_named_code_and_writes_finite_numbers(drawn):
    cfg, model = drawn
    unfilterable = cfg["trainer"]["method"] == "rejection-mle" and not any(
        c.get("pointwise") for c in cfg["constraints"]
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.json"
        path.write_text(json.dumps(cfg))
        if model:
            (Path(tmp) / "base.json").write_text(json.dumps(model))
        for command in COMMANDS:
            out = Path(tmp) / command
            code = cli.main([command, "--config", str(path), "--output", str(out)])
            assert code in EXIT_CODES, (command, code)
            if command == "train" and unfilterable:
                assert code == 2 and not (out / "fit_report.json").exists()
            if code == 0:
                check_artifacts(out, cfg)
