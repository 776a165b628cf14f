"""A config fuzzer: small configs over the demo corpus, drawn from the config
schema and run through `cli.main`.

Every run ends in exit 0 or in a named error's exit code (2 configuration, 3
numerical, 4 size guard), and no other exception escapes. A run that exits 0
writes only finite numbers, and every exact KL it writes is >= -1e-12, with
two stated exceptions (see `check_artifacts`).
"""

import csv
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distctl import cli
from distctl.config import FEATURE_SCHEMAS, TRAINER_SCHEMAS
from distctl.dpg import ADAPTIVITIES, OPTIMIZERS

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
def constraint_lists(draw):
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
        if kind != "token-ratio" and draw(st.booleans()):
            c.update(pointwise=True, target=1.0)
        else:
            c["target"] = draw(targets)
        constraints.append(c)
    return constraints


@st.composite
def trainer_blocks(draw):
    method = draw(st.sampled_from(sorted(TRAINER_SCHEMAS)))
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
def configs(draw):
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
    return {
        "seed": draw(st.integers(0, 3)),
        "space": {"lmax": lmax},
        "base_model": {
            "corpus": str(DEMO_CORPUS),
            "order": draw(st.integers(1, 4)),
            "smoothing": draw(st.sampled_from([0.0, 0.25, 1.0])),
        },
        "constraints": draw(constraint_lists()),
        "fit": {
            "sample_count": draw(st.integers(1, 3000)),
            "tolerance": draw(st.sampled_from([1e-12, 1e-6, 0.01, 0.5])),
            "max_steps": draw(st.integers(1, 30)),
            "lambda_clamp": draw(st.sampled_from([1e-3, 1.0, 20.0, 700.0, 1e6])),
        },
        "trainer": draw(trainer_blocks()),
        "eval": eval_block,
    }


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
    """Every number in every CSV and JSON artifact of a run that exited 0 is
    finite, and every exact KL is >= EXACT_KL_FLOOR. Two exceptions:
    - the undefined sampled estimate: a snapshot with no Z_ma (z_ma 0.0)
      whose draws all miss the target's support writes `kl_p_pi` and
      `kl_p_pi_se` as nan (`metrics.snapshot`);
    - the model.json of a frozen rejection-mle refit with fit_smoothing 0
      holds -inf logits, the zero-probability sentinel frozen models may hold.
    """
    trainer = cfg["trainer"]
    frozen_refit = trainer["method"] == "rejection-mle" and trainer["fit_smoothing"] == 0.0
    for path in out.glob("*.json"):
        doc = json.loads(path.read_text())
        if path.name == "model.json" and frozen_refit:
            rows = doc.pop("rows")
            assert not any(math.isnan(v) or v == math.inf for v in _numbers(rows))
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
def test_every_fuzzed_config_exits_with_a_named_code_and_writes_finite_numbers(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.json"
        path.write_text(json.dumps(cfg))
        for command in COMMANDS:
            out = Path(tmp) / command
            code = cli.main([command, "--config", str(path), "--output", str(out)])
            assert code in EXIT_CODES, (command, code)
            if code == 0:
                check_artifacts(out, cfg)
