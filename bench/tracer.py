"""In-process span recorder that wraps distctl's functions from outside.

Nothing in the library changes: `Tracer.install()` replaces every public
function of every loaded `distctl` module with a timing wrapper, in every
module that binds it by name (so `cli.snapshot`, `dpg.snapshot` and
`metrics.snapshot` all reach one wrapper), and wraps the public methods of
the classes in `TRACED_CLASSES`. Spans stay in memory and are written once,
when the traced process ends.

A span is `[key, start, end, parent, extra]`: `key` is
`<module>.<qualname>` with the `distctl.` prefix dropped, `parent` is the
index of the enclosing span (-1 at top level), and `extra` is what the
span's counter in `COUNTERS` derived from the call (a number or a list of
numbers), or null.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

TRACED_CLASSES = (
    ("lm", "TabularARModel"),
    ("ebm", "Ebm"),
    ("seqspace", "SequenceSpace"),
    ("features", "ConstraintSet"),
    ("config", "ExperimentConfig"),
)

# Private helpers that are a layer boundary of their own: artifact writes.
PRIVATE_TRACED = ("_write_json", "_write_csv", "_samples_file")


def _file_bytes(args, kwargs, result):
    return Path(args[0]).stat().st_size


def _grad_cells(args, kwargs, result):
    model, batch = args[0], args[1]
    lengths = batch.lengths
    return [int(lengths.sum() + (lengths < model.space.lmax).sum()), int(model.logits.size)]


def _fit_counts(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return [int(result[0].steps_used), int(config.sample_count)]


def _rejection_counts(args, kwargs, result):
    return [int(result[1].kept), int(result[1].drawn)]


# key -> f(args, kwargs, result) giving the span's `extra` value.
COUNTERS = {
    "seqspace.SequenceSpace.enumeration": lambda a, k, r: [id(r), len(r)],
    "lm.TabularARModel.sample_batch": lambda a, k, r: len(r),
    "lm.TabularARModel.log_prob_batch": lambda a, k, r: len(r),
    "lm.TabularARModel.grad_weighted_sum": _grad_cells,
    "lm.TabularARModel.frozen_copy": lambda a, k, r: int(r.logits.nbytes),
    "features.ConstraintSet.feature_matrix": lambda a, k, r: len(r),
    "ebm.fit_lambda": _fit_counts,
    "baselines.rejection_mle": _rejection_counts,
    "cli._write_json": _file_bytes,
    "cli._write_csv": _file_bytes,
    "cli._samples_file": _file_bytes,
}


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}

    def wrap(self, key: str, fn):
        counter = COUNTERS.get(key)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [key, start, end, parent, None]
            if counter is not None:
                spans[idx][4] = counter(args, kwargs, result)
            return result

        return traced

    def _function_wrapper(self, fn):
        if id(fn) not in self._wrappers:
            key = f"{_short(fn.__module__)}.{fn.__qualname__}"
            self._wrappers[id(fn)] = self.wrap(key, fn)
        return self._wrappers[id(fn)]

    def install(self) -> None:
        """Wrap every traced callable in every loaded distctl module."""
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "distctl"]
        for module in modules:
            for name, value in list(vars(module).items()):
                if not inspect.isfunction(value) or inspect.isgeneratorfunction(value):
                    continue
                if not value.__module__.startswith("distctl"):
                    continue
                if name.startswith("_") and name not in PRIVATE_TRACED:
                    continue
                setattr(module, name, self._function_wrapper(value))
        for module_name, class_name in TRACED_CLASSES:
            cls = getattr(sys.modules[f"distctl.{module_name}"], class_name)
            for name, attr in list(vars(cls).items()):
                if name.startswith("_"):
                    continue
                key = f"{module_name}.{class_name}.{name}"
                if isinstance(attr, classmethod):
                    setattr(cls, name, classmethod(self.wrap(key, attr.__func__)))
                elif inspect.isfunction(attr):
                    setattr(cls, name, self.wrap(key, attr))

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))
