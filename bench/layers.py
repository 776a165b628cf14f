"""Per-layer metrics from the spans of one traced workload run.

Layers are distctl's module names. A span's self time is its duration minus
the time its child spans cover. Every metric here is computed from spans the
tracer recorded around calls into the library, never from library internals.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("import", "cli", "config", "seqspace", "lm", "ebm", "features", "estimators", "dpg",
          "baselines", "metrics")

# metric prefix -> span keys it sums over
SPAN_GROUPS = {
    "seqspace.enumeration": ("seqspace.SequenceSpace.enumeration",),
    "lm.sample_batch": ("lm.TabularARModel.sample_batch",),
    "lm.log_prob_batch": ("lm.TabularARModel.log_prob_batch",),
    "lm.grad_weighted_sum": ("lm.TabularARModel.grad_weighted_sum",),
    "lm.apply_update": ("lm.TabularARModel.apply_update",),
    "lm.frozen_copy": ("lm.TabularARModel.frozen_copy",),
    "lm.exact_distribution": ("lm.TabularARModel.exact_distribution",),
    "lm.to_document": ("lm.TabularARModel.to_document",),
    "lm.from_document": ("lm.TabularARModel.from_document",),
    "lm.mle_fit": ("lm.mle_fit",),
    "ebm.fit_lambda": ("ebm.fit_lambda",),
    "ebm.snis_objective_grad": ("ebm.snis_objective_grad",),
    "ebm.log_score_batch": ("ebm.Ebm.log_score_batch",),
    "ebm.exact_normalize": ("ebm.Ebm.exact_normalize",),
    "features.feature_matrix": ("features.ConstraintSet.feature_matrix",),
    "features.pointwise_predicate_batch": ("features.ConstraintSet.pointwise_predicate_batch",),
    "estimators": ("estimators.importance_ratios", "estimators.kl_p_from_logs",
                   "estimators.tvd_p_from_logs", "estimators.kl_models_from_logs"),
    "dpg.dpg_iteration": ("dpg.dpg_iteration",),
    "baselines.reinforce_step": ("baselines.reinforce_step",),
    "baselines.kl_penalized_step": ("baselines.kl_penalized_step",),
    "baselines.rejection_mle": ("baselines.rejection_mle",),
    "metrics.snapshot": ("metrics.snapshot",),
    "metrics.self_bleu_n": ("metrics.self_bleu_n",),
    "metrics.corpus_dist_n": ("metrics.corpus_dist_n",),
    "cli.write": ("cli._write_json", "cli._write_csv", "cli._samples_file"),
    "config.load": ("config.ExperimentConfig.load", "config.ExperimentConfig.from_dict"),
    "config.build_base": ("config.ExperimentConfig.build_base",),
}

# metric -> span key whose numeric `extra` values it sums
EXTRA_SUMS = {
    "lm.sample_batch.rows": "lm.TabularARModel.sample_batch",
    "lm.log_prob_batch.rows": "lm.TabularARModel.log_prob_batch",
    "lm.frozen_copy.bytes": "lm.TabularARModel.frozen_copy",
    "features.feature_matrix.rows": "features.ConstraintSet.feature_matrix",
}
WRITE_KEYS = SPAN_GROUPS["cli.write"]
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def _tail(durations_ms: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it (p50 otherwise)."""
    for pct in TAIL_PERCENTILES:
        if len(durations_ms) * (1 - pct / 100) >= 10:
            return _percentile(durations_ms, pct), pct
    return _percentile(durations_ms, 50.0), 50.0


def compute(processes: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one workload run: the spans of each of its
    processes, and the run's traced wall time (sum over its processes)."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    extra_sum: dict[str, float] = defaultdict(float)
    iteration_ms: list[float] = []
    enumerated: dict = {}
    grad_emissions = grad_cells = swaps = 0
    fit_steps = fit_rows = kept = drawn = 0
    for spans in processes:
        covered = [0.0] * len(spans)
        for key, start, end, parent, extra in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (key, start, end, parent, extra) in enumerate(spans):
            self_s[key] += end - start - covered[i]
            calls[key] += 1
            if isinstance(extra, (int, float)):
                extra_sum[key] += extra
            if key == "dpg.dpg_iteration":
                iteration_ms.append((end - start) * 1e3)
            elif key == "lm.TabularARModel.frozen_copy" and parent >= 0:
                swaps += spans[parent][0] == "dpg.dpg_iteration"
            elif key == "lm.TabularARModel.grad_weighted_sum":
                grad_emissions += extra[0]
                grad_cells += extra[1]
            elif key == "seqspace.SequenceSpace.enumeration":
                enumerated[(id(spans), extra[0])] = extra[1]
            elif key == "ebm.fit_lambda":
                fit_steps += extra[0]
                fit_rows += extra[1]
            elif key == "baselines.rejection_mle":
                kept += extra[0]
                drawn += extra[1]

    out: dict[str, float] = {}
    for name, keys in SPAN_GROUPS.items():
        out[f"{name}.self_s"] = sum(self_s[k] for k in keys)
        out[f"{name}.calls"] = sum(calls[k] for k in keys)
    for name, key in EXTRA_SUMS.items():
        out[name] = extra_sum[key]
    out["cli.write.bytes"] = sum(extra_sum[k] for k in WRITE_KEYS)
    out["seqspace.enumeration.rows"] = sum(enumerated.values())
    out["lm.grad.cells_ratio"] = grad_emissions / grad_cells if grad_cells else 0.0
    out["ebm.fit_lambda.steps"] = fit_steps
    out["ebm.fit_lambda.rows"] = fit_rows
    out["baselines.rejection_mle.acceptance_rate"] = kept / drawn if drawn else 0.0
    iterations = len(iteration_ms)
    out["dpg.swaps"] = swaps
    out["dpg.swap_rate"] = swaps / iterations if iterations else 0.0
    iteration_ms.sort()
    if iteration_ms:
        out["dpg.iteration_ms.p50"] = _percentile(iteration_ms, 50.0)
        out["dpg.iteration_ms.tail"], out["dpg.iteration_ms.tail_pct"] = _tail(iteration_ms)
    else:
        out["dpg.iteration_ms.p50"] = out["dpg.iteration_ms.tail"] = 0.0
        out["dpg.iteration_ms.tail_pct"] = 0.0
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".", 1)[0] == layer
        )
    traced = sum(self_s.values())
    out["trace.spans"] = sum(len(spans) for spans in processes)
    out["trace.self_share"] = traced / wall_s if wall_s > 0 else 0.0
    return out
