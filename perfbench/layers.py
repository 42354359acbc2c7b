"""Which ``slime`` functions the traced run wraps, and the per-layer metrics.

Every target is wrapped at the module where its caller looks the name up.
Counts come from the values the functions return (``PathState``,
``Explanation``, ``TestDecision``, ``PerturbationDataset``) and from the
rows ``predict_batch`` is handed.
"""

from __future__ import annotations

import math
from collections import defaultdict

from slime.models import MAX_ROWS_PER_REQUEST, SubprocessModel

from spans import Recorder, self_sum_error, self_times

# A traced op whose self times miss its wall time by more than this share
# has a span outside its parent or off the tree.
SELF_SUM_TOLERANCE = 1e-6


def _rows(result, args, kwargs):
    return {"rows": int(result.shape[0])}


def _dataset(result, args, kwargs):
    return {"rows": result.n, "mb": result.X.nbytes / 1e6}


def _path(state, args, kwargs):
    return {
        "rows": int(args[0].base.n_rows),
        "aborted": int(state.aborted),
        "drops": len(state.drop_events),
        "breakpoints": len(state.breakpoints),
        "path_bytes": sum(b.beta.nbytes for b in state.breakpoints),
    }


def _decision(decision, args, kwargs):
    return {"significant": int(decision.significant)}


def _explanation(explanation, args, kwargs):
    return {"final_n": explanation.final_n, "capped": int(explanation.capped)}


def _repeat(result, args, kwargs):
    return {"workers": kwargs.get("workers", 1)}


def predict_target(model):
    """``extra`` entry that puts a span around ``model.predict_batch``."""
    per_request = MAX_ROWS_PER_REQUEST if isinstance(model, SubprocessModel) else math.inf

    def count(result, args, kwargs):
        rows = len(args[0])
        return {"rows": rows, "requests": max(1, math.ceil(rows / per_request))}

    return (model, "predict_batch", "models.predict_batch", count)


def targets(recorder: Recorder):
    """Module-level names to wrap: ``(module, attribute, span, count)``."""

    def model_spec(model, args, kwargs):
        # The CLI builds its own model; wrap the instance it gets back.
        _, attr, name, count = predict_target(model)
        setattr(model, attr, recorder.wrap(name, getattr(model, attr), count))
        return {}

    return [
        ("slime.sampling", "gaussian_perturb", "sampling.gaussian_perturb", _rows),
        ("slime.sampling", "kernel_weights", "sampling.kernel_weights", None),
        ("slime.sampling", "query_model", "sampling.query_model", None),
        ("slime.explainer", "build_dataset", "sampling.build_dataset", _dataset),
        ("slime.explainer", "extend_dataset", "sampling.extend_dataset", _dataset),
        ("slime.explainer", "standardize", "weighted_lars.standardize", None),
        ("slime.explainer", "transform_response", "weighted_lars.transform_response", None),
        ("slime.explainer", "lars_lasso_path", "weighted_lars.lars_lasso_path", _path),
        ("slime.explainer", "refit_least_squares", "weighted_lars.refit_least_squares", None),
        ("slime.explainer", "product_covariance", "stability_testing.product_covariance", None),
        ("slime.explainer", "entry_test", "stability_testing.entry_test", _decision),
        ("slime.explainer", "bonferroni_entry_test", "stability_testing.entry_test", _decision),
        ("slime.explainer", "slime_explain", "explainer.slime_explain", _explanation),
        ("slime.explainer", "lime_explain", "explainer.lime_explain", _explanation),
        ("slime.bench", "slime_explain", "explainer.slime_explain", _explanation),
        ("slime.bench", "lime_explain", "explainer.lime_explain", _explanation),
        ("slime.bench", "repeat_explanations", "bench.repeat_explanations", _repeat),
        ("slime.bench", "positionwise_stability", "bench.positionwise_stability", None),
        ("slime.cli", "slime_explain", "explainer.slime_explain", _explanation),
        ("slime.cli", "lime_explain", "explainer.lime_explain", _explanation),
        ("slime.cli", "parse_model_spec", "models.parse_model_spec", model_spec),
        ("slime.cli", "main", "cli.main", None),
    ]


# name -> unit, in the order they are printed.
PER_LAYER_UNITS = {
    "sampling.gaussian_perturb.s": "s",
    "sampling.kernel_weights.s": "s",
    "sampling.rows_generated": "count",
    "sampling.extend_dataset.self_s": "s",
    "sampling.build_dataset.self_s": "s",
    "sampling.dataset_mb.computed": "MB",
    "sampling.reuse_ratio": "ratio",
    "sampling.query_model.self_s": "s",
    "models.predict_batch.s": "s",
    "models.rows": "count",
    "models.rows_per_s": "rows/s",
    "models.requests": "count",
    "models.first_request_s": "s",
    "models.failures": "count",
    "weighted_lars.standardize.s": "s",
    "weighted_lars.transform_response.s": "s",
    "weighted_lars.lars_lasso_path.self_s": "s",
    "weighted_lars.breakpoints": "count",
    "weighted_lars.drops": "count",
    "weighted_lars.path_bytes.computed": "bytes",
    "weighted_lars.refit_least_squares.s": "s",
    "weighted_lars.paths": "count",
    "weighted_lars.completed_ratio": "ratio",
    "stability_testing.product_covariance.s": "s",
    "stability_testing.product_covariance.calls": "count",
    "stability_testing.entry_test.s": "s",
    "stability_testing.decisions": "count",
    "stability_testing.significant_ratio": "ratio",
    "explainer.slime_explain.self_s": "s",
    "explainer.lime_explain.self_s": "s",
    "explainer.rounds_per_op": "count",
    "explainer.capped_frac": "ratio",
    "explainer.traced_peak_mb": "MB",
    "bench.repeat_explanations.self_s": "s",
    "bench.positionwise_stability.s": "s",
    "bench.pool_busy_ratio": "ratio",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.self_sum_error": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, overhead_ratio: float, peak_mb: float) -> dict[str, float]:
    """Per-op layer metrics from the spans of every traced op.

    Times are summed over threads, so on a workload with a thread pool a
    layer's seconds per op can exceed the op's wall time.
    """
    selfs = self_times(spans)
    members = defaultdict(list)
    for i, span in enumerate(spans):
        members[span.op].append(i)
    members.pop(-1, None)
    ops = len(members)
    if ops == 0:
        raise ValueError("no traced op")

    dur = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(float))
    rounds = 0          # paths walked inside slime_explain
    busy = 0.0          # explanation time inside repeat_explanations
    capacity = 0.0      # workers x repeat_explanations wall time
    for span, self_s in zip(spans, selfs):
        if span.op < 0:
            continue
        dur[span.name] += span.duration
        own[span.name] += self_s
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[span.name][key] += value
        parent = spans[span.parent].name if span.parent >= 0 else None
        if span.name == "weighted_lars.lars_lasso_path" and parent == "explainer.slime_explain":
            rounds += 1
        elif span.name.startswith("explainer.") and parent == "bench.repeat_explanations":
            busy += span.duration
        elif span.name == "bench.repeat_explanations":
            capacity += span.counts.get("workers", 1) * span.duration

    largest_mb = 0.0
    first_request = 0.0
    worst_error = 0.0
    for indices in members.values():
        datasets = [spans[i].counts.get("mb", 0.0) for i in indices
                    if spans[i].name in ("sampling.build_dataset", "sampling.extend_dataset")]
        largest_mb += max(datasets, default=0.0)
        requests = [spans[i] for i in indices if spans[i].name == "models.predict_batch"]
        if requests:
            first_request += min(requests, key=lambda s: s.start).duration
        worst_error = max(worst_error, self_sum_error(spans, selfs, indices))

    path = counts["weighted_lars.lars_lasso_path"]
    predict = counts["models.predict_batch"]
    decisions = calls["stability_testing.entry_test"]
    slime_runs = calls["explainer.slime_explain"]
    paths = calls["weighted_lars.lars_lasso_path"]
    values = {
        "sampling.gaussian_perturb.s": dur["sampling.gaussian_perturb"] / ops,
        "sampling.kernel_weights.s": dur["sampling.kernel_weights"] / ops,
        "sampling.rows_generated": counts["sampling.gaussian_perturb"]["rows"] / ops,
        "sampling.extend_dataset.self_s": own["sampling.extend_dataset"] / ops,
        "sampling.build_dataset.self_s": own["sampling.build_dataset"] / ops,
        "sampling.dataset_mb.computed": largest_mb / ops,
        "sampling.reuse_ratio": _ratio(path["rows"] - predict["rows"], path["rows"]),
        "sampling.query_model.self_s": own["sampling.query_model"] / ops,
        "models.predict_batch.s": dur["models.predict_batch"] / ops,
        "models.rows": predict["rows"] / ops,
        "models.rows_per_s": _ratio(predict["rows"], dur["models.predict_batch"]),
        "models.requests": predict["requests"] / ops,
        "models.first_request_s": first_request / ops,
        "models.failures": predict["failed"] / ops,
        "weighted_lars.standardize.s": dur["weighted_lars.standardize"] / ops,
        "weighted_lars.transform_response.s": dur["weighted_lars.transform_response"] / ops,
        "weighted_lars.lars_lasso_path.self_s": own["weighted_lars.lars_lasso_path"] / ops,
        "weighted_lars.breakpoints": path["breakpoints"] / ops,
        "weighted_lars.drops": path["drops"] / ops,
        "weighted_lars.path_bytes.computed": path["path_bytes"] / ops,
        "weighted_lars.refit_least_squares.s": dur["weighted_lars.refit_least_squares"] / ops,
        "weighted_lars.paths": paths / ops,
        "weighted_lars.completed_ratio": _ratio(paths - path["aborted"], paths),
        "stability_testing.product_covariance.s": dur["stability_testing.product_covariance"] / ops,
        "stability_testing.product_covariance.calls": calls["stability_testing.product_covariance"] / ops,
        "stability_testing.entry_test.s": dur["stability_testing.entry_test"] / ops,
        "stability_testing.decisions": decisions / ops,
        "stability_testing.significant_ratio": _ratio(
            counts["stability_testing.entry_test"]["significant"], decisions),
        "explainer.slime_explain.self_s": own["explainer.slime_explain"] / ops,
        "explainer.lime_explain.self_s": own["explainer.lime_explain"] / ops,
        "explainer.rounds_per_op": rounds / ops,
        "explainer.capped_frac": _ratio(counts["explainer.slime_explain"]["capped"], slime_runs),
        "explainer.traced_peak_mb": peak_mb,
        "bench.repeat_explanations.self_s": own["bench.repeat_explanations"] / ops,
        "bench.positionwise_stability.s": dur["bench.positionwise_stability"] / ops,
        "bench.pool_busy_ratio": _ratio(busy, capacity),
        "cli.main.self_s": own["cli.main"] / ops,
        "trace.overhead_ratio": overhead_ratio,
        "trace.unattributed_s": own["op"] / ops,
        "trace.self_sum_error": worst_error,
    }
    assert values.keys() == PER_LAYER_UNITS.keys()
    return values
