"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from slime.models import LinearModel, SubprocessModel  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, self_sum_error, self_times  # noqa: E402


def _span(name, start, end, parent, thread=1):
    return Span(name, start, parent, op=0, thread=thread, end=end)


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("pool", 5.0, 9.0, 0),
        _span("worker", 5.0, 8.0, 3, thread=2),   # two pool threads in parallel
        _span("worker", 6.0, 9.0, 3, thread=3),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 0.0, 3.0, 3.0])
    # 12 s of self time = 10 s of wall time + 2 s the workers overlapped.
    assert self_sum_error(spans, selfs, list(range(6))) == pytest.approx(0.0, abs=1e-15)


def test_self_sum_error_flags_a_span_outside_its_parent_or_off_the_tree():
    outside = [_span("op", 0.0, 10.0, -1), _span("a", 1.0, 4.0, 0), _span("b", 3.0, 5.0, 1)]
    assert self_sum_error(outside, self_times(outside), [0, 1, 2]) == pytest.approx(0.1)
    orphan = [_span("op", 0.0, 10.0, -1), _span("a", 1.0, 4.0, -1)]
    assert self_sum_error(orphan, self_times(orphan), [0, 1]) == float("inf")


def _wrapped_names(recorder):
    return {(module, attr): getattr(importlib.import_module(module), attr)
            for module, attr, _, _ in layers.targets(recorder)}


def test_wrappers_are_restored_when_an_op_raises():
    recorder = Recorder()
    originals = _wrapped_names(recorder)
    model = LinearModel([1.0, 2.0])
    extra = [layers.predict_target(model)]
    with pytest.raises(ValueError):
        with recorder.installed(layers.targets(recorder), extra), recorder.op(0):
            assert importlib.import_module("slime.explainer").slime_explain \
                is not originals[("slime.explainer", "slime_explain")]
            model.predict_batch(np.ones((3, 2)))
            model.predict_batch(np.ones((3, 5)))     # wrong width raises
    assert _wrapped_names(recorder) == originals
    assert "predict_batch" not in vars(model)
    assert [s.counts.get("failed", 0) for s in recorder.spans] == [0, 0, 1]
    assert recorder.spans[1].counts["rows"] == 3


def test_pool_thread_spans_hang_off_the_submitting_call():
    import threading

    from slime.explainer import ExplainerConfig
    from slime.models import MarsModel
    from slime.sampling import InstanceSpec
    bench = importlib.import_module("slime.bench")

    recorder = Recorder()
    instance = InstanceSpec(values=np.full(5, 0.5), feature_scales=np.full(5, 0.05))
    config = ExplainerConfig(n0=200, n_max=1000, k=5)
    with recorder.installed(layers.targets(recorder)), recorder.op(0):
        bench.repeat_explanations(MarsModel(), instance, config, reps=6, base_seed=1,
                                  workers=2)
    spans = recorder.spans
    batch = [i for i, s in enumerate(spans) if s.name == "bench.repeat_explanations"]
    explanations = [s for s in spans if s.name == "explainer.slime_explain"]
    assert len(batch) == 1 and len(explanations) == 6
    assert all(s.parent == batch[0] for s in explanations)
    assert all(s.thread != threading.get_ident() for s in explanations)
    metrics = layers.layer_metrics(spans, overhead_ratio=1.0, peak_mb=0.0)
    assert metrics["trace.self_sum_error"] <= layers.SELF_SUM_TOLERANCE
    assert 0.0 < metrics["bench.pool_busy_ratio"] <= 1.0


class SmallLinear(workloads.LinearWorkload):
    name = "small-linear"
    CYCLE = 2
    P = 6
    CONFIG = dict(k=2, n0=200, n_max=4000)

    def coefficients(self):
        return workloads.near_tied_pairs(self.P, 1, 1.0)


def test_traced_and_untraced_runs_give_the_same_digest(tmp_path):
    timed = run.Runner(SmallLinear(), seed=3, seconds=0.0)
    timed.setup(tmp_path)
    metrics, _, timed_out, _ = run.run_timed(timed, setup_s=1.0)
    assert metrics["rows_queried_per_op"] > 0

    traced = run.Runner(SmallLinear(), seed=3, seconds=0.0)
    traced.setup(tmp_path)
    originals = _wrapped_names(Recorder())
    layer, _, untraced_out, _ = run.run_traced(traced, seed=3, out_dir=tmp_path)

    assert timed.problems == [] and traced.problems == []
    assert run.digest(untraced_out) == run.digest(timed_out)
    assert _wrapped_names(Recorder()) == originals
    assert "predict_batch" not in vars(traced.workload.model)
    assert layer.keys() == layers.PER_LAYER_UNITS.keys()
    assert layer["trace.self_sum_error"] <= layers.SELF_SUM_TOLERANCE
    assert layer["models.rows"] == metrics["rows_queried_per_op"]
    assert (tmp_path / "spans-small-linear-3.jsonl").exists()


def test_exec_child_predicts_like_linear_model():
    coefficients = workloads.near_tied_pairs(20, 3, 0.6)
    X = np.random.default_rng(0).standard_normal((2500, 20))
    spec = ",".join(repr(float(c)) for c in coefficients)
    with SubprocessModel([sys.executable, str(workloads.CHILD), spec], input_dim=20) as child:
        got = child.predict_batch(X)
    want = LinearModel(coefficients).predict_batch(X)
    # Summation order differs (BLAS versus left to right): allow the rounding
    # bound of a 20-term dot product.
    bound = 20 * np.finfo(float).eps * (np.abs(X) @ np.abs(coefficients))
    assert np.all(np.abs(got - want) <= bound)


def test_linear_check_rejects_a_wrong_answer():
    truth = workloads.near_tied_pairs(4, 1, 1.0)
    good = {"selected": [{"feature": "x1", "coefficient": 1.0},
                         {"feature": "x2", "coefficient": 0.995}], "intercept": 0.0}
    assert workloads.check_linear(good, truth, 2) == []
    bad = {"selected": [{"feature": "x1", "coefficient": 1.0 + 1e-6},
                        {"feature": "x3", "coefficient": 0.0}], "intercept": 1e-6}
    assert len(workloads.check_linear(bad, truth, 2)) == 3


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    value, pct, n = run.tail([float(v) for v in range(11, 0, -1)])
    assert (value, n) == (1.0, 11) and pct == pytest.approx(100 / 11)
    value, pct, n = run.tail([float(v) for v in range(1, 101)])
    assert (value, pct, n) == (90.0, 90.0, 100)


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= workloads.WORKLOADS.keys()
