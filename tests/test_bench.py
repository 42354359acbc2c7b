"""Benchmark harness checks: Jaccard algebra, repetitions, reports."""

import json
import math
import threading
import time

import numpy as np
import pytest

from slime.bench import _jaccard as jaccard
from slime.bench import _lasso_ordering_experiment as lasso_ordering_experiment
from slime.bench import (ReproResult, explanation_to_dict,
                         explanations_to_jsonl, positionwise_stability,
                         repeat_explanations, report_to_csv,
                         report_to_markdown, reproduce_lasso_ordering)
from slime.errors import ValidationError
from slime.explainer import ExplainerConfig, Explanation
from slime.models import LinearModel, Model
from slime.sampling import InstanceSpec


# ----------------------------------------------------------------- jaccard

def test_jaccard_basic_values():
    assert jaccard(set(), set()) == 1.0
    assert jaccard({"a"}, {"a"}) == 1.0
    assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
    assert jaccard({"a"}, {"b"}) == 0.0
    assert jaccard({"a", "b"}, set()) == 0.0


def test_positionwise_stability_hand_computed():
    runs = [("a", "b", "c"), ("a", "c", "b"), ("b", "a", "c")]
    report = positionwise_stability(runs)
    values = dict(report.positions)
    # k=1: pairs (1, 0, 0); k=2: (1/3, 1, 1/3); k=3: identical sets
    assert values[1] == pytest.approx(1 / 3)
    assert values[2] == pytest.approx(5 / 9)
    assert values[3] == pytest.approx(1.0)
    assert report.reps == 3
    assert not report.incomplete
    assert report.ordering_histogram == (
        (("a", "b", "c"), 1), (("a", "c", "b"), 1), (("b", "a", "c"), 1))


def test_positionwise_stability_histogram_counts_orderings():
    runs = [("a", "b"), ("a", "b"), ("b", "a")]
    report = positionwise_stability(runs)
    assert report.ordering_histogram == ((("a", "b"), 2), (("b", "a"), 1))
    # order-insensitive metric: the sets agree everywhere
    assert dict(report.positions)[2] == pytest.approx(1.0)


def test_positionwise_stability_validation():
    with pytest.raises(ValidationError):
        positionwise_stability([("a", "b")])
    with pytest.raises(ValidationError, match="run 1"):
        positionwise_stability([("a", "b", "c"), ("a", "b")], k_max=3)
    with pytest.raises(ValidationError, match="run 0"):
        positionwise_stability([("a", "a", "b"), ("a", "b", "c")], k_max=2)
    with pytest.raises(ValidationError):
        positionwise_stability([(), ()])


# --------------------------------------------------------------- harnesses

class FlakyLinear(Model):
    """Linear model that raises ``error`` on chosen predict_batch call
    indices and takes ``delay`` seconds to answer the others."""

    def __init__(self, coefficients, fail_calls=(), error=RuntimeError, delay=0.0):
        self.inner = LinearModel(coefficients)
        self.input_dim = self.inner.input_dim
        self.fail_calls = set(fail_calls)
        self.error = error
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def predict_batch(self, X):
        with self._lock:
            call = self.calls
            self.calls += 1
        if call in self.fail_calls:
            raise self.error("injected outage")
        time.sleep(self.delay)
        return self.inner.predict_batch(X)


def fast_config(**kwargs):
    defaults = dict(n0=50, alpha=0.05, k=2, n_max=800, seed=0)
    defaults.update(kwargs)
    return ExplainerConfig(**defaults)


def test_repeat_explanations_is_reproducible_and_thread_safe():
    model = LinearModel([3.0, 1.0])
    instance = InstanceSpec(values=np.zeros(2))
    report1, runs1 = repeat_explanations(model, instance, fast_config(),
                                         reps=4, base_seed=5)
    report2, runs2 = repeat_explanations(model, instance, fast_config(),
                                         reps=4, base_seed=5)
    assert runs1 == runs2
    assert report1.positions == report2.positions
    report4, runs4 = repeat_explanations(model, instance, fast_config(),
                                         reps=4, base_seed=5, workers=3)
    assert runs4 == runs1
    # distinct repetitions use distinct derived seeds
    assert len({exp.seed for exp in runs1}) == 4


def test_repeat_explanations_writes_raw_jsonl(tmp_path):
    model = LinearModel([3.0, 1.0])
    instance = InstanceSpec(values=np.zeros(2))
    raw = tmp_path / "raw.jsonl"
    _, runs = repeat_explanations(model, instance, fast_config(), reps=3,
                                  base_seed=2)
    raw.write_text(explanations_to_jsonl(runs), encoding="utf-8")
    lines = raw.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    for line, explanation in zip(lines, runs):
        record = json.loads(line)
        assert record["final_n"] == explanation.final_n
        assert [s["feature"] for s in record["selected"]] == \
               list(explanation.feature_names)


def test_repeat_explanations_reports_partial_failures():
    # plain lime queries the model exactly once per repetition
    model = FlakyLinear([3.0, 1.0], fail_calls={1})
    instance = InstanceSpec(values=np.zeros(2))
    report, runs = repeat_explanations(model, instance, fast_config(),
                                       reps=3, base_seed=7, method="lime")
    assert report.incomplete
    assert len(report.failures) == 1 and "rep 1" in report.failures[0]
    assert len(runs) == 2


def test_repeat_explanations_needs_two_successes():
    model = FlakyLinear([3.0, 1.0], fail_calls={0, 1, 2})
    instance = InstanceSpec(values=np.zeros(2))
    with pytest.raises(ValidationError, match="fewer than 2"):
        repeat_explanations(model, instance, fast_config(), reps=3,
                            base_seed=7, method="lime")


def test_interrupting_a_pooled_bench_cancels_the_queued_repetitions():
    # An interrupt escapes on the first query.  Only the repetitions already
    # running (one per worker, plus one a worker picks up before the
    # interrupt reaches the caller) may still query the model; the rest of
    # the queue is cancelled instead of run.
    model = FlakyLinear([3.0, 1.0], fail_calls={0}, error=KeyboardInterrupt,
                        delay=0.2)
    instance = InstanceSpec(values=np.zeros(2))
    with pytest.raises(KeyboardInterrupt):
        repeat_explanations(model, instance, fast_config(), reps=8,
                            base_seed=7, method="lime", workers=2)
    assert model.calls <= 4


def test_repeat_explanations_validation():
    model = LinearModel([1.0, 1.0])
    instance = InstanceSpec(values=np.zeros(2))
    with pytest.raises(ValidationError):
        repeat_explanations(model, instance, fast_config(), reps=1, base_seed=0)
    with pytest.raises(ValidationError):
        repeat_explanations(model, instance, fast_config(), reps=2,
                            base_seed=0, method="shap")
    with pytest.raises(ValidationError):
        repeat_explanations(model, instance, fast_config(), reps=2,
                            base_seed=0, workers=0)
    # A negative base seed is refused before any repetition runs.
    with pytest.raises(ValidationError, match="seed must"):
        repeat_explanations(model, instance, fast_config(), reps=2, base_seed=-1)


# ------------------------------------------------------ ordering experiment

def test_ordering_experiment_frozen_histogram():
    histogram = lasso_ordering_experiment([1.0, 0.75, 0.7], n=1000,
                                          runs=500, seed=0)
    assert histogram == {("x1", "x2", "x3"): 408, ("x1", "x3", "x2"): 92}


def test_ordering_experiment_deterministic():
    a = lasso_ordering_experiment([1.0, 0.75, 0.7], n=1000, runs=50, seed=0)
    b = lasso_ordering_experiment([1.0, 0.75, 0.7], n=1000, runs=50, seed=0)
    c = lasso_ordering_experiment([1.0, 0.75, 0.7], n=1000, runs=50, seed=123)
    assert a == b
    assert a != c


def test_ordering_experiment_validation():
    with pytest.raises(ValidationError):
        lasso_ordering_experiment([1.0], n=100, runs=10, seed=0)
    with pytest.raises(ValidationError):
        lasso_ordering_experiment([1.0, 0.5], n=100, runs=0, seed=0)
    with pytest.raises(ValidationError):
        lasso_ordering_experiment([1.0, 0.5, 0.2], n=4, runs=10, seed=0)


# ----------------------------------------------------------------- reports

def test_report_to_csv_golden():
    report = positionwise_stability(
        [("a", "b", "c"), ("a", "c", "b"), ("b", "a", "c")])
    got = report_to_csv(report)
    assert got == ("position,avg_jaccard\n"
                   "1,0.3333333333333333\n"
                   "2,0.5555555555555555\n"
                   "3,1.0\n")


def test_report_to_markdown_golden():
    report = positionwise_stability(
        [("a", "b", "c"), ("a", "c", "b"), ("b", "a", "c")])
    got = report_to_markdown(report, title="avg J")
    assert got == ("| Position | avg J |\n"
                   "| --- | --- |\n"
                   "| 1 | 0.3333 |\n"
                   "| 2 | 0.5556 |\n"
                   "| 3 | 1.0000 |\n")


def test_explanation_to_dict_masks_non_finite_statistic():
    from slime.stability_testing import TestDecision

    decision = TestDecision(statistic_t=-math.inf, p_value=0.5,
                            significant=False, recommended_n=400,
                            compared=("x1", "x2"), n=100, step=1)
    explanation = Explanation(selected=(("x1", 1.25),), intercept=0.5,
                              final_n=100, capped=False,
                              test_trace=(decision,), seed=3)
    record = explanation_to_dict(explanation)
    assert record["selected"] == [{"feature": "x1", "coefficient": 1.25}]
    assert record["test_trace"][0]["statistic_t"] is None
    assert record["test_trace"][0]["p_value"] == 0.5
    # the record is json-serializable as-is
    json.dumps(record)


def test_explanations_to_jsonl_round_trip(tmp_path):
    explanation = Explanation(selected=(("x2", -0.5), ("x1", 2.0)),
                              intercept=1.0, final_n=200, capped=True,
                              test_trace=(), seed=9)
    path = tmp_path / "out.jsonl"
    path.write_text(explanations_to_jsonl([explanation, explanation]), encoding="utf-8")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert record["capped"] is True
    assert [s["coefficient"] for s in record["selected"]] == [-0.5, 2.0]


# ------------------------------------------------------------ reproduction

def test_reproduce_lasso_ordering_passes():
    result = reproduce_lasso_ordering()
    assert result.passed
    lines = result.summary_lines()
    assert lines[-1] == "PASS  lasso-ordering"
    assert all(line.startswith("PASS") for line in lines)


def test_repro_result_reports_failures():
    result = ReproResult(name="demo", passed=False,
                         checks=(("alpha", True, "ok"), ("beta", False, "off")))
    lines = result.summary_lines()
    assert lines[0] == "PASS  alpha: ok"
    assert lines[1] == "FAIL  beta: off"
    assert lines[-1] == "FAIL  demo"
