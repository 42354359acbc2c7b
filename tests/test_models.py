"""Model handle checks: builtins, expression grammar, external protocols."""

import csv
import io
import json
import math
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oracles import eval_linear, eval_mars
from slime import _float_text, models
from slime.errors import ModelQueryError, ValidationError
from slime.models import _ExpressionError as ExpressionError
from slime.models import _ExpressionModel as ExpressionModel
from slime.models import (MAX_ROWS_PER_REQUEST, BatchFileModel, LinearModel,
                          MarsModel, Model, SubprocessModel, parse_model_spec)

# deterministic nonlinear benchmark value, pinned to full double precision
MARS_AT_CENTER = 16.218846021489732


# ---------------------------------------------------------------- builtins

def test_eval_mars_frozen_values():
    assert eval_mars([0.51, 0.49, 0.5, 0.5, 0.5]) == pytest.approx(
        MARS_AT_CENTER, abs=1e-12)
    # each term can be isolated: sin of 0, square at its minimum, pure slopes
    assert eval_mars([0.0, 0.0, 0.05, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert eval_mars([0.5, 1.0, 0.05, 0.0, 0.0]) == pytest.approx(10.0, abs=1e-12)
    assert eval_mars([0.0, 0.0, 0.05, 1.0, 0.0]) == pytest.approx(5.2, abs=1e-12)
    assert eval_mars([0.0, 0.0, 0.05, 0.0, 2.0]) == pytest.approx(10.0, abs=1e-12)
    with pytest.raises(ValidationError):
        eval_mars([1.0, 2.0, 3.0])


def test_eval_linear():
    assert eval_linear([1.0, 1.0, 1.0], [1.0, 0.75, 0.7]) == pytest.approx(2.45)
    assert eval_linear([2.0], [3.0], intercept=1.0) == pytest.approx(7.0)
    with pytest.raises(ValidationError):
        eval_linear([1.0, 2.0], [1.0])


def test_mars_model_matches_scalar_eval():
    model = MarsModel()
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 5))
    got = model.predict_batch(X)
    want = [eval_mars(row) for row in X]
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert model.input_dim == 5


def test_model_input_validation():
    model = MarsModel()
    with pytest.raises(ValidationError):
        model.predict_batch(np.ones(5))
    with pytest.raises(ValidationError):
        model.predict_batch(np.ones((2, 4)))
    bad = np.ones((2, 5))
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        model.predict_batch(bad)


def test_linear_model():
    model = LinearModel([2.0, -1.0], intercept=0.5)
    got = model.predict_batch(np.array([[1.0, 1.0], [0.0, 2.0]]))
    np.testing.assert_allclose(got, [1.5, -1.5], atol=1e-15)
    with pytest.raises(ValidationError):
        LinearModel([])
    with pytest.raises(ValidationError):
        LinearModel([1.0, np.inf])
    with pytest.raises(ValidationError):
        LinearModel([1.0], intercept=np.nan)


def test_builtin_prediction_builds_no_mask_as_large_as_its_input():
    # The finiteness check scans a block of rows at a time, so the peak is
    # a few prediction vectors, not an n x p boolean mask; it still reaches
    # the last row.
    n, p = 50000, 50
    model = LinearModel(np.linspace(-1.0, 1.0, p))
    X = np.random.default_rng(0).normal(size=(n, p))
    tracemalloc.start()
    try:
        model.predict_batch(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n * p / 4, f"peak {peak} bytes for a {n}x{p} input"
    X[-1, -1] = np.inf
    with pytest.raises(ValidationError, match="finite"):
        model.predict_batch(X)


# ------------------------------------------------------------- expressions

def eval_expr(source, rows):
    return ExpressionModel(source).predict_batch(np.asarray(rows, dtype=float))


def test_expression_arithmetic_and_precedence():
    np.testing.assert_allclose(eval_expr("2 + 3 * x1", [[4.0]]), [14.0])
    np.testing.assert_allclose(eval_expr("(2 + 3) * x1", [[4.0]]), [20.0])
    np.testing.assert_allclose(eval_expr("x1 - x2 - 1", [[5.0, 2.0]]), [2.0])
    np.testing.assert_allclose(eval_expr("x1 / x2 / 2", [[8.0, 2.0]]), [2.0])
    np.testing.assert_allclose(eval_expr("x1 * .5", [[3.0]]), [1.5])
    np.testing.assert_allclose(eval_expr("1.5e2 + x1", [[1.0]]), [151.0])


def test_expression_power_is_right_associative():
    np.testing.assert_allclose(eval_expr("x1 ^ 3 ^ 2", [[2.0]]), [512.0])
    np.testing.assert_allclose(eval_expr("-x1 ^ 2", [[3.0]]), [-9.0])
    np.testing.assert_allclose(eval_expr("x1 ^ -1", [[4.0]]), [0.25])


def test_expression_functions():
    np.testing.assert_allclose(eval_expr("sin(x1)", [[math.pi / 2]]), [1.0],
                               atol=1e-15)
    np.testing.assert_allclose(eval_expr("cos(x1)", [[0.0]]), [1.0])
    np.testing.assert_allclose(eval_expr("exp(x1)", [[1.0]]),
                               [math.e], rtol=1e-15)
    got = eval_expr("10*sin(3.141592653589793*x1*x2) + 20*(x3 - 0.05)^2"
                    " + 5.2*x4 + 5*x5",
                    [[0.51, 0.49, 0.5, 0.5, 0.5]])
    assert got[0] == pytest.approx(MARS_AT_CENTER, abs=1e-10)


def test_expression_input_dim_is_largest_index():
    model = ExpressionModel("x3 + x1")
    assert model.input_dim == 3
    with pytest.raises(ValidationError):
        model.predict_batch(np.array([[1.0, 2.0]]))


def test_expression_takes_the_width_it_is_given():
    model = ExpressionModel("x1 + 0.5", input_dim=3)
    assert model.input_dim == 3
    np.testing.assert_allclose(
        model.predict_batch(np.array([[2.0, 9.0, 9.0]])), [2.5])
    with pytest.raises(ValidationError, match="x3"):
        ExpressionModel("x3 + x1", input_dim=2)
    # Its input is checked like every handle's: the width, then finiteness.
    for X in (np.ones((1, 2)), np.ones((1, 4)), np.array([[1.0, np.nan, 1.0]])):
        with pytest.raises(ValidationError):
            model.predict_batch(X)


def test_expression_errors_carry_columns():
    with pytest.raises(ExpressionError) as info:
        ExpressionModel("x1 $ x2")
    assert info.value.column == 4
    with pytest.raises(ExpressionError):
        ExpressionModel("x1 + ")
    with pytest.raises(ExpressionError):
        ExpressionModel("(x1 + 2")
    with pytest.raises(ExpressionError):
        ExpressionModel("foo(x1)")
    with pytest.raises(ExpressionError):
        ExpressionModel("x0 + 1")
    with pytest.raises(ExpressionError):
        ExpressionModel("2 + 2")        # references no feature
    with pytest.raises(ExpressionError):
        ExpressionModel("sin x1")
    with pytest.raises(ExpressionError, match="float range") as info:
        ExpressionModel("x1 + 1e400")   # a literal that reads as inf
    assert info.value.column == 6


def test_expression_nesting_bound_does_not_depend_on_the_stack():
    def from_depth(frames, source):
        return from_depth(frames - 1, source) if frames else models._compile(source)

    for source in ("(" * 150 + "x1" + ")" * 150, "-" * 900 + "x1",
                   "(" * 1000 + "x1" + ")" * 1000):
        assert from_depth(600, source) == models._compile(source)
    # The 1001st pending entry is refused, at its own column.
    for source in ("(" * 1001 + "x1" + ")" * 1001, "(" * 1000 + "-x1" + ")" * 1000):
        for frames in (0, 600):
            with pytest.raises(ExpressionError, match="nests too deeply") as info:
                from_depth(frames, source)
            assert info.value.column == 1001


def test_expression_applies_the_ufuncs_in_source_order():
    X = np.random.default_rng(2).normal(size=(40, 3))
    got = eval_expr("x1 - x2 * sin(x3) / x1 ^ 2 - -x2", X)
    x1, x2, x3 = X.T
    want = np.subtract(np.subtract(x1, np.divide(np.multiply(x2, np.sin(x3)),
                                                 np.power(x1, np.full(40, 2.0)))),
                       np.negative(x2))
    assert got.tobytes() == want.tobytes()


def test_expression_nonfinite_output_is_query_error():
    with pytest.raises(ModelQueryError):
        eval_expr("1 / x1", [[0.0]])
    with pytest.raises(ValidationError):
        eval_expr("x1", [[np.inf]])


# ------------------------------------------------------------- subprocess

CHILD_FIRST_COLUMN = """\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    out = [row[0] for row in req["instances"]]
    print(json.dumps({"predictions": out}), flush=True)
"""

CHILD_REQUEST_COUNTER = """\
import json, sys
k = 0
for line in sys.stdin:
    req = json.loads(line)
    k += 1
    print(json.dumps({"predictions": [k] * len(req["instances"])}), flush=True)
"""


def child_model(tmp_path, source, input_dim=2, name="child.py"):
    script = tmp_path / name
    script.write_text(source, encoding="utf-8")
    return SubprocessModel([sys.executable, str(script)], input_dim=input_dim)


def test_subprocess_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(37, 2)) * 1e3
    X[:3, 0] = [-0.0, 5e-324, 1e308]
    with child_model(tmp_path, CHILD_FIRST_COLUMN) as model:
        got = model.predict_batch(X)
    # repr-precision serialization makes the float round trip bit exact
    assert got.tobytes() == X[:, 0].tobytes()


def test_subprocess_batches_at_the_row_limit(tmp_path):
    assert MAX_ROWS_PER_REQUEST == 1000
    X = np.zeros((2500, 2))
    with child_model(tmp_path, CHILD_REQUEST_COUNTER) as model:
        got = model.predict_batch(X)
    # 2500 rows must travel as exactly three requests: 1000 + 1000 + 500
    values, counts = np.unique(got, return_counts=True)
    np.testing.assert_array_equal(values, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(counts, [1000, 1000, 500])


def test_subprocess_survives_close_and_restart(tmp_path):
    model = child_model(tmp_path, CHILD_FIRST_COLUMN)
    X = np.array([[1.5, 0.0], [2.5, 0.0]])
    np.testing.assert_array_equal(model.predict_batch(X), [1.5, 2.5])
    child = model._child
    model.close()
    model.close()      # idempotent
    assert_closed(child)
    np.testing.assert_array_equal(model.predict_batch(X), [1.5, 2.5])
    dead = model._child
    dead.kill()
    dead.wait()
    np.testing.assert_array_equal(model.predict_batch(X), [1.5, 2.5])
    assert_closed(dead)    # a dead child is closed before the restart
    child = model._child
    child.kill()
    model.close()
    assert_closed(child)   # closing reaps a child that died first


def assert_closed(child):
    assert child.stdin.closed and child.stdout.closed
    assert child.returncode is not None


@pytest.mark.parametrize("source,fragment", [
    ("import sys\nfor line in sys.stdin:\n    print('not json', flush=True)\n",
     "not valid JSON"),
    ("import json, sys\nfor line in sys.stdin:\n"
     "    print(json.dumps({'preds': []}), flush=True)\n",
     "lacks a 'predictions' field"),
    ("import json, sys\nfor line in sys.stdin:\n"
     "    print(json.dumps({'predictions': [1.0]}), flush=True)\n",
     "expected 3 predictions"),
    ("import json, sys\nfor line in sys.stdin:\n"
     "    print(json.dumps({'predictions': [float('nan')] * 3}), flush=True)\n",
     "non-finite"),
    ("import sys\nfor line in sys.stdin:\n"
     "    print('{\"predictions\": [1' + '0' * 400 + ', 0, 0]}', flush=True)\n",
     "non-numeric"),
    ("import sys\nsys.exit(0)\n", "closed its output"),
])
def test_subprocess_protocol_violations(tmp_path, source, fragment):
    X = np.zeros((3, 2))
    with child_model(tmp_path, source) as model:
        with pytest.raises(ModelQueryError, match=fragment) as info:
            model.predict_batch(X)
    assert info.value.batch_index == 0


def test_subprocess_undecodable_answer_is_a_query_error(tmp_path):
    source = ("import sys\nfor line in sys.stdin:\n"
              "    sys.stdout.buffer.write(b'\\xff\\n')\n    sys.stdout.flush()\n")
    with child_model(tmp_path, source) as model:
        with pytest.raises(ModelQueryError, match="not valid JSON") as info:
            model.predict_batch(np.zeros((3, 2)))
    assert info.value.batch_index == 0


CHILD_SECOND_ANSWER_NOT_NUMBERS = """\
import json, sys
for k, line in enumerate(sys.stdin):
    rows = len(json.loads(line)["instances"])
    print(json.dumps({"predictions": [1.0 if k == 0 else "x"] * rows}), flush=True)
"""


def test_subprocess_answer_that_is_not_numbers_names_its_request(tmp_path):
    with child_model(tmp_path, CHILD_SECOND_ANSWER_NOT_NUMBERS) as model:
        with pytest.raises(ModelQueryError, match="non-numeric") as info:
            model.predict_batch(np.zeros((MAX_ROWS_PER_REQUEST + 1, 2)))
    assert info.value.batch_index == 1
    assert info.value.payload_excerpt.startswith('{"predictions": ["x"]')


@pytest.mark.parametrize("value", ["'1.5'", "True", "False"])
def test_subprocess_answer_of_json_strings_or_booleans_is_not_numbers(tmp_path, value):
    source = ("import json, sys\nfor line in sys.stdin:\n"
              f"    print(json.dumps({{'predictions': [0.0, {value}, 0.0]}}), flush=True)\n")
    with child_model(tmp_path, source) as model:
        with pytest.raises(ModelQueryError, match="non-numeric") as info:
            model.predict_batch(np.zeros((3, 2)))
    assert info.value.batch_index == 0
    assert info.value.payload_excerpt.startswith('{"predictions": [0.0, ')


def test_subprocess_call_after_the_with_block_starts_no_child(tmp_path):
    with child_model(tmp_path, CHILD_FIRST_COLUMN) as model:
        np.testing.assert_array_equal(model.predict_batch(np.ones((2, 2))), [1.0, 1.0])
    with pytest.raises(ModelQueryError, match="closed for good"):
        model.predict_batch(np.ones((2, 2)))
    assert model._child is None


def test_subprocess_call_on_no_rows_starts_no_child():
    model = SubprocessModel(["/no/such/binary-here"], input_dim=2)
    got = model.predict_batch(np.empty((0, 2)))
    assert got.shape == (0,) and model._child is None


@pytest.mark.parametrize("rows", [1, MAX_ROWS_PER_REQUEST])
def test_subprocess_that_never_answers_is_killed(monkeypatch, rows):
    # One row fits the pipe, so the wait is for the answer; a full request
    # (about 180 KB) overfills the pipe, so the write itself waits.
    monkeypatch.setattr(models, "REQUEST_TIMEOUT_S", 1.0)
    model = SubprocessModel([sys.executable, "-c", "import time; time.sleep(100)"],
                            input_dim=10)
    child = model._ensure_child()
    threads = threading.active_count()
    start = time.monotonic()
    with pytest.raises(ModelQueryError, match="did not answer within 1 s") as info:
        model.predict_batch(np.full((rows, 10), 1 / 3))
    assert time.monotonic() - start < 10
    assert info.value.batch_index == 0
    assert_closed(child)
    assert model._child is None
    assert threading.active_count() == threads


CHILD_READS_TWO_BEFORE_ANSWERING = """\
import json, sys
def answer(line):
    out = [row[0] for row in json.loads(line)["instances"]]
    print(json.dumps({"predictions": out}), flush=True)
first, second = sys.stdin.readline(), sys.stdin.readline()
answer(first)
answer(second)
for line in sys.stdin:
    answer(line)
"""


def test_subprocess_requests_overlap_the_answers(monkeypatch, tmp_path):
    # The child answers request 0 only once request 1 has arrived, so a
    # caller that waits for each answer before it writes the next request
    # waits until the timeout.
    monkeypatch.setattr(models, "REQUEST_TIMEOUT_S", 2.0)
    X = np.arange(5000.0).reshape(2500, 2)
    with child_model(tmp_path, CHILD_READS_TWO_BEFORE_ANSWERING) as model:
        got = model.predict_batch(X)
    np.testing.assert_array_equal(got, X[:, 0])


def test_subprocess_large_requests_and_answers_cannot_deadlock(monkeypatch, tmp_path):
    # Requests (about 180 KB) and answers (over 64 KB of padding) each
    # overfill a pipe buffer: writing request i + 1 before reading answer i
    # on one thread would leave parent and child both blocked on a write.
    monkeypatch.setattr(models, "REQUEST_TIMEOUT_S", 10.0)
    padded = CHILD_FIRST_COLUMN.replace(
        '{"predictions": out}', '{"predictions": out, "padding": "x" * 70000}')
    X = np.full((3 * MAX_ROWS_PER_REQUEST, 10), 1 / 3)
    X[:, 0] = np.arange(X.shape[0])
    start = time.monotonic()
    with child_model(tmp_path, padded, input_dim=10) as model:
        got = model.predict_batch(X)
    assert time.monotonic() - start < 10
    np.testing.assert_array_equal(got, X[:, 0])


CHILD_BAD_SECOND_ANSWER = """\
import json, sys
for k, line in enumerate(sys.stdin):
    out = [row[0] for row in json.loads(line)["instances"]]
    print(json.dumps({"predictions": out}) if k == 0 else "not json", flush=True)
"""


def test_subprocess_failed_request_closes_the_child(tmp_path):
    model = child_model(tmp_path, CHILD_BAD_SECOND_ANSWER)
    X = np.arange(3000.0).reshape(1500, 2)
    threads = threading.active_count()
    first = model._ensure_child()
    with pytest.raises(ModelQueryError, match="not valid JSON") as info:
        model.predict_batch(X)
    assert info.value.batch_index == 1
    assert model._child is None
    assert_closed(first)
    assert threading.active_count() == threads
    # the next call starts a fresh child, whose first answer is good
    np.testing.assert_array_equal(model.predict_batch(X[:10]), X[:10, 0])
    assert model._child.pid != first.pid
    model.close()


def test_subprocess_output_past_an_answer_is_the_next_answer(tmp_path):
    # The pipe is one stream: a line written past the last answer of one
    # call is not dropped but read as the first answer of the next.
    extra = CHILD_FIRST_COLUMN.replace(
        'print(json.dumps({"predictions": out}), flush=True)',
        'print(json.dumps({"predictions": out}), flush=True)\n'
        '    print(json.dumps({"predictions": [-1.0] * len(out)}), flush=True)')
    X = np.array([[1.5, 0.0], [2.5, 0.0]])
    with child_model(tmp_path, extra) as model:
        np.testing.assert_array_equal(model.predict_batch(X), [1.5, 2.5])
        time.sleep(0.2)   # let the extra line arrive
        np.testing.assert_array_equal(model.predict_batch(X), [-1.0, -1.0])


def test_subprocess_encoding_error_propagates_and_closes_the_child(monkeypatch, tmp_path):
    class EncodeFailure(Exception):
        pass

    failure = EncodeFailure("second request")
    encode, calls = _float_text.float_text, []

    def failing_encode(*args):
        calls.append(1)
        if len(calls) == 2:
            raise failure
        return encode(*args)

    model = child_model(tmp_path, CHILD_FIRST_COLUMN)
    child = model._ensure_child()
    threads = threading.active_count()
    monkeypatch.setattr(_float_text, "float_text", failing_encode)
    with pytest.raises(EncodeFailure) as info:
        model.predict_batch(np.zeros((2500, 2)))
    monkeypatch.undo()
    assert info.value is failure
    assert model._child is None
    assert_closed(child)
    assert threading.active_count() == threads


def test_subprocess_that_answers_before_reading_is_killed(monkeypatch, tmp_path):
    # An answer that comes before its request leaves the full request to
    # wait on a pipe no one reads: the write is bounded by the timeout too.
    monkeypatch.setattr(models, "REQUEST_TIMEOUT_S", 1.0)
    early = ('import json, time\nprint(json.dumps({"predictions": []}), flush=True)\n'
             'time.sleep(100)\n')
    model = child_model(tmp_path, early, input_dim=10)
    child = model._ensure_child()
    start = time.monotonic()
    with pytest.raises(ModelQueryError, match="did not answer within 1 s") as info:
        model.predict_batch(np.full((MAX_ROWS_PER_REQUEST, 10), 1 / 3))
    assert time.monotonic() - start < 10
    assert info.value.batch_index == 0
    assert_closed(child)


def test_subprocess_timeout_kills_what_the_child_started(monkeypatch):
    # "; true" keeps sh from exec'ing sleep, so sleep is sh's own child and
    # holds sh's stdout open: killing sh alone leaves the read waiting 6 s.
    monkeypatch.setattr(models, "REQUEST_TIMEOUT_S", 1.0)
    model = SubprocessModel(["sh", "-c", "sleep 6; true"], input_dim=2)
    child = model._ensure_child()
    start = time.monotonic()
    with pytest.raises(ModelQueryError, match="did not answer within 1 s"):
        model.predict_batch(np.zeros((1, 2)))
    assert time.monotonic() - start < 4
    assert_closed(child)
    assert model._child is None


def test_subprocess_call_starts_no_thread(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("predict_batch started a thread")

    X = np.random.default_rng(8).normal(size=(2500, 2))
    with child_model(tmp_path, CHILD_FIRST_COLUMN) as model:
        monkeypatch.setattr(threading.Thread, "start", refuse)
        got = model.predict_batch(X)
        monkeypatch.undo()
    assert got.tobytes() == X[:, 0].tobytes()


def predict_concurrently(model, inputs):
    """``model.predict_batch`` of each input, one thread each, started together."""
    barrier = threading.Barrier(len(inputs))

    def call(X):
        barrier.wait()
        return model.predict_batch(X)

    with ThreadPoolExecutor(len(inputs)) as pool:
        return list(pool.map(call, inputs))


def test_subprocess_concurrent_callers_get_their_own_answers(tmp_path):
    # Each caller's three requests and answers must not interleave with the
    # other caller's on the one child.
    inputs = [np.arange(5000.0).reshape(2500, 2), -np.arange(1.0, 5001.0).reshape(2500, 2)]
    with child_model(tmp_path, CHILD_FIRST_COLUMN) as model:
        got = predict_concurrently(model, inputs)
    for X, out in zip(inputs, got):
        np.testing.assert_array_equal(out, X[:, 0])


def test_subprocess_missing_command():
    model = SubprocessModel(["/no/such/binary-here"], input_dim=2)
    with pytest.raises(ModelQueryError, match="could not start"):
        model.predict_batch(np.zeros((1, 2)))


def test_subprocess_validation():
    with pytest.raises(ValidationError):
        SubprocessModel([], input_dim=2)
    with pytest.raises(ValidationError):
        SubprocessModel(["cat"], input_dim=0)


# ------------------------------------------------------- request encoding

def json_request(X):
    return _float_text.float_text(X, b'{"instances": [[', b", ", b"], [", b"]]}\n")


def assert_encodes_like_json(X):
    assert json_request(X) == json.dumps({"instances": X.tolist()}).encode() + b"\n"


def edge_corpus():
    """About 240k finite doubles whose shortest digits or layout are hard
    to get right."""
    rng = np.random.default_rng(22)
    patterns = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(float)
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([10.0 ** k for k in range(-323, 309)])
    subnormals = np.arange(1, 4001, dtype=np.uint64).view(float)
    integers = np.concatenate([np.arange(10_000.0), 2.0**53 - np.arange(10_000.0),
                               rng.integers(0, 2**53, size=10_000).astype(float)])
    scaled = rng.uniform(1, 10, size=10_000) * 10.0 ** rng.integers(-8, 19, size=10_000)
    values = np.concatenate([patterns, powers_of_two, powers_of_ten, subnormals,
                             integers, scaled, [0.0, -0.0, 1e16, 1e-4, 1e-5]])
    values = values[np.isfinite(values)]
    return values * np.where(np.arange(values.size) % 3 == 0, -1.0, 1.0)


def test_requests_are_the_bytes_json_dumps_writes_on_the_edge_corpus():
    values = edge_corpus()
    rows = values.size // 7
    assert_encodes_like_json(values[:rows * 7].reshape(rows, 7))


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (1000, 20)])
def test_requests_are_the_bytes_json_dumps_writes_on_every_shape(shape):
    rng = np.random.default_rng(sum(shape))
    assert_encodes_like_json(rng.normal(size=shape) * 10.0 ** rng.integers(-6, 20, size=shape))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=30),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_requests_are_the_bytes_json_dumps_writes_on_any_finite_rows(X):
    assert_encodes_like_json(X)


# -------------------------------------------------------------- batch file

BATCH_FIRST_COLUMN = """\
import csv, sys
request, response = sys.argv[1], sys.argv[2]
with open(request, newline="") as fh:
    rows = list(csv.DictReader(fh))
with open(response, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["prediction"])
    for row in rows:
        writer.writerow([row["x1"]])
"""


def batch_model(tmp_path, source, input_dim=2):
    script = tmp_path / "batch.py"
    script.write_text(source, encoding="utf-8")
    request = tmp_path / "request.csv"
    response = tmp_path / "response.csv"
    command = [sys.executable, str(script), str(request), str(response)]
    return BatchFileModel(command, request, response, input_dim=input_dim)


def test_batch_file_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(13)
    X = rng.normal(size=(25, 2)) / 3.0
    model = batch_model(tmp_path, BATCH_FIRST_COLUMN)
    np.testing.assert_array_equal(model.predict_batch(X), X[:, 0])
    # a second call rewrites the request file and works again
    np.testing.assert_array_equal(model.predict_batch(X[:5]), X[:5, 0])


def test_batch_file_request_is_the_bytes_csv_writer_writes(tmp_path):
    X = np.array([[0.0, -0.0, 5e-324], [1e16, 1e-5, 1e300], [-1.5, 0.1, 123456.789]])
    model = batch_model(tmp_path, BATCH_FIRST_COLUMN, input_dim=3)
    model.predict_batch(X)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["x1", "x2", "x3"])
    for row in X:
        writer.writerow([repr(float(v)) for v in row])
    assert model.request_path.read_bytes() == expected.getvalue().encode()


def test_batch_file_missing_prediction_column(tmp_path):
    bad = BATCH_FIRST_COLUMN.replace('["prediction"]', '["output"]')
    model = batch_model(tmp_path, bad)
    with pytest.raises(ModelQueryError, match="prediction"):
        model.predict_batch(np.zeros((2, 2)))


def test_batch_file_wrong_row_count(tmp_path):
    bad = BATCH_FIRST_COLUMN.replace("for row in rows:", "for row in rows[:-1]:")
    model = batch_model(tmp_path, bad)
    with pytest.raises(ModelQueryError, match="expected 3"):
        model.predict_batch(np.zeros((3, 2)))


def test_batch_file_non_numeric_prediction(tmp_path):
    bad = BATCH_FIRST_COLUMN.replace('row["x1"]', '"broken"')
    model = batch_model(tmp_path, bad)
    with pytest.raises(ModelQueryError, match="non-numeric"):
        model.predict_batch(np.zeros((2, 2)))


def test_batch_file_response_that_is_not_utf8(tmp_path):
    bad = "import sys\nopen(sys.argv[2], 'wb').write(b'prediction\\n\\xff\\n\\xff\\n')\n"
    model = batch_model(tmp_path, bad)
    with pytest.raises(ModelQueryError, match="could not read response file"):
        model.predict_batch(np.zeros((2, 2)))


def test_batch_file_command_failure(tmp_path):
    bad = "import sys\nsys.stderr.write('boom')\nsys.exit(3)\n"
    model = batch_model(tmp_path, bad)
    with pytest.raises(ModelQueryError, match="status 3"):
        model.predict_batch(np.zeros((2, 2)))


def test_batch_file_command_that_never_finishes_is_killed(monkeypatch, tmp_path):
    # sh writes its pid and becomes sleep: one child, whose pid is known.
    monkeypatch.setattr(models, "REQUEST_TIMEOUT_S", 1.0)
    pid_path = tmp_path / "pid"
    command = ["sh", "-c", 'echo $$ > "$0"; exec sleep 30', str(pid_path)]
    model = BatchFileModel(command, tmp_path / "request.csv",
                           tmp_path / "response.csv", input_dim=2)
    start = time.monotonic()
    with pytest.raises(ModelQueryError, match="did not finish within 1 s"):
        model.predict_batch(np.zeros((2, 2)))
    assert time.monotonic() - start < 10
    with pytest.raises(ProcessLookupError):
        os.killpg(int(pid_path.read_text()), 0)


def test_batch_file_concurrent_callers_get_their_own_answers(tmp_path):
    # The command reads the request only after 0.2 s: without a lock, the
    # second caller's request overwrites the first caller's in the meantime.
    slow = "import time\ntime.sleep(0.2)\n" + BATCH_FIRST_COLUMN
    model = batch_model(tmp_path, slow)
    inputs = [np.full((3, 2), 1.0), np.full((3, 2), 2.0)]
    for X, out in zip(inputs, predict_concurrently(model, inputs)):
        np.testing.assert_array_equal(out, X[:, 0])


def test_batch_file_validation(tmp_path):
    with pytest.raises(ValidationError):
        BatchFileModel([], tmp_path / "a", tmp_path / "b", input_dim=1)
    with pytest.raises(ValidationError):
        BatchFileModel(["cmd"], tmp_path / "a", tmp_path / "b", input_dim=0)


# -------------------------------------------------------------- spec forms

def test_parse_model_spec_builtins():
    model = parse_model_spec("builtin:mars", input_dim=5)
    assert isinstance(model, MarsModel)
    with pytest.raises(ValidationError):
        parse_model_spec("builtin:mars", input_dim=4)

    linear = parse_model_spec("builtin:linear:1,0.75,0.7", input_dim=3)
    assert isinstance(linear, LinearModel)
    np.testing.assert_allclose(linear.coefficients, [1.0, 0.75, 0.7])
    with pytest.raises(ValidationError):
        parse_model_spec("builtin:linear:1,2", input_dim=3)
    with pytest.raises(ValidationError):
        parse_model_spec("builtin:linear:1,zap", input_dim=2)
    with pytest.raises(ValidationError):
        parse_model_spec("builtin:linear:", input_dim=1)


def test_parse_model_spec_expression_widens_input_dim():
    model = parse_model_spec("expr:x1 + 0.5", input_dim=4)
    assert isinstance(model, ExpressionModel)
    assert model.input_dim == 4
    np.testing.assert_allclose(
        model.predict_batch(np.array([[2.0, 9.0, 9.0, 9.0]])), [2.5])
    with pytest.raises(ValidationError):
        parse_model_spec("expr:x5", input_dim=3)


def test_parse_model_spec_exec_and_unknown():
    model = parse_model_spec("exec:python3 -u serve.py --flag", input_dim=2)
    assert isinstance(model, SubprocessModel)
    assert model.command == ("python3", "-u", "serve.py", "--flag")
    with pytest.raises(ValidationError):
        parse_model_spec("magic:stuff", input_dim=2)


def test_model_context_manager_closes():
    closed = []

    class Probe(Model):
        input_dim = 1

        def close(self):
            closed.append(True)

    with Probe():
        pass
    assert closed == [True]
