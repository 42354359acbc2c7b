"""Model handle checks: builtins, expression grammar, external protocols."""

import math
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest

from oracles import eval_linear, eval_mars
from slime import models
from slime.errors import ModelQueryError, ValidationError
from slime.models import (MAX_ROWS_PER_REQUEST, BatchFileModel,
                          ExpressionError, ExpressionModel, LinearModel,
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
    # extra trailing columns are accepted and ignored
    got = model.predict_batch(np.array([[1.0, 99.0, 2.0, 7.0]]))
    np.testing.assert_allclose(got, [3.0])
    with pytest.raises(ValidationError):
        model.predict_batch(np.array([[1.0, 2.0]]))


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
    ("import sys\nsys.exit(0)\n", "closed its output"),
])
def test_subprocess_protocol_violations(tmp_path, source, fragment):
    X = np.zeros((3, 2))
    with child_model(tmp_path, source) as model:
        with pytest.raises(ModelQueryError, match=fragment) as info:
            model.predict_batch(X)
    assert info.value.batch_index == 0


@pytest.mark.parametrize("rows", [1, MAX_ROWS_PER_REQUEST])
def test_subprocess_that_never_answers_is_killed(monkeypatch, rows):
    # One row fits the pipe, so the wait is for the answer; a full request
    # (about 180 KB) overfills the pipe, so the write itself waits.
    monkeypatch.setattr(models, "REQUEST_TIMEOUT_S", 1.0)
    model = SubprocessModel([sys.executable, "-c", "import time; time.sleep(100)"],
                            input_dim=10)
    child = model._ensure_child()
    start = time.monotonic()
    with pytest.raises(ModelQueryError, match="did not answer within 1 s") as info:
        model.predict_batch(np.full((rows, 10), 1 / 3))
    assert time.monotonic() - start < 10
    assert info.value.batch_index == 0
    assert_closed(child)
    assert model._child is None


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


def test_subprocess_missing_command():
    model = SubprocessModel(["/no/such/binary-here"], input_dim=2)
    with pytest.raises(ModelQueryError, match="could not start"):
        model.predict_batch(np.zeros((1, 2)))


def test_subprocess_validation():
    with pytest.raises(ValidationError):
        SubprocessModel([], input_dim=2)
    with pytest.raises(ValidationError):
        SubprocessModel(["cat"], input_dim=0)


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
