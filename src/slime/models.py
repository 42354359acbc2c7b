"""Black-box model handles: builtins, arithmetic expressions, external processes.

Every handle exposes ``input_dim`` and ``predict_batch(X) -> predictions``.
Builtins are vectorized numpy; external models speak one of two protocols:

* line-delimited JSON over stdin/stdout, one request object
  ``{"instances": [[...], ...]}`` per line (at most 1000 rows each) answered
  by one ``{"predictions": [...]}`` line, or
* a batch-file handshake: the rows are written as CSV to a request path, the
  command is invoked once, and predictions are read back from a response CSV
  with a single ``prediction`` column.

Floats are serialized with ``repr``-level precision so a numeric round trip
through either protocol is exact.
"""

from __future__ import annotations

import csv
import json
import os
import re
import shlex
import signal
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ModelQueryError, ValidationError
from .weighted_lars import all_finite

__all__ = [
    "Model",
    "MarsModel",
    "LinearModel",
    "ExpressionModel",
    "ExpressionError",
    "SubprocessModel",
    "BatchFileModel",
    "parse_model_spec",
    "MAX_ROWS_PER_REQUEST",
]

MAX_ROWS_PER_REQUEST = 1000
_EXCERPT_LEN = 300
# Seconds an ``exec:`` child may take to read one request and answer it,
# and a batch-file command to finish.  A child that takes longer is killed,
# so a model that never answers fails the run instead of hanging it.
REQUEST_TIMEOUT_S = 60.0


class Model:
    """Minimal interface every model handle implements."""

    input_dim: int

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def close(self) -> None:
        """Release any external resources.  Safe to call more than once."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _as_matrix(X: np.ndarray, input_dim: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValidationError("prediction input must be a 2-d array")
    if X.shape[1] != input_dim:
        raise ValidationError(
            f"model expects {input_dim} features per row, got {X.shape[1]}")
    if not all_finite(X):
        raise ValidationError("prediction input must be finite")
    return X


class MarsModel(Model):
    """Noise-free nonlinear benchmark with known local behavior:
    ``10 sin(pi x1 x2) + 20 (x3 - 0.05)^2 + 5.2 x4 + 5 x5``."""

    input_dim = 5

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = _as_matrix(X, self.input_dim)
        return (10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
                + 20.0 * (X[:, 2] - 0.05) ** 2
                + 5.2 * X[:, 3] + 5.0 * X[:, 4])


class LinearModel(Model):
    def __init__(self, coefficients: Sequence[float], intercept: float = 0.0):
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.coefficients.ndim != 1 or self.coefficients.size < 1:
            raise ValidationError("coefficients must be a non-empty vector")
        if not np.isfinite(self.coefficients).all() or not np.isfinite(intercept):
            raise ValidationError("coefficients and intercept must be finite")
        self.intercept = float(intercept)
        self.input_dim = self.coefficients.size

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = _as_matrix(X, self.input_dim)
        return X @ self.coefficients + self.intercept


# --------------------------------------------------------------------------
# Arithmetic expression models
#
#   expr   := term (('+' | '-') term)*
#   term   := unary (('*' | '/') unary)*
#   unary  := '-' unary | power
#   power  := atom ('^' unary)?          right associative
#   atom   := NUMBER | xN | (sin|cos|exp) '(' expr ')' | '(' expr ')'
#
# Features are written x1, x2, ... (1-based).  Errors report the 1-based
# column of the offending character.
# --------------------------------------------------------------------------

class ExpressionError(ValidationError):
    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])")

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        if source[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ExpressionError(f"unexpected character {source[pos]!r}", pos + 1)
        kind = match.lastgroup
        tokens.append((kind, match.group(), pos + 1))
        pos = match.end()
    tokens.append(("end", "", len(source) + 1))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.max_index = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op: str):
        kind, text, col = self.peek()
        if kind != "op" or text != op:
            raise ExpressionError(f"expected {op!r}", col)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, text, col = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected token {text!r}", col)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = ("bin", text, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = ("bin", text, node, self.unary())
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return ("bin", "^", node, self.unary())
        return node

    def atom(self):
        kind, text, col = self.advance()
        if kind == "num":
            return ("num", float(text))
        if kind == "name":
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", text, arg)
            feature = re.fullmatch(r"x(\d+)", text)
            if feature:
                index = int(feature.group(1))
                if index < 1:
                    raise ExpressionError("feature indices start at x1", col)
                self.max_index = max(self.max_index, index)
                return ("var", index - 1)
            raise ExpressionError(f"unknown name {text!r}", col)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {text or 'end of input'!r}", col)


def _eval_node(node, X: np.ndarray) -> np.ndarray:
    tag = node[0]
    if tag == "num":
        return np.full(X.shape[0], node[1])
    if tag == "var":
        return X[:, node[1]]
    if tag == "neg":
        return -_eval_node(node[1], X)
    if tag == "call":
        return _FUNCTIONS[node[1]](_eval_node(node[2], X))
    _, op, left, right = node
    a = _eval_node(left, X)
    b = _eval_node(right, X)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        with np.errstate(divide="ignore", invalid="ignore"):
            return a / b
    with np.errstate(invalid="ignore", over="ignore"):
        return np.power(a, b)


class ExpressionModel(Model):
    """Model defined by an arithmetic expression over features x1..xp.

    ``input_dim`` is the largest feature index that appears; prediction input
    may carry extra trailing features, which are ignored.
    """

    def __init__(self, source: str):
        self.source = source
        parser = _Parser(source)
        self._ast = parser.parse()
        if parser.max_index == 0:
            raise ExpressionError("expression references no feature", 1)
        self.input_dim = parser.max_index

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValidationError("prediction input must be a 2-d array")
        if X.shape[1] < self.input_dim:
            raise ValidationError(
                f"expression uses x{self.input_dim} but input has {X.shape[1]} features")
        if not all_finite(X):
            raise ValidationError("prediction input must be finite")
        out = np.asarray(_eval_node(self._ast, X), dtype=float)
        if not np.isfinite(out).all():
            raise ModelQueryError("expression produced a non-finite prediction")
        return out


# --------------------------------------------------------------------------
# External models
# --------------------------------------------------------------------------

def _excerpt(text: str) -> str:
    text = text.strip()
    return text if len(text) <= _EXCERPT_LEN else text[:_EXCERPT_LEN] + "..."


class SubprocessModel(Model):
    """Child process answering line-delimited JSON prediction requests.

    The child is started lazily and kept alive across calls; one request is
    in flight at a time (a lock serializes concurrent callers).  Requests
    carry at most :data:`MAX_ROWS_PER_REQUEST` rows each.  The child leads a
    process group of its own, and a kill reaches the whole group: a process
    the child started cannot keep its output open past a timeout.
    """

    def __init__(self, command: Sequence[str], input_dim: int):
        if not command:
            raise ValidationError("subprocess model needs a non-empty command")
        if input_dim < 1:
            raise ValidationError("input_dim must be at least 1")
        self.command = tuple(command)
        self.input_dim = int(input_dim)
        self._child: subprocess.Popen | None = None
        self._lock = threading.Lock()

    def _ensure_child(self) -> subprocess.Popen:
        if self._child is not None and self._child.poll() is not None:
            self.close()   # reap the dead child and close its pipes
        if self._child is None:
            try:
                self._child = subprocess.Popen(
                    self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True, bufsize=1, start_new_session=True)
            except OSError as exc:
                raise ModelQueryError(f"could not start model process: {exc}") from exc
        return self._child

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = _as_matrix(X, self.input_dim)
        chunks = []
        with self._lock:
            for batch_index, start in enumerate(range(0, X.shape[0], MAX_ROWS_PER_REQUEST)):
                rows = X[start:start + MAX_ROWS_PER_REQUEST]
                chunks.append(self._request(rows, batch_index))
        return np.concatenate(chunks) if chunks else np.empty(0)

    def _request(self, rows: np.ndarray, batch_index: int) -> np.ndarray:
        child = self._ensure_child()
        # tolist() yields Python floats, which json.dumps writes at repr
        # precision (17 significant digits when needed): exact round trip.
        payload = json.dumps({"instances": rows.tolist()})
        # The watchdog covers the write too: a request larger than the pipe
        # buffer blocks until the child reads it.  Killing the child's
        # process group ends either wait, with a broken pipe or end of file.
        expired = threading.Event()

        def expire():
            expired.set()
            _kill_group(child)

        watchdog = threading.Timer(REQUEST_TIMEOUT_S, expire)
        watchdog.start()
        try:
            child.stdin.write(payload + "\n")
            child.stdin.flush()
            line = child.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            if not expired.is_set():
                raise ModelQueryError(
                    f"model process pipe failed: {exc}", batch_index=batch_index) from exc
        finally:
            watchdog.cancel()
            watchdog.join()
        if expired.is_set():
            self.close()
            raise ModelQueryError(
                f"model process did not answer within {REQUEST_TIMEOUT_S:g} s; killed it",
                batch_index=batch_index)
        if not line:
            raise ModelQueryError(
                "model process closed its output before answering",
                batch_index=batch_index)
        try:
            reply = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ModelQueryError(
                f"model reply is not valid JSON: {exc}",
                batch_index=batch_index, payload_excerpt=_excerpt(line)) from exc
        if not isinstance(reply, dict) or "predictions" not in reply:
            raise ModelQueryError(
                "model reply lacks a 'predictions' field",
                batch_index=batch_index, payload_excerpt=_excerpt(line))
        predictions = np.asarray(reply["predictions"], dtype=float)
        if predictions.ndim != 1 or predictions.shape[0] != rows.shape[0]:
            raise ModelQueryError(
                f"expected {rows.shape[0]} predictions, got shape {predictions.shape}",
                batch_index=batch_index, payload_excerpt=_excerpt(line))
        if not np.isfinite(predictions).all():
            raise ModelQueryError(
                "model returned non-finite predictions",
                batch_index=batch_index, payload_excerpt=_excerpt(line))
        return predictions

    def close(self) -> None:
        child, self._child = self._child, None
        if child is None:
            return
        try:
            child.stdin.close()   # EOF asks a live child to exit
        except BrokenPipeError:
            pass                  # the child is gone; the pipe is closed anyway
        try:
            child.wait(timeout=5)
        except subprocess.TimeoutExpired:
            _kill_group(child)
            child.wait()
        child.stdout.close()


def _kill_group(child: subprocess.Popen) -> None:
    """SIGKILL the process group that ``child``, not yet reaped, leads."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass   # every process of the group has exited


class BatchFileModel(Model):
    """One-shot file handshake: write request CSV, run command, read response.

    The response file must be a CSV whose header contains a ``prediction``
    column with one row per requested instance.  The command runs in a
    process group of its own, which is killed if it runs longer than
    :data:`REQUEST_TIMEOUT_S`.
    """

    def __init__(self, command: Sequence[str], request_path: str | Path,
                 response_path: str | Path, input_dim: int):
        if not command:
            raise ValidationError("batch-file model needs a non-empty command")
        if input_dim < 1:
            raise ValidationError("input_dim must be at least 1")
        self.command = tuple(command)
        self.request_path = Path(request_path)
        self.response_path = Path(response_path)
        self.input_dim = int(input_dim)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = _as_matrix(X, self.input_dim)
        with open(self.request_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j + 1}" for j in range(self.input_dim)])
            for row in X:
                writer.writerow([repr(float(v)) for v in row])
        try:
            child = subprocess.Popen(
                self.command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, start_new_session=True)
        except OSError as exc:
            raise ModelQueryError(f"could not run batch model command: {exc}") from exc
        # A kill on expiry reaches the whole group, so a process the command
        # started cannot hold its output open and keep the wait going.
        with child:
            try:
                stdout, stderr = child.communicate(timeout=REQUEST_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                _kill_group(child)
                child.communicate()
                raise ModelQueryError(
                    f"batch model command did not finish within {REQUEST_TIMEOUT_S:g} s;"
                    " killed it") from None
            except BaseException:   # an interrupt: leave no process behind
                _kill_group(child)
                raise
        if child.returncode != 0:
            raise ModelQueryError(
                f"batch model command exited with status {child.returncode}",
                payload_excerpt=_excerpt(stderr or stdout))
        try:
            with open(self.response_path, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None or "prediction" not in reader.fieldnames:
                    raise ModelQueryError(
                        "response CSV lacks a 'prediction' column",
                        payload_excerpt=_excerpt(",".join(reader.fieldnames or [])))
                values = [row["prediction"] for row in reader]
        except OSError as exc:
            raise ModelQueryError(f"could not read response file: {exc}") from exc
        try:
            predictions = np.asarray([float(v) for v in values], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ModelQueryError(
                f"response CSV holds a non-numeric prediction: {exc}",
                payload_excerpt=_excerpt("\n".join(map(str, values[:5])))) from exc
        if predictions.shape[0] != X.shape[0]:
            raise ModelQueryError(
                f"expected {X.shape[0]} predictions, response has {predictions.shape[0]}")
        if not np.isfinite(predictions).all():
            raise ModelQueryError("response CSV holds non-finite predictions")
        return predictions


def parse_model_spec(spec: str, input_dim: int) -> Model:
    """Build a model handle from a CLI-style spec string.

    Recognized forms: ``builtin:mars``, ``builtin:linear:c1,c2,...``,
    ``expr:<expression>``, ``exec:<command line>``.
    """
    if spec == "builtin:mars":
        model = MarsModel()
        if input_dim != model.input_dim:
            raise ValidationError(
                f"builtin:mars expects {model.input_dim} features, instance has {input_dim}")
        return model
    if spec.startswith("builtin:linear:"):
        text = spec[len("builtin:linear:"):]
        try:
            coefficients = [float(v) for v in text.split(",") if v != ""]
        except ValueError as exc:
            raise ValidationError(f"bad linear coefficients {text!r}: {exc}") from None
        if not coefficients:
            raise ValidationError("builtin:linear needs at least one coefficient")
        model = LinearModel(coefficients)
        if input_dim != model.input_dim:
            raise ValidationError(
                f"builtin:linear has {model.input_dim} coefficients, instance has {input_dim}")
        return model
    if spec.startswith("expr:"):
        model = ExpressionModel(spec[len("expr:"):])
        if model.input_dim > input_dim:
            raise ValidationError(
                f"expression uses x{model.input_dim}, instance has only {input_dim} features")
        # The expression may touch only a prefix of the features: widen so the
        # handle accepts and ignores the rest of the instance's columns.
        model.input_dim = input_dim
        return model
    if spec.startswith("exec:"):
        command = shlex.split(spec[len("exec:"):])
        return SubprocessModel(command, input_dim=input_dim)
    raise ValidationError(
        f"unrecognized model spec {spec!r}; expected builtin:mars, "
        "builtin:linear:..., expr:..., or exec:...")
