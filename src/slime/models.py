"""Black-box model handles: builtins, arithmetic expressions, external processes.

Every handle exposes ``input_dim``, the instance's width, and
``predict_batch(X) -> predictions`` on rows of exactly that many finite
features.  Builtins are vectorized numpy; external models speak one of two
protocols:

* line-delimited JSON over stdin/stdout, one request object
  ``{"instances": [[...], ...]}`` per line (at most 1000 rows each) answered
  by one ``{"predictions": [...]}`` line, or
* a batch-file handshake: the rows are written as CSV to a request path, the
  command is invoked once, and predictions are read back from a response CSV
  with a single ``prediction`` column.

Each float is written as the bytes ``repr`` writes, its shortest decimal
that reads back as the same double, so a numeric round trip through either
protocol is exact.  A JSON request is byte for byte what ``json.dumps``
writes and a request CSV what ``csv.writer`` writes, from one vectorized
encoder.
"""

from __future__ import annotations

import csv
import json
import os
import re
import select
import shlex
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ModelQueryError, ValidationError
from .weighted_lars import _all_finite

__all__ = [
    "Model",
    "MarsModel",
    "LinearModel",
    "SubprocessModel",
    "BatchFileModel",
    "parse_model_spec",
    "MAX_ROWS_PER_REQUEST",
    "REQUEST_TIMEOUT_S",
]

MAX_ROWS_PER_REQUEST = 1000
_EXCERPT_LEN = 300
# Seconds an ``exec:`` child may take for each answer, and a batch-file
# command to finish.  A child that takes longer is killed, so a model that
# never answers fails the run instead of hanging it.
REQUEST_TIMEOUT_S = 60.0
_READ_BYTES = 1 << 16


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


def _check_input_dim(model: Model, input_dim: int) -> None:
    # A handle that declares no width is taken at its word.
    width = getattr(model, "input_dim", input_dim)
    if width != input_dim:
        raise ValidationError(f"model expects {width} features, instance has {input_dim}")


def _as_matrix(X: np.ndarray, input_dim: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValidationError("prediction input must be a 2-d array")
    if X.shape[1] != input_dim:
        raise ValidationError(
            f"model expects {input_dim} features per row, got {X.shape[1]}")
    if not _all_finite(X):
        raise ValidationError("prediction input must be finite")
    return X


def _predictions(values, rows: int, answer: str = "",
                 batch_index: int | None = None) -> np.ndarray:
    """Any model's answer ``values`` as ``rows`` finite floats, or a
    :class:`ModelQueryError` quoting the ``answer`` text they came from."""
    def failure(message: str) -> ModelQueryError:
        return ModelQueryError(message, batch_index=batch_index,
                               payload_excerpt=_excerpt(answer) if answer else None)

    try:
        predictions = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:   # overflow: an int past the floats
        raise failure(f"model returned a non-numeric prediction: {exc}") from exc
    if predictions.shape != (rows,):
        raise failure(f"expected {rows} predictions, got shape {predictions.shape}")
    if not np.isfinite(predictions).all():
        raise failure("model returned non-finite predictions")
    return predictions


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
# Operands are numbers, features x1, x2, ... (1-based), (sin|cos|exp)(...)
# and parenthesized expressions.  Operators, loosest binding first:
#
#   + -   1   binary, left associative
#   * /   2   binary, left associative
#   -     3   unary:  -x1*x2 is (-x1)*x2, -x1^2 is -(x1^2)
#   ^     4   binary, right associative:  x1^x2^x3 is x1^(x2^x3)
#
# Errors report the 1-based column of the offending character.
# --------------------------------------------------------------------------

class _ExpressionError(ValidationError):
    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])|(?P<space>\s+)|(?P<bad>.)", re.S)

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINARY = {"+": (1, np.add), "-": (1, np.subtract), "*": (2, np.multiply),
           "/": (2, np.divide), "^": (4, np.power)}
# Pending operators and open parentheses an expression may hold at once;
# evaluation keeps one operand live per pending binary operator, plus one.
_MAX_PENDING = 1000


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(source):
        kind, col = match.lastgroup, match.start() + 1
        if kind == "bad":
            raise _ExpressionError(f"unexpected character {match.group()!r}", col)
        if kind != "space":
            tokens.append((kind, match.group(), col))
    tokens.append(("end", "", len(source) + 1))
    return tokens


def _compile(source: str) -> tuple[list, int]:
    """The postfix program of ``(tag, argument)`` steps that computes
    ``source``, and the largest feature index it names, from one pass with
    one stack of pending ``(strength, tag, ufunc)`` entries.  An open
    parenthesis has strength 0, and the ufunc of the function whose
    argument it opens (None for a plain one)."""
    program, pending = [], []
    open_parens = max_index = 0
    operand_next = True
    tokens = iter(_tokenize(source))
    for kind, text, col in tokens:
        entry = None
        if operand_next:
            if kind == "num":
                value = float(text)
                if not np.isfinite(value):
                    raise _ExpressionError(f"number {text!r} is past the float range", col)
                program.append(("num", value))
            elif kind == "name" and text not in _FUNCTIONS:
                feature = re.fullmatch(r"x(\d+)", text)
                if not feature:
                    raise _ExpressionError(f"unknown name {text!r}", col)
                index = int(feature.group(1))
                if index < 1:
                    raise _ExpressionError("feature indices start at x1", col)
                max_index = max(max_index, index)
                program.append(("var", index - 1))
            elif text == "(" or text in _FUNCTIONS:
                if text in _FUNCTIONS and (paren := next(tokens))[1] != "(":
                    raise _ExpressionError("expected '('", paren[2])
                entry = (0, "call", _FUNCTIONS.get(text))
                open_parens += 1
            elif text == "-":
                entry = (3, "call", np.negative)
            else:
                raise _ExpressionError(f"unexpected token {text or 'end of input'!r}", col)
        elif text in _BINARY:
            strength, ufunc = _BINARY[text]
            # Nothing binds tighter than a right-associative '^': it pops nothing.
            while text != "^" and pending and pending[-1][0] >= strength:
                program.append(pending.pop()[1:])
            entry = (strength, "bin", ufunc)
        elif text == ")" and open_parens:
            while pending[-1][0]:
                program.append(pending.pop()[1:])
            if (ufunc := pending.pop()[2]) is not None:
                program.append(("call", ufunc))
            open_parens -= 1
        elif kind == "end" and not open_parens:
            program.extend(waiting[1:] for waiting in reversed(pending))
        else:
            raise _ExpressionError(
                "expected ')'" if open_parens else f"unexpected token {text!r}", col)
        # Every pushed entry waits for an operand; any other token completes one.
        operand_next = entry is not None
        if operand_next:
            pending.append(entry)
            if len(pending) > _MAX_PENDING:
                raise _ExpressionError("expression nests too deeply", col)
    if max_index == 0:
        raise _ExpressionError("expression references no feature", 1)
    return program, max_index


def _evaluate(program: list, X: np.ndarray) -> np.ndarray:
    """Run a postfix program on the rows of X in one loop over one stack."""
    stack = []
    for tag, arg in program:
        if tag == "bin":
            right = stack.pop()
            stack[-1] = arg(stack[-1], right)
        elif tag == "call":
            stack[-1] = arg(stack[-1])
        else:
            stack.append(np.full(X.shape[0], arg) if tag == "num" else X[:, arg])
    return stack.pop()


class _ExpressionModel(Model):
    """Model defined by an arithmetic expression over features x1..xp.

    ``input_dim`` is the instance's width.  It defaults to the largest
    feature index that appears, and a smaller width is refused.
    """

    def __init__(self, source: str, input_dim: int | None = None):
        self._program, max_index = _compile(source)
        self.input_dim = max_index if input_dim is None else int(input_dim)
        if self.input_dim < max_index:
            raise ValidationError(f"expression uses x{max_index}, "
                                  f"but the model takes {self.input_dim} features")

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = _as_matrix(X, self.input_dim)
        # Overflow, 0/0 and the like surface as _predictions' non-finite check.
        with np.errstate(all="ignore"):
            return _predictions(_evaluate(self._program, X), X.shape[0])


# --------------------------------------------------------------------------
# External models
# --------------------------------------------------------------------------

def _excerpt(text: str) -> str:
    text = text.strip()
    return text if len(text) <= _EXCERPT_LEN else text[:_EXCERPT_LEN] + "..."


class SubprocessModel(Model):
    """Child process answering line-delimited JSON prediction requests.

    The child is started lazily and kept alive across calls; a lock
    serializes concurrent callers.  Requests carry at most
    :data:`MAX_ROWS_PER_REQUEST` rows each.  Within one call a single poll
    loop on the calling thread writes the requests in order and reads the
    answers as they arrive, so the child may receive a request before its
    earlier answers are read; it answers each line in order.  After any
    failed request the child is closed, and the next call starts a fresh
    one.  The child leads a process group of its own, and a kill reaches the
    whole group: a process the child started cannot keep its output open
    past a timeout.  Leaving a ``with`` block ends the handle: no later call
    starts a child, and when the block ends by an exception the group is
    killed first, so a call still waiting on the child in another thread
    fails at once.
    """

    def __init__(self, command: Sequence[str], input_dim: int):
        if not command:
            raise ValidationError("subprocess model needs a non-empty command")
        if input_dim < 1:
            raise ValidationError("input_dim must be at least 1")
        self.command = tuple(command)
        self.input_dim = int(input_dim)
        self._child: subprocess.Popen | None = None
        self._unread = bytearray()   # bytes the child wrote past its last answer
        self._lock = threading.Lock()
        self._ended = False

    def _ensure_child(self) -> subprocess.Popen:
        if self._child is not None and self._child.poll() is not None:
            self.close()   # reap the dead child and close its pipes
        if self._child is None:
            if self._ended:
                raise ModelQueryError("the model process was closed for good")
            try:
                self._child = subprocess.Popen(
                    self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    bufsize=0, start_new_session=True)
            except OSError as exc:
                raise ModelQueryError(f"could not start model process: {exc}") from exc
            # A write takes what the pipe has room for and never waits.
            os.set_blocking(self._child.stdin.fileno(), False)
            self._unread = bytearray()
        return self._child

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = _as_matrix(X, self.input_dim)
        starts = range(0, X.shape[0], MAX_ROWS_PER_REQUEST)
        if not starts:
            return np.empty(0)
        with self._lock:
            child = self._ensure_child()
            try:
                return _exchange(child, X, starts, self._unread)
            except BaseException:
                # Answers still in flight no longer match their requests.
                _kill_group(child)
                self.close()
                raise

    def __exit__(self, exc_type, exc, tb):
        self._ended = True
        child = self._child
        if exc_type is not None and child is not None:
            _kill_group(child)
        with self._lock:
            self.close()
        return False

    def close(self) -> None:
        child, self._child = self._child, None
        if child is None:
            return
        child.stdin.close()   # EOF asks a live child to exit
        try:
            child.wait(timeout=5)
        except subprocess.TimeoutExpired:
            _kill_group(child)
            child.wait()
        child.stdout.close()


def _exchange(child: subprocess.Popen, X: np.ndarray, starts: range,
              pending: bytearray) -> np.ndarray:
    """Write one request per row block in ``starts`` and parse the answers in
    order, in one poll loop over both pipes.

    Request i + 1 is encoded once request i is fully written, while the child
    works on it.  Answer j is taken only after request j is fully written,
    and the child has :data:`REQUEST_TIMEOUT_S` for each answer, counted from
    the one before: a write that waits on a child which does not read counts
    against that time too.  Bytes read past the last answer stay in
    ``pending`` for the next call.
    """
    from ._float_text import float_text   # here: builtin-model runs never build its tables
    out_fd, in_fd = child.stdout.fileno(), child.stdin.fileno()
    poller = select.poll()
    poller.register(out_fd, select.POLLIN)
    poller.register(in_fd, select.POLLOUT)
    chunks, request, sent, closed, pipe_error = [], memoryview(b""), 0, False, None
    deadline = time.monotonic() + REQUEST_TIMEOUT_S
    while (batch_index := len(chunks)) < len(starts):
        if batch_index < sent:
            # At end of file a last line without newline still counts.
            end = pending.find(b"\n") + 1 or (closed and len(pending))
            if end:
                line = pending[:end].decode("utf-8", "replace")
                del pending[:end]
                rows = min(MAX_ROWS_PER_REQUEST, X.shape[0] - starts[batch_index])
                chunks.append(_parse_answer(line, rows, batch_index))
                deadline = time.monotonic() + REQUEST_TIMEOUT_S
                continue
            if closed:
                raise ModelQueryError(
                    "model process closed its output before answering",
                    batch_index=batch_index)
        elif pipe_error is not None:
            raise ModelQueryError(
                f"model process pipe failed: {pipe_error}",
                batch_index=sent) from pipe_error
        if not request and sent < len(starts):
            start = starts[sent]
            request = memoryview(float_text(X[start:start + MAX_ROWS_PER_REQUEST],
                                            b'{"instances": [[', b", ", b"], [", b"]]}\n"))
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not (events := poller.poll(remaining * 1000)):
            raise ModelQueryError(
                f"model process did not answer within {REQUEST_TIMEOUT_S:g} s; killed it",
                batch_index=batch_index)
        for fd, _ in events:
            if fd == out_fd:
                chunk = os.read(out_fd, _READ_BYTES)
                pending += chunk
                if not chunk:
                    closed = True
                    poller.unregister(out_fd)
                continue
            try:
                request = request[os.write(in_fd, request):]
            except BlockingIOError:
                continue
            except OSError as exc:   # a broken pipe: the child is gone
                pipe_error = exc
                poller.unregister(in_fd)
                continue
            if not request:
                sent += 1
                if sent == len(starts):
                    poller.unregister(in_fd)
    return np.concatenate(chunks)


def _parse_answer(line: str, rows: int, batch_index: int) -> np.ndarray:
    """Predictions in one answer ``line`` to a request of ``rows`` rows."""
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
    values = reply["predictions"]
    if isinstance(values, list) and not {str, bool}.isdisjoint(map(type, values)):
        raise ModelQueryError(
            "model returned a non-numeric prediction: a JSON string or boolean",
            batch_index=batch_index, payload_excerpt=_excerpt(line))
    return _predictions(values, rows, line, batch_index)


def _kill_group(child: subprocess.Popen) -> None:
    """SIGKILL the process group that ``child``, not yet reaped, leads."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass   # every process of the group has exited


class BatchFileModel(Model):
    """One-shot file handshake: write request CSV, run command, read response.

    The response file must be a CSV whose header contains a ``prediction``
    column with one row per requested instance.  A lock serializes
    concurrent callers, who share the two files.  The command runs in a
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
        self._lock = threading.Lock()

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        from ._float_text import float_text   # here: builtin-model runs never build its tables
        X = _as_matrix(X, self.input_dim)
        with self._lock:
            header = ",".join(f"x{j + 1}" for j in range(self.input_dim)) + "\r\n"
            self.request_path.write_bytes(
                float_text(X, header.encode(), b",", b"\r\n", b"\r\n"))
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
            except (OSError, UnicodeDecodeError, csv.Error) as exc:
                raise ModelQueryError(f"could not read response file: {exc}") from exc
        return _predictions(values, X.shape[0], "\n".join(map(str, values[:5])))


def parse_model_spec(spec: str, input_dim: int) -> Model:
    """Build a model handle from a CLI-style spec string.

    Recognized forms: ``builtin:mars``, ``builtin:linear:c1,c2,...``,
    ``expr:<expression>``, ``exec:<command line>``.  The handle takes
    ``input_dim`` features; a builtin of another width is refused.
    """
    if spec == "builtin:mars":
        model = MarsModel()
    elif spec.startswith("builtin:linear:"):
        text = spec[len("builtin:linear:"):]
        try:
            coefficients = [float(v) for v in text.split(",") if v != ""]
        except ValueError as exc:
            raise ValidationError(f"bad linear coefficients {text!r}: {exc}") from None
        model = LinearModel(coefficients)
    elif spec.startswith("expr:"):
        model = _ExpressionModel(spec[len("expr:"):], input_dim)
    elif spec.startswith("exec:"):
        try:
            command = shlex.split(spec[len("exec:"):])
        except ValueError as exc:   # an unclosed quote or a trailing backslash
            raise ValidationError(f"cannot parse exec: command line: {exc}") from None
        model = SubprocessModel(command, input_dim=input_dim)
    else:
        raise ValidationError(
            f"unrecognized model spec {spec!r}; expected builtin:mars, "
            "builtin:linear:..., expr:..., or exec:...")
    _check_input_dim(model, input_dim)
    return model
