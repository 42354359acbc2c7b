"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``slime`` package from outside:
each wrapper opens a span when the function is entered and closes it when
the function returns or raises.  Spans record their name, start, end,
parent, op id and thread, plus counts read from the value the function
returned.  They stay in memory until the benchmark writes them out.

The package imports names directly (``from .sampling import
build_dataset``), so a function is wrapped at the module where its caller
looks the name up, not where it is defined.  :func:`install` returns the
list of replaced names and :func:`restore` puts every original back; the
:meth:`Recorder.installed` context manager does both, also when the op raises.

The parent stack is kept per thread.  A span opened on a thread whose stack
is empty (a pool worker of ``repeat_explanations``) takes as parent the
innermost open span of the thread that opened the op, so work done in pool
threads is attributed to the call that submitted it.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int          # index of the parent span, -1 for an op's root span
    op: int
    thread: int
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; one op at a time, possibly spread over threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op = -1
        self._op_stack: list[int] | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._op_stack:
            parent = self._op_stack[-1]
        else:
            parent = -1
        span = Span(name, time.perf_counter(), parent, self._op,
                    threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        return span

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; spans opened inside belong to ``op_id``."""
        if self._op_stack is not None:
            raise RuntimeError("ops do not nest")
        self._op = op_id
        self._op_stack = self._stack()
        index = self.open("op")
        try:
            yield
        finally:
            self.close(index)
            self._op_stack = None
            self._op = -1

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(result, args, kwargs)`` fills counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index).counts["failed"] = 1
                raise
            span = self.close(index)
            if count is not None:
                span.counts.update(count(result, args, kwargs))
            return result

        return traced

    @contextmanager
    def installed(self, targets, extra=()):
        """Wrap ``targets`` (see :func:`install`) for the duration of a block."""
        replaced = install(self, targets, extra)
        try:
            yield
        finally:
            restore(replaced)


def install(recorder: Recorder, targets, extra=()):
    """Replace each ``(module, attribute, span name, count)`` target.

    ``extra`` holds ``(object, attribute, span name, count)`` entries for
    objects that are not modules, such as a model instance whose
    ``predict_batch`` should be seen.  Returns what :func:`restore` needs.
    """
    replaced = []
    try:
        for module_name, attr, span_name, count in targets:
            module = importlib.import_module(module_name)
            replaced.append((module, attr, True, getattr(module, attr)))
            setattr(module, attr, recorder.wrap(span_name, getattr(module, attr), count))
        for obj, attr, span_name, count in extra:
            replaced.append((obj, attr, attr in vars(obj), getattr(obj, attr)))
            setattr(obj, attr, recorder.wrap(span_name, getattr(obj, attr), count))
    except BaseException:
        restore(replaced)
        raise
    return replaced


def restore(replaced) -> None:
    """Undo :func:`install`, last replacement first."""
    for obj, attr, had_own, original in reversed(replaced):
        if had_own:
            setattr(obj, attr, original)
        else:
            delattr(obj, attr)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent; children that ran in parallel
    (pool threads) cover their union once.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = _union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(index, ()) if c.end > span.start and c.start < span.end)
        out.append(span.duration - covered)
    return out


def self_sum_error(spans: list[Span], selfs: list[float], members: list[int]) -> float:
    """Relative gap between the self times of one op and its wall time.

    ``members`` are the indices of the op's spans, its root span included.
    The self times of all of them add up to the root span's wall time plus
    the time that children of one parent ran in parallel.  The two sides
    differ only when a span lies outside its parent or hangs off the tree,
    so a result beyond float rounding means broken tracing.
    """
    children = defaultdict(list)
    roots = []
    for i in members:
        if spans[i].parent >= 0:
            children[spans[i].parent].append(spans[i])
        else:
            roots.append(i)
    if len(roots) != 1:
        return math.inf
    overlap = 0.0
    for kids in children.values():
        overlap += sum(k.duration for k in kids) - _union_length(
            (k.start, k.end) for k in kids)
    wall = spans[roots[0]].duration
    total_self = sum(selfs[i] for i in members)
    return abs(total_self - (wall + overlap)) / wall
