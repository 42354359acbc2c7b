"""Perturbation sampling around an instance, with extendable datasets.

Rows are drawn as ``instance + feature_scales * z`` with z standard normal.
The generator is counter based (Philox keyed by the dataset seed, one child
stream per fixed-size block of rows), so the sample is a pure function of
``(seed, row index, p)``: growing a dataset from n to n' regenerates rows
``n..n'-1`` exactly as a single draw of n' rows would have produced them,
and the first n rows are reused untouched.  That property is what makes the
adaptive sample-growing loop cheap and reproducible.

Kernel weights follow the usual locality kernel
``exp(-d^2 / width^2)`` with d the Euclidean distance measured in
scale-normalized coordinates, so the instance itself would get weight 1.

New rows are made by one pass (:func:`_draw_query_weigh`) in turns.  A
turn's rows are drawn into one contiguous buffer, one task per 4096-row
block, each draw running on into the next block's first rows so that it
ends on a generator block and no generator block is drawn twice; a growth
that starts inside a generator block skips that block's leading rows on the
block's own stream, without a copy.  The turn is asked of the model at
once, on the calling thread.  Each of its blocks is then weighed in one
task: its kernel weights and its weighted moments about the instance, the
answers included (:class:`~slime.weighted_lars.WeightedMoments`); the
calling thread adds each block's sums to the dataset's, in block order, as
soon as it is done, so standardizing a grown sample, and correlating it
with the answers, costs p x p algebra plus the new rows.  The answers are
summed about a pilot shift, the dataset's first answer, so a constant
model's answers sum to exactly zero.  When the new rows hold more than
2**20 entries and span more than one block, the draws and the weighs run on
a thread pool with one thread per CPU the process may run on (its CPU
affinity; ``taskset -c 0 slime ...`` keeps the pass on one thread); smaller
passes run in the calling thread.  Either way the weigh holds the sums of
at most one block more than it has threads.  Rows, weights and moments are
the same bytes whatever the number of CPUs.  Building a dataset is its
first growth, from no rows.

A dataset's ``X`` holds the values of the columns it keeps.  A public
dataset keeps every column: its growth copies the old rows into exactly as
many rows as it grows to, draws the new rows into their tail in one turn and
weighs them through scratch.  The explainer's rounds past 2**20 entries keep
a few columns only (:func:`_for_round`): a turn is one block per thread, in
one of two buffers made for the pass, and is weighed in place while the
next turn is drawn and asked; the dataset keeps the answers, the weights,
the moments and those columns.  A pass over its rows reads those columns
when it needs no other, and otherwise draws every row again
(:class:`_Regenerated`); by the prefix property those are the bytes the
rows of a dataset that keeps every column give.  A sample too large for
numpy to allocate is refused as invalid input.
"""

from __future__ import annotations

import csv
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .models import Model, _predictions
from .weighted_lars import (DesignMatrix, WeightedMoments, _ROW_BLOCK, _row_blocks,
                            standardize)

__all__ = [
    "InstanceSpec",
    "PerturbationDataset",
    "gaussian_perturb",
    "kernel_weights",
    "query_model",
    "build_dataset",
    "extend_dataset",
    "scales_from_csv",
]

_BLOCK = 1024            # rows per generator block; fixed, part of the stream format
_MIN_WEIGHT = np.finfo(float).tiny   # keep weights strictly positive even at extreme distance
# Rows holding more than this many entries make a large pass: over more than
# one _ROW_BLOCK it runs on a thread pool (below it a pool costs more than it
# saves, and the blocks run in the calling thread), and an explainer round
# this large keeps only a few columns in memory (:func:`_for_round`).
_LARGE_ENTRIES = 1 << 20
# Such a round keeps this many columns, the ones most correlated with the
# answers when it stopped keeping every column: a round's first entry tests
# compare its leading columns, and read them there instead of drawing every
# row again.  A small sample ranks the leaders loosely (at 1000 rows of 200
# features, a column with the second largest coefficient ranked below eight
# others), so many more than the two that the first test compares are kept.
_KEPT_COLUMNS = 16


def _for_round(dataset: PerturbationDataset, n: int) -> PerturbationDataset:
    """The dataset, keeping the columns an explainer round of n rows keeps:
    every one while the rows hold at most ``_LARGE_ENTRIES`` entries, and
    past that the ``_KEPT_COLUMNS`` leading ones (:func:`_without_rows`)."""
    if n * dataset.instance.n_features > _LARGE_ENTRIES:
        return _without_rows(dataset)
    return dataset


@dataclass(frozen=True)
class InstanceSpec:
    """The point to explain plus per-feature names and perturbation scales."""

    values: np.ndarray
    feature_names: tuple[str, ...] | None = None
    feature_scales: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 1:
            raise ValidationError("instance values must be a non-empty 1-d vector")
        if not np.isfinite(values).all():
            raise ValidationError("instance values must be finite")
        p = values.size
        names = self.feature_names
        if names is None:
            names = tuple(f"x{i + 1}" for i in range(p))
        else:
            names = tuple(names)
            if len(names) != p:
                raise ValidationError("feature_names length must match the instance")
            if len(set(names)) != p:
                raise ValidationError("feature names must be unique")
        object.__setattr__(self, "feature_names", names)
        scales = self.feature_scales
        if scales is None:
            scales = np.ones(p)
        else:
            scales = np.asarray(scales, dtype=float)
            if scales.shape != (p,):
                raise ValidationError(f"feature_scales has shape {scales.shape} "
                                      f"for {p} features")
            if not np.isfinite(scales).all() or (scales <= 0).any():
                raise ValidationError("feature_scales must be finite and strictly positive")
        object.__setattr__(self, "feature_scales", scales)

    @property
    def n_features(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class PerturbationDataset:
    """Synthetic neighborhood: rows, model answers, kernel weights, lineage.

    ``seed`` and ``kernel_width`` are carried along so the dataset can be
    extended later without re-querying existing rows.  ``moments`` holds
    the weighted moments of the rows about the instance and of the answers
    about their pilot shift: growth carries them along, and a dataset made
    without them sums them from its rows and answers.  A dataset with no
    rows carries no moments: its first growth starts them about its first
    answer.
    ``X`` holds, over every row, the values of the columns the dataset
    keeps: those ``_columns`` names, or every column when it is None.  A
    dataset that keeps only some carries its moments, and a pass that needs
    another column draws the rows again (:func:`_design`).  Only the
    explainer makes one, for its large rounds.
    """

    X: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    seed: int
    n: int
    instance: InstanceSpec
    kernel_width: float
    moments: WeightedMoments | None = field(default=None, repr=False, compare=False)
    _columns: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        p = self.instance.n_features
        if self.X.shape != (self.n, p if self._columns is None else self._columns.size):
            raise ValidationError("X shape must be (n, p)")
        if self.y.shape != (self.n,) or self.weights.shape != (self.n,):
            raise ValidationError("y and weights must have one entry per row")
        if not np.isfinite(self.y).all():
            raise ValidationError("responses must be finite")
        if (self.weights <= 0).any() or (self.weights > 1).any():
            raise ValidationError("weights must lie in (0, 1]")
        if self.moments is None and self.n:
            if self._columns is not None:
                raise ValidationError("a dataset that keeps some columns must carry its moments")
            object.__setattr__(self, "moments", WeightedMoments.of(
                self.X, self.weights, self.instance.values, self.y))


def _default_kernel_width(p: int) -> float:
    """Conventional locality kernel width, 0.75 * sqrt(p)."""
    if p < 1:
        raise ValidationError("p must be at least 1")
    return 0.75 * math.sqrt(p)


def _seed_sequence(seed: int, key: tuple[int, ...]) -> np.random.SeedSequence:
    """The independent child stream ``key`` of ``seed``.

    Row blocks, ordering-experiment runs, adaptive growth rounds and
    benchmark repetitions each draw from their own key, so changing one
    never shifts another's stream.
    """
    _check_seed(seed)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=key)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


def _derived_seed(seed: int, key: tuple[int, ...]) -> int:
    """A fresh integer seed from the child stream ``key`` of ``seed``."""
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])


def _standard_rows(seed: int, start: int, stop: int, p: int, out: np.ndarray) -> None:
    """Write rows [start, stop) of the infinite standard-normal table for this
    seed into ``out``, a C-contiguous (stop - start, p) float array."""
    for block in range(start // _BLOCK, (stop - 1) // _BLOCK + 1):
        gen = np.random.Generator(np.random.Philox(_seed_sequence(seed, (block,))))
        first = block * _BLOCK
        lo = max(start, first)
        hi = min(stop, first + _BLOCK)
        gen.standard_normal((lo - first) * p)   # skip the rows before ``start``
        gen.standard_normal(out=out[lo - start:hi - start])


def gaussian_perturb(instance: InstanceSpec, n: int, seed: int, *,
                     start: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Draw perturbation rows ``start .. start+n-1`` around the instance.

    Deterministic in ``(seed, row index, p)``; the default ``start=0`` yields
    the first n rows.  The instance itself is never injected.  With ``out``,
    a C-contiguous (n, p) float array, the rows are written there and ``out``
    returned.  Rows that overflow the float range raise
    :class:`ValidationError`.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    if start < 0:
        raise ValidationError("start must be nonnegative")
    p = instance.n_features
    if out is None:
        out = np.empty((n, p))
    elif out.shape != (n, p) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValidationError("out must be a C-contiguous float array of shape (n, p)")
    _standard_rows(int(seed), start, start + n, p, out)
    try:
        with np.errstate(over="raise"):
            out *= instance.feature_scales
            out += instance.values
    except FloatingPointError:
        raise ValidationError(
            "perturbations overflow the float range around instance "
            f"{instance.values} with scales {instance.feature_scales}") from None
    return out


def kernel_weights(X: np.ndarray, instance: InstanceSpec, width: float) -> np.ndarray:
    """Locality weights ``exp(-d^2 / width^2)`` in scale-normalized coordinates."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != instance.n_features:
        raise ValidationError("X must be 2-d with one column per feature")
    _check_width(width)
    w = np.empty(X.shape[0])
    scratch = _scratch(X.shape[0], X.shape[1])
    for rows in _row_blocks(X.shape[0]):
        _weigh(X[rows], instance, width, w[rows], scratch)
    return w


def _check_width(width: float) -> None:
    if not (width > 0 and math.isfinite(width)):
        raise ValidationError("kernel width must be positive and finite")


def _allocate(n: int, *shape: int) -> np.ndarray:
    """``np.empty((n, *shape))`` for n rows of a sample; a size numpy refuses
    before it touches memory raises :class:`ValidationError`."""
    try:
        return np.empty((n, *shape))
    except (MemoryError, ValueError) as exc:
        raise ValidationError(f"a sample of {n} rows cannot be allocated: {exc}") from None


def _scratch(n: int, p: int, in_place: bool = False) -> tuple[np.ndarray | None, np.ndarray]:
    """Work space of :func:`_weigh` on the blocks of an n-row pass: one
    ``_ROW_BLOCK`` of shifted rows (none when the rows are shifted in
    place), and one chunk of scale-normalized rows that holds at most 2**15
    entries (and at least one row)."""
    chunk = min(n, _ROW_BLOCK, max(1, (1 << 15) // p))
    return None if in_place else np.empty((min(n, _ROW_BLOCK), p)), np.empty((chunk, p))


def _weigh(rows: np.ndarray, instance: InstanceSpec, width: float, w: np.ndarray,
           scratch: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Write the kernel weights of at most ``_ROW_BLOCK`` ``rows`` into ``w``
    and return the rows shifted by the instance, which live in ``scratch``,
    or in ``rows`` themselves when its first entry is None.

    Each row's weight depends on that row alone, so the bytes do not depend
    on the blocking or on which rows are weighed together.
    """
    u_space, z_space = scratch
    u = np.subtract(rows, instance.values,
                    out=rows if u_space is None else u_space[:rows.shape[0]])
    for lo in range(0, u.shape[0], z_space.shape[0]):
        part = u[lo:lo + z_space.shape[0]]
        z = np.divide(part, instance.feature_scales, out=z_space[:part.shape[0]])
        d2 = np.einsum("ij,ij->i", z, z)
        w[lo:lo + z.shape[0]] = np.maximum(np.exp(-d2 / (width * width)), _MIN_WEIGHT)
    return u


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # not offered on every platform
        return os.cpu_count() or 1


@contextmanager
def _pool(workers: int) -> Iterator[Callable]:
    """``submit(fn, *args)``, which returns a callable that gives
    ``fn(*args)``: run on a pool of ``workers`` threads open for the
    ``with`` block, or, for one worker, in the calling thread when called."""
    if workers == 1:
        yield partial
        return
    with ThreadPoolExecutor(workers) as pool:
        yield lambda *task: pool.submit(*task).result


def _workers(n: int, p: int) -> int:
    """Threads for a pass over n rows of p features: one per CPU the
    process may use, at most one per block, for a large pass; else one."""
    return min(_cpu_count(), -(-n // _ROW_BLOCK)) if n * p > _LARGE_ENTRIES else 1


def _draw_query_weigh(model: Model, dataset: PerturbationDataset, n: int,
                      X: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray, WeightedMoments, np.ndarray | None]:
    """Draw, query and weigh the n rows that follow the dataset's: return
    their answers, their kernel weights, the dataset's moments with theirs
    added and, for a dataset that keeps only some columns, their values
    over the new rows.

    The rows go in turns, each drawn into one contiguous buffer, one task
    per :func:`_row_blocks` block, and asked of the model at once on the
    calling thread; then each of the turn's blocks is weighed in one task,
    and the calling thread adds its sums in block order, with at most
    ``workers + 1`` weighs in flight.  Given ``X``, the rows are kept there:
    the turn is every block, weighed through scratch.  Otherwise a turn is
    one block per thread, in one of two buffers made for the pass, weighed
    in place while the next turn is drawn and asked.  The bytes depend
    neither on the number of threads nor on the turns.

    A block's draw runs on into the first ``lead`` rows of the next block,
    so every draw but the pass's first starts on a generator block and none
    is drawn twice; only a turn's first rows are copied, from the end of
    the previous turn's buffer.
    """
    instance, start, width = dataset.instance, dataset.n, dataset.kernel_width
    _check_width(width)
    p = instance.n_features
    workers = _workers(n, p)
    lead = -start % _BLOCK
    if X is None:
        turn = workers * _ROW_BLOCK
        # Made before the pass's outputs, so that, once freed, their heap
        # space takes the allocations that follow the pass.  Made after them,
        # a p=200, n=100k explain on 2 threads peaked 7-9% higher: a freed
        # turn buffer raises glibc's mmap threshold to its own size.
        buffers = [np.empty((min(n, turn + lead), p)) for _ in range(2)]
        kept = dataset._columns
        columns = _allocate(n, kept.size)
    else:
        turn, columns, buffers = n, None, [X]
    y, w = _allocate(n), _allocate(n)
    moments = dataset.moments.copy() if start else None
    scratch = []

    def draw(block: int, buffer: np.ndarray, first: int) -> None:
        lo, hi = block + lead if block else 0, min(block + _ROW_BLOCK + lead, n)
        if hi > lo:
            gaussian_perturb(instance, hi - lo, dataset.seed, start=start + lo,
                             out=buffer[lo - first:hi - first])

    def weigh(rows: slice, values: np.ndarray) -> tuple:
        space = scratch.pop()   # at most ``workers`` tasks run at once
        try:
            return moments.block_sums(_weigh(values, instance, width, w[rows], space),
                                      w[rows], y[rows])
        finally:
            scratch.append(space)

    with _pool(workers) as submit:
        def draw_turn(first: int) -> list:
            buffer = buffers[first // turn % 2]
            return [submit(draw, block, buffer, first)
                    for block in range(first, min(first + turn, n), _ROW_BLOCK)]

        drawing, pending, previous = draw_turn(0), deque(), None
        for first in range(0, n, turn):
            last = min(first + turn, n)
            buffer = buffers[first // turn % 2]
            for done in drawing:
                done()
            if first:
                head = min(lead, last - first)
                buffer[:head] = previous[turn:turn + head]
            values = buffer[:last - first]
            if columns is not None:
                columns[first:last] = values[:, kept]
            y[first:last] = query_model(model, values)
            if moments is None:
                # The first answer fixes the pilot shift of the response's moments.
                moments = WeightedMoments.about(instance.values, y)
            if not first:
                # Allocated here, after the query, not in the workers: memory
                # a worker thread frees stays in that thread's malloc arena.
                # Rows that are not kept are shifted in place.
                scratch.extend(_scratch(n, p, in_place=X is None) for _ in range(workers))
            # The previous turn's weighs end before its buffer is drawn into
            # again, and the next turn's draws go ahead of this turn's weighs.
            while pending:
                moments.add(pending.popleft()())
            if last < n:
                drawing = draw_turn(last)
            for rows in _row_blocks(last - first):
                pending.append(submit(weigh, slice(first + rows.start, first + rows.stop),
                                      values[rows]))
                if len(pending) > workers:
                    moments.add(pending.popleft()())
            previous = buffer
        while pending:
            moments.add(pending.popleft()())
    return y, w, moments, columns


class _Regenerated(DesignMatrix):
    """The design of a dataset that keeps only some columns: ``values`` holds
    theirs, and a pass that reads another draws every row again (see
    :meth:`_map_blocks`)."""

    dataset: PerturbationDataset

    def _keeps(self, columns) -> bool:
        """Whether the dataset kept the values of every one of ``columns``."""
        return set(columns) <= set(self.dataset._columns.tolist())

    def _map_blocks(self, task, columns=None):
        """``task(rows, values)`` over each block of rows, in block order.

        When the task reads only ``columns`` and the dataset kept them, they
        are copied into one block of rows and the others are left unset.
        Otherwise every row is drawn again from row 0 by
        :func:`gaussian_perturb`: a large pass runs the draws and the tasks
        on a thread pool, at most one block more than it has threads in
        flight, each in one of the buffers made for the pass on the calling
        thread.  A task's result must not keep its ``values``.
        """
        dataset = self.dataset
        n, p = dataset.n, dataset.instance.n_features
        if columns is not None and self._keeps(columns):
            buffer = np.empty((min(n, _ROW_BLOCK), p))
            for rows in _row_blocks(n):
                block = buffer[:rows.stop - rows.start]
                block[:, dataset._columns] = self.values[rows]
                yield task(rows, block)
            return
        workers = _workers(n, p)
        in_flight = workers + 1 if workers > 1 else 1

        def run(rows: slice, buffer: np.ndarray):
            try:
                return task(rows, gaussian_perturb(
                    dataset.instance, rows.stop - rows.start, dataset.seed,
                    start=rows.start, out=buffer[:rows.stop - rows.start]))
            finally:
                free.append(buffer)

        with _pool(workers) as submit:
            free = [np.empty((min(n, _ROW_BLOCK), p)) for _ in range(in_flight)]
            pending = deque()
            for rows in _row_blocks(n):
                pending.append(submit(run, rows, free.pop()))
                if len(pending) >= in_flight:
                    yield pending.popleft()()
            while pending:
                yield pending.popleft()()


def _design(dataset: PerturbationDataset) -> DesignMatrix:
    """The dataset's rows as a design: its values, or, for a dataset that
    keeps only some columns, a design that draws the rows again on a pass
    that reads another."""
    names = dataset.instance.feature_names
    if dataset._columns is None:
        # Sampled rows are finite by construction: no finiteness scan.
        return DesignMatrix._trusted(dataset.X, names)
    design = _Regenerated._trusted(dataset.X, names)
    object.__setattr__(design, "dataset", dataset)
    return design


def _without_rows(dataset: PerturbationDataset) -> PerturbationDataset:
    """The dataset, keeping from now on only the ``_KEPT_COLUMNS`` columns
    most correlated with the answers: it and its growths hold those,
    answers, weights and moments, and their rows are drawn again when
    another column is read."""
    if dataset._columns is not None:
        return dataset
    kept = np.empty(0, dtype=int)
    if dataset.n:
        std = standardize(_design(dataset), dataset.weights, dataset.y,
                          moments=dataset.moments)
        leading = np.argsort(-np.abs(std.xty), kind="stable")[:_KEPT_COLUMNS]
        kept = np.sort(std.retained_idx[leading])
    return replace(dataset, X=dataset.X[:, kept], _columns=kept)


def query_model(model: Model, X: np.ndarray) -> np.ndarray:
    """Ask the model for predictions and insist on a sane answer.

    For classifiers the convention is that predictions are positive-class
    probabilities, so they arrive as plain floats like any regression output.
    """
    X = np.asarray(X, dtype=float)
    return _predictions(model.predict_batch(X), X.shape[0])


def build_dataset(model: Model, instance: InstanceSpec, n: int, seed: int,
                  kernel_width: float | None = None) -> PerturbationDataset:
    """Sample n rows, attach kernel weights, query the model once: the first
    growth of an empty dataset, with moments about the instance."""
    if n < 2:
        raise DegenerateInputError("a usable dataset needs at least 2 rows")
    return extend_dataset(model, _empty(instance, seed, kernel_width), n)


def _empty(instance: InstanceSpec, seed: int, kernel_width: float | None
           ) -> PerturbationDataset:
    """A dataset with no rows yet, whose growth draws from ``seed``."""
    width = _default_kernel_width(instance.n_features) if kernel_width is None else kernel_width
    return PerturbationDataset(X=np.empty((0, instance.n_features)), y=np.empty(0),
                               weights=np.empty(0), seed=int(seed), n=0,
                               instance=instance, kernel_width=float(width))


def extend_dataset(model: Model, dataset: PerturbationDataset,
                   new_n: int) -> PerturbationDataset:
    """Grow a dataset to ``new_n`` rows, querying the model only for new rows.

    The first ``dataset.n`` rows are reused bit for bit; the added rows are
    exactly those a fresh ``build_dataset(..., new_n, same seed)`` would have
    produced, by the prefix property of the row generator.  The grown ``X``
    holds exactly ``new_n`` rows: the old ones are copied in and the new
    ones drawn into the rest.  A dataset that keeps only some columns grows
    into one that keeps the same, their values over the new rows added
    after the pass.  A sample too large for numpy to allocate raises
    :class:`ValidationError`.
    """
    if new_n <= dataset.n:
        raise ValidationError(
            f"new_n must exceed the current {dataset.n} rows, got {new_n}")
    n, X = dataset.n, None
    if dataset._columns is None:
        X = _allocate(new_n, dataset.instance.n_features)
        X[:n] = dataset.X
    y_new, w_new, moments, columns = _draw_query_weigh(
        model, dataset, new_n - n, None if X is None else X[n:])
    return PerturbationDataset(
        X=np.concatenate([dataset.X, columns]) if X is None else X,
        y=np.concatenate([dataset.y, y_new]),
        weights=np.concatenate([dataset.weights, w_new]),
        seed=dataset.seed,
        n=new_n,
        instance=dataset.instance,
        kernel_width=dataset.kernel_width,
        moments=moments,
        _columns=dataset._columns,
    )


def scales_from_csv(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Estimate per-feature scales from background data.

    The file must be UTF-8 CSV with a header row, one feature per column,
    and '.' as the decimal separator.  Returns the header names and the
    sample standard deviation of each column; constant columns fall back to
    scale 1 so downstream validation (scales > 0) holds.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"background file {path} is empty") from None
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read background file {path}: {exc}") from exc
    if not header or any(not name.strip() for name in header):
        raise ValidationError("background file needs a header row of feature names")
    if len(rows) < 2:
        raise ValidationError("background file needs at least 2 data rows")
    p = len(header)
    data = np.empty((len(rows), p))
    for i, row in enumerate(rows):
        if len(row) != p:
            raise ValidationError(
                f"background row {i + 2} has {len(row)} fields, expected {p}")
        try:
            data[i] = [float(v) for v in row]
        except ValueError as exc:
            raise ValidationError(f"background row {i + 2}: {exc}") from None
    if not np.isfinite(data).all():
        raise ValidationError("background data must be finite")
    scales = data.std(axis=0, ddof=1)
    scales[scales <= 0] = 1.0
    return tuple(name.strip() for name in header), scales
