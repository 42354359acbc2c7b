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

New rows are made in three phases.  The draw phase writes them straight
into the dataset's buffer, one call per block of 4096 rows counted from the
first new row; each call but the first starts at the generator-block
boundary at or after its block's first row, so within a growth no generator
block is drawn twice.  A growth that starts inside a generator block redraws
that block's leading rows and drops them.  The query phase asks the model
once for the new rows, on the calling thread.  The weigh phase gives each
block, in one task per block, its kernel weights and its weighted moments
about the instance, the answers included
(:class:`~slime.weighted_lars.WeightedMoments`); the calling thread adds
each block's sums to the dataset's, in block order, as soon as it is done, so
standardizing a grown sample, and correlating it with the answers, costs
p x p algebra plus the new rows.  The answers are summed about a pilot
shift, the dataset's first answer, so a constant model's answers sum to
exactly zero.  When the new rows hold at least 2**20 entries and span more
than one block, the draw and the weigh run on a thread pool with one thread
per CPU the process may run on (its CPU affinity; ``taskset -c 0 slime ...``
keeps the pass on one thread); smaller passes run in the calling thread.
Either way the weigh holds the sums of at most one block more than it has
threads.  Rows, weights and moments are the same bytes whatever the number
of CPUs.  Building a dataset is its first growth, from no rows.  The sample
lives in one C-order buffer, and growth writes the new rows into its spare
rows, which the caller may reserve up front (``extend_dataset(..., capacity=)``).
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .models import Model, _predictions
from .weighted_lars import ROW_BLOCK, WeightedMoments, row_blocks

__all__ = [
    "InstanceSpec",
    "PerturbationDataset",
    "default_kernel_width",
    "gaussian_perturb",
    "kernel_weights",
    "query_model",
    "build_dataset",
    "extend_dataset",
    "scales_from_csv",
]

_BLOCK = 1024            # rows per generator block; fixed, part of the stream format
_MIN_WEIGHT = np.finfo(float).tiny   # keep weights strictly positive even at extreme distance
# New rows holding at least this many entries, over more than one ROW_BLOCK,
# are drawn and weighed on a thread pool; below it a pool costs more than it
# saves, and the blocks run in the calling thread.
_POOL_MIN_ENTRIES = 1 << 20


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
    ``_buffer``, when set, is the array whose leading rows ``X`` views; its
    later rows are spare capacity for growth.
    """

    X: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    seed: int
    n: int
    instance: InstanceSpec
    kernel_width: float
    moments: WeightedMoments | None = field(default=None, repr=False, compare=False)
    _buffer: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.X.shape != (self.n, self.instance.n_features):
            raise ValidationError("X shape must be (n, p)")
        if self.y.shape != (self.n,) or self.weights.shape != (self.n,):
            raise ValidationError("y and weights must have one entry per row")
        if not np.isfinite(self.y).all():
            raise ValidationError("responses must be finite")
        if (self.weights <= 0).any() or (self.weights > 1).any():
            raise ValidationError("weights must lie in (0, 1]")
        if self.moments is None and self.n:
            object.__setattr__(self, "moments", WeightedMoments.of(
                self.X, self.weights, self.instance.values, self.y))


def default_kernel_width(p: int) -> float:
    """Conventional locality kernel width, 0.75 * sqrt(p)."""
    if p < 1:
        raise ValidationError("p must be at least 1")
    return 0.75 * math.sqrt(p)


def seed_sequence(seed: int, key: tuple[int, ...]) -> np.random.SeedSequence:
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


def derived_seed(seed: int, key: tuple[int, ...]) -> int:
    """A fresh integer seed from the child stream ``key`` of ``seed``."""
    return int(seed_sequence(seed, key).generate_state(1, np.uint64)[0])


def _standard_rows(seed: int, start: int, stop: int, p: int, out: np.ndarray) -> None:
    """Write rows [start, stop) of the infinite standard-normal table for this
    seed into ``out``, a C-contiguous (stop - start, p) float array."""
    for block in range(start // _BLOCK, (stop - 1) // _BLOCK + 1):
        gen = np.random.Generator(np.random.Philox(seed_sequence(seed, (block,))))
        first = block * _BLOCK
        lo = max(start, first)
        hi = min(stop, first + _BLOCK)
        if lo == first:
            # Leading rows of a block are a prefix of its stream: draw in place.
            gen.standard_normal(out=out[lo - start:hi - start])
        else:
            out[lo - start:hi - start] = gen.standard_normal((hi - first, p))[lo - first:]


def gaussian_perturb(instance: InstanceSpec, n: int, seed: int, *,
                     start: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Draw perturbation rows ``start .. start+n-1`` around the instance.

    Deterministic in ``(seed, row index, p)``; the default ``start=0`` yields
    the first n rows.  The instance itself is never injected.  With ``out``,
    a C-contiguous (n, p) float array, the rows are written there and ``out``
    returned.
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
    out *= instance.feature_scales
    out += instance.values
    return out


def kernel_weights(X: np.ndarray, instance: InstanceSpec, width: float) -> np.ndarray:
    """Locality weights ``exp(-d^2 / width^2)`` in scale-normalized coordinates."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != instance.n_features:
        raise ValidationError("X must be 2-d with one column per feature")
    _check_width(width)
    w = np.empty(X.shape[0])
    scratch = _scratch(X.shape[0], X.shape[1])
    for rows in row_blocks(X.shape[0]):
        _weigh(X[rows], instance, width, w[rows], scratch)
    return w


def _check_width(width: float) -> None:
    if not (width > 0 and math.isfinite(width)):
        raise ValidationError("kernel width must be positive and finite")


def _scratch(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Work space of :func:`_weigh` on the blocks of an n-row pass: one
    ``ROW_BLOCK`` of shifted rows, and one chunk of scale-normalized rows
    that holds at most 2**15 entries (and at least one row)."""
    chunk = min(n, ROW_BLOCK, max(1, (1 << 15) // p))
    return np.empty((min(n, ROW_BLOCK), p)), np.empty((chunk, p))


def _weigh(rows: np.ndarray, instance: InstanceSpec, width: float, w: np.ndarray,
           scratch: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Write the kernel weights of at most ``ROW_BLOCK`` ``rows`` into ``w``
    and return the rows shifted by the instance, which live in ``scratch``.

    Each row's weight depends on that row alone, so the bytes do not depend
    on the blocking or on which rows are weighed together.
    """
    u_space, z_space = scratch
    u = np.subtract(rows, instance.values, out=u_space[:rows.shape[0]])
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


def _draw_query_weigh(model: Model, dataset: PerturbationDataset, X: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, WeightedMoments]:
    """Fill ``X`` with the rows that follow the dataset's, query the model on
    them and weigh them: return their answers, their kernel weights and the
    dataset's moments with theirs added.

    Three phases: draw the rows in one call per block of ``ROW_BLOCK`` rows,
    query the model once on the calling thread, then weigh the blocks and
    sum their moments, responses included, in one task per block.  Large
    passes run the draw and the weigh on a thread pool sized to the CPUs the
    process may use.  At most ``workers + 1`` weigh tasks are in flight, each
    borrowing one of ``workers`` scratches while it runs; the calling thread
    adds each block's sums in block order as soon as that block is done, so
    the bytes do not depend on the number of threads.
    """
    instance, start, width = dataset.instance, dataset.n, dataset.kernel_width
    _check_width(width)
    n, p = X.shape
    w = np.empty(n)
    blocks = list(row_blocks(n))
    # Each block's draw starts at the first generator-block boundary at or
    # after its first row, so no generator block is drawn twice.
    edges = [0] + [min(n, -(-(start + rows.start) // _BLOCK) * _BLOCK - start)
                   for rows in blocks[1:]] + [n]
    workers = min(_cpu_count(), len(blocks)) if X.size >= _POOL_MIN_ENTRIES else 1

    def draw(lo: int, hi: int) -> None:
        if lo < hi:
            gaussian_perturb(instance, hi - lo, dataset.seed, start=start + lo, out=X[lo:hi])

    def weigh(rows: slice) -> tuple:
        scratch = free.pop()   # at most ``workers`` tasks run at once
        try:
            return moments.block_sums(_weigh(X[rows], instance, width, w[rows], scratch),
                                      w[rows], y[rows])
        finally:
            free.append(scratch)

    with (ThreadPoolExecutor(workers) if workers > 1 else nullcontext()) as pool:
        list((map if pool is None else pool.map)(draw, edges[:-1], edges[1:]))
        y = query_model(model, X)
        # The first answer fixes the pilot shift of the response's moments.
        moments = (dataset.moments.copy() if start
                   else WeightedMoments.about(instance.values, y))
        # Scratch is allocated here, after the query, not in the workers:
        # memory a worker thread frees stays in that thread's malloc arena.
        free = [_scratch(n, p) for _ in range(workers)]
        # A pending entry, called, gives its block's sums (weighed then, with no pool).
        submit = partial if pool is None else lambda *task: pool.submit(*task).result
        pending = []
        for rows in blocks:
            pending.append(submit(weigh, rows))
            if len(pending) > workers:
                moments.add(pending.pop(0)())
        for sums in pending:
            moments.add(sums())
    return y, w, moments


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
    width = default_kernel_width(instance.n_features) if kernel_width is None else kernel_width
    empty = PerturbationDataset(X=np.empty((0, instance.n_features)), y=np.empty(0),
                                weights=np.empty(0), seed=int(seed), n=0,
                                instance=instance, kernel_width=float(width))
    return extend_dataset(model, empty, n)


def extend_dataset(model: Model, dataset: PerturbationDataset, new_n: int, *,
                   capacity: int = 0) -> PerturbationDataset:
    """Grow a dataset to ``new_n`` rows, querying the model only for new rows.

    The first ``dataset.n`` rows are reused bit for bit; the added rows are
    exactly those a fresh ``build_dataset(..., new_n, same seed)`` would have
    produced, by the prefix property of the row generator.  They are written
    into the spare rows of the dataset's buffer; when it has too few, a new
    buffer of ``max(new_n, capacity)`` rows takes the old rows first (of
    ``new_n`` rows when the larger one cannot be allocated).  Two
    datasets may share a buffer: rows are a pure function of their index, so
    a row written twice is written with the same bytes.
    """
    if new_n <= dataset.n:
        raise ValidationError(
            f"new_n must exceed the current {dataset.n} rows, got {new_n}")
    n = dataset.n
    buffer = dataset._buffer
    if buffer is None or buffer.shape[0] < new_n:
        p = dataset.instance.n_features
        try:
            buffer = np.empty((max(new_n, capacity), p))
        except MemoryError:   # a budget too large to reserve is not reserved
            buffer = np.empty((new_n, p))
        buffer[:n] = dataset.X
    X_new = buffer[n:new_n]
    y_new, w_new, moments = _draw_query_weigh(model, dataset, X_new)
    return PerturbationDataset(
        X=buffer[:new_n],
        y=np.concatenate([dataset.y, y_new]),
        weights=np.concatenate([dataset.weights, w_new]),
        seed=dataset.seed,
        n=new_n,
        instance=dataset.instance,
        kernel_width=dataset.kernel_width,
        moments=moments,
        _buffer=buffer,
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
