"""Weighted least angle regression with the LASSO drop modification.

Observation weights are folded in up front: row i of the design and response
is scaled by sqrt(weights[i]), each predictor column is centered by its
weighted mean and divided by its Euclidean norm after scaling.  On that
transformed data the plain LARS recursion traces the weighted LASSO
coefficient path, and the inner product of a column with the residual is
exactly the quantity the entry-stability test reasons about.

Standardization works from weighted moments of the rows about a fixed shift
(:class:`WeightedMoments`: the sums of w, w*u and w*u*u^T with u = x - shift),
and of the responses about a fixed pilot value (the sums of w*y' and w*u*y'
with y' = y - pilot).  They add up across rows, so a sample that grows can
carry them along and pay only for its new rows; standardizing is then p x p
algebra: the weighted means, the norms, the Gram matrix of the transformed
columns, their correlations with the transformed response and the
response's weighted mean.  :func:`standardize` is the one place that folds
the response in, as it folds in the weights.  The transformed n x p matrix
is never stored on the solver's path: ``StandardizedDesign.residual_products``
builds the entry gate's products from the raw sample a block of rows at a
time, so no other module knows the column format, and
``StandardizedDesign.base`` builds every column, lazily, for callers that
want the whole matrix.  Both read the raw rows a block at a time through
``DesignMatrix._map_blocks``, from the stored values or, for a sample that
keeps only some columns, from whatever source its design draws them from.

The solver walks the path breakpoint by breakpoint in covariance form
(Efron, Hastie, Johnstone & Tibshirani 2004, section 7): every step works on
the Gram matrix and on the correlations with the response, so the walk
reads no row of the sample.  Before each entry an optional observer is shown
the current coefficients and the remaining candidates ranked by absolute
correlation.  The observer may vote to abort, which is how the adaptive
explainer interrupts a path whose next entry is statistically undecided.
Each step solves its p x p systems with numpy and does its scalar work (the
ranking, the ties, the zero crossings and the penalty) on Python floats.

The refit after the path solves the selected block of the same Gram against
the same correlations, takes the intercept from the same moments and reads
no row of the sample.  :func:`transform_response` is the response transform
written out over the rows, for callers that want it as a vector.  The path's
equiangular direction and the refit solve their positive-definite systems
with numpy alone: a Cholesky factor, then a solve with the factor and one
with its transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import DegenerateInputError, SingularityError, ValidationError

__all__ = [
    "DesignMatrix",
    "StandardizedDesign",
    "WeightedMoments",
    "EntryCandidate",
    "EntryContext",
    "PathBreakpoint",
    "PathState",
    "standardize",
    "transform_response",
    "lars_lasso_path",
    "refit_least_squares",
]

# One floor for three tests: a column with a smaller norm is dropped, the path
# stops once no correlation exceeds it, and scaled by a step's size it
# separates a real step from rounding noise.
_TOL = 1e-12

# Rows per block of the passes that stream an n x p sample: enough for BLAS
# to run at speed, few enough that a block's temporaries are small next to
# the sample.
_ROW_BLOCK = 4096


_T = TypeVar("_T")


def _row_blocks(n: int) -> Iterator[slice]:
    """Slices of at most ``_ROW_BLOCK`` rows that cover rows 0..n-1."""
    return (slice(lo, min(lo + _ROW_BLOCK, n)) for lo in range(0, n, _ROW_BLOCK))


def _all_finite(values: np.ndarray) -> bool:
    """``np.isfinite(values).all()`` for a 2-d array, scanned a block of rows
    at a time so that no mask as large as the array is built."""
    return all(np.isfinite(values[rows]).all() for rows in _row_blocks(values.shape[0]))


@dataclass(frozen=True)
class DesignMatrix:
    """A dense feature matrix with named columns, immutable once built."""

    values: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if values.ndim != 2:
            raise ValidationError("design values must be a 2-d array")
        n, p = values.shape
        if n < 2:
            raise ValidationError(f"design needs at least 2 rows, got {n}")
        if p < 1:
            raise ValidationError("design needs at least 1 column")
        if len(self.column_names) != p:
            raise ValidationError("column_names length must match the number of columns")
        if len(set(self.column_names)) != p:
            raise ValidationError("column names must be unique")
        if not _all_finite(values):
            raise ValidationError("design values must be finite")

    @classmethod
    def _trusted(cls, values: np.ndarray, column_names: tuple[str, ...]) -> "DesignMatrix":
        """A design over values known to be a finite float matrix, such as
        the sampler's rows, built without the checks meant for outside input
        (the finiteness scan reads every entry)."""
        design = object.__new__(cls)
        object.__setattr__(design, "values", values)
        object.__setattr__(design, "column_names", column_names)
        return design

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return len(self.column_names)

    def _keeps(self, columns: Sequence[int]) -> bool:
        """Whether a pass that reads only ``columns`` reads no row drawn
        again: a design that stores its values keeps every column."""
        return True

    def _map_blocks(self, task: Callable[[slice, np.ndarray], _T],
                    columns: Sequence[int] | None = None) -> Iterator[_T]:
        """``task(rows, values)`` over each :func:`_row_blocks` block of rows,
        ``values`` being those rows, in block order; ``columns``, when given,
        are the only columns the task reads.  The one place the
        standardized design reads rows from."""
        return (task(rows, self.values[rows]) for rows in _row_blocks(self.n_rows))


@dataclass
class WeightedMoments:
    """Running weighted sums of sample rows about a fixed ``shift``, and of
    their responses about a fixed ``pilot``.

    Over the rows added so far, with u = x - shift and y' = y - pilot:
    ``total`` is the sum of w, ``first`` the sum of w*u, ``second`` the sum
    of w*u*u^T, ``response`` the sum of w*y' and ``cross`` the sum of
    w*u*y'.  The shifts keep the sums well conditioned when the rows sit far
    from zero but close together; the sampler shifts by the instance, the
    centre its rows are drawn around.  The pilot is the first response,
    fixed when it arrives and kept through growth: a constant response is
    then exactly zero about it, at any magnitude.
    """

    shift: np.ndarray
    total: float
    first: np.ndarray
    second: np.ndarray
    pilot: float
    response: float
    cross: np.ndarray

    @classmethod
    def about(cls, shift: np.ndarray, y: np.ndarray) -> "WeightedMoments":
        """No rows yet; ``y`` holds the responses of the first rows to come,
        and its first entry becomes the pilot."""
        p = shift.size
        return cls(shift=shift, total=0.0, first=np.zeros(p), second=np.zeros((p, p)),
                   pilot=float(y[0]) if y.size else 0.0, response=0.0,
                   cross=np.zeros(p))

    @classmethod
    def of(cls, X: np.ndarray, weights: np.ndarray, shift: np.ndarray,
           y: np.ndarray) -> "WeightedMoments":
        """The moments of every row of X and of its responses ``y``, in one
        blocked pass."""
        moments = cls.about(shift, y)
        for rows in _row_blocks(X.shape[0]):
            moments.add(moments.block_sums(X[rows] - shift, weights[rows], y[rows]))
        return moments

    def block_sums(self, u: np.ndarray, w: np.ndarray, y: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, float, float, np.ndarray]:
        """The sums ``(second, first, total, response, cross)`` of one block
        of rows ``u`` (already shifted) with weights ``w`` and responses
        ``y``.  Scales ``u`` by sqrt(w) in place.  An overflow is left for
        :func:`standardize` to report."""
        with np.errstate(over="ignore", invalid="ignore"):
            first = w @ u
            root = np.sqrt(w)
            u *= root[:, None]
            y = y - self.pilot
            return u.T @ u, first, float(w.sum()), float(w @ y), u.T @ (root * y)

    def add(self, sums: tuple[np.ndarray, np.ndarray, float, float, np.ndarray]) -> None:
        """Add the sums of a block, as :meth:`block_sums` returns them.
        Blocks added in the same order give the same bytes."""
        second, first, total, response, cross = sums
        self.second += second
        self.first += first
        self.total += total
        self.response += response
        self.cross += cross

    def copy(self) -> "WeightedMoments":
        return WeightedMoments(
            shift=self.shift, total=self.total, first=self.first.copy(),
            second=self.second.copy(), pilot=self.pilot, response=self.response,
            cross=self.cross.copy())


@dataclass(frozen=True)
class StandardizedDesign:
    """Design after weight folding, weighted centering and norm scaling.

    The transformed columns are not stored.  Column j is ``(x -
    col_means[j]) * sqrt_weights / col_norms[j]`` over the raw ``sample``'s
    column ``retained_idx[j]``; ``gram`` is their p x p Gram matrix.  ``col_means`` and
    ``col_norms`` (the weighted means removed and the Euclidean norms
    divided out) are aligned with the retained columns.  Columns whose norm
    fell below the drop threshold are listed in ``dropped_cols`` and
    excluded from the path; ``retained_idx`` maps each retained column back
    to its position in the original design.  ``response`` is the caller's
    response, ``response_mean`` its weighted mean and ``xty`` the retained
    columns' correlations with the transformed response, sqrt(w) * (y -
    response_mean); the last two come from the weighted moments.
    """

    sample: DesignMatrix
    sqrt_weights: np.ndarray
    gram: np.ndarray
    col_means: np.ndarray
    col_norms: np.ndarray
    dropped_cols: tuple[str, ...]
    retained_idx: np.ndarray
    xty: np.ndarray
    response: np.ndarray
    response_mean: float

    @property
    def original_names(self) -> tuple[str, ...]:
        return self.sample.column_names

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.original_names[i] for i in self.retained_idx)

    @property
    def n_rows(self) -> int:
        return self.sample.n_rows

    def _columns(self, values: np.ndarray, columns: Sequence[int] | slice,
                 scale: np.ndarray) -> np.ndarray:
        """The retained ``columns`` over a block of raw rows ``values`` in
        the column format, times a per-row ``scale``: ``(x - mean) * scale /
        norm``, with ``scale`` the rows' sqrt_weights for the columns
        themselves.  A ``len(columns)`` x rows block, so each column's sums
        run along a contiguous row.  The one place that knows the column
        format."""
        block = values.T[self.retained_idx[columns]]
        block -= self.col_means[columns][:, None]
        block *= scale
        block /= self.col_norms[columns][:, None]
        return block

    @cached_property
    def base(self) -> DesignMatrix:
        """Every retained column, built once, in Fortran order so that each
        column is contiguous.  The path solver never reads it."""
        values = np.empty((self.retained_idx.size, self.n_rows))

        def fill(rows: slice, block: np.ndarray) -> None:
            values[:, rows] = self._columns(block, slice(None), self.sqrt_weights[rows])

        for _ in self.sample._map_blocks(fill):
            pass
        return DesignMatrix._trusted(values.T, self.column_names)

    def residual_products(self, beta: np.ndarray, columns: Sequence[int]
                          ) -> Iterator[np.ndarray]:
        """The residual's products with the retained ``columns``, one
        ``len(columns)`` x rows block per :func:`_row_blocks` block: row k
        of a block is column ``columns[k]`` times the residual
        ``sqrt_weights * (response - response_mean) - base.values @ beta``
        over those rows.  The residual is built inside each block from the
        columns where beta is nonzero and is never held whole."""
        return self.sample._map_blocks(self._residual_block(beta, columns),
                                       self._residual_reads(beta, columns))

    def _residual_reads(self, beta: np.ndarray, columns: Sequence[int]) -> np.ndarray:
        """The raw sample's columns that :meth:`residual_products` reads, in
        order.  A mask, not numpy's set routines, whose first call imports
        ``numpy.ma``."""
        reads = beta != 0
        reads[columns] = True
        return self.retained_idx[reads]

    def _residual_block(self, beta: np.ndarray, columns: Sequence[int]
                        ) -> Callable[[slice, np.ndarray], np.ndarray]:
        """The block of :meth:`residual_products` over given rows, as a
        function of the rows and their raw values."""
        active = np.flatnonzero(beta)
        cols, means = self.retained_idx[active], self.col_means[active]
        coef = beta[active] / self.col_norms[active]

        def products(rows: slice, values: np.ndarray) -> np.ndarray:
            root = self.sqrt_weights[rows]
            r = root * (self.response[rows] - self.response_mean)
            r -= root * ((values[:, cols] - means) @ coef)
            return self._columns(values, columns, r * root)

        return products


@dataclass(frozen=True)
class EntryCandidate:
    index: int      # column index within the retained design
    name: str
    c_hat: float    # signed correlation (1/n) <residual, column>


@dataclass(frozen=True)
class EntryContext:
    """What an observer sees just before a variable enters the path."""

    step: int                                  # 1-based entry counter
    n_active: int                              # active set size before this entry
    beta: np.ndarray                           # retained coefficients, read-only
    candidates: tuple[EntryCandidate, ...]     # inactive columns, |c_hat| descending


# An observer returns True to let the entry proceed, False to abort the path.
_EntryObserver = Callable[[EntryContext], bool]


@dataclass(frozen=True)
class PathBreakpoint:
    """Path state at one breakpoint, for oracle comparison and diagnostics."""

    beta: np.ndarray              # coefficients on the standardized scale, full length
    lam: float                    # implied penalty: n * (common absolute correlation)
    active: tuple[str, ...]


@dataclass
class PathState:
    """Everything the path solver learned, entry order included."""

    active_set: list[str]
    beta: np.ndarray
    entry_events: list[tuple[int, str, float]]   # (step, feature, signed c_hat at entry)
    drop_events: list[tuple[int, str]]
    breakpoints: list[PathBreakpoint]
    aborted: bool = False

    def _aborted_before(self, step: int) -> "PathState":
        """The state this walk would have ended in had its observer refused
        entry ``step``: the walk is the same up to that entry, which comes
        after ``step`` recorded breakpoints."""
        last = self.breakpoints[step - 1]
        return PathState(
            active_set=list(last.active), beta=last.beta,
            entry_events=[e for e in self.entry_events if e[0] < step],
            drop_events=[d for d in self.drop_events if d[0] < step],
            breakpoints=self.breakpoints[:step], aborted=True)


def _check_weights(weights: np.ndarray, n: int) -> np.ndarray:
    """Observation weights as floats: n of them, finite, nonnegative, two positive."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValidationError("weights must be a vector with one entry per design row")
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValidationError("weights must be finite and nonnegative")
    if int((w > 0).sum()) < 2:
        raise DegenerateInputError("need at least two rows with positive weight")
    return w


def _check_response(response: np.ndarray, n: int) -> np.ndarray:
    """The response as floats: n of them, all finite."""
    y = np.asarray(response, dtype=float)
    if y.shape != (n,):
        raise ValidationError("response length must match the design")
    if not np.isfinite(y).all():
        raise ValidationError("response must be finite")
    return y


def _spd_solve(a: np.ndarray, b: np.ndarray, message: str,
               features: tuple[str, ...]) -> np.ndarray:
    """Solve ``a x = b`` for symmetric positive-definite ``a``: a Cholesky
    factor, then one solve with it and one with its transpose.  Raises
    ``SingularityError(message, features=features)`` when ``a`` is not
    positive definite."""
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SingularityError(message, features=features) from None
    return np.linalg.solve(low.T, np.linalg.solve(low, b))


def standardize(design: DesignMatrix, weights: np.ndarray, response: np.ndarray, *,
                scale_columns: bool = True,
                moments: WeightedMoments | None = None) -> StandardizedDesign:
    """Fold in observation weights and standardize every column and the response.

    Row i is scaled by sqrt(weights[i]); each column is then centered by its
    weighted mean (so the scaled column is orthogonal to the scaled intercept)
    and divided by its Euclidean norm.  Columns that become numerically zero
    are dropped rather than producing garbage directions.  The Gram matrix of
    the retained columns is formed here, once, for :func:`lars_lasso_path`,
    from the weighted moments of the rows and their responses: ``moments``
    when the caller has accumulated them over exactly these rows, weights
    and responses, else from one blocked pass.  The responses' weighted mean
    and the columns' correlations with the transformed response come from
    the same moments, as ``pilot + sum w*y' / sum w`` and ``xty_j = (sum
    w*u_j*y' - sum w*u_j * sum w*y' / sum w) / norm_j``; the response itself
    is kept, not copied, for the gate's residual products.

    With ``scale_columns=False`` the centered columns keep their natural
    norms.  Entry order on such a design is driven by inner products rather
    than correlations, which matters when columns are already on a common
    scale and their norm fluctuations are part of the phenomenon under study.

    Weights must be nonnegative and finite with at least two strictly
    positive entries; otherwise no meaningful regression exists.  The
    response must be finite with one entry per row.  Moments whose means,
    Gram matrix, correlations or response mean are not finite raise
    :class:`DegenerateInputError`.
    """
    w = _check_weights(weights, design.n_rows)
    y = _check_response(response, design.n_rows)
    if moments is None:
        # About the first block's mean the sums are as accurate as about the
        # weighted mean; a constant column still comes out zero to rounding.
        moments = WeightedMoments.of(design.values, w,
                                     design.values[:_ROW_BLOCK].mean(axis=0), y)
    with np.errstate(over="ignore", invalid="ignore"):
        means = moments.shift + moments.first / moments.total
        gram = moments.second - np.outer(moments.first, moments.first) / moments.total
        norms = np.sqrt(np.maximum(np.diag(gram), 0.0))
        keep = norms >= _TOL
        divisor = norms[keep] if scale_columns else np.ones(int(keep.sum()))
        xty = (moments.cross - moments.first * (moments.response / moments.total)
               )[keep] / divisor
        response_mean = moments.pilot + moments.response / moments.total
    # Checked before the drop test: a NaN norm would pass for a constant.
    if not (np.isfinite(means).all() and np.isfinite(gram).all()
            and np.isfinite(xty).all() and math.isfinite(response_mean)):
        raise DegenerateInputError(
            "the weighted moments are not finite: the sample's spread or its "
            "responses overflow the float range")

    retained_idx = np.flatnonzero(keep)
    if retained_idx.size == 0:
        raise DegenerateInputError("every column is constant under the given weights")
    dropped = tuple(name for name, k in zip(design.column_names, keep) if not k)
    return StandardizedDesign(
        sample=design,
        sqrt_weights=np.sqrt(w),
        gram=gram[np.ix_(retained_idx, retained_idx)] / np.outer(divisor, divisor),
        col_means=means[retained_idx],
        col_norms=divisor,
        dropped_cols=dropped,
        retained_idx=retained_idx,
        xty=xty,
        response=y,
        response_mean=response_mean,
    )


def transform_response(response: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Apply the matching response transform: sqrt-weight scaling after
    removing the weighted mean.  Pair with :func:`standardize` before calling
    :func:`lars_lasso_path`."""
    y = np.asarray(response, dtype=float)
    w = _check_weights(weights, y.size)
    y = _check_response(y, y.size)
    return np.sqrt(w) * (y - (w @ y) / w.sum())


def lars_lasso_path(design: StandardizedDesign, max_active: int,
                    observer: _EntryObserver | None = None) -> PathState:
    """Trace the LASSO path on standardized data until ``max_active`` features.

    The walk reads only the Gram matrix and ``design.xty``, the
    correlations with the transformed response, so it reads no row of the
    sample.  One variable enters
    per outer iteration.  The LASSO drop modification is always applied: a
    coefficient that would cross zero leaves the active set at the crossing
    instead, and the direction is recomputed.  Every completed breakpoint is
    recorded with its implied penalty so the path can be checked against a
    direct penalized solver.

    The observer, when given, is consulted before each entry with the ranked
    inactive candidates and a read-only copy of the coefficients; returning
    False abandons the walk and marks the returned state ``aborted``.
    """
    gram, xty = design.gram, design.xty
    names = design.column_names
    n, m = design.n_rows, gram.shape[0]
    if not (1 <= max_active <= min(n - 1, m)):
        raise ValidationError(
            f"max_active must lie in [1, min(n - 1, p)] = [1, {min(n - 1, m)}], got {max_active}")

    beta = np.zeros(m)
    active: list[int] = []
    entry_events: list[tuple[int, str, float]] = []
    drop_events: list[tuple[int, str]] = []
    breakpoints: list[PathBreakpoint] = []
    aborted = False
    just_dropped: set[int] = set()
    drop_pending = False
    step = 0

    def expand(b: np.ndarray) -> np.ndarray:
        full = np.zeros(len(design.original_names))
        full[design.retained_idx] = b
        return full

    # The scalar work of a step (ranking, ties, crossings, the penalty) runs
    # on Python floats taken from the arrays once per step.
    c = xty.tolist()
    abs_c = [abs(v) for v in c]

    def record() -> None:
        breakpoints.append(PathBreakpoint(
            beta=expand(beta), lam=max(abs_c),
            active=tuple(names[j] for j in active)))

    record()

    while True:
        inactive = [j for j in range(m) if j not in active]

        if drop_pending and not active:
            drop_pending = False   # every active column dropped; start over

        if not drop_pending:
            if len(active) >= max_active or not inactive:
                break
            ranked = sorted(inactive, key=lambda j: (-abs_c[j], j))
            if abs_c[ranked[0]] <= _TOL:
                break  # residual carries no further signal
            if observer is not None:
                b = beta.copy()
                b.flags.writeable = False
                ctx = EntryContext(
                    step=step + 1,
                    n_active=len(active),
                    beta=b,
                    candidates=tuple(
                        EntryCandidate(index=j, name=names[j], c_hat=c[j] / n)
                        for j in ranked),
                )
                if not observer(ctx):
                    aborted = True
                    break
            j_new = ranked[0]
            active.append(j_new)
            entry_events.append((step + 1, names[j_new], c[j_new] / n))
        drop_pending = False
        step += 1

        # Equiangular direction over the signed active columns.
        idx = np.asarray(active, dtype=int)
        signs = np.array([-1.0 if c[j] < 0 else 1.0 for j in active])
        ga_inv_one = _spd_solve(gram[idx[:, None], idx] * (signs[:, None] * signs),
                                np.ones(len(active)),
                                "active feature set has a rank-deficient Gram matrix",
                                tuple(names[j] for j in active))
        denom = float(ga_inv_one.sum())
        if denom <= 0:
            raise SingularityError(
                "active feature set has a numerically singular Gram matrix",
                features=tuple(names[j] for j in active))
        aa = 1.0 / math.sqrt(denom)
        d = signs * aa * ga_inv_one          # coefficient direction for active columns
        a = (gram[:, idx] @ d).tolist()      # correlations with the unit equiangular vector
        cmax = max(abs_c[j] for j in active)

        # Step to the next tie among inactive candidates.  A just-dropped
        # column still sits exactly at the tie it left: its zero-length root
        # must be ignored or it would bounce straight back in, but a genuine
        # catch-up later in the same segment is a real re-entry.  For anything
        # else a tie at zero distance is a legitimate co-entry.
        floor = -_TOL * (1.0 + cmax)
        bounce_tol = _TOL * (1.0 + cmax)
        gamma_entry = math.inf
        for j in inactive:
            guard_bounce = j in just_dropped
            for num, den in ((cmax - c[j], aa - a[j]), (cmax + c[j], aa + a[j])):
                if den <= _TOL * (1.0 + aa):
                    continue
                g = num / den
                if guard_bounce and g <= bounce_tol:
                    continue
                if g > floor:
                    gamma_entry = min(gamma_entry, max(g, 0.0))
        gamma_ls = cmax / aa                 # full least squares on the active set
        gamma = min(gamma_entry, gamma_ls)

        # Where each active coefficient would cross zero along the direction;
        # an overflow to -inf is never ahead, one to +inf never the nearest.
        crossing = [-b / dk if dk != 0 else math.inf
                    for b, dk in zip(beta[idx].tolist(), d.tolist())]
        ahead_floor = _TOL * (1.0 + min(gamma, gamma_ls))
        gamma_drop = min((x for x in crossing if x > ahead_floor), default=math.inf)
        dropped_now: list[int] = []
        if gamma_drop < gamma:
            gamma = gamma_drop
            rel = _TOL * (1.0 + gamma_drop)
            dropped_now = [active[k] for k in range(len(active))
                           if abs(crossing[k] - gamma_drop) <= rel]

        if not math.isfinite(gamma):
            break  # no admissible move remains

        beta[idx] += gamma * d
        if dropped_now:
            for j in dropped_now:
                beta[j] = 0.0
                active.remove(j)
                drop_events.append((step, names[j]))
            just_dropped = set(dropped_now)
            drop_pending = True
        elif gamma > _TOL * (1.0 + cmax):
            just_dropped = set()

        # From scratch: keeps breakpoints exact.
        c = (xty - gram @ beta).tolist()
        abs_c = [abs(v) for v in c]
        record()

        if gamma == gamma_ls and not dropped_now:
            break  # reached the least-squares end of the path

    return PathState(
        active_set=[names[j] for j in active],
        beta=expand(beta),
        entry_events=entry_events,
        drop_events=drop_events,
        breakpoints=breakpoints,
        aborted=aborted,
    )


def refit_least_squares(design: StandardizedDesign, selected: Sequence[str]
                        ) -> tuple[np.ndarray, float]:
    """Weighted least squares on the original scale for the selected columns.

    Returns ``(coefficients, intercept)`` with coefficients aligned with
    ``selected``.  This is the final polish step: the path picks the features,
    the refit reports honest coefficients free of shrinkage.

    Centred like the path, it reads no row of the sample: the solve runs on
    the selected block of ``design.gram`` against ``design.xty``, and the
    column norms, the weighted means and ``design.response_mean`` give back
    the original scale and the intercept.
    """
    if not selected:
        raise ValidationError("selected feature list must be non-empty")
    position = {name: j for j, name in enumerate(design.column_names)}
    try:
        idx = [position[name] for name in selected]
    except KeyError as exc:
        raise ValidationError(f"unknown feature {exc.args[0]!r}") from None
    if len(set(idx)) != len(idx):
        raise ValidationError("selected features must be distinct")
    b = _spd_solve(design.gram[np.ix_(idx, idx)], design.xty[idx],
                   "weighted Gram matrix over the selected features is singular",
                   tuple(selected))
    coef = b / design.col_norms[idx]
    return coef, float(design.response_mean - design.col_means[idx] @ coef)
