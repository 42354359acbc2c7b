"""Weighted least angle regression with the LASSO drop modification.

Observation weights are folded in up front: row i of the design and response
is scaled by sqrt(weights[i]), each predictor column is centered by its
weighted mean and divided by its Euclidean norm after scaling.  On that
transformed data the plain LARS recursion traces the weighted LASSO
coefficient path, and the inner product of a column with the residual is
exactly the quantity the entry-stability test reasons about.

The solver walks the path breakpoint by breakpoint.  Before every variable
entry an optional observer is shown the current residual and the remaining
candidates ranked by absolute correlation; it may vote to abort, which is how
the adaptive explainer interrupts a path whose next entry is statistically
undecided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import DegenerateInputError, SingularityError, ValidationError

__all__ = [
    "DesignMatrix",
    "StandardizedDesign",
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
        if not np.isfinite(values).all():
            raise ValidationError("design values must be finite")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class StandardizedDesign:
    """Design after weight folding, weighted centering and norm scaling.

    ``base`` holds the transformed values for the retained columns only.
    ``col_means`` are the weighted means that were removed and ``col_norms``
    the Euclidean norms divided out, both aligned with ``base``.  Columns
    whose norm fell below the drop threshold are listed in ``dropped_cols``
    and excluded from the path.  ``retained_idx`` maps each base column back
    to its position in the original design.
    """

    base: DesignMatrix
    col_means: np.ndarray
    col_norms: np.ndarray
    dropped_cols: tuple[str, ...]
    retained_idx: np.ndarray
    original_names: tuple[str, ...]


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
    residual: np.ndarray                       # current residual, read-only
    candidates: tuple[EntryCandidate, ...]     # inactive columns, |c_hat| descending


# An observer returns True to let the entry proceed, False to abort the path.
EntryObserver = Callable[[EntryContext], bool]


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
    residual: np.ndarray
    entry_events: list[tuple[int, str, float]]   # (step, feature, signed c_hat at entry)
    drop_events: list[tuple[int, str]]
    breakpoints: list[PathBreakpoint]
    aborted: bool = False


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


def standardize(design: DesignMatrix, weights: np.ndarray,
                *, scale_columns: bool = True) -> StandardizedDesign:
    """Fold in observation weights and standardize every column.

    Row i is scaled by sqrt(weights[i]); each column is then centered by its
    weighted mean (so the scaled column is orthogonal to the scaled intercept)
    and divided by its Euclidean norm.  Columns that become numerically zero
    are dropped rather than producing garbage directions.

    With ``scale_columns=False`` the centered columns keep their natural
    norms.  Entry order on such a design is driven by inner products rather
    than correlations, which matters when columns are already on a common
    scale and their norm fluctuations are part of the phenomenon under study.

    Weights must be nonnegative and finite with at least two strictly
    positive entries; otherwise no meaningful regression exists.
    """
    w = _check_weights(weights, design.n_rows)
    sqrt_w = np.sqrt(w)
    total = w.sum()
    means = (w @ design.values) / total
    transformed = design.values - means
    transformed *= sqrt_w[:, None]
    norms = np.linalg.norm(transformed, axis=0)

    keep = norms >= _TOL
    retained_idx = np.flatnonzero(keep)
    if retained_idx.size == 0:
        raise DegenerateInputError("every column is constant under the given weights")
    dropped = tuple(name for name, k in zip(design.column_names, keep) if not k)
    kept_names = tuple(design.column_names[i] for i in retained_idx)

    divisor = norms[retained_idx] if scale_columns else np.ones(retained_idx.size)
    # The fancy index yields a Fortran-ordered copy; BLAS products and column
    # norms sum in a layout-dependent order, so the path's bytes depend on it.
    values = transformed[:, retained_idx]
    del transformed
    values /= divisor
    base = DesignMatrix(values=values, column_names=kept_names)
    return StandardizedDesign(
        base=base,
        col_means=means[retained_idx],
        col_norms=divisor,
        dropped_cols=dropped,
        retained_idx=retained_idx,
        original_names=design.column_names,
    )


def transform_response(response: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Apply the matching response transform: sqrt-weight scaling after
    removing the weighted mean.  Pair with :func:`standardize` before calling
    :func:`lars_lasso_path`."""
    y = np.asarray(response, dtype=float)
    w = np.asarray(weights, dtype=float)
    if y.ndim != 1 or y.shape != w.shape:
        raise ValidationError("response and weights must be 1-d vectors of equal length")
    if not np.isfinite(y).all():
        raise ValidationError("response must be finite")
    total = w.sum()
    if total <= 0:
        raise DegenerateInputError("weights sum to zero")
    return np.sqrt(w) * (y - (w @ y) / total)


def lars_lasso_path(design: StandardizedDesign, response: np.ndarray,
                    max_active: int, observer: EntryObserver | None = None) -> PathState:
    """Trace the LASSO path on standardized data until ``max_active`` features.

    ``response`` must already be transformed by :func:`transform_response`.
    One variable enters per outer iteration.  The LASSO drop modification is
    always applied: a coefficient that would cross zero leaves the active set
    at the crossing instead, and the direction is recomputed.  Every completed
    breakpoint is recorded with its implied penalty so the path can be checked
    against a direct penalized solver.

    The observer, when given, is consulted before each entry with the ranked
    inactive candidates; returning False abandons the walk and marks the
    returned state ``aborted``.
    """
    X = design.base.values
    names = design.base.column_names
    n, m = X.shape
    y = np.asarray(response, dtype=float)
    if y.shape != (n,):
        raise ValidationError("response length must match the design")
    if not np.isfinite(y).all():
        raise ValidationError("response must be finite")
    if not (1 <= max_active <= min(n - 1, m)):
        raise ValidationError(
            f"max_active must lie in [1, min(n - 1, p)] = [1, {min(n - 1, m)}], got {max_active}")

    beta = np.zeros(m)
    r = y.copy()
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

    def record(c: np.ndarray) -> None:
        lam = float(np.max(np.abs(c)))
        breakpoints.append(PathBreakpoint(
            beta=expand(beta), lam=lam,
            active=tuple(names[j] for j in active)))

    c = X.T @ r
    record(c)

    while True:
        abs_c = np.abs(c)
        inactive = [j for j in range(m) if j not in active]

        if drop_pending and not active:
            drop_pending = False   # every active column dropped; start over

        if not drop_pending:
            if len(active) >= max_active or not inactive:
                break
            top = float(abs_c[inactive].max())
            if top <= _TOL:
                break  # residual carries no further signal
            ranked = sorted(inactive, key=lambda j: (-abs_c[j], j))
            if observer is not None:
                r_view = r[:]
                r_view.flags.writeable = False
                ctx = EntryContext(
                    step=step + 1,
                    n_active=len(active),
                    residual=r_view,
                    candidates=tuple(
                        EntryCandidate(index=j, name=names[j], c_hat=float(c[j] / n))
                        for j in ranked),
                )
                if not observer(ctx):
                    aborted = True
                    break
            j_new = ranked[0]
            active.append(j_new)
            entry_events.append((step + 1, names[j_new], float(c[j_new] / n)))
        drop_pending = False
        step += 1

        # Equiangular direction over the signed active columns.
        idx = np.asarray(active, dtype=int)
        signs = np.sign(c[idx])
        signs[signs == 0] = 1.0
        XA = X[:, idx] * signs
        gram = XA.T @ XA
        try:
            chol = scipy.linalg.cho_factor(gram, lower=True)
        except scipy.linalg.LinAlgError:
            raise SingularityError(
                "active feature set has a rank-deficient Gram matrix",
                features=tuple(names[j] for j in active)) from None
        ga_inv_one = scipy.linalg.cho_solve(chol, np.ones(len(active)))
        denom = float(ga_inv_one.sum())
        if denom <= 0:
            raise SingularityError(
                "active feature set has a numerically singular Gram matrix",
                features=tuple(names[j] for j in active))
        aa = 1.0 / np.sqrt(denom)
        w_dir = aa * ga_inv_one
        u = XA @ w_dir                       # unit equiangular vector
        a = X.T @ u
        cmax = float(abs_c[idx].max())

        # Step to the next tie among inactive candidates.  A just-dropped
        # column still sits exactly at the tie it left: its zero-length root
        # must be ignored or it would bounce straight back in, but a genuine
        # catch-up later in the same segment is a real re-entry.  For anything
        # else a tie at zero distance is a legitimate co-entry.
        floor = -_TOL * (1.0 + cmax)
        bounce_tol = _TOL * (1.0 + cmax)
        gamma_entry = float("inf")
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

        dropped_now: list[int] = []
        d = signs * w_dir                    # coefficient direction for active columns
        crossing = -beta[idx] / np.where(d != 0, d, np.nan)
        crossing = np.where(np.isfinite(crossing), crossing, np.inf)
        ahead = crossing[crossing > _TOL * (1.0 + min(gamma, gamma_ls))]
        gamma_drop = float(ahead.min()) if ahead.size else float("inf")
        if gamma_drop < gamma:
            gamma = gamma_drop
            rel = _TOL * (1.0 + gamma_drop)
            dropped_now = [active[k] for k in range(len(active))
                           if abs(crossing[k] - gamma_drop) <= rel]

        if not np.isfinite(gamma):
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

        r = y - X @ beta                     # recompute: keeps breakpoints exact
        c = X.T @ r
        record(c)

        if gamma == gamma_ls and not dropped_now:
            break  # reached the least-squares end of the path

    return PathState(
        active_set=[names[j] for j in active],
        beta=expand(beta),
        residual=r,
        entry_events=entry_events,
        drop_events=drop_events,
        breakpoints=breakpoints,
        aborted=aborted,
    )


def refit_least_squares(design: DesignMatrix, response: np.ndarray,
                        weights: np.ndarray, selected: Sequence[str]
                        ) -> tuple[np.ndarray, float]:
    """Weighted least squares on the original scale for the selected columns.

    Returns ``(coefficients, intercept)`` with coefficients aligned with
    ``selected``.  This is the final polish step: the path picks the features,
    the refit reports honest coefficients free of shrinkage.
    """
    if not selected:
        raise ValidationError("selected feature list must be non-empty")
    name_to_idx = {name: i for i, name in enumerate(design.column_names)}
    try:
        cols = [name_to_idx[name] for name in selected]
    except KeyError as exc:
        raise ValidationError(f"unknown feature {exc.args[0]!r}") from None
    if len(set(cols)) != len(cols):
        raise ValidationError("selected features must be distinct")

    y = np.asarray(response, dtype=float)
    if y.shape != (design.n_rows,):
        raise ValidationError("response length must match the design")
    if not np.isfinite(y).all():
        raise ValidationError("response must be finite")
    w = _check_weights(weights, design.n_rows)

    sqrt_w = np.sqrt(w)
    a = np.empty((design.n_rows, len(cols) + 1))
    a[:, 0] = sqrt_w
    a[:, 1:] = sqrt_w[:, None] * design.values[:, cols]
    gram = a.T @ a
    rhs = a.T @ (sqrt_w * y)
    try:
        chol = scipy.linalg.cho_factor(gram, lower=True)
    except scipy.linalg.LinAlgError:
        raise SingularityError(
            "weighted Gram matrix over the selected features is singular",
            features=tuple(selected)) from None
    solution = scipy.linalg.cho_solve(chol, rhs)
    return solution[1:], float(solution[0])
