"""Hypothesis test deciding whether a variable-entry ordering is stable.

At each step of a LASSO path the next variable to enter is the one whose
column is most correlated with the current residual.  With synthetic
perturbation data that correlation is an average of n per-row products
``r_t * x_tj``, so by the central limit theorem the gap between the top two
candidates carries sampling noise of known size.  The test implemented here
asks: if the perturbation data were regenerated from scratch, would the same
variable win again?  When the answer is "not reliably", the companion
sample-size rule says how many rows would be needed.

The moments behind one decision are merged from blocks of per-row products,
one block per slice of rows, as the standardized design yields them
(``StandardizedDesign.residual_products``): :func:`product_covariances`
takes each block's means and centred second moments and merges them by the
pairwise update of Chan, Golub & LeVeque.  Only the variances and the top's
covariance with each rival are kept.  The merge takes one block at a time,
so several decisions can share one pass over the rows.
:func:`product_covariance` is the one-rival case on two ready-made columns.

Conventions: ``_normal_quantile(p)`` is the *upper-tail* quantile, i.e. the z
with ``P(Z > z) = p``, so ``_normal_quantile(0.05) ~= 1.6449``.  It and
``_normal_upper_tail`` come from the standard library (``statistics.NormalDist``
and ``math.erfc``) and keep their relative accuracy deep into the tail: within
1e-14 for p down to 1e-300 and within 1e-12 for z up to 37.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .weighted_lars import _row_blocks

__all__ = [
    "ProductCovariance",
    "TestDecision",
    "product_covariance",
    "product_covariances",
    "entry_test",
    "bonferroni_entry_test",
    "required_sample_size",
]

_DEFAULT_GROWTH_FACTOR = 4.0


def _normal_quantile(p: float) -> float:
    """Upper-tail standard normal quantile: the z with ``P(Z > z) = p``.

    ``_normal_quantile(0.5) == 0``; smaller p gives larger z.  Raises
    :class:`ValidationError` unless ``0 < p < 1``.
    """
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise ValidationError(f"probability must lie strictly in (0, 1), got {p!r}")
    # -inv_cdf(p) rather than inv_cdf(1 - p): keeps full precision for tiny p.
    return -statistics.NormalDist().inv_cdf(p)


def _normal_upper_tail(z: float) -> float:
    """``P(Z > z)`` for a standard normal Z.  Inverse of :func:`_normal_quantile`."""
    if math.isnan(z):
        raise ValidationError("z must not be NaN")
    # erfc rather than 1 - cdf: keeps full precision for large z.
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class ProductCovariance:
    """First and second moments of the per-row products for two candidates.

    ``c1_hat``/``c2_hat`` are the mean products (the candidates' correlations
    with the residual) and ``sigma11``, ``sigma22``, ``sigma12`` the unbiased
    empirical (co)variances of the two product sequences.  ``n`` is the number
    of rows behind the estimate.
    """

    c1_hat: float
    c2_hat: float
    sigma11: float
    sigma22: float
    sigma12: float
    n: int

    @property
    def diff_variance(self) -> float:
        """Variance of the difference of products, clamped to be nonnegative."""
        return max(self.sigma11 + self.sigma22 - 2.0 * self.sigma12, 0.0)


@dataclass(frozen=True)
class TestDecision:
    """Outcome of one entry test.

    ``significant`` means the observed winner would keep winning on freshly
    regenerated data at the requested confidence; equivalently
    ``statistic_t >= 0`` and ``p_value <= alpha``.  When not significant,
    ``recommended_n`` is the sample size at which the test is projected to
    succeed (always > n); when significant it equals the current n.
    """

    statistic_t: float
    p_value: float
    significant: bool
    recommended_n: int
    compared: tuple[str, str]
    n: int
    step: int = 0


def product_covariance(residual: np.ndarray, col_i: np.ndarray,
                       col_j: np.ndarray) -> ProductCovariance:
    """Moments of ``residual * col_i`` versus ``residual * col_j``.

    All three arrays must be 1-d of the same length n >= 2.  Covariances are
    the unbiased (n - 1 denominator) estimates.  This is the one-rival case
    of :func:`product_covariances`, on the two columns as given.
    """
    r = np.asarray(residual, dtype=float)
    a = np.asarray(col_i, dtype=float)
    b = np.asarray(col_j, dtype=float)
    if r.ndim != 1 or a.shape != r.shape or b.shape != r.shape:
        raise ValidationError("residual and both columns must be 1-d arrays of equal length")
    if not (np.isfinite(r).all() and np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("residual and columns must be finite")
    blocks = (np.stack((a[rows], b[rows])) * r[rows] for rows in _row_blocks(r.size))
    return product_covariances(blocks, np.ones(2))[0]


def product_covariances(blocks: Iterable[np.ndarray], signs: np.ndarray
                        ) -> list[ProductCovariance]:
    """Moments of the top column's residual products against each rival's,
    merged over ``blocks`` of rows.

    Each block is a q x rows array of per-row products, row 0 the top's and
    every later row a rival's, as
    :meth:`~slime.weighted_lars.StandardizedDesign.residual_products` yields
    them; the blocks are centred in place.  Returns one
    :class:`ProductCovariance` per rival, pairing the top (``c1_hat``,
    ``sigma11``) with it.  The blocks are merged one at a time by
    :class:`_ProductMerge`, so the pass costs O(n * q).  ``signs[k]`` flips
    product row k, applied to the sums.  Fewer than two rows raise
    :class:`DegenerateInputError`, as do moments that are not finite
    because the products or their squares overflow.
    """
    merge = _ProductMerge()
    # The blocks' own arithmetic runs as they are drawn, under this state.
    with np.errstate(over="ignore", invalid="ignore"):
        for prod in blocks:
            merge.add(_ProductMerge.block(prod))
    return merge.covariances(signs)


class _ProductMerge:
    """The moments of residual products, merged a block of rows at a time.

    :meth:`block` gives one block's means and centred second moments, on
    any thread; :meth:`add` merges them, in block order, by the pairwise
    update of Chan, Golub & LeVeque (1979), so every sum is about a mean.
    Only the variances and the top's cross-moment with each rival are
    kept.  Several merges can share one pass over the rows, one per entry.
    """

    def __init__(self):
        self.n = self.mean = self.sq = self.cross = 0

    @staticmethod
    def block(prod: np.ndarray) -> tuple:
        """The size, means and centred sums of squares and of cross products
        with row 0 of one q x rows block of products, centred in place."""
        with np.errstate(over="ignore", invalid="ignore"):
            size = prod.shape[1]
            mean = prod.sum(axis=1) / size
            prod -= mean[:, None]
            return size, mean, (prod * prod).sum(axis=1), (prod[1:] * prod[0]).sum(axis=1)

    def add(self, block: tuple) -> None:
        """Merge a block's moments, as :meth:`block` gives them."""
        size, block_mean, sq, cross = block
        n = self.n
        with np.errstate(over="ignore", invalid="ignore"):
            delta = block_mean - self.mean
            weight = n * size / (n + size)
            self.mean = self.mean + delta * (size / (n + size))
            self.sq = self.sq + sq + delta * delta * weight
            self.cross = self.cross + cross + delta[1:] * delta[0] * weight
        self.n = n + size

    def covariances(self, signs: np.ndarray) -> list[ProductCovariance]:
        """One :class:`ProductCovariance` per rival, with product row k
        flipped by ``signs[k]``; raises as :func:`product_covariances`."""
        n, mean, sq, cross = self.n, self.mean, self.sq, self.cross
        if n < 2:
            raise DegenerateInputError("product covariance needs at least 2 rows")
        if not (np.isfinite(mean).all() and np.isfinite(sq).all() and np.isfinite(cross).all()):
            raise DegenerateInputError(
                "the entry test's moments are not finite: the residual's products "
                "with the columns overflow the float range")
        mean = (mean * signs).tolist()
        sq = (sq / (n - 1)).tolist()
        cross = (cross * (signs[1:] * signs[0]) / (n - 1)).tolist()
        return [ProductCovariance(c1_hat=mean[0], c2_hat=mean[k], sigma11=sq[0],
                                  sigma22=sq[k], sigma12=cross[k - 1], n=n)
                for k in range(1, len(mean))]


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 0.5):
        raise ValidationError(f"alpha must lie strictly in (0, 0.5), got {alpha!r}")


def _check_growth_factor(growth_factor: float) -> None:
    if not (math.isfinite(growth_factor) and growth_factor >= 2.0):
        raise ValidationError(f"growth_factor must be finite and >= 2, got {growth_factor!r}")


def _pair_p_value(cov: ProductCovariance) -> float:
    """Upper-tail p-value for 'candidate 1 beats candidate 2 on fresh data'.

    The factor 2 in the variance accounts for the comparison being made
    against an independent regeneration of the same size, not against the
    truth.  Degenerate zero-variance inputs get p = 0 (strict gap) or
    p = 0.5 (exact tie).
    """
    gap = cov.c1_hat - cov.c2_hat
    var = cov.diff_variance
    if var == 0.0:
        return 0.0 if gap > 0 else 0.5
    z = math.sqrt(cov.n) * gap / math.sqrt(2.0 * var)
    return _normal_upper_tail(z)


def entry_test(cov: ProductCovariance, alpha: float, *,
               compared: tuple[str, str] = ("c1", "c2"), step: int = 0,
               growth_factor: float = _DEFAULT_GROWTH_FACTOR) -> TestDecision:
    """Test whether the leading candidate's win would survive regeneration.

    Requires ``cov.c1_hat >= cov.c2_hat`` (order the candidates, negating
    columns with negative correlation, before calling).  The statistic is

        t = (c1 - c2) - z_alpha * sqrt(2 * var_diff / n)

    and the decision is significant exactly when ``t >= 0``.  With a zero
    standard error and a zero gap the comparison is undecidable at any sample
    size; that corner reports ``t = -inf``, ``p = 0.5``, not significant.
    """
    _check_alpha(alpha)
    gap = cov.c1_hat - cov.c2_hat
    if gap < 0:
        raise ValidationError("c1_hat must be >= c2_hat; order the candidates first")
    # Branch on se, not the variance: a subnormal variance still gives se == 0.
    se = math.sqrt(2.0 * cov.diff_variance / cov.n)
    if se == 0.0:
        t, p = (gap, 0.0) if gap > 0 else (float("-inf"), 0.5)
    else:
        t, p = gap - _normal_quantile(alpha) * se, _pair_p_value(cov)
    return _decision(t, p, t >= 0.0, cov.n, p, alpha, compared, step, growth_factor)


def bonferroni_entry_test(covs: Sequence[ProductCovariance], alpha: float, *,
                          compared_names: Sequence[tuple[str, str]],
                          step: int = 0,
                          growth_factor: float = _DEFAULT_GROWTH_FACTOR) -> TestDecision:
    """Compare the top candidate against every remaining one at once.

    Each entry of ``covs`` pairs the same leading candidate with one
    competitor.  The per-pair p-values are summed and the entry is declared
    significant when the sum stays below alpha (a union bound, so the family
    error rate is at most alpha).  On failure the recommended sample size is
    driven by the hardest competitor: the largest per-pair p-value tested
    against alpha / (number of competitors).

    ``compared_names[k]`` names pair k, and ``compared`` on the returned
    decision names the hardest pair.
    """
    _check_alpha(alpha)
    if not covs:
        raise ValidationError("at least one covariance pair is required")
    n = covs[0].n
    for cov in covs:
        if cov.n != n:
            raise ValidationError("all covariance pairs must share the same n")
        if cov.c1_hat < cov.c2_hat:
            raise ValidationError("c1_hat must be >= c2_hat in every pair")
    p_values = [_pair_p_value(cov) for cov in covs]
    total = sum(p_values)
    worst = int(np.argmax(p_values))
    # alpha - total plays the role of the t statistic: nonnegative exactly
    # when the summed evidence clears the bar (up to the measure-zero tie).
    return _decision(alpha - total, min(total, 1.0), total < alpha, n,
                     p_values[worst], alpha / len(covs), compared_names[worst],
                     step, growth_factor)


def _decision(statistic: float, p_value: float, significant: bool, n: int,
              sizing_p: float, sizing_alpha: float, compared: Sequence[str],
              step: int, growth_factor: float) -> TestDecision:
    """The one constructor of a :class:`TestDecision`.  An insignificant
    entry recommends the size :func:`required_sample_size` projects from
    ``sizing_p`` against ``sizing_alpha``; a significant one keeps n."""
    recommended = n if significant else required_sample_size(
        n, sizing_p, sizing_alpha, growth_factor=growth_factor)
    return TestDecision(statistic_t=float(statistic), p_value=float(p_value),
                        significant=significant, recommended_n=recommended,
                        compared=tuple(compared), n=n, step=step)


def required_sample_size(n: int, p_value: float, alpha: float, *,
                         growth_factor: float = _DEFAULT_GROWTH_FACTOR) -> int:
    """Sample size projected to turn an insignificant entry test around.

    Solves ``sqrt(n / n') = z_{p} / z_{alpha}`` for n', i.e.
    ``n' = ceil(n * (z_alpha / z_p)**2)``, where p is the observed p-value.
    The result is forced to at least n + 1 so the adaptive loop always makes
    progress.  For p >= 0.5 the normal quantile is no longer positive and the
    projection is meaningless; in that regime the sample is simply grown by
    ``growth_factor``.
    """
    if n < 1:
        raise ValidationError(f"n must be a positive count, got {n!r}")
    _check_alpha(alpha)
    if not (0.0 <= p_value <= 1.0):
        raise ValidationError(f"p_value must lie in [0, 1], got {p_value!r}")
    _check_growth_factor(growth_factor)
    if p_value >= 0.5:
        # A product past the float range is held at the largest float: the caller caps it.
        return max(math.ceil(min(growth_factor * n, sys.float_info.max)), n + 1)
    if p_value == 0.0:
        # Already overwhelming evidence; only the progress floor applies.
        return n + 1
    ratio = _normal_quantile(alpha) / _normal_quantile(p_value)
    return max(int(math.ceil(n * ratio * ratio)), n + 1)
