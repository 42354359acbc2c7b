"""Independent reference implementations used only by the tests.

Everything here is written from first principles with a different algorithm
than the library uses, so agreement is evidence of correctness rather than
of shared bugs: the LASSO oracle iterates coordinate descent instead of
walking the path, the quantile oracle bisects mpmath's erfc instead of
calling scipy, covariance is the classic two-pass formula, local slopes
of a smooth function come from Gauss-Hermite quadrature rather than any
regression, and the builtin model surfaces are evaluated one scalar point at
a time instead of as a batch.
"""

from __future__ import annotations

from typing import Sequence

import mpmath
import numpy as np

from slime.errors import ValidationError


def eval_mars(x: Sequence[float]) -> float:
    """The five-feature benchmark surface, one point at a time:
    ``10 sin(pi x1 x2) + 20 (x3 - 0.05)^2 + 5.2 x4 + 5 x5``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (5,):
        raise ValidationError("mars surface takes exactly 5 features")
    return float(10.0 * np.sin(np.pi * x[0] * x[1])
                 + 20.0 * (x[2] - 0.05) ** 2 + 5.2 * x[3] + 5.0 * x[4])


def eval_linear(x: Sequence[float], coefficients: Sequence[float],
                intercept: float = 0.0) -> float:
    x = np.asarray(x, dtype=float)
    c = np.asarray(coefficients, dtype=float)
    if x.shape != c.shape:
        raise ValidationError("feature vector and coefficients must have equal length")
    return float(x @ c + intercept)


def cd_lasso(X: np.ndarray, y: np.ndarray, lam: float,
             tol: float = 1e-13, max_sweeps: int = 200000) -> np.ndarray:
    """Coordinate-descent solution of min_b 0.5*||y - X b||^2 + lam*||b||_1.

    Plain cyclic coordinate descent with soft thresholding, cold start.
    ``lam`` uses the inner-product convention: at the solution every active
    column satisfies x_j . (y - X b) = lam * sign(b_j).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0:
        return np.linalg.lstsq(X, y, rcond=None)[0]
    sq = np.einsum("ij,ij->j", X, X)
    beta = np.zeros(p)
    resid = y.copy()
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(p):
            if sq[j] <= 0.0:
                continue
            rho = X[:, j] @ resid + sq[j] * beta[j]
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / sq[j]
            step = new - beta[j]
            if step != 0.0:
                resid -= step * X[:, j]
                beta[j] = new
                delta = max(delta, abs(step))
        if delta < tol:
            break
    return beta


def kkt_violation(X: np.ndarray, y: np.ndarray, beta: np.ndarray,
                  lam: float, active_tol: float = 1e-12) -> float:
    """Worst KKT violation of a candidate LASSO solution.

    For active coordinates the gradient x_j . r must equal lam * sign(b_j);
    for inactive ones its magnitude must not exceed lam.  Returns the largest
    excess over these conditions (0 means the KKT system holds exactly).
    """
    r = y - X @ beta
    grad = X.T @ r
    worst = 0.0
    for j, b in enumerate(beta):
        if abs(b) > active_tol:
            worst = max(worst, abs(grad[j] - lam * np.sign(b)))
        else:
            worst = max(worst, abs(grad[j]) - lam)
    return worst


def mp_normal_upper_quantile(p: float, dps: int = 50) -> float:
    """Upper-tail standard normal quantile via mpmath bisection.

    Returns z with P(Z >= z) = p, solving erfc(z/sqrt(2))/2 = p to ``dps``
    decimal digits without touching scipy.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    with mpmath.workdps(dps):
        target = mpmath.mpf(p)

        def upper_tail(z):
            return mpmath.erfc(z / mpmath.sqrt(2)) / 2 - target

        lo, hi = mpmath.mpf(-40), mpmath.mpf(40)
        for _ in range(400):
            mid = (lo + hi) / 2
            if upper_tail(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def weighted_ols(X: np.ndarray, y: np.ndarray,
                 weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Weighted least squares with intercept via lstsq on sqrt-scaled rows."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    sw = np.sqrt(np.asarray(weights, dtype=float))
    design = np.column_stack([np.ones(X.shape[0]), X]) * sw[:, None]
    solution = np.linalg.lstsq(design, sw * y, rcond=None)[0]
    return solution[1:], float(solution[0])


def two_pass_product_covariance(u: np.ndarray, v: np.ndarray):
    """Sample means and unbiased (co)variances of two aligned series.

    Classic two-pass algorithm: means first, then centered sums, ddof=1.
    Returns (mean_u, mean_v, var_u, var_v, cov_uv).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = u.size
    if n < 2:
        raise ValueError("need at least two observations")
    mu, mv = u.sum() / n, v.sum() / n
    du, dv = u - mu, v - mv
    return (float(mu), float(mv),
            float((du @ du) / (n - 1)),
            float((dv @ dv) / (n - 1)),
            float((du @ dv) / (n - 1)))


def gauss_hermite_local_slopes(func, center: np.ndarray, scales: np.ndarray,
                               kernel_width: float, order: int = 40):
    """Kernel-weighted local regression slopes by Gauss-Hermite quadrature.

    For perturbations x_j ~ N(center_j, scales_j^2) weighted by
    exp(-d^2 / width^2) with d measured in scale units, the weighted moment
    integrals reduce per coordinate to Gaussian integrals with an effective
    variance sigma_eff^2 = 1 / (1 + 2 / width^2) (in z units).  Independent
    coordinates make each population slope a ratio cov_w(f, x_j) / var_w(x_j)
    computed here on a tensor quadrature grid, one coordinate pair at a time
    being exact for the separable parts and high-order accurate otherwise.
    """
    center = np.asarray(center, dtype=float)
    scales = np.asarray(scales, dtype=float)
    p = center.size
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    sigma_eff = 1.0 / np.sqrt(1.0 + 2.0 / kernel_width**2)

    # Independence makes slope_j = Cov_w(f, x_j) / Var_w(x_j).  Coordinates
    # 0 and 1 may couple (the five-feature benchmark couples exactly those),
    # so their moments come from a 2-D tensor grid; every other coordinate
    # must enter separably with polynomial degree <= 2, for which the
    # two-point central rule below is exact.
    z = nodes * sigma_eff
    w1 = weights / weights.sum()

    def expect(g):
        total = 0.0
        for a, wa in zip(z, w1):
            for b, wb in zip(z, w1):
                x = center.copy()
                x[0] = center[0] + scales[0] * a
                x[1] = center[1] + scales[1] * b
                total += wa * wb * g(x)
        return total

    slopes = np.empty(p)
    for j in range(p):
        if j < 2:
            mean_f = expect(func)
            mean_xf = expect(lambda x, jj=j: x[jj] * func(x))
            var_x = (sigma_eff * scales[j]) ** 2
            slopes[j] = (mean_xf - mean_f * center[j]) / var_x
        else:
            delta = sigma_eff * scales[j]
            xp = center.copy()
            xp[j] += delta
            xm = center.copy()
            xm[j] -= delta
            slopes[j] = (func(xp) - func(xm)) / (2 * delta)
    return slopes
