"""Tests for the correlation-gap hypothesis test and sample-size update."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import mp_normal_upper_quantile, two_pass_product_covariance
from slime.errors import DegenerateInputError, ValidationError
from slime.stability_testing import (ProductCovariance, bonferroni_entry_test,
                                     entry_test, normal_quantile,
                                     normal_upper_tail, product_covariance,
                                     product_covariances, required_sample_size)
from slime.weighted_lars import ROW_BLOCK, row_blocks


def make_cov(c1=0.05, c2=0.0, s11=0.5, s22=0.5, s12=0.0, n=1000):
    return ProductCovariance(c1_hat=c1, c2_hat=c2, sigma11=s11,
                             sigma22=s22, sigma12=s12, n=n)


# ---------------------------------------------------------------- quantiles

def test_quantile_known_values():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.05) == pytest.approx(1.6448536269514722, abs=1e-9)
    assert normal_upper_tail(0.0) == pytest.approx(0.5, abs=1e-12)


def test_quantile_against_high_precision_oracle():
    for p in (1e-6, 0.001, 0.025, 0.05, 0.2, 0.4, 0.5, 0.6, 0.95, 0.999):
        assert normal_quantile(p) == pytest.approx(
            mp_normal_upper_quantile(p), abs=1e-11)


def test_quantile_and_tail_have_small_relative_error_deep_in_the_tail():
    """Outputs carry p-values near 1e-50, where an absolute tolerance sees
    nothing: compare relative errors against 50-digit mpmath values."""
    for p in (1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-10, 1e-6, 1e-3,
              0.05, 0.2, 0.4, 0.6, 0.9, 0.999, 1 - 1e-6):
        assert normal_quantile(p) == pytest.approx(
            mp_normal_upper_quantile(p), rel=1e-14, abs=0.0)
    with mpmath.workdps(50):
        for z in (-8.0, -1.0, 0.0, 0.5, 1.0, 2.0, 5.0, 8.0, 10.0, 15.0, 20.0,
                  25.0, 30.0, 35.0, 37.0):
            want = float(mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)) / 2)
            assert normal_upper_tail(z) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_quantile_and_tail_are_mutually_inverse():
    """Round trips hold to 1e-8 wherever float64 can represent the tail.

    For z far below 0 the upper tail sits next to 1.0 where the spacing of
    doubles is 2^-52, so recovering z is limited to roughly ulp / pdf(z)
    regardless of implementation quality; the tolerance widens accordingly.
    """
    eps = np.finfo(float).eps
    for z in np.linspace(-8.0, 8.0, 33):
        pdf = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        tol = max(1e-8, 4 * eps / pdf)
        assert normal_quantile(normal_upper_tail(z)) == pytest.approx(z, abs=tol)


def test_tail_of_quantile_recovers_p():
    for p in (1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-9):
        assert normal_upper_tail(normal_quantile(p)) == pytest.approx(p, abs=1e-12)


def test_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValidationError):
            normal_quantile(bad)
    with pytest.raises(ValidationError):
        normal_upper_tail(float("nan"))


# ------------------------------------------------------ product covariance

def test_product_covariance_matches_two_pass_oracle():
    rng = np.random.default_rng(42)
    r = rng.standard_normal(20)
    xi = rng.standard_normal(20)
    xj = rng.standard_normal(20)
    cov = product_covariance(r, xi, xj)
    mu, mv, vu, vv, cuv = two_pass_product_covariance(r * xi, r * xj)
    assert cov.c1_hat == pytest.approx(mu, abs=1e-12)
    assert cov.c2_hat == pytest.approx(mv, abs=1e-12)
    assert cov.sigma11 == pytest.approx(vu, abs=1e-12)
    assert cov.sigma22 == pytest.approx(vv, abs=1e-12)
    assert cov.sigma12 == pytest.approx(cuv, abs=1e-12)
    assert cov.n == 20


def test_product_covariance_zero_residual():
    r = np.zeros(6)
    x = np.arange(6.0)
    cov = product_covariance(r, x, x + 1)
    assert cov.c1_hat == 0 and cov.c2_hat == 0
    assert cov.sigma11 == 0 and cov.sigma22 == 0 and cov.sigma12 == 0


def test_product_covariance_identical_columns():
    rng = np.random.default_rng(3)
    r = rng.standard_normal(15)
    x = rng.standard_normal(15)
    cov = product_covariance(r, x, x)
    assert cov.c1_hat == cov.c2_hat
    assert cov.sigma11 == pytest.approx(cov.sigma22, abs=1e-15)
    assert cov.sigma11 == pytest.approx(cov.sigma12, abs=1e-15)
    assert cov.diff_variance == pytest.approx(0.0, abs=1e-12)


def test_product_covariance_needs_two_rows():
    with pytest.raises(DegenerateInputError):
        product_covariance(np.array([1.0]), np.array([1.0]), np.array([1.0]))


def gate_problem(n, rivals, seed):
    """Raw rows, the gate's column pieces and a residual that correlates
    with the chosen columns, some of them negatively."""
    rng = np.random.default_rng(seed)
    p = rivals + 3
    values = 3.0 + rng.standard_normal((n, p))
    residual = values[:, :rivals + 1] @ rng.uniform(-1, 1, rivals + 1) \
        + rng.standard_normal(n)
    columns = rng.permutation(p)[:rivals + 1]
    means = values[:, columns].mean(axis=0) + 0.1 * rng.standard_normal(rivals + 1)
    norms = rng.uniform(0.5, 2.0, rivals + 1) * np.sqrt(n)
    signs = np.where(np.arange(rivals + 1) % 2 == 1, -1.0, 1.0)
    return residual, values, columns, means, norms, signs


def product_blocks(residual, values, columns, means, norms):
    """The gate's products ``residual * (values[:, col] - mean) / norm``, one
    q x rows block per block of rows, as the standardized design yields them."""
    for rows in row_blocks(residual.size):
        yield (values[rows].T[columns] - means[:, None]) * residual[rows] / norms[:, None]


def assert_matches_two_pass(covs, residual, values, columns, means, norms, signs):
    products = [residual * sign * (values[:, col] - mean) / norm
                for col, mean, norm, sign in zip(columns, means, norms, signs)]
    assert len(covs) == len(products) - 1
    for cov, rival in zip(covs, products[1:]):
        mu, mv, vu, vv, cuv = two_pass_product_covariance(products[0], rival)
        size = np.abs(products[0]).mean() + np.abs(rival).mean()
        spread = math.sqrt(vu * vv)
        assert cov.n == residual.size
        assert cov.c1_hat == pytest.approx(mu, rel=1e-12, abs=1e-12 * size)
        assert cov.c2_hat == pytest.approx(mv, rel=1e-12, abs=1e-12 * size)
        assert cov.sigma11 == pytest.approx(vu, rel=1e-12)
        assert cov.sigma22 == pytest.approx(vv, rel=1e-12)
        assert cov.sigma12 == pytest.approx(cuv, rel=1e-12, abs=1e-12 * spread)


@pytest.mark.parametrize("rivals", [1, 2, 7])
@pytest.mark.parametrize("n", [2, 300, 2 * ROW_BLOCK + 5])
def test_product_covariances_match_two_pass_oracle(rivals, n):
    # 2 * ROW_BLOCK + 5 rows make the pass merge three blocks, the last short.
    problem = gate_problem(n, rivals, seed=rivals * 1000 + n)
    covs = product_covariances(product_blocks(*problem[:5]), problem[5])
    assert_matches_two_pass(covs, *problem)


def test_product_covariances_sign_flip_negates_mean_and_cross_only():
    residual, values, columns, means, norms, _ = gate_problem(2 * ROW_BLOCK + 5, 2, seed=5)
    plain = product_covariances(product_blocks(residual, values, columns, means, norms),
                                np.ones(3))
    flipped = product_covariances(product_blocks(residual, values, columns, means, norms),
                                  np.array([1.0, -1.0, 1.0]))
    assert flipped[0] == replace(plain[0], c2_hat=-plain[0].c2_hat,
                                 sigma12=-plain[0].sigma12)
    assert flipped[1] == plain[1]


def test_product_covariances_zero_residual_is_undecidable():
    residual, values, columns, means, norms, signs = gate_problem(
        2 * ROW_BLOCK + 5, 2, seed=9)
    covs = product_covariances(
        product_blocks(np.zeros_like(residual), values, columns, means, norms), signs)
    for cov in covs:
        assert (cov.c1_hat, cov.c2_hat) == (0.0, 0.0)
        assert cov.sigma11 == cov.sigma22 == cov.sigma12 == 0.0
        decision = entry_test(cov, 0.05)
        assert decision.statistic_t == -math.inf and decision.p_value == 0.5
        assert not decision.significant


def test_product_covariances_identical_columns_have_no_difference_variance():
    residual, values, columns, means, norms, _ = gate_problem(2 * ROW_BLOCK + 5, 1, seed=4)
    twice = [columns[0], columns[0]]
    (cov,) = product_covariances(
        product_blocks(residual, values, twice, means[[0, 0]], norms[[0, 0]]), np.ones(2))
    assert cov.c1_hat == cov.c2_hat
    assert cov.sigma11 == cov.sigma22 == cov.sigma12
    assert cov.diff_variance == 0.0
    assert_matches_two_pass([cov], residual, values, twice, means[[0, 0]],
                            norms[[0, 0]], np.ones(2))


# ----------------------------------------------------------------- the test

def test_entry_test_frozen_example():
    """Gap 0.05 with unit difference variance at n=1000 and alpha=0.05."""
    decision = entry_test(make_cov(), 0.05, compared=("a", "b"), step=1)
    expected_t = 0.05 - normal_quantile(0.05) * math.sqrt(2.0 / 1000.0)
    assert decision.statistic_t == pytest.approx(expected_t, abs=1e-15)
    assert decision.statistic_t == pytest.approx(-0.023560090458011468, abs=1e-12)
    assert decision.p_value == pytest.approx(0.13177623864148635, abs=1e-12)
    assert not decision.significant
    assert decision.compared == ("a", "b")
    # the recommendation must follow the quantile-ratio rule
    z_alpha = mp_normal_upper_quantile(0.05)
    z_p = mp_normal_upper_quantile(decision.p_value)
    expected_n = math.ceil(1000 * (z_alpha / z_p) ** 2)
    assert abs(decision.recommended_n - expected_n) <= 1


def test_entry_test_zero_gap_is_never_significant():
    decision = entry_test(make_cov(c1=0.3, c2=0.3), 0.05,
                          compared=("a", "b"), step=1)
    assert decision.statistic_t < 0
    assert decision.p_value == pytest.approx(0.5)
    assert not decision.significant


def test_entry_test_deterministic_gap_zero_variance():
    cov = make_cov(c1=0.4, c2=0.1, s11=0.0, s22=0.0, s12=0.0)
    decision = entry_test(cov, 0.05, compared=("a", "b"), step=1)
    assert decision.significant
    assert decision.statistic_t == pytest.approx(0.3)
    assert decision.p_value == 0.0


def test_entry_test_zero_variance_zero_gap_undecidable():
    cov = make_cov(c1=0.2, c2=0.2, s11=0.0, s22=0.0, s12=0.0)
    decision = entry_test(cov, 0.05, compared=("a", "b"), step=1)
    assert not decision.significant
    assert decision.statistic_t == -math.inf
    assert decision.p_value == pytest.approx(0.5)


def test_entry_test_requires_ranked_input_and_valid_alpha():
    with pytest.raises(ValidationError):
        entry_test(make_cov(c1=0.0, c2=0.1), 0.05, compared=("a", "b"), step=1)
    for alpha in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValidationError):
            entry_test(make_cov(), alpha, compared=("a", "b"), step=1)


def test_statistic_grows_with_n_and_small_alpha_shrinks_it():
    base = entry_test(make_cov(n=1000), 0.05, compared=("a", "b"), step=1)
    bigger = entry_test(make_cov(n=4000), 0.05, compared=("a", "b"), step=1)
    stricter = entry_test(make_cov(n=1000), 0.01, compared=("a", "b"), step=1)
    assert bigger.statistic_t > base.statistic_t
    assert stricter.statistic_t < base.statistic_t


def test_negation_rule_equivalence():
    """Negating a column and re-flipping at the caller leaves the decision
    unchanged: the covariance transforms as (c2, s12) -> (-c2, -s12)."""
    rng = np.random.default_rng(11)
    r = rng.standard_normal(200)
    xi = rng.standard_normal(200) + 0.5 * r
    xj = rng.standard_normal(200) + 0.3 * r
    cov = product_covariance(r, xi, xj)
    cov_neg = product_covariance(r, xi, -xj)
    assert cov_neg.c2_hat == pytest.approx(-cov.c2_hat, abs=1e-14)
    assert cov_neg.sigma12 == pytest.approx(-cov.sigma12, abs=1e-12)
    restored = replace(cov_neg, c2_hat=-cov_neg.c2_hat, sigma12=-cov_neg.sigma12)
    a = entry_test(cov, 0.05, compared=("i", "j"), step=1)
    b = entry_test(restored, 0.05, compared=("i", "j"), step=1)
    assert a.statistic_t == pytest.approx(b.statistic_t, abs=1e-14)
    assert a.p_value == pytest.approx(b.p_value, abs=1e-14)
    assert a.significant == b.significant


@settings(max_examples=200, deadline=None)
@given(gap=st.floats(0.0, 2.0), s11=st.floats(0.0, 3.0), s22=st.floats(0.0, 3.0),
       rho=st.floats(-0.99, 0.99), n=st.integers(2, 10**6),
       alpha=st.floats(0.001, 0.499))
# A subnormal difference variance whose standard error underflows to zero.
@example(gap=0.0, s11=0.0, s22=5e-324, rho=0.0, n=4, alpha=0.25)
def test_decision_triple_consistency(gap, s11, s22, rho, n, alpha):
    """significant, statistic_t >= 0 and p_value <= alpha always agree."""
    s12 = rho * math.sqrt(s11 * s22)
    cov = make_cov(c1=gap, c2=0.0, s11=s11, s22=s22, s12=s12, n=n)
    decision = entry_test(cov, alpha, compared=("a", "b"), step=1)
    assert 0.0 <= decision.p_value <= 1.0
    assert decision.significant == (decision.statistic_t >= 0)
    assert decision.significant == (decision.p_value <= alpha)
    if not decision.significant:
        assert decision.recommended_n > n


# -------------------------------------------------------------- sample size

def test_required_sample_size_frozen_value():
    got = required_sample_size(1000, 0.2, 0.05)
    assert abs(got - 3819) <= 1
    # same rule recomputed with the high-precision quantile oracle
    ratio = mp_normal_upper_quantile(0.05) / mp_normal_upper_quantile(0.2)
    assert abs(got - math.ceil(1000 * ratio**2)) <= 1


def test_required_sample_size_boundary_ratio_is_identity():
    ratio = normal_quantile(0.05) / normal_quantile(0.05)
    assert math.ceil(1000 * ratio**2) == 1000
    # the function itself still forces progress past n
    assert required_sample_size(1000, 0.05, 0.05) == 1001


def test_required_sample_size_grows_as_evidence_weakens():
    # weaker evidence (larger p) must demand more samples: the projection
    # n' = n * (z_alpha / z_p)^2 increases as z_p shrinks toward zero
    values = [required_sample_size(1000, p, 0.05)
              for p in np.linspace(0.051, 0.449, 50)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[0] < values[-1]


def test_required_sample_size_fallback_branches():
    assert required_sample_size(500, 0.5, 0.05) == 2000
    assert required_sample_size(500, 0.7, 0.05) == 2000
    assert required_sample_size(500, 0.5, 0.05, growth_factor=8.0) == 4000
    # a perfect p-value still cannot certify, so the loop must move forward
    assert required_sample_size(500, 0.0, 0.05) == 501


def test_required_sample_size_rejects_a_growth_factor_that_is_not_finite():
    for factor in (math.inf, math.nan, 1.9):
        with pytest.raises(ValidationError, match="growth_factor"):
            required_sample_size(100, 0.7, 0.05, growth_factor=factor)


def test_growth_past_the_float_range_still_recommends_more_rows():
    # growth_factor * n overflows; the caller caps whatever int comes back.
    grown = required_sample_size(100, 0.7, 0.05, growth_factor=1e308)
    assert isinstance(grown, int) and grown > 100
    # An exact tie takes the growth branch.
    tie = entry_test(make_cov(c1=1.0, c2=1.0, s11=1.0, s22=1.0, s12=0.0, n=100),
                     0.05, growth_factor=1e308)
    assert not tie.significant
    assert isinstance(tie.recommended_n, int) and tie.recommended_n > 100


def test_required_sample_size_strictly_exceeds_n():
    for p in (0.06, 0.1, 0.3, 0.49):
        assert required_sample_size(77, p, 0.05) > 77


# ------------------------------------------------------------- multiplicity

def p_to_gap(p, n, diff_var=1.0):
    """Gap whose one-pair p-value equals p for the given n."""
    return normal_quantile(p) * math.sqrt(2.0 * diff_var / n)


def test_bonferroni_sum_rule_frozen_example():
    covs = [make_cov(c1=p_to_gap(p, 100), c2=0.0, n=100)
            for p in (0.01, 0.02, 0.03)]
    decision = bonferroni_entry_test(
        covs, 0.05,
        compared_names=[("top", "b"), ("top", "c"), ("top", "d")],
        step=2)
    assert not decision.significant
    assert decision.statistic_t == pytest.approx(0.05 - 0.06, abs=1e-12)
    assert decision.p_value == pytest.approx(0.06, abs=1e-12)
    # the hardest competitor (largest per-pair p) is the one named
    assert decision.compared == ("top", "d")


def test_bonferroni_single_competitor_matches_entry_test():
    cov = make_cov()
    single = bonferroni_entry_test([cov], 0.05, compared_names=[("a", "b")],
                                   step=1)
    pair = entry_test(cov, 0.05, compared=("a", "b"), step=1)
    assert single.significant == pair.significant
    assert single.p_value == pytest.approx(pair.p_value, abs=1e-12)


def test_bonferroni_zero_p_values_significant():
    covs = [make_cov(c1=0.5, s11=0.0, s22=0.0) for _ in range(3)]
    decision = bonferroni_entry_test(
        covs, 0.05,
        compared_names=[("t", "a"), ("t", "b"), ("t", "c")],
        step=1)
    assert decision.significant
    assert decision.p_value == 0.0


def test_bonferroni_recommendation_uses_worst_pair_at_split_alpha():
    ps = (0.10, 0.30, 0.20)
    covs = [make_cov(c1=p_to_gap(p, 400), c2=0.0, n=400) for p in ps]
    decision = bonferroni_entry_test(
        covs, 0.05,
        compared_names=[("t", "a"), ("t", "b"), ("t", "c")],
        step=3)
    assert not decision.significant
    expected = required_sample_size(400, max(ps), 0.05 / 3)
    assert decision.recommended_n == expected
    # the worst pair is named in the decision
    assert decision.compared == ("t", "b")


def test_bonferroni_validates_input():
    with pytest.raises(ValidationError):
        bonferroni_entry_test([], 0.05, compared_names=[], step=1)
    covs = [make_cov(n=100), make_cov(n=200)]
    with pytest.raises(ValidationError):
        bonferroni_entry_test(covs, 0.05, compared_names=[("t", "a"), ("t", "b")],
                              step=1)
