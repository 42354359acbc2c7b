"""Path solver checks against closed forms and a coordinate-descent oracle."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cd_lasso, kkt_violation, weighted_ols
from slime.errors import (DegenerateInputError, SingularityError,
                          ValidationError)
from slime.weighted_lars import _ROW_BLOCK as ROW_BLOCK
from slime.weighted_lars import (DesignMatrix, StandardizedDesign,
                                 WeightedMoments, lars_lasso_path,
                                 refit_least_squares, standardize,
                                 transform_response)


def make_design(values, names=None):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = tuple(f"x{i}" for i in range(values.shape[1]))
    return DesignMatrix(values=values, column_names=names)


def random_problem(seed, n=40, p=6):
    """Correlated design, sparse truth, mixed weights; drops happen often."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    mix = np.eye(p) + 0.6 * rng.normal(size=(p, p)) / np.sqrt(p)
    X = X @ mix
    truth = np.zeros(p)
    truth[:3] = rng.normal(size=3) * 2
    y = X @ truth + 0.5 * rng.normal(size=n)
    w = rng.uniform(0.2, 2.0, size=n)
    return make_design(X), y, w


def run_path(design, y, w, max_active=None, **kwargs):
    std = standardize(design, w, y)
    yt = transform_response(y, w)
    if max_active is None:
        max_active = std.base.n_cols
    return std, yt, lars_lasso_path(std, max_active, **kwargs)


# ------------------------------------------------------------ standardize

def test_standardize_weighted_frozen_example():
    design = make_design([[1.0, 1.0, 5.0],
                          [2.0, -1.0, 5.0],
                          [3.0, 0.0, 5.0]], names=("a", "b", "c"))
    std = standardize(design, np.array([4.0, 1.0, 1.0]), np.zeros(3))
    # weighted mean of column a is (4*1 + 2 + 3) / 6 = 1.5; centering and
    # sqrt-weight scaling gives (-1, 0.5, 1.5) with norm sqrt(3.5)
    root = math.sqrt(3.5)
    np.testing.assert_allclose(std.base.values[:, 0],
                               np.array([-1.0, 0.5, 1.5]) / root, atol=1e-15)
    np.testing.assert_allclose(std.base.values[:, 1],
                               np.array([1.0, -1.5, -0.5]) / root, atol=1e-15)
    np.testing.assert_allclose(std.col_means, [1.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(std.col_norms, [root, root], rtol=1e-15)
    assert std.dropped_cols == ("c",)
    assert std.base.column_names == ("a", "b")
    np.testing.assert_array_equal(std.retained_idx, [0, 1])
    assert std.original_names == ("a", "b", "c")


def test_standardize_unit_weights_simple():
    design = make_design([[1.0], [-1.0], [0.0]])
    std = standardize(design, np.ones(3), np.zeros(3))
    np.testing.assert_allclose(std.base.values[:, 0],
                               [1 / math.sqrt(2), -1 / math.sqrt(2), 0.0],
                               atol=1e-15)
    assert std.col_means[0] == pytest.approx(0.0, abs=1e-15)
    assert std.col_norms[0] == pytest.approx(math.sqrt(2), rel=1e-15)


def test_standardize_without_column_scaling():
    design = make_design([[1.0, 1.0],
                          [2.0, -1.0],
                          [3.0, 0.0]])
    w = np.array([4.0, 1.0, 1.0])
    std = standardize(design, w, np.zeros(3), scale_columns=False)
    np.testing.assert_allclose(std.base.values[:, 0], [-1.0, 0.5, 1.5],
                               atol=1e-15)
    np.testing.assert_array_equal(std.col_norms, [1.0, 1.0])
    # columns keep their natural norms, nothing else changes
    scaled = standardize(design, w, np.zeros(3))
    np.testing.assert_allclose(std.base.values,
                               scaled.base.values * scaled.col_norms,
                               atol=1e-14)


def test_standardize_base_is_fortran_ordered():
    # LARS products and column norms sum in a layout-dependent order, so the
    # path's output bytes depend on the layout standardize hands it.
    design, y, w = random_problem(5)
    for scale_columns in (True, False):
        std = standardize(design, w, y, scale_columns=scale_columns)
        assert std.base.values.flags.f_contiguous


def test_standardize_peak_memory_is_one_copy_of_the_design():
    # The base is the only n x p array standardize allocates when no column
    # is dropped; everything else it builds is p x p or one row long.
    rng = np.random.default_rng(0)
    n, p = 20000, 50
    design = make_design(rng.normal(size=(n, p)))
    w = rng.uniform(0.5, 1.5, size=n)
    tracemalloc.start()
    try:
        std = standardize(design, w, np.zeros(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert std.dropped_cols == ()
    assert peak <= 1.25 * n * p * 8, f"peak {peak} bytes for a {n}x{p} design"


def test_standardize_rejects_bad_weights():
    design = make_design([[1.0], [2.0], [3.0]])
    y = np.zeros(3)
    with pytest.raises(ValidationError):
        standardize(design, np.ones(2), y)
    with pytest.raises(ValidationError):
        standardize(design, np.array([1.0, -0.5, 1.0]), y)
    with pytest.raises(ValidationError):
        standardize(design, np.array([1.0, np.nan, 1.0]), y)
    with pytest.raises(DegenerateInputError):
        standardize(design, np.array([1.0, 0.0, 0.0]), y)


def test_standardize_all_columns_constant_is_degenerate():
    design = make_design([[2.0], [2.0], [2.0]])
    with pytest.raises(DegenerateInputError):
        standardize(design, np.ones(3), np.zeros(3))


def test_standardize_checks_the_response():
    design, y, w = random_problem(2)
    with pytest.raises(ValidationError):
        standardize(design, w, y[:-1])
    bad = y.copy()
    bad[0] = np.nan
    with pytest.raises(ValidationError):
        standardize(design, w, bad)
    # Each answer is finite, but their weighted sums overflow.
    huge = np.where(np.arange(y.size) % 2, 1.7e308, -1.7e308)
    with pytest.raises(DegenerateInputError, match="not finite"):
        standardize(design, w, huge)


def test_transform_response_matches_column_rule():
    y = np.array([1.0, 2.0, 3.0])
    w = np.array([4.0, 1.0, 1.0])
    np.testing.assert_allclose(transform_response(y, w), [-1.0, 0.5, 1.5],
                               atol=1e-15)
    with pytest.raises(ValidationError):
        transform_response(y, np.ones(2))
    with pytest.raises(ValidationError):
        transform_response(np.array([1.0, np.inf, 0.0]), w)
    with pytest.raises(DegenerateInputError):
        transform_response(y, np.zeros(3))
    with pytest.raises(ValidationError):
        transform_response(y, np.array([4.0, -1.0, 1.0]))
    with pytest.raises(ValidationError):
        transform_response(y, np.array([4.0, np.inf, 1.0]))


def test_design_matrix_validation():
    with pytest.raises(ValidationError):
        DesignMatrix(values=np.ones(3), column_names=("a",))   # 1-d
    with pytest.raises(ValidationError):
        make_design([[1.0, 2.0]])                     # one row
    with pytest.raises(ValidationError):
        make_design([[1.0], [2.0]], names=("a", "b"))
    with pytest.raises(ValidationError):
        make_design([[1.0, 2.0], [3.0, 4.0]], names=("a", "a"))
    with pytest.raises(ValidationError):
        make_design([[np.nan], [1.0]])
    late = np.zeros((ROW_BLOCK + 1, 1))
    late[-1, 0] = np.inf        # past the finiteness scan's first block
    with pytest.raises(ValidationError):
        make_design(late)


# ----------------------------------------------------- path vs oracle

# seed 24 exercises drop followed by re-entry of the same column
ORACLE_SEEDS = (0, 15, 17, 24)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_path_matches_coordinate_descent_at_every_breakpoint(seed):
    design, y, w = random_problem(seed)
    std, yt, state = run_path(design, y, w)
    Xs = std.base.values
    assert not state.aborted
    for bp in state.breakpoints:
        beta = bp.beta[std.retained_idx]
        oracle = cd_lasso(Xs, yt, bp.lam)
        np.testing.assert_allclose(beta, oracle, atol=1e-6)
        assert kkt_violation(Xs, yt, beta, bp.lam) <= 1e-8


def test_drop_then_reentry_path_is_recorded():
    design, y, w = random_problem(24)
    _, _, state = run_path(design, y, w)
    assert state.drop_events == [(6, "x5")]
    entered = [name for _, name, _ in state.entry_events]
    assert entered.count("x5") == 2
    # the drop breakpoint really zeroes the coefficient
    drop_bp = next(bp for bp in state.breakpoints
                   if "x5" not in bp.active and len(bp.active) == 5)
    assert drop_bp.beta[5] == 0.0
    # the path ends at the full least-squares solution
    assert state.breakpoints[-1].lam == pytest.approx(0.0, abs=1e-10)


def test_breakpoints_keep_active_correlations_tied():
    design, y, w = random_problem(17)
    std, yt, state = run_path(design, y, w)
    Xs = std.base.values
    names = std.base.column_names
    scale = state.breakpoints[0].lam
    for bp in state.breakpoints:
        if bp.lam <= 1e-10 * scale:
            continue
        c = Xs.T @ (yt - Xs @ bp.beta[std.retained_idx])
        tol = 1e-8 * (1.0 + bp.lam)
        for j, name in enumerate(names):
            if name in bp.active:
                assert abs(abs(c[j]) - bp.lam) <= tol
            else:
                assert abs(c[j]) <= bp.lam + tol


def test_residual_consistent_and_penalty_monotone():
    design, y, w = random_problem(15)
    _, _, state = run_path(design, y, w)
    lams = [bp.lam for bp in state.breakpoints]
    assert all(a >= b - 1e-12 * (1.0 + abs(a)) for a, b in zip(lams, lams[1:]))


def test_integer_weights_equal_row_replication():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 3))
    y = X @ np.array([1.5, -1.0, 0.0]) + 0.3 * rng.normal(size=12)
    counts = rng.integers(1, 4, size=12)

    design = make_design(X)
    _, _, weighted = run_path(design, y, counts.astype(float))

    rep = np.repeat(np.arange(12), counts)
    design_rep = make_design(X[rep])
    _, _, replicated = run_path(design_rep, y[rep], np.ones(rep.size))

    assert [(s, n) for s, n, _ in weighted.entry_events] == \
           [(s, n) for s, n, _ in replicated.entry_events]
    assert weighted.drop_events == replicated.drop_events
    np.testing.assert_allclose(weighted.beta, replicated.beta, atol=1e-10)
    np.testing.assert_allclose([bp.lam for bp in weighted.breakpoints],
                               [bp.lam for bp in replicated.breakpoints],
                               atol=1e-10)


def test_column_rescaling_leaves_path_invariant():
    design, y, w = random_problem(5)
    scaled_values = design.values.copy()
    scaled_values[:, 2] *= 1000.0
    scaled = make_design(scaled_values)
    _, _, base_state = run_path(design, y, w)
    _, _, scaled_state = run_path(scaled, y, w)
    assert [n for _, n, _ in base_state.entry_events] == \
           [n for _, n, _ in scaled_state.entry_events]
    np.testing.assert_allclose(base_state.beta, scaled_state.beta, atol=1e-9)


def test_single_column_path_reaches_least_squares():
    design = make_design([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([2.0, 4.0, 6.0, 8.0])
    std, yt, state = run_path(design, y, np.ones(4), max_active=1)
    # unit-norm column, so the coefficient is <x, y> = 2 * ||centered x||
    assert state.beta[0] == pytest.approx(2.0 * math.sqrt(5.0), rel=1e-12)
    residual = yt - std.base.values @ state.beta[std.retained_idx]
    assert np.linalg.norm(residual) == pytest.approx(0.0, abs=1e-12)
    assert state.active_set == ["x0"]


def test_orthonormal_design_enters_by_correlation_size():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(30, 4))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    coefs = np.array([3.0, -2.0, 1.0, -0.5])
    y = q @ coefs
    design = make_design(q, names=("a", "b", "c", "d"))
    _, _, state = run_path(design, y, np.ones(30))
    assert [n for _, n, _ in state.entry_events] == ["a", "b", "c", "d"]
    assert state.drop_events == []
    np.testing.assert_allclose(state.beta, coefs, atol=1e-10)


def test_exact_tie_enters_lower_index_first():
    design = make_design([[1.0, 0.0],
                          [-1.0, 0.0],
                          [0.0, 1.0],
                          [0.0, -1.0]], names=("left", "right"))
    y = np.array([1.0, -1.0, 1.0, -1.0])
    _, _, state = run_path(design, y, np.ones(4))
    assert [n for _, n, _ in state.entry_events] == ["left", "right"]
    assert [s for s, _, _ in state.entry_events] == [1, 2]


def test_observer_sees_ranked_candidates_and_can_abort():
    design, y, w = random_problem(0)
    std = standardize(design, w, y)
    seen = []

    def observer(ctx):
        seen.append(ctx)
        mags = [abs(c.c_hat) for c in ctx.candidates]
        assert mags == sorted(mags, reverse=True)
        with pytest.raises(ValueError):
            ctx.beta[0] = 1.0
        return ctx.step < 2

    state = lars_lasso_path(std, 4, observer=observer)
    assert state.aborted
    assert len(state.entry_events) == 1
    assert len(state.active_set) == 1
    assert seen[0].step == 1 and seen[0].n_active == 0
    assert seen[1].step == 2 and seen[1].n_active == 1
    # Entry s sees the state of breakpoint s - 1 (breakpoint 0 is beta = 0).
    for ctx in seen:
        assert ctx.beta.tobytes() == \
            state.breakpoints[ctx.step - 1].beta[std.retained_idx].tobytes()


def test_residual_products_match_the_dense_columns():
    # 2 * ROW_BLOCK + 5 rows give three blocks, the last short; a constant
    # column is dropped, so retained and raw column positions differ.
    rng = np.random.default_rng(11)
    n = 2 * ROW_BLOCK + 5
    X = 2.0 + rng.normal(size=(n, 5)) @ (np.eye(5) + 0.4 * rng.normal(size=(5, 5)))
    X = np.insert(X, 1, 3.0, axis=1)
    y = X[:, [0, 2, 3]] @ np.array([1.5, -2.0, 0.5]) + rng.normal(size=n)
    w = rng.uniform(0.1, 2.0, size=n)
    std = standardize(make_design(X), w, y)
    assert std.dropped_cols == ("x1",)
    base, yt = std.base.values, transform_response(y, w)
    state = lars_lasso_path(std, 3)
    assert np.count_nonzero(state.breakpoints[2].beta) == 2
    cols = [4, 0, 2]
    for bp in (state.breakpoints[0], state.breakpoints[2]):
        beta = bp.beta[std.retained_idx]
        blocks = list(std.residual_products(beta, cols))
        assert [b.shape for b in blocks] == [(3, ROW_BLOCK), (3, ROW_BLOCK), (3, 5)]
        oracle = (base[:, cols] * (yt - base @ beta)[:, None]).T
        np.testing.assert_allclose(np.hstack(blocks), oracle, rtol=1e-12,
                                   atol=1e-12 * np.abs(oracle).max())
        # Their means are the walk's correlations c_hat = c / n.
        c = std.xty - std.gram @ beta
        np.testing.assert_allclose(oracle.mean(axis=1), c[cols] / n, rtol=0,
                                   atol=1e-12 * np.abs(c).max() / n)


def test_path_builds_the_residual_only_for_its_observer(monkeypatch):
    # The residual products are an n-row pass over the active columns: the
    # walk hands its observer the coefficients and never builds them itself.
    calls = []
    products = StandardizedDesign.residual_products

    def counted(self, beta, columns):
        calls.append(1)
        return products(self, beta, columns)

    monkeypatch.setattr(StandardizedDesign, "residual_products", counted)
    design, y, w = random_problem(0)
    seen = []

    def watch(ctx):
        seen.append(ctx)
        return ctx.step < limit

    for limit, observer in ((None, None), (99, watch), (2, watch)):
        calls.clear()
        seen.clear()
        _, _, state = run_path(design, y, w, max_active=4, observer=observer)
        assert state.aborted == (limit == 2)
        assert len(seen) == (len(state.entry_events) + state.aborted if observer else 0)
        assert calls == []


def test_entry_correlation_scale_is_mean_inner_product():
    design, y, w = random_problem(1)
    std, yt, state = run_path(design, y, w)
    first = state.entry_events[0]
    c0 = std.base.values.T @ yt / std.base.n_rows
    assert first[2] == pytest.approx(c0[np.argmax(np.abs(c0))], rel=1e-12)


def test_max_active_validation():
    design, y, w = random_problem(2)
    std = standardize(design, w, y)
    with pytest.raises(ValidationError):
        lars_lasso_path(std, 0)
    with pytest.raises(ValidationError):
        lars_lasso_path(std, 7)


# ------------------------------------------------------------------ refit

def refit(design, y, w, selected):
    """The refit as the explainer runs it, on the standardized design."""
    return refit_least_squares(standardize(design, w, y), selected)


def test_refit_matches_weighted_least_squares_oracle():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 4))
    y = X @ np.array([2.0, 0.0, -1.0, 0.5]) + 0.2 * rng.normal(size=30)
    w = rng.uniform(0.1, 3.0, size=30)
    design = make_design(X, names=("a", "b", "c", "d"))
    coefs, intercept = refit(design, y, w, ["c", "a"])
    oracle_coefs, oracle_int = weighted_ols(X[:, [2, 0]], y, w)
    np.testing.assert_allclose(coefs, oracle_coefs, atol=1e-10)
    assert intercept == pytest.approx(oracle_int, abs=1e-10)


def test_refit_recovers_exact_line():
    design = make_design([[1.0], [2.0], [3.0]], names=("x",))
    y = np.array([3.0, 5.0, 7.0])     # y = 2x + 1
    coefs, intercept = refit(design, y, np.array([4.0, 1.0, 1.0]), ["x"])
    assert coefs[0] == pytest.approx(2.0, rel=1e-12)
    assert intercept == pytest.approx(1.0, rel=1e-12)


def test_refit_reads_no_row_and_its_peak_does_not_grow_with_n():
    # The refit is k x k algebra on the round's sums: it allocates nothing
    # near one vector of n (160 KB here) and never looks at the sample,
    # which is poisoned before it runs.
    n, p, k = 20000, 50, 10
    rng = np.random.default_rng(3)
    X = rng.normal(size=(n, p))
    y = X[:, :k] @ np.arange(1.0, k + 1) + rng.normal(size=n)
    w = rng.uniform(0.5, 1.5, size=n)
    design = make_design(X)
    cols = list(range(2 * k - 1, 0, -2))
    std = standardize(design, w, y)
    oracle_coefs, oracle_int = weighted_ols(X[:, cols], y, w)
    X[:] = np.nan
    tracemalloc.start()
    try:
        coefs, intercept = refit_least_squares(
            std, [design.column_names[j] for j in cols])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, f"peak {peak} bytes"
    np.testing.assert_allclose(coefs, oracle_coefs, rtol=1e-12)
    assert intercept == pytest.approx(oracle_int, rel=1e-12, abs=1e-12)


def test_refit_rejects_bad_selections():
    design = make_design([[1.0, 1.0], [2.0, 2.0], [3.0, 4.0]],
                         names=("a", "b"))
    y = np.array([1.0, 2.0, 3.0])
    w = np.ones(3)
    with pytest.raises(ValidationError):
        refit(design, y, w, [])
    with pytest.raises(ValidationError):
        refit(design, y, w, ["a", "z"])
    with pytest.raises(ValidationError):
        refit(design, y, w, ["a", "a"])


def test_refit_singular_selection_raises():
    values = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    design = make_design(values, names=("a", "b"))
    y = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(SingularityError) as info:
        refit(design, y, np.ones(4), ["a", "b"])
    assert info.value.features == ("a", "b")


def test_near_collinear_columns_make_the_path_raise_and_name_the_active_set():
    # b is a up to 1e-10 noise: once both have entered, the signed Gram of
    # the active set is not numerically positive definite.
    rng = np.random.default_rng(0)
    n = 50
    a = rng.normal(size=n)
    b = a + 1e-10 * rng.normal(size=n)
    c = rng.normal(size=n)
    y = a + 0.5 * c + 0.1 * rng.normal(size=n)
    design = make_design(np.column_stack([a, b, c]), names=("a", "b", "c"))
    with pytest.raises(SingularityError,
                       match="active feature set has a rank-deficient Gram matrix"
                       ) as info:
        run_path(design, y, np.ones(n))
    assert info.value.features == ("b", "c", "a")


# ------------------------------------------------------------- invariants

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6),
       n=st.integers(12, 40),
       p=st.integers(2, 6))
def test_path_invariants_hold_on_random_problems(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    truth = np.zeros(p)
    truth[: max(1, p // 2)] = rng.normal(size=max(1, p // 2))
    y = X @ truth + 0.1 * rng.normal(size=n)
    w = rng.uniform(0.1, 2.0, size=n)
    design = make_design(X)
    std, yt, state = run_path(design, y, w)
    Xs = std.base.values

    assert not state.aborted
    lams = [bp.lam for bp in state.breakpoints]
    assert all(a >= b - 1e-10 * (1.0 + abs(a)) for a, b in zip(lams, lams[1:]))
    scale = 1.0 + (lams[0] if lams else 1.0)
    for bp in state.breakpoints:
        beta = bp.beta[std.retained_idx]
        assert kkt_violation(Xs, yt, beta, bp.lam) <= 1e-7 * scale
        inactive = [j for j, name in enumerate(std.base.column_names)
                    if name not in bp.active]
        c = Xs.T @ (yt - Xs @ beta)
        # The walk steps on the Gram; the residual form must give its lambda.
        assert abs(bp.lam - np.max(np.abs(c))) <= 1e-10 * scale
        if inactive:
            assert np.max(np.abs(c[inactive])) <= bp.lam + 1e-7 * scale


# ------------------------------------------------------------- pinned bytes

def path_digest(state):
    """sha256 over every breakpoint's coefficients and penalty, in order."""
    h = hashlib.sha256()
    for bp in state.breakpoints:
        h.update(bp.beta.tobytes())
        h.update(np.float64(bp.lam).tobytes())
    return h.hexdigest()


def test_path_bytes_are_pinned():
    # Seed 24 takes a LASSO drop and re-enters the column, on moments that
    # standardize sums itself; the wider problem is handed moments that
    # carry the response, as the explainer's rounds are.
    design, y, w = random_problem(24)
    _, _, dropping = run_path(design, y, w)
    assert dropping.drop_events
    rng = np.random.default_rng(7)
    X = rng.normal(size=(600, 12)) @ (np.eye(12) + 0.3 * rng.normal(size=(12, 12)))
    y = X[:, :4] @ np.array([2.0, -1.0, 0.5, 0.25]) + 0.5 * rng.normal(size=600)
    w = rng.uniform(0.1, 2.0, size=600)
    moments = WeightedMoments.of(X, w, X[:ROW_BLOCK].mean(axis=0), y)
    std = standardize(make_design(X), w, y, moments=moments)
    wide = lars_lasso_path(std, 10)
    assert path_digest(dropping) == \
        "737eab4e5b9c57e8a7bec7a2875152c40b85913d7ff6e6bec857728610ab2245"
    assert path_digest(wide) == \
        "d87507001ad0c7a13c8aaf348e169c00a17f35471ce8bfef4a6a4a923cd748f5"
