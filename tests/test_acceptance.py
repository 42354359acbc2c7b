"""Release gate: the eight checks that qualify a build.

One test per criterion, each printing a single PASS/FAIL line with the
measured numbers.  Together they cover the two canned reproductions, solver
agreement with an independent coordinate-descent oracle on random problems,
calibration and asymptotic normality of the entry test, the sample-size
projection against a high-precision quantile oracle, byte-level CLI
determinism, and query-exactness of dataset reuse.
"""

import math
import time

import numpy as np
from scipy import stats

from oracles import cd_lasso, kkt_violation, mp_normal_upper_quantile
from slime.bench import reproduce_lasso_ordering, reproduce_mars_stability
from slime.cli import main
from slime.models import Model
from slime.sampling import InstanceSpec, build_dataset, extend_dataset
from slime.stability_testing import (entry_test, product_covariance,
                                     required_sample_size)
from slime.weighted_lars import (DesignMatrix, lars_lasso_path, standardize,
                                 transform_response)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ------------------------------------------------- 1. benchmark stability

def test_c1_five_feature_benchmark_stability():
    start = time.monotonic()
    result = reproduce_mars_stability(workers=4)
    elapsed = time.monotonic() - start
    detail = "; ".join(f"{label}: {text}" for label, _, text in result.checks)
    _verdict("c1 adaptive vs fixed-n stability on the five-feature benchmark",
             result.passed and elapsed < 300.0,
             f"{detail} [{elapsed:.1f}s, budget 300s]")


# ------------------------------------------------- 2. entry-order swaps

def test_c2_lasso_entry_order_swap_frequency():
    start = time.monotonic()
    result = reproduce_lasso_ordering()
    elapsed = time.monotonic() - start
    detail = "; ".join(f"{label}: {text}" for label, _, text in result.checks)
    _verdict("c2 plain-path entry-order swap frequency",
             result.passed and elapsed < 120.0,
             f"{detail} [{elapsed:.1f}s, budget 120s]")


# ------------------------------------------------- 3. solver vs oracle

def _random_oracle_problem(seed: int, n: int = 50, p: int = 5):
    """Correlated design, sparse truth, weights spread across a 10x range."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    mix = np.eye(p) + 0.5 * rng.normal(size=(p, p)) / math.sqrt(p)
    X = X @ mix
    truth = np.zeros(p)
    truth[rng.choice(p, size=3, replace=False)] = 2.0 * rng.normal(size=3)
    y = X @ truth + 0.4 * rng.normal(size=n)
    w = rng.uniform(0.2, 2.0, size=n)
    design = DesignMatrix(values=X,
                          column_names=tuple(f"x{i}" for i in range(p)))
    return design, y, w


def test_c3_path_matches_coordinate_descent_on_random_problems():
    worst_gap = 0.0
    worst_kkt = 0.0
    breakpoints = 0
    for seed in range(50):
        design, y, w = _random_oracle_problem(seed)
        std = standardize(design, w, y)
        yt = transform_response(y, w)
        state = lars_lasso_path(std, std.base.n_cols)
        assert not state.aborted
        for bp in state.breakpoints:
            beta = bp.beta[std.retained_idx]
            oracle = cd_lasso(std.base.values, yt, bp.lam)
            worst_gap = max(worst_gap, float(np.max(np.abs(beta - oracle))))
            worst_kkt = max(worst_kkt,
                            kkt_violation(std.base.values, yt, beta, bp.lam))
            breakpoints += 1
    ok = worst_gap <= 1e-6 and worst_kkt <= 1e-8
    _verdict("c3 path equals coordinate descent at every breakpoint",
             ok,
             f"50 problems, {breakpoints} breakpoints: max coefficient gap "
             f"{worst_gap:.2e} (tol 1e-6), max KKT residual {worst_kkt:.2e} "
             f"(tol 1e-8)")


# ------------------------------------------------- 4. null calibration

def test_c4_entry_test_false_significance_under_the_null():
    # Both candidates carry the same true signal (r = (u + v)/2 + noise), so
    # any significant call on the empirically ranked pair is a false one.
    alpha = 0.05
    trials = 10000
    n = 500
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(trials):
        z = rng.standard_normal((n, 3))
        u, v, e = z[:, 0], z[:, 1], z[:, 2]
        r = 0.5 * (u + v) + e
        cov = product_covariance(r, u, v)
        if cov.c1_hat < cov.c2_hat:
            cov = product_covariance(r, v, u)
        if entry_test(cov, alpha).significant:
            hits += 1
    rate = hits / trials
    bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / trials)
    _verdict("c4 null calibration of the entry test",
             rate <= bound,
             f"false-significance rate {rate:.4f} over {trials} ranked null "
             f"trials at n={n} (bound {bound:.4f})")


# ------------------------------------------------- 5. gap normality

def test_c5_standardized_gap_statistic_is_normal():
    # Fixed candidate roles with a genuine gap: r = 0.3 u + 0.1 v + noise has
    # true mean products 0.3 and 0.1.  Centering the estimated gap at its
    # truth and dividing by the plug-in standard error must give a standard
    # normal pivot.
    a, b = 0.30, 0.10
    n, resims = 2000, 1000
    rng = np.random.default_rng(3)
    zscores = np.empty(resims)
    for i in range(resims):
        z = rng.standard_normal((n, 3))
        u, v, e = z[:, 0], z[:, 1], z[:, 2]
        r = a * u + b * v + e
        cov = product_covariance(r, u, v)
        gap = cov.c1_hat - cov.c2_hat
        zscores[i] = (gap - (a - b)) * math.sqrt(n) / math.sqrt(cov.diff_variance)
    pvalue = float(stats.kstest(zscores, "norm").pvalue)
    _verdict("c5 standardized gap statistic vs standard normal",
             pvalue > 0.01,
             f"KS p-value {pvalue:.3f} over {resims} resimulations at n={n} "
             f"(need > 0.01)")


# ------------------------------------------------- 6. sample-size formula

def test_c6_sample_size_projection_matches_quantile_oracle():
    projected = required_sample_size(1000, 0.2, 0.05)
    z_alpha = float(mp_normal_upper_quantile(0.05))
    z_p = float(mp_normal_upper_quantile(0.2))
    oracle = math.ceil(1000 * (z_alpha / z_p) ** 2)
    # The projection solves sqrt(n / n') = z_p / z_alpha, and z_p shrinks as
    # the p-value grows, so weaker evidence must project a LARGER n'.  The
    # frozen target itself shows the direction: 3819 at p=0.2 dwarfs the
    # ~1012 projected at p=0.051.
    grid = np.linspace(0.051, 0.449, 50)
    values = [required_sample_size(1000, float(p), 0.05) for p in grid]
    monotone = (all(a <= b for a, b in zip(values, values[1:]))
                and values[0] < values[-1])
    ok = abs(projected - 3819) <= 1 and abs(projected - oracle) <= 1 and monotone
    _verdict("c6 sample-size projection",
             ok,
             f"required_sample_size(1000, 0.2, 0.05) = {projected} "
             f"(high-precision oracle {oracle}, target 3819±1); grows with "
             f"the p-value over a 50-point grid in (0.05, 0.45): {monotone}")


# ------------------------------------------------- 7. CLI determinism

SPOT_CHECKS = (
    ("explain linear json",
     ["explain", "--model", "builtin:linear:2,-1,0.5",
      "--instance", "1,2,3", "--seed", "3"]),
    ("explain linear fixed-n table",
     ["explain", "--model", "builtin:linear:2,-1,0.5", "--instance", "1,2,3",
      "--method", "lime", "--n", "300", "--format", "table", "--seed", "4"]),
    ("explain expression with scales",
     ["explain", "--model", "expr:3*x1 - 2*x2 + x3^2", "--instance",
      "0.5,-1,2", "--scales", "0.3,0.2,0.4", "--seed", "5"]),
    ("explain five-feature adaptive",
     ["explain", "--model", "builtin:mars",
      "--instance", "0.51,0.49,0.5,0.5,0.5", "--n0", "300", "--n-max", "600",
      "--k", "3", "--seed", "6"]),
    ("explain loose alpha table",
     ["explain", "--model", "builtin:linear:1,1", "--instance", "0.2,0.8",
      "--alpha", "0.4", "--format", "table", "--seed", "7"]),
    ("explain fresh rows with custom width",
     ["explain", "--model", "builtin:linear:2,0,1", "--instance", "1,0,1",
      "--no-reuse", "--kernel-width", "1.5", "--seed", "8"]),
    ("explain joint gate",
     ["explain", "--model", "builtin:linear:1,2,3,4", "--instance", "1,1,1,1",
      "--multiple-testing", "--growth-factor", "2.0", "--k", "2",
      "--seed", "9"]),
    ("bench linear json",
     ["bench", "--model", "builtin:linear:3,1", "--instance", "0.5,0.5",
      "--n0", "50", "--n-max", "400", "--k", "2", "--reps", "3",
      "--seed", "1"]),
    ("bench fixed-n table",
     ["bench", "--model", "builtin:linear:1,-1,2", "--instance", "1,2,3",
      "--method", "lime", "--n", "150", "--reps", "4", "--format", "table",
      "--seed", "2"]),
    ("bench five-feature two workers",
     ["bench", "--model", "builtin:mars", "--instance",
      "0.51,0.49,0.5,0.5,0.5", "--n0", "200", "--n-max", "400", "--k", "2",
      "--reps", "3", "--workers", "2", "--seed", "5"]),
)


def test_c7_cli_reruns_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SLIME_SEED", raising=False)
    mismatches = []
    for i, (label, argv) in enumerate(SPOT_CHECKS):
        # Same manifest path on both attempts: the manifest records the
        # command line, so a differing path would be a spurious mismatch.
        manifest = tmp_path / f"manifest-{i}.json"
        outputs = []
        for _attempt in (0, 1):
            code = main(list(argv) + ["--manifest", str(manifest)])
            captured = capsys.readouterr()
            assert code == 0, f"{label}: exit code {code}, stderr: {captured.err}"
            outputs.append((captured.out.encode(), manifest.read_bytes()))
        if outputs[0] != outputs[1]:
            mismatches.append(label)
    _verdict("c7 CLI reruns byte-identical",
             not mismatches,
             f"{len(SPOT_CHECKS)} explain/bench spot checks rerun with "
             f"identical flags; mismatches: {mismatches or 'none'}")


# ------------------------------------------------- 8. dataset reuse

class _CountingLinear(Model):
    """Linear model that records the size of every prediction request."""

    def __init__(self, coefficients):
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.batch_sizes = []

    def predict_batch(self, X):
        self.batch_sizes.append(X.shape[0])
        return X @ self.coefficients


def test_c8_extension_reuses_rows_and_queries_only_the_new_ones():
    model = _CountingLinear((1.0, -2.0, 0.5, 3.0, 0.25))
    instance = InstanceSpec(values=np.array([0.2, -0.4, 1.0, 0.0, 2.5]))
    first = build_dataset(model, instance, 1000, seed=11)
    grown = extend_dataset(model, first, 3819)
    queries_ok = model.batch_sizes == [1000, 2819]
    prefix_ok = (grown.X[:1000].tobytes() == first.X.tobytes()
                 and grown.y[:1000].tobytes() == first.y.tobytes()
                 and grown.weights[:1000].tobytes() == first.weights.tobytes())
    ok = queries_ok and grown.n == 3819 and prefix_ok
    _verdict("c8 dataset extension 1000 -> 3819",
             ok,
             f"prediction batches {model.batch_sizes} (want [1000, 2819]); "
             f"first 1000 rows, responses and weights bit-identical: "
             f"{prefix_ok}")
