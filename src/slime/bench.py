"""Stability metrics and benchmarking harnesses.

The central measure is the position-wise average Jaccard index: for every
cut-off k, compare the top-k feature sets of all unordered pairs of repeated
runs and average the Jaccard similarity.  A method is stable when that
average sits near 1 at every position.  The module also carries the
noise-free linear ordering experiment that demonstrates how often a plain
LASSO path swaps the entry order of two close coefficients.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .explainer import Explanation, ExplainerConfig, lime_explain, slime_explain
from .models import Model
from .sampling import InstanceSpec, _derived_seed, _seed_sequence
from .weighted_lars import DesignMatrix, lars_lasso_path, standardize

__all__ = [
    "StabilityReport",
    "ReproResult",
    "positionwise_stability",
    "repeat_explanations",
    "reproduce_mars_stability",
    "reproduce_lasso_ordering",
    "report_to_csv",
    "report_to_markdown",
    "explanation_to_dict",
    "explanations_to_jsonl",
]


def _jaccard(a: set, b: set) -> float:
    """Jaccard similarity |a & b| / |a | b|, with J(empty, empty) = 1."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


@dataclass(frozen=True)
class StabilityReport:
    """Position-wise stability of a batch of repeated runs.

    ``positions`` maps each cut-off k (1-based) to the average pairwise
    Jaccard of top-k sets.  ``ordering_histogram`` counts the full top-K
    orderings seen; its values sum to ``reps``.  ``incomplete`` flags that
    some repetitions failed and were excluded.
    """

    positions: tuple[tuple[int, float], ...]
    reps: int
    ordering_histogram: tuple[tuple[tuple[str, ...], int], ...]
    incomplete: bool = False
    failures: tuple[str, ...] = ()


def positionwise_stability(runs: Sequence[Sequence[str]],
                           k_max: int | None = None) -> StabilityReport:
    """Average pairwise Jaccard of top-k sets for k = 1 .. k_max.

    Every run must supply at least ``k_max`` ordered features; a short run is
    reported by its index in the error.  Needs at least two runs to have any
    pair to compare.
    """
    if len(runs) < 2:
        raise ValidationError("stability needs at least 2 runs")
    if k_max is None:
        k_max = min(len(run) for run in runs)
    if k_max < 1:
        raise ValidationError("k_max must be at least 1")
    ordered = [tuple(run) for run in runs]
    for i, run in enumerate(ordered):
        if len(run) < k_max:
            raise ValidationError(
                f"run {i} supplies only {len(run)} features, need {k_max}")
        if len(set(run[:k_max])) != k_max:
            raise ValidationError(f"run {i} repeats a feature in its top {k_max}")
    reps = len(ordered)
    positions = []
    for k in range(1, k_max + 1):
        tops = [set(run[:k]) for run in ordered]
        total = 0.0
        count = 0
        for i in range(reps):
            for j in range(i + 1, reps):
                total += _jaccard(tops[i], tops[j])
                count += 1
        positions.append((k, total / count))
    histogram = Counter(run[:k_max] for run in ordered)
    return StabilityReport(
        positions=tuple(positions),
        reps=reps,
        ordering_histogram=tuple(sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0]))),
    )


def repeat_explanations(model: Model, instance: InstanceSpec,
                        config: ExplainerConfig, reps: int, base_seed: int,
                        method: str = "slime", *, workers: int = 1,
                        lime_n: int | None = None
                        ) -> tuple[StabilityReport, list[Explanation]]:
    """Run one explainer ``reps`` times with derived seeds and score stability.

    Repetition i uses the seed split off as child i of ``base_seed``, so the
    batch is reproducible as a whole while repetitions stay independent.
    Failed repetitions are excluded from the report, which is then marked
    ``incomplete``.
    """
    if reps < 2:
        raise ValidationError("reps must be at least 2 to measure stability")
    if method not in ("lime", "slime"):
        raise ValidationError(f"unknown method {method!r}; use 'lime' or 'slime'")
    if workers < 1:
        raise ValidationError("workers must be at least 1")
    seeds = [_derived_seed(base_seed, (i,)) for i in range(reps)]

    def run_one(i: int) -> Explanation | str:
        try:
            seeded = replace(config, seed=seeds[i])
            if method == "lime":
                return lime_explain(model, instance, seeded, n=lime_n)
            return slime_explain(model, instance, seeded)
        except Exception as exc:   # noqa: BLE001 - collected and reported
            return f"rep {i}: {exc}"

    if workers == 1:
        outcomes = list(map(run_one, range(reps)))
    else:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            outcomes = list(pool.map(run_one, range(reps)))
        except BaseException:
            # An interrupt must not wait for the repetitions: the queued ones
            # are cancelled, and the running ones end when the caller closes
            # the model they wait on.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()
    ordered = [out for out in outcomes if not isinstance(out, str)]
    errors = [out for out in outcomes if isinstance(out, str)]
    if len(ordered) < 2:
        raise ValidationError(
            "fewer than 2 repetitions succeeded; cannot measure stability: "
            + "; ".join(errors))
    runs = [exp.feature_names for exp in ordered]
    report = positionwise_stability(runs)
    if errors:
        report = replace(report, incomplete=True, failures=tuple(errors))
    return report, ordered


def _lasso_ordering_experiment(coefficients: Sequence[float], n: int, runs: int,
                              seed: int) -> Counter:
    """Entry-order histogram for a noise-free linear response.

    Each run draws an (n, p) matrix of independent standard normals, sets
    ``y = X @ coefficients`` with no noise, walks the unweighted LASSO path
    to the full entry order, and tallies the order of first entries.

    Columns are centered but deliberately not rescaled to unit norm: the
    features share a common population scale by construction, and the
    sample-norm fluctuations are part of the instability being measured.
    Rescaling would roughly halve the frequency of the minority orderings.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    p = coefficients.size
    if p < 2:
        raise ValidationError("the ordering experiment needs at least 2 coefficients")
    if runs < 1:
        raise ValidationError("runs must be at least 1")
    if n < p + 2:
        raise ValidationError(f"n must be at least p + 2 = {p + 2}")
    names = tuple(f"x{i + 1}" for i in range(p))
    weights = np.ones(n)
    histogram: Counter = Counter()
    for run in range(runs):
        gen = np.random.Generator(np.random.Philox(_seed_sequence(seed, (run,))))
        X = gen.standard_normal((n, p))
        y = X @ coefficients
        design = DesignMatrix(values=X, column_names=names)
        std = standardize(design, weights, y, scale_columns=False)
        state = lars_lasso_path(std, max_active=p)
        seen: list[str] = []
        for _, name, _ in state.entry_events:
            if name not in seen:
                seen.append(name)
        histogram[tuple(seen)] += 1
    return histogram


def report_to_csv(report: StabilityReport) -> str:
    lines = ["position,avg_jaccard"]
    for k, value in report.positions:
        lines.append(f"{k},{value!r}")
    return "\n".join(lines) + "\n"


def report_to_markdown(report: StabilityReport, title: str = "Stability") -> str:
    lines = [f"| Position | {title} |", "| --- | --- |"]
    for k, value in report.positions:
        lines.append(f"| {k} | {value:.4f} |")
    return "\n".join(lines) + "\n"


def explanation_to_dict(explanation: Explanation) -> dict:
    return {
        "selected": [{"feature": name, "coefficient": coef}
                     for name, coef in explanation.selected],
        "intercept": explanation.intercept,
        "final_n": explanation.final_n,
        "capped": explanation.capped,
        "seed": explanation.seed,
        "test_trace": [
            {
                "step": d.step,
                "n": d.n,
                "compared": list(d.compared),
                "statistic_t": d.statistic_t if math.isfinite(d.statistic_t) else None,
                "p_value": d.p_value,
                "significant": d.significant,
                "recommended_n": d.recommended_n,
            }
            for d in explanation.test_trace
        ],
    }


def explanations_to_jsonl(explanations: Sequence[Explanation]) -> str:
    return "".join(json.dumps(explanation_to_dict(explanation), sort_keys=True) + "\n"
                   for explanation in explanations)


@dataclass(frozen=True)
class ReproResult:
    """Outcome of a canned reproduction run.

    ``checks`` holds one (label, ok, detail) triple per assertion the run
    makes; ``passed`` is their conjunction.
    """

    name: str
    passed: bool
    checks: tuple[tuple[str, bool, str], ...]

    def summary_lines(self) -> tuple[str, ...]:
        rows = tuple(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}"
                     for label, ok, detail in self.checks)
        verdict = "PASS" if self.passed else "FAIL"
        return rows + (f"{verdict}  {self.name}",)


# Canned five-feature benchmark: a smooth synthetic regression surface with
# one dominant curvature term, a pair of interacting features whose local
# slopes nearly tie, and a second near-tie between the two weakest features.
# The two close pairs are exactly what makes a single LASSO run unstable.
_MARS_REPRO_INSTANCE = (0.51, 0.49, 0.5, 0.5, 0.5)
_MARS_REPRO_SCALE = 0.05
_MARS_REPRO_BASE_SEED = 1
_MARS_REPRO_REPS = 20

_ORDERING_REPRO_COEFFS = (1.0, 0.75, 0.7)
_ORDERING_REPRO_N = 1000
_ORDERING_REPRO_RUNS = 500
_ORDERING_REPRO_SEED = 0


def reproduce_mars_stability(*, workers: int = 1) -> ReproResult:
    """Benchmark the builtin five-feature model with both methods.

    Runs the adaptive method (n0=1000, n_max=10000, alpha=0.05) and the
    fixed-n baseline (n=1000) for ``_MARS_REPRO_REPS`` repetitions each and
    checks that the adaptive method keeps the position-wise average Jaccard
    at or above 0.95 everywhere while the baseline drops to 0.95 or below at
    position 2 or position 4.
    """
    from .models import MarsModel

    model = MarsModel()
    instance = InstanceSpec(
        values=np.array(_MARS_REPRO_INSTANCE),
        feature_scales=np.full(len(_MARS_REPRO_INSTANCE), _MARS_REPRO_SCALE),
    )
    config = ExplainerConfig(n0=1000, alpha=0.05, k=5, n_max=10000, seed=0)
    slime_report, _ = repeat_explanations(
        model, instance, config, reps=_MARS_REPRO_REPS,
        base_seed=_MARS_REPRO_BASE_SEED, method="slime", workers=workers)
    lime_report, _ = repeat_explanations(
        model, instance, config, reps=_MARS_REPRO_REPS,
        base_seed=_MARS_REPRO_BASE_SEED, method="lime", lime_n=1000,
        workers=workers)

    slime_j = {k: v for k, v in slime_report.positions}
    lime_j = {k: v for k, v in lime_report.positions}
    checks = []
    for k in sorted(slime_j):
        checks.append((f"adaptive position {k}", slime_j[k] >= 0.95,
                       f"avg Jaccard {slime_j[k]:.3f} (need >= 0.95)"))
    baseline_unstable = lime_j.get(2, 1.0) <= 0.95 or lime_j.get(4, 1.0) <= 0.95
    checks.append(("baseline position 2 or 4 unstable", baseline_unstable,
                   f"avg Jaccard {lime_j.get(2, 1.0):.3f} / {lime_j.get(4, 1.0):.3f}"
                   " (need <= 0.95 at one of them)"))
    passed = all(ok for _, ok, _ in checks)
    return ReproResult(name="mars", passed=passed, checks=tuple(checks))


def reproduce_lasso_ordering() -> ReproResult:
    """Monte-Carlo check of plain LASSO entry-order instability.

    With coefficients (1, 0.75, 0.7) and ``_ORDERING_REPRO_RUNS`` runs of
    n=1000 noise-free rows the two trailing coefficients are close enough
    that the path swaps their entry order in a nontrivial fraction of runs,
    while the leading coefficient always enters first.
    """
    histogram = _lasso_ordering_experiment(
        _ORDERING_REPRO_COEFFS, n=_ORDERING_REPRO_N, runs=_ORDERING_REPRO_RUNS,
        seed=_ORDERING_REPRO_SEED)
    total = sum(histogram.values())
    swapped = histogram.get(("x1", "x3", "x2"), 0) / total
    first = sum(v for order, v in histogram.items() if order[0] == "x1") / total
    checks = (
        ("swap frequency (x1, x3, x2)", 0.12 <= swapped <= 0.28,
         f"{swapped:.3f} (need within [0.12, 0.28])"),
        ("x1 always first", first == 1.0, f"{first:.3f} (need 1.0)"),
    )
    passed = all(ok for _, ok, _ in checks)
    return ReproResult(name="lasso-ordering", passed=passed, checks=checks)
