"""The benchmark's workloads: inputs made from a seed, the timed op, checks.

Each workload turns the run's ``--seed`` into a fixed list of op inputs
(``CYCLE`` per-op seeds) and hands the package only generated inputs: an
instance, coefficients and a per-op seed.  The timed loop cycles through
that list, so every count is an exact function of the seed and an op that
is repeated must give the same output again.  ``CYCLE`` is about the number
of ops a 25 s run holds, so a run's median is taken over distinct inputs.

``op`` returns an :class:`OpResult`; ``check`` lists what is wrong with it
(an empty list means the output is correct).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shlex
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import slime.bench as bench
import slime.cli as cli
import slime.explainer as explainer
from slime.bench import explanation_to_dict
from slime.explainer import ExplainerConfig
from slime.models import LinearModel, MarsModel, Model
from slime.sampling import InstanceSpec

from layers import predict_target

CHILD = Path(__file__).resolve().parent / "linear_child.py"

# Refit error the linear checks allow; the measured error is about 1e-14.
COEF_TOL = 1e-9


def derive_seed(seed: int, index: int) -> int:
    """Per-op seed ``index`` of a run seeded with ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(0xBE7C, index))
    return int(ss.generate_state(1, np.uint32)[0])


@dataclass
class OpResult:
    explanations: list[dict]     # explanation_to_dict of every explanation
    rows_queried: int            # rows handed to the model's predict_batch
    extra: dict                  # workload-specific values the check reads

    @property
    def rows_used(self) -> int:
        return sum(e["final_n"] for e in self.explanations)


class CountingModel(Model):
    """Delegates to a builtin model and counts the rows it is asked about."""

    def __init__(self, inner: Model):
        self.inner = inner
        self.input_dim = inner.input_dim
        self.rows = 0
        self._lock = threading.Lock()    # repeat_explanations may query from a pool

    def predict_batch(self, X):
        with self._lock:
            self.rows += len(X)
        return self.inner.predict_batch(X)


def check_linear(explanation: dict, truth: np.ndarray, k: int) -> list[str]:
    """Selection of k truly active features with exact refit coefficients."""
    problems = []
    names = [item["feature"] for item in explanation["selected"]]
    if len(names) != k or len(set(names)) != k:
        problems.append(f"selected {names}, expected {k} distinct features")
    for item in explanation["selected"]:
        true = truth[int(item["feature"][1:]) - 1]
        if true == 0.0:
            problems.append(f"{item['feature']} has a zero true coefficient")
        elif not abs(item["coefficient"] - true) <= COEF_TOL:
            problems.append(f"{item['feature']} refit {item['coefficient']!r}, truth {true!r}")
    if not abs(explanation["intercept"]) <= COEF_TOL:
        problems.append(f"intercept {explanation['intercept']!r}, truth 0")
    return problems


class Workload:
    name: str
    CYCLE: int

    def inputs(self, seed: int) -> list[int]:
        return [derive_seed(seed, i) for i in range(self.CYCLE)]

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def op(self, op_seed: int) -> OpResult:
        raise NotImplementedError

    def check(self, result: OpResult) -> list[str]:
        raise NotImplementedError

    def probes(self, op_seed: int) -> list:
        """Zero-argument calls, one explanation each, for the memory pass."""
        return [lambda: self.op(op_seed)]

    def traced_objects(self) -> list:
        """``extra`` trace targets owned by the workload: its model."""
        return [predict_target(self.model)]


class MarsStability(Workload):
    """``slime repro mars``: 20 adaptive and 20 fixed-n explanations per op."""

    name = "mars-stability"
    CYCLE = 100
    REPS = 20
    # The CLI and ``slime repro mars`` default.  Two pool threads gain nothing
    # under the GIL and make the op's wall time follow whether the second
    # core is free.
    WORKERS = 1
    LIME_N = 1000

    def setup(self, workdir):
        self.model = CountingModel(MarsModel())
        self.instance = InstanceSpec(values=np.array([0.51, 0.49, 0.5, 0.5, 0.5]),
                                     feature_scales=np.full(5, 0.05))
        self.config = ExplainerConfig(n0=1000, alpha=0.05, k=5, n_max=10000, seed=0)

    def op(self, op_seed):
        before = self.model.rows
        reports = []
        explanations = []
        for method in ("slime", "lime"):
            report, runs = bench.repeat_explanations(
                self.model, self.instance, self.config, reps=self.REPS,
                base_seed=op_seed, method=method, workers=self.WORKERS,
                lime_n=self.LIME_N)
            reports.append(report)
            explanations.extend(explanation_to_dict(e) for e in runs)
        return OpResult(explanations, self.model.rows - before, {"reports": reports})

    def check(self, result):
        problems = []
        cfg = self.config
        if len(result.explanations) != 2 * self.REPS:
            problems.append(f"{len(result.explanations)} explanations, expected {2 * self.REPS}")
        for e in result.explanations:
            names = [item["feature"] for item in e["selected"]]
            if len(set(names)) != 5 or len(names) != 5:
                problems.append(f"selected {names}, expected 5 distinct features")
            values = [item["coefficient"] for item in e["selected"]] + [e["intercept"]]
            if not all(math.isfinite(v) for v in values):
                problems.append("non-finite coefficient")
            if not cfg.n0 <= e["final_n"] <= cfg.n_max:
                problems.append(f"final_n {e['final_n']} outside [{cfg.n0}, {cfg.n_max}]")
            if e["capped"] and e["final_n"] != cfg.n_max:
                problems.append(f"capped at final_n {e['final_n']} != n_max")
        for report in result.extra["reports"]:
            if report.incomplete:
                problems.append(f"failed repetitions: {report.failures}")
            if not all(0.0 <= value <= 1.0 for _, value in report.positions):
                problems.append(f"Jaccard outside [0, 1]: {report.positions}")
        return problems

    def probes(self, op_seed):
        config = replace(self.config, seed=op_seed)
        return [lambda: explainer.slime_explain(self.model, self.instance, config),
                lambda: explainer.lime_explain(self.model, self.instance, config,
                                               n=self.LIME_N)]


class LinearWorkload(Workload):
    """One ``slime_explain`` per op on a builtin linear model."""

    P: int
    CONFIG: dict

    def coefficients(self) -> np.ndarray:
        raise NotImplementedError

    def setup(self, workdir):
        self.truth = self.coefficients()
        self.model = CountingModel(LinearModel(self.truth))
        self.instance = InstanceSpec(values=np.zeros(self.P))
        self.config = ExplainerConfig(**self.CONFIG)

    def op(self, op_seed):
        before = self.model.rows
        explanation = explainer.slime_explain(
            self.model, self.instance, replace(self.config, seed=op_seed))
        return OpResult([explanation_to_dict(explanation)],
                        self.model.rows - before, {})

    def check(self, result):
        return check_linear(result.explanations[0], self.truth, self.config.k)


def near_tied_pairs(p: int, pairs: int, last: float) -> np.ndarray:
    """x1..x(2*pairs) hold pairs (c, 0.995 c), c = linspace(1, last, pairs)."""
    coefficients = np.zeros(p)
    leads = np.linspace(1.0, last, pairs)
    coefficients[0:2 * pairs:2] = leads
    coefficients[1:2 * pairs:2] = 0.995 * leads
    return coefficients


class WideCapped(LinearWorkload):
    name = "wide-capped"
    CYCLE = 8
    P = 200
    CONFIG = dict(k=20, n0=1000, n_max=100_000)

    def coefficients(self):
        return near_tied_pairs(self.P, 10, 0.55)


class GradedGrowth(LinearWorkload):
    """Gate-heavy growth.  Not in BENCHMARK.json: an op's final n ranges from
    about 5k to 200k with the seed, so a run's totals spread too widely."""

    name = "graded-growth"
    CYCLE = 16
    P = 50
    CONFIG = dict(k=8, n0=1000, n_max=200_000, multiple_testing=True)

    def coefficients(self):
        coefficients = np.zeros(self.P)
        coefficients[:8] = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3]
        return coefficients


class ExecPipe(Workload):
    """``slime explain`` in-process against the stdlib child model."""

    name = "exec-pipe"
    CYCLE = 25
    P = 20
    K = 6
    N_MAX = 20_000

    def setup(self, workdir):
        self.truth = near_tied_pairs(self.P, 3, 0.6)
        self.count_file = workdir / "child-rows.txt"
        self.manifest = workdir / "manifest.json"
        coefs = ",".join(repr(float(c)) for c in self.truth)
        command = " ".join(shlex.quote(part) for part in (
            sys.executable, str(CHILD), coefs, str(self.count_file)))
        self.argv_head = ["explain", "--model", f"exec:{command}",
                          "--instance", ",".join(["0"] * self.P),
                          "--k", str(self.K), "--n-max", str(self.N_MAX),
                          "--manifest", str(self.manifest)]

    def op(self, op_seed):
        self.count_file.unlink(missing_ok=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(self.argv_head + ["--seed", str(op_seed)])
        text = stdout.getvalue()
        try:
            explanation = json.loads(text)
        except json.JSONDecodeError:
            explanation = None
        rows = int(self.count_file.read_text()) if self.count_file.exists() else 0
        explanations = [explanation] if isinstance(explanation, dict) else []
        return OpResult(explanations, rows, {"code": code, "stdout": text})

    def check(self, result):
        if result.extra["code"] != 0:
            return [f"exit code {result.extra['code']}"]
        if not result.explanations:
            return [f"stdout is not a JSON object: {result.extra['stdout'][:200]!r}"]
        return check_linear(result.explanations[0], self.truth, self.K)

    def traced_objects(self):
        return []     # the CLI builds the model; layers.targets wraps it there


WORKLOADS = {w.name: w for w in (MarsStability, WideCapped, GradedGrowth, ExecPipe)}
