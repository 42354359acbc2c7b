"""Frozen structure of seeded explanations.

The CLI's byte checks (c7) compare a run with itself.  This test compares
today's runs with frozen values.  Which features are selected and in what
order, where the sample stopped and every gate decision were recorded from
the residual-form path walk, before the walk moved onto the Gram.  The
coefficients and intercepts are each case's own weighted least squares
over its final sample, solved with mpmath at 50 digits from sums formed
exactly in integers, and a run must land within 1e-12 relative of them.
The test statistic and p-value are left out on purpose; they come from
floating-point sums that a change of algebra may move in their last digits
without changing any decision.

It covers the ten c7 spot checks (explain runs replayed with ``--format
json``, bench runs with ``--report`` so every repetition is visible) and
twenty seeded ``slime_explain`` runs on ``builtin:mars``, top-two and
Bonferroni, growing and capped.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from slime.bench import explanation_to_dict
from slime.cli import build_parser, main
from slime.explainer import ExplainerConfig, slime_explain
from slime.models import MarsModel
from slime.sampling import InstanceSpec
from test_acceptance import SPOT_CHECKS

GOLDEN = Path(__file__).with_name("golden_structure.json")

# (instance, scale, n0, n_max, k, multiple_testing, seeds)
MARS_RUNS = (
    ((0.51, 0.49, 0.5, 0.5, 0.5), 0.05, 1000, 10000, 5, False, range(6)),
    ((0.6, 0.3, 0.8, 0.5, 0.5), 0.1, 300, 50000, 4, False, range(4)),
    ((0.51, 0.49, 0.5, 0.5, 0.5), 0.05, 1000, 10000, 5, True, range(2)),
    ((0.6, 0.3, 0.8, 0.5, 0.5), 0.1, 300, 50000, 3, True, range(4)),
    ((0.2, 0.8, 0.5, 0.5, 0.5), 0.1, 300, 50000, 2, True, range(4, 8)),
)


def _structure(record: dict, n_max: int) -> dict:
    return {
        "selected": [s["feature"] for s in record["selected"]],
        "coefficients": [s["coefficient"] for s in record["selected"]],
        "intercept": record["intercept"],
        "final_n": record["final_n"],
        "capped": record["capped"],
        "decisions": [[d["step"], d["n"], d["compared"], d["significant"],
                       min(d["recommended_n"], n_max)]
                      for d in record["test_trace"]],
    }


def _spot_check_structures(tmp_path: Path, capsys) -> dict:
    runs = {}
    for i, (label, argv) in enumerate(SPOT_CHECKS):
        n_max = build_parser().parse_args(list(argv)).n_max
        extra = ["--manifest", str(tmp_path / f"manifest-{i}.json")]
        report = tmp_path / f"report-{i}"
        if argv[0] == "bench":
            extra += ["--report", str(report)]
        else:
            extra += ["--format", "json"]
        code = main(list(argv) + extra)
        out = capsys.readouterr().out
        assert code == 0, label
        if argv[0] == "bench":
            lines = (report / "raw.jsonl").read_text(encoding="utf-8").splitlines()
            records = [json.loads(line) for line in lines]
        else:
            records = [json.loads(out)]
        runs[label] = [_structure(r, n_max) for r in records]
    return runs


def _mars_structures() -> dict:
    model = MarsModel()
    runs = {}
    for i, (values, scale, n0, n_max, k, joint, seeds) in enumerate(MARS_RUNS):
        instance = InstanceSpec(values=np.array(values),
                                feature_scales=np.full(len(values), scale))
        for seed in seeds:
            config = ExplainerConfig(n0=n0, n_max=n_max, k=k, seed=seed,
                                     multiple_testing=joint)
            record = explanation_to_dict(slime_explain(model, instance, config))
            gate = "bonferroni" if joint else "top-two"
            runs[f"mars {i} {gate} seed {seed}"] = [_structure(record, n_max)]
    return runs


def _assert_same(label: str, got: dict, want: dict) -> None:
    for key in ("selected", "final_n", "capped", "decisions"):
        assert got[key] == want[key], f"{label}: {key}"
    values = np.array(want["coefficients"] + [want["intercept"]])
    scale = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    np.testing.assert_allclose(got["coefficients"] + [got["intercept"]],
                               values, rtol=1e-12, atol=scale, err_msg=label)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_spot_check_structure_is_frozen(golden, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = _spot_check_structures(tmp_path, capsys)
    assert sorted(got) == sorted(golden["spot_checks"])
    for label, runs in got.items():
        want = golden["spot_checks"][label]
        assert len(runs) == len(want), label
        for g, w in zip(runs, want):
            _assert_same(label, g, w)


def test_mars_explanation_structure_is_frozen(golden):
    got = _mars_structures()
    assert sorted(got) == sorted(golden["mars"])
    for label, (run,) in got.items():
        _assert_same(label, run, golden["mars"][label][0])
