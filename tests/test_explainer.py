"""Explainer checks: determinism, gating, growth, caps, refit honesty,
memory, and metamorphic relations."""

import hashlib
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slime.explainer
import slime.sampling
import slime.weighted_lars
from oracles import weighted_ols
from slime.bench import explanation_to_dict
from slime.errors import SingularityError, ValidationError
from slime.explainer import (ExplainerConfig, Explanation, lime_explain,
                             slime_explain)
from slime.models import LinearModel, MarsModel, Model
from slime.sampling import _default_kernel_width as default_kernel_width
from slime.sampling import (InstanceSpec, _check_seed, _check_width,
                            build_dataset, extend_dataset)
from slime.stability_testing import _check_alpha, _check_growth_factor
from slime.weighted_lars import StandardizedDesign, standardize

MARS_INSTANCE = InstanceSpec(values=np.array([0.51, 0.49, 0.5, 0.5, 0.5]),
                             feature_scales=np.full(5, 0.05))


def coefs(explanation: Explanation) -> np.ndarray:
    return np.array([c for _, c in explanation.selected])


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ValidationError):
        ExplainerConfig(k=0)
    with pytest.raises(ValidationError):
        ExplainerConfig(n0=4, k=3)
    with pytest.raises(ValidationError):
        ExplainerConfig(alpha=0.0)
    with pytest.raises(ValidationError):
        ExplainerConfig(alpha=0.5)
    with pytest.raises(ValidationError):
        ExplainerConfig(n0=1000, n_max=999)
    with pytest.raises(ValidationError):
        ExplainerConfig(kernel_width=0.0)
    with pytest.raises(ValidationError):
        ExplainerConfig(growth_factor=1.9)


def test_config_errors_are_those_of_the_rules_owners():
    for field, value, check in (("alpha", 0.7, _check_alpha),
                                ("growth_factor", 1.5, _check_growth_factor),
                                ("kernel_width", math.inf, _check_width),
                                ("seed", -1, _check_seed)):
        with pytest.raises(ValidationError) as owner:
            check(value)
        with pytest.raises(ValidationError) as config:
            ExplainerConfig(**{field: value})
        assert str(config.value) == str(owner.value), field


def test_lime_rejects_tiny_sample():
    config = ExplainerConfig(k=3)
    with pytest.raises(ValidationError):
        lime_explain(LinearModel([1.0, 0.0, 0.0]),
                     InstanceSpec(values=np.zeros(3)), config, n=4)


def test_model_dimension_mismatch():
    config = ExplainerConfig(k=2)
    with pytest.raises(ValidationError):
        lime_explain(MarsModel(), InstanceSpec(values=np.zeros(3)), config)
    with pytest.raises(ValidationError):
        slime_explain(MarsModel(), InstanceSpec(values=np.zeros(3)), config)


# ------------------------------------------------------------- determinism

def test_lime_is_deterministic():
    config = ExplainerConfig(n0=300, k=3, seed=5)
    instance = InstanceSpec(values=np.zeros(4))
    model = LinearModel([2.0, -1.0, 0.5, 0.0])
    a = lime_explain(model, instance, config)
    b = lime_explain(model, instance, config)
    assert a == b
    c = lime_explain(model, instance,
                     ExplainerConfig(n0=300, k=3, seed=6))
    assert a.selected != c.selected     # floats differ across seeds


def test_slime_is_deterministic():
    config = ExplainerConfig(n0=500, k=5, n_max=2000, seed=3)
    a = slime_explain(MarsModel(), MARS_INSTANCE, config)
    b = slime_explain(MarsModel(), MARS_INSTANCE, config)
    assert a == b


# ------------------------------------------------------- plain explanation

def test_lime_single_dominant_feature():
    config = ExplainerConfig(n0=400, k=1, seed=2)
    instance = InstanceSpec(values=np.zeros(3))
    explanation = lime_explain(LinearModel([1.0, 0.0, 0.0]), instance, config)
    assert explanation.feature_names == ("x1",)
    assert coefs(explanation)[0] == pytest.approx(1.0, abs=1e-10)
    assert explanation.intercept == pytest.approx(0.0, abs=1e-10)
    assert explanation.final_n == 400
    assert not explanation.capped
    assert explanation.test_trace == ()


def test_lime_full_selection_recovers_linear_model():
    config = ExplainerConfig(n0=500, k=3, seed=9)
    instance = InstanceSpec(values=np.array([1.0, -2.0, 0.5]))
    model = LinearModel([2.0, -3.0, 0.5], intercept=0.7)
    explanation = lime_explain(model, instance, config)
    got = dict(explanation.selected)
    assert got["x1"] == pytest.approx(2.0, abs=1e-8)
    assert got["x2"] == pytest.approx(-3.0, abs=1e-8)
    assert got["x3"] == pytest.approx(0.5, abs=1e-8)
    assert explanation.intercept == pytest.approx(0.7, abs=1e-8)


def test_refit_matches_weighted_least_squares_oracle():
    config = ExplainerConfig(n0=600, k=3, seed=4)
    explanation = lime_explain(MarsModel(), MARS_INSTANCE, config)
    dataset = build_dataset(MarsModel(), MARS_INSTANCE, 600, config.seed,
                            default_kernel_width(5))
    idx = [MARS_INSTANCE.feature_names.index(n)
           for n in explanation.feature_names]
    oracle_coefs, oracle_int = weighted_ols(dataset.X[:, idx], dataset.y,
                                            dataset.weights)
    np.testing.assert_allclose(coefs(explanation), oracle_coefs, atol=1e-10)
    assert explanation.intercept == pytest.approx(oracle_int, abs=1e-10)


def test_refit_is_accurate_far_from_zero():
    # Rows near (200, ..., 1000) spread by 0.05: the final round's weighted
    # least squares, solved to 60 digits from the same rows, weights and
    # answers.  An uncentred system misses x1 by 19% here.
    instance = InstanceSpec(values=np.linspace(200.0, 1000.0, 5),
                            feature_scales=np.full(5, 0.05))
    explanation = slime_explain(MarsModel(), instance, ExplainerConfig(seed=20))
    want = {"x3": 23999.888713007727, "x2": 4.426975943195013,
            "x4": 4.036632792997143, "x5": 3.582877798053895,
            "x1": -0.01663368950496429}
    assert explanation.feature_names == tuple(want)
    np.testing.assert_allclose(coefs(explanation), list(want.values()), rtol=1e-10)
    assert explanation.intercept == pytest.approx(-7200552.843379402, rel=1e-10)


# ---------------------------------------------------------- adaptive loop

def test_slime_clear_gaps_need_no_growth():
    config = ExplainerConfig(n0=200, k=3, n_max=8000, seed=1)
    instance = InstanceSpec(values=np.zeros(3))
    explanation = slime_explain(LinearModel([10.0, 1.0, 0.1]), instance, config)
    assert explanation.final_n == 200
    assert not explanation.capped
    assert explanation.feature_names == ("x1", "x2", "x3")
    # k-th entry has no competitor left, so exactly k - 1 gated decisions
    assert len(explanation.test_trace) == 2
    assert all(d.significant for d in explanation.test_trace)


def test_slime_grows_until_the_ordering_is_resolved():
    config = ExplainerConfig(n0=50, k=3, n_max=200000, seed=0)
    instance = InstanceSpec(values=np.zeros(3))
    explanation = slime_explain(LinearModel([1.0, 0.9, 0.0]), instance, config)
    assert explanation.final_n > 50          # at least one growth round
    assert not explanation.capped
    # the exact-fit residual vanishes after the two real features, so the
    # path stops there instead of padding the selection to k
    assert explanation.feature_names == ("x1", "x2")
    failures = [d for d in explanation.test_trace if not d.significant]
    assert failures
    for d in failures:
        assert d.recommended_n > d.n
    assert explanation.test_trace[-1].significant


def test_growth_releases_each_sample_before_the_next_standardize(monkeypatch):
    standardize = slime.explainer.standardize
    samples = []

    def spy(design, weights, response, **kwargs):
        assert all(sample() is None for sample in samples)
        samples.append(weakref.ref(design.values))
        return standardize(design, weights, response, **kwargs)

    monkeypatch.setattr(slime.explainer, "standardize", spy)
    config = ExplainerConfig(n0=200, k=2, n_max=20000, seed=3)
    explanation = slime_explain(LinearModel([1.0, 0.98, 0.5]),
                                InstanceSpec(values=np.zeros(3)), config)
    assert len(samples) >= 2 and explanation.final_n > 200


def test_slime_caps_on_a_coin_flip():
    instance = InstanceSpec(values=np.zeros(2))
    model = LinearModel([1.0, 1.0])
    capped = 0
    for seed in range(20):
        config = ExplainerConfig(n0=100, k=2, n_max=400, seed=seed)
        explanation = slime_explain(model, instance, config)
        if explanation.capped:
            capped += 1
            assert explanation.final_n == 400
            assert len(explanation.feature_names) == 2
            last = explanation.test_trace[-1]
            assert not last.significant
            assert last.recommended_n > 400
    # equal coefficients leave the entry order undecidable at any n, so the
    # budget should bite essentially always
    assert capped >= 18


def test_slime_with_loose_alpha_matches_plain_lime():
    config = ExplainerConfig(n0=500, alpha=0.499, k=4, n_max=2000, seed=1)
    instance = InstanceSpec(values=np.zeros(4))
    model = LinearModel([3.0, 2.0, 1.0, 0.5])
    stabilized = lime_explain(model, instance, config)
    adaptive = slime_explain(model, instance, config)
    assert adaptive.final_n == 500
    assert not adaptive.capped
    assert adaptive.feature_names == stabilized.feature_names
    np.testing.assert_array_equal(coefs(adaptive), coefs(stabilized))
    assert adaptive.intercept == stabilized.intercept
    assert len(adaptive.test_trace) == 3
    assert all(d.significant for d in adaptive.test_trace)


def test_multiple_testing_gate_compares_all_competitors():
    config = ExplainerConfig(n0=1000, k=5, n_max=2000, seed=0,
                             multiple_testing=True)
    explanation = slime_explain(MarsModel(), MARS_INSTANCE, config)
    assert explanation.test_trace
    for decision in explanation.test_trace:
        assert len(decision.compared) == 2
        assert 0.0 <= decision.p_value <= 1.0
    rerun = slime_explain(MarsModel(), MARS_INSTANCE, config)
    assert explanation == rerun


def test_fresh_sampling_mode_is_deterministic():
    config = ExplainerConfig(n0=50, k=3, n_max=200000, seed=0,
                             reuse_samples=False)
    instance = InstanceSpec(values=np.zeros(3))
    model = LinearModel([1.0, 0.9, 0.0])
    a = slime_explain(model, instance, config)
    b = slime_explain(model, instance, config)
    assert a == b
    assert a.final_n > 50


def test_feature_rescaling_rescales_coefficients_only():
    base_instance = InstanceSpec(values=np.array([1.0, 2.0, 3.0]))
    scaled_instance = InstanceSpec(values=np.array([1.0, 2.0, 30.0]),
                                   feature_scales=np.array([1.0, 1.0, 10.0]))
    base_model = LinearModel([2.0, -1.0, 0.5])
    scaled_model = LinearModel([2.0, -1.0, 0.05])
    config = ExplainerConfig(n0=200, k=3, n_max=3200, seed=7)
    base = slime_explain(base_model, base_instance, config)
    scaled = slime_explain(scaled_model, scaled_instance, config)
    assert base.feature_names == scaled.feature_names
    assert base.final_n == scaled.final_n
    assert base.capped == scaled.capped
    ratio = np.array([10.0 if name == "x3" else 1.0
                      for name in base.feature_names])
    np.testing.assert_allclose(coefs(base), coefs(scaled) * ratio, rtol=1e-9)
    assert base.intercept == pytest.approx(scaled.intercept, rel=1e-9)


def test_constant_response_selects_nothing():
    config = ExplainerConfig(n0=100, k=2, seed=0)
    instance = InstanceSpec(values=np.zeros(2))
    for intercept in (5.0, 1e100, 7e250):
        model = LinearModel([0.0, 0.0], intercept=intercept)
        for explanation in (lime_explain(model, instance, config),
                            slime_explain(model, instance, config)):
            # About the first answer a constant sums to exactly zero; the
            # rounding noise of an inexact pilot would pass the path's
            # absolute stop test at the larger magnitudes.
            assert explanation.selected == (), intercept
            assert explanation.intercept == intercept
            assert explanation.final_n == 100
            assert not explanation.capped


# ------------------------------------------------------------------ memory

def near_tied(p: int) -> LinearModel:
    """x1..x8 hold four pairs (c, 0.995 c): the gate cannot settle them."""
    coefficients = np.zeros(p)
    coefficients[0:8:2] = [1.0, 0.9, 0.8, 0.7]
    coefficients[1:8:2] = 0.995 * coefficients[0:8:2]
    return LinearModel(coefficients)


def test_explainers_never_build_the_standardized_base(monkeypatch):
    def refuse(self):
        raise AssertionError("the explainer built the n x p standardized base")

    monkeypatch.setattr(StandardizedDesign, "base", property(refuse))
    instance = InstanceSpec(values=np.zeros(12))
    for multiple_testing in (False, True):
        config = ExplainerConfig(n0=200, k=4, n_max=6000, seed=1,
                                 multiple_testing=multiple_testing)
        explanation = slime_explain(near_tied(12), instance, config)
        assert explanation.final_n > 200
    lime_explain(near_tied(12), instance, config)


def test_only_gated_rounds_make_the_response_vector(monkeypatch):
    # No round transforms the response over the rows: the correlations and
    # the intercept come from the moments.  Only a gated round builds the
    # gate's residual products, once per decision; an ungated one (lime, or
    # the capped last round) reads no row of the response.
    def refuse(*args):
        raise AssertionError("the explainer transformed the response")

    monkeypatch.setattr(slime.explainer, "transform_response", refuse)
    monkeypatch.setattr(slime.weighted_lars, "transform_response", refuse)
    path, products = slime.explainer.lars_lasso_path, StandardizedDesign.residual_products
    walks = []

    def counted(self, beta, columns):
        walks[-1][1] += 1
        return products(self, beta, columns)

    def spy(design, max_active, observer=None):
        walks.append([observer is None, 0])
        return path(design, max_active, observer=observer)

    monkeypatch.setattr(StandardizedDesign, "residual_products", counted)
    monkeypatch.setattr(slime.explainer, "lars_lasso_path", spy)
    instance = InstanceSpec(values=np.zeros(2))
    config = ExplainerConfig(n0=100, k=2, n_max=400, seed=1)
    explanation = slime_explain(LinearModel([1.0, 1.0]), instance, config)
    assert explanation.capped
    lime_explain(LinearModel([1.0, 1.0]), instance, config)
    assert walks[0] == [False, 1]
    assert walks[-2:] == [[True, 0], [True, 0]]
    assert all((calls == 0) == ungated for ungated, calls in walks)
    assert sum(calls for _, calls in walks) == len(explanation.test_trace)


def test_growing_explanation_holds_one_copy_of_its_sample():
    # Growth writes new rows into spare rows reserved up to n_max, and no
    # n x p standardized copy is made: the traced peak stays near the
    # final sample's own bytes.
    p, n_max = 50, 40000
    config = ExplainerConfig(n0=1000, k=4, n_max=n_max, seed=2)
    model, instance = near_tied(p), InstanceSpec(values=np.zeros(p))
    tracemalloc.start()
    try:
        explanation = slime_explain(model, instance, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert explanation.capped and explanation.final_n == n_max
    sample_bytes = n_max * p * 8
    assert peak <= 1.5 * sample_bytes, f"peak {peak / sample_bytes:.2f}x the sample"


def test_a_large_sample_is_held_a_few_blocks_at_a_time(monkeypatch):
    # p = 200, n_max = 60000: the whole sample would be 96 MB.  A round
    # whose rows hold more than 2**20 entries keeps none of them: its growth
    # holds two turns of one block per thread, 4096 rows and the fewer than
    # 1024 that lead into the next block, and its gate one block more than it
    # has threads.  It keeps 16 columns, held twice while they grow.  A kept
    # round holds at most 2**20 entries, alive while it grows into one that
    # keeps none.  Beside those, a round holds vectors of n and p x p matrices.
    p, n_max, workers = 200, 60000, 2
    monkeypatch.setattr(slime.sampling, "_cpu_count", lambda: workers)
    config = ExplainerConfig(n0=1000, k=4, n_max=n_max, seed=0)
    model, instance = near_tied(p), InstanceSpec(values=np.zeros(p))
    tracemalloc.start()
    try:
        explanation = slime_explain(model, instance, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert explanation.capped and explanation.final_n == n_max
    assert any(d.n * p > 1 << 20 for d in explanation.test_trace)   # a large gated round
    block = (4096 + 1023) * p * 8
    bound = (2 * workers * block + (1 << 20) * 8 + 2 * 16 * n_max * 8
             + 16 * n_max * 8 + 8 * p * p * 8)
    assert peak <= bound, f"peak {peak / 1e6:.1f} MB over the {bound / 1e6:.1f} MB bound"


def _path_bytes(state) -> tuple:
    return (state.aborted, tuple(state.active_set), state.beta.tobytes(),
            tuple(state.entry_events), tuple(state.drop_events),
            tuple((b.beta.tobytes(), b.lam, b.active) for b in state.breakpoints))


@pytest.mark.parametrize("fail_at", [None, 1, 3])
@pytest.mark.parametrize("multiple_testing", [False, True])
def test_a_round_that_keeps_no_rows_gates_like_the_lazy_gate(monkeypatch, multiple_testing,
                                                             fail_at):
    # The same rows, kept and not: the gate that reads kept columns and
    # draws the rest again in one pass makes the lazy gate's decisions and
    # ends the walk in its state.  With ``fail_at``, a walk that lets entry
    # ``fail_at`` in then raises, as a singular active set would: the lazy
    # gate raises only when no earlier entry was refused.
    path = slime.explainer.lars_lasso_path

    def failing(design, max_active, observer=None):
        def vote(ctx):
            admitted = observer(ctx)
            if admitted and fail_at is not None and ctx.step >= fail_at:
                raise SingularityError("the active set is singular", features=())
            return admitted
        return path(design, max_active, observer=vote)

    monkeypatch.setattr(slime.explainer, "lars_lasso_path", failing)
    p = 60
    model, instance = near_tied(p), InstanceSpec(values=np.zeros(p))
    config = ExplainerConfig(k=6, multiple_testing=multiple_testing)
    start = build_dataset(model, instance, n=1000, seed=4)
    for n in (20000, 45000):
        outcomes = []
        for dataset, gated in (
                (extend_dataset(model, start, n),
                 lambda std, trace: failing(std, 6, slime.explainer._entry_gate(
                     config, std, trace))),
                (extend_dataset(model, slime.sampling._without_rows(start), n),
                 lambda std, trace: slime.explainer._gated_walk(
                     config, std, 6, trace))):
            std = standardize(slime.sampling._design(dataset), dataset.weights, dataset.y,
                              moments=dataset.moments)
            trace = []
            try:
                outcome = _path_bytes(gated(std, trace))
            except SingularityError:
                outcome = "raised"
            outcomes.append((outcome, trace))
        assert outcomes[0] == outcomes[1], (n, fail_at)


def _leading(p: int, leads: list) -> tuple[LinearModel, InstanceSpec]:
    coefficients = np.zeros(p)
    coefficients[:len(leads)] = leads
    return LinearModel(coefficients), InstanceSpec(values=np.zeros(p))


def _pairs(p: int) -> tuple[LinearModel, InstanceSpec]:
    coefficients = np.zeros(p)
    coefficients[0:6:2] = [1.0, 0.8, 0.6]
    coefficients[1:6:2] = 0.995 * coefficients[0:6:2]
    return LinearModel(coefficients), InstanceSpec(values=np.zeros(p))


# sha256 of each explanation's sorted JSON, made when every round kept its
# rows.  Rounds past 2**20 entries keep none now, and must not move a byte.
_LARGE_ROUND_CASES = {
    # Top-two gate, p = 200: three large rounds pass two entries and refuse
    # the third, and the last passes all five, each reading kept columns.
    "top-two": ("de5694010e7e8a45397e3ae4664862ef7e5c2901deec11474c49c00fb2fc3fbd",
                lambda: slime_explain(*_leading(200, [1.0, 0.9, 0.8, 0.77, 0.6, 0.5]),
                                      ExplainerConfig(n0=1000, k=5, n_max=60000, seed=0))),
    # Geometric leads with a near tie at the 18th: large rounds decide their
    # first entries on kept columns, draw the rows again for the rest, and
    # refuse the 13th and the 18th.
    "top-two-drawn-again": (
        "3f6fad21c1a6a2017e65344485cd7d20ef3336dedb5735de78889e533beec653",
        lambda: slime_explain(*_leading(200, [*0.8 ** np.arange(18), 0.97 * 0.8 ** 17,
                                              0.8 ** 19]),
                              ExplainerConfig(n0=1000, k=20, n_max=40000, seed=0))),
    # Every rival, p = 50: a large round passes all six entries ...
    "all-rivals": ("48ab947d3d50c47162010592ed0d3d32409fd04e7bf29523f9f6f22c962d965f",
                   lambda: slime_explain(*_leading(50, [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]),
                                         ExplainerConfig(n0=1000, k=6, n_max=60000, seed=0,
                                                         multiple_testing=True))),
    # ... and here the capped last round is large.
    "all-rivals-capped": ("3320951b35adad4280f7c3341a465888d8e6889875fb089703bc4ea6c2ae6ef7",
                          lambda: slime_explain(*_leading(50, [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]),
                                                ExplainerConfig(n0=1000, k=6, n_max=60000,
                                                                seed=2, multiple_testing=True))),
    "lime": ("94173df7a357824d6deae0f348060a7d8f257c4f48638dbe81dd6ed3c364ee73",
             lambda: lime_explain(*_pairs(200), ExplainerConfig(n0=1000, k=4, seed=0), n=9000)),
    # Fresh rows each round: a large refused round, then a large capped one.
    "fresh": ("f74662c25865973ae561f1d957f8b6324fc1bd0df231af57ee33f254008e3034",
              lambda: slime_explain(*_pairs(100), ExplainerConfig(
                  n0=1000, k=4, n_max=40000, seed=1, reuse_samples=False))),
}


@pytest.mark.parametrize("case", sorted(_LARGE_ROUND_CASES))
def test_large_rounds_give_the_pinned_bytes(case):
    digest, explain = _LARGE_ROUND_CASES[case]
    text = json.dumps(explanation_to_dict(explain()), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ------------------------------------------------------------- metamorphic

class Transformed(Model):
    """``a * inner(x - offset) + b``: the MARS benchmark moved by ``offset``
    in input space, with an affine map on its output."""

    def __init__(self, offset: float, a: float = 1.0, b: float = 0.0):
        self.inner, self.offset, self.a, self.b = MarsModel(), offset, a, b
        self.input_dim = 5

    def predict_batch(self, X):
        return self.a * self.inner.predict_batch(X - self.offset) + self.b


def decisions(explanation: Explanation) -> list:
    return [(d.step, d.n, d.compared, d.significant)
            for d in explanation.test_trace]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(a=st.floats(0.01, 100.0), b=st.floats(-1e3, 1e3),
       offset=st.floats(-1e3, 1e3), seed=st.integers(0, 2**16),
       multiple_testing=st.booleans())
def test_affine_response_keeps_selection_and_decisions(a, b, offset, seed,
                                                       multiple_testing):
    instance = InstanceSpec(values=MARS_INSTANCE.values + offset,
                            feature_scales=MARS_INSTANCE.feature_scales)
    config = ExplainerConfig(n0=300, k=3, n_max=5000, seed=seed,
                             multiple_testing=multiple_testing)
    plain = slime_explain(Transformed(offset), instance, config)
    moved = slime_explain(Transformed(offset, a, b), instance, config)
    assert moved.feature_names == plain.feature_names
    assert decisions(moved) == decisions(plain)
    assert moved.final_n == plain.final_n and moved.capped == plain.capped


# Effective strengths |coefficient| * scale: 3.0, 1.8, 1.0, 0.45, 0.2.
SEPARATED = np.array([3.0, -0.9, 4.0, 0.3, -0.1])
SEPARATED_SCALES = np.array([1.0, 2.0, 0.25, 1.5, 2.0])


@settings(max_examples=15, deadline=None, derandomize=True)
@given(order=st.permutations(range(5)), offset=st.floats(-1e3, 1e3),
       seed=st.integers(0, 2**16))
def test_permuting_features_permutes_the_selection(order, offset, seed):
    order = np.array(order)
    names = ("a", "b", "c", "d", "e")
    config = ExplainerConfig(n0=1000, k=3, n_max=8000, seed=seed)
    explanations = []
    for perm in (np.arange(5), order):
        instance = InstanceSpec(values=offset + np.arange(5.0)[perm],
                                feature_names=[names[i] for i in perm],
                                feature_scales=SEPARATED_SCALES[perm])
        explanations.append(slime_explain(LinearModel(SEPARATED[perm]),
                                          instance, config))
    assert explanations[0].feature_names == ("a", "b", "c")
    assert explanations[1].feature_names == explanations[0].feature_names


@settings(max_examples=15, deadline=None, derandomize=True)
@given(j=st.integers(0, 4), factor=st.floats(1e-3, 1e3),
       offset=st.floats(-1e3, 1e3), seed=st.integers(0, 2**16))
def test_rescaling_a_feature_with_its_scale_keeps_the_selection(j, factor,
                                                                offset, seed):
    values = offset + np.arange(5.0)
    coefficients = SEPARATED.copy()
    scales = SEPARATED_SCALES.copy()
    config = ExplainerConfig(n0=300, k=3, n_max=5000, seed=seed)
    plain = slime_explain(LinearModel(coefficients),
                          InstanceSpec(values=values, feature_scales=scales),
                          config)
    values[j] *= factor
    scales[j] *= factor
    coefficients[j] /= factor
    scaled = slime_explain(LinearModel(coefficients),
                           InstanceSpec(values=values, feature_scales=scales),
                           config)
    assert scaled.feature_names == plain.feature_names
    assert decisions(scaled) == decisions(plain)
