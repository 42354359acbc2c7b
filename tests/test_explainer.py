"""Explainer checks: determinism, gating, growth, caps, refit honesty."""

import numpy as np
import pytest

from oracles import weighted_ols
from slime.errors import ValidationError
from slime.explainer import (ExplainerConfig, Explanation, lime_explain,
                             slime_explain)
from slime.models import LinearModel, MarsModel
from slime.sampling import InstanceSpec, build_dataset, default_kernel_width

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
    model = LinearModel([0.0, 0.0], intercept=5.0)
    for explanation in (lime_explain(model, instance, config),
                        slime_explain(model, instance, config)):
        assert explanation.selected == ()
        assert explanation.intercept == pytest.approx(5.0, abs=1e-12)
        assert explanation.final_n == 100
        assert not explanation.capped

