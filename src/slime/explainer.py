"""Local explanations: plain fixed-n and the stabilized adaptive variant.

Both explainers sample a Gaussian neighborhood of the instance, weight rows
by the locality kernel, run the weighted LASSO path until k features are
active, and refit those features by weighted least squares on the original
scale.  The stabilized variant additionally gates every variable entry with
the CLT test from :mod:`slime.stability_testing`: if the top candidate's lead
over its competition could plausibly flip on regenerated data, the path is
abandoned, the sample grown to the recommended size (reusing existing rows
by default), and the walk restarted.  Once the requested budget ``n_max``
would be exceeded, one final pass runs untested and the result is marked
``capped``.

Each decision's moments come from one pass over the raw sample for the top
candidate and its rivals (:func:`~slime.stability_testing.product_covariances`).
The correlations with the response and the intercept's weighted mean come
from the sample's weighted moments, which carry the answers: an ungated
round reads no row after the weigh, and a gated one builds only the gate's
residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .models import Model
from .sampling import (InstanceSpec, PerturbationDataset, build_dataset,
                       derived_seed, extend_dataset)
# product_covariance is not called here since the gate makes one pass per
# decision; the name stays so that perfbench/layers.py can wrap it.
from .stability_testing import (DEFAULT_GROWTH_FACTOR, TestDecision,  # noqa: F401
                                bonferroni_entry_test, entry_test,
                                product_covariance, product_covariances)
# transform_response is not called here since standardize takes the
# response's moments; the name stays so that perfbench/layers.py can wrap it.
from .weighted_lars import (DesignMatrix, EntryContext,  # noqa: F401
                            EntryObserver, PathState, StandardizedDesign,
                            lars_lasso_path, refit_least_squares, standardize,
                            transform_response)

__all__ = ["ExplainerConfig", "Explanation", "lime_explain", "slime_explain"]


@dataclass(frozen=True)
class ExplainerConfig:
    """Knobs shared by both explainers.

    ``n0`` is the starting (and, for the plain explainer, only) sample size;
    ``k`` the number of features to select; ``alpha`` the per-entry test
    level; ``n_max`` the sample budget; ``kernel_width`` the locality kernel
    width (None means the 0.75 * sqrt(p) default); ``multiple_testing``
    switches the entry gate from the top-two comparison to the summed
    pairwise comparison against every remaining candidate; ``growth_factor``
    is the fallback multiplier when a test is too hopeless to project a
    sample size; ``reuse_samples`` keeps already-queried rows when growing.
    """

    n0: int = 1000
    alpha: float = 0.05
    k: int = 5
    n_max: int = 10000
    kernel_width: float | None = None
    multiple_testing: bool = False
    growth_factor: float = DEFAULT_GROWTH_FACTOR
    seed: int = 0
    reuse_samples: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be at least 1")
        if self.n0 < self.k + 2:
            raise ValidationError(f"n0 must be at least k + 2 = {self.k + 2}")
        if not (0.0 < self.alpha < 0.5):
            raise ValidationError("alpha must lie strictly in (0, 0.5)")
        if self.n_max < self.n0:
            raise ValidationError("n_max must be at least n0")
        if self.kernel_width is not None and not self.kernel_width > 0:
            raise ValidationError("kernel_width must be positive")
        if self.growth_factor < 2.0:
            raise ValidationError("growth_factor must be at least 2")


@dataclass(frozen=True)
class Explanation:
    """Result of one explanation run.

    ``selected`` pairs each chosen feature, in selection order, with its
    refit coefficient.  ``test_trace`` holds every entry-test decision made
    along the way (empty for the plain explainer); ``capped`` records that
    the sample budget cut the adaptive loop short; ``seed`` is the config's
    seed, which reproduces the run.
    """

    selected: tuple[tuple[str, float], ...]
    intercept: float
    final_n: int
    capped: bool
    test_trace: tuple[TestDecision, ...]
    seed: int

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.selected)


def _entry_gate(config: ExplainerConfig, design: StandardizedDesign,
                trace: list[TestDecision]) -> EntryObserver:
    """Observer that tests each entry and appends its decision to ``trace``."""

    def gate(ctx: EntryContext) -> bool:
        if len(ctx.candidates) < 2:
            return True   # nothing to compete against: entry is forced
        top = ctx.candidates[0]
        rivals = ctx.candidates[1:] if config.multiple_testing else ctx.candidates[1:2]
        idx = [candidate.index for candidate in (top, *rivals)]
        # The negation rule: a negatively correlated candidate is compared
        # through its sign-flipped column so every correlation is positive.
        signs = np.array([-1.0 if candidate.c_hat < 0 else 1.0
                          for candidate in (top, *rivals)])
        # The columns' sqrt(w) factor rides on the residual.
        covs = product_covariances(ctx.residual * design.sqrt_weights,
                                   design.sample.values, design.retained_idx[idx],
                                   design.col_means[idx], design.col_norms[idx], signs)
        if config.multiple_testing:
            decision = bonferroni_entry_test(
                covs, config.alpha,
                compared_names=[(top.name, rival.name) for rival in rivals],
                step=ctx.step, growth_factor=config.growth_factor)
        else:
            decision = entry_test(
                covs[0], config.alpha, compared=(top.name, rivals[0].name),
                step=ctx.step, growth_factor=config.growth_factor)
        trace.append(decision)
        return decision.significant

    return gate


def _walk(dataset: PerturbationDataset, config: ExplainerConfig,
          trace: list[TestDecision] | None) -> tuple[StandardizedDesign, PathState]:
    """One round: standardize the sample and walk its LASSO path.

    With a ``trace`` every entry is gated and its decision appended there.
    The gate dies when the round returns; the standardized design is handed
    back for the refit.
    """
    # Sampled rows are finite by construction: no finiteness scan.
    design = DesignMatrix._trusted(dataset.X, dataset.instance.feature_names)
    std = standardize(design, dataset.weights, dataset.y, moments=dataset.moments)
    max_active = min(config.k, std.retained_idx.size, dataset.n - 1)
    gate = None if trace is None else _entry_gate(config, std, trace)
    return std, lars_lasso_path(std, max_active, observer=gate)


def _explain(model: Model, instance: InstanceSpec, config: ExplainerConfig,
             n: int, gated: bool) -> Explanation:
    """The round loop behind both explainers: walk, grow if gated and
    undecided, walk again; refit the last walk's features."""
    if getattr(model, "input_dim", instance.n_features) != instance.n_features:
        raise ValidationError(
            f"model expects {model.input_dim} features, instance has {instance.n_features}")
    dataset = build_dataset(model, instance, n, config.seed, config.kernel_width)
    trace: list[TestDecision] = []
    capped = False
    round_index = 0
    while True:
        std, state = _walk(dataset, config, trace if gated and not capped else None)
        if not state.aborted:
            break
        # The round's standardized design holds its sample: release it
        # before the sample grows and the next round standardizes.
        del std
        # An aborted walk ends on its failed decision.
        recommended = trace[-1].recommended_n
        if recommended > config.n_max:
            recommended = config.n_max
            capped = True
        round_index += 1
        if config.reuse_samples:
            if recommended > dataset.n:
                # The budget is reserved on the first growth; the rows it
                # never fills are never touched.
                dataset = extend_dataset(model, dataset, recommended,
                                         capacity=config.n_max)
        else:
            dataset = build_dataset(model, instance, recommended,
                                    derived_seed(config.seed, (0x5EED, round_index)),
                                    config.kernel_width)
        # If capped with recommended <= dataset.n (budget already reached),
        # the loop simply reruns ungated on the data it has.

    names = state.active_set
    if names:
        coef, intercept = refit_least_squares(std, names)
        selected = tuple((name, float(c)) for name, c in zip(names, coef))
    else:
        # Degenerate: nothing correlates with the response.  Report the
        # weighted mean as the intercept and no features.
        selected = ()
        intercept = std.response_mean
    return Explanation(selected=selected, intercept=float(intercept),
                       final_n=dataset.n, capped=capped,
                       test_trace=tuple(trace), seed=config.seed)


def lime_explain(model: Model, instance: InstanceSpec,
                 config: ExplainerConfig, n: int | None = None) -> Explanation:
    """Plain fixed-sample explanation: sample once, select, refit."""
    sample_n = config.n0 if n is None else n
    if sample_n < config.k + 2:
        raise ValidationError(f"n must be at least k + 2 = {config.k + 2}")
    return _explain(model, instance, config, sample_n, gated=False)


def slime_explain(model: Model, instance: InstanceSpec,
                  config: ExplainerConfig) -> Explanation:
    """Stabilized explanation with adaptive sample growth.

    Runs the gated path; on an undecided entry, grows the sample to the
    test's recommended size and restarts.  Growth reuses existing rows when
    ``config.reuse_samples`` (the default); otherwise each round draws a
    fresh dataset from a seed derived for that round.  When the
    recommendation would exceed ``n_max``, the sample is set to ``n_max``
    and one final ungated pass produces the (capped) answer.
    """
    return _explain(model, instance, config, config.n0, gated=True)
