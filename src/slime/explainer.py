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

A gated round runs one walk (:func:`_gated_walk`).  A decision whose
products read only columns the sample keeps is made as it comes, in one
pass over them: the standardized design yields the residual's products with
the top candidate and its rivals, a block of rows at a time, and
:func:`~slime.stability_testing.product_covariances` merges the blocks.  A
sample that keeps its rows keeps every column.  A round whose rows hold
more than 2**20 entries keeps none of them but a few columns
(:func:`_sample`); from its first decision that reads another column on,
its rows are drawn again once for all the round's remaining decisions.  The
correlations with the response and the intercept's weighted mean come from
the sample's weighted moments, which carry the answers: an ungated round
reads no row after the weigh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularityError, ValidationError
from .models import Model, _check_input_dim
from .sampling import (_LARGE_ENTRIES, InstanceSpec, PerturbationDataset,
                       _check_seed, _check_width, _derived_seed, _design, _empty,
                       _without_rows, build_dataset, extend_dataset)
# product_covariance is not called here since the gate makes one pass per
# decision; the name stays so that perfbench/layers.py can wrap it.
from .stability_testing import (TestDecision, _DEFAULT_GROWTH_FACTOR,  # noqa: F401
                                _ProductMerge, _check_alpha, _check_growth_factor,
                                bonferroni_entry_test, entry_test,
                                product_covariance, product_covariances)
# transform_response is not called here since standardize takes the
# response's moments; the name stays so that perfbench/layers.py can wrap it.
from .weighted_lars import (EntryContext, PathState,  # noqa: F401
                            StandardizedDesign, _EntryObserver,
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
    sample size; ``seed`` (non-negative) keys every row drawn;
    ``reuse_samples`` keeps already-queried rows when growing.  A rule that
    another module owns is checked by that module's helper.
    """

    n0: int = 1000
    alpha: float = 0.05
    k: int = 5
    n_max: int = 10000
    kernel_width: float | None = None
    multiple_testing: bool = False
    growth_factor: float = _DEFAULT_GROWTH_FACTOR
    seed: int = 0
    reuse_samples: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be at least 1")
        _check_sample_size("n0", self.n0, self.k)
        _check_alpha(self.alpha)
        if self.n_max < self.n0:
            raise ValidationError("n_max must be at least n0")
        if self.kernel_width is not None:
            _check_width(self.kernel_width)
        _check_growth_factor(self.growth_factor)
        _check_seed(self.seed)


def _check_sample_size(name: str, n: int, k: int) -> None:
    if n < k + 2:
        raise ValidationError(f"{name} must be at least k + 2 = {k + 2}")


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


def _compared(config: ExplainerConfig, ctx: EntryContext) -> tuple[list[int], np.ndarray]:
    """The columns an entry's test compares, the top candidate first, and the
    sign of each one's correlation."""
    rivals = ctx.candidates[1:] if config.multiple_testing else ctx.candidates[1:2]
    compared = (ctx.candidates[0], *rivals)
    # The negation rule: a negatively correlated candidate is compared
    # through its sign-flipped column so every correlation is positive.
    return ([candidate.index for candidate in compared],
            np.array([-1.0 if candidate.c_hat < 0 else 1.0 for candidate in compared]))


def _decide(config: ExplainerConfig, ctx: EntryContext, covs: list) -> TestDecision:
    """The entry test of ``ctx`` on the covariances of its compared columns."""
    top, rivals = ctx.candidates[0], ctx.candidates[1:1 + len(covs)]
    if config.multiple_testing:
        return bonferroni_entry_test(
            covs, config.alpha,
            compared_names=[(top.name, rival.name) for rival in rivals],
            step=ctx.step, growth_factor=config.growth_factor)
    return entry_test(
        covs[0], config.alpha, compared=(top.name, rivals[0].name),
        step=ctx.step, growth_factor=config.growth_factor)


def _entry_gate(config: ExplainerConfig, design: StandardizedDesign,
                trace: list[TestDecision]) -> _EntryObserver:
    """Observer that tests each entry, in one pass over the rows, and appends
    its decision to ``trace``."""

    def gate(ctx: EntryContext) -> bool:
        if len(ctx.candidates) < 2:
            return True   # nothing to compete against: entry is forced
        idx, signs = _compared(config, ctx)
        covs = product_covariances(design.residual_products(ctx.beta, idx), signs)
        trace.append(_decide(config, ctx, covs))
        return trace[-1].significant

    return gate


def _gated_walk(config: ExplainerConfig, design: StandardizedDesign,
                max_active: int, trace: list[TestDecision]) -> PathState:
    """The walk with every entry gated by :func:`_entry_gate`, drawing the
    rows again at most once.

    Entries whose tests read only columns the sample keeps are decided as
    they come, by the lazy gate; on a sample that keeps its rows that is
    every entry.  From the first entry that reads another column on, the
    gate records each contested entry and lets it in: the gate only votes,
    so up to its first refusal that walk is the gated one.  One pass over
    the rows drawn again then merges every recorded entry's products; the
    entries are decided in order, and the walk is cut at the first refusal.
    A walk that fails past a refused entry is walked again, gated by the
    decisions, as the lazy gate would have stopped it there.
    """
    decide_now = _entry_gate(config, design, trace)
    later = []

    def gate(ctx: EntryContext) -> bool:
        if len(ctx.candidates) < 2:
            return True   # nothing to compete against: entry is forced
        idx, signs = _compared(config, ctx)
        if not later and design.sample._keeps(design._residual_reads(ctx.beta, idx)):
            return decide_now(ctx)
        later.append((ctx, signs, design._residual_block(ctx.beta, idx)))
        return True

    try:
        state, failure = lars_lasso_path(design, max_active, observer=gate), None
    except SingularityError as error:
        state, failure = None, error
    merges = [_ProductMerge() for _ in later]

    def block(rows: slice, values: np.ndarray) -> list:
        with np.errstate(over="ignore", invalid="ignore"):
            return [_ProductMerge.block(task(rows, values)) for _, _, task in later]

    if later:
        for blocks in design.sample._map_blocks(block):
            for merge, moments in zip(merges, blocks):
                merge.add(moments)
    for (ctx, signs, _), merge in zip(later, merges):
        trace.append(_decide(config, ctx, merge.covariances(signs)))
        if not trace[-1].significant:
            if state is None:
                return lars_lasso_path(design, max_active,
                                       observer=lambda seen: seen.step < ctx.step)
            return state._aborted_before(ctx.step)
    if failure is not None:
        raise failure
    return state


def _walk(dataset: PerturbationDataset, config: ExplainerConfig,
          trace: list[TestDecision] | None) -> tuple[StandardizedDesign, PathState]:
    """One round: standardize the sample and walk its LASSO path.

    With a ``trace`` every entry is gated and its decision appended there
    (:func:`_gated_walk`).  The standardized design is handed back for the
    refit.
    """
    std = standardize(_design(dataset), dataset.weights, dataset.y,
                      moments=dataset.moments)
    max_active = min(config.k, std.retained_idx.size, dataset.n - 1)
    if trace is None:
        return std, lars_lasso_path(std, max_active)
    return std, _gated_walk(config, std, max_active, trace)


def _sample(model: Model, instance: InstanceSpec, config: ExplainerConfig, n: int,
            seed: int, dataset: PerturbationDataset | None = None) -> PerturbationDataset:
    """``dataset`` grown to n rows, or a new one drawn from ``seed``.

    The rows are kept only while they hold at most ``_LARGE_ENTRIES``
    entries, and the budget ``n_max`` is reserved only if it is under that
    line; a larger sample keeps its answers, weights and moments, and a
    gated round draws its rows again.
    """
    p = instance.n_features
    if n * p > _LARGE_ENTRIES:
        start = _empty(instance, seed, config.kernel_width) if dataset is None else dataset
        return extend_dataset(model, _without_rows(start), n)
    if dataset is None:
        return build_dataset(model, instance, n, seed, config.kernel_width)
    capacity = config.n_max if config.n_max * p <= _LARGE_ENTRIES else 0
    return extend_dataset(model, dataset, n, capacity=capacity)


def _explain(model: Model, instance: InstanceSpec, config: ExplainerConfig,
             n: int, gated: bool) -> Explanation:
    """The round loop behind both explainers: walk, grow if gated and
    undecided, walk again; refit the last walk's features."""
    _check_input_dim(model, instance.n_features)
    dataset = _sample(model, instance, config, n, config.seed)
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
                dataset = _sample(model, instance, config, recommended, config.seed,
                                  dataset)
        else:
            dataset = _sample(model, instance, config, recommended,
                              _derived_seed(config.seed, (0x5EED, round_index)))
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
    n = config.n0 if n is None else n
    _check_sample_size("n", n, config.k)
    return _explain(model, instance, config, n, gated=False)


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
