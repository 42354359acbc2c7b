"""Sampling checks: prefix-exact row streams, kernel algebra, CSV scales."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from slime import sampling
from slime.errors import (DegenerateInputError, ModelQueryError,
                          ValidationError)
from slime.models import LinearModel, MarsModel, Model
from slime.sampling import _default_kernel_width as default_kernel_width
from slime.sampling import (InstanceSpec, PerturbationDataset, build_dataset,
                            extend_dataset, gaussian_perturb, kernel_weights,
                            query_model, scales_from_csv)
from slime.weighted_lars import (DesignMatrix, WeightedMoments, lars_lasso_path,
                                 refit_least_squares, standardize,
                                 transform_response)


class CountingLinear(Model):
    """Linear model that records every batch it is asked for."""

    def __init__(self, coefficients):
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.batches = []

    @property
    def batch_sizes(self):
        return [X.shape[0] for X in self.batches]

    def predict_batch(self, X):
        self.batches.append(X.copy())
        return X @ self.coefficients


def spec2(scales=(1.0, 1.0)):
    return InstanceSpec(values=np.array([0.5, -1.0]),
                        feature_scales=np.asarray(scales, dtype=float))


# ---------------------------------------------------------------- instance

def test_instance_spec_defaults():
    spec = InstanceSpec(values=np.array([1.0, 2.0, 3.0]))
    assert spec.feature_names == ("x1", "x2", "x3")
    np.testing.assert_array_equal(spec.feature_scales, np.ones(3))
    assert spec.n_features == 3


def test_instance_spec_validation():
    with pytest.raises(ValidationError):
        InstanceSpec(values=np.ones((2, 2)))
    with pytest.raises(ValidationError):
        InstanceSpec(values=np.array([]))
    with pytest.raises(ValidationError):
        InstanceSpec(values=np.array([1.0, np.inf]))
    with pytest.raises(ValidationError):
        InstanceSpec(values=np.ones(2), feature_names=("a",))
    with pytest.raises(ValidationError):
        InstanceSpec(values=np.ones(2), feature_names=("a", "a"))
    with pytest.raises(ValidationError):
        InstanceSpec(values=np.ones(2), feature_scales=np.ones(3))
    with pytest.raises(ValidationError):
        InstanceSpec(values=np.ones(2), feature_scales=np.array([1.0, 0.0]))


def test_default_kernel_width():
    assert default_kernel_width(1) == pytest.approx(0.75)
    assert default_kernel_width(4) == pytest.approx(1.5)
    with pytest.raises(ValidationError):
        default_kernel_width(0)


# ---------------------------------------------------------------- sampling

def test_rows_are_deterministic_in_seed():
    spec = spec2()
    a = gaussian_perturb(spec, 64, seed=9)
    b = gaussian_perturb(spec, 64, seed=9)
    c = gaussian_perturb(spec, 64, seed=10)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_longer_draw_extends_shorter_exactly():
    spec = spec2()
    short = gaussian_perturb(spec, 100, seed=4)
    long = gaussian_perturb(spec, 250, seed=4)
    np.testing.assert_array_equal(long[:100], short)


def test_prefix_exact_across_block_boundary():
    # the row stream is built from 1024-row blocks; crossing the boundary
    # must not disturb earlier rows
    spec = spec2()
    a = gaussian_perturb(spec, 1024, seed=11)
    b = gaussian_perturb(spec, 1025, seed=11)
    c = gaussian_perturb(spec, 2100, seed=11)
    np.testing.assert_array_equal(b[:1024], a)
    np.testing.assert_array_equal(c[:1025], b)


def test_start_offset_gives_identical_slice():
    spec = spec2()
    full = gaussian_perturb(spec, 1100, seed=5)
    mid = gaussian_perturb(spec, 50, seed=5, start=1000)
    np.testing.assert_array_equal(mid, full[1000:1050])
    tail = gaussian_perturb(spec, 76, seed=5, start=1024)
    np.testing.assert_array_equal(tail, full[1024:1100])


def test_perturb_validation():
    spec = spec2()
    with pytest.raises(ValidationError):
        gaussian_perturb(spec, 0, seed=1)
    with pytest.raises(ValidationError):
        gaussian_perturb(spec, 10, seed=1, start=-1)
    with pytest.raises(ValidationError, match="seed"):
        gaussian_perturb(spec, 10, seed=-1)


def test_sample_moments_match_instance_and_scales():
    spec = InstanceSpec(values=np.array([3.0, -2.0]),
                        feature_scales=np.array([2.0, 0.5]))
    X = gaussian_perturb(spec, 40000, seed=0)
    se = spec.feature_scales / math.sqrt(40000)
    assert np.all(np.abs(X.mean(axis=0) - spec.values) < 5 * se)
    np.testing.assert_allclose(X.std(axis=0), spec.feature_scales, rtol=0.03)


# ------------------------------------------------------------------ kernel

def test_kernel_weight_is_one_at_the_instance():
    spec = spec2()
    w = kernel_weights(spec.values[None, :], spec, width=1.5)
    assert w[0] == pytest.approx(1.0, abs=1e-15)


def test_kernel_weight_at_one_width_distance():
    spec = spec2(scales=(2.0, 0.5))
    width = 1.25
    direction = np.array([1.0, 0.0])
    row = spec.values + spec.feature_scales * direction * width
    w = kernel_weights(row[None, :], spec, width)
    assert w[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_kernel_weights_match_formula():
    spec = spec2(scales=(2.0, 0.5))
    rng = np.random.default_rng(8)
    X = spec.values + rng.normal(size=(50, 2))
    width = 0.9
    got = kernel_weights(X, spec, width)
    z = (X - spec.values) / spec.feature_scales
    want = np.exp(-(z ** 2).sum(axis=1) / width**2)
    np.testing.assert_allclose(got, want, rtol=1e-14)
    assert np.all(got > 0) and np.all(got <= 1)


def test_kernel_weights_stay_positive_far_away():
    spec = spec2()
    far = spec.values + np.array([[1e6, -1e6]])
    w = kernel_weights(far, spec, width=0.75)
    assert w[0] > 0


def test_kernel_weights_validation():
    spec = spec2()
    with pytest.raises(ValidationError):
        kernel_weights(np.ones((3, 2)), spec, width=0.0)
    with pytest.raises(ValidationError):
        kernel_weights(np.ones((3, 2)), spec, width=math.inf)
    with pytest.raises(ValidationError):
        kernel_weights(np.ones((3, 3)), spec, width=1.0)


def test_tiny_scales_keep_rows_near_instance():
    spec = spec2(scales=(1e-9, 1e-9))
    X = gaussian_perturb(spec, 200, seed=2)
    assert np.max(np.abs(X - spec.values)) < 1e-7
    w = kernel_weights(X, spec, default_kernel_width(2))
    # scale-normalized distances are O(1), so weights stay moderate
    assert np.all(w > 1e-12)


# ----------------------------------------------------------------- dataset

def test_build_dataset_queries_model_once():
    model = CountingLinear([2.0, -1.0])
    dataset = build_dataset(model, spec2(), n=100, seed=3)
    assert model.batch_sizes == [100]
    assert dataset.n == 100 and dataset.seed == 3
    assert dataset.kernel_width == pytest.approx(default_kernel_width(2))
    np.testing.assert_allclose(dataset.y, dataset.X @ [2.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(
        dataset.weights,
        kernel_weights(dataset.X, dataset.instance, dataset.kernel_width),
        rtol=1e-15)


def test_build_dataset_needs_two_rows():
    with pytest.raises(DegenerateInputError):
        build_dataset(CountingLinear([1.0, 1.0]), spec2(), n=1, seed=0)


@pytest.mark.parametrize("n", [10**17, 2**62, 10**20])
def test_a_sample_too_large_to_allocate_is_refused(n):
    # numpy refuses each size before it touches memory; the model is never asked.
    model = CountingLinear([1.0, 1.0])
    with pytest.raises(ValidationError, match=f"a sample of {n} rows cannot be allocated"):
        build_dataset(model, spec2(), n=n, seed=0)
    assert model.batches == []


def test_extend_reuses_rows_and_queries_only_new_ones():
    model = CountingLinear([1.0, 1.0])
    d100 = build_dataset(model, spec2(), n=100, seed=7)
    d250 = extend_dataset(model, d100, 250)
    d600 = extend_dataset(model, d250, 600)
    assert model.batch_sizes == [100, 150, 350]

    direct = build_dataset(CountingLinear([1.0, 1.0]), spec2(), n=600, seed=7)
    np.testing.assert_array_equal(d600.X, direct.X)
    np.testing.assert_array_equal(d600.y, direct.y)
    np.testing.assert_array_equal(d600.weights, direct.weights)
    np.testing.assert_array_equal(d600.X[:100], d100.X)


def test_weights_and_moments_survive_blocking_and_growth():
    # Weights are computed 4096 rows at a time, as the rows arrive; growth
    # that crosses a block boundary must leave the bytes of one
    # kernel_weights call on the whole sample.
    p = 7
    spec = InstanceSpec(values=np.linspace(200.0, 1000.0, p),
                        feature_scales=np.full(p, 0.05))
    model = LinearModel(np.linspace(1.0, -1.0, p))
    grown = build_dataset(model, spec, n=3000, seed=5)
    for new_n in (4095, 4097, 5000, 9000, 9001):
        grown = extend_dataset(model, grown, new_n)
        whole = kernel_weights(grown.X, spec, grown.kernel_width)
        assert grown.weights.tobytes() == whole.tobytes(), new_n
    direct = build_dataset(model, spec, n=9001, seed=5)
    assert grown.X.tobytes() == direct.X.tobytes()
    assert grown.weights.tobytes() == direct.weights.tobytes()
    u = grown.X - spec.values
    w = grown.weights
    assert grown.moments.total == pytest.approx(w.sum(), rel=1e-13)
    np.testing.assert_allclose(grown.moments.first, w @ u, rtol=1e-11)
    np.testing.assert_allclose(grown.moments.second, (u.T * w) @ u, rtol=1e-11)


def _on_workers(monkeypatch, workers):
    """Run the sampler as if the process had ``workers`` CPUs; returns a
    list that records each draw as ``(thread, start, rows)``."""
    monkeypatch.setattr(sampling, "_cpu_count", lambda: workers)
    draw = sampling.gaussian_perturb
    draws = []

    def recording(instance, n, seed, *, start, out):
        draws.append((threading.current_thread(), start, n))
        return draw(instance, n, seed, start=start, out=out)

    monkeypatch.setattr(sampling, "gaussian_perturb", recording)
    return draws


def _sample_bytes(dataset):
    m = dataset.moments
    return tuple(np.asarray(a).tobytes() for a in
                 (dataset.X, dataset.y, dataset.weights, m.first, m.second, m.total))


@pytest.mark.parametrize("workers", [1, 2])
def test_large_passes_give_the_same_bytes_on_any_number_of_threads(monkeypatch, workers):
    # p = 20: 60000 rows hold more than 2**20 entries, 3000 rows fewer.  The
    # growth starts between generator blocks (3000 and 70000 are not
    # multiples of 1024) and crosses 4096-row blocks counted from the start.
    p = 20
    spec = InstanceSpec(values=np.linspace(-300.0, 500.0, p),
                        feature_scales=np.linspace(0.05, 2.0, p))
    model = LinearModel(np.linspace(1.0, -1.0, p))

    def run():
        small = build_dataset(model, spec, n=3000, seed=8)
        grown = extend_dataset(model, small, 70000)
        again = extend_dataset(model, small, 70000)
        return [_sample_bytes(d) for d in (
            build_dataset(model, spec, n=60000, seed=8), grown, again,
            extend_dataset(model, again, 125001))]

    on_own_cpus = run()   # as many workers as the process has CPUs
    draws = _on_workers(monkeypatch, workers)
    assert run() == on_own_cpus
    assert on_own_cpus[1] == on_own_cpus[2]
    on_main = {thread is threading.main_thread() for thread, _, _ in draws}
    # Small passes always stay in the calling thread; large ones leave it
    # exactly when there is more than one CPU.
    assert on_main == ({True} if workers == 1 else {True, False})


def test_more_threads_than_cpus_switching_often_keep_the_bytes(monkeypatch):
    # A block weighed before its neighbour drew its leading rows, or a lost
    # or reordered moment update, would change the bytes.
    spec = InstanceSpec(values=np.array([3.0, -1.0, 0.5, 200.0, 7.0]),
                        feature_scales=np.array([0.1, 1.0, 2.0, 0.05, 0.5]))
    model = LinearModel(np.arange(1.0, 6.0))
    small = build_dataset(model, spec, n=1000, seed=6)
    monkeypatch.setattr(sampling, "_cpu_count", lambda: 1)
    reference = _sample_bytes(extend_dataset(model, small, 300001))
    monkeypatch.setattr(sampling, "_cpu_count", lambda: 8)
    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: result.append(_sample_bytes(extend_dataset(model, small, 300001))),
            daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert result == [reference]


def test_a_sample_that_keeps_no_rows_keeps_its_bytes_on_many_switching_threads(monkeypatch):
    # A lost, reordered or early-freed block in the streamed growth or in
    # the pass that draws the rows again would change the bytes.
    spec = InstanceSpec(values=np.array([3.0, -1.0, 0.5, 200.0, 7.0]),
                        feature_scales=np.array([0.1, 1.0, 2.0, 0.05, 0.5]))
    model = LinearModel(np.arange(1.0, 6.0))
    small = sampling._without_rows(build_dataset(model, spec, n=1000, seed=6))

    def run():
        grown = extend_dataset(model, small, 300001)
        std = standardize(sampling._design(grown), grown.weights, grown.y,
                          moments=grown.moments)
        return _sample_bytes(grown)[1:] + (std.base.values.tobytes(),)

    monkeypatch.setattr(sampling, "_cpu_count", lambda: 1)
    reference = run()
    monkeypatch.setattr(sampling, "_cpu_count", lambda: 8)
    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: result.append(run()), daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert result == [reference]


def test_pool_queries_the_model_once_on_the_new_rows_and_leaves_no_thread(monkeypatch):
    p = 20
    spec = InstanceSpec(values=np.zeros(p))
    model = CountingLinear(np.ones(p))
    draws = _on_workers(monkeypatch, 4)
    before = set(threading.enumerate())
    built = build_dataset(model, spec, n=60000, seed=2)
    grown = extend_dataset(model, built, 130000)
    assert set(threading.enumerate()) <= before
    assert all(thread is not threading.main_thread() for thread, _, _ in draws)
    # The draws tile the rows, and every one but a pass's first starts on a
    # generator block (1024 rows): no generator block is drawn twice.
    spans = sorted((start, start + n) for _, start, n in draws)
    assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]]
    assert (spans[0][0], spans[-1][1]) == (0, 130000)
    assert all(lo % 1024 == 0 for lo, _ in spans if lo not in (0, 60000))
    assert [X.tobytes() for X in model.batches] == [grown.X[:60000].tobytes(),
                                                    grown.X[60000:].tobytes()]


def test_a_failing_block_propagates_and_leaves_no_thread(monkeypatch):
    p = 20
    spec = InstanceSpec(values=np.zeros(p))
    model = CountingLinear(np.ones(p))
    small = build_dataset(model, spec, n=3000, seed=4)
    monkeypatch.setattr(sampling, "_cpu_count", lambda: 2)
    draw = sampling.gaussian_perturb
    lock = threading.Lock()
    calls = []

    def failing(instance, n, seed, *, start, out):
        with lock:
            calls.append(start)
            if len(calls) == 3:
                raise RuntimeError("block failed")
        return draw(instance, n, seed, start=start, out=out)

    monkeypatch.setattr(sampling, "gaussian_perturb", failing)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="block failed"):
        extend_dataset(model, small, 70000)
    assert set(threading.enumerate()) <= before
    assert model.batch_sizes == [3000]   # never queried on a partial sample


def test_a_failing_weigh_task_propagates_and_leaves_no_thread(monkeypatch):
    p = 20
    spec = InstanceSpec(values=np.zeros(p))
    model = CountingLinear(np.ones(p))
    small = build_dataset(model, spec, n=3000, seed=4)
    kept = _sample_bytes(small)
    monkeypatch.setattr(sampling, "_cpu_count", lambda: 2)
    weigh = sampling._weigh
    lock = threading.Lock()
    calls = []

    def failing(*args):
        with lock:
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("weigh failed")
        return weigh(*args)

    monkeypatch.setattr(sampling, "_weigh", failing)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="weigh failed"):
        extend_dataset(model, small, 70000)
    assert set(threading.enumerate()) <= before
    assert model.batch_sizes == [3000, 67000]
    assert _sample_bytes(small) == kept   # the grown-from dataset is untouched


@pytest.mark.parametrize("workers", [2, 4])
def test_the_weigh_holds_the_sums_of_at_most_one_block_more_than_it_has_workers(
        monkeypatch, workers):
    # A block's sums are held from the moment block_sums returns them until
    # add has taken them.  3000 rows grow by 24 blocks of 4096 on the pool.
    p = 20
    spec = InstanceSpec(values=np.zeros(p))
    model = LinearModel(np.ones(p))
    small = build_dataset(model, spec, n=3000, seed=4)
    monkeypatch.setattr(sampling, "_cpu_count", lambda: workers)
    block_sums, add = WeightedMoments.block_sums, WeightedMoments.add
    lock = threading.Lock()
    count = {"made": 0, "held": 0, "most": 0}

    def counted_block_sums(self, *args):
        sums = block_sums(self, *args)
        with lock:
            count["made"] += 1
            count["held"] += 1
            count["most"] = max(count["most"], count["held"])
        return sums

    def counted_add(self, sums):
        add(self, sums)
        with lock:
            count["held"] -= 1

    monkeypatch.setattr(WeightedMoments, "block_sums", counted_block_sums)
    monkeypatch.setattr(WeightedMoments, "add", counted_add)
    extend_dataset(model, small, 3000 + 24 * 4096)
    assert (count["made"], count["held"]) == (24, 0)
    assert count["most"] <= workers + 1


def test_a_wide_pool_pass_holds_the_sample_its_scratch_and_a_few_blocks_sums(monkeypatch):
    # p = 400 and 8 blocks of 4096 rows: the sample is 105 MB, each worker's
    # scratch 13 MB and each block's p x p sums 1.3 MB.
    p, n, workers = 400, 8 * 4096, 2
    monkeypatch.setattr(sampling, "_cpu_count", lambda: workers)
    spec = InstanceSpec(values=np.zeros(p))
    model = LinearModel(np.linspace(1.0, -1.0, p))
    tracemalloc.start()
    try:
        build_dataset(model, spec, n=n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sums = p * p * 8
    scratch = sum(a.nbytes for a in sampling._scratch(n, p))
    # Slack: the running sums and eight n-vectors.
    slack = sums + 8 * n * 8
    assert peak <= n * p * 8 + workers * scratch + (workers + 1) * sums + slack


@pytest.mark.parametrize("workers", [1, 2])
def test_a_dataset_that_keeps_no_rows_regenerates_the_stored_bytes(monkeypatch, workers):
    # 1000 rows end inside a generator block, and 30000 rows of 60 features
    # are a large pass.  The growth that keeps 16 columns holds the stored
    # rows' values of them and gives the same answers, weights and
    # moments.  The gate's products read the kept
    # columns when those hold the ones they need (the top two) and draw the
    # rows again otherwise (the top against every rival), as does the dense
    # base: either way they are the bytes the stored rows give.
    draws = _on_workers(monkeypatch, workers)
    p = 60
    spec = InstanceSpec(values=np.linspace(-3.0, 5.0, p),
                        feature_scales=np.linspace(0.5, 2.0, p))
    model = LinearModel(np.linspace(1.0, -1.0, p) ** 3)
    start = build_dataset(model, spec, n=1000, seed=5)
    stored = extend_dataset(model, start, 30000)
    streamed = extend_dataset(model, sampling._without_rows(start), 30000)
    kept = streamed._columns
    assert kept.size == 16 and streamed.X.tobytes() == stored.X[:, kept].tobytes()
    assert _sample_bytes(streamed)[1:] == _sample_bytes(stored)[1:]
    for name in ("pilot", "response", "cross"):
        got, want = getattr(streamed.moments, name), getattr(stored.moments, name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
    designs = [standardize(sampling._design(d), d.weights, d.y, moments=d.moments)
               for d in (stored, streamed)]
    assert designs[1].n_rows == 30000 and designs[1].sample.values.shape == (30000, 16)
    beta = lars_lasso_path(designs[0], 3).breakpoints[2].beta[designs[0].retained_idx]
    c = designs[0].xty - designs[0].gram @ beta
    ranked = [j for j in np.argsort(-np.abs(c), kind="stable") if beta[j] == 0]
    for columns, drawn in ((ranked[:2], 0), (ranked, 30000)):
        draws.clear()
        kept, regenerated = ([b.tobytes() for b in std.residual_products(beta, columns)]
                             for std in designs)
        assert len(kept) == 8 and kept == regenerated
        assert sum(n for _, _, n in draws) == drawn
    assert designs[1].base.values.tobytes() == designs[0].base.values.tobytes()


@pytest.mark.parametrize("workers", [1, 3])
def test_a_growth_that_keeps_no_rows_draws_each_generator_block_once(monkeypatch, workers):
    # Starts on and inside generator blocks (1024 rows), growths shorter than
    # a generator block, than the rows up to the next one, and longer than a
    # few 4096-row blocks; at p = 80, 14000 rows are a large pass.  The
    # answers, weights and moments are the stored growth's bytes; the draws
    # tile the new rows, each but the first starting on a generator block.
    p = 80
    spec = InstanceSpec(values=np.linspace(-3.0, 5.0, p),
                        feature_scales=np.linspace(0.1, 2.0, p))
    model = LinearModel(np.linspace(1.0, -2.0, p))
    draws = _on_workers(monkeypatch, workers)
    for start, grow in ((0, 14000), (1024, 14000), (3000, 1), (3000, 30), (3000, 4262),
                        (3000, 4096 + 72), (3000, 14000)):
        kept = (build_dataset(model, spec, n=start, seed=9) if start
                else sampling._empty(spec, 9, None))
        want = extend_dataset(model, kept, start + grow)
        draws.clear()
        got = extend_dataset(model, sampling._without_rows(kept), start + grow)
        assert _sample_bytes(got)[1:] == _sample_bytes(want)[1:], (start, grow)
        assert got.moments.pilot == want.moments.pilot, (start, grow)
        spans = sorted((lo, lo + n) for _, lo, n in draws)
        assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]], (start, grow)
        assert (spans[0][0], spans[-1][1]) == (start, start + grow)
        assert all(lo % 1024 == 0 for lo, _ in spans[1:]), (start, grow)


def test_a_growth_that_keeps_no_rows_asks_the_model_once_per_turn(monkeypatch):
    # On 2 workers a turn is two 4096-row blocks.  The growth starts inside
    # a generator block, and 30000 rows of 60 features are a large pass: the
    # model is asked about 8192 rows at a time, and the answers, weights and
    # moments are the bytes of a growth that keeps its rows.
    _on_workers(monkeypatch, 2)
    p = 60
    spec = InstanceSpec(values=np.linspace(-3.0, 5.0, p),
                        feature_scales=np.linspace(0.5, 2.0, p))
    model = CountingLinear(np.linspace(1.0, -1.0, p))
    start = build_dataset(model, spec, n=1000, seed=5)
    stored = extend_dataset(model, start, 31000)
    del model.batches[:]
    streamed = extend_dataset(model, sampling._without_rows(start), 31000)
    assert model.batch_sizes == [8192, 8192, 8192, 5424]
    np.testing.assert_array_equal(np.concatenate(model.batches), stored.X[1000:])
    assert _sample_bytes(streamed)[1:] == _sample_bytes(stored)[1:]
    for name in ("pilot", "response", "cross"):
        got, want = getattr(streamed.moments, name), getattr(stored.moments, name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def test_the_empty_start_of_a_wide_dataset_holds_no_moments():
    # build_dataset grows this start: a p x p zero sum would be 8 MB at p = 1000.
    p = 1000
    spec = InstanceSpec(values=np.zeros(p))
    tracemalloc.start()
    try:
        empty = PerturbationDataset(X=np.empty((0, p)), y=np.empty(0), weights=np.empty(0),
                                    seed=1, n=0, instance=spec, kernel_width=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert empty.moments is None
    assert peak < 1 << 20


def test_a_dataset_made_without_moments_extends_and_explains_like_its_parent(monkeypatch):
    # p = 20: growing 3000 rows to 70000 takes the pool; to 5000, not.
    p = 20
    spec = InstanceSpec(values=np.linspace(-3.0, 5.0, p),
                        feature_scales=np.linspace(0.5, 2.0, p))
    model = LinearModel(np.linspace(2.0, -1.0, p))
    _on_workers(monkeypatch, 2)
    parent = build_dataset(model, spec, n=3000, seed=9)
    bare = PerturbationDataset(X=parent.X, y=parent.y, weights=parent.weights,
                               seed=parent.seed, n=parent.n, instance=spec,
                               kernel_width=parent.kernel_width)
    for new_n in (5000, 70000):
        want = extend_dataset(model, parent, new_n)
        got = extend_dataset(model, bare, new_n)
        for a, b in ((got.X, want.X), (got.y, want.y), (got.weights, want.weights)):
            assert a.tobytes() == b.tobytes(), new_n
        fits = []
        for dataset in (want, got):
            design = DesignMatrix(values=dataset.X, column_names=spec.feature_names)
            std = standardize(design, dataset.weights, dataset.y,
                              moments=dataset.moments)
            state = lars_lasso_path(std, max_active=5)
            coef, intercept = refit_least_squares(std, state.active_set)
            fits.append((state.active_set, coef.tobytes(), intercept))
        assert fits[0] == fits[1], new_n


@pytest.mark.parametrize("reuse", [True, False])
@pytest.mark.parametrize("values, scales, model, sizes", [
    # Far from zero and tightly spread: the sums must not lose the spread.
    (np.linspace(200.0, 1000.0, 5), np.full(5, 0.05), MarsModel(),
     (1000, 4095, 4097, 9001, 250000)),
    (np.linspace(-3.0, 5.0, 20), np.linspace(0.5, 2.0, 20),
     LinearModel(np.linspace(2.0, -1.0, 20)), (3000, 4097, 70000, 125001)),
])
def test_correlations_from_the_moments_match_a_pass_over_the_sample(
        monkeypatch, reuse, values, scales, model, sizes):
    # Sizes cross the 4096-row blocks, and the largest hold the 2**20
    # entries that put the weigh phase on the pool.
    _on_workers(monkeypatch, 2)
    spec = InstanceSpec(values=values, feature_scales=scales)
    dataset = build_dataset(model, spec, n=sizes[0], seed=3)
    for i, n in enumerate(sizes):
        if i:
            dataset = (extend_dataset(model, dataset, n) if reuse
                       else build_dataset(model, spec, n=n, seed=3 + i))
        design = DesignMatrix(values=dataset.X, column_names=spec.feature_names)
        std = standardize(design, dataset.weights, dataset.y, moments=dataset.moments)
        want = std.base.values.T @ transform_response(dataset.y, dataset.weights)
        assert np.abs(std.xty - want).max() <= 1e-12 * np.abs(want).max(), n


def test_response_sums_are_the_same_bytes_on_any_path(monkeypatch):
    # The pool or the calling thread, grown or made by hand from the same
    # rows: one pilot, one blocking, one order of additions.
    p = 20
    spec = InstanceSpec(values=np.linspace(-3.0, 5.0, p),
                        feature_scales=np.linspace(0.5, 2.0, p))
    model = LinearModel(np.linspace(2.0, -1.0, p))

    def response_sums(dataset):
        m = dataset.moments
        return np.float64(m.pilot).tobytes(), np.float64(m.response).tobytes(), m.cross.tobytes()

    got = []
    for workers in (1, 2):
        _on_workers(monkeypatch, workers)
        small = build_dataset(model, spec, n=3000, seed=9)
        bare = PerturbationDataset(X=small.X, y=small.y, weights=small.weights,
                                   seed=small.seed, n=small.n, instance=spec,
                                   kernel_width=small.kernel_width)
        got.append([response_sums(d) for d in (
            small, bare, extend_dataset(model, small, 70000),
            extend_dataset(model, bare, 70000))])
    assert got[0] == got[1]
    assert got[0][0] == got[0][1] and got[0][2] == got[0][3]


def test_extend_requires_growth():
    model = CountingLinear([1.0, 1.0])
    dataset = build_dataset(model, spec2(), n=50, seed=1)
    with pytest.raises(ValidationError):
        extend_dataset(model, dataset, 50)
    with pytest.raises(ValidationError):
        extend_dataset(model, dataset, 10)


def test_query_model_rejects_bad_outputs():
    class WrongShape(Model):
        def predict_batch(self, X):
            return np.ones((X.shape[0], 2))

    class NotFinite(Model):
        def predict_batch(self, X):
            out = np.zeros(X.shape[0])
            out[0] = np.nan
            return out

    X = np.ones((4, 2))
    with pytest.raises(ModelQueryError):
        query_model(WrongShape(), X)
    with pytest.raises(ModelQueryError):
        query_model(NotFinite(), X)


def test_query_model_passes_through_plain_predictions():
    got = query_model(LinearModel([1.0, 2.0]), np.array([[1.0, 1.0],
                                                         [2.0, 0.5]]))
    np.testing.assert_allclose(got, [3.0, 3.0], atol=1e-15)


def test_dataset_validation():
    spec = spec2()
    X = np.zeros((3, 2))
    ok = dict(X=X, y=np.zeros(3), weights=np.full(3, 0.5), seed=0, n=3,
              instance=spec, kernel_width=1.0)
    PerturbationDataset(**ok)
    with pytest.raises(ValidationError):
        PerturbationDataset(**{**ok, "y": np.zeros(2)})
    with pytest.raises(ValidationError):
        PerturbationDataset(**{**ok, "X": np.zeros((3, 3))})
    with pytest.raises(ValidationError):
        PerturbationDataset(**{**ok, "y": np.array([0.0, np.nan, 0.0])})
    with pytest.raises(ValidationError):
        PerturbationDataset(**{**ok, "weights": np.array([0.5, 0.0, 0.5])})
    with pytest.raises(ValidationError):
        PerturbationDataset(**{**ok, "weights": np.array([0.5, 1.5, 0.5])})


# ------------------------------------------------------------- CSV scales

def test_scales_from_csv_golden(tmp_path):
    path = tmp_path / "background.csv"
    path.write_text("a,b,c\n1,7,0.5\n2,7,1.5\n3,7,2.5\n4,7,3.5\n",
                    encoding="utf-8")
    names, scales = scales_from_csv(path)
    assert names == ("a", "b", "c")
    expected = math.sqrt(5.0 / 3.0)    # sample std of 1..4
    assert scales[0] == pytest.approx(expected, rel=1e-12)
    assert scales[1] == 1.0            # constant column falls back to 1
    assert scales[2] == pytest.approx(expected, rel=1e-12)


def test_scales_from_csv_errors(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(ValidationError):
        scales_from_csv(missing)

    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValidationError):
        scales_from_csv(empty)

    blank_name = tmp_path / "blank.csv"
    blank_name.write_text("a,,c\n1,2,3\n4,5,6\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        scales_from_csv(blank_name)

    one_row = tmp_path / "one.csv"
    one_row.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        scales_from_csv(one_row)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="row 3"):
        scales_from_csv(ragged)

    not_number = tmp_path / "text.csv"
    not_number.write_text("a,b\n1,2\n3,oops\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="row 3"):
        scales_from_csv(not_number)

    not_finite = tmp_path / "inf.csv"
    not_finite.write_text("a,b\n1,2\n3,inf\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        scales_from_csv(not_finite)
