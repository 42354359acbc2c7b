"""Benchmark of the slime package, measured from outside the package.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, fresh process each

``--trace 0`` sets up (import, model, instance, one untimed warm-up op;
repeated and the median taken), then runs ops for ``--seconds`` with tracing
off and prints the end-to-end metrics.  ``--trace 1`` runs each op once
untraced and once traced, in pairs, then a tracemalloc pass, and prints the
per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the same numbers for a reader, with the op-time tail, the failure share and
the output digest.  See ``perfbench/README.md`` for the workloads and the
layer-to-metric map.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 3
WARMUP_SEED = 0x5E7     # the warm-up op's seed; the same on every run
TAIL_BEYOND = 10        # samples the reported tail percentile must have above it
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "rows_per_s": "rows/s",
    "rows_queried_per_op": "rows",
    "peak_rss_mb": "MB",
}


def tail(times):
    """Highest percentile with at least 10 samples above it, or None.

    Returns ``(value, percentile, count)``; a run of fewer than 11 ops has
    no such percentile.
    """
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND            # 1-based rank with exactly 10 ranks above it
    return sorted(times)[rank - 1], 100.0 * rank / n, n


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(outputs: dict) -> str:
    """Hash of every distinct input's canonical output, in input order."""
    h = hashlib.sha256()
    for index in sorted(outputs):
        h.update(outputs[index].encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


class Runner:
    """Runs one workload's ops and checks every output."""

    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.inputs = workload.inputs(seed)
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup(self, workdir: Path) -> float:
        """Build the workload and run the warm-up op; returns the median time."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.workload.setup(workdir)
            result = self.workload.op(WARMUP_SEED)
            times.append(time.perf_counter() - start)
            self.record("warm-up", self.workload.check(result), count=False)
        return statistics.median(times)

    def record(self, label: str, problems: list[str], count: bool = True) -> None:
        if count:
            self.attempted += 1
        if problems:
            if count:
                self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])

    def run_op(self, index: int, outputs: dict, label: str, around=contextlib.nullcontext):
        """One timed op on input ``index``; returns (seconds, result or None).

        ``around()`` is entered inside the timed region, right around the op.
        """
        start = time.perf_counter()
        try:
            with around():
                result = self.workload.op(self.inputs[index])
        except Exception as exc:   # noqa: BLE001 - a failed op is counted, not fatal
            elapsed = time.perf_counter() - start
            self.record(label, [f"raised {type(exc).__name__}: {exc}"])
            return elapsed, None
        elapsed = time.perf_counter() - start
        problems = self.workload.check(result)
        text = canonical(result.explanations)
        if outputs.setdefault(index, text) != text:
            problems.append("output differs from an earlier op on the same input")
        self.record(f"{label} input {index}", problems)
        return elapsed, result

    def cycle(self):
        """Input indices: one full pass, then more until ``seconds`` ran out."""
        start = time.perf_counter()
        i = 0
        while i < len(self.inputs) or time.perf_counter() - start < self.seconds:
            yield i % len(self.inputs), i
            i += 1


def run_timed(runner: Runner, setup_s: float):
    outputs = {}
    times = []
    rows_used = 0
    rows_queried = {}
    for index, _ in runner.cycle():
        elapsed, result = runner.run_op(index, outputs, "op")
        times.append(elapsed)
        if result is not None:
            rows_used += result.rows_used
            rows_queried.setdefault(index, result.rows_queried)
    metrics = {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(times),
        "rows_per_s": rows_used / sum(times),
        "rows_queried_per_op": sum(rows_queried.values()) / len(runner.inputs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"ops {len(times)} on {len(runner.inputs)} distinct inputs, "
             f"timed {sum(times):.3f} s"]
    tail_value = tail(times)
    if tail_value is None:
        notes.append(f"op_s.tail omitted: {len(times)} ops, need {TAIL_BEYOND + 1}")
    else:
        value, pct, n = tail_value
        notes.append(f"op_s.tail {value:.6f} s (p{pct:.0f} of {n} ops)")
    return metrics, END_TO_END_UNITS, outputs, notes


def run_traced(runner: Runner, seed: int, out_dir: Path = OUT):
    import layers
    from spans import Recorder

    recorder = Recorder()
    untraced_out, traced_out = {}, {}
    untraced, traced = [], []
    for index, i in runner.cycle():
        elapsed, _ = runner.run_op(index, untraced_out, "untraced op")
        untraced.append(elapsed)
        extra = runner.workload.traced_objects()
        with recorder.installed(layers.targets(recorder), extra):
            elapsed, _ = runner.run_op(index, traced_out, "traced op",
                                       around=lambda: recorder.op(i))
        traced.append(elapsed)
    notes = [f"traced ops {len(traced)}, untraced ops {len(untraced)}, "
             f"spans {len(recorder.spans)}"]
    if digest(traced_out) != digest(untraced_out):
        runner.record("trace", ["traced outputs differ from untraced ones"], count=False)

    peak = 0
    tracemalloc.start()
    try:
        for probe in runner.workload.probes(runner.inputs[0]):
            tracemalloc.reset_peak()
            probe()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()

    overhead = statistics.median(traced) / statistics.median(untraced)
    metrics = layers.layer_metrics(recorder.spans, overhead, peak / 1e6)
    if not metrics["trace.self_sum_error"] <= layers.SELF_SUM_TOLERANCE:
        runner.record("trace", [
            f"self times miss op wall time by {metrics['trace.self_sum_error']:.3g}"], count=False)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{runner.workload.name}-{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in recorder.spans:
            fh.write(canonical({"name": span.name, "start": span.start, "end": span.end,
                                "parent": span.parent, "op": span.op,
                                "thread": span.thread, "counts": span.counts}) + "\n")
    notes.append(f"spans written to {spans_path}")
    return metrics, layers.PER_LAYER_UNITS, untraced_out, notes


def run_all(args) -> int:
    """Each workload in a fresh process, so each reports its own peak RSS."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        code = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False).returncode
        status = status or code
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread, set before numpy loads: the load is the workload's own
    # threads (at most 2), and results are bit-for-bit the same on every run.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import slime
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the slime package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(slime.__file__).resolve().parent.parent != SRC:
        print(f"error: imported slime from {slime.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    runner = Runner(WORKLOADS[args.workload](), args.seed, args.seconds)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = import_s + runner.setup(workdir)
        if args.trace:
            metrics, units, outputs, notes = run_traced(runner, args.seed)
        else:
            metrics, units, outputs, notes = run_timed(runner, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = runner.failed == 0 and not runner.problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"digest {digest(outputs)}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_frac {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} ops)")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
