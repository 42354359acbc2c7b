"""Command-line front end.

Three subcommands cover the library's main entry points:

``explain``
    Explain one instance of one model and print the result.
``bench``
    Repeat an explanation with per-repetition seeds and report position-wise
    stability.
``repro``
    Run a canned benchmark configuration and print pass/fail lines.

stdout carries only the requested output (JSON or a plain table) so that
reruns with the same flags are byte-identical; all diagnostics go to stderr.
Every run also records a manifest file holding its command line, seed
included, and ``--from-manifest`` parses that command line again to replay
the run exactly.  A ``--scales-csv`` file is recorded by its sha256, and a
replay refuses a file whose contents changed.

Exit codes: 0 success, 1 reproduction failure, 2 invalid input or flags,
3 model query failure, 143 stopped by SIGTERM.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys
import threading
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (explanation_to_dict, explanations_to_jsonl,
                    repeat_explanations, report_to_csv, report_to_markdown,
                    reproduce_lasso_ordering, reproduce_mars_stability)
from .errors import (DegenerateInputError, ModelQueryError, SingularityError,
                     ValidationError)
from .explainer import ExplainerConfig, lime_explain, slime_explain
from .models import parse_model_spec
from .sampling import InstanceSpec, scales_from_csv

__all__ = ["main"]

_DEFAULT_MANIFEST = "slime-manifest.json"
_DEFAULTS = ExplainerConfig()


def _parse_floats(text: str, flag: str) -> np.ndarray:
    try:
        values = np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise ValidationError(f"{flag} expects comma-separated numbers: {exc}") from None
    if values.size == 0:
        raise ValidationError(f"{flag} must list at least one number")
    return values


def _env_seed() -> int:
    raw = os.environ.get("SLIME_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"SLIME_SEED must be an integer, got {raw!r}") from None


def _add_explain_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True,
                        help="builtin:mars | builtin:linear:c1,c2,... | "
                             "expr:<expression> | exec:<command>")
    parser.add_argument("--instance", required=True,
                        help="comma-separated feature values")
    parser.add_argument("--method", choices=("lime", "slime"), default="slime")
    parser.add_argument("--n0", type=int, default=_DEFAULTS.n0,
                        help="starting sample size (default %(default)s)")
    parser.add_argument("--n", type=int, default=None,
                        help="fixed sample size for --method lime "
                             "(default: --n0)")
    parser.add_argument("--alpha", type=float, default=_DEFAULTS.alpha,
                        help="significance level (default %(default)s)")
    parser.add_argument("--k", type=int, default=_DEFAULTS.k,
                        help="number of features to select (default %(default)s)")
    parser.add_argument("--n-max", type=int, default=_DEFAULTS.n_max,
                        help="sample budget (default %(default)s)")
    parser.add_argument("--kernel-width", type=float,
                        default=_DEFAULTS.kernel_width,
                        help="locality kernel width (default 0.75*sqrt(p))")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed (default: SLIME_SEED env var or 0); "
                             "the manifest records the value used")
    parser.add_argument("--scales", default=None,
                        help="comma-separated per-feature scales, or one "
                             "value for all features")
    parser.add_argument("--scales-csv", default=None,
                        help="CSV of background rows; per-column standard "
                             "deviations become the feature scales")
    parser.add_argument("--growth-factor", type=float,
                        default=_DEFAULTS.growth_factor,
                        help="sample growth multiplier when a test is "
                             "uninformative (default %(default)s)")
    parser.add_argument("--multiple-testing", action="store_true",
                        help="compare the leader against every trailing "
                             "candidate with a summed p-value bound instead "
                             "of only the runner-up")
    parser.add_argument("--no-reuse", action="store_true",
                        help="redraw all samples on growth instead of "
                             "extending the existing ones")
    parser.add_argument("--out", default=None,
                        help="write the result here instead of stdout")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--manifest", default=None,
                        help="manifest path (default: next to --out, or "
                             f"{_DEFAULT_MANIFEST})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slime",
        description="Stabilized local explanations for black-box models.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--from-manifest", default=None, metavar="PATH",
                        help="replay a recorded run; no other flags allowed")
    sub = parser.add_subparsers(dest="command")

    explain = sub.add_parser("explain", help="explain one instance")
    _add_explain_flags(explain)

    bench = sub.add_parser("bench", help="stability benchmark")
    _add_explain_flags(bench)
    bench.add_argument("--reps", type=int, default=20,
                       help="repetitions (default 20, minimum 2)")
    bench.add_argument("--workers", type=int, default=1,
                       help="thread workers (default 1)")
    bench.add_argument("--report", default=None, metavar="DIR",
                       help="also write report.csv, report.md and raw.jsonl "
                            "into DIR")

    repro = sub.add_parser("repro", help="canned reproduction runs")
    repro.add_argument("name", choices=("mars", "lasso-ordering"))
    repro.add_argument("--workers", type=int, default=1)
    repro.add_argument("--format", choices=("json", "table"), default="table")
    repro.add_argument("--out", default=None)
    repro.add_argument("--manifest", default=None)
    return parser


def _manifest_path(args: argparse.Namespace) -> Path:
    if getattr(args, "manifest", None):
        return Path(args.manifest)
    report = getattr(args, "report", None)
    if report:
        return Path(report) / "manifest.json"
    out = getattr(args, "out", None)
    if out:
        return Path(str(out) + ".manifest.json")
    return Path(_DEFAULT_MANIFEST)


def _write_manifest(argv: list[str], path: Path, scales_sha256: str | None) -> None:
    manifest = {"package_version": __version__, "argv": argv}
    if scales_sha256 is not None:
        manifest["scales_csv_sha256"] = scales_sha256
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _load_manifest(path: str) -> tuple[list[str], object]:
    """The recorded command line, which the caller parses like a typed one,
    and the recorded ``--scales-csv`` digest (None when absent)."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read manifest: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest is not valid JSON: {exc}") from None
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise ValidationError("manifest lacks a recorded command line")
    return argv, manifest.get("scales_csv_sha256")


def _sha256(path: str) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise ValidationError(f"cannot read background file {path}: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _resolve_scales(args: argparse.Namespace, p: int) -> np.ndarray | None:
    if args.scales is not None and args.scales_csv is not None:
        raise ValidationError("--scales and --scales-csv are mutually exclusive")
    # InstanceSpec refuses scales of another width.
    if args.scales is not None:
        scales = _parse_floats(args.scales, "--scales")
        return np.full(p, scales[0]) if scales.size == 1 else scales
    if args.scales_csv is not None:
        return scales_from_csv(args.scales_csv)[1]
    return None


def _build_inputs(args: argparse.Namespace):
    values = _parse_floats(args.instance, "--instance")
    instance = InstanceSpec(values=values,
                            feature_scales=_resolve_scales(args, values.size))
    model = parse_model_spec(args.model, input_dim=values.size)
    config = ExplainerConfig(
        n0=args.n0, alpha=args.alpha, k=args.k, n_max=args.n_max,
        kernel_width=args.kernel_width, seed=args.seed,
        multiple_testing=args.multiple_testing,
        growth_factor=args.growth_factor,
        reuse_samples=not args.no_reuse)
    return model, instance, config


def _explanation_table(explanation) -> str:
    lines = ["feature\tcoefficient"]
    for name, coef in explanation.selected:
        lines.append(f"{name}\t{coef!r}")
    lines.append(f"intercept\t{explanation.intercept!r}")
    lines.append(f"final_n\t{explanation.final_n}")
    lines.append(f"capped\t{str(explanation.capped).lower()}")
    return "\n".join(lines) + "\n"


def _cmd_explain(args: argparse.Namespace) -> tuple[str, int]:
    model, instance, config = _build_inputs(args)
    with model:
        if args.method == "lime":
            explanation = lime_explain(model, instance, config, n=args.n)
        else:
            explanation = slime_explain(model, instance, config)
    if args.format == "json":
        text = json.dumps(explanation_to_dict(explanation),
                          sort_keys=True, indent=2) + "\n"
    else:
        text = _explanation_table(explanation)
    return text, 0


def _report_payload(report) -> dict:
    return {
        "positions": [[k, v] for k, v in report.positions],
        "reps": report.reps,
        "incomplete": report.incomplete,
        "failures": list(report.failures),
        "ordering_histogram": [
            {"order": list(order), "count": count}
            for order, count in report.ordering_histogram
        ],
    }


def _cmd_bench(args: argparse.Namespace) -> tuple[str, int]:
    model, instance, config = _build_inputs(args)
    with model:
        report, explanations = repeat_explanations(
            model, instance, config, reps=args.reps, base_seed=config.seed,
            method=args.method, workers=args.workers,
            lime_n=args.n)
    if args.format == "json":
        text = json.dumps(_report_payload(report), sort_keys=True, indent=2) + "\n"
    else:
        text = report_to_markdown(report, title=args.method)
    if args.report:
        # Made only now, so a refused run leaves no directory behind.
        report_dir = Path(args.report)
        report_dir.mkdir(parents=True, exist_ok=True)
        (report_dir / "report.csv").write_text(report_to_csv(report),
                                               encoding="utf-8")
        (report_dir / "report.md").write_text(
            report_to_markdown(report, title=args.method), encoding="utf-8")
        explanations_to_jsonl(explanations, report_dir / "raw.jsonl")
    return text, 0


def _cmd_repro(args: argparse.Namespace) -> tuple[str, int]:
    if args.name == "mars":
        result = reproduce_mars_stability(workers=args.workers)
    else:
        result = reproduce_lasso_ordering()
    if args.format == "json":
        payload = {
            "name": result.name,
            "passed": result.passed,
            "checks": [{"label": label, "ok": ok, "detail": detail}
                       for label, ok, detail in result.checks],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(result.summary_lines()) + "\n"
    return text, 0 if result.passed else 1


_DISPATCH = {
    "explain": _cmd_explain,
    "bench": _cmd_bench,
    "repro": _cmd_repro,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so a running query and ``with
    # model:`` kill an exec: child's process group before the exit.
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _exit_on_signal) if on_main else None
    try:
        replay = args.from_manifest
        if replay is not None:
            if args.command is not None:
                raise ValidationError(
                    "--from-manifest cannot be combined with other flags")
            argv, recorded_sha256 = _load_manifest(replay)
            args = parser.parse_args(argv)
            if args.from_manifest is not None:
                raise ValidationError("a manifest cannot replay another manifest")
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        if args.command != "repro" and args.seed is None:
            # Record the seed actually used so a replay needs no environment.
            args.seed = _env_seed()
            argv += ["--seed", str(args.seed)]
        # Record every relative path as an absolute one, so a replay from
        # another directory reads and writes the files this run did.
        for flag in ("--scales-csv", "--out", "--report", "--manifest"):
            dest = flag[2:].replace("-", "_")
            # The manifest's own path may be derived from --out or --report.
            path = _manifest_path(args) if dest == "manifest" else getattr(args, dest, None)
            if path and not os.path.isabs(path):
                setattr(args, dest, os.path.abspath(path))
                argv += [flag, getattr(args, dest)]
        scales_csv = getattr(args, "scales_csv", None)
        scales_sha256 = None if scales_csv is None else _sha256(scales_csv)
        if replay is not None and scales_csv is not None \
                and scales_sha256 != recorded_sha256:
            # Same command line, other scales: the replay would not reproduce.
            raise ValidationError(
                f"--scales-csv {scales_csv} has sha256 {scales_sha256}, "
                f"but {replay} recorded {recorded_sha256 or 'no digest'}")
        text, code = _DISPATCH[args.command](args)
        _emit(text, args.out)
        _write_manifest(argv, _manifest_path(args), scales_sha256)
        return code
    except (ValidationError, DegenerateInputError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelQueryError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    sys.exit(main())
