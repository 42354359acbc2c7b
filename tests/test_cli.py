"""Command-line checks: formats, exit codes, manifests, reproducibility."""

import ast
import hashlib
import importlib
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import slime
from slime import models
from slime.cli import main
from slime.errors import SlimeError
from test_acceptance import SPOT_CHECKS

LINEAR3 = ["--model", "builtin:linear:2,-1,0.5", "--instance", "1,2,3"]
BACKGROUND = "a,b,c\n1,2,3\n2,0,5\n0.5,1,4\n"


@pytest.fixture(autouse=True)
def run_in_tmp(tmp_path, monkeypatch):
    # default manifests land in the working directory; keep them contained
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ explain

def test_explain_json_output(capsys, tmp_path):
    code, out, err = run_cli(
        ["explain", *LINEAR3, "--n0", "200", "--k", "3", "--seed", "1"],
        capsys)
    assert code == 0
    record = json.loads(out)
    got = {s["feature"]: s["coefficient"] for s in record["selected"]}
    assert got["x1"] == pytest.approx(2.0, abs=1e-8)
    assert got["x2"] == pytest.approx(-1.0, abs=1e-8)
    assert got["x3"] == pytest.approx(0.5, abs=1e-8)
    assert record["final_n"] == 200
    assert record["capped"] is False
    assert (tmp_path / "slime-manifest.json").exists()


def test_explain_table_output(capsys):
    code, out, _ = run_cli(
        ["explain", *LINEAR3, "--n0", "200", "--k", "2", "--format", "table"],
        capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "feature\tcoefficient"
    assert any(line.startswith("intercept\t") for line in lines)
    assert any(line.startswith("final_n\t") for line in lines)
    assert lines[-1] == "capped\tfalse"


def test_explain_reruns_are_byte_identical(capsys):
    argv = ["explain", *LINEAR3, "--n0", "300", "--k", "3", "--seed", "4"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_explain_out_file_and_manifest_placement(capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.delenv("SLIME_SEED", raising=False)
    out_path = tmp_path / "result.json"
    argv = ["explain", *LINEAR3, "--n0", "200", "--k", "2",
            "--out", str(out_path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == ""
    record = json.loads(out_path.read_text(encoding="utf-8"))
    assert record["final_n"] == 200
    sidecar = tmp_path / "result.json.manifest.json"
    manifest = json.loads(sidecar.read_text(encoding="utf-8"))
    assert manifest["argv"] == [*argv, "--seed", "0"]


def test_out_creates_its_parents_and_an_unwritable_path_exits_two(capsys, tmp_path):
    flags = [*LINEAR3, "--n0", "200", "--k", "2"]
    code, out, _ = run_cli(["explain", *flags, "--out", "a/b/x.json"], capsys)
    assert (code, out) == (0, "")
    assert json.loads((tmp_path / "a/b/x.json").read_text(encoding="utf-8"))["final_n"] == 200
    # An --out that names a directory, and a --report that names a file.
    for argv in (["explain", *flags, "--out", "a"],
                 ["bench", *flags, "--reps", "2", "--report", "a/b/x.json"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: cannot write ") and err.count("\n") == 1, argv


def test_an_unwritable_output_is_refused_before_the_explainer_runs(capsys, tmp_path,
                                                                   monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the explainer ran before the output paths were checked")

    monkeypatch.setattr(slime.cli, "slime_explain", refuse)
    monkeypatch.setattr(slime.cli, "repeat_explanations", refuse)
    (tmp_path / "a").mkdir()
    (tmp_path / "f.json").write_text("{}", encoding="utf-8")
    flags = [*LINEAR3, "--n0", "200", "--k", "2"]
    # An --out that names a directory, a --report that names a file, and a
    # --manifest below a file.
    for argv in (["explain", *flags, "--out", "a"],
                 ["bench", *flags, "--reps", "2", "--report", "f.json"],
                 ["explain", *flags, "--manifest", "f.json/m.json"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: cannot write ") and err.count("\n") == 1, argv
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a", "f.json"]


def test_explain_lime_uses_n_flag(capsys):
    code, out, _ = run_cli(
        ["explain", *LINEAR3, "--method", "lime", "--n0", "200", "--n", "80",
         "--k", "2"],
        capsys)
    assert code == 0
    assert json.loads(out)["final_n"] == 80


MARS_ARGS = ["--model", "builtin:mars", "--instance", "0.51,0.49,0.5,0.5,0.5",
             "--scales", "0.05"]


def test_no_reuse_reports_the_seed_that_reproduces_the_run(capsys, tmp_path):
    code, out, _ = run_cli(["explain", *MARS_ARGS, "--seed", "3", "--no-reuse"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 3
    # A repetition that grew on fresh rows, replayed from its reported seed.
    flags = [*MARS_ARGS, "--n0", "200", "--n-max", "2000", "--k", "3", "--no-reuse"]
    report_dir = tmp_path / "report"
    code, _, _ = run_cli(["bench", *flags, "--reps", "3", "--seed", "1",
                          "--report", str(report_dir)], capsys)
    assert code == 0
    raw = [json.loads(line) for line in
           (report_dir / "raw.jsonl").read_text(encoding="utf-8").splitlines()]
    grown = next(line for line in raw if line["final_n"] > 200)
    code, out, _ = run_cli(["explain", *flags, "--seed", str(grown["seed"])], capsys)
    assert code == 0
    assert json.loads(out) == grown


def test_budget_too_large_to_reserve_runs_like_one_that_fits(capsys):
    # 1e9 rows of 5 features would be 37 GB: the run must not try to hold
    # them before it knows it needs them.
    outputs = []
    for n_max in ("1000000", "1000000000"):
        code, out, err = run_cli(["explain", *MARS_ARGS, "--n-max", n_max,
                                  "--seed", "1"], capsys)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["capped"] is False


def test_explain_via_module_subprocess_matches_in_process(capsys, tmp_path):
    argv = ["explain", *LINEAR3, "--n0", "200", "--k", "3", "--seed", "2"]
    _, expected, _ = run_cli(argv, capsys)
    completed = subprocess.run(
        [sys.executable, "-m", "slime.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(slime.__file__).parents[1])})
    assert completed.stdout == expected


def test_explain_runs_without_loading_scipy(tmp_path):
    script = (
        "import sys, slime, slime.cli\n"
        "code = slime.cli.main(['explain', '--model', 'builtin:mars',"
        " '--instance', '0.51,0.49,0.5,0.5,0.5', '--n0', '200', '--k', '2',"
        " '--n-max', '800', '--seed', '1'])\n"
        "assert code == 0, code\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        # numpy.ma costs about 1.7 MB; numpy.matrixlib loads with numpy itself.
        "print(sorted(m for m in sys.modules"
        " if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        cwd=tmp_path, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(slime.__file__).parents[1])})
    assert completed.stdout.splitlines()[-2:] == ["[]", "[]"]


EXEC_LINEAR_CHILD = """\
import json, sys
coefficients = [2.0, 1.9, 1.0, 0.95, 0.5]
for line in sys.stdin:
    rows = json.loads(line)["instances"]
    preds = [sum(c * x for c, x in zip(coefficients, row)) for row in rows]
    print(json.dumps({"predictions": preds}), flush=True)
"""


def test_explain_with_exec_model_prints_pinned_bytes(tmp_path):
    # The model is queried for 1000 rows, then for 5000 rows as five
    # requests in one call; the digest pins stdout, BLAS on one thread.
    (tmp_path / "child.py").write_text(EXEC_LINEAR_CHILD, encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, "-m", "slime.cli", "explain",
         "--model", f"exec:{shlex.quote(sys.executable)} child.py",
         "--instance", "0.5,-1,2,0.25,1", "--k", "4", "--n0", "1000",
         "--n-max", "6000", "--seed", "1"],
        capture_output=True, cwd=tmp_path, check=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
             "PYTHONPATH": str(Path(slime.__file__).parents[1])})
    assert hashlib.sha256(completed.stdout).hexdigest() == \
        "9dd557ca21195359c64c398ac783198bbf45e92a2cf9398be6e3b3d2ad0e94f0"


def test_explain_prints_the_same_bytes_on_one_to_three_blas_threads(tmp_path):
    # At n=100k the moments, the path, the gate and the intercept must not
    # depend on how BLAS splits its sums.  The 0.7**j models pass all 8 of
    # their decisions, made with up to 7 active columns, at widths on and
    # off a multiple of the kernels' unroll; the p=200 model is capped.
    # Each run takes about a second; the timeout bounds one that hangs or
    # crawls.
    def explain(coefficients, k, *extra):
        command = [sys.executable, "-m", "slime.cli", "explain",
                   "--model", f"builtin:linear:{','.join(coefficients)}",
                   "--instance", ",".join(["0"] * len(coefficients)), "--k", str(k),
                   "--n0", "100000", "--n-max", "100000", "--seed", "1", *extra]
        runs = []
        for threads in (1, 2, 3):
            stdout = subprocess.run(
                command, capture_output=True, cwd=tmp_path, check=True, timeout=60,
                env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                     "PYTHONPATH": str(Path(slime.__file__).parents[1])}).stdout
            runs.append((stdout, (tmp_path / "slime-manifest.json").read_bytes()))
        return runs

    for p in (37, 200, 201):
        runs = explain([str(c) for c in 0.7 ** np.arange(p)], 8, "--format", "json")
        assert runs[0] == runs[1] == runs[2], p
        trace = json.loads(runs[0][0])["test_trace"]
        assert [d["significant"] for d in trace] == [True] * 8, p
    runs = explain([f"{c:.3f}" for c in np.linspace(1, 0.01, 200)], 20)
    assert runs[0] == runs[1] == runs[2]


def test_sigterm_exits_143_and_kills_the_exec_child(tmp_path):
    # The child writes its pid and becomes a sleep that never answers; it
    # leads a process group of its own, so only slime's cleanup can end it.
    pid_path = tmp_path / "pidfile"
    run = subprocess.Popen(
        [sys.executable, "-m", "slime.cli", "explain",
         "--model", "exec:sh -c 'echo $$ > pidfile; exec sleep 30'",
         "--instance", "0,0", "--n0", "50", "--k", "1", "--n-max", "100"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(slime.__file__).parents[1])})
    pid = None
    try:
        deadline = time.monotonic() + 30
        while not (pid_path.exists() and pid_path.read_text().endswith("\n")):
            assert time.monotonic() < deadline, "the exec: child never started"
            time.sleep(0.05)
        pid = int(pid_path.read_text())
        run.send_signal(signal.SIGTERM)
        assert run.wait(timeout=30) == 143
        deadline = time.monotonic() + 5
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(pid)
    finally:
        run.kill()
        run.wait()
        if pid is not None and _alive(pid):
            os.killpg(pid, signal.SIGKILL)


def test_sigterm_stops_bench_workers_without_waiting_for_their_children(tmp_path):
    # Both repetitions wait on one exec: child that answers nothing and
    # exits after 25 s.  The stop must not wait for it, and the repetition
    # queued behind it must not start a fresh child.
    pid_path = tmp_path / "pidfile"
    run = subprocess.Popen(
        [sys.executable, "-m", "slime.cli", "bench", "--reps", "2", "--workers", "2",
         "--model", "exec:sh -c 'echo $$ >> pidfile; exec sleep 25'",
         "--instance", "0,0", "--n0", "50", "--k", "1", "--n-max", "100"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(slime.__file__).parents[1])})

    def pids():
        text = pid_path.read_text() if pid_path.exists() else ""
        return [int(line) for line in text.splitlines(keepends=True) if line.endswith("\n")]

    try:
        deadline = time.monotonic() + 30
        while not pids():
            assert time.monotonic() < deadline, "the exec: child never started"
            time.sleep(0.05)
        run.send_signal(signal.SIGTERM)
        assert run.wait(timeout=10) == 143
        deadline = time.monotonic() + 5
        while any(_alive(pid) for pid in pids()) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids() if _alive(pid)]
    finally:
        run.kill()
        run.wait()
        for pid in pids():
            if _alive(pid):
                os.killpg(pid, signal.SIGKILL)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


# ---------------------------------------------------------------- manifests

def test_manifest_replay_reproduces_output(capsys, tmp_path, monkeypatch):
    # One case takes its seed from SLIME_SEED and is replayed without it; the
    # last one reads its scales from a CSV file, recorded by its digest.
    background = tmp_path / "bg.csv"
    background.write_text(BACKGROUND, encoding="utf-8")
    cases = [(argv, None) for _, argv in SPOT_CHECKS]
    cases.append((["explain", *LINEAR3, "--k", "2", "--n0", "200"], "7"))
    cases.append((["explain", *LINEAR3, "--k", "2", "--n0", "200",
                   "--scales-csv", str(background)], None))
    for i, (argv, env_seed) in enumerate(cases):
        manifest = tmp_path / f"run-{i}.manifest.json"
        if env_seed is None:
            monkeypatch.delenv("SLIME_SEED", raising=False)
        else:
            monkeypatch.setenv("SLIME_SEED", env_seed)
        code, original, _ = run_cli([*argv, "--manifest", str(manifest)],
                                    capsys)
        assert code == 0, argv
        recorded = manifest.read_bytes()
        monkeypatch.delenv("SLIME_SEED", raising=False)
        code, replayed, _ = run_cli(["--from-manifest", str(manifest)], capsys)
        assert code == 0, argv
        assert replayed == original, argv
        assert manifest.read_bytes() == recorded, argv
    assert json.loads(recorded)["scales_csv_sha256"] == \
        hashlib.sha256(background.read_bytes()).hexdigest()


def test_replay_from_another_directory_touches_the_recorded_files(
        capsys, tmp_path, monkeypatch):
    # Both directories hold the same bg.csv, so only where the replay
    # reads and writes can tell them apart.
    recorded, other = tmp_path / "a", tmp_path / "b"
    for directory in (recorded, other):
        directory.mkdir()
        (directory / "bg.csv").write_text(BACKGROUND, encoding="utf-8")
    monkeypatch.chdir(recorded)
    code, _, _ = run_cli(["explain", *LINEAR3, "--k", "2", "--n0", "200",
                          "--scales-csv", "bg.csv", "--out", "res.json",
                          "--manifest", "m.json"], capsys)
    assert code == 0
    result = (recorded / "res.json").read_bytes()
    manifest = (recorded / "m.json").read_bytes()
    (recorded / "res.json").unlink()
    monkeypatch.chdir(other)
    code, out, err = run_cli(["--from-manifest", "../a/m.json"], capsys)
    assert code == 0, err
    assert out == ""
    assert sorted(p.name for p in other.iterdir()) == ["bg.csv"]
    assert (recorded / "res.json").read_bytes() == result
    assert (recorded / "m.json").read_bytes() == manifest


def test_from_manifest_rejects_extra_flags(capsys, tmp_path):
    manifest = tmp_path / "run.manifest.json"
    run_cli(["explain", *LINEAR3, "--n0", "200", "--k", "2",
             "--manifest", str(manifest)], capsys)
    code, _, err = run_cli(
        ["--from-manifest", str(manifest), "explain", *LINEAR3], capsys)
    assert code == 2
    assert "cannot be combined" in err


def test_from_manifest_missing_or_malformed(capsys, tmp_path):
    code, _, err = run_cli(["--from-manifest", str(tmp_path / "nope.json")],
                           capsys)
    assert code == 2 and "cannot read manifest" in err
    bad = tmp_path / "bad.json"
    old_format = {"package_version": "0.1.0",
                  "options": {"command": "explain", "model": "builtin:mars"}}
    for text, message in [
            ("{", "not valid JSON"),
            ("{}", "lacks a recorded command line"),
            ("[1, 2]", "lacks a recorded command line"),
            ('{"argv": "explain"}', "lacks a recorded command line"),
            ('{"argv": ["explain", 3]}', "lacks a recorded command line"),
            (json.dumps(old_format), "lacks a recorded command line"),
            (json.dumps({"argv": ["--from-manifest", "other.json"]}),
             "cannot replay another manifest")]:
        bad.write_text(text, encoding="utf-8")
        code, _, err = run_cli(["--from-manifest", str(bad)], capsys)
        assert code == 2 and message in err, text
    # A recorded command line is parsed like a typed one.
    for argv in (["explain", *LINEAR3, "--n0", "abc"],
                 ["explain", *LINEAR3, "--method", "nonsense"],
                 ["explain", *LINEAR3, "--k", "2.5"],
                 ["explain", *LINEAR3, "--multiple-testing", "yes"],
                 ["explain", "--instance", "1,2,3"]):
        bad.write_text(json.dumps({"argv": argv}), encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            main(["--from-manifest", str(bad)])
        assert info.value.code == 2, argv
        assert "usage:" in capsys.readouterr().err, argv
    # A recorded --scales-csv file must still hold what it held.
    background = tmp_path / "bg.csv"
    background.write_text(BACKGROUND, encoding="utf-8")
    recorded = tmp_path / "scales.manifest.json"
    code, _, _ = run_cli(["explain", *LINEAR3, "--n0", "200", "--k", "2",
                          "--scales-csv", str(background),
                          "--manifest", str(recorded)], capsys)
    assert code == 0
    manifest = json.loads(recorded.read_text(encoding="utf-8"))
    digest = manifest.pop("scales_csv_sha256")
    background.write_text(BACKGROUND.replace("0.5,1,4", "0.5,1,9"),
                          encoding="utf-8")
    edited = hashlib.sha256(background.read_bytes()).hexdigest()
    code, out, err = run_cli(["--from-manifest", str(recorded)], capsys)
    assert code == 2 and out == ""
    assert str(background) in err and digest in err and edited in err
    bad.write_text(json.dumps(manifest), encoding="utf-8")
    code, _, err = run_cli(["--from-manifest", str(bad)], capsys)
    assert code == 2 and "recorded no digest" in err


def test_from_manifest_that_is_not_utf8_exits_two(capsys, tmp_path):
    manifest = tmp_path / "run.manifest.json"
    manifest.write_bytes(b'{"argv": ["explain", "\xff"]}')
    code, out, err = run_cli(["--from-manifest", str(manifest)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read manifest") and err.count("\n") == 1


# --------------------------------------------------------------- exit codes

def test_no_command_prints_usage(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 2
    assert "usage:" in err


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["explain", "--bogus"])
    assert info.value.code == 2


def test_validation_errors_exit_two(capsys, run_in_tmp, monkeypatch):
    cases = [
        ["explain", "--model", "magic:x", "--instance", "1,2"],
        ["explain", "--model", "builtin:linear:1,2", "--instance", "1,2,3"],
        ["explain", *LINEAR3, "--alpha", "0.7"],
        ["explain", *LINEAR3, "--scales", "1,2"],
        ["explain", *LINEAR3, "--instance", "1,zap,3"],
        ["bench", *LINEAR3, "--reps", "1"],
        ["bench", *LINEAR3, "--reps", "1", "--report", "report"],
        ["explain", *LINEAR3, "--seed", "-1"],
        ["bench", *LINEAR3, "--seed", "-1", "--reps", "2"],
        ["explain", *LINEAR3, "--kernel-width", "inf"],
        ["explain", *LINEAR3, "--growth-factor", "1.5"],
        ["explain", "--model", "expr:x4", "--instance", "1,2,3"],
        ["explain", *LINEAR3, "--method", "lime", "--n", "3"],
        ["explain", "--model", 'exec:python "x', "--instance", "1,2"],
        ["explain", "--model", "expr:" + "(" * 1001 + "x1" + ")" * 1001, "--instance", "1"],
    ]
    for argv in cases:
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
    monkeypatch.setenv("SLIME_SEED", "-5")
    code, out, err = run_cli(["explain", *LINEAR3], capsys)
    assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1
    assert list(run_in_tmp.iterdir()) == []   # no manifest, no report directory


def test_a_growth_factor_that_is_not_finite_exits_two(capsys, run_in_tmp):
    for factor in ("nan", "inf"):
        code, out, err = run_cli(
            ["explain", "--model", "builtin:mars", "--instance", "0.51,0.49,0.5,0.5,0.5",
             "--scales", "0.05", "--growth-factor", factor], capsys)
        assert (code, out) == (2, ""), factor
        assert err.startswith("error:") and "growth_factor" in err, factor
    assert list(run_in_tmp.iterdir()) == []   # no manifest recorded


def test_expression_chains_have_no_length_limit_and_deep_nesting_exits_two(capsys):
    chain = "expr:" + "+".join(["x1"] * 3000)
    code, out, err = run_cli(["explain", "--model", chain, "--instance", "1",
                              "--k", "1", "--n0", "50"], capsys)
    assert code == 0, err
    assert json.loads(out)["selected"][0]["coefficient"] == pytest.approx(3000)
    nested = "expr:" + "(" * 3000 + "x1" + ")" * 3000
    code, out, err = run_cli(["explain", "--model", nested, "--instance", "1"], capsys)
    assert (code, out) == (2, "")
    assert "nests too deeply" in err


def test_an_exec_answer_of_json_strings_exits_three(capsys):
    child = ("import json, sys; [print(json.dumps({'predictions': ['1.5'] * "
             "len(json.loads(line)['instances'])}), flush=True) for line in sys.stdin]")
    code, _, err = run_cli(["explain", "--model", 'exec:%s -c "%s"' % (sys.executable, child),
                            "--instance", "1,2", "--n0", "50", "--k", "2"], capsys)
    assert code == 3
    assert err.startswith("model error:") and "non-numeric" in err


def test_explain_far_from_zero_refits_without_overflow(capsys):
    # Rows near 1e155 square past the float range; the centred refit never
    # squares them.
    code, out, _ = run_cli(
        ["explain", "--model", "builtin:linear:1,1", "--instance", "1e155,1e155",
         "--scales", "1e150", "--n0", "50", "--k", "2", "--n-max", "100",
         "--format", "json"],
        capsys)
    assert code == 0
    record = json.loads(out)
    assert sorted(s["feature"] for s in record["selected"]) == ["x1", "x2"]
    for s in record["selected"]:
        assert abs(s["coefficient"] - 1.0) < 1e-10, s


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_moments_exit_two(capsys):
    # A column's spread overflows its sum of squares, or its product with
    # the response's spread: the run must stop instead of dropping that
    # column as constant or gating on NaN.
    for model, scales in (("1,1", "1e160,1"), ("1,1", "1e160"), ("1e50,1", "1e150,1")):
        code, _, err = run_cli(
            ["explain", "--model", f"builtin:linear:{model}", "--instance", "0,0",
             "--scales", scales, "--n0", "50", "--k", "2", "--n-max", "100"],
            capsys)
        assert code == 2, scales
        assert err.startswith("error:") and "not finite" in err, scales


def test_overflowing_moments_print_only_the_error(tmp_path):
    # The overflow is reported once, as the error: numpy's own warnings are
    # not printed ahead of it, also when the sums run on a worker thread or
    # only the entry test's products overflow, or the perturbed rows do.
    for model, instance, scales in (
            ("1,1", "0,0", "1e160,1"), ("1,1", "0,0", "1e160"),
            ("1e50,1", "0,0", "1e150,1"), ("1e200,3e200", "0,0", "1"),
            ("1,1", "1e308,1e308", "1e308,1e308")):
        completed = subprocess.run(
            [sys.executable, "-m", "slime.cli", "explain",
             "--model", f"builtin:linear:{model}", "--instance", instance,
             "--scales", scales, "--n0", "50", "--k", "2", "--n-max", "100"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(Path(slime.__file__).parents[1])})
        assert completed.returncode == 2, scales
        lines = completed.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), completed.stderr


@pytest.mark.parametrize("n", [10**17, 2**62, 10**20])
def test_a_sample_too_large_to_allocate_exits_two(capsys, n):
    # numpy refuses each size before it touches memory: 711 PiB, a byte
    # count past its largest array, a row count past its largest dimension.
    code, out, err = run_cli(["explain", "--model", "builtin:linear:1,0.5",
                              "--instance", "0,0", "--n0", str(n), "--n-max", str(n)],
                             capsys)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: a sample of {n} rows"), err


def test_scales_flags_are_mutually_exclusive(capsys, tmp_path):
    background = tmp_path / "bg.csv"
    background.write_text("a,b,c\n1,2,3\n4,5,6\n", encoding="utf-8")
    code, _, err = run_cli(
        ["explain", *LINEAR3, "--scales", "1,1,1",
         "--scales-csv", str(background)],
        capsys)
    assert code == 2
    assert "mutually exclusive" in err


def test_model_errors_exit_three(capsys, monkeypatch):
    # A child that exits at once, one that never answers in time, and one
    # that answers with something other than numbers.
    monkeypatch.setattr(models, "REQUEST_TIMEOUT_S", 1.0)
    for child in ("import sys; sys.exit(0)", "import time; time.sleep(100)",
                  "import json, sys; [print(json.dumps({'predictions': ['x'] * "
                  "len(json.loads(line)['instances'])}), flush=True) for line in sys.stdin]"):
        spec = "exec:%s -c \"%s\"" % (sys.executable, child)
        code, _, err = run_cli(
            ["explain", "--model", spec, "--instance", "1,2", "--n0", "50",
             "--k", "2"],
            capsys)
        assert code == 3, child
        assert err.startswith("model error:") and err.count("\n") == 1, child


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "slime" in capsys.readouterr().out


def test_every_package_export_is_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    undocumented = [
        name for name in slime.__all__
        if name != "__version__"
        and not (isinstance(getattr(slime, name), type)
                 and issubclass(getattr(slime, name), SlimeError))
        and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert undocumented == []
    # Every module: a name defined at top level without a leading underscore
    # is in the module's __all__, and each __all__ entry is named in README
    # or imported by the CLI.
    package = Path(slime.__file__).parent
    cli_tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    used = {"main"} | {alias.name for node in ast.walk(cli_tree)
                       if isinstance(node, ast.ImportFrom) and node.level
                       for alias in node.names}
    unlisted, unused = [], []
    for path in sorted(package.glob("*.py")):
        if path.stem == "_float_text":
            continue
        module = importlib.import_module(
            "slime" if path.stem == "__init__" else f"slime.{path.stem}")
        exported = getattr(module, "__all__", [])
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            unlisted += [f"{path.stem}.{name}" for name in names
                         if not name.startswith("_") and name not in exported]
        unused += [f"{path.stem}.{name}" for name in exported
                   if name not in used
                   and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert (unlisted, unused) == ([], [])


# ------------------------------------------------------------------- scales

def test_scales_broadcast_single_value(capsys):
    base = ["explain", *LINEAR3, "--n0", "200", "--k", "3", "--seed", "3"]
    _, broadcast, _ = run_cli([*base, "--scales", "0.5"], capsys)
    _, explicit, _ = run_cli([*base, "--scales", "0.5,0.5,0.5"], capsys)
    assert broadcast == explicit


@pytest.mark.parametrize("content", [
    b"a,b,c\n1,2,3\n\xff,0,5\n0.5,1,4\n",
    b"a,b,c\n1,2,3\n2,0,5\n0.5,1," + b"4" * 140000 + b"\n",
], ids=["not-utf8", "field-over-the-csv-limit"])
def test_scales_csv_that_cannot_be_read_exits_two(capsys, tmp_path, content):
    background = tmp_path / "bg.csv"
    background.write_bytes(content)
    code, out, err = run_cli(["explain", *LINEAR3, "--scales-csv", str(background)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read background file") and err.count("\n") == 1


def test_scales_csv_matches_manual_scales(capsys, tmp_path):
    background = tmp_path / "bg.csv"
    # both columns have sample standard deviation sqrt(5/3)
    background.write_text("u,v\n1,11\n2,12\n3,13\n4,14\n", encoding="utf-8")
    base = ["explain", "--model", "builtin:linear:2,-1",
            "--instance", "1,2", "--n0", "200", "--k", "2", "--seed", "3"]
    _, from_csv, _ = run_cli([*base, "--scales-csv", str(background)], capsys)
    std = repr(math.sqrt(5.0 / 3.0))
    _, manual, _ = run_cli([*base, "--scales", f"{std},{std}"], capsys)
    assert from_csv == manual


def test_seed_env_var_is_the_default(capsys, monkeypatch):
    base = ["explain", *LINEAR3, "--n0", "200", "--k", "3"]
    monkeypatch.setenv("SLIME_SEED", "7")
    _, from_env, _ = run_cli(base, capsys)
    monkeypatch.delenv("SLIME_SEED")
    _, explicit, _ = run_cli([*base, "--seed", "7"], capsys)
    assert from_env == explicit
    monkeypatch.setenv("SLIME_SEED", "not-a-number")
    code, _, err = run_cli(base, capsys)
    assert code == 2
    assert "SLIME_SEED" in err


# -------------------------------------------------------------------- bench

BENCH_ARGS = ["bench", "--model", "builtin:linear:3,1", "--instance", "0,0",
              "--n0", "50", "--k", "2", "--n-max", "800", "--reps", "3",
              "--seed", "1"]


def test_bench_json_report_and_files(capsys, tmp_path):
    report_dir = tmp_path / "report"
    code, out, _ = run_cli([*BENCH_ARGS, "--report", str(report_dir)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["reps"] == 3
    assert payload["incomplete"] is False
    assert [k for k, _ in payload["positions"]] == [1, 2]
    csv_text = (report_dir / "report.csv").read_text(encoding="utf-8")
    assert csv_text.startswith("position,avg_jaccard\n")
    md_text = (report_dir / "report.md").read_text(encoding="utf-8")
    assert md_text.startswith("| Position | slime |")
    raw_lines = (report_dir / "raw.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(raw_lines) == 3
    manifest = json.loads((report_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["argv"] == [*BENCH_ARGS, "--report", str(report_dir)]


def test_bench_reruns_and_workers_are_byte_identical(capsys):
    _, sequential, _ = run_cli(BENCH_ARGS, capsys)
    _, again, _ = run_cli(BENCH_ARGS, capsys)
    _, threaded, _ = run_cli([*BENCH_ARGS, "--workers", "3"], capsys)
    assert sequential == again
    assert threaded == sequential


def test_bench_table_format(capsys):
    code, out, _ = run_cli([*BENCH_ARGS, "--format", "table"], capsys)
    assert code == 0
    assert out.startswith("| Position | slime |")


# -------------------------------------------------------------------- repro

def test_repro_lasso_ordering_passes(capsys):
    code, out, _ = run_cli(["repro", "lasso-ordering"], capsys)
    assert code == 0
    assert out.rstrip().endswith("PASS  lasso-ordering")


def test_repro_json_format(capsys):
    code, out, _ = run_cli(["repro", "lasso-ordering", "--format", "json"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "lasso-ordering"
    assert payload["passed"] is True
    assert all(check["ok"] for check in payload["checks"])
