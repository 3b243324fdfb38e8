"""Command-line interface: subcommands, output formats, exit codes."""

import argparse
import csv
import json
import os
import subprocess
import sys
from importlib import resources

import pytest

from oracles import source_env
from tgmc.cli import _build_parser, main
from tgmc.harness import TRACE_MAGIC


# Spellings that int() reads but the integer grammar of --params, manifests
# and traces (``core.parse_int``) does not: ASCII digits after at most a "-".
NOT_INTEGERS = ("1_000", "+5", " 7", "\u0663")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_holds_text(capsys):
    code, out, err = run_cli(capsys, "check", "--model", "builtin:byz",
                             "--params", "n=7,t=2,f=2", "--spec", "unforg")
    assert code == 0
    assert "verdict: holds" in out
    assert "checked:" in out
    assert err == ""


def test_check_violated_text_and_exit_code(capsys):
    code, out, err = run_cli(capsys, "check", "--model", "builtin:clean",
                             "--params", "n=3,t=3", "--spec", "unforg")
    assert code == 1
    assert "verdict: violated" in out
    assert "counterexample:" in out
    assert TRACE_MAGIC in out
    assert "resilience" in err          # n=3,t=3 breaks n > t; noted, not fatal


def test_check_json_format(capsys):
    code, out, _ = run_cli(capsys, "check", "--model", "builtin:clean",
                           "--params", "n=3,t=3", "--spec", "unforg",
                           "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "violated"
    assert data["model"] == "clean"
    assert data["spec"] == "unforg"
    # the record documents the requested setting, even though unforg has no
    # unless clause for fairness to act on
    assert data["fairness"] is True
    assert data["symmetry"] is True
    assert data["trace"]["cycle"]
    assert data["states_stored"] > 0


def test_check_fairness_and_symmetry_flags(capsys):
    code, out, _ = run_cli(capsys, "check", "--model", "builtin:byz",
                           "--params", "n=7,t=2,f=2", "--spec", "corr",
                           "--no-fairness", "--no-symmetry", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["fairness"] is False
    assert data["symmetry"] is False
    assert data["verdict"] == "violated"


def test_check_trace_file_and_verification(capsys, tmp_path):
    trace = tmp_path / "run.trace"
    code, out, _ = run_cli(capsys, "check", "--model", "builtin:clean",
                           "--params", "n=3,t=3", "--spec", "unforg",
                           "--trace", str(trace))
    assert code == 1
    text = trace.read_text()
    assert text.startswith(TRACE_MAGIC)

    code, out, err = run_cli(capsys, "check", "--model", "builtin:clean",
                             "--verify-trace", str(trace))
    assert code == 0
    assert "valid" in out

    trace.write_text(text.replace("nsnt=3", "nsnt=9"))
    code, out, err = run_cli(capsys, "check", "--model", "builtin:clean",
                             "--verify-trace", str(trace))
    assert code == 1
    assert err.strip()


def test_verify_trace_bare_status_is_invalid(capsys, tmp_path):
    trace = tmp_path / "run.trace"
    run_cli(capsys, "check", "--model", "builtin:clean", "--params", "n=3,t=3",
            "--spec", "unforg", "--trace", str(trace))
    lines = trace.read_text().splitlines()
    lines[7] = lines[7].replace("V0(rcvd=0)", "V0", 1)
    trace.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "check", "--model", "builtin:clean",
                             "--verify-trace", str(trace))
    assert code == 1
    assert err == ("trace invalid: trace line 8: local variables must be "
                   "exactly rcvd in order\n")


@pytest.mark.parametrize("kind,argv", [
    ("trace", ["check", "--model", "builtin:clean", "--verify-trace", "{path}"]),
    ("manifest", ["bench", "--manifest", "{path}"]),
    ("model", ["paths", "--model", "{path}"]),
    ("model", ["check", "--model", "{path}", "--params", "n=3,t=1",
               "--spec", "unforg"]),
])
def test_non_utf8_files_are_usage_errors(capsys, tmp_path, kind, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"tgmc-trace 1\nmodel: caf\xe9 \xff\n")
    code, out, err = run_cli(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {kind} {str(path)!r}: ")


@pytest.mark.parametrize("kind", ["model", "manifest", "trace"])
def test_a_utf8_byte_order_mark_is_skipped(capsys, tmp_path, kind):
    """Some editors start a UTF-8 file with a byte-order mark; each reader
    skips it and reads the file as it reads the same file without one."""
    path = tmp_path / f"bom.{kind}"
    if kind == "model":
        text = (resources.files("tgmc") / "models" / "clean.tg").read_text(
            encoding="utf-8")
        argv = ["paths", "--model", str(path)]
        expected = run_cli(capsys, "paths", "--model", "builtin:clean")
    elif kind == "manifest":
        text = ("model,params,spec,expected,tier\n"
                'clean,"n=3,t=3",unforg,violated,required\n')
        argv = ["bench", "--manifest", str(path), "--out", str(tmp_path / "r.csv")]
        expected = (0, "1 cases: 1 match, 0 mismatch, 0 inconclusive, "
                       "0 skipped\n", "")
    else:
        run_cli(capsys, "check", "--model", "builtin:clean", "--params",
                "n=3,t=3", "--spec", "unforg", "--trace", str(path))
        text = path.read_text(encoding="utf-8")
        argv = ["check", "--model", "builtin:clean", "--verify-trace", str(path)]
        expected = (0, "trace valid: replays and witnesses the violation\n", "")
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert run_cli(capsys, *argv) == expected


def test_check_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", "--model", "builtin:byz")
    assert code == 2
    assert "error:" in err

    code, _, err = run_cli(capsys, "check", "--model", "builtin:byz",
                           "--params", "n=7,t=2,f=2", "--spec", "missing")
    assert code == 2
    assert "missing" in err

    code, _, err = run_cli(capsys, "check", "--model", "builtin:nope",
                           "--params", "n=1", "--spec", "unforg")
    assert code == 2

    code, _, err = run_cli(capsys, "check", "--model", "builtin:byz",
                           "--params", "n=7,t=2", "--spec", "unforg")
    assert code == 2

    # File errors are usage errors, not verdicts.
    missing_dir = tmp_path / "missing"
    code, _, err = run_cli(capsys, "check", "--model", "builtin:clean",
                           "--params", "n=3,t=3", "--spec", "unforg",
                           "--trace", str(missing_dir / "t.txt"))
    assert code == 2
    assert "error:" in err

    code, _, err = run_cli(capsys, "check", "--model", "builtin:byz",
                           "--verify-trace", str(missing_dir / "t.txt"))
    assert code == 2
    assert "error:" in err

    # A state cap below 1, or not an integer, is rejected before any check
    # runs.
    for bad in ("0", "-1", "many", *NOT_INTEGERS):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(capsys, "check", "--model", "builtin:byz",
                    "--params", "n=7,t=2,f=2", "--spec", "relay",
                    "--max-states", bad)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "--max-states" in err


NOP_MODEL = """model nop;
size 2;
status A, B;
init A;
step {
  from qI to qF: set sv = B;
}
spec done: F all(sv == B);
"""


def test_check_model_without_parameters(capsys, tmp_path):
    model = tmp_path / "nop.tg"
    model.write_text(NOP_MODEL)
    trace = tmp_path / "nop.trace"
    code, out, err = run_cli(capsys, "check", "--model", str(model),
                             "--spec", "done", "--trace", str(trace))
    assert code == 1
    assert out.startswith("model nop  spec done  params   fairness on")
    assert "verdict: violated" in out
    assert err == ""
    assert "params: \n" in trace.read_text()

    code, out, err = run_cli(capsys, "check", "--model", str(model),
                             "--verify-trace", str(trace))
    assert code == 0
    assert "valid" in out

    code, out, _ = run_cli(capsys, "check", "--model", str(model), "--spec",
                           "done", "--params", "", "--format", "json")
    assert code == 1
    assert json.loads(out)["params"] == ""

    # A parametrised model still needs its binding.
    for params in ([], ["--params", ""]):
        code, out, err = run_cli(capsys, "check", "--model", "builtin:byz",
                                 "--spec", "relay", *params)
        assert code == 2
        assert out == ""
        assert err == "error: missing parameter(s): n, t, f\n"


# A manifest row needs parameters, so these models have one.
DEEP_BASE = NOP_MODEL.replace("size 2;", "param k;\nsize k;")
DEEP_MODELS = {
    "parentheses": DEEP_BASE + "spec deep: " + "(" * 400 + "all(sv == B)"
                   + ")" * 400 + ";\n",
    "until chain": DEEP_BASE + "spec deep: "
                   + " U ".join(["all(sv == B)"] * 1500) + ";\n",
    "guard negations": DEEP_BASE.replace(
        "from qI to qF: set sv = B;",
        "from qI to q1: when " + "!(" * 1500 + "sv == A" + ")" * 1500
        + "; from q1 to qF: set sv = B;") + "spec deep: F all(sv == B);\n",
}


@pytest.mark.parametrize("shape", DEEP_MODELS)
def test_deep_nesting_is_a_usage_error(capsys, tmp_path, shape):
    """A model nested too deep is a diagnostic (exit 2) from check, and an
    error row from bench that leaves the other rows' results."""
    model = tmp_path / "deep.tg"
    model.write_text(DEEP_MODELS[shape])
    code, out, err = run_cli(capsys, "check", "--model", str(model),
                             "--params", "k=2", "--spec", "deep")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "nested more than" in err

    manifest = tmp_path / "m.csv"
    manifest.write_text("model,params,spec,expected,tier\n"
                        'byz,"n=4,t=1,f=1",unforg,holds,required\n'
                        f"{model},k=2,deep,holds,required\n"
                        'clean,"n=3,t=3",unforg,violated,required\n')
    code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest))
    assert code == 1
    rows = [line.split(",")[-5:-3] for line in out.splitlines()[1:]]
    assert rows == [["holds", "yes"], ["error", "no"], ["violated", "yes"]]
    assert "expected holds, got error (" in err and "nested more than" in err


def test_check_resource_cap_exit_code(capsys):
    code, out, _ = run_cli(capsys, "check", "--model", "builtin:byz",
                           "--params", "n=7,t=2,f=2", "--spec", "relay",
                           "--max-states", "100")
    assert code == 3
    assert "inconclusive" in out


def test_bench_stdout_and_exit(capsys, tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "model,params,spec,expected,tier\n"
        'byz,"n=4,t=1,f=1",unforg,holds,required\n'
        'clean,"n=3,t=3",unforg,violated,required\n')
    code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("model,params,spec,expected,tier,verdict,match")
    assert len(lines) == 3
    assert "2 match" in err
    reduced = list(csv.DictReader(lines))

    # Without symmetry both rows keep their verdicts, and the byz row
    # stores more product states: one per process vector, not per multiset.
    code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                             "--no-symmetry")
    assert code == 0 and "2 match" in err
    raw = list(csv.DictReader(out.splitlines()))
    assert [row["verdict"] for row in raw] == ["holds", "violated"] \
        == [row["verdict"] for row in reduced]
    assert [reduced[0]["states_stored"], raw[0]["states_stored"]] == ["5", "9"]

    out_file = tmp_path / "results.csv"
    code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                             "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().splitlines()[0].startswith("model,params")
    assert "2 cases" in out

    manifest.write_text(
        "model,params,spec,expected,tier\n"
        'byz,"n=4,t=1,f=1",unforg,violated,required\n')
    code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest))
    assert code == 1
    assert "MISMATCH" in err


def test_bench_bad_manifest(capsys, tmp_path, monkeypatch):
    manifest = tmp_path / "m.csv"
    manifest.write_text("model,params\nbyz,n=1\n")
    code, _, err = run_cli(capsys, "bench", "--manifest", str(manifest))
    assert code == 2
    assert "error:" in err

    # A row with a sixth cell is refused, not run with that cell dropped.
    manifest.write_text("model,params,spec,expected,tier\n"
                        'clean,"n=3,t=1",unforg,holds,required,extra\n')
    code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest))
    assert code == 2
    assert out == ""
    assert err == f"error: manifest {manifest} row 2: 6 cells, expected 5\n"

    # An --out path that cannot be opened fails before any check runs.
    manifest.write_text("model,params,spec,expected,tier\n"
                        'clean,"n=3,t=3",unforg,violated,required\n')
    runs = []
    monkeypatch.setattr("tgmc.cli.run_manifest",
                        lambda *args, **kwargs: runs.append(args))
    code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                             "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 2
    assert "error:" in err
    assert out == ""
    assert runs == []

    # So do --jobs and --max-states below 1, or not integers.
    for option in ("--jobs", "--max-states"):
        for bad in ("0", "-1", *NOT_INTEGERS):
            with pytest.raises(SystemExit) as exit_info:
                run_cli(capsys, "bench", "--manifest", str(manifest),
                        option, bad)
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: ") and option in err
    assert runs == []


def test_bench_refuses_to_overwrite_its_manifest(capsys, tmp_path):
    """--out naming the manifest, by its path or another, is a usage error
    before anything is opened; the manifest is left as it was."""
    manifest = tmp_path / "m.csv"
    text = ("model,params,spec,expected,tier\n"
            'clean,"n=3,t=3",unforg,violated,required\n')
    manifest.write_text(text)
    alias = tmp_path / "alias.csv"
    alias.symlink_to(manifest)
    for out in (manifest, alias):
        code, stdout, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                                    "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: --out {str(out)!r} is the manifest file\n"
        assert manifest.read_text() == text


def test_every_option_has_help():
    """``tgmc SUBCOMMAND --help`` describes every option it lists."""
    parser = _build_parser()
    sub, = (action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction))
    for name, subparser in sub.choices.items():
        for action in subparser._actions:
            assert action.help and action.help != argparse.SUPPRESS, \
                (name, action.option_strings)


def test_paths_command(capsys):
    code, out, _ = run_cli(capsys, "paths", "--model", "builtin:byz")
    assert code == 0
    assert "10 step paths" in out
    assert out.count("pick rcvd") == 10

    code, out, _ = run_cli(capsys, "paths", "--model", "builtin:clean")
    assert code == 0
    assert "4 step paths" in out


@pytest.mark.parametrize("argv,expected", [
    (["check", "--model", "builtin:byz", "--params", "n=7,t=1,f=2",
      "--spec", "relay", "--format", "json"], 1),
    (["bench", "--manifest",
      str(resources.files("tgmc") / "tables" / "table1.csv")], 0),
])
def test_closed_stdout_keeps_the_exit_code(argv, expected):
    read_end, write_end = os.pipe()
    os.close(read_end)              # the reader is gone before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "tgmc.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=source_env(), check=False)
    finally:
        os.close(write_end)
    assert proc.returncode == expected, proc.stderr
    assert "Broken pipe" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_bench_results_do_not_depend_on_jobs(tmp_path):
    # Real worker processes, not a serial stand-in: every column of the
    # result CSV but the timing, and the summary, match a serial run.
    manifest = str(resources.files("tgmc") / "tables" / "table1.csv")
    results = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "tgmc.cli", "bench", "--manifest", manifest,
             "--jobs", str(jobs), "--out", str(out)],
            capture_output=True, text=True, env=source_env(), timeout=600)
        assert proc.returncode == 0, proc.stderr
        with out.open(newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        for row in rows:
            del row["elapsed_ms"]
        results[jobs] = (rows, proc.stdout)
    rows, summary = results[1]
    assert len(rows) == 21 and summary.startswith("21 cases: 21 match")
    assert results[2] == results[1]
