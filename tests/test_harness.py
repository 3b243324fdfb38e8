"""Case running, manifests, result CSVs, and trace round-trips."""

import io
import json
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import tgmc
from tgmc.cli import exit_code_for
from tgmc.core import ModelError
from tgmc.dsl import format_model, parse_params_binding
from tgmc.harness import (BUILTIN_NAMES, CaseSpec, RunRecord,
                          load_builtin, parse_trace, read_manifest,
                          render_state, render_trace, resolve_model, run_case,
                          run_manifest, summarize, verify_trace,
                          write_records_csv, TRACE_MAGIC)
from tgmc.checker import check_spec
from tgmc.kripke import Instance

GOOD_CASE = CaseSpec("byz", "n=4,t=1,f=1", "unforg", "holds", "required")
BAD_EXPECTATION = CaseSpec("byz", "n=4,t=1,f=1", "unforg", "violated", "required")
VIOLATED_CASE = CaseSpec("clean", "n=3,t=3", "unforg", "violated", "required")
SKIP_CASE = CaseSpec("byz", "n=10,t=3,f=3", "corr", "skip", "skip")


def manifest_file(tmp_path, rows):
    path = tmp_path / "cases.csv"
    lines = ["model,params,spec,expected,tier"]
    lines += [",".join(f'"{field}"' for field in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_load_builtin_and_resolve():
    for name in BUILTIN_NAMES:
        model = load_builtin(name)
        assert model.name == name
        assert resolve_model(name) == model
        assert resolve_model(f"builtin:{name}") == model
    with pytest.raises(ModelError):
        load_builtin("missing")
    with pytest.raises(ModelError):
        resolve_model("builtin:missing")


def test_resolve_model_from_file(tmp_path):
    path = tmp_path / "copy.tg"
    path.write_text(format_model(load_builtin("clean")))
    assert resolve_model(str(path)) == load_builtin("clean")
    with pytest.raises(ModelError):
        resolve_model(str(tmp_path / "absent.tg"))


def test_run_case_outcomes():
    record = run_case(GOOD_CASE)
    assert record.verdict == "holds"
    assert record.match is True
    assert record.states_stored > 0

    record = run_case(BAD_EXPECTATION)
    assert record.verdict == "holds"
    assert record.match is False

    record = run_case(VIOLATED_CASE)
    assert record.verdict == "violated"
    assert record.match is True

    record = run_case(SKIP_CASE)
    assert record.verdict == "skip"
    assert record.match is None

    record = run_case(CaseSpec("byz", "n=4,t=1", "unforg", "holds", "required"))
    assert record.verdict == "error"
    assert record.match is False
    assert "missing" in record.detail

    record = run_case(CaseSpec("byz", "n=--4,t=1,f=1", "unforg", "holds",
                               "required"))
    assert record.verdict == "error"
    assert record.match is False
    assert "non-numeric" in record.detail

    record = run_case(GOOD_CASE, max_states=2)
    assert record.verdict == "inconclusive"
    assert record.match is False          # required tier tolerates no cap-outs

    record = run_case(CaseSpec("byz", "n=4,t=1,f=1", "unforg", "holds", "extended"),
                      max_states=2)
    assert record.verdict == "inconclusive"
    assert record.match is None


def test_read_manifest_validation(tmp_path):
    path = manifest_file(tmp_path, [("byz", "n=4,t=1,f=1", "unforg", "holds", "required")])
    cases = read_manifest(path)
    assert cases == [GOOD_CASE]

    # Blank rows are skipped, and do not count.
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("\nmodel,params,spec,expected,tier\n\n"
                      'byz,"n=4,t=1,f=1",unforg,holds,required\n\n')
    assert read_manifest(str(spaced)) == [GOOD_CASE]

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert read_manifest(str(empty)) == []

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("model,params\nbyz,n=1\n")
    with pytest.raises(ModelError):
        read_manifest(str(bad_header))

    for bad_row in (("", "n=4,t=1,f=1", "unforg", "holds", "required"),
                    ("byz", "n=4,t=1,f=1", "unforg", "maybe", "required"),
                    ("byz", "n=4,t=1,f=1", "unforg", "holds", "golden"),
                    ("byz", "n=4,t=1,f=1", "unforg", "holds", "required", ""),
                    ("byz", "n=4,t=1,f=1", "unforg", "holds")):
        path = manifest_file(tmp_path, [bad_row])
        with pytest.raises(ModelError) as err:
            read_manifest(path)
        assert "row 2" in str(err.value)
        if len(bad_row) != 5:
            assert str(err.value).endswith(f"{len(bad_row)} cells, expected 5")

    with pytest.raises(ModelError):
        read_manifest(str(tmp_path / "nowhere.csv"))


def test_run_manifest_and_csv_output(tmp_path):
    path = manifest_file(tmp_path, [
        ("byz", "n=4,t=1,f=1", "unforg", "holds", "required"),
        ("clean", "n=3,t=3", "unforg", "violated", "required"),
        ("byz", "n=10,t=3,f=3", "corr", "skip", "skip"),
    ])
    records = run_manifest(path)
    assert [r.verdict for r in records] == ["holds", "violated", "skip"]
    assert exit_code_for(records) == 0

    out = io.StringIO()
    write_records_csv(records, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == ("model,params,spec,expected,tier,"
                        "verdict,match,states_stored,transitions,elapsed_ms")
    assert len(lines) == 4
    assert lines[1].startswith('byz,"n=4,t=1,f=1",unforg,holds,required,holds,yes,')
    assert lines[3].endswith(",skip,,0,0,0")

    summary = summarize(records)
    assert "3 cases" in summary
    assert "2 match" in summary
    assert "1 skipped" in summary


def test_run_manifest_parallel_preserves_order(tmp_path):
    rows = [("clean", f"n={n},t=1", "unforg", "holds", "required")
            for n in (1, 2, 3)] * 2
    path = manifest_file(tmp_path, rows)
    serial = run_manifest(path, jobs=1)
    parallel = run_manifest(path, jobs=3)
    strip = lambda rs: [(r.case, r.verdict, r.match, r.states_stored) for r in rs]
    assert strip(serial) == strip(parallel)


def test_run_manifest_starts_no_more_workers_than_cases(tmp_path, monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    class NoProcessContext:
        Pool = SerialPool

    monkeypatch.setattr("multiprocessing.get_context",
                        lambda *method: NoProcessContext)
    rows = [("clean", f"n={n},t=1", "unforg", "holds", "required")
            for n in (2, 3, 4)]
    path = manifest_file(tmp_path, rows)
    assert [r.match for r in run_manifest(path, jobs=8)] == [True] * 3
    assert [r.match for r in run_manifest(path, jobs=2)] == [True] * 3
    assert started == [3, 2]
    run_manifest(manifest_file(tmp_path, rows[:1]), jobs=8)
    assert started == [3, 2]          # one case runs in this process


def test_import_and_builtins_load_no_pool_or_resource_reader():
    # A check pays only for what it uses: multiprocessing is imported by a
    # parallel run, and the builtins are read as files beside the package.
    # ``-S`` keeps site hooks from importing either module first.
    src = str(Path(tgmc.__file__).parents[1])
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); import tgmc; "
             "tgmc.load_builtin('byz'); "
             "print(json.dumps([tgmc.__file__, "
             "sorted({'multiprocessing', 'importlib.resources'} & set(sys.modules))]))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    origin, loaded = json.loads(proc.stdout)
    assert origin.startswith(src)
    assert loaded == []


def test_exit_codes_and_summary_lines():
    ok = RunRecord(GOOD_CASE, "holds", True)
    mismatch = RunRecord(BAD_EXPECTATION, "holds", False)
    undecided = RunRecord(GOOD_CASE, "inconclusive", None)
    skipped = RunRecord(SKIP_CASE, "skip", None)
    assert exit_code_for([ok, skipped]) == 0
    assert exit_code_for([ok, mismatch]) == 1
    assert exit_code_for([ok, undecided]) == 3
    assert exit_code_for([mismatch, undecided]) == 1   # mismatch dominates
    summary = summarize([ok, mismatch, undecided, skipped])
    assert "MISMATCH" in summary
    assert "1 inconclusive" in summary
    # A required row that ends inconclusive is a mismatch, counted once:
    # the four counts add up to the cases, and its line names the cause.
    stuck = RunRecord(GOOD_CASE, "inconclusive", False)
    lines = summarize([ok, mismatch, undecided, stuck, skipped]).splitlines()
    assert lines[0] == ("5 cases: 1 match, 2 mismatch, 1 inconclusive, "
                        "1 skipped")
    assert lines[2] == ("  MISMATCH byz [n=4,t=1,f=1] unforg: "
                        "expected holds, got inconclusive")


def test_render_state_format():
    model = load_builtin("byz")
    inst = Instance(model, {"n": 7, "t": 2, "f": 2})
    state = inst.decode(inst.initial_states()[0])
    assert render_state(state, model) == "nsnt=0 | V0(rcvd=0) V0(rcvd=0) V0(rcvd=0) V0(rcvd=0) V0(rcvd=0)"


def test_trace_round_trip_and_verification():
    model = load_builtin("clean")
    env = {"n": 3, "t": 3}
    verdict = check_spec(model, env, "unforg")
    lasso = verdict.counterexample
    text = render_trace(lasso, model, env=env, spec_name="unforg",
                        fairness=False, symmetry=True)
    assert text.startswith(TRACE_MAGIC)

    headers, prefix, cycle = parse_trace(text, model)
    assert headers == {"model": "clean", "params": "n=3, t=3",
                       "spec": "unforg", "fairness": "off", "symmetry": "on"}
    assert [state for state, _ in prefix] == lasso.prefix
    assert [state for state, _ in cycle] == lasso.cycle

    assert verify_trace(text, model) == []

    # Tampered traces are caught: bump a shared counter mid-run.
    lines = text.splitlines()
    tampered = "\n".join(line.replace("nsnt=1", "nsnt=2", 1) if i == 8 else line
                         for i, line in enumerate(lines)) + "\n"
    assert tampered != text
    assert verify_trace(tampered, model) != []

    # A malformed number is a problem on its trace line, not a crash.
    line_no = next(i for i, line in enumerate(lines, 1) if "nsnt=1" in line)
    mangled = text.replace(lines[line_no - 1],
                           lines[line_no - 1].replace("nsnt=1", "nsnt=--1", 1))
    problems = verify_trace(mangled, model)
    assert len(problems) == 1
    assert problems[0].startswith(f"trace line {line_no}: ")

    # A trace for one model cannot be verified against another.
    problems = verify_trace(text, load_builtin("byz"))
    assert problems != []

    # Switches are 'on' or 'off'; any other value names its line.
    for header, bad in (("fairness: off", "fairness: yes"),
                        ("symmetry: on", "symmetry: 1")):
        assert header in lines
        line_no = lines.index(header) + 1
        problems = verify_trace(text.replace(header, bad), model)
        assert len(problems) == 1
        assert problems[0].startswith(f"trace line {line_no}: ")


def test_trace_verification_catches_broken_cycle():
    model = load_builtin("byz")
    env = {"n": 7, "t": 1, "f": 2}
    verdict = check_spec(model, env, "unforg")
    assert verdict.status == "violated"
    text = render_trace(verdict.counterexample, model, env=env,
                        spec_name="unforg", fairness=False, symmetry=True)
    assert verify_trace(text, model) == []
    # Remove the final cycle line: the loop no longer closes.
    lines = [line for line in text.splitlines() if line.strip()]
    clipped = "\n".join(lines[:-1]) + "\n"
    assert verify_trace(clipped, model) != []
    # Remove the first state: the positions no longer count from 0 ...
    kept = [line for line in lines if not line.startswith("  0:")]
    cut = "\n".join(kept) + "\n"
    line_no = next(i for i, line in enumerate(text.splitlines(), 1)
                   if line.startswith("  1:")) - 1
    assert verify_trace(cut, model) == \
        [f"trace line {line_no}: expected position 0"]
    # ... and renumbered, the run no longer starts in an initial state.
    renumbered = [re.sub(r"^  (\d+):", lambda m: f"  {int(m[1]) - 1}:", line)
                  for line in kept]
    cut = "\n".join(renumbered) + "\n"
    assert any("initial" in problem for problem in verify_trace(cut, model))


@pytest.mark.parametrize("head", ["7", "²"])
def test_trace_positions_are_checked(head):
    model = load_builtin("byz")
    env = {"n": 7, "t": 1, "f": 2}
    verdict = check_spec(model, env, "relay")
    assert verdict.status == "violated"
    text = render_trace(verdict.counterexample, model, env=env, spec_name="relay")
    assert verify_trace(text, model) == []
    lines = text.splitlines()
    line_no = next(i for i, line in enumerate(lines, 1) if line.startswith("  1:"))
    lines[line_no - 1] = lines[line_no - 1].replace("  1:", f"  {head}:", 1)
    assert verify_trace("\n".join(lines) + "\n", model) == \
        [f"trace line {line_no}: expected position 1"]


def _relay_trace():
    model = load_builtin("byz")
    env = {"n": 7, "t": 1, "f": 2}
    verdict = check_spec(model, env, "relay")
    assert verdict.status == "violated"
    return model, render_trace(verdict.counterexample, model, env=env,
                               spec_name="relay").splitlines()


def test_trace_processes_in_written_order_under_symmetry():
    # Under symmetry tgmc writes each state's processes sorted; the same
    # multiset in another order is a problem on its line, not a broken
    # transition elsewhere.
    model, lines = _relay_trace()
    line_no = next(i for i, line in enumerate(lines, 1)
                   if line.startswith("  1:"))
    head, procs, aps = lines[line_no - 1].split(" | ")
    assert procs.endswith(" SE(rcvd=2)")
    moved = "SE(rcvd=2) " + procs[:-len(" SE(rcvd=2)")]
    text = _edited(lines, line_no, " | ".join((head, moved, aps)))
    assert verify_trace(text, model) == \
        [f"trace line {line_no}: under symmetry the processes must be "
         "in sorted order"]
    # Without symmetry the order is the processes' identity, and a state
    # line in any order parses.
    raw = [line.replace("symmetry: on", "symmetry: off") for line in lines]
    parse_trace(_edited(raw, line_no, " | ".join((head, moved, aps))), model)


def _edited(lines, at, new=None, *, insert=False):
    """The trace with line ``at`` (counted from 1) replaced or removed, or
    with ``new`` inserted before it."""
    lines = list(lines)
    if insert:
        lines.insert(at - 1, new)
    elif new is None:
        del lines[at - 1]
    else:
        lines[at - 1] = new
    return "\n".join(lines) + "\n"


def test_trace_sections_come_once_and_in_order():
    model, lines = _relay_trace()
    assert verify_trace("\n".join(lines) + "\n", model) == []
    cycle_at = lines.index("cycle:") + 1
    # A second prefix after the first cycle state would move the rest of
    # the cycle into it.
    assert verify_trace(_edited(lines, cycle_at + 2, "prefix:", insert=True),
                        model) == \
        [f"trace line {cycle_at + 2}: expected 'cycle' section"]
    assert verify_trace(_edited(lines, cycle_at, "prefix:"), model) == \
        [f"trace line {cycle_at}: expected 'cycle' section"]
    # A trace cut before its cycle is incomplete, not a shorter lasso.
    cut = "\n".join(lines[:cycle_at - 1]) + "\n"
    assert verify_trace(cut, model) == \
        [f"trace line {cycle_at - 1}: expected 'cycle' section"]
    assert verify_trace("\n".join(lines[:6]) + "\n", model) == \
        ["trace line 6: expected 'prefix' section"]


def test_trace_headers_come_once_each():
    model, lines = _relay_trace()
    assert lines[1:7] == ["model: byz", "params: n=7, t=1, f=2", "spec: relay",
                          "fairness: on", "symmetry: on", "prefix:"]
    cases = [
        (_edited(lines, 5, "spec: unforg", insert=True),
         "trace line 5: duplicate header 'spec'"),
        (_edited(lines, 6), "trace line 6: missing header 'symmetry'"),
        (_edited(lines, 2), "trace line 6: missing header 'model'"),
        (_edited(lines, 9, "spec: unforg", insert=True),
         "trace line 9: header 'spec' after the states"),
        (_edited(lines, 3, "seed: 7", insert=True),
         "trace line 3: unknown header 'seed'"),
        (_edited(lines, 3, "params n=7"),
         "trace line 3: expected 'key: value'"),
    ]
    for text, problem in cases:
        assert verify_trace(text, model) == [problem]
    # The model header is checked where it is written.
    assert verify_trace("\n".join(lines) + "\n", load_builtin("omit")) == \
        ["trace line 2: trace is for model 'byz', not 'omit'"]


def _violated_checks():
    """Every distinct violated check of the shipped tables, with symmetry,
    and the table1 rows of omit, symm and clean also without it."""
    checks = {}
    for table in ("table1.csv", "appendix_required.csv",
                  "appendix_extended.csv"):
        path = str(resources.files("tgmc") / "tables" / table)
        for case in read_manifest(path):
            if case.expected != "violated" or \
                    case.tier not in ("required", "extended"):
                continue
            symmetries = (True, False) if (table == "table1.csv" and
                                           case.model != "byz") else (True,)
            for symmetry in symmetries:
                checks[case.model, case.params, case.spec, symmetry] = None
    return list(checks)


@pytest.mark.parametrize("model_name,params,spec,symmetry", _violated_checks())
def test_every_table_counterexample_verifies(model_name, params, spec,
                                             symmetry):
    model = load_builtin(model_name)
    env = parse_params_binding(params, model)
    verdict = check_spec(model, env, spec, symmetry=symmetry)
    assert verdict.status == "violated"
    text = render_trace(verdict.counterexample, model, env=env,
                        spec_name=spec, symmetry=symmetry)
    assert verify_trace(text, model) == []
