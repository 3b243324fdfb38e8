"""Builtin models, single-case running, manifest-driven verdict tables, and
counterexample trace rendering/verification.

A manifest is a CSV: the header ``model,params,spec,expected,tier``, then
non-blank rows of exactly five non-empty cells, with ``expected`` ∈ {holds,
violated, skip} and ``tier`` ∈ {required, extended, skip, unmodeled}.  Rows
whose expected verdict or tier says skip/unmodeled are echoed in the output
without being run.  Result CSVs append the columns
``verdict,match,states_stored,transitions,elapsed_ms`` (timing deliberately
last, so two runs of one manifest differ at most in the final column).  A
trace has the one grammar that ``render_trace`` writes (see the comment
above it).  Both readers check each line or row where they read it.
"""

from __future__ import annotations

import csv
import functools
import io
import os
from dataclasses import dataclass
from typing import NamedTuple

from .checker import (DEFAULT_MAX_PRODUCT_STATES, Lasso, check_spec,
                      combined_formula, replay_lasso)
from .core import ModelError, ParamEnv, parse_int, value
from .dsl import ModelDef, parse_model, parse_params_binding
from .kripke import EngineState, Instance
from .ltl import formula_aps, negate_to_nnf

BUILTIN_NAMES = ("byz", "omit", "symm", "clean")
EXPECTED_VALUES = ("holds", "violated", "skip")
TIER_VALUES = ("required", "extended", "skip", "unmodeled")
MANIFEST_COLUMNS = ("model", "params", "spec", "expected", "tier")
RESULT_COLUMNS = MANIFEST_COLUMNS + ("verdict", "match", "states_stored",
                                     "transitions", "elapsed_ms")


@functools.cache
def load_builtin(name: str) -> ModelDef:
    """The four models shipped with the package, parsed once and cached."""
    if name not in BUILTIN_NAMES:
        raise ModelError(f"unknown builtin model {name!r} "
                         f"(available: {', '.join(BUILTIN_NAMES)})")
    path = os.path.join(os.path.dirname(__file__), "models", f"{name}.tg")
    return parse_model(read_text(path, "model"))


def read_text(path: str, kind: str) -> str:
    """A UTF-8 text file's contents; a file that cannot be opened or decoded
    is a ModelError naming the ``kind`` of file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeError) as exc:
        raise ModelError(f"cannot read {kind} {path!r}: {exc}") from None


def resolve_model(ref: str) -> ModelDef:
    """A model reference is ``builtin:NAME``, a bare builtin name, or a path."""
    if ref.startswith("builtin:"):
        return load_builtin(ref[len("builtin:"):])
    if ref in BUILTIN_NAMES:
        return load_builtin(ref)
    return parse_model(read_text(ref, "model"))


# ---------------------------------------------------------------------------
# Cases and records.

# A case stays a frozen dataclass, unlike the other records: the benchmark's
# tests derive cases from one with ``dataclasses.replace``.
@dataclass(frozen=True)
class CaseSpec:
    model: str
    params: str
    spec: str
    expected: str   # holds | violated | skip
    tier: str       # required | extended | skip | unmodeled


@value
class RunRecord(NamedTuple):
    case: CaseSpec
    verdict: str                 # holds | violated | inconclusive | skip | error
    match: bool | None           # None when skipped, or inconclusive but tolerated
    states_stored: int = 0
    transitions: int = 0
    elapsed_ms: int = 0
    detail: str = ""             # error text when verdict == "error"


def run_case(case: CaseSpec, *, symmetry: bool = True,
             max_states: int = DEFAULT_MAX_PRODUCT_STATES) -> RunRecord:
    """Check one manifest case, with fairness on (it acts only on specs that
    carry an `unless` clause).  Skip-tier cases are echoed without being
    run."""
    if case.expected == "skip" or case.tier in ("skip", "unmodeled"):
        return RunRecord(case=case, verdict="skip", match=None)
    try:
        model = resolve_model(case.model)
        env = parse_params_binding(case.params, model)
        verdict = check_spec(model, env, case.spec, symmetry=symmetry,
                             max_states=max_states)
    except ModelError as exc:
        return RunRecord(case=case, verdict="error", match=False, detail=str(exc))
    if verdict.status == "inconclusive":
        match: bool | None = False if case.tier == "required" else None
    else:
        match = verdict.status == case.expected
    return RunRecord(case=case, verdict=verdict.status, match=match,
                     states_stored=verdict.product_states,
                     transitions=verdict.transitions,
                     elapsed_ms=verdict.elapsed_ms)


# ---------------------------------------------------------------------------
# Manifests.

def read_manifest(path: str) -> list[CaseSpec]:
    """The cases of a manifest: its header, then rows of five cells (blank
    rows are skipped)."""
    rows = [row for row in csv.reader(io.StringIO(read_text(path, "manifest")))
            if row]
    if not rows:
        return []
    header = [name.strip() for name in rows[0]]
    if header != list(MANIFEST_COLUMNS):
        raise ModelError(f"manifest {path}: header must be "
                         f"{','.join(MANIFEST_COLUMNS)}, got {','.join(header)}")
    return [_parse_manifest_row(f"manifest {path} row {row_no}", row)
            for row_no, row in enumerate(rows[1:], start=2)]


def _parse_manifest_row(where: str, row: list[str]) -> CaseSpec:
    if len(row) != len(MANIFEST_COLUMNS):
        raise ModelError(f"{where}: {len(row)} cells, "
                         f"expected {len(MANIFEST_COLUMNS)}")
    cells = [cell.strip() for cell in row]
    for column, value in zip(MANIFEST_COLUMNS, cells):
        if not value:
            raise ModelError(f"{where}: empty {column!r}")
    case = CaseSpec(*cells)
    if case.expected not in EXPECTED_VALUES:
        raise ModelError(f"{where}: expected must be one of "
                         f"{', '.join(EXPECTED_VALUES)}, got {case.expected!r}")
    if case.tier not in TIER_VALUES:
        raise ModelError(f"{where}: tier must be one of "
                         f"{', '.join(TIER_VALUES)}, got {case.tier!r}")
    return case


def run_manifest(path: str, jobs: int = 1,
                 max_states: int = DEFAULT_MAX_PRODUCT_STATES,
                 symmetry: bool = True) -> list[RunRecord]:
    """Run every case of a manifest in up to ``jobs`` worker processes (no
    more than there are cases); results come back in manifest order."""
    cases = read_manifest(path)
    run = functools.partial(run_case, symmetry=symmetry, max_states=max_states)
    workers = min(jobs, len(cases))
    if workers > 1:
        import multiprocessing      # only a parallel run pays for the import
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        with ctx.Pool(processes=workers) as pool:
            return pool.map(run, cases)
    return [run(case) for case in cases]


def write_records_csv(records: list[RunRecord], fh) -> None:
    """Write the result CSV to an open text file."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for r in records:
        writer.writerow([r.case.model, r.case.params, r.case.spec,
                         r.case.expected, r.case.tier, r.verdict,
                         _match_text(r.match), r.states_stored,
                         r.transitions, r.elapsed_ms])


def _match_text(match: bool | None) -> str:
    if match is None:
        return ""
    return "yes" if match else "no"


def summarize(records: list[RunRecord]) -> str:
    ran = [r for r in records if r.verdict != "skip"]
    matches = sum(1 for r in ran if r.match is True)
    mismatches = [r for r in records if r.match is False]
    inconclusive = sum(1 for r in ran if r.verdict == "inconclusive")
    skipped = len(records) - len(ran)
    lines = [f"{len(records)} cases: {matches} match, "
             f"{len(mismatches)} mismatch, {inconclusive} inconclusive, "
             f"{skipped} skipped"]
    for r in mismatches:
        note = f" ({r.detail})" if r.detail else ""
        lines.append(f"  MISMATCH {r.case.model} [{r.case.params}] "
                     f"{r.case.spec}: expected {r.case.expected}, "
                     f"got {r.verdict}{note}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Trace rendering and verification.  A trace is the magic line, the
# TRACE_HEADERS once each, then `prefix:` and `cycle:` once each and in that
# order, each followed by its indented state lines, numbered from 0:
#
# tgmc-trace 1
# model: byz
# params: n=7, t=3, f=2
# spec: relay
# fairness: on
# symmetry: on
# prefix:
#   0: nsnt=0 | V0(rcvd=0) V1(rcvd=0) | -
# cycle:
#   1: nsnt=1 | V0(rcvd=0) SE(rcvd=0) | some(rcvd < nsnt)
#
# parse_trace reads exactly that shape and reports each problem at its line;
# verify_trace replays the lasso against a freshly built instance.

TRACE_MAGIC = "tgmc-trace 1"
TRACE_HEADERS = ("model", "params", "spec", "fairness", "symmetry")


def render_state(state: EngineState, model: ModelDef) -> str:
    procs, shareds = state
    shared_part = " ".join(f"{name}={value}"
                           for name, value in zip(model.shareds, shareds))
    proc_parts = []
    for status_idx, local_values in procs:
        status = model.statuses[status_idx]
        if local_values:
            inner = ",".join(f"{name}={value}" for name, value
                             in zip(model.locals, local_values))
            proc_parts.append(f"{status}({inner})")
        else:
            proc_parts.append(status)
    return f"{shared_part or '-'} | {' '.join(proc_parts) or '-'}"


def render_trace(lasso: Lasso, model: ModelDef, *, env: ParamEnv,
                 spec_name: str, fairness: bool = True,
                 symmetry: bool = True) -> str:
    values = (model.name,
              ", ".join(f"{name}={env[name]}" for name in model.params),
              spec_name, "on" if fairness else "off", "on" if symmetry else "off")
    lines = [TRACE_MAGIC]
    lines += [f"{key}: {value}" for key, value in zip(TRACE_HEADERS, values)]
    position = 0
    for section, states in (("prefix", lasso.prefix), ("cycle", lasso.cycle)):
        lines.append(f"{section}:")
        for state in states:
            aps = lasso.ap_truth[position]
            ap_part = ", ".join(sorted(ap.render() for ap in aps)) or "-"
            lines.append(f"  {position}: {render_state(state, model)} | {ap_part}")
            position += 1
    return "\n".join(lines) + "\n"


TraceStates = list[tuple[EngineState, set[str]]]


def parse_trace(text: str, model: ModelDef
                ) -> tuple[dict[str, str], TraceStates, TraceStates]:
    """The headers, and the prefix and cycle as (state, rendered
    propositions) pairs, of a trace written for ``model``."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != TRACE_MAGIC:
        raise ModelError(f"trace line 1: expected header {TRACE_MAGIC!r}")
    headers: dict[str, str] = {}
    prefix: TraceStates = []
    cycle: TraceStates = []
    section: TraceStates | None = None
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if section is not None and raw.startswith("  "):
            state = _parse_state_line(line, model, line_no,
                                      len(prefix) + len(cycle))
            procs = state[0][0]
            if headers["symmetry"] == "on" and list(procs) != sorted(procs):
                raise ModelError(f"trace line {line_no}: under symmetry the "
                                 "processes must be in sorted order")
            section.append(state)
            continue
        key, sep, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if section is None and line == "prefix:":
            missing = [name for name in TRACE_HEADERS if name not in headers]
            problem = f"missing header {missing[0]!r}" if missing else None
            section = prefix
        elif section is prefix and line == "cycle:":
            problem, section = None, cycle
        elif section is not None:
            problem = (f"header {key!r} after the states"
                       if key in TRACE_HEADERS else "expected 'cycle' section")
        elif not sep:
            problem = "expected 'key: value'"
        elif key not in TRACE_HEADERS:
            problem = f"unknown header {key!r}"
        elif key in headers:
            problem = f"duplicate header {key!r}"
        elif key == "model" and value != model.name:
            problem = f"trace is for model {value!r}, not {model.name!r}"
        elif key in ("fairness", "symmetry") and value not in ("on", "off"):
            problem = f"{key} must be 'on' or 'off', got {value!r}"
        else:
            problem = None
            headers[key] = value
        if problem:
            raise ModelError(f"trace line {line_no}: {problem}")
    if section is not cycle:
        raise ModelError(f"trace line {len(lines)}: expected "
                         f"{'prefix' if section is None else 'cycle'!r} section")
    return headers, prefix, cycle


def _parse_state_line(line: str, model: ModelDef, line_no: int,
                      position: int) -> tuple[EngineState, set[str]]:
    head, sep, rest = line.partition(":")
    if not sep:
        raise ModelError(f"trace line {line_no}: expected 'N: state'")
    if head.strip() != str(position):       # ASCII digits, the state's index
        raise ModelError(f"trace line {line_no}: expected position {position}")
    parts = rest.strip().split(" | ")
    if len(parts) != 3:
        raise ModelError(f"trace line {line_no}: expected "
                         "'shareds | processes | propositions'")
    shared_part, proc_part, ap_part = parts
    shareds = _parse_assignments(shared_part, model.shareds, line_no, "shared")
    procs = []
    if proc_part.strip() != "-":
        for chunk in proc_part.split():
            name, paren, inner = chunk.partition("(")
            if name not in model.statuses:
                raise ModelError(f"trace line {line_no}: unknown status {name!r}")
            if paren and not inner.endswith(")"):
                raise ModelError(f"trace line {line_no}: malformed process "
                                 f"entry {chunk!r}")
            local_values = _parse_assignments(
                inner[:-1].replace(",", " "), model.locals, line_no, "local")
            procs.append((model.statuses.index(name), local_values))
    aps = set()
    if ap_part.strip() != "-":
        aps = {piece.strip() for piece in ap_part.split(", ")}
    return ((tuple(procs), shareds), aps)


def _parse_assignments(text: str, names: tuple[str, ...], line_no: int,
                       kind: str) -> tuple[int, ...]:
    text = text.strip()
    pairs = []
    if text and text != "-":
        for chunk in text.split():
            name, _, value = chunk.partition("=")
            error = f"trace line {line_no}: malformed {kind} assignment {chunk!r}"
            pairs.append((name, parse_int(value, error)))
    if tuple(name for name, _ in pairs) != names:
        raise ModelError(f"trace line {line_no}: {kind} variables must be "
                         f"exactly {', '.join(names) or '(none)'} in order")
    return tuple(value for _, value in pairs)


def verify_trace(text: str, model: ModelDef) -> list[str]:
    """Re-parse a rendered trace and replay it from scratch; empty = valid."""
    try:
        headers, prefix, cycle = parse_trace(text, model)
        env = parse_params_binding(headers["params"], model)
        negated = negate_to_nnf(combined_formula(
            model, headers["spec"], headers["fairness"] == "on"))
        inst = Instance(model, env, symmetry=headers["symmetry"] == "on")
        ap_by_render = {ap.render(): ap for ap in formula_aps(negated)}
        ap_truth = []
        for i, (_, rendered) in enumerate(prefix + cycle):
            unknown = sorted(rendered - ap_by_render.keys())
            if unknown:
                raise ModelError(f"state {i}: unknown propositions "
                                 + ", ".join(unknown))
            ap_truth.append(frozenset(ap_by_render[s] for s in rendered))
        lasso = Lasso([state for state, _ in prefix],
                      [state for state, _ in cycle], ap_truth)
        return replay_lasso(inst, lasso, negated)
    except ModelError as exc:
        return [str(exc)]
