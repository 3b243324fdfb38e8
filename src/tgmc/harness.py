"""Builtin models, single-case running, manifest-driven verdict tables, and
counterexample trace rendering/verification.

A manifest is a CSV with columns ``model,params,spec,expected,tier``:
``expected`` ∈ {holds, violated, skip} and ``tier`` ∈ {required, extended,
skip, unmodeled}.  Rows whose expected verdict or tier says skip/unmodeled are
echoed in the output without being run.  Result CSVs append the columns
``verdict,match,states_stored,transitions,elapsed_ms`` (timing deliberately
last, so two runs of one manifest differ at most in the final column).
"""

from __future__ import annotations

import csv
import multiprocessing
from dataclasses import dataclass, field
from importlib import resources

from .checker import (DEFAULT_MAX_PRODUCT_STATES, Lasso, check_spec,
                      combined_formula, replay_lasso)
from .core import ModelError, ParamEnv, parse_int
from .dsl import ModelDef, parse_model, parse_params_binding
from .kripke import EngineState, Instance
from .ltl import formula_aps, negate_to_nnf

BUILTIN_NAMES = ("byz", "omit", "symm", "clean")
EXPECTED_VALUES = ("holds", "violated", "skip")
TIER_VALUES = ("required", "extended", "skip", "unmodeled")
MANIFEST_COLUMNS = ("model", "params", "spec", "expected", "tier")
RESULT_COLUMNS = MANIFEST_COLUMNS + ("verdict", "match", "states_stored",
                                     "transitions", "elapsed_ms")

_builtin_cache: dict[str, ModelDef] = {}


def load_builtin(name: str) -> ModelDef:
    """The four models shipped with the package, parsed once and cached."""
    if name not in BUILTIN_NAMES:
        raise ModelError(f"unknown builtin model {name!r} "
                         f"(available: {', '.join(BUILTIN_NAMES)})")
    model = _builtin_cache.get(name)
    if model is None:
        path = resources.files("tgmc") / "models" / f"{name}.tg"
        model = parse_model(path.read_text(encoding="utf-8"))
        _builtin_cache[name] = model
    return model


def resolve_model(ref: str) -> ModelDef:
    """A model reference is ``builtin:NAME``, a bare builtin name, or a path."""
    if ref.startswith("builtin:"):
        return load_builtin(ref[len("builtin:"):])
    if ref in BUILTIN_NAMES:
        return load_builtin(ref)
    try:
        with open(ref, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelError(f"cannot read model {ref!r}: {exc}") from None
    return parse_model(text)


# ---------------------------------------------------------------------------
# Cases and records.

@dataclass(frozen=True)
class CaseSpec:
    model: str
    params: str
    spec: str
    expected: str   # holds | violated | skip
    tier: str       # required | extended | skip | unmodeled


@dataclass
class RunRecord:
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
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                return []
            header = [name.strip() for name in reader.fieldnames]
            if header != list(MANIFEST_COLUMNS):
                raise ModelError(
                    f"manifest {path}: header must be "
                    f"{','.join(MANIFEST_COLUMNS)}, got {','.join(header)}")
            cases = []
            for row_no, row in enumerate(reader, start=2):
                cases.append(_parse_manifest_row(path, row_no, row))
    except OSError as exc:
        raise ModelError(f"cannot read manifest {path!r}: {exc}") from None
    return cases


def _parse_manifest_row(path: str, row_no: int, row: dict) -> CaseSpec:
    def cell(column: str) -> str:
        value = (row.get(column) or "").strip()
        if not value:
            raise ModelError(f"manifest {path} row {row_no}: empty {column!r}")
        return value

    expected = cell("expected")
    if expected not in EXPECTED_VALUES:
        raise ModelError(f"manifest {path} row {row_no}: expected must be one "
                         f"of {', '.join(EXPECTED_VALUES)}, got {expected!r}")
    tier = cell("tier")
    if tier not in TIER_VALUES:
        raise ModelError(f"manifest {path} row {row_no}: tier must be one of "
                         f"{', '.join(TIER_VALUES)}, got {tier!r}")
    return CaseSpec(model=cell("model"), params=cell("params"),
                    spec=cell("spec"), expected=expected, tier=tier)


def _run_case_packed(args) -> RunRecord:
    case, symmetry, max_states = args
    return run_case(case, symmetry=symmetry, max_states=max_states)


def run_manifest(path: str, jobs: int = 1,
                 max_states: int = DEFAULT_MAX_PRODUCT_STATES,
                 symmetry: bool = True) -> list[RunRecord]:
    """Run every case of a manifest in up to ``jobs`` worker processes (no
    more than there are cases); results come back in manifest order."""
    cases = read_manifest(path)
    work = [(case, symmetry, max_states) for case in cases]
    workers = min(jobs, len(work))
    if workers > 1:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        with ctx.Pool(processes=workers) as pool:
            return pool.map(_run_case_packed, work)
    return [_run_case_packed(item) for item in work]


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
# Trace rendering and verification.
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
# Every rendered trace re-parses (verify_trace), and verification replays the
# lasso against a freshly built instance.

TRACE_MAGIC = "tgmc-trace 1"


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
    lines = [TRACE_MAGIC, f"model: {model.name}",
             "params: " + ", ".join(f"{name}={env[name]}"
                                    for name in model.params),
             f"spec: {spec_name}",
             f"fairness: {'on' if fairness else 'off'}",
             f"symmetry: {'on' if symmetry else 'off'}"]
    position = 0
    for section, states in (("prefix", lasso.prefix), ("cycle", lasso.cycle)):
        lines.append(f"{section}:")
        for state in states:
            aps = lasso.ap_truth[position]
            ap_part = ", ".join(sorted(ap.render() for ap in aps)) or "-"
            lines.append(f"  {position}: {render_state(state, model)} | {ap_part}")
            position += 1
    return "\n".join(lines) + "\n"


@dataclass
class TraceData:
    model_name: str
    params: str | None
    spec: str | None
    fairness: bool
    symmetry: bool
    prefix: list[EngineState] = field(default_factory=list)
    cycle: list[EngineState] = field(default_factory=list)
    ap_strings: list[set[str]] = field(default_factory=list)


def parse_trace(text: str, model: ModelDef) -> TraceData:
    lines = text.splitlines()
    if not lines or lines[0].strip() != TRACE_MAGIC:
        raise ModelError(f"trace line 1: expected header {TRACE_MAGIC!r}")
    data = TraceData(model_name="", params=None, spec=None,
                     fairness=True, symmetry=True)
    section: str | None = None
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if section is None or not line.startswith("  "):
            key, sep, value = stripped.partition(":")
            if not sep:
                raise ModelError(f"trace line {line_no}: expected 'key: value'")
            key, value = key.strip(), value.strip()
            if key == "model":
                data.model_name = value
            elif key == "params":
                data.params = value
            elif key == "spec":
                data.spec = value
            elif key in ("fairness", "symmetry"):
                if value not in ("on", "off"):
                    raise ModelError(f"trace line {line_no}: {key} must be "
                                     f"'on' or 'off', got {value!r}")
                setattr(data, key, value == "on")
            elif key in ("prefix", "cycle"):
                section = key
            else:
                raise ModelError(f"trace line {line_no}: unknown header {key!r}")
            continue
        position = len(data.prefix) + len(data.cycle)
        state, aps = _parse_state_line(stripped, model, line_no, position)
        getattr(data, section).append(state)
        data.ap_strings.append(aps)
    return data


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
            status_idx = model.statuses.index(name)
            if paren:
                if not inner.endswith(")"):
                    raise ModelError(f"trace line {line_no}: malformed process "
                                     f"entry {chunk!r}")
                local_values = _parse_assignments(
                    inner[:-1].replace(",", " "), model.locals, line_no, "local")
            else:
                local_values = ()
            procs.append((status_idx, local_values))
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
        data = parse_trace(text, model)
    except ModelError as exc:
        return [str(exc)]
    problems = []
    if data.model_name != model.name:
        problems.append(f"trace is for model {data.model_name!r}, "
                        f"not {model.name!r}")
    if data.params is None:
        problems.append("trace lacks a params header; cannot rebuild instance")
    if data.spec is None:
        problems.append("trace lacks a spec header; cannot rebuild formula")
    if problems:
        return problems
    try:
        env = parse_params_binding(data.params, model)
        target = combined_formula(model, data.spec, data.fairness)
        negated = negate_to_nnf(target)
        inst = Instance(model, env, symmetry=data.symmetry)
    except ModelError as exc:
        return [str(exc)]
    ap_by_render = {ap.render(): ap for ap in formula_aps(negated)}
    ap_truth = []
    for i, rendered in enumerate(data.ap_strings):
        unknown = sorted(rendered - ap_by_render.keys())
        if unknown:
            problems.append(f"state {i}: unknown propositions "
                            + ", ".join(unknown))
            return problems
        ap_truth.append(frozenset(ap_by_render[s] for s in rendered))
    lasso = Lasso(data.prefix, data.cycle, ap_truth)
    return replay_lasso(inst, lasso, negated)
