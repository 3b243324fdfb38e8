"""Command-line interface.

Subcommands: ``check`` (one model/params/spec), ``bench`` (reproduce a
manifest of expected verdicts), ``paths`` (list a model's step paths).
Exit codes: 0 holds / all match, 1 violated / mismatch, 2 usage, model or
file error, 3 resource cap reached.  A reader that closes stdout early (as
``| head`` does) cuts the output short but leaves the exit code as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .checker import DEFAULT_MAX_PRODUCT_STATES, check_spec
from .cfa import enumerate_paths
from .core import ModelError, check_resilience, parse_int
from .dsl import parse_params_binding
from .harness import (BUILTIN_NAMES, RunRecord, read_text, render_state,
                      render_trace, resolve_model, run_manifest, summarize,
                      verify_trace, write_records_csv)
from .ltl import render_formula

EXIT_OK, EXIT_VIOLATED, EXIT_USAGE, EXIT_CAP = 0, 1, 2, 3
_EXIT_FOR_STATUS = {"holds": EXIT_OK, "violated": EXIT_VIOLATED,
                    "inconclusive": EXIT_CAP}


def exit_code_for(records: list[RunRecord]) -> int:
    """A mismatch dominates an inconclusive run, which dominates success."""
    if any(r.match is False for r in records):
        return EXIT_VIOLATED
    if any(r.verdict == "inconclusive" for r in records):
        return EXIT_CAP
    return EXIT_OK


@contextlib.contextmanager
def _stdout_may_close():
    """Stop writing quietly if stdout's reader has gone."""
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout once more at exit; point it at
        # devnull so that flush has nothing to complain about.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _at_least_one(text: str) -> int:
    """An integer option of at least 1, in the integer grammar of
    ``--params``, manifests and traces."""
    try:
        value = parse_int(text, f"invalid int value: {text!r}")
    except ModelError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgmc",
        description="Explicit-state checker for threshold-guarded "
                    "fault-tolerant broadcast models.")
    sub = parser.add_subparsers(dest="command", required=True)
    model_help = ("model file path or builtin:NAME "
                  f"(builtins: {', '.join(BUILTIN_NAMES)})")
    # The options of every check, shared by `check` and `bench`.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-states", type=_at_least_one,
                        default=DEFAULT_MAX_PRODUCT_STATES,
                        help="product-state cap per check before giving up "
                             "as inconclusive (default %(default)s)")
    common.add_argument("--no-symmetry", action="store_true",
                        help="disable symmetry reduction")

    check = sub.add_parser("check", parents=[common],
                           help="check one spec of one model instance")
    check.add_argument("--model", required=True, help=model_help)
    check.add_argument("--params", help='parameter binding, e.g. "n=7,t=2,f=2" '
                                        "(omit for a model without parameters)")
    check.add_argument("--spec", help="spec name declared in the model")
    check.add_argument("--no-fairness", action="store_true",
                       help="ignore the spec's `unless` clause")
    check.add_argument("--trace", metavar="FILE",
                       help="write the counterexample trace here if violated")
    check.add_argument("--verify-trace", metavar="FILE",
                       help="instead of checking, replay a previously "
                            "written trace file against the model")
    check.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default %(default)s)")

    bench = sub.add_parser("bench", parents=[common],
                           help="run a manifest of expected verdicts")
    bench.add_argument("--manifest", required=True,
                       help="CSV with columns model,params,spec,expected,tier")
    bench.add_argument("--jobs", type=_at_least_one, default=1,
                       help="worker processes (default 1)")
    bench.add_argument("--out", metavar="CSV",
                       help="write per-case results here (default: stdout)")

    paths = sub.add_parser("paths", help="list a model's step paths")
    paths.add_argument("--model", required=True, help=model_help)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_paths(args)
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _cmd_check(args) -> int:
    model = resolve_model(args.model)

    if args.verify_trace:
        problems = verify_trace(read_text(args.verify_trace, "trace"), model)
        if problems:
            for problem in problems:
                print(f"trace invalid: {problem}", file=sys.stderr)
            return EXIT_VIOLATED
        with _stdout_may_close():
            print("trace valid: replays and witnesses the violation")
        return EXIT_OK

    if not args.spec:
        raise ModelError("check requires --spec (unless --verify-trace is given)")
    params = args.params or ""
    env = parse_params_binding(params, model)
    if not check_resilience(model.resilience, env):
        print(f"note: parameters violate the resilience condition "
              f"({model.resilience.render()}); checking anyway",
              file=sys.stderr)
    fairness, symmetry = not args.no_fairness, not args.no_symmetry
    verdict = check_spec(model, env, args.spec, fairness=fairness,
                         symmetry=symmetry, max_states=args.max_states)

    trace_text = None
    if verdict.counterexample is not None:
        trace_text = render_trace(verdict.counterexample, model, env=env,
                                  spec_name=args.spec, fairness=fairness,
                                  symmetry=symmetry)
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(trace_text)

    code = _EXIT_FOR_STATUS[verdict.status]
    with _stdout_may_close():
        if args.format == "json":
            record = {
                "model": model.name,
                "params": params,
                "spec": args.spec,
                "fairness": fairness,
                "symmetry": symmetry,
                "formula": render_formula(verdict.formula),
                "verdict": verdict.status,
                "states_stored": verdict.product_states,
                "kripke_states": verdict.kripke_states,
                "transitions": verdict.transitions,
                "elapsed_ms": verdict.elapsed_ms,
            }
            if verdict.counterexample is not None:
                lasso = verdict.counterexample
                record["trace"] = {
                    "prefix": [render_state(s, model) for s in lasso.prefix],
                    "cycle": [render_state(s, model) for s in lasso.cycle],
                }
            print(json.dumps(record, indent=2))
        else:
            print(f"model {model.name}  spec {args.spec}  params {params}  "
                  f"fairness {'on' if fairness else 'off'}  "
                  f"symmetry {'on' if symmetry else 'off'}")
            print(f"checked: {render_formula(verdict.formula)}")
            print(f"verdict: {verdict.status}")
            print(f"stored {verdict.product_states} product states "
                  f"({verdict.kripke_states} system states), "
                  f"{verdict.transitions} transitions, {verdict.elapsed_ms} ms")
            if trace_text is not None:
                if args.trace:
                    print(f"counterexample written to {args.trace}")
                print("counterexample:")
                print(trace_text, end="")
    return code


def _cmd_bench(args) -> int:
    # Opening --out empties it, so it must not be the manifest.
    if args.out:
        try:
            same = os.path.samefile(args.out, args.manifest)
        except OSError:     # one of them does not exist: they differ
            same = False
        if same:
            raise ModelError(f"--out {args.out!r} is the manifest file")
    # Open --out first, so that a bad path fails before any check runs.
    with (open(args.out, "w", encoding="utf-8", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        records = run_manifest(args.manifest, jobs=args.jobs,
                               max_states=args.max_states,
                               symmetry=not args.no_symmetry)
        with _stdout_may_close():
            write_records_csv(records, out)
    with _stdout_may_close():
        print(summarize(records), file=sys.stdout if args.out else sys.stderr)
    return exit_code_for(records)


def _cmd_paths(args) -> int:
    model = resolve_model(args.model)
    paths = enumerate_paths(model.cfa)
    with _stdout_may_close():
        print(f"model {model.name}: {len(paths)} step paths")
        for i, ops in enumerate(paths, start=1):
            print(f"  {i}: " + "; ".join(op.render() for op in ops))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
