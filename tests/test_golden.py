"""The engine's output, pinned.

204 checks: the runnable rows of the three shipped manifests with symmetry
reduction, then the omit, symm and clean rows of ``table1.csv`` without it.
Each must reproduce the status, the three counts and a digest of the
counterexample recorded in ``data/golden_checks.csv``, and give the verdict
its manifest expects.

The recorded rows come from this file run as a script; regenerate them only
for a change that means to alter counts or counterexamples:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/test_golden.py \\
        > tests/data/golden_checks.csv
"""

import csv
import hashlib
import sys
from importlib import resources
from pathlib import Path

from tgmc.checker import check_spec
from tgmc.dsl import parse_params_binding
from tgmc.harness import load_builtin, read_manifest

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_checks.csv"
COLUMNS = ("model", "params", "spec", "symmetry", "status", "product_states",
           "kripke_states", "transitions", "lasso_sha256")


def manifest(name: str):
    return read_manifest(str(resources.files("tgmc") / "tables" / name))


def golden_cases():
    """(case, symmetry) pairs, in the recorded order."""
    cases = []
    for name in ("table1.csv", "appendix_required.csv", "appendix_extended.csv"):
        cases += [(case, True) for case in manifest(name)
                  if case.expected != "skip"
                  and case.tier not in ("skip", "unmodeled")]
    cases += [(case, False) for case in manifest("table1.csv")
              if case.model != "byz"]
    return cases


def check_row(case, symmetry: bool) -> dict[str, str]:
    model = load_builtin(case.model)
    env = parse_params_binding(case.params, model)
    verdict = check_spec(model, env, case.spec, symmetry=symmetry)
    lasso = verdict.counterexample
    digest = "" if lasso is None else hashlib.sha256(repr((
        lasso.prefix, lasso.cycle,
        [sorted(ap.render() for ap in truth) for truth in lasso.ap_truth],
    )).encode()).hexdigest()
    values = (case.model, case.params, case.spec, "on" if symmetry else "off",
              verdict.status, verdict.product_states, verdict.kripke_states,
              verdict.transitions, digest)
    return dict(zip(COLUMNS, map(str, values)))


def test_checks_reproduce_recorded_verdicts_counts_and_traces():
    with open(GOLDEN, encoding="utf-8", newline="") as fh:
        recorded = list(csv.DictReader(fh))
    cases = golden_cases()
    assert len(cases) == len(recorded) == 204
    differ, unexpected = [], []
    for (case, symmetry), want in zip(cases, recorded):
        got = check_row(case, symmetry)
        if got != want:
            differ.append((want, got))
        if got["status"] != case.expected:
            unexpected.append((case, symmetry, got["status"]))
    assert not differ, differ[:3]
    assert not unexpected, unexpected


if __name__ == "__main__":
    writer = csv.DictWriter(sys.stdout, COLUMNS, lineterminator="\n")
    writer.writeheader()
    for case, symmetry in golden_cases():
        writer.writerow(check_row(case, symmetry))
