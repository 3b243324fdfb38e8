"""Tests of the benchmark's own checks.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

import dataclasses
import json

import pytest

from workloads import ROOT, Workload, import_tgmc

tgmc = import_tgmc()

import run  # noqa: E402  (needs tgmc on the path first)
import verify  # noqa: E402

# A small violated check of table1.csv.
CASE = tgmc.CaseSpec("omit", "n=5,t=2,f=3", "corr", "violated", "required")


@pytest.fixture(scope="module")
def found():
    """(model, env, lasso, negated) of CASE's counterexample."""
    model = tgmc.load_builtin(CASE.model)
    env = verify.parse_params(CASE.params)
    verdict = tgmc.check_spec(model, env, CASE.spec)
    assert verdict.status == "violated"
    negated = tgmc.negate_to_nnf(tgmc.combined_formula(model, CASE.spec, True))
    return model, env, verdict.counterexample, negated


def test_replay_accepts_the_counterexample_found(found):
    assert verify.replay_problems(*found) == []


def test_replay_rejects_a_lasso_with_one_state_altered(found):
    model, env, lasso, negated = found
    states = lasso.states()
    at = len(states) // 2
    procs, shareds = states[at]
    altered = (procs, (shareds[0] + 1,) + shareds[1:])
    states = states[:at] + [altered] + states[at + 1:]
    split = len(lasso.prefix)
    bad = tgmc.Lasso(states[:split], states[split:], lasso.ap_truth)
    problems = verify.replay_problems(model, env, bad, negated)
    assert any("is not the move of one process" in p for p in problems)


def test_replay_rejects_a_broken_wrap_edge(found):
    model, env, lasso, negated = found
    states = lasso.states()
    # Shared counters never decrease, so no state with a nonzero counter
    # steps back to the initial state, whose counters are all zero.
    end = next(i for i, (_, shareds) in enumerate(states) if any(shareds))
    bad = tgmc.Lasso([], states[:end + 1], lasso.ap_truth[:end + 1])
    problems = verify.replay_problems(model, env, bad, negated)
    assert "the wrap edge is not the move of one process" in problems
    assert not any(p.startswith("edge ") for p in problems)


def test_replay_rejects_wrong_recorded_propositions(found):
    model, env, lasso, negated = found
    truth = [frozenset()] * len(lasso.ap_truth)
    bad = tgmc.Lasso(lasso.prefix, lasso.cycle, truth)
    problems = verify.replay_problems(model, env, bad, negated)
    assert "the recorded propositions disagree with evaluation" in problems


def test_replay_without_symmetry_rejects_processes_that_swap_places():
    model = tgmc.load_builtin(CASE.model)
    env = verify.parse_params(CASE.params)
    verdict = tgmc.check_spec(model, env, CASE.spec, symmetry=False)
    negated = tgmc.negate_to_nnf(tgmc.combined_formula(model, CASE.spec, True))
    lasso = verdict.counterexample
    assert verify.replay_problems(model, env, lasso, negated, symmetry=False) == []
    # Swap the first two processes of every state from some point on: each
    # state keeps its multiset of processes, but the edge into that point
    # changes two positions at once.
    def swap(state):
        procs, shareds = state
        return (procs[1], procs[0]) + procs[2:], shareds

    states = lasso.states()
    at = next(i for i in range(1, len(lasso.prefix))
              if sum(a != b for a, b in zip(states[i - 1][0], swap(states[i])[0])) > 1)
    states = states[:at] + [swap(state) for state in states[at:]]
    split = len(lasso.prefix)
    bad = tgmc.Lasso(states[:split], states[split:], lasso.ap_truth)
    assert verify.replay_problems(model, env, bad, negated, symmetry=False) == \
        [f"edge {at - 1} is not the move of one process"]
    # Canonical states are compared as multisets, which cannot see the swap.
    assert verify.replay_problems(model, env, bad, negated, symmetry=True) == []


def _small_workload(tmp_path, monkeypatch, rows):
    manifest = tmp_path / "small.csv"
    manifest.write_text("model,params,spec,expected,tier\n" + "".join(rows))
    workload = Workload("small", (manifest,), symmetry=True)
    monkeypatch.setitem(run.WORKLOADS, "small", workload)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    return workload


def test_a_flipped_expected_verdict_is_counted_as_failed(tmp_path, monkeypatch):
    _small_workload(tmp_path, monkeypatch, [
        'clean,"n=3,t=2",unforg,holds,required\n',
        'clean,"n=3,t=2",corr,violated,required\n',   # it holds
    ])
    result = run.run_workload("small", seed=0, seconds=0, trace=False)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["correct"] is True


def test_byz_condition_overrules_a_manifest_that_disagrees():
    workload = Workload("ladder", (), symmetry=True, byz_condition=True)
    case = dataclasses.replace(CASE, model="byz", params="n=6,t=2,f=2",
                               spec="relay", expected="holds")
    record = tgmc.RunRecord(case=case, verdict="holds", match=True)
    assert "n > 3t" in verify.Verifier(workload).failure(record)


def test_metrics_are_those_benchmark_json_declares(tmp_path, monkeypatch):
    _small_workload(tmp_path, monkeypatch, [
        'omit,"n=5,t=2,f=3",unforg,holds,required\n',
        'omit,"n=5,t=2,f=3",corr,violated,required\n',
    ])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload("small", seed=0, seconds=0, trace=trace)
        assert (result["attempted"], result["failed"]) == (2, 0)
        assert {m["name"]: m["unit"] for m in declared[kind]} == \
            {name: m["unit"] for name, m in result["metrics"].items()}
    assert result["metrics"]["checker.replays"]["value"] == 1
