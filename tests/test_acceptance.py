"""End-to-end acceptance suite.

One test per acceptance concern: expectation-table reproduction, run-to-run
determinism, symmetry-reduction soundness, cross-validation of the formula
pipeline / emptiness search / step relation against independent oracles,
structural counts with counterexample replay, and fairness necessity.
Each test reports a single pass/fail line under ``pytest -v``.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from importlib import resources

from oracles import (accepts_lasso, brute_eval, naive_step_successors,
                     nx_step_paths, random_digraph, random_nnf_formula,
                     random_valuation, scc_accepting_lasso_exists, source_env)
from tgmc.buchi import build_buchi
from tgmc.cfa import enumerate_paths, step_successors
from tgmc.checker import check_spec, nested_dfs, replay_lasso
from tgmc.core import LinearForm
from tgmc.dsl import parse_params_binding
from tgmc.harness import (BUILTIN_NAMES, load_builtin, read_manifest,
                          run_manifest)
from tgmc.kripke import Instance
from tgmc.ltl import (LessProp, StatusProp, eval_formula_on_lasso,
                      formula_aps, negate_to_nnf, render_formula)


def _table(name: str) -> str:
    return str(resources.files("tgmc") / "tables" / name)


def _param(params: str, name: str) -> int:
    for part in params.split(","):
        key, _, value = part.strip().partition("=")
        if key.strip() == name:
            return int(value)
    raise KeyError(name)


def _distinct_cases(*table_names):
    """Union of manifest rows, deduplicated by (model, params, spec)."""
    seen = {}
    for table_name in table_names:
        for case in read_manifest(_table(table_name)):
            seen.setdefault((case.model, case.params, case.spec), case)
    return list(seen.values())


def _mismatches(records):
    return [(r.case.model, r.case.params, r.case.spec, r.case.expected,
             r.verdict, r.detail) for r in records if r.match is False]


# ---------------------------------------------------------------------------
# Expectation tables.

def test_main_table_verdicts_match_published_results():
    started = time.monotonic()
    records = run_manifest(_table("table1.csv"), jobs=1)
    elapsed = time.monotonic() - started
    assert len(records) == 21
    assert all(r.match is True for r in records), _mismatches(records)
    assert elapsed < 600


def test_appendix_verdicts_match_published_results():
    required = run_manifest(_table("appendix_required.csv"), jobs=1)
    assert len(required) == 153
    assert all(r.match is True for r in required), _mismatches(required)

    extended = run_manifest(_table("appendix_extended.csv"), jobs=1)
    ran = [r for r in extended if r.verdict != "skip"]
    skipped = [r for r in extended if r.verdict == "skip"]
    assert len(ran) == 15 and len(skipped) == 42
    assert all(r.match is True for r in ran), _mismatches(extended)


# ---------------------------------------------------------------------------
# Determinism: identical verdicts, state counts, and traces across runs.

def _run_cli(argv, hashseed, cwd):
    return subprocess.run([sys.executable, "-m", "tgmc.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(source_env(), PYTHONHASHSEED=hashseed),
                          cwd=str(cwd), check=False)


def test_results_identical_across_hash_seeds(tmp_path):
    outputs = []
    for seed in ("0", "4242"):
        bench_csv = tmp_path / f"bench-{seed}.csv"
        trace_file = tmp_path / f"trace-{seed}.txt"
        bench = _run_cli(["bench", "--manifest", _table("table1.csv"),
                          "--out", str(bench_csv)], seed, tmp_path)
        assert bench.returncode == 0, bench.stderr
        check = _run_cli(["check", "--model", "builtin:byz",
                          "--params", "n=7,t=3,f=2", "--spec", "relay",
                          "--format", "json", "--trace", str(trace_file)],
                         seed, tmp_path)
        assert check.returncode == 1, check.stderr
        record = json.loads(check.stdout)
        record.pop("elapsed_ms")
        rows = [line.rsplit(",", 1)[0]      # drop the elapsed_ms column
                for line in bench_csv.read_text().splitlines()]
        outputs.append((rows, record, trace_file.read_bytes()))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Symmetry reduction must not change any verdict.

def test_symmetry_reduction_preserves_verdicts():
    highlighted = {(c.model, c.params, c.spec)
                   for c in read_manifest(_table("table1.csv"))}
    cases = [case for case
             in _distinct_cases("table1.csv", "appendix_required.csv")
             if _param(case.params, "n") <= 5
             or (case.model, case.params, case.spec) in highlighted]
    assert len(cases) == 120
    # All specs of one instance run back to back per symmetry setting, so
    # check_spec's instance cache builds each graph once per setting.
    by_instance = {}
    for case in cases:
        by_instance.setdefault((case.model, case.params), []).append(case)
    assert len(by_instance) == 40
    for group in by_instance.values():
        model = load_builtin(group[0].model)
        env = parse_params_binding(group[0].params, model)
        verdicts = {symmetry: [check_spec(model, env, case.spec,
                                          fairness=model.spec(case.spec).unless
                                          is not None, symmetry=symmetry)
                               for case in group]
                    for symmetry in (True, False)}
        for case, reduced, full in zip(group, verdicts[True], verdicts[False]):
            assert reduced.status == full.status == case.expected, \
                (case, reduced.status, full.status)
            if case.expected == "holds":    # full exploration: counts comparable
                assert reduced.product_states <= full.product_states


# ---------------------------------------------------------------------------
# Formula pipeline vs brute force on random formulas and lasso words.

ATOM_POOL = (StatusProp("some", "AC", True), StatusProp("all", "V1", True),
             LessProp("rcvd", LinearForm(), "nsnt"))


def _lasso_words(formula, rng, samples_per_stratum=40):
    """Lasso words with prefix 0..3 and cycle 1..3 over the formula's own
    alphabet: exhaustive whenever the formula has at most two distinct
    propositions (or the word is short), sampled per length stratum beyond
    that, where exhaustion would take ~3*10^5 words per formula."""
    atoms = formula_aps(formula)
    alphabet = [frozenset(combo) for r in range(len(atoms) + 1)
                for combo in itertools.combinations(atoms, r)]
    words = []
    for p in range(0, 4):
        for c in range(1, 4):
            if len(atoms) <= 2 or p + c <= 3:
                for letters in itertools.product(alphabet, repeat=p + c):
                    words.append((list(letters[:p]), list(letters[p:])))
            else:
                for _ in range(samples_per_stratum):
                    letters = [rng.choice(alphabet) for _ in range(p + c)]
                    words.append((letters[:p], letters[p:]))
    return words


def test_formula_pipeline_agrees_with_brute_force():
    rng = random.Random("formula-agreement")
    formulas = 0
    words = 0
    for _ in range(500):
        pool = ATOM_POOL[:rng.randrange(1, 4)]
        formula = random_nnf_formula(rng, rng.randrange(0, 4), pool)
        complement = negate_to_nnf(formula)
        automaton = build_buchi(formula)
        formulas += 1
        for prefix, cycle in _lasso_words(formula, rng):
            want = brute_eval(formula, prefix, cycle)
            ours = eval_formula_on_lasso(formula, prefix, cycle)
            flipped = brute_eval(complement, prefix, cycle)
            accepted = accepts_lasso(automaton, prefix, cycle)
            assert ours == want and flipped != want and accepted == want, \
                (render_formula(formula), prefix, cycle, want, ours,
                 flipped, accepted)
            words += 1
    assert formulas == 500
    assert words >= 500_000


# ---------------------------------------------------------------------------
# Emptiness search vs SCC-based oracle on random graphs.

def test_emptiness_search_agrees_with_scc_oracle():
    rng = random.Random("emptiness-acceptance")
    found = 0
    for _ in range(250):
        n, succ, initial, accepting = random_digraph(rng, 200)
        result, _ = nested_dfs(initial, lambda v: succ[v],
                               lambda v: v in accepting)
        expected = scc_accepting_lasso_exists(initial, lambda v: succ[v],
                                              lambda v: v in accepting)
        assert (result is not None) == expected
        if result is not None:
            found += 1
            prefix, cycle = result
            walk = prefix + cycle
            assert walk[0] in initial
            for here, there in zip(walk, walk[1:]):
                assert there in succ[here]
            assert cycle and cycle[0] in succ[cycle[-1]]
            assert any(v in accepting for v in cycle)
    assert 25 < found < 225        # both outcomes exercised in quantity


# ---------------------------------------------------------------------------
# Step relation vs naive path-by-path enumeration.

def test_step_relation_agrees_with_naive_enumeration():
    for name in BUILTIN_NAMES:
        model = load_builtin(name)
        rng = random.Random(f"acceptance-steps-{name}")
        for _ in range(1000):
            valuation = random_valuation(rng, model)
            assert step_successors(valuation, model.cfa) == \
                naive_step_successors(valuation, model.cfa), (name, valuation)


# ---------------------------------------------------------------------------
# Structural counts, and every reported counterexample must replay.

def test_structural_counts_and_counterexample_replay():
    byz = load_builtin("byz")
    paths = enumerate_paths(byz.cfa)
    oracle_paths = nx_step_paths(byz.cfa)
    assert len(paths) == 10 and len(oracle_paths) == 10
    assert set(paths) == set(oracle_paths)

    replayed = 0
    for case in _distinct_cases("table1.csv", "appendix_required.csv"):
        if case.expected != "violated":
            continue
        model = load_builtin(case.model)
        env = parse_params_binding(case.params, model)
        spec = model.spec(case.spec)
        fairness = spec.unless is not None
        verdict = check_spec(model, env, case.spec, fairness=fairness)
        assert verdict.status == "violated", case
        lasso = verdict.counterexample
        assert replay_lasso(Instance(model, env, symmetry=True), lasso,
                            verdict.negated) == [], case
        split = len(lasso.prefix)
        word_prefix = list(lasso.ap_truth[:split])
        word_cycle = list(lasso.ap_truth[split:])
        # word-level re-evaluation through the independent evaluator
        assert brute_eval(verdict.negated, word_prefix, word_cycle), case
        assert not brute_eval(verdict.formula, word_prefix, word_cycle), case
        if fairness:
            # the run must genuinely be fair: the unfairness escape clause
            # is false, i.e. its negation holds on the cycle
            not_psi = negate_to_nnf(model.unfairness_formula(spec.unless))
            assert eval_formula_on_lasso(not_psi, [], word_cycle), case
            assert brute_eval(not_psi, [], word_cycle), case
        if case.spec == "unforg":
            # safety violation: nobody ever proposed, yet the word reaches a
            # state where acceptance happened — a finite witness position
            nobody_proposed = StatusProp("all", "V1", False)
            nobody_accepted = StatusProp("all", "AC", False)
            word = word_prefix + word_cycle
            assert nobody_proposed in word[0], case
            assert any(nobody_accepted not in letter for letter in word), case
        replayed += 1
    assert replayed >= 20


# ---------------------------------------------------------------------------
# The fairness clause is what makes the liveness specs hold.

def test_fairness_clause_necessary_for_liveness():
    model = load_builtin("byz")
    env = parse_params_binding("n=7,t=2,f=2", model)
    inst = Instance(model, env, symmetry=True)
    for spec_name in ("corr", "relay"):
        fair = check_spec(model, env, spec_name, fairness=True)
        unfair = check_spec(model, env, spec_name, fairness=False)
        assert fair.status == "holds", (spec_name, fair.status)
        assert unfair.status == "violated", (spec_name, unfair.status)
        lasso = unfair.counterexample
        assert replay_lasso(Instance(model, env, symmetry=True), lasso,
                            unfair.negated) == []
        # the counterexample is exactly a starvation run: the unfairness
        # condition the fair check excludes holds on it
        psi = model.unfairness_formula(model.spec(spec_name).unless)
        aps = formula_aps(psi)
        letter = inst.compile_ap(aps)
        truth = [frozenset(ap for i, ap in enumerate(aps)
                           if letter(inst.encode(state)) >> i & 1)
                 for state in lasso.states()]
        split = len(lasso.prefix)
        assert eval_formula_on_lasso(psi, truth[:split], truth[split:])
        assert brute_eval(psi, truth[:split], truth[split:])
