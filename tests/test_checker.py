"""Product emptiness search, verdicts, replay validation."""

import importlib.util
import random
from collections import deque
from importlib import resources
from pathlib import Path

import pytest

import tgmc
from oracles import (eval_atomic_prop, random_digraph,
                     reference_initial_states, reference_successors,
                     scc_accepting_lasso_exists)
from tgmc import checker
from tgmc.buchi import build_buchi
from tgmc.checker import (DEFAULT_MAX_PRODUCT_STATES, Lasso, Product,
                          ResourceCapExceeded, Verdict, check_spec,
                          combined_formula, nested_dfs, replay_lasso)
from tgmc.core import LinearForm, ModelError
from tgmc.dsl import parse_model, parse_params_binding
from tgmc.harness import load_builtin, read_manifest
from tgmc.kripke import Instance
from tgmc.ltl import (Future, Globally, LessProp, Literal, Or, StatusProp,
                      negate_to_nnf, render_formula)


def run_nested(n, succ, initial, accepting):
    return nested_dfs(initial, lambda v: succ[v], lambda v: v in accepting)


def outcome(verdict):
    """What a verdict says, without its timing."""
    return (verdict.status, verdict.product_states, verdict.kripke_states,
            verdict.transitions, verdict.counterexample)


def validate_found(result, succ, initial, accepting):
    prefix, cycle = result
    assert cycle
    walk = prefix + cycle
    assert walk[0] in initial
    for here, there in zip(walk, walk[1:]):
        assert there in succ[here]
    assert cycle[0] in succ[cycle[-1]]
    assert any(v in accepting for v in cycle)


def test_nested_dfs_fixed_graphs():
    # Accepting self-loop.
    result, stored = run_nested(2, {0: (1,), 1: (1,)}, (0,), {1})
    validate_found(result, {0: (1,), 1: (1,)}, (0,), {1})
    assert stored == 2
    # Cycle exists but no accepting state on any cycle.
    result, stored = run_nested(3, {0: (1,), 1: (0, 2), 2: ()}, (0,), {2})
    assert result is None
    assert stored == 3
    # Accepting cycle behind a long stem.
    succ = {0: (1,), 1: (2,), 2: (3,), 3: (1,)}
    result, _ = run_nested(4, succ, (0,), {3})
    validate_found(result, succ, (0,), {3})
    # Unreachable accepting cycle.
    succ = {0: (), 5: (5,)}
    result, stored = run_nested(6, succ, (0,), {5})
    assert result is None
    assert stored == 1


def test_nested_dfs_respects_cap():
    succ = {i: (i + 1,) for i in range(100)}
    succ[100] = ()
    with pytest.raises(ResourceCapExceeded) as cap:
        nested_dfs((0,), lambda v: succ[v], lambda v: False, max_stored=10)
    assert cap.value.stored == 11


def test_nested_dfs_on_sparse_node_ids():
    # Colours are indexed by node: a far node grows the table, so does a
    # node equal to a power-of-two size, and a node past its end is not
    # stored.
    succ = {0: (1_000_003,), 1_000_003: (0, 1 << 21), 1 << 21: ()}
    result, stored = run_nested(0, succ, (0,), {1_000_003})
    validate_found(result, succ, (0,), {1_000_003})
    assert stored == 2
    result, stored = run_nested(0, succ, (1 << 21, 0), set())
    assert result is None and stored == 3


def test_nested_dfs_agrees_with_scc_oracle():
    rng = random.Random("emptiness")
    found_count = 0
    for _ in range(300):
        n, succ, initial, accepting = random_digraph(rng, 60)
        result, _ = run_nested(n, succ, initial, accepting)
        expected = scc_accepting_lasso_exists(initial, lambda v: succ[v],
                                              lambda v: v in accepting)
        assert (result is not None) == expected
        if result is not None:
            found_count += 1
            validate_found(result, succ, initial, accepting)
    assert found_count > 30          # both outcomes well represented
    assert found_count < 270


def test_product_structure_single_state_instance():
    # clean with n=1,t=1: the lone process accepts immediately (n-t=0), so
    # some(sv == AC) eventually holds on every path.
    model = load_builtin("clean")
    inst = Instance(model, {"n": 1, "t": 1})
    target = Future(Literal(StatusProp("some", "AC", True)))
    product = Product(inst, build_buchi(negate_to_nnf(target)))
    result, stored = nested_dfs(product.initial_nodes(), product.successors,
                                product.is_accepting)
    assert result is None
    assert product.kripke_state_count() >= 1
    assert stored >= 1

    # The negated target (G !some-AC) is itself violated by a run: search for
    # it directly and replay the counterexample.
    negated = negate_to_nnf(negate_to_nnf(target))
    product = Product(inst, build_buchi(negated))
    result, _ = nested_dfs(product.initial_nodes(), product.successors,
                           product.is_accepting)
    assert result is not None
    lasso = product.lasso(*result)
    assert len(lasso.ap_truth) == len(lasso.states())
    assert replay_lasso(inst, lasso, negated) == []


def test_product_counts_are_consistent():
    model = load_builtin("byz")
    inst = Instance(model, {"n": 4, "t": 1, "f": 1})
    spec = combined_formula(model, "relay", fairness=True)
    ba = build_buchi(negate_to_nnf(spec))
    product = Product(inst, ba)
    initial = product.initial_nodes()
    assert initial
    result, stored = nested_dfs(initial, product.successors, product.is_accepting)
    assert result is None
    assert stored <= product.kripke_state_count() * ba.n_states()
    assert product.kripke_state_count() <= stored


# ---------------------------------------------------------------------------
# The product against a naive product: the same graph, walked in tuple form
# by the reference successor relation, with every automaton successor's
# label tested by evaluating its propositions on the decoded state.

def assert_product_is_naive(product) -> None:
    """Expand every node the product reaches and compare it, in order, with
    the naive product; also the counts the product keeps."""
    inst, ba, nq = product.inst, product.ba, product.nq
    truths: dict = {}               # tuple-form state -> truth per ba.aps

    def entered(states, state) -> list[int]:
        """The automaton states among ``states`` whose literals all hold in
        the tuple-form ``state``, as product nodes of that state."""
        gid = inst.state_id(inst.encode(state))
        truth = truths.get(state)
        if truth is None:
            truth = truths[state] = [
                eval_atomic_prop(ap, state, inst.model, inst.env)
                for ap in ba.aps]
        out = []
        for q in states:
            need_true, need_false = ba.labels[q]
            if all(truth[i] == (need_true >> i & 1 == 1)
                   for i in range(len(truth)) if (need_true | need_false) >> i & 1):
                out.append(gid * nq + q)
        return out

    initial = product.initial_nodes()
    naive = []
    for state in reference_initial_states(inst):
        naive += entered(ba.initial, state)
    assert initial == naive
    seen, queue, moves, edges = set(initial), deque(initial), {}, 0
    while queue:
        node = queue.popleft()
        out = product.successors(node)
        gid, q = divmod(node, nq)
        naive = []
        for state in reference_successors(inst, inst.decode(inst.states[gid]),
                                          moves):
            naive += entered(ba.succ[q], state)
        assert out == naive, (node, out, naive)
        edges += len(out)
        for child in out:
            if child not in seen:
                seen.add(child)
                queue.append(child)
    assert product.transitions == edges
    # Every state the product met is labelled once: the initial states and
    # the successors of the expanded nodes.
    assert product.kripke_state_count() == len(truths)


def smallest_bindings() -> dict[str, str]:
    """Per builtin model, its binding with the fewest processes in the
    shipped manifests (the first such row)."""
    smallest: dict[str, tuple[int, str]] = {}
    for name in ("table1.csv", "appendix_required.csv", "appendix_extended.csv"):
        path = resources.files("tgmc") / "tables" / name
        for case in read_manifest(str(path)):
            if case.expected == "skip" or case.tier in ("skip", "unmodeled"):
                continue
            n = parse_params_binding(case.params, load_builtin(case.model))["n"]
            if case.model not in smallest or n < smallest[case.model][0]:
                smallest[case.model] = (n, case.params)
    return {model: params for model, (_, params) in smallest.items()}


@pytest.mark.parametrize("symmetry", [True, False])
@pytest.mark.parametrize("model_name", ["byz", "omit", "symm", "clean"])
def test_product_matches_the_naive_product(model_name, symmetry):
    model = load_builtin(model_name)
    params = smallest_bindings()[model_name]
    env = parse_params_binding(params, model)
    assert len(model.specs) == 3
    for spec in model.specs:
        for fairness in (True, False):
            formula = combined_formula(model, spec.name, fairness)
            inst = Instance(model, env, symmetry=symmetry)
            product = Product(inst, build_buchi(negate_to_nnf(formula)))
            assert_product_is_naive(product)


def wide_clean_model():
    """``clean`` with two specs over 20 distinct propositions
    some(rcvd + k < nsnt), k = 0..19."""
    source = (resources.files("tgmc") / "models" / "clean.tg").read_text(
        encoding="utf-8")
    props = ["some(rcvd < nsnt)"] + [f"some(rcvd + {k} < nsnt)"
                                     for k in range(1, 20)]
    source += (f"spec wide_any: G ({' || '.join(props)});\n"
               f"spec wide_all: F G ({' && '.join(props)});\n")
    return parse_model(source)


@pytest.mark.parametrize("spec, counts", [
    ("wide_any", (3, 5, 4)), ("wide_all", (2, 5, 42))])
def test_a_wide_alphabet(spec, counts):
    model = wide_clean_model()
    env = {"n": 4, "t": 1}
    formula = model.spec(spec).formula
    ba = build_buchi(negate_to_nnf(formula))
    assert len(ba.aps) == 20
    checker._instance.cache_clear()
    verdict = check_spec(model, env, spec)
    assert verdict.status == "violated"
    assert (verdict.product_states, verdict.kripke_states,
            verdict.transitions) == counts
    product = Product(Instance(model, env), ba)
    assert_product_is_naive(product)
    # One row entry per distinct letter seen, never one per possible letter.
    assert all(len(row) <= product.kripke_state_count()
               for row in product._moves)


def test_searches_share_the_instance_graph(monkeypatch):
    model = load_builtin("byz")
    env = {"n": 7, "t": 1, "f": 2}
    runs = [("relay", DEFAULT_MAX_PRODUCT_STATES),
            ("corr", DEFAULT_MAX_PRODUCT_STATES), ("corr", 500),
            ("corr", DEFAULT_MAX_PRODUCT_STATES)]
    expanded = []                   # (instance, state) per expansion
    successors = Instance.successors

    def counting_successors(inst, state):
        expanded.append((inst, state))
        return successors(inst, state)

    monkeypatch.setattr(Instance, "successors", counting_successors)
    checker._instance.cache_clear()
    shared, graphs = [], []
    for spec, cap in runs:
        before = len(expanded)
        shared.append(outcome(check_spec(model, env, spec, max_states=cap)))
        graphs.append({inst for inst, _ in expanded[before:]})
    # Every state is expanded at most once per instance graph.
    assert len(set(expanded)) == len(expanded)
    assert [status for status, *_ in shared] == [
        "violated", "violated", "inconclusive", "violated"]
    assert all(kripke_states > 0 for _, _, kripke_states, _, _ in shared)
    # The second corr check and the capped one reuse what the first two
    # built; the capped check frees the graph, so the next one rebuilds it.
    first = graphs[0]
    assert len(first) == 1 and graphs[1] == first
    assert graphs[2] == set()
    assert graphs[3] and not graphs[3] & first

    # Each check gives what it gives on a fresh instance.
    for (spec, cap), want in zip(runs, shared):
        checker._instance.cache_clear()
        assert outcome(check_spec(model, env, spec, max_states=cap)) == want


def test_the_benchmark_tracer_still_sees_every_layer():
    # bench/tracing.py patches checker and kripke names by hand; after a
    # rename its counters would read zero without failing.
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    checker._instance.cache_clear()
    tracer.install(tgmc)
    try:
        verdict = tgmc.harness.check_spec(load_builtin("byz"),
                                          {"n": 7, "t": 2, "f": 2}, "relay")
    finally:
        tracer.uninstall()
        checker._instance.cache_clear()
    assert verdict.status == "holds"
    metrics = tracer.layer_metrics()
    assert metrics["kripke.succ_calls"] > 0
    assert metrics["cfa.step_calls"] > 0
    assert metrics["checker.product_states"] == verdict.product_states


def test_combined_formula_shapes():
    model = load_builtin("byz")
    corr = model.spec("corr").formula
    unfair = model.unfairness_formula("inequity")
    with_fairness = combined_formula(model, "corr", fairness=True)
    assert isinstance(with_fairness, Or)
    assert with_fairness.items == (corr, unfair)
    assert combined_formula(model, "corr", fairness=False) == corr
    # unforg carries no unless clause: fairness setting is irrelevant.
    assert combined_formula(model, "unforg", fairness=True) == \
        model.spec("unforg").formula
    # Disjunctions are flattened, never nested.
    omit = load_builtin("omit")
    combined = combined_formula(omit, "corr", fairness=True)
    assert isinstance(combined, Or)
    assert all(not isinstance(item, Or) for item in combined.items)


def test_check_spec_verdicts_and_replay():
    model = load_builtin("clean")
    verdict = check_spec(model, {"n": 3, "t": 3}, "unforg")
    assert verdict.status == "violated"
    lasso = verdict.counterexample
    assert lasso is not None
    inst = Instance(model, {"n": 3, "t": 3})
    assert replay_lasso(inst, lasso, verdict.negated) == []

    verdict = check_spec(model, {"n": 3, "t": 2}, "unforg")
    assert verdict.status == "holds"
    assert verdict.counterexample is None
    assert verdict.product_states > 0
    assert verdict.transitions > 0


def test_check_spec_resource_cap():
    model = load_builtin("byz")
    env = {"n": 7, "t": 2, "f": 2}
    verdict = check_spec(model, env, "relay", max_states=50)
    assert verdict.status == "inconclusive"
    assert verdict.product_states > 50
    # The inconclusive verdict keeps what the search had built.
    assert 0 < verdict.kripke_states <= verdict.product_states
    assert verdict.transitions > 0
    # ... and frees the graph it built.
    assert checker._instance.cache_info().currsize == 0
    after = outcome(check_spec(model, env, "corr"))
    checker._instance.cache_clear()
    assert after == outcome(check_spec(model, env, "corr"))


def test_replay_rejects_corrupted_lassos():
    model = load_builtin("clean")
    verdict = check_spec(model, {"n": 3, "t": 3}, "unforg")
    lasso = verdict.counterexample
    inst = Instance(model, {"n": 3, "t": 3})

    # Swap in a non-successor state.
    broken = Lasso(prefix=list(lasso.prefix), cycle=list(lasso.cycle),
                   ap_truth=list(lasso.ap_truth))
    procs, shareds = broken.cycle[-1]
    foreign = (procs, tuple(v + 7 for v in shareds))
    broken.cycle[-1] = foreign
    assert replay_lasso(inst, broken, verdict.negated) != []

    # Break the recorded proposition sets.
    broken = Lasso(prefix=list(lasso.prefix), cycle=list(lasso.cycle),
                   ap_truth=[frozenset()] * len(lasso.ap_truth))
    assert any("proposition" in problem
               for problem in replay_lasso(inst, broken, verdict.negated))

    # A lasso that satisfies the *wrong* formula is rejected too.
    wrong = negate_to_nnf(verdict.negated)
    assert any("formula" in problem
               for problem in replay_lasso(inst, lasso, wrong))

    # Empty cycles are malformed.
    empty = Lasso(prefix=list(lasso.states()), cycle=[],
                  ap_truth=list(lasso.ap_truth))
    assert replay_lasso(inst, empty, verdict.negated) != []

    # A run must start in an initial state: drop the first prefix state.
    cut = Lasso(prefix=list(lasso.prefix[1:]), cycle=list(lasso.cycle),
                ap_truth=list(lasso.ap_truth[1:]))
    assert any("initial" in problem
               for problem in replay_lasso(inst, cut, verdict.negated))

    # The first state must have exactly the instance's processes.
    (procs, shareds), *rest = lasso.states()
    crowded = [(tuple(sorted(procs + procs[:1])), shareds)] + rest
    split = len(lasso.prefix)
    extra = Lasso(prefix=crowded[:split], cycle=crowded[split:],
                  ap_truth=list(lasso.ap_truth))
    assert any("initial" in problem
               for problem in replay_lasso(inst, extra, verdict.negated))
    # ... also when every state has an extra process: a problem, not an error.
    crowded = [(tuple(sorted(procs + procs[:1])), shareds)
               for procs, shareds in lasso.states()]
    extra = Lasso(prefix=crowded[:split], cycle=crowded[split:],
                  ap_truth=list(lasso.ap_truth))
    assert "position 0: first state is not an initial state" in \
        replay_lasso(inst, extra, verdict.negated)

    # Missing proposition sets are a disagreement, not a skipped check.
    unlabeled = Lasso(prefix=list(lasso.prefix), cycle=list(lasso.cycle),
                      ap_truth=[])
    assert replay_lasso(inst, unlabeled, verdict.negated) == [
        "recorded proposition sets disagree with direct evaluation"]


@pytest.mark.parametrize("poison", ["successors", "step_cache"])
def test_replay_checks_edges_against_the_reference_step_relation(poison):
    model = load_builtin("clean")
    env = {"n": 3, "t": 3}
    lasso = check_spec(model, env, "unforg").counterexample
    states = lasso.states()
    at = len(states) // 2
    procs, shareds = before = states[at - 1]
    # A state no process move reaches: the shared counters jump by 7.
    foreign = (procs, tuple(v + 7 for v in shareds))
    walk = states[:at] + [foreign] + states[at + 1:]
    split = len(lasso.prefix)
    bad = Lasso(walk[:split], walk[split:], list(lasso.ap_truth))
    inst = Instance(model, env)
    packed_before, packed_foreign = inst.encode(before), inst.encode(foreign)
    if poison == "successors":
        # The fast path claims the edge into the foreign state.
        real = inst.successors
        inst.successors = lambda state: (
            real(state) + [packed_foreign] if state == packed_before
            else real(state))
        assert packed_foreign in inst.successors(packed_before)
    else:
        # The step cache claims that the first process can make the jump.
        key = (inst._entry_id(procs[0]), inst._shareds_id(shareds))
        inst._step_cache[key] = (packed_foreign - packed_before,)
        assert packed_foreign in inst.successors(packed_before)
    problems = replay_lasso(inst, bad, negate_to_nnf(model.spec("unforg").formula))
    assert f"position {at - 1}: recorded transition is not a successor" in problems


def test_replay_labels_states_by_the_reference_semantics(monkeypatch):
    """A search whose letter function lies finds a lasso in a healthy
    instance; replay evaluates the propositions itself and rejects it."""
    real = Instance.compile_ap

    def poisoned(inst, aps):
        # Every letter claims some(sv == AC), never all(sv == AC), and no
        # LessProp.
        set_bits = clear_bits = 0
        for i, ap in enumerate(aps):
            if isinstance(ap, StatusProp) and ap.status == "AC" and ap.eq:
                if ap.quant == "some":
                    set_bits |= 1 << i
                else:
                    clear_bits |= 1 << i
            if isinstance(ap, LessProp):
                clear_bits |= 1 << i
        letter = real(inst, aps)
        return lambda state: (letter(state) | set_bits) & ~clear_bits

    model = load_builtin("byz")
    env = {"n": 7, "t": 2, "f": 2}
    assert check_spec(model, env, "relay").status == "holds"
    monkeypatch.setattr(Instance, "compile_ap", poisoned)
    with pytest.raises(ModelError, match="counterexample failed replay"):
        check_spec(model, env, "relay")


def test_verdict_fields_document_the_run():
    model = load_builtin("byz")
    verdict = check_spec(model, {"n": 7, "t": 2, "f": 2}, "corr")
    assert verdict.status == "holds"
    assert "G" in render_formula(verdict.formula)
    assert verdict.kripke_states > 0
    assert verdict.elapsed_ms >= 0
    assert verdict.product_states >= verdict.kripke_states
