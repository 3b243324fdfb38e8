"""Product emptiness search, verdicts, replay validation."""

import functools
import importlib.util
import random
from collections import Counter, deque
from importlib import resources
from pathlib import Path

import pytest

import tgmc
from oracles import (LassoWord, eval_atomic_prop, random_digraph,
                     random_model_text, reference_initial_states,
                     scc_accepting_lasso_exists)
from tgmc import checker
from tgmc.buchi import BuchiAutomaton, build_buchi
from tgmc.checker import (DEFAULT_MAX_PRODUCT_STATES, Lasso, Product,
                          ResourceCapExceeded, Verdict, check_spec,
                          combined_formula, nested_dfs, reference_successors,
                          replay_lasso)
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
    # Initial nodes are stored once each, in order, and an accepting
    # initial node on a self-loop is a cycle with an empty prefix.
    succ = {0: (1,), 1: (), 2: (2,), 3: (1,)}
    assert run_nested(4, succ, (), {2}) == (None, 0)
    assert run_nested(4, succ, (0, 0, 1), {2}) == (None, 2)
    assert run_nested(4, succ, (3, 0, 1), {2}) == (None, 3)
    assert run_nested(4, succ, (2,), {2}) == (([], [2]), 1)


def test_nested_dfs_respects_cap():
    succ = {i: (i + 1,) for i in range(100)}
    succ[100] = ()
    with pytest.raises(ResourceCapExceeded) as cap:
        nested_dfs((0,), lambda v: succ[v], lambda v: False, max_stored=10)
    assert cap.value.stored == 11
    # The cap counts initial nodes too: the second one stored passes it.
    succ = {0: (1,), 1: (), 2: (2,), 3: (1,)}
    with pytest.raises(ResourceCapExceeded) as cap:
        nested_dfs((1, 3), lambda v: succ[v], lambda v: v == 2, max_stored=1)
    assert cap.value.stored == 2


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
    # A colour array the caller passes grows the same way, also from empty,
    # and keeps the colours the search left.
    colors = bytearray()
    result, stored = nested_dfs((1 << 21, 0), lambda v: succ[v],
                                lambda v: False, colors=colors)
    assert result is None and stored == 3
    assert len(colors) > 1 << 21
    assert {v for v, color in enumerate(colors) if color} == {0, 1_000_003, 1 << 21}


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

class NaiveProduct:
    """The naive product of ``product``'s instance and automaton.
    ``truths`` maps each state it labelled to its truth per ``ba.aps``."""

    def __init__(self, product):
        self.inst, self.ba, self.nq = product.inst, product.ba, product.nq
        self.truths: dict = {}
        self._moves: dict = {}
        self._next: dict = {}       # gid -> (gid2, truth) per successor
        self._meets = functools.cache(self._label_holds)

    def _labelled(self, state) -> tuple:
        truth = self.truths.get(state)
        if truth is None:
            truth = self.truths[state] = tuple(
                eval_atomic_prop(ap, state, self.inst.model, self.inst.env)
                for ap in self.ba.aps)
        return self.inst.state_id(self.inst.encode(state)), truth

    def _label_holds(self, q: int, truth: tuple) -> bool:
        """Whether every literal of automaton state q's label holds."""
        need_true, need_false = self.ba.labels[q]
        return all(truth[i] == (need_true >> i & 1 == 1)
                   for i in range(len(truth)) if (need_true | need_false) >> i & 1)

    def _entered(self, states, labelled) -> list[int]:
        """Per labelled state, the automaton states among ``states`` whose
        label it meets, as product nodes of that state."""
        return [gid * self.nq + q for gid, truth in labelled
                for q in states if self._meets(q, truth)]

    def initial_nodes(self) -> list[int]:
        return self._entered(self.ba.initial, map(
            self._labelled, reference_initial_states(self.inst)))

    def successors(self, node: int) -> list[int]:
        gid, q = divmod(node, self.nq)
        labelled = self._next.get(gid)
        if labelled is None:
            inst = self.inst
            labelled = self._next[gid] = [
                self._labelled(state) for state in reference_successors(
                    inst, inst.decode(inst.states[gid]), self._moves)]
        return self._entered(self.ba.succ[q], labelled)


def assert_product_is_naive(product) -> None:
    """Expand every node the product reaches and compare it, in order, with
    the naive product; also the counts the product keeps."""
    naive = NaiveProduct(product)
    initial = product.initial_nodes()
    assert initial == naive.initial_nodes()
    seen, queue, edges = set(initial), deque(initial), 0
    while queue:
        node = queue.popleft()
        out = product.successors(node)
        assert out == naive.successors(node), node
        edges += len(out)
        for child in out:
            if child not in seen:
                seen.add(child)
                queue.append(child)
    assert product.transitions == edges
    # Every state the product met is labelled once: the initial states and
    # the successors of the expanded nodes.
    assert product.kripke_state_count() == len(naive.truths)


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


@pytest.mark.parametrize("model_name, params, symmetry", [
    ("omit", "n=5,t=2,f=2", False), ("byz", "n=7,t=2,f=2", True)])
def test_a_search_reuses_only_equal_expansions(model_name, params, symmetry,
                                               monkeypatch):
    # nested_dfs expands a state with a self-loop again right after itself,
    # under another automaton state; when the two share a successor row the
    # product hands back the list it built before.  Each list the search
    # gets must still be the naive product's, and the counts its sum.
    model = load_builtin(model_name)
    inst = Instance(model, parse_params_binding(params, model),
                    symmetry=symmetry)
    ba = build_buchi(negate_to_nnf(combined_formula(model, "relay", True)))
    product = Product(inst, ba)
    entered = [*ba.succ, ba.initial]
    assert len(set(entered)) < len(entered)
    assert len({id(row) for row in product._moves}) == len(set(entered))
    assert all((row is other) == (states == others)
               for row, states in zip(product._moves, entered)
               for other, others in zip(product._moves, entered))

    naive = NaiveProduct(product)
    blue, red, reused, built = [], [], [], []
    last = [None, None, None]       # node, list, copy of the last blue list
    successors, all_successors = Product.successors, Product.all_successors
    successor_ids = Instance.successor_ids

    def checked_successors(self, node):
        before = len(built)
        out = successors(self, node)
        full = naive.successors(node)
        if len(built) == before:
            # Handed back the list of the expansion before: the same state
            # under the same row, and the list as it was built.
            last_node, last_out, last_copy = last
            assert out is last_out and out == last_copy, node
            assert node // self.nq == last_node // self.nq
            assert self._moves[node % self.nq] is \
                self._moves[last_node % self.nq]
            reused.append(node)
        else:
            # The naive list less the nodes already blue or red.
            assert out == [child for child in full
                           if self.colors[child] < checker._BLUE], node
        last[:] = node, out, list(out)
        blue.append((len(out), len(full)))
        return out

    def checked_all_successors(self, node):
        out = all_successors(self, node)
        assert out == naive.successors(node), node
        red.append(len(out))
        return out

    def counted_successor_ids(self, gid):
        built.append(gid)
        return successor_ids(self, gid)

    monkeypatch.setattr(Product, "successors", checked_successors)
    monkeypatch.setattr(Product, "all_successors", checked_all_successors)
    monkeypatch.setattr(Instance, "successor_ids", counted_successor_ids)
    result, _ = nested_dfs(product.initial_nodes(), product.successors,
                           product.is_accepting, colors=product.colors,
                           red_successors=product.all_successors)
    assert result is None
    # Every edge counted once per expansion, also the skipped ones.
    assert product.transitions == sum(full for _, full in blue) + sum(red)
    assert sum(out for out, _ in blue) < sum(full for _, full in blue)
    if not symmetry:
        assert reused


def assert_search_is_naive(model, env, spec, fairness=True, symmetry=True):
    """``check_spec``'s search, whose blue pass skips finished blocks,
    against ``nested_dfs`` over the naive product with colours of its own:
    the same status, product states, transitions and lasso."""
    verdict = check_spec(model, env, spec, fairness=fairness, symmetry=symmetry)
    inst = Instance(model, env, symmetry=symmetry)
    ba = build_buchi(verdict.negated)
    naive = NaiveProduct(Product(inst, ba))
    edges = []

    def successors(node):
        out = naive.successors(node)
        edges.append(len(out))
        return out

    result, stored = nested_dfs(naive.initial_nodes(), successors,
                                lambda node: node % naive.nq in ba.accepting)
    status = "holds" if result is None else "violated"
    assert (verdict.status, verdict.product_states, verdict.transitions) \
        == (status, stored, sum(edges)), (model.name, env, spec, fairness)
    if result is not None:
        prefix, cycle = ([inst.decode(inst.states[node // naive.nq])
                          for node in nodes] for nodes in result)
        lasso = verdict.counterexample
        assert (lasso.prefix, lasso.cycle) == (prefix, cycle)
    return status


def test_the_skipping_search_matches_a_naive_search():
    statuses = Counter()
    for model_name, params in sorted(smallest_bindings().items()):
        model = load_builtin(model_name)
        env = parse_params_binding(params, model)
        for spec in model.specs:
            for fairness in (True, False):
                for symmetry in (True, False):
                    statuses[assert_search_is_naive(
                        model, env, spec.name, fairness, symmetry)] += 1
    rng = random.Random("random-models")
    for i in range(100):
        model = parse_model(random_model_text(rng, f"random{i}"))
        for n in (1, 2, 3):
            for symmetry in (True, False):
                statuses[assert_search_is_naive(
                    model, {"n": n}, "prop", symmetry=symmetry)] += 1
    assert statuses["holds"] >= 100 and statuses["violated"] >= 100, statuses


def test_a_row_that_enters_more_states_than_a_byte_counts():
    """A row that enters 130 automaton states for a letter: the blue search
    skips finished blocks of 130 nodes, and counts each in full."""
    states = 131                    # 0..129 unlabelled, 130 needs "p"
    ba = BuchiAutomaton(aps=("p",), labels=[(0, 0)] * 130 + [(1, 0)],
                        succ=[tuple(range(states))] * states,
                        initial=tuple(range(states)),
                        accepting=frozenset({130}))
    prefix, cycle = [set(), set(), set()], [set()]
    product = Product(LassoWord(prefix, cycle), ba)
    found = nested_dfs(product.initial_nodes(), product.successors,
                       product.is_accepting, colors=product.colors,
                       red_successors=product.all_successors)
    assert max(max(sizes) for sizes in product._finished.values()) == 130

    # The naive product of the word: position i steps to i + 1, the last
    # one to itself, and a state is entered where its label holds.
    word = prefix + cycle
    letters = [1 if "p" in letter else 0 for letter in word]
    edges = []

    def entered(position, qs):
        return [position * states + q for q in qs
                if letters[position] & ba.labels[q][0] == ba.labels[q][0]
                and not letters[position] & ba.labels[q][1]]

    def successors(node):
        position, q = divmod(node, states)
        out = entered(min(position + 1, len(word) - 1), ba.succ[q])
        edges.append(len(out))
        return out

    expected = nested_dfs(entered(0, ba.initial), successors,
                          lambda node: node % states in ba.accepting)
    assert found == expected == (None, 4 * 130)
    assert product.transitions == sum(edges)


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
    shared, graphs, cached = [], [], set()
    for spec, cap in runs:
        before = len(expanded)
        shared.append(outcome(check_spec(model, env, spec, max_states=cap)))
        graphs.append({inst for inst, _ in expanded[before:]})
        cached.add(checker._instance(model, tuple(sorted(env.items())), True))
    # Every state is expanded at most once per instance graph.
    assert len(set(expanded)) == len(expanded)
    assert [status for status, *_ in shared] == [
        "violated", "violated", "inconclusive", "violated"]
    assert all(kripke_states > 0 for _, _, kripke_states, _, _ in shared)
    # Every check runs on the graph the first one built: the capped one
    # and the one after it expand nothing the second had not.
    assert len(cached) == 1 and graphs[0] == graphs[1] == cached
    assert graphs[2] == graphs[3] == set()

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
    # A blue search that went round Product.successors would read 0
    # expansions, and count the states it built as rebuilt.
    assert metrics["checker.expansions"] >= verdict.product_states
    assert metrics["kripke.rebuild_ratio"] == 1.0


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


def test_check_spec_checks_the_binding_before_its_instance_cache():
    """4.0 and True equal 4 and 1, so a cached instance must not let them in."""
    model = load_builtin("byz")
    assert check_spec(model, {"n": 4, "t": 1, "f": 0}, "unforg").status == "holds"
    for bad in ({"n": 4.0, "t": True, "f": 0}, {"n": 4, "t": -1, "f": 0},
                {"n": 4, "t": 1, "f": -1}, {"n": "4", "t": 1, "f": 0}):
        with pytest.raises(ModelError):
            check_spec(model, bad, "unforg")


def test_check_spec_resource_cap():
    model = load_builtin("byz")
    env = {"n": 7, "t": 2, "f": 2}
    verdict = check_spec(model, env, "relay", max_states=50)
    assert verdict.status == "inconclusive"
    assert verdict.product_states > 50
    # The inconclusive verdict keeps what the search had built.
    assert 0 < verdict.kripke_states <= verdict.product_states
    assert verdict.transitions > 0
    # ... and keeps the graph it built for the next check.
    assert checker._instance.cache_info().currsize == 1
    after = outcome(check_spec(model, env, "corr"))
    checker._instance.cache_clear()
    assert after == outcome(check_spec(model, env, "corr"))


def test_an_interrupted_check_leaves_a_graph_the_next_check_reuses(
        monkeypatch):
    """A check that an exception ends (here a KeyboardInterrupt on the
    500th interned state) keeps the cached instance, and the next check of
    the same instance, on the graph the stopped one left, counts what a
    fresh one does."""
    model = load_builtin("byz")
    env = {"n": 5, "t": 1, "f": 1}
    checker._instance.cache_clear()
    fresh = outcome(check_spec(model, env, "relay"))
    checker._instance.cache_clear()
    state_id, calls = Instance.state_id, []

    def failing_state_id(self, state):
        calls.append(state)
        if len(calls) == 500:
            raise KeyboardInterrupt
        return state_id(self, state)

    monkeypatch.setattr(Instance, "state_id", failing_state_id)
    with pytest.raises(KeyboardInterrupt):
        check_spec(model, env, "relay")
    assert checker._instance.cache_info().currsize == 1
    stopped = checker._instance(model, tuple(sorted(env.items())), True)
    assert stopped.states
    monkeypatch.setattr(Instance, "state_id", state_id)
    assert outcome(check_spec(model, env, "relay")) == fresh
    assert checker._instance(model, tuple(sorted(env.items())), True) is stopped


SMALL_INSTANCES = [("byz", "n=4,t=1,f=1"), ("byz", "n=4,t=2,f=2"),
                   ("clean", "n=3,t=1"), ("clean", "n=3,t=3"),
                   ("omit", "n=3,t=1,f=1"), ("omit", "n=3,t=2,f=2"),
                   ("symm", "n=4,t=1,fp=0,fs=1")]


@pytest.mark.parametrize("symmetry", [True, False], ids=["symmetric", "raw"])
def test_a_stopped_check_changes_no_later_result(monkeypatch, symmetry):
    """On each small instance, one check stops first, in turn interrupted
    at a random ``state_id`` call or capped at a random ``max_states``;
    then every spec, with fairness on and off, in shuffled order, on the
    graph it left, gives the status, counts and counterexample of a fresh
    instance."""
    rng = random.Random(f"stopped-{symmetry}")
    state_id, calls = Instance.state_id, [0, None]    # calls, interrupt at

    def counting_state_id(self, state):
        calls[0] += 1
        if calls[0] == calls[1]:
            raise KeyboardInterrupt
        return state_id(self, state)

    monkeypatch.setattr(Instance, "state_id", counting_state_id)
    for i, (name, params) in enumerate(SMALL_INSTANCES):
        model = load_builtin(name)
        env = parse_params_binding(params, model)
        runs = [(spec.name, fairness) for spec in model.specs
                for fairness in (True, False)]
        fresh, fresh_calls = {}, {}
        for spec, fairness in runs:
            checker._instance.cache_clear()
            before = calls[0]
            fresh[spec, fairness] = outcome(check_spec(
                model, env, spec, fairness=fairness, symmetry=symmetry))
            fresh_calls[spec, fairness] = calls[0] - before
        checker._instance.cache_clear()
        spec, fairness = rng.choice([run for run in runs
                                     if fresh[run][1] > 1])
        if i % 2:
            cap = rng.randrange(1, fresh[spec, fairness][1])
            capped = check_spec(model, env, spec, fairness=fairness,
                                symmetry=symmetry, max_states=cap)
            assert capped.status == "inconclusive"
        else:
            calls[1] = calls[0] + rng.randint(1, fresh_calls[spec, fairness])
            with pytest.raises(KeyboardInterrupt):
                check_spec(model, env, spec, fairness=fairness,
                           symmetry=symmetry)
        rng.shuffle(runs)
        for spec, fairness in runs:
            assert outcome(check_spec(model, env, spec, fairness=fairness,
                                      symmetry=symmetry)) \
                == fresh[spec, fairness], (name, params, spec, fairness)
    checker._instance.cache_clear()


def test_a_product_of_more_letters_than_a_byte_holds():
    """With a letter function that gives every state a letter of its own
    (bits above the automaton's propositions, which no label reads), the
    product has more than 128 letter ids, every state is labelled once, and
    the search finds what it finds with the true letters."""
    model = load_builtin("byz")
    env = {"n": 5, "t": 1, "f": 1}
    ba = build_buchi(negate_to_nnf(combined_formula(model, "relay", True)))
    inst = Instance(model, env)
    plain = Product(inst, ba)
    expected = nested_dfs(plain.initial_nodes(), plain.successors,
                          plain.is_accepting)
    product = Product(inst, ba)
    true_letter, labelled = product._letter_of, []

    def own_letter(state):
        labelled.append(state)
        return true_letter(state) | inst.state_id(state) << len(ba.aps)

    product._letter_of = own_letter
    found = nested_dfs(product.initial_nodes(), product.successors,
                       product.is_accepting)
    assert found == expected and product.transitions == plain.transitions
    assert product.kripke_state_count() == plain.kripke_state_count() > 128
    assert len(labelled) == len(set(labelled)) == product.kripke_state_count()
    by_id = list(product._letter_ids)
    assert all(by_id[product._letter[gid]]
               == true_letter(inst.states[gid]) | gid << len(ba.aps)
               for gid in map(inst.state_id, labelled))


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
