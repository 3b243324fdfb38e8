"""Independent reference implementations (and deterministic generators)
used to cross-check the engine.

The references deliberately re-derive semantics from first principles —
path enumeration via networkx, step successors by per-path candidate
substitution, temporal truth by walking the unique future chain of an
ultimately periodic word, proposition truth by looking variables up by name,
and emptiness via strongly connected components — so that agreement with the
package is evidence, not tautology.  The exceptions: the initial states in
tuple form, listed in the order the packed engine lists them; the tuple-form
successor relation the tests walk beside them, which is the runtime's own
reference, ``tgmc.checker.reference_successors``, that counterexample replay
trusts; and lasso membership in a Büchi automaton, which runs the checker's
own ``Product`` and ``nested_dfs`` over a lasso word, so that the word
campaigns exercise the product that ``check_spec`` searches.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from pathlib import Path

import networkx as nx

import tgmc
from tgmc.cfa import (EPS, Cfa, Guard, GuardAnd, GuardNot, Inc, Pick, SetStatus,
                      SvEq, ThresholdLe)
from tgmc.checker import Product, nested_dfs
from tgmc.core import LinearForm, ParamEnv, Valuation, normalize_coeffs
from tgmc.ltl import (And, AtomicProp, Formula, Future, Globally, LessProp,
                      Literal, Or, Release, StatusProp, Until)


def make_valuation(status: str,
                   locals_: dict[str, int] | None = None,
                   shareds: dict[str, int] | None = None,
                   params: ParamEnv | None = None) -> Valuation:
    """A process valuation from name → value dicts, in their order."""
    return Valuation(status,
                     tuple((locals_ or {}).items()),
                     tuple((shareds or {}).items()),
                     tuple((params or {}).items()))


def linear_form(const: int = 0, **coeffs: int) -> LinearForm:
    """A linear form from keyword coefficients: ``linear_form(1, t=1)`` is
    ``t + 1``."""
    return LinearForm(normalize_coeffs(coeffs.items()), const)


def source_env() -> dict[str, str]:
    """The environment of a subprocess that imports the very package this
    process imported, whether it came from src/ or an install; a relative
    ``PYTHONPATH`` would not resolve from another working directory."""
    source_root = str(Path(tgmc.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")])))


# ---------------------------------------------------------------------------
# Temporal truth on a lasso word, by walking the future chain.

def brute_eval(f: Formula, prefix, cycle) -> bool:
    """Truth of ``f`` at position 0 of prefix·cycle^ω.

    Positions form a single deterministic chain; from any position at most
    len(prefix)+len(cycle) distinct positions are reachable, so walking the
    chain that many steps decides every temporal operator.
    """
    letters = list(prefix) + list(cycle)
    n = len(letters)
    assert cycle, "cycle must be non-empty"
    loop = len(prefix)

    def nxt(i: int) -> int:
        return i + 1 if i + 1 < n else loop

    def reachable(i: int) -> set[int]:
        out = set()
        pos = i
        while pos not in out:
            out.add(pos)
            pos = nxt(pos)
        return out

    def ev(g: Formula, i: int) -> bool:
        if isinstance(g, Literal):
            return (g.ap in letters[i]) != g.negated
        if isinstance(g, And):
            return all(ev(c, i) for c in g.items)
        if isinstance(g, Or):
            return any(ev(c, i) for c in g.items)
        if isinstance(g, Future):
            return any(ev(g.arg, j) for j in reachable(i))
        if isinstance(g, Globally):
            return all(ev(g.arg, j) for j in reachable(i))
        if isinstance(g, Until):
            pos = i
            for _ in range(n + 1):
                if ev(g.rhs, pos):
                    return True
                if not ev(g.lhs, pos):
                    return False
                pos = nxt(pos)
            return False
        if isinstance(g, Release):
            pos = i
            for _ in range(n + 1):
                if not ev(g.rhs, pos):
                    return False
                if ev(g.lhs, pos):
                    return True
                pos = nxt(pos)
            return True
        raise AssertionError(f"unknown node {g!r}")

    return ev(f, 0)


# ---------------------------------------------------------------------------
# Lasso membership in a Büchi automaton, through the checker's product.

class LassoWord:
    """A stand-in for ``kripke.Instance`` whose states are the positions of
    the word prefix·cycle^ω, each letter a container of the propositions
    true there: position i steps to i + 1, and the last one to the first
    of the cycle."""

    def __init__(self, prefix, cycle):
        assert cycle, "cycle must be non-empty"
        self.word = list(prefix) + list(cycle)
        self.states = list(range(len(self.word)))
        self.loop = len(prefix)

    def initial_states(self) -> list[int]:
        return [0]

    def state_id(self, state: int) -> int:
        return state

    def successor_ids(self, gid: int) -> tuple[int]:
        return (gid + 1 if gid + 1 < len(self.word) else self.loop,)

    def compile_ap(self, aps):
        masks = [sum(1 << i for i, ap in enumerate(aps) if ap in letter)
                 for letter in self.word]
        return masks.__getitem__


def accepts_lasso(ba, prefix, cycle) -> bool:
    """Whether the automaton accepts prefix·cycle^ω, by the search
    ``check_spec`` runs: ``nested_dfs`` on the ``Product`` of the word with
    the automaton, in the product's colours, so that the blue search skips
    the blocks it finished."""
    product = Product(LassoWord(prefix, cycle), ba)
    result, _ = nested_dfs(product.initial_nodes(), product.successors,
                           product.is_accepting, colors=product.colors,
                           red_successors=product.all_successors)
    return result is not None


# ---------------------------------------------------------------------------
# Step paths and step successors, naively.

def nx_step_paths(cfa: Cfa) -> list[tuple]:
    """All initial→final operation sequences, enumerated by networkx."""
    graph = nx.MultiDiGraph()
    graph.add_node(cfa.initial)
    graph.add_node(cfa.final)
    for i, e in enumerate(cfa.edges):
        graph.add_edge(e.src, e.dst, key=i)
    paths = []
    for edge_path in nx.all_simple_edge_paths(graph, cfa.initial, cfa.final):
        paths.append(tuple(cfa.edges[key].op for _, _, key in edge_path))
    return paths


def lookup(v: Valuation, name: str) -> int:
    for key, value in v.locals + v.shareds + v.params:
        if key == name:
            return value
    raise KeyError(name)


def linear_value(form: LinearForm, env: dict) -> int:
    return form.const + sum(coeff * env[name] for name, coeff in form.coeffs)


def guard_holds(expr, v: Valuation) -> bool:
    if isinstance(expr, SvEq):
        return v.status == expr.status
    if isinstance(expr, ThresholdLe):
        return linear_value(expr.bound, dict(v.params)) <= lookup(v, expr.var)
    if isinstance(expr, GuardNot):
        return not guard_holds(expr.item, v)
    if isinstance(expr, GuardAnd):
        return all(guard_holds(item, v) for item in expr.items)
    raise AssertionError(f"unknown guard {expr!r}")


def set_var(v: Valuation, name: str, value: int) -> Valuation:
    if any(key == name for key, _ in v.locals):
        pairs = tuple((k, value if k == name else x) for k, x in v.locals)
        return Valuation(v.status, pairs, v.shareds, v.params)
    pairs = tuple((k, value if k == name else x) for k, x in v.shareds)
    return Valuation(v.status, v.locals, pairs, v.params)


def pick_candidates(cond, v: Valuation) -> list[int]:
    """All natural choices satisfying the condition, by direct substitution.

    Candidates are enumerated up to (and slightly past) the largest upper
    bound any single atom allows, which covers every satisfying value.
    """
    env = dict(v.params)
    caps = [lookup(v, a.rhs) + linear_value(a.offset, env)
            for a in cond.atoms if a.lhs == EPS and a.rhs != EPS]
    assert caps, "pick condition without an upper bound"
    limit = max(max(caps) + 2, 0)
    chosen = []
    for candidate in range(limit + 1):
        def value_of(side: str) -> int:
            return candidate if side == EPS else lookup(v, side)

        if all(value_of(a.lhs) <= value_of(a.rhs) + linear_value(a.offset, env)
               for a in cond.atoms):
            chosen.append(candidate)
    return chosen


def naive_step_successors(v: Valuation, cfa: Cfa) -> list[Valuation]:
    """Union over paths of the composed per-operation semantics, with pick
    values found by substitution rather than interval arithmetic."""
    results: set[Valuation] = set()
    for ops in nx_step_paths(cfa):
        frontier = [v]
        for op in ops:
            advanced: list[Valuation] = []
            for val in frontier:
                if isinstance(op, Guard):
                    if guard_holds(op.expr, val):
                        advanced.append(val)
                elif isinstance(op, SetStatus):
                    advanced.append(Valuation(op.status, val.locals,
                                              val.shareds, val.params))
                elif isinstance(op, Inc):
                    advanced.append(set_var(val, op.var,
                                            lookup(val, op.var) + 1))
                elif isinstance(op, Pick):
                    for candidate in pick_candidates(op.cond, val):
                        advanced.append(set_var(val, op.var, candidate))
                else:
                    raise AssertionError(f"unknown operation {op!r}")
            frontier = advanced
        results.update(frontier)
    return sorted(results, key=lambda w: (w.status, w.locals, w.shareds))


def naive_successors(inst, state, memo: dict) -> set:
    """The successor set of a ``(procs, shareds)`` state of ``inst`` by
    ``naive_step_successors``, every value read and written by its
    variable's name; a state with no mover repeats.  ``memo`` keeps the
    steps per (entry, shareds)."""
    model = inst.model
    procs, shareds = state
    out = set()
    for i, entry in enumerate(procs):
        if (entry, shareds) not in memo:
            status, values = entry
            v = make_valuation(model.statuses[status],
                               dict(zip(model.locals, values)),
                               dict(zip(model.shareds, shareds)), inst.env)
            memo[entry, shareds] = [
                ((model.statuses.index(w.status),
                  tuple(lookup(w, name) for name in model.locals)),
                 tuple(lookup(w, name) for name in model.shareds))
                for w in naive_step_successors(v, model.cfa)]
        for new_entry, new_shareds in memo[entry, shareds]:
            new_procs = procs[:i] + (new_entry,) + procs[i + 1:]
            out.add((tuple(sorted(new_procs)) if inst.symmetry else new_procs,
                     new_shareds))
    return out or {state}


# ---------------------------------------------------------------------------
# The state graph in tuple form: states are (procs, shareds), procs a tuple
# of (status_index, local values) entries, sorted under symmetry.

def reference_initial_states(inst) -> list:
    """The initial states of ``inst``, in the order the engine lists them."""
    zero_locals = (0,) * len(inst.model.locals)
    zero_shareds = (0,) * len(inst.model.shareds)
    init = sorted(inst.model.statuses.index(s) for s in inst.model.initial_statuses)
    if inst.symmetry:
        combos = itertools.combinations_with_replacement(init, inst.count)
    else:
        combos = itertools.product(init, repeat=inst.count)
    return [(tuple((idx, zero_locals) for idx in combo), zero_shareds)
            for combo in combos]


# ---------------------------------------------------------------------------
# Atomic propositions on engine states, by name.

def eval_atomic_prop(p: AtomicProp, state, model, env: dict) -> bool:
    """Truth of a quantified proposition in the engine state
    ``(procs, shareds)`` of an instance of ``model`` under ``env``, with every
    variable looked up by its declared name.  Over an empty process vector
    ∀ is true and ∃ is false."""
    procs, shareds = state
    if isinstance(p, StatusProp):
        values = [(model.statuses[status] == p.status) == p.eq
                  for status, _ in procs]
        return all(values) if p.quant == "all" else any(values)
    if isinstance(p, LessProp):
        offset = linear_value(p.offset, env)
        shared_env = dict(zip(model.shareds, shareds))

        def view(local_values, name: str) -> int:
            return {**shared_env, **dict(zip(model.locals, local_values))}[name]

        return any(view(values, p.x) + offset < view(values, p.y)
                   for _, values in procs)
    raise AssertionError(f"unknown proposition {p!r}")


# ---------------------------------------------------------------------------
# Emptiness via strongly connected components.

def scc_accepting_lasso_exists(initials, successors, accepting) -> bool:
    """True iff some cycle through an accepting node is reachable."""
    graph = nx.DiGraph()
    graph.add_nodes_from(initials)
    seen = set(initials)
    stack = list(initials)
    while stack:
        node = stack.pop()
        for child in successors(node):
            graph.add_edge(node, child)
            if child not in seen:
                seen.add(child)
                stack.append(child)
    for component in nx.strongly_connected_components(graph):
        if not any(accepting(node) for node in component):
            continue
        if len(component) > 1:
            return True
        node = next(iter(component))
        if graph.has_edge(node, node):
            return True
    return False


# ---------------------------------------------------------------------------
# Counting.

def multiset_count(choices: int, size: int) -> int:
    """Number of multisets of the given size over `choices` elements."""
    return math.comb(size + choices - 1, size)


# ---------------------------------------------------------------------------
# Deterministic random generators for cross-check campaigns.

def random_nnf_formula(rng: random.Random, depth: int, atoms) -> Formula:
    """Random formula in negation normal form over the given atom pool."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.05:
            return And(())
        if roll < 0.1:
            return Or(())
        return Literal(rng.choice(tuple(atoms)), rng.random() < 0.4)
    kind = rng.randrange(6)
    if kind == 0:
        return And(tuple(random_nnf_formula(rng, depth - 1, atoms) for _ in range(2)))
    if kind == 1:
        return Or(tuple(random_nnf_formula(rng, depth - 1, atoms) for _ in range(2)))
    if kind == 2:
        return Future(random_nnf_formula(rng, depth - 1, atoms))
    if kind == 3:
        return Globally(random_nnf_formula(rng, depth - 1, atoms))
    if kind == 4:
        return Until(random_nnf_formula(rng, depth - 1, atoms),
                     random_nnf_formula(rng, depth - 1, atoms))
    return Release(random_nnf_formula(rng, depth - 1, atoms),
                   random_nnf_formula(rng, depth - 1, atoms))


def random_digraph(rng: random.Random, max_nodes: int):
    """Random directed graph: (n, successor lists, initial nodes, accepting set).

    Mixes sparse and denser graphs, isolated parts, self-loops, and sometimes
    an empty accepting set, so both emptiness outcomes occur in quantity.
    """
    n = rng.randrange(1, max_nodes + 1)
    avg_degree = rng.choice((0.5, 1.0, 1.5, 2.5))
    succ = []
    for node in range(n):
        degree = min(n, max(0, int(rng.gauss(avg_degree, 1.0)) + (rng.random() < 0.5)))
        succ.append(tuple(rng.randrange(n) for _ in range(degree)))
    initial = tuple(dict.fromkeys(rng.randrange(n) for _ in range(rng.randrange(1, 4))))
    density = rng.choice((0.0, 0.05, 0.15, 0.4))
    accepting = frozenset(node for node in range(n) if rng.random() < density)
    return n, succ, initial, accepting


def random_valuation(rng: random.Random, model) -> Valuation:
    """Random concrete valuation for a model: any status, small counters."""
    env = {p: rng.randrange(0, 6) for p in model.params}
    locals_ = {name: rng.randrange(0, 9) for name in model.locals}
    shareds = {name: rng.randrange(0, 9) for name in model.shareds}
    return make_valuation(rng.choice(model.statuses), locals_, shareds, env)


def random_model_text(rng: random.Random, name: str) -> str:
    """Source of a small random model, ``size n``, with 2-3 locals, 2-3
    shareds, 3-4 statuses and one ``G``/``F`` spec, ``prop``.

    Every instance's state graph is finite by construction: a status moves
    only to a later one, and every path with an ``inc`` also sets a later
    status, so a process increments at most once per status; every ``pick``
    sets a local and is bounded above by a shared variable, which only
    ``inc`` raises.  Each step path is a chain of its own locations from
    ``qI`` to ``qF``, its first operation a status guard and one of the
    others a threshold guard, so no two edges are equal.
    """
    statuses = [f"S{i}" for i in range(rng.randint(3, 4))]
    locals_ = ["a", "b", "c"][:rng.randint(2, 3)]
    shareds = ["x", "y", "z"][:rng.randint(2, 3)]
    variables = locals_ + shareds
    edges = []
    for path in range(rng.randint(3, 6)):
        at = rng.randrange(len(statuses))
        later = statuses[at + 1:]
        ops = [f"pick {var} where {var} <= eps && "
               f"eps <= {rng.choice(shareds)} + {rng.randint(0, 1)}"
               for var in rng.sample(locals_, rng.choice((0, 0, 1)))]
        if later and rng.random() < 0.7:
            ops += [f"inc {var}"
                    for var in rng.sample(variables, rng.choice((0, 1, 1, 2)))]
            ops.append(f"set sv = {rng.choice(later)}")
        rng.shuffle(ops)
        threshold = rng.choice(("0 <= {}", "1 <= {}", "n - 1 <= {}",
                                "!(1 <= {})", "!(n <= {})")).format(
                                    rng.choice(variables))
        ops.insert(rng.randint(0, len(ops)), f"when {threshold}")
        ops.insert(0, f"when sv == {statuses[at]}")
        locations = ["qI"] + [f"p{path}_{i}" for i in range(1, len(ops))] + ["qF"]
        edges += [f"  from {src} to {dst} : {op};"
                  for src, dst, op in zip(locations, locations[1:], ops)]
    status = rng.choice(statuses)
    spec = rng.choice((f"G all(sv != {status})", f"F some(sv == {status})",
                       f"G (some(sv == {statuses[0]}) -> F all(sv == {status}))",
                       f"G (some(sv == {status}) -> G some(sv == {status}))",
                       f"G some({rng.choice(locals_)} < {rng.choice(shareds)})"))
    return "\n".join([
        f"model {name};", "param n;", "size n;",
        f"status {', '.join(statuses)};",
        f"init {', '.join(statuses[:rng.randint(1, 2)])};",
        f"local {', '.join(locals_)};", f"shared {', '.join(shareds)};",
        "step {", *edges, "}", f"spec prop: {spec};", ""])
