"""Formula → Büchi automaton via the classic tableau (node-splitting)
construction of Gerth, Peled, Vardi and Wolper, with one acceptance
obligation per Until/Future subformula, degeneralized by a counter.

Each operator's expansion law is one row of the rule table ``_RULES``: the
branches a tableau node splits into when it takes up a formula of that kind.

Automaton states carry conjunctive literal labels, as bitmasks over the
formula's atomic propositions: a state may be visited at a word position only
if the position's letter satisfies every literal.  The counter
degeneralisation is done in the same pass, so the automaton comes out in the
form the product search reads.  All node sets are sets of interned formula
ids and every choice point is resolved by integer order, so the construction
is deterministic and independent of PYTHONHASHSEED — state numbering,
transition order, and hence search order and counterexamples are
reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ltl import (And, AtomicProp, Formula, Future, Globally, Literal, Or,
                  Release, Until, children, formula_aps, subformulas)


@dataclass
class BuchiAutomaton:
    """State-labeled automaton: entering a state requires its label to hold of
    the current letter.  A run is accepting iff it visits ``accepting``
    infinitely often."""

    aps: tuple[AtomicProp, ...]
    # Per state: (need_true_mask, need_false_mask); bit i stands for aps[i].
    labels: list[tuple[int, int]]
    succ: list[tuple[int, ...]]
    initial: tuple[int, ...]
    accepting: frozenset[int]

    def n_states(self) -> int:
        return len(self.succ)

    def entered(self, states, letter: int) -> list[int]:
        """The states among ``states`` whose label the letter (the bitmask of
        the propositions true at a position) meets, in their order."""
        return [q for q in states
                for need_true, need_false in (self.labels[q],)
                if letter & need_true == need_true and not letter & need_false]


# The tableau rules: the branches a node splits into when it takes up a
# formula, in the order they are explored, each as the subformulas it must
# hold now and those it must hold from the next position on.  A literal
# that contradicts one already taken up drops the node instead.
_RULES = {
    Literal: lambda f: [((), ())],
    And: lambda f: [(f.items, ())],
    Or: lambda f: [((item,), ()) for item in f.items],
    Future: lambda f: [((), (f,)), ((f.arg,), ())],
    Globally: lambda f: [((f.arg,), (f,))],
    Until: lambda f: [((f.lhs,), (f,)), ((f.rhs,), ())],
    Release: lambda f: [((f.rhs,), (f,)), ((f.lhs, f.rhs), ())],
}


def build_buchi(nnf: Formula) -> BuchiAutomaton:
    """Automaton accepting exactly the infinite words satisfying ``nnf``
    (a formula in negation normal form)."""
    formulas = subformulas(nnf)             # ids: children before parents
    ids = {f: idx for idx, f in enumerate(formulas)}
    # Per formula id, its rule's branches as sets of ids, in push order:
    # the reverse of the order in which they are explored.
    branches = [[({ids[g] for g in now}, {ids[g] for g in later})
                 for now, later in reversed(_RULES[type(f)](f))]
                for f in formulas]

    # Tableau nodes: incoming node ids (-1 = virtual initial), processed set
    # `old`, obligations `next`.  A node is identified by (old, next).
    node_key_to_id: dict[tuple[frozenset[int], frozenset[int]], int] = {}
    node_old: list[frozenset[int]] = []
    node_incoming: list[set[int]] = []

    # Work items: (incoming, new, old, next) with mutable sets.
    pending: list[tuple[set[int], set[int], set[int], set[int]]] = [
        ({-1}, {ids[nnf]}, set(), set())]

    while pending:
        incoming, new, old, nxt = pending.pop()
        if not new:
            key = (frozenset(old), frozenset(nxt))
            existing = node_key_to_id.get(key)
            if existing is not None:
                node_incoming[existing] |= incoming
                continue
            idx = len(node_old)
            node_key_to_id[key] = idx
            node_old.append(key[0])
            node_incoming.append(set(incoming))
            pending.append(({idx}, set(nxt), set(), set()))
            continue
        eta = min(new)
        new.discard(eta)
        f = formulas[eta]
        if isinstance(f, Literal) and ids.get(Literal(f.ap, not f.negated)) in old:
            continue
        for now, later in branches[eta]:
            pending.append((set(incoming), new | (now - old), old | {eta},
                            nxt | later))

    # Successor lists per node, plus a last one, at index -1, that lists
    # the initial nodes as the successors of the virtual initial node.
    gba_succ: list[list[int]] = [[] for _ in range(len(node_old) + 1)]
    for target, sources in enumerate(node_incoming):
        for source in sorted(sources):
            gba_succ[source].append(target)

    # Acceptance obligations, one per Until/Future subformula (id order):
    # a node satisfies obligation θ=aUb/Fb unless it promises θ without
    # having discharged b.
    acc_sets: list[frozenset[int]] = []
    for theta, f in enumerate(formulas):
        if isinstance(f, (Until, Future)):
            rhs = ids[children(f)[-1]]
            acc_sets.append(frozenset(node for node, old in enumerate(node_old)
                                      if theta not in old or rhs in old))

    # Literal labels per node, as (need_true, need_false) bitmasks over aps
    # (bit i is aps[i]).
    aps = formula_aps(nnf)
    ap_bit = {ap: 1 << i for i, ap in enumerate(aps)}
    gba_labels: list[tuple[int, int]] = []
    for old in node_old:
        need = [0, 0]
        for fid in old:
            f = formulas[fid]
            if isinstance(f, Literal):
                need[f.negated] |= ap_bit[f.ap]
        gba_labels.append((need[0], need[1]))

    # Counter degeneralisation: pair each node with the index of the
    # obligation it awaits; level k (all seen since the last reset) accepts,
    # and the next step starts over at 0.  With no obligations the level
    # stays at 0 == k, so every state accepts.  Pairs are numbered
    # breadth-first from a virtual source (-1, k) whose successors are the
    # initial nodes; the loop visits the pairs that it appends to ``order``.
    k = len(acc_sets)
    order: list[tuple[int, int]] = [(-1, k)]
    index: dict[tuple[int, int], int] = {}
    rows: list[tuple[int, ...]] = []
    for q, level in order:
        row = []
        for q2 in gba_succ[q]:
            j = 0 if level == k else level
            while j < k and q2 in acc_sets[j]:
                j += 1
            found = index.get((q2, j))
            if found is None:
                found = index[q2, j] = len(order) - 1
                order.append((q2, j))
            row.append(found)
        rows.append(tuple(row))

    return BuchiAutomaton(
        aps, [gba_labels[q] for q, _ in order[1:]], rows[1:],
        tuple(dict.fromkeys(rows[0])),
        frozenset(i for i, (_, level) in enumerate(order[1:]) if level == k))
