"""Formula → Büchi automaton via the classic tableau (node-splitting)
construction, with one acceptance obligation per Until/Future subformula,
degeneralized by a counter.

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

from .core import ModelError
from .ltl import (And, AtomicProp, Formula, Future, Globally, Literal, Or,
                  Release, Until, formula_aps)


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


class _Interner:
    """Formula ↔ integer ids, assigned in deterministic traversal order."""

    def __init__(self) -> None:
        self.formulas: list[Formula] = []
        self.ids: dict[Formula, int] = {}

    def intern(self, f: Formula) -> int:
        found = self.ids.get(f)
        if found is not None:
            return found
        # Children first so subformulas always have ids available.
        if isinstance(f, (And, Or)):
            for child in f.items:
                self.intern(child)
        elif isinstance(f, (Future, Globally)):
            self.intern(f.arg)
        elif isinstance(f, (Until, Release)):
            self.intern(f.lhs)
            self.intern(f.rhs)
        elif not isinstance(f, Literal):
            raise ModelError(f"unknown formula node {f!r}")
        idx = len(self.formulas)
        self.formulas.append(f)
        self.ids[f] = idx
        return idx


def build_buchi(nnf: Formula) -> BuchiAutomaton:
    """Automaton accepting exactly the infinite words satisfying ``nnf``
    (a formula in negation normal form)."""
    interner = _Interner()
    root = interner.intern(nnf)
    formulas = interner.formulas

    # Tableau nodes: incoming node ids (-1 = virtual initial), processed set
    # `old`, obligations `next`.  A node is identified by (old, next).
    node_key_to_id: dict[tuple[frozenset[int], frozenset[int]], int] = {}
    node_old: list[frozenset[int]] = []
    node_incoming: list[set[int]] = []

    # Work items: (incoming, new, old, next) with mutable sets.
    pending: list[tuple[set[int], set[int], set[int], set[int]]] = [
        ({-1}, {root}, set(), set())]

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
        if isinstance(f, Literal):
            contradiction = any(
                isinstance(formulas[z], Literal)
                and formulas[z].ap == f.ap
                and formulas[z].negated != f.negated
                for z in old)
            if contradiction:
                continue
            old.add(eta)
            pending.append((incoming, new, old, nxt))
        elif isinstance(f, And):
            old.add(eta)
            new |= {interner.intern(c) for c in f.items} - old
            pending.append((incoming, new, old, nxt))
        elif isinstance(f, Or):
            # One branch per disjunct (the empty disjunction drops the node).
            for child in reversed(f.items):
                pending.append((set(incoming),
                                new | ({interner.intern(child)} - old),
                                old | {eta}, set(nxt)))
        elif isinstance(f, Until):
            lhs, rhs = interner.intern(f.lhs), interner.intern(f.rhs)
            pending.append((set(incoming), new | ({rhs} - old),
                            old | {eta}, set(nxt)))
            pending.append((set(incoming), new | ({lhs} - old),
                            old | {eta}, nxt | {eta}))
        elif isinstance(f, Release):
            lhs, rhs = interner.intern(f.lhs), interner.intern(f.rhs)
            pending.append((set(incoming), new | ({lhs, rhs} - old),
                            old | {eta}, set(nxt)))
            pending.append((set(incoming), new | ({rhs} - old),
                            old | {eta}, nxt | {eta}))
        elif isinstance(f, Future):
            arg = interner.intern(f.arg)
            pending.append((set(incoming), new | ({arg} - old),
                            old | {eta}, set(nxt)))
            pending.append((set(incoming), set(new), old | {eta}, nxt | {eta}))
        elif isinstance(f, Globally):
            arg = interner.intern(f.arg)
            pending.append((incoming, new | ({arg} - old),
                            old | {eta}, nxt | {eta}))
        else:
            raise ModelError(f"unknown formula node {f!r}")

    n_nodes = len(node_old)
    gba_succ: list[list[int]] = [[] for _ in range(n_nodes)]
    gba_initial: list[int] = []
    for target in range(n_nodes):
        for source in sorted(node_incoming[target]):
            if source == -1:
                gba_initial.append(target)
            else:
                gba_succ[source].append(target)

    # Acceptance obligations, one per Until/Future subformula (id order):
    # a node satisfies obligation θ=aUb/Fb unless it promises θ without
    # having discharged b.
    obligations = [idx for idx, f in enumerate(formulas)
                   if isinstance(f, (Until, Future))]
    acc_sets: list[frozenset[int]] = []
    for theta in obligations:
        f = formulas[theta]
        rhs = interner.ids[f.rhs if isinstance(f, Until) else f.arg]
        acc_sets.append(frozenset(
            node for node in range(n_nodes)
            if theta not in node_old[node] or rhs in node_old[node]))

    # Literal labels per node, as bitmasks over aps (bit i is aps[i]).
    aps = formula_aps(nnf)
    ap_bit = {ap: 1 << i for i, ap in enumerate(aps)}
    gba_labels: list[tuple[int, int]] = []
    for node in range(n_nodes):
        need_true = need_false = 0
        for fid in node_old[node]:
            f = formulas[fid]
            if isinstance(f, Literal):
                if f.negated:
                    need_false |= ap_bit[f.ap]
                else:
                    need_true |= ap_bit[f.ap]
        gba_labels.append((need_true, need_false))

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
        for q2 in gba_succ[q] if q >= 0 else gba_initial:
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
