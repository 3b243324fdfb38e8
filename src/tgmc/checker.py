"""Emptiness checking of the instance × automaton product, verdicts, and
counterexample lassos.

The search is the classic two-color nested depth-first search, implemented
iteratively (explicit stacks) so deep state spaces cannot overflow Python's
recursion limit.  The product it searches (``Product``) labels each state of
the instance once, and reads its edges from per-letter rows, not tests them.

Every reported lasso is replay-validated before the verdict is returned:
each transition is re-checked against ``reference_successors`` (the one
tuple-form successor relation, over ``cfa.step_successors``, that replay and
the tests share), each state's propositions are re-evaluated by
``ltl.ap_holds`` on its processes' valuations, and the negated formula on
the lasso's word by the direct fixpoint evaluator.  A verdict is therefore
never justified by the search alone.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import NamedTuple

from .buchi import BuchiAutomaton, build_buchi
from .cfa import step_successors
from .core import ModelError, ParamEnv, value
from .dsl import ModelDef, check_binding
from .kripke import EngineState, Instance
from .ltl import (AtomicProp, Formula, ap_holds, disjoin, eval_formula_on_lasso,
                  formula_aps, negate_to_nnf)

DEFAULT_MAX_PRODUCT_STATES = 50_000_000


class ResourceCapExceeded(Exception):
    """nested_dfs would store more nodes than its cap; ``stored`` is how many
    it had stored when it stopped."""

    def __init__(self, stored: int):
        self.stored = stored
        super().__init__(f"stored {stored} product states, exceeding the cap")


@value
class Lasso(NamedTuple):
    """Ultimately periodic counterexample run: prefix then repeated cycle.

    ``ap_truth[i]`` is the set of atomic propositions of the checked formula
    that hold at position i (prefix positions first, then cycle positions).
    """

    prefix: list[EngineState]
    cycle: list[EngineState]
    ap_truth: list[frozenset[AtomicProp]]

    def states(self) -> list[EngineState]:
        return self.prefix + self.cycle


@value
class Verdict(NamedTuple):
    """Outcome of one check_spec: ``holds`` (the search found no accepting
    lasso), ``violated`` (it found one, and replay confirmed it) or
    ``inconclusive`` (it stopped at the state cap).  The counts are read
    once the search ends, whichever way: ``product_states`` distinct product
    nodes stored, ``kripke_states`` distinct system states this search
    labelled (also those an earlier check of the same instance built), and
    ``transitions`` the edges of every expansion, the red search's
    re-expansions of already stored nodes included (so an edge can be
    counted more than once), also the edges into blocks of finished nodes,
    which the blue search counts without building (see ``Product``).  The
    product labels every successor of a node it expands, also a state that
    no automaton move enters, so ``kripke_states`` can exceed
    ``product_states``: ``byz`` at n=7,t=2,f=3, spec ``relay``, stores 40
    product states and labels 52 system states."""

    status: str                      # "holds" | "violated" | "inconclusive"
    formula: Formula                 # the checked formula (spec, or spec ∨ unfairness)
    negated: Formula                 # NNF of its negation (what the automaton accepts)
    counterexample: Lasso | None
    product_states: int
    kripke_states: int
    transitions: int
    elapsed_ms: int


# ---------------------------------------------------------------------------
# Generic nested DFS (blue/red with early cycle detection).

_CYAN, _BLUE, _RED = 1, 2, 3      # 0: not stored


def nested_dfs(initial_nodes, successors, is_accepting,
               max_stored: int | None = None, colors: bytearray | None = None,
               red_successors=None):
    """Find an accepting lasso, or certify there is none.

    Nodes are non-negative ints: a node's colour is the byte at its index
    in ``colors`` (a fresh ``bytearray`` when None), which doubles when a
    node falls past its end, so node ids should be dense.  Returns (result,
    stored) where stored is the number of distinct nodes colored, and
    result is either None (no accepting cycle reachable) or (prefix_nodes,
    cycle_nodes) with the last cycle node having an edge back to the first
    cycle node.  Deterministic for deterministic inputs.  Raises
    ResourceCapExceeded when more than ``max_stored`` nodes would be
    stored.  A node is cyan while on the blue stack, then blue, or red once
    a red search has passed it.  Every node, initial or not, is stored at
    one site, as a child of a stack frame.

    The blue search expands a node by ``successors``, the red search by
    ``red_successors`` (``successors`` when None).  Colours only advance,
    so ``successors`` may leave out a child that is blue or red in
    ``colors`` when it is called: the blue search would pass it over.  The
    red search recolours blue children, so ``red_successors`` must list
    every child.  The search counts no edges; ``Product.successors``
    counts the edges of every expansion in ``Product.transitions``, also
    those to the children it leaves out.
    """
    cap = float("inf") if max_stored is None else max_stored
    if colors is None:
        colors = bytearray(1024)
    stored = 0
    # The root frame's children are the initial nodes.  Its node, None, is
    # never tested by is_accepting: while the root is the only frame no node
    # is cyan, and popping the root ends the search.  Lasso chains skip it.
    stack = [(None, iter(initial_nodes))]
    while True:
        node, it = stack[-1]
        for child in it:
            try:
                color = colors[child]
            except IndexError:
                _fit(colors, child)
                color = 0
            if color == _CYAN and (is_accepting(node) or is_accepting(child)):
                chain = [frame[0] for frame in stack[1:]]
                at = chain.index(child)
                return (chain[:at], chain[at:]), stored
            if not color:
                colors[child] = _CYAN
                stored += 1
                if stored > cap:
                    raise ResourceCapExceeded(stored)
                stack.append((child, iter(successors(child))))
                break
        else:
            stack.pop()
            if not stack:
                return None, stored
            if is_accepting(node):
                found = _red_search(node, red_successors or successors, colors)
                if found is not None:
                    red_path, target = found
                    chain = [frame[0] for frame in stack[1:]] + [node]
                    at = chain.index(target)
                    cycle = chain[at:] + red_path[1:]
                    return (chain[:at], cycle), stored
                colors[node] = _RED
            else:
                colors[node] = _BLUE


def _fit(colors: bytearray, node: int) -> None:
    """Double ``colors`` until ``node`` indexes it; the new slots are 0."""
    size = max(len(colors), 1)
    while size <= node:
        size *= 2
    colors.extend(bytes(size - len(colors)))


def _red_search(seed, successors, colors):
    """Depth-first hunt, from an accepting postorder node, for an edge back
    into the blue stack (a cyan node).  Returns (path seed..last, target).
    Every node reachable from the seed is colored, and the seed is still
    cyan, so a red path back to it closes the cycle."""
    stack = [(seed, iter(successors(seed)))]
    while stack:
        for child in stack[-1][1]:
            color = colors[child]
            if color == _CYAN:
                return [frame[0] for frame in stack], child
            if color == _BLUE:
                colors[child] = _RED
                stack.append((child, iter(successors(child))))
                break
        else:
            stack.pop()
    return None


# ---------------------------------------------------------------------------
# Instance × automaton product.

class Product:
    """Lazy product of an instance's state graph with a Büchi automaton.

    Nodes are packed integers gid * n_automaton_states + automaton_state,
    where gid is the instance's id of the global state.  The graph belongs
    to the instance; the product labels each state it reaches, once.

    A state's *letter* is the bitmask of the propositions true in it (bit i
    for ``ba.aps[i]``).  Each distinct letter gets a small letter id when it
    first appears, and ``_letter[gid]``, an ``array("i")`` by gid, holds the
    letter id of state gid, or -1 until the state is labelled.  The row
    ``_moves[q][lid]`` lists q's automaton successors whose label letter
    ``lid`` meets, in ``ba.succ[q]`` order, and the last row, ``_moves[-1]``,
    does the same for ``ba.initial``; every row is filled when the letter
    appears.  So expanding a node, or the initial states, reads one slot
    and one row entry per Kripke state, and the rows grow with the distinct
    letters seen, not with the 2^|aps| possible ones.

    Automaton states with equal successor tuples share one row object
    (tableau nodes with equal ``next`` obligations have equal successors),
    so a new letter fills each distinct row once: under fairness the
    ``relay`` automaton of ``byz`` has 10 states but 2 distinct successor
    tuples, and that of ``omit`` 22 but 3.

    ``colors`` is the colour array of the search (see ``nested_dfs``),
    sized as the instance interns states; ``check_spec`` searches with it.
    An expansion of a node (gid, q) is one *block* per successor gid2: the
    nodes (gid2, q2) for each q2 that q's row lists for gid2's letter.
    ``successors``, the blue search's expansion, emits only the nodes of a
    block that are not yet blue or red, and the first time it emits none of
    a block it records the block's size in ``_finished[id(row)][gid2]``
    (-1 until then).  From then on it adds that size to ``transitions``
    without building the block: colours only advance, so a node that is
    finished when a list is built is one the search passes over whenever it
    reaches it, and the search, its counts and its lasso are those of the
    full lists.  The table of a row is made on its first blue expansion.
    ``all_successors``, the red search's expansion, lists every node, and
    so does ``initial_nodes``.  Searched with colours of its own,
    ``successors`` finds no node finished and lists every node too.

    In the raw interleaving a self-loop makes the search expand a state and
    then, at once, the same state under another automaton state, often of
    the same row.  So ``successors`` keeps the gid, the row, the list and
    the edge count of its last expansion, and when the next call has the
    same gid and the same row it returns that list again, counting its
    edges again in ``transitions``.  The reuse is exact: a row only grows,
    by entries for new letter ids, a gid's successor run and letter id are
    fixed once stored, and a node the list holds that has finished since
    it was built is one the search passes over.  The searches only iterate
    the lists they get, so two stack frames may share one.
    """

    def __init__(self, inst: Instance, ba: BuchiAutomaton):
        self.inst = inst
        self.ba = ba
        self.nq = max(ba.n_states(), 1)
        self._letter_of = inst.compile_ap(ba.aps)
        self._accept_flags = [q in ba.accepting for q in range(ba.n_states())]
        self._letter = array("i")               # gid -> letter id, or -1
        self._letter_ids: dict[int, int] = {}    # letter -> id, in id order
        # One row per automaton state, then the row of the initial states;
        # states with equal successor tuples share one row object.
        rows: dict[tuple[int, ...], list[list[int]]] = {}
        self._moves = [rows.setdefault(states, [])
                       for states in (*ba.succ, ba.initial)]
        self._rows = list(rows.items())          # (successor tuple, row)
        self.colors = bytearray()                # node -> colour
        # id(row) -> gid -> size of its finished block, or -1.
        self._finished: dict[int, array] = {}
        # The gid, the row, the output list and the edge count of the last
        # blue expansion.
        self._last: tuple = (-1, None, [], 0)
        self.transitions = 0

    def _label(self, gid: int) -> int:
        """Label state ``gid``: its letter id, assigned on the first visit."""
        letter = self._letter_of(self.inst.states[gid])
        lid = self._letter_ids.get(letter)
        if lid is None:
            lid = self._letter_ids[letter] = len(self._letter_ids)
            for states, row in self._rows:
                row.append(self.ba.entered(states, letter))
        self._letter[gid] = lid
        return lid

    def _size_tables(self) -> None:
        """Give every table by gid a slot for each state the instance has
        interned: the letter ids, the colours and the finished blocks."""
        missing = len(self.inst.states) - len(self._letter)
        if missing:
            unknown = array("i", [-1]) * missing
            self._letter.extend(unknown)
            self.colors.extend(bytes(missing * self.nq))
            for finished in self._finished.values():
                finished.extend(unknown)

    def initial_nodes(self) -> list[int]:
        return self._expand([self.inst.state_id(state)
                             for state in self.inst.initial_states()],
                            self._moves[-1])

    def successors(self, node: int) -> list[int]:
        gid, q = divmod(node, self.nq)
        row = self._moves[q]
        last_gid, last_row, out, edges = self._last
        if gid != last_gid or row is not last_row:
            out, edges = self._unfinished(self.inst.successor_ids(gid), row)
            self._last = gid, row, out, edges
        self.transitions += edges
        return out

    def all_successors(self, node: int) -> list[int]:
        gid, q = divmod(node, self.nq)
        out = self._expand(self.inst.successor_ids(gid), self._moves[q])
        self.transitions += len(out)
        return out

    def _unfinished(self, gids, row: list[list[int]]) -> tuple[list[int], int]:
        """``_expand`` less the nodes already blue or red, and the number of
        nodes ``_expand`` would list."""
        if len(self._letter) < len(self.inst.states):
            self._size_tables()
        finished = self._finished.get(id(row))
        if finished is None:
            finished = self._finished[id(row)] = \
                array("i", [-1]) * len(self._letter)
        letter, colors, nq, blue = self._letter, self.colors, self.nq, _BLUE
        out: list[int] = []
        edges = 0
        for gid2 in gids:
            size = finished[gid2]
            if size >= 0:
                edges += size
                continue
            lid = letter[gid2]
            if lid < 0:
                lid = self._label(gid2)
            entered = row[lid]
            edges += len(entered)
            base = gid2 * nq
            emitted = len(out)
            for q2 in entered:
                child = base + q2
                if colors[child] < blue:
                    out.append(child)
            if len(out) == emitted:
                finished[gid2] = len(entered)
        return out, edges

    def _expand(self, gids, row: list[list[int]]) -> list[int]:
        """The nodes (gid2, q2) for each gid2 in ``gids`` and each q2 that
        ``row`` lists for gid2's letter, labelling states on first sight."""
        if len(self._letter) < len(self.inst.states):
            self._size_tables()
        letter = self._letter
        nq = self.nq
        out = []
        for gid2 in gids:
            lid = letter[gid2]
            if lid < 0:
                lid = self._label(gid2)
            base = gid2 * nq
            for q2 in row[lid]:
                out.append(base + q2)
        return out

    def is_accepting(self, node: int) -> bool:
        return self._accept_flags[node % self.nq]

    def kripke_state_count(self) -> int:
        return len(self._letter) - self._letter.count(-1)

    def lasso(self, prefix_nodes: list[int], cycle_nodes: list[int]) -> Lasso:
        """The run of a lasso nested_dfs found, with the propositions of each
        state read from the letters the search computed."""
        gids = [node // self.nq for node in prefix_nodes + cycle_nodes]
        states = [self.inst.decode(self.inst.states[gid]) for gid in gids]
        by_id = list(self._letter_ids)
        letters = [by_id[self._letter[gid]] for gid in gids]
        truth = [frozenset(ap for bit, ap in enumerate(self.ba.aps)
                           if letter >> bit & 1) for letter in letters]
        split = len(prefix_nodes)
        return Lasso(states[:split], states[split:], truth)


# ---------------------------------------------------------------------------
# Replay validation and the top-level check.

def reference_successors(inst: Instance, state: EngineState,
                          moves: dict) -> list[EngineState]:
    """The successors of a ``(procs, shareds)`` state by
    ``cfa.step_successors``, one process at a time, deduplicated, in
    ``Instance.successors`` order, or ``[state]`` when no process moves.
    Under symmetry only the first of identical entries moves, and every
    successor's processes are sorted.  ``moves`` memoises the step relation
    per (entry, shareds).  Replay and the tests check the fast path
    (``Instance.successors`` and its step cache) against this relation."""
    procs, shareds = state
    out: dict[EngineState, None] = {}
    previous = None
    for i, entry in enumerate(procs):
        if inst.symmetry and entry == previous:
            continue
        previous = entry
        found = moves.get((entry, shareds))
        if found is None:
            found = moves[entry, shareds] = [
                inst.entry(succ) for succ in step_successors(
                    inst.valuation(entry, shareds), inst.model.cfa)]
        for new_entry, new_shareds in found:
            new_procs = procs[:i] + (new_entry,) + procs[i + 1:]
            if inst.symmetry:
                new_procs = tuple(sorted(new_procs))
            out[(new_procs, new_shareds)] = None
    if not out:
        out[state] = None
    return list(out)


def replay_lasso(inst: Instance, lasso: Lasso, negated: Formula) -> list[str]:
    """Re-derive everything the lasso claims; returns problems (empty = valid).

    Checks that the first state is initial by the model's declarations,
    that each consecutive pair of states (the cycle's wrap-around included)
    is an edge of ``reference_successors``, that the recorded proposition
    sets match ``ltl.ap_holds`` on every process's valuation, and that the
    negated formula is true on the lasso's word.  Neither the edges nor the
    labels are checked with the fast path that found them: not with
    ``inst.successors`` or its step cache, nor with ``inst.compile_ap``.
    """
    problems: list[str] = []
    states = lasso.states()
    if not lasso.cycle:
        return ["lasso has an empty cycle"]
    model = inst.model
    initial = {model.statuses.index(s) for s in model.initial_statuses}
    zero_locals = (0,) * len(model.locals)
    procs, shareds = states[0]
    if (len(procs) != inst.count or shareds != (0,) * len(model.shareds)
            or any(status not in initial or values != zero_locals
                   for status, values in procs)):
        problems.append("position 0: first state is not an initial state")
    moves: dict = {}
    for i, here in enumerate(states):
        successors = reference_successors(inst, here, moves)
        if i + 1 < len(states):
            if states[i + 1] not in successors:
                problems.append(f"position {i}: recorded transition is not a successor")
        elif lasso.cycle[0] not in successors:
            problems.append("cycle does not close (last cycle state cannot reach the first)")

    aps = formula_aps(negated)
    truth = []
    for procs, shareds in states:
        views = [inst.valuation(entry, shareds) for entry in procs]
        truth.append(frozenset(ap for ap in aps if ap_holds(ap, views, inst.env)))
    if [set(t) for t in truth] != [set(t) for t in lasso.ap_truth]:
        problems.append("recorded proposition sets disagree with direct evaluation")
    split = len(lasso.prefix)
    if not eval_formula_on_lasso(negated, truth[:split], truth[split:]):
        problems.append("negated formula is false on the lasso word "
                        "(the run would not witness a violation)")
    return problems


def combined_formula(model: ModelDef, spec_name: str, fairness: bool) -> Formula:
    """The formula actually checked: the spec itself, or spec ∨ unfairness
    when the spec has an `unless` clause and fairness is enabled."""
    spec = model.spec(spec_name)
    if not fairness or spec.unless is None:
        return spec.formula
    return disjoin(spec.formula, model.unfairness_formula(spec.unless))


@functools.lru_cache(maxsize=1)
def _instance(model: ModelDef, env_items: tuple[tuple[str, int], ...],
              symmetry: bool) -> Instance:
    """The instance of the last check, with the graph every check of it
    built, until a check of another instance starts."""
    return Instance(model, dict(env_items), symmetry=symmetry)


def check_spec(model: ModelDef, env: ParamEnv, spec_name: str,
               fairness: bool = True, symmetry: bool = True,
               max_states: int = DEFAULT_MAX_PRODUCT_STATES) -> Verdict:
    """Decide whether every run of Instance(model, env) satisfies the spec
    (with its unfairness escape clause, unless fairness is disabled).
    Consecutive checks of one instance share its state graph and step
    cache, which stay referenced until a check of another instance starts:
    the next check of the instance reuses what a capped or interrupted one
    built, and counts what a fresh one does."""
    started = time.monotonic()
    target = combined_formula(model, spec_name, fairness)
    negated = negate_to_nnf(target)
    ba = build_buchi(negated)
    # Checked before the lookup: 4.0 and True equal ints and would hit.
    env_items = tuple(sorted(check_binding(model, env).items()))
    inst = _instance(model, env_items, symmetry)
    product = Product(inst, ba)
    lasso = None
    try:
        result, stored = nested_dfs(
            product.initial_nodes(), product.successors, product.is_accepting,
            max_stored=max_states, colors=product.colors,
            red_successors=product.all_successors)
    except ResourceCapExceeded as cap:
        status, stored = "inconclusive", cap.stored
    else:
        status = "holds"
        if result is not None:
            status, lasso = "violated", product.lasso(*result)
            problems = replay_lasso(inst, lasso, negated)
            if problems:
                raise ModelError("internal error: counterexample failed replay: "
                                 + "; ".join(problems))
    return Verdict(status=status, formula=target, negated=negated,
                   counterexample=lasso, product_states=stored,
                   kripke_states=product.kripke_state_count(),
                   transitions=product.transitions,
                   elapsed_ms=int((time.monotonic() - started) * 1000))
