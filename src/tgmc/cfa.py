"""Control-flow automata: one acyclic graph per model whose initial-to-final
paths each describe one atomic process step.

An edge carries exactly one operation: a guard, a status assignment, an
increment, or a nondeterministic bounded pick.  The step relation of a process
is the union, over all initial→final paths, of the sequential composition of
the edge operations; effects are visible to later operations on the same path.

``build_cfa`` is the one place an automaton is made: it checks the graph's
shape (one entry, one exit, no cycle, no duplicate edge) and orders its
locations once.  ``step_successors`` and ``enumerate_paths`` read that order
(``Cfa.layers``) on every call.  The names an edge uses are checked by the
parser, which reads them with ``op_names``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .core import LinearForm, ModelError, Valuation, eval_linear_form, value

# Placeholder name for the value chosen by a pick operation.
EPS = "eps"


# ---------------------------------------------------------------------------
# Guard expressions: atoms `sv == Z` and `threshold <= var`, closed under && and !.

@value
class SvEq(NamedTuple):
    status: str

    def render(self) -> str:
        return f"sv == {self.status}"


@value
class ThresholdLe(NamedTuple):
    bound: LinearForm
    var: str

    def render(self) -> str:
        return f"{self.bound.render()} <= {self.var}"


@value
class GuardNot(NamedTuple):
    item: "GuardExpr"

    def render(self) -> str:
        return f"!({self.item.render()})"


@value
class GuardAnd(NamedTuple):
    """Flat conjunction (the parser never nests one GuardAnd in another)."""

    items: tuple["GuardExpr", ...]

    def render(self) -> str:
        return " && ".join(item.render() for item in self.items)


GuardExpr = SvEq | ThresholdLe | GuardNot | GuardAnd


def eval_guard(expr: GuardExpr, v: Valuation) -> bool:
    if isinstance(expr, SvEq):
        return v.status == expr.status
    if isinstance(expr, ThresholdLe):
        return eval_linear_form(expr.bound, v.env()) <= v.value(expr.var)
    if isinstance(expr, GuardNot):
        return not eval_guard(expr.item, v)
    if isinstance(expr, GuardAnd):
        return all(eval_guard(item, v) for item in expr.items)
    raise ModelError(f"unknown guard expression {expr!r}")


# ---------------------------------------------------------------------------
# Pick conditions: conjunctions of atoms `a <= b + lin` where a or b may be
# the placeholder `eps` standing for the value being chosen.

@value
class PickAtom(NamedTuple):
    """``lhs <= rhs + offset``; ``lhs``/``rhs`` are variable names or EPS."""

    lhs: str
    rhs: str
    offset: LinearForm = LinearForm()

    def render(self) -> str:
        return f"{self.lhs} <= {self.rhs}{self.offset.render_offset()}"


@value
class PickCond(NamedTuple):
    atoms: tuple[PickAtom, ...]

    def render(self) -> str:
        return " && ".join(atom.render() for atom in self.atoms)

    def has_upper_bound(self) -> bool:
        """True iff some atom places EPS at or below a real variable."""
        return any(a.lhs == EPS and a.rhs != EPS for a in self.atoms)


def pick_range(cond: PickCond, v: Valuation) -> tuple[int, int]:
    """The exact choice set {e ∈ ℕ₀ | v ⊨ cond[e/ε]} as an interval (lo, hi).

    The interval is empty iff lo > hi.  Every variable name in the condition,
    the picked one's included, reads its current (pre-assignment) value in
    ``v``, while EPS stands for the candidate value.
    """
    lo, hi = 0, None
    env = v.env()
    for atom in cond.atoms:
        off = eval_linear_form(atom.offset, env)
        if atom.lhs == EPS and atom.rhs == EPS:         # e <= e + off
            if off < 0:
                return (1, 0)
        elif atom.lhs == EPS:                           # e <= var + off
            bound = v.value(atom.rhs) + off
            hi = bound if hi is None else min(hi, bound)
        elif atom.rhs == EPS:                           # var <= e + off
            bound = v.value(atom.lhs) - off
            lo = max(lo, bound)
        else:                                           # var <= var' + off
            if not v.value(atom.lhs) <= v.value(atom.rhs) + off:
                return (1, 0)
    if hi is None:
        raise ModelError(f"pick condition {cond.render()!r} puts no upper bound on {EPS}")
    return (lo, hi)


# ---------------------------------------------------------------------------
# Operations and the automaton itself.

@value
class Guard(NamedTuple):
    expr: GuardExpr

    def render(self) -> str:
        return f"when {self.expr.render()}"


@value
class SetStatus(NamedTuple):
    status: str

    def render(self) -> str:
        return f"set sv = {self.status}"


@value
class Inc(NamedTuple):
    var: str

    def render(self) -> str:
        return f"inc {self.var}"


@value
class Pick(NamedTuple):
    var: str
    cond: PickCond

    def render(self) -> str:
        return f"pick {self.var} where {self.cond.render()}"


Op = Guard | SetStatus | Inc | Pick


@value
class Edge(NamedTuple):
    src: str
    op: Op
    dst: str


@value
class Cfa(NamedTuple):
    """Acyclic edge-labeled graph with a unique entry and exit location, as
    ``build_cfa`` makes it.  ``layers`` lists every location in topological
    order with its out-edges in declaration order, so the entry
    (``initial``) is its first location and the exit (``final``) its last.
    It is derived from ``edges``, so two automata with equal edges have
    equal layers, and equality and hashing read it to no effect."""

    edges: tuple[Edge, ...]
    layers: tuple[tuple[str, tuple[Edge, ...]], ...]

    initial = property(lambda self: self.layers[0][0])
    final = property(lambda self: self.layers[-1][0])


def op_names(op: Op | GuardExpr) -> list[tuple[str, str]]:
    """The ``(role, name)`` pairs an operation or guard names, in the order
    they are written; a role is ``"status"``, ``"variable"`` or
    ``"parameter"``, and EPS is not a name."""
    if isinstance(op, Guard):
        return op_names(op.expr)
    if isinstance(op, GuardNot):
        return op_names(op.item)
    if isinstance(op, GuardAnd):
        return [pair for item in op.items for pair in op_names(item)]
    if isinstance(op, (SvEq, SetStatus)):
        return [("status", op.status)]
    if isinstance(op, ThresholdLe):
        return [("variable", op.var)] + [("parameter", p) for p in op.bound.names()]
    names = [("variable", op.var)]             # Inc or Pick
    if isinstance(op, Pick):
        for atom in op.cond.atoms:
            names += [("variable", side) for side in (atom.lhs, atom.rhs)
                      if side != EPS]
            names += [("parameter", p) for p in atom.offset.names()]
    return names


def build_cfa(edges: Sequence[Edge]) -> tuple[Cfa | None, list[str]]:
    """The automaton of ``edges``, or None with every shape problem found,
    as human-readable messages.

    The entry is the one location without an incoming edge and the exit the
    one without an outgoing edge.  A single Kahn pass from the entry orders
    the locations; a location it cannot place lies on or after a cycle.  In
    an acyclic graph with one entry and one exit, every location is on an
    entry-to-exit path, so no reachability check is needed.  Each edge must
    be declared once."""
    out: dict[str, list[Edge]] = {}
    indegree: dict[str, int] = {}
    for e in edges:
        out.setdefault(e.src, []).append(e)
        out.setdefault(e.dst, [])
        indegree.setdefault(e.src, 0)
        indegree[e.dst] = indegree.get(e.dst, 0) + 1
    entries = [loc for loc, n in indegree.items() if n == 0]
    exits = [loc for loc, succ in out.items() if not succ]
    problems: list[str] = []
    for role, found in (("entry", entries), ("exit", exits)):
        if len(found) != 1:
            problems.append(f"step block must have exactly one {role} location "
                            f"(found {found or 'none'})")
    seen: set[Edge] = set()
    for e in edges:
        if e in seen:
            problems.append(f"duplicate edge {e.src}->{e.dst}")
        seen.add(e)

    order = list(entries)
    for loc in order:               # Kahn's sort; the list grows as it goes
        for e in out[loc]:
            indegree[e.dst] -= 1
            if indegree[e.dst] == 0:
                order.append(e.dst)
    if len(entries) == len(exits) == 1 and len(order) < len(out):
        unplaced = ", ".join(repr(loc) for loc, n in indegree.items() if n)
        problems.append(f"automaton has a cycle: locations {unplaced} "
                        "cannot be ordered")
    if problems:
        return None, problems
    layers = tuple((loc, tuple(out[loc])) for loc in order)
    return Cfa(tuple(edges), layers), []


def enumerate_paths(cfa: Cfa) -> list[tuple[Op, ...]]:
    """All initial→final paths as operation sequences, in a deterministic
    order (depth-first by edge declaration order)."""
    paths: dict[str, list[tuple[Op, ...]]] = {}
    for loc, out in reversed(cfa.layers):       # the exit comes first
        paths[loc] = ([(e.op,) + rest for e in out for rest in paths[e.dst]]
                      if out else [()])
    return paths[cfa.initial]


def apply_op(v: Valuation, op: Op) -> list[Valuation]:
    """Operational semantics of a single operation, smallest-value first.

    Guards filter, assignments and increments rewrite one field, picks fan out
    over their choice interval; everything else is framed (left unchanged).
    """
    if isinstance(op, Guard):
        return [v] if eval_guard(op.expr, v) else []
    if isinstance(op, SetStatus):
        return [v.with_status(op.status)]
    if isinstance(op, Inc):
        return [v.with_variable(op.var, v.value(op.var) + 1)]
    if isinstance(op, Pick):
        lo, hi = pick_range(op.cond, v)
        return [v.with_variable(op.var, e) for e in range(lo, hi + 1)]
    raise ModelError(f"unknown operation {op!r}")


def step_successors(v: Valuation, cfa: Cfa) -> list[Valuation]:
    """All one-step successors of ``v``: the union over initial→final paths of
    the composed edge operations.

    Implemented as a forward propagation of valuation sets along the acyclic
    graph in topological order, which computes the same union as per-path
    composition because composition distributes over the union at every merge
    location.  Result is deduplicated and sorted for reproducibility.
    """
    at: dict[str, dict[Valuation, None]] = {cfa.initial: {v: None}}
    for loc, out in cfa.layers:
        vals = at.get(loc)
        if not vals:
            continue
        for e in out:
            dst = at.setdefault(e.dst, {})
            for val in vals:
                for nxt in apply_op(val, e.op):
                    dst[nxt] = None
    final = at.get(cfa.final, {})
    return sorted(final, key=lambda w: (w.status, w.locals, w.shareds))
