"""Temporal formulas without a next-step operator: quantified atomic
propositions, the formula tree, negation normal form, and direct evaluation on
ultimately periodic words.

The direct evaluator is deliberately independent of the automaton pipeline: it
is the ground truth that reported counterexamples are replayed against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import LinearForm, ModelError

# ---------------------------------------------------------------------------
# Atomic propositions, all quantified over the process vector.

@dataclass(frozen=True)
class StatusProp:
    """[∀i. sv_i = Z] / [∃i. sv_i = Z] and their ≠ variants."""

    quant: str          # "all" | "some"
    status: str
    eq: bool = True     # True: sv == Z, False: sv != Z

    def render(self) -> str:
        op = "==" if self.eq else "!="
        return f"{self.quant}(sv {op} {self.status})"


@dataclass(frozen=True)
class LessProp:
    """[∃i. x_i + offset < y_i] for per-process views x, y of declared variables."""

    x: str
    offset: LinearForm
    y: str

    def render(self) -> str:
        return f"some({self.x}{self.offset.render_offset()} < {self.y})"


AtomicProp = StatusProp | LessProp


# ---------------------------------------------------------------------------
# Formula tree.  Negation appears only on literals; Release is produced by
# negation and never written by users.

@dataclass(frozen=True)
class Literal:
    ap: AtomicProp
    negated: bool = False

    def render(self) -> str:
        return f"!{self.ap.render()}" if self.negated else self.ap.render()


@dataclass(frozen=True)
class And:
    items: tuple["Formula", ...]

    def render(self) -> str:
        if not self.items:
            return "true"
        return " && ".join(_render_child(c, And) for c in self.items)


@dataclass(frozen=True)
class Or:
    items: tuple["Formula", ...]

    def render(self) -> str:
        if not self.items:
            return "false"
        return " || ".join(_render_child(c, Or) for c in self.items)


@dataclass(frozen=True)
class Future:
    arg: "Formula"

    def render(self) -> str:
        return f"F {_render_child(self.arg, Future)}"


@dataclass(frozen=True)
class Globally:
    arg: "Formula"

    def render(self) -> str:
        return f"G {_render_child(self.arg, Globally)}"


@dataclass(frozen=True)
class Until:
    lhs: "Formula"
    rhs: "Formula"

    def render(self) -> str:
        return f"{_render_child(self.lhs, Until)} U {_render_child(self.rhs, Until)}"


@dataclass(frozen=True)
class Release:
    lhs: "Formula"
    rhs: "Formula"

    def render(self) -> str:
        return f"{_render_child(self.lhs, Release)} R {_render_child(self.rhs, Release)}"


Formula = Literal | And | Or | Future | Globally | Until | Release

TRUE = And(())
FALSE = Or(())

# Parenthesization for rendering: literals and unary-temporal bodies bind
# tightest, then U/R, then &&, then ||.
_PRECEDENCE = {Literal: 4, Future: 3, Globally: 3, Until: 2, Release: 2, And: 1, Or: 0}


def _render_child(child: "Formula", parent_kind: type) -> str:
    text = child.render()
    child_prec = _PRECEDENCE[type(child)]
    parent_prec = _PRECEDENCE[parent_kind]
    if child_prec < parent_prec or (child_prec == parent_prec == 2):
        return f"({text})"
    return text


def render_formula(f: Formula) -> str:
    return f.render()


def formula_aps(f: Formula) -> tuple[AtomicProp, ...]:
    """Atomic propositions in first-occurrence order (deterministic)."""
    seen: dict[AtomicProp, None] = {}

    def walk(g: Formula) -> None:
        if isinstance(g, Literal):
            seen.setdefault(g.ap, None)
        elif isinstance(g, (And, Or)):
            for item in g.items:
                walk(item)
        elif isinstance(g, (Future, Globally)):
            walk(g.arg)
        elif isinstance(g, (Until, Release)):
            walk(g.lhs)
            walk(g.rhs)
    walk(f)
    return tuple(seen)


def negate_to_nnf(f: Formula) -> Formula:
    """Negation normal form of ¬f (negations pushed onto literals)."""
    if isinstance(f, Literal):
        return Literal(f.ap, not f.negated)
    if isinstance(f, And):
        return Or(tuple(negate_to_nnf(c) for c in f.items))
    if isinstance(f, Or):
        return And(tuple(negate_to_nnf(c) for c in f.items))
    if isinstance(f, Future):
        return Globally(negate_to_nnf(f.arg))
    if isinstance(f, Globally):
        return Future(negate_to_nnf(f.arg))
    if isinstance(f, Until):
        return Release(negate_to_nnf(f.lhs), negate_to_nnf(f.rhs))
    if isinstance(f, Release):
        return Until(negate_to_nnf(f.lhs), negate_to_nnf(f.rhs))
    raise ModelError(f"unknown formula node {f!r}")


# ---------------------------------------------------------------------------
# Direct evaluation on an ultimately periodic word.
#
# A "letter" is the set (any container supporting `in`) of atomic propositions
# true at that position.  Position arithmetic: after the last cycle position
# the word continues at the first cycle position.

def eval_formula_on_lasso(f: Formula,
                          prefix_letters,
                          cycle_letters) -> bool:
    """Truth of ``f`` at position 0 of the word prefix·cycle^ω.

    Until/Future are least fixpoints and Release/Globally greatest fixpoints of
    their expansion laws over the finite position graph of the lasso.
    """
    if not cycle_letters:
        raise ModelError("lasso cycle must be non-empty")
    letters = list(prefix_letters) + list(cycle_letters)
    n = len(letters)
    nxt = list(range(1, n)) + [len(prefix_letters)]
    memo: dict[Formula, list[bool]] = {}

    def sat(g: Formula) -> list[bool]:
        found = memo.get(g)
        if found is not None:
            return found
        if isinstance(g, Literal):
            vec = [(g.ap in letter) != g.negated for letter in letters]
        elif isinstance(g, And):
            child_vecs = [sat(c) for c in g.items]
            vec = [all(cv[i] for cv in child_vecs) for i in range(n)]
        elif isinstance(g, Or):
            child_vecs = [sat(c) for c in g.items]
            vec = [any(cv[i] for cv in child_vecs) for i in range(n)]
        elif isinstance(g, Future):
            a = sat(g.arg)
            vec = _fixpoint(n, nxt, lambda i, v: a[i] or v[nxt[i]], start=False)
        elif isinstance(g, Globally):
            a = sat(g.arg)
            vec = _fixpoint(n, nxt, lambda i, v: a[i] and v[nxt[i]], start=True)
        elif isinstance(g, Until):
            a, b = sat(g.lhs), sat(g.rhs)
            vec = _fixpoint(n, nxt, lambda i, v: b[i] or (a[i] and v[nxt[i]]), start=False)
        elif isinstance(g, Release):
            a, b = sat(g.lhs), sat(g.rhs)
            vec = _fixpoint(n, nxt, lambda i, v: b[i] and (a[i] or v[nxt[i]]), start=True)
        else:
            raise ModelError(f"unknown formula node {g!r}")
        memo[g] = vec
        return vec

    return sat(f)[0]


def _fixpoint(n: int, nxt: list[int], update, start: bool) -> list[bool]:
    vec = [start] * n
    for _ in range(n + 1):
        changed = False
        for i in reversed(range(n)):
            new = update(i, vec)
            if new != vec[i]:
                vec[i] = new
                changed = True
        if not changed:
            break
    return vec
