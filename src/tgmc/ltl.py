"""Temporal formulas without a next-step operator: quantified atomic
propositions and ``ap_holds``, the one definition of their truth, the formula
tree, negation normal form, and direct evaluation on ultimately periodic words.

The direct evaluator is deliberately independent of the automaton pipeline: it
is the ground truth that reported counterexamples are replayed against.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple

from .core import (LinearForm, ModelError, ParamEnv, Valuation, eval_linear_form,
                   value)

# ---------------------------------------------------------------------------
# Atomic propositions, all quantified over the process vector.

@value
class StatusProp(NamedTuple):
    """[∀i. sv_i = Z] / [∃i. sv_i = Z] and their ≠ variants."""

    quant: str          # "all" | "some"
    status: str
    eq: bool = True     # True: sv == Z, False: sv != Z

    def render(self) -> str:
        op = "==" if self.eq else "!="
        return f"{self.quant}(sv {op} {self.status})"


@value
class LessProp(NamedTuple):
    """[∃i. x_i + offset < y_i] for per-process views x, y of declared variables."""

    x: str
    offset: LinearForm
    y: str

    def render(self) -> str:
        return f"some({self.x}{self.offset.render_offset()} < {self.y})"


AtomicProp = StatusProp | LessProp


def ap_holds(ap: AtomicProp, views: list[Valuation], env: ParamEnv) -> bool:
    """The truth of ``ap`` in a state given as its processes' valuations,
    each variable read by its declared name, as the reference step relation
    reads it; over no processes ∀ is true and ∃ false."""
    if isinstance(ap, StatusProp):
        hits = [(v.status == ap.status) == ap.eq for v in views]
        return all(hits) if ap.quant == "all" else any(hits)
    offset = eval_linear_form(ap.offset, env)
    return any(v.value(ap.x) + offset < v.value(ap.y) for v in views)


# ---------------------------------------------------------------------------
# Formula tree.  Negation appears only on literals.

@value
class Literal(NamedTuple):
    ap: AtomicProp
    negated: bool = False


@value
class And(NamedTuple):
    items: tuple["Formula", ...]


@value
class Or(NamedTuple):
    items: tuple["Formula", ...]


@value
class Future(NamedTuple):
    arg: "Formula"


@value
class Globally(NamedTuple):
    arg: "Formula"


@value
class Until(NamedTuple):
    lhs: "Formula"
    rhs: "Formula"


@value
class Release(NamedTuple):
    lhs: "Formula"
    rhs: "Formula"


Formula = Literal | And | Or | Future | Globally | Until | Release

TRUE = And(())
FALSE = Or(())


def children(f: Formula) -> tuple[Formula, ...]:
    """The direct subformulas of ``f``, left to right."""
    if isinstance(f, Literal):
        return ()
    if isinstance(f, (And, Or)):
        return f.items
    if isinstance(f, (Future, Globally)):
        return (f.arg,)
    if isinstance(f, (Until, Release)):
        return (f.lhs, f.rhs)
    raise ModelError(f"unknown formula node {f!r}")


def subformulas(f: Formula) -> list[Formula]:
    """The distinct subformulas of ``f`` in left-to-right post-order: each
    comes after its children, and ``f`` itself comes last."""
    order: dict[Formula, None] = {}

    def walk(g: Formula) -> None:
        if g not in order:
            for child in children(g):
                walk(child)
            order[g] = None
    walk(f)
    return list(order)


def disjoin(*formulas: Formula) -> Or:
    """The disjunction of ``formulas``, splicing in the items of each Or."""
    return Or(tuple(item for f in formulas
                    for item in (f.items if isinstance(f, Or) else (f,))))


def formula_aps(f: Formula) -> tuple[AtomicProp, ...]:
    """Atomic propositions in first-occurrence order (deterministic)."""
    return tuple(dict.fromkeys(g.ap for g in subformulas(f)
                               if isinstance(g, Literal)))


# Each operator's dual under negation; Release is produced by negation and
# never written by users.
_DUAL = {And: Or, Or: And, Future: Globally, Globally: Future,
         Until: Release, Release: Until}


def negate_to_nnf(f: Formula) -> Formula:
    """Negation normal form of ¬f (negations pushed onto literals)."""
    if isinstance(f, Literal):
        return Literal(f.ap, not f.negated)
    negated = tuple(negate_to_nnf(child) for child in children(f))
    dual = _DUAL[type(f)]
    return dual(negated) if isinstance(f, (And, Or)) else dual(*negated)


# Operator symbol and binding strength: literals bind tightest, then the
# unary F and G, then U/R, then &&, then ||.
_SYNTAX = {Future: ("F", 3), Globally: ("G", 3), Until: ("U", 2),
           Release: ("R", 2), And: ("&&", 1), Or: ("||", 0)}


def render_formula(f: Formula) -> str:
    if isinstance(f, Literal):
        return f"!{f.ap.render()}" if f.negated else f.ap.render()
    operands = children(f)
    if not operands:
        return "true" if isinstance(f, And) else "false"
    symbol, strength = _SYNTAX[type(f)]
    if isinstance(f, (Future, Globally)):
        return f"{symbol} {_operand(operands[0], strength - 1)}"
    return f" {symbol} ".join(_operand(child, strength) for child in operands)


def _operand(f: Formula, strength: int) -> str:
    """``f`` as an operand, parenthesised unless it binds tighter than
    ``strength``: nested U/R, && and || keep their grouping."""
    text = render_formula(f)
    if isinstance(f, Literal) or _SYNTAX[type(f)][1] > strength:
        return text
    return f"({text})"


# ---------------------------------------------------------------------------
# Direct evaluation on an ultimately periodic word.
#
# A "letter" is the set (any container supporting `in`) of atomic propositions
# true at that position.  A subformula's truth on the word is one int, bit i
# its truth at position i.  Position arithmetic: after the last cycle position
# the word continues at the first cycle position.

def eval_formula_on_lasso(f: Formula,
                          prefix_letters,
                          cycle_letters) -> bool:
    """Truth of ``f`` at position 0 of the word prefix·cycle^ω.

    Until/Future are least fixpoints of x = b | a & next(x), and
    Release/Globally greatest fixpoints of x = b & (a | next(x)), over the
    finite position graph of the lasso; F b is true U b, and G b false R b.
    """
    if not cycle_letters:
        raise ModelError("lasso cycle must be non-empty")
    letters = list(prefix_letters) + list(cycle_letters)
    loop, last = len(prefix_letters), len(letters) - 1
    everywhere = (1 << len(letters)) - 1
    memo: dict[Formula, int] = {}

    def sat(g: Formula) -> int:
        found = memo.get(g)
        if found is not None:
            return found
        if isinstance(g, Literal):
            x = sum(1 << i for i, letter in enumerate(letters)
                    if (g.ap in letter) != g.negated)
        elif isinstance(g, And):
            x = functools.reduce(operator.and_, map(sat, g.items), everywhere)
        elif isinstance(g, Or):
            x = functools.reduce(operator.or_, map(sat, g.items), 0)
        else:
            least = isinstance(g, (Until, Future))
            operands = children(g)
            if len(operands) == 1:
                operands = (TRUE if least else FALSE, *operands)
            a, b = map(sat, operands)
            x, new = None, 0 if least else everywhere
            while new != x:
                x = new
                after = x >> 1 | (x >> loop & 1) << last     # next(x)
                new = b | a & after if least else b & (a | after)
        memo[g] = x
        return x

    return bool(sat(f) & 1)
