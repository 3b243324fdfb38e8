"""Shared vocabulary: parameter environments, linear forms, resilience conditions,
single-process valuations, and ``value``, which makes a record type.

Every other module builds on these types.  All values live in the naturals;
linear-form *evaluation* is over signed integers because differences such as
``n - 3*t`` may be negative even when every variable is a natural.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

# A parameter environment binds every declared parameter name to a natural.
ParamEnv = dict[str, int]


class ModelError(Exception):
    """A model, parameter binding, or formula is malformed or inconsistent."""


def value(cls):
    """Make a ``typing.NamedTuple`` class a record type, as every runtime
    record is: a record equals only a record of the same class with equal
    fields, never another class's record or a plain tuple, although
    ``And(())`` and ``Or(())`` are equal as tuples.  The hash stays the
    tuple's C hash, so records of different classes with equal fields hash
    alike but stay apart in a set.  Like any named tuple, a record is
    immutable.
    """
    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not __eq__(self, other)

    cls.__eq__, cls.__ne__ = __eq__, __ne__
    return cls


def parse_int(text: str, error: str) -> int:
    """The integer ``text`` spells in ASCII digits after at most one leading
    ``-``; anything else (``--5``, ``+5``, ``²``) raises ModelError(error)."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ModelError(error)
    return int(text)


@value
class LinearForm(NamedTuple):
    """Integer-coefficient linear expression over parameter names plus a constant.

    ``coeffs`` is a tuple of (name, coefficient) pairs, sorted by name with zero
    coefficients dropped, so structural equality coincides with semantic equality.
    """

    coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)

    def render(self) -> str:
        """Concrete syntax, e.g. ``n - 3*t + 1``.  Inverse of the parser."""
        parts: list[str] = []
        for name, coeff in self.coeffs:
            term = name if abs(coeff) == 1 else f"{abs(coeff)}*{name}"
            if not parts:
                parts.append(term if coeff > 0 else f"-{term}")
            else:
                parts.append(f"{'+' if coeff > 0 else '-'} {term}")
        if self.const or not parts:
            if not parts:
                parts.append(str(self.const))
            else:
                parts.append(f"{'+' if self.const > 0 else '-'} {abs(self.const)}")
        return " ".join(parts)

    def render_offset(self) -> str:
        """The form as an offset written after a term: `` + t - 1``,
        `` - 2*t``, or nothing for zero."""
        if not self.coeffs and not self.const:
            return ""
        text = self.render()
        return f" - {text[1:].lstrip()}" if text.startswith("-") else f" + {text}"

    def __str__(self) -> str:
        return self.render()


def normalize_coeffs(items) -> tuple[tuple[str, int], ...]:
    return tuple(sorted((n, c) for n, c in items if c != 0))


def eval_linear_form(form: LinearForm, env: ParamEnv) -> int:
    """Evaluate ``form`` under ``env``.  Signed result; total for complete envs."""
    total = form.const
    for name, coeff in form.coeffs:
        if name not in env:
            raise ModelError(f"unbound parameter {name!r} in linear form {form}")
        total += coeff * env[name]
    return total


COMPARISON_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}


@value
class Comparison(NamedTuple):
    """``lhs ⋈ rhs`` over linear forms."""

    lhs: LinearForm
    op: str
    rhs: LinearForm

    def holds(self, env: ParamEnv) -> bool:
        return COMPARISON_OPS[self.op](eval_linear_form(self.lhs, env),
                                       eval_linear_form(self.rhs, env))

    def render(self) -> str:
        return f"{self.lhs.render()} {self.op} {self.rhs.render()}"


@value
class ResilienceCondition(NamedTuple):
    """Conjunction of comparisons over the parameters (vacuously true if empty)."""

    conjuncts: tuple[Comparison, ...] = ()

    def render(self) -> str:
        return " && ".join(c.render() for c in self.conjuncts)


def check_resilience(rc: ResilienceCondition, env: ParamEnv) -> bool:
    return all(c.holds(env) for c in rc.conjuncts)


@value
class Valuation(NamedTuple):
    """One process state: status value plus local, shared, and parameter bindings.

    Variable tuples are kept in declaration order; ``kripke.Instance.valuation``
    builds one from an engine state, and the ``with_*`` helpers keep that
    order.
    """

    status: str
    locals: tuple[tuple[str, int], ...] = ()
    shareds: tuple[tuple[str, int], ...] = ()
    params: tuple[tuple[str, int], ...] = ()

    def value(self, name: str) -> int:
        for group in (self.locals, self.shareds, self.params):
            for key, val in group:
                if key == name:
                    return val
        raise ModelError(f"unbound variable {name!r} in valuation")

    def env(self) -> ParamEnv:
        return dict(self.params)

    def with_status(self, status: str) -> "Valuation":
        return Valuation(status, self.locals, self.shareds, self.params)

    def with_variable(self, name: str, value: int) -> "Valuation":
        if any(key == name for key, _ in self.locals):
            new_locals = tuple((k, value if k == name else v) for k, v in self.locals)
            return Valuation(self.status, new_locals, self.shareds, self.params)
        if any(key == name for key, _ in self.shareds):
            new_shareds = tuple((k, value if k == name else v) for k, v in self.shareds)
            return Valuation(self.status, self.locals, new_shareds, self.params)
        raise ModelError(f"cannot assign to undeclared variable {name!r}")

