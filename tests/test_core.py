"""Linear forms, comparisons, resilience conditions, and valuations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import linear_form, make_valuation
from tgmc.cfa import Inc, SetStatus, SvEq
from tgmc.core import (Comparison, LinearForm, ModelError, ResilienceCondition,
                       Valuation, check_resilience, eval_linear_form,
                       normalize_coeffs)
from tgmc.ltl import (FALSE, TRUE, Future, Globally, Literal, Release,
                      StatusProp, Until)

small_ints = st.integers(min_value=-9, max_value=9)
envs = st.fixed_dictionaries({"n": st.integers(0, 20), "t": st.integers(0, 20),
                              "f": st.integers(0, 20)})
forms = st.builds(lambda c, cn, ct, cf: linear_form(c, n=cn, t=ct, f=cf),
                  small_ints, small_ints, small_ints, small_ints)


def test_normalize_drops_zeros_and_sorts():
    assert normalize_coeffs([("t", 0), ("n", 2), ("f", -1)]) == (("f", -1), ("n", 2))


def test_of_and_eval():
    form = linear_form(1, n=1, t=-3)
    assert eval_linear_form(form, {"n": 7, "t": 2}) == 7 - 6 + 1


def test_eval_unbound_parameter():
    with pytest.raises(ModelError):
        eval_linear_form(linear_form(n=1), {"t": 1})


def test_render_examples():
    assert linear_form(1, n=1, t=-3).render() == "n - 3*t + 1"
    assert linear_form(0).render() == "0"
    assert linear_form(-2).render() == "-2"
    assert linear_form(t=-1).render() == "-t"
    assert linear_form(-1, n=1).render() == "n - 1"
    assert linear_form(f=1, t=1).render() == "f + t"


@settings(max_examples=40, deadline=None)
@given(forms, envs)
def test_render_parses_stable_structure(form, env):
    # Structural equality coincides with semantic equality for normal forms.
    same = LinearForm(normalize_coeffs(form.coeffs), form.const)
    assert same == form
    assert eval_linear_form(same, env) == eval_linear_form(form, env)


@pytest.mark.parametrize("op,expected", [
    ("<", True), ("<=", True), ("==", False), ("!=", True),
    (">=", False), (">", False),
])
def test_comparison_ops(op, expected):
    comp = Comparison(linear_form(t=1), op, linear_form(n=1))
    assert comp.holds({"t": 1, "n": 2}) is expected


def test_resilience_condition():
    rc = ResilienceCondition((
        Comparison(linear_form(n=1), ">", linear_form(t=3)),
        Comparison(linear_form(f=1), "<=", linear_form(t=1)),
        Comparison(linear_form(t=1), ">", linear_form(0)),
    ))
    assert check_resilience(rc, {"n": 7, "t": 2, "f": 2})
    assert not check_resilience(rc, {"n": 7, "t": 3, "f": 2})   # 7 > 9 fails
    assert not check_resilience(rc, {"n": 7, "t": 2, "f": 3})
    assert check_resilience(ResilienceCondition(), {})          # vacuous
    assert rc.render() == "n > 3*t && f <= t && t > 0"


def test_valuation_access_and_updates():
    v = make_valuation("V0", {"rcvd": 1}, {"nsnt": 2}, {"n": 3})
    assert v.value("rcvd") == 1
    assert v.value("nsnt") == 2
    assert v.value("n") == 3
    assert v.env() == {"n": 3}
    assert v.with_status("SE").status == "SE"
    assert v.with_variable("rcvd", 5).value("rcvd") == 5
    assert v.with_variable("nsnt", 5).value("nsnt") == 5
    with pytest.raises(ModelError):
        v.value("other")
    with pytest.raises(ModelError):
        v.with_variable("n", 5)   # parameters are not assignable


def test_valuations_hash_and_compare():
    a = make_valuation("V0", {"rcvd": 1}, {"nsnt": 2})
    b = Valuation("V0", (("rcvd", 1),), (("nsnt", 2),))
    assert a == b
    assert hash(a) == hash(b)


P = Literal(StatusProp("all", "V0"))
Q = Literal(StatusProp("some", "AC"), negated=True)
# Records of different classes whose fields are equal tuples.
LOOKALIKES = [
    (TRUE, FALSE),
    (Future(P), Globally(P)),
    (Until(P, Q), Release(P, Q)),
    (SvEq("V0"), SetStatus("V0")),
    (SvEq("V0"), Inc("V0")),
    (SetStatus("V0"), Inc("V0")),
]


@pytest.mark.parametrize("a,b", LOOKALIKES)
def test_records_of_different_classes_are_unequal(a, b):
    assert tuple(a) == tuple(b)
    assert not a == b and not b == a
    assert a != b and b != a
    assert hash(a) == hash(b)
    assert len({a, b}) == 2
    assert {a: 1, b: 2}[a] == 1


@pytest.mark.parametrize("record", [
    TRUE, Future(P), Until(P, Q), SvEq("V0"), linear_form(1, n=2),
    make_valuation("V0", {"rcvd": 1}),
])
def test_record_value_semantics(record):
    plain = tuple(record)
    assert not record == plain and not plain == record
    assert record != plain and plain != record
    twin = type(record)(*plain)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], plain[0])
