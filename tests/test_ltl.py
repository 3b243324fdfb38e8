"""Formula tree, rendering, negation normal form, and lasso evaluation."""

import random

import pytest

from oracles import brute_eval, linear_form, random_nnf_formula
from tgmc.core import LinearForm, ModelError
from tgmc.ltl import (FALSE, TRUE, And, Future, Globally, LessProp, Literal, Or,
                      Release, StatusProp, Until, ap_names,
                      eval_formula_on_lasso, formula_aps, negate_to_nnf,
                      render_formula)

P = StatusProp("some", "AC", True)
Q = StatusProp("all", "V1", True)
R_AP = LessProp("rcvd", LinearForm(), "nsnt")

p = Literal(P)
q = Literal(Q)
r = Literal(R_AP)


def letters(*sets):
    return [frozenset(s) for s in sets]


def test_atomic_prop_rendering():
    assert StatusProp("all", "V1", False).render() == "all(sv != V1)"
    assert StatusProp("some", "AC", True).render() == "some(sv == AC)"
    assert LessProp("rcvd", LinearForm(), "nsnt").render() == "some(rcvd < nsnt)"
    assert LessProp("rcvd", linear_form(fs=-1), "nsnt").render() == "some(rcvd - fs < nsnt)"
    assert LessProp("rcvd", linear_form(f=1), "nsnt").render() == "some(rcvd + f < nsnt)"


def test_formula_rendering_and_precedence():
    assert render_formula(TRUE) == "true"
    assert render_formula(FALSE) == "false"
    assert render_formula(Or((q, Globally(p)))) == "all(sv == V1) || G some(sv == AC)"
    assert render_formula(Globally(Or((q, p)))) == "G (all(sv == V1) || some(sv == AC))"
    assert render_formula(And((Or((p, q)), r))) == \
        "(some(sv == AC) || all(sv == V1)) && some(rcvd < nsnt)"
    assert render_formula(Until(p, Until(q, r))) == \
        "some(sv == AC) U (all(sv == V1) U some(rcvd < nsnt))"
    assert render_formula(Literal(P, negated=True)) == "!some(sv == AC)"


def test_negation_examples():
    assert negate_to_nnf(p) == Literal(P, True)
    assert negate_to_nnf(Literal(P, True)) == p
    assert negate_to_nnf(Globally(p)) == Future(Literal(P, True))
    assert negate_to_nnf(Future(p)) == Globally(Literal(P, True))
    assert negate_to_nnf(Until(p, q)) == Release(Literal(P, True), Literal(Q, True))
    assert negate_to_nnf(Release(p, q)) == Until(Literal(P, True), Literal(Q, True))
    assert negate_to_nnf(And((p, q))) == Or((Literal(P, True), Literal(Q, True)))
    assert negate_to_nnf(TRUE) == FALSE
    assert negate_to_nnf(FALSE) == TRUE


def test_double_negation_is_identity():
    rng = random.Random(7)
    for _ in range(200):
        f = random_nnf_formula(rng, 3, (P, Q, R_AP))
        assert negate_to_nnf(negate_to_nnf(f)) == f


def test_formula_aps_first_occurrence_order():
    f = And((Or((q, p)), Until(r, q)))
    assert formula_aps(f) == (Q, P, R_AP)


def test_ap_names_lists_the_status_or_variables_then_parameters():
    assert ap_names(StatusProp("all", "AC", eq=False)) == [("status", "AC")]
    assert ap_names(LessProp("rcvd", linear_form(-1, t=1, f=2), "nsnt")) == [
        ("variable", "rcvd"), ("variable", "nsnt"),
        ("parameter", "f"), ("parameter", "t")]


def test_eval_requires_nonempty_cycle():
    with pytest.raises(ModelError):
        eval_formula_on_lasso(p, [frozenset()], [])


def test_eval_fixed_examples():
    # G p on p^ω and on p·(¬p)^ω.
    assert eval_formula_on_lasso(Globally(p), [], letters({P})) is True
    assert eval_formula_on_lasso(Globally(p), letters({P}), letters(set())) is False
    # F p when p appears only in the prefix, or only in the cycle.
    assert eval_formula_on_lasso(Future(p), letters({P}), letters(set())) is True
    assert eval_formula_on_lasso(Future(p), letters(set()), letters({P}, set())) is True
    assert eval_formula_on_lasso(Future(p), letters(set()), letters(set())) is False
    # G F p needs p in the cycle, not just the prefix.
    gfp = Globally(Future(p))
    assert eval_formula_on_lasso(gfp, letters({P}), letters(set())) is False
    assert eval_formula_on_lasso(gfp, letters(set()), letters({P}, set())) is True
    # p U q: q must arrive while p still holds.
    puq = Until(p, q)
    assert eval_formula_on_lasso(puq, letters({P}, {P, Q}), letters(set())) is True
    assert eval_formula_on_lasso(puq, letters({P}, set()), letters({Q})) is False
    assert eval_formula_on_lasso(puq, letters({Q}), letters(set())) is True
    # q R p: p holds up to and including the releasing q (or forever).
    qrp = Release(q, p)
    assert eval_formula_on_lasso(qrp, [], letters({P})) is True
    assert eval_formula_on_lasso(qrp, letters({P}, {P, Q}), letters(set())) is True
    assert eval_formula_on_lasso(qrp, letters({P}), letters(set())) is False
    # Empty connectives.
    assert eval_formula_on_lasso(TRUE, [], letters(set())) is True
    assert eval_formula_on_lasso(FALSE, [], letters({P})) is False
    # A lasso of 120 positions, prefix 70 and cycle 50: p in the cycle
    # recurs, p in the prefix does not.
    for at, recurs in ((100, True), (30, False)):
        word = [frozenset({P}) if i == at else frozenset() for i in range(120)]
        prefix, cycle = word[:70], word[70:]
        assert eval_formula_on_lasso(Future(p), prefix, cycle) is True
        assert eval_formula_on_lasso(gfp, prefix, cycle) is recurs


def test_eval_agrees_with_walk_oracle_on_random_words():
    rng = random.Random(11)
    alphabet = [frozenset(s) for s in
                ([], [P], [Q], [R_AP], [P, Q], [P, R_AP], [Q, R_AP], [P, Q, R_AP])]
    for _ in range(300):
        f = random_nnf_formula(rng, 3, (P, Q, R_AP))
        plen = rng.randrange(0, 4)
        clen = rng.randrange(1, 4)
        prefix = [rng.choice(alphabet) for _ in range(plen)]
        cycle = [rng.choice(alphabet) for _ in range(clen)]
        expected = brute_eval(f, prefix, cycle)
        assert eval_formula_on_lasso(f, prefix, cycle) is expected
        assert brute_eval(negate_to_nnf(f), prefix, cycle) is (not expected)
    # Longer words: 4 to 16 positions, prefix 0-10 and cycle 1-8.
    rng = random.Random(12)
    checked = 0
    while checked < 300:
        plen = rng.randrange(0, 11)
        clen = rng.randrange(1, 9)
        if not 4 <= plen + clen <= 16:
            continue
        f = random_nnf_formula(rng, 3, (P, Q, R_AP))
        prefix = [rng.choice(alphabet) for _ in range(plen)]
        cycle = [rng.choice(alphabet) for _ in range(clen)]
        assert eval_formula_on_lasso(f, prefix, cycle) is \
            brute_eval(f, prefix, cycle)
        checked += 1
