"""Formula → Büchi automaton construction and lasso membership."""

import itertools
import random

import pytest

from oracles import brute_eval, random_nnf_formula
from tgmc.buchi import build_buchi
from tgmc.checker import buchi_accepts_lasso
from tgmc.core import LinearForm, ModelError
from tgmc.ltl import (FALSE, TRUE, Future, Globally, LessProp, Literal, Or,
                      Release, StatusProp, Until, negate_to_nnf)

P = StatusProp("some", "AC", True)
Q = StatusProp("all", "V1", True)
R_AP = LessProp("rcvd", LinearForm(), "nsnt")

p = Literal(P)
q = Literal(Q)

E = frozenset()
LP = frozenset({P})
LQ = frozenset({Q})
LPQ = frozenset({P, Q})


def test_globally_p_accepts_exactly_p_omega():
    ba = build_buchi(Globally(p))
    assert buchi_accepts_lasso(ba, [], [LP])
    assert buchi_accepts_lasso(ba, [LP, LP], [LP])
    assert not buchi_accepts_lasso(ba, [], [E])
    assert not buchi_accepts_lasso(ba, [LP], [LP, E])
    # Every state's label requires P true (bit 0 stands for aps[0]).
    assert ba.aps == (P,)
    assert all(need_true == 0b1 and need_false == 0
               for need_true, need_false in ba.labels)
    assert ba.accepting


def test_future_p_accepting_behavior():
    ba = build_buchi(Future(p))
    assert buchi_accepts_lasso(ba, [E, E, LP], [LP])
    assert buchi_accepts_lasso(ba, [E, E], [LP, E])
    assert buchi_accepts_lasso(ba, [], [LP])
    assert not buchi_accepts_lasso(ba, [E], [E])


def test_true_and_false_automata():
    ba_true = build_buchi(TRUE)
    assert buchi_accepts_lasso(ba_true, [], [E])
    assert buchi_accepts_lasso(ba_true, [LP], [E, LQ])
    ba_false = build_buchi(FALSE)
    assert not buchi_accepts_lasso(ba_false, [], [E])
    assert not buchi_accepts_lasso(ba_false, [LP], [LPQ])


def test_until_and_release():
    ba = build_buchi(Until(p, q))
    assert buchi_accepts_lasso(ba, [LP, LP], [LQ])
    assert buchi_accepts_lasso(ba, [LQ], [E])
    assert not buchi_accepts_lasso(ba, [LP, E], [LQ])
    assert not buchi_accepts_lasso(ba, [LP], [LP])        # q never arrives
    ba = build_buchi(Release(q, p))
    assert buchi_accepts_lasso(ba, [], [LP])               # p forever
    assert buchi_accepts_lasso(ba, [LP], [LPQ, E])         # released at the q
    assert not buchi_accepts_lasso(ba, [LP], [E])


def test_fairness_shape_automaton():
    # F G r: the le-proposition must hold from some point on.
    r = Literal(R_AP)
    ba = build_buchi(Future(Globally(r)))
    LR = frozenset({R_AP})
    assert buchi_accepts_lasso(ba, [E, E], [LR])
    assert buchi_accepts_lasso(ba, [], [LR, LR])
    assert not buchi_accepts_lasso(ba, [LR], [LR, E])      # drops out infinitely often
    # G F r accepts that same dropout word.
    ba = build_buchi(Globally(Future(r)))
    assert buchi_accepts_lasso(ba, [LR], [LR, E])
    assert not buchi_accepts_lasso(ba, [LR], [E])


def test_lasso_membership_requires_cycle():
    ba = build_buchi(Globally(p))
    with pytest.raises(ModelError):
        buchi_accepts_lasso(ba, [LP], [])


def test_construction_is_deterministic():
    rng = random.Random("determinism")
    for _ in range(50):
        f = random_nnf_formula(rng, 3, (P, Q, R_AP))
        a = build_buchi(f)
        b = build_buchi(f)
        assert a.aps == b.aps
        assert a.labels == b.labels
        assert a.succ == b.succ
        assert a.initial == b.initial
        assert a.accepting == b.accepting


def test_membership_matches_brute_force_on_exhaustive_small_words():
    rng = random.Random("buchi-vs-brute")
    alphabet = (E, LP, LQ, LPQ)
    words = [(prefix, cycle)
             for total in range(1, 4)
             for split in range(total)
             for letters in itertools.product(alphabet, repeat=total)
             for prefix, cycle in [(list(letters[:split]), list(letters[split:]))]]
    for _ in range(40):
        f = random_nnf_formula(rng, 2, (P, Q))
        ba = build_buchi(f)
        for prefix, cycle in words:
            assert buchi_accepts_lasso(ba, prefix, cycle) == \
                brute_eval(f, prefix, cycle)
