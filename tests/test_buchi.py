"""Formula → Büchi automaton construction and lasso membership."""

import hashlib
import itertools
import random

import pytest

from oracles import accepts_lasso, brute_eval, random_nnf_formula
from tgmc.buchi import build_buchi
from tgmc.checker import combined_formula
from tgmc.core import LinearForm
from tgmc.harness import resolve_model
from tgmc.ltl import (FALSE, TRUE, Future, Globally, LessProp, Literal,
                      Release, StatusProp, Until, eval_formula_on_lasso,
                      formula_aps, negate_to_nnf)

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
    assert accepts_lasso(ba, [], [LP])
    assert accepts_lasso(ba, [LP, LP], [LP])
    assert not accepts_lasso(ba, [], [E])
    assert not accepts_lasso(ba, [LP], [LP, E])
    # Every state's label requires P true (bit 0 stands for aps[0]).
    assert ba.aps == (P,)
    assert all(need_true == 0b1 and need_false == 0
               for need_true, need_false in ba.labels)
    assert ba.accepting


def test_future_p_accepting_behavior():
    ba = build_buchi(Future(p))
    assert accepts_lasso(ba, [E, E, LP], [LP])
    assert accepts_lasso(ba, [E, E], [LP, E])
    assert accepts_lasso(ba, [], [LP])
    assert not accepts_lasso(ba, [E], [E])


def test_true_and_false_automata():
    ba_true = build_buchi(TRUE)
    assert accepts_lasso(ba_true, [], [E])
    assert accepts_lasso(ba_true, [LP], [E, LQ])
    ba_false = build_buchi(FALSE)
    assert not accepts_lasso(ba_false, [], [E])
    assert not accepts_lasso(ba_false, [LP], [LPQ])


def test_until_and_release():
    ba = build_buchi(Until(p, q))
    assert accepts_lasso(ba, [LP, LP], [LQ])
    assert accepts_lasso(ba, [LQ], [E])
    assert not accepts_lasso(ba, [LP, E], [LQ])
    assert not accepts_lasso(ba, [LP], [LP])        # q never arrives
    ba = build_buchi(Release(q, p))
    assert accepts_lasso(ba, [], [LP])               # p forever
    assert accepts_lasso(ba, [LP], [LPQ, E])         # released at the q
    assert not accepts_lasso(ba, [LP], [E])


def test_fairness_shape_automaton():
    # F G r: the le-proposition must hold from some point on.
    r = Literal(R_AP)
    ba = build_buchi(Future(Globally(r)))
    LR = frozenset({R_AP})
    assert accepts_lasso(ba, [E, E], [LR])
    assert accepts_lasso(ba, [], [LR, LR])
    assert not accepts_lasso(ba, [LR], [LR, E])      # drops out infinitely often
    # G F r accepts that same dropout word.
    ba = build_buchi(Globally(Future(r)))
    assert accepts_lasso(ba, [LR], [LR, E])
    assert not accepts_lasso(ba, [LR], [E])


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
            assert accepts_lasso(ba, prefix, cycle) == \
                brute_eval(f, prefix, cycle)
    # The automata the checker runs: each builtin spec's negated formula,
    # with fairness and without, on every word of a short prefix and cycle
    # over the sets of its propositions.
    checked = set()
    for model_name, spec in BUILTIN_AUTOMATA:
        model = resolve_model(model_name)
        for fairness in (True, False):
            negated = negate_to_nnf(combined_formula(model, spec, fairness))
            # clean's formulas equal byz's, and unforg is one formula in
            # every model: 9 distinct formulas of 24 pairs.
            if negated in checked:
                continue
            checked.add(negated)
            ba = build_buchi(negated)
            aps = formula_aps(negated)
            alphabet = [frozenset(combo) for r in range(len(aps) + 1)
                        for combo in itertools.combinations(aps, r)]
            words = [(list(letters[:split]), list(letters[split:]))
                     for split in (0, 1)
                     for total in (split + 1, split + 2)
                     for letters in itertools.product(alphabet, repeat=total)]
            for prefix, cycle in words:
                assert accepts_lasso(ba, prefix, cycle) == \
                    eval_formula_on_lasso(negated, prefix, cycle), \
                    (model_name, spec, fairness, prefix, cycle)
    assert len(checked) == 9


# The automata of the builtin specs, pinned as (states, SHA-256 of
# repr((rendered aps, labels, succ, initial, sorted(accepting)))).  State
# numbering fixes the product search order, so a change here changes the
# golden counts and counterexamples too.  `unforg` has no `unless` clause,
# and without fairness `corr` and `relay` read alike in every model.
UNFORG = (5, "921bd8586d41e3ba29dc9f30cf7f66fbe10ce9d0608256539e7339318f92ab00")
CORR = (3, "2ec0f62136783a0ceb8b83a9174c38015df6fbda0dfe9ef3916de426058d9ff0")
RELAY = (3, "1c84c032e8a66f85ed36b49902d10fad2b013307a678a5978526c622bcfe2b92")
BYZ_CORR = (10, "58489f8b173731f6ce823fe5161c1f4d67f6f82807078ca797a8ed48de07e577")
BYZ_RELAY = (10, "d3e73e01fda359b913fe9174b25fe57ae0e6d3dbf163fb860379eb9f0e5b8dc4")
BUILTIN_AUTOMATA = {
    # (model, spec): (with fairness, without)
    ("byz", "unforg"): (UNFORG, UNFORG),
    ("byz", "corr"): (BYZ_CORR, CORR),
    ("byz", "relay"): (BYZ_RELAY, RELAY),
    ("omit", "unforg"): (UNFORG, UNFORG),
    ("omit", "corr"): ((22, "541c149eb1349d66c8ef6d5d631ededdc252b56fe77dd7c4bb8c678544203a54"), CORR),
    ("omit", "relay"): ((22, "7e1a1b328ef9cd12ac86ece1064311a280506a0be1f16b05e5d55cfa7602bfb5"), RELAY),
    ("symm", "unforg"): (UNFORG, UNFORG),
    ("symm", "corr"): ((10, "e5ab8a15afe51955201e9f0156efbe80c8c2a112460e8b4b0eb8a8dcfdce7ea7"), CORR),
    ("symm", "relay"): ((10, "7ddbf07740499e880e90dc468e115a3c9074a09031cb19391d2137eadec1f993"), RELAY),
    ("clean", "unforg"): (UNFORG, UNFORG),
    ("clean", "corr"): (BYZ_CORR, CORR),
    ("clean", "relay"): (BYZ_RELAY, RELAY),
}


@pytest.mark.parametrize("fairness", [True, False])
@pytest.mark.parametrize("model_name,spec", list(BUILTIN_AUTOMATA))
def test_builtin_spec_automata_are_pinned(model_name, spec, fairness):
    model = resolve_model(model_name)
    ba = build_buchi(negate_to_nnf(combined_formula(model, spec, fairness)))
    key = repr((tuple(ap.render() for ap in ba.aps), ba.labels, ba.succ,
                ba.initial, sorted(ba.accepting)))
    with_fairness, without = BUILTIN_AUTOMATA[model_name, spec]
    assert (ba.n_states(), hashlib.sha256(key.encode()).hexdigest()) == \
        (with_fairness if fairness else without)
