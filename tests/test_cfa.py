"""Control-flow automata: validation, paths, pick ranges, step successors."""

import random

import pytest

from oracles import (linear_form, make_valuation, naive_step_successors,
                     nx_step_paths, random_valuation)
from tgmc.cfa import (EPS, Edge, Guard, Inc, Pick, PickAtom, PickCond,
                      SetStatus, SvEq, ThresholdLe, GuardAnd, GuardNot,
                      apply_op, build_cfa, enumerate_paths, eval_guard,
                      op_names, pick_range, step_successors)
from tgmc.core import ModelError
from tgmc.harness import BUILTIN_NAMES, load_builtin

BYZ_ENV = {"n": 7, "t": 2, "f": 2}


def byz_valuation(status, rcvd, nsnt, env=None):
    return make_valuation(status, {"rcvd": rcvd}, {"nsnt": nsnt}, env or BYZ_ENV)


# -- guards -----------------------------------------------------------------

def test_eval_guard_atoms_and_composites():
    v = byz_valuation("V1", 3, 1)
    assert eval_guard(SvEq("V1"), v)
    assert not eval_guard(SvEq("V0"), v)
    le = ThresholdLe(linear_form(1, t=1), "rcvd")       # t+1 <= rcvd, 3 <= 3
    assert eval_guard(le, v)
    assert not eval_guard(ThresholdLe(linear_form(n=1, t=-1), "rcvd"), v)  # 5 <= 3
    assert eval_guard(GuardNot(SvEq("V0")), v)
    assert eval_guard(GuardAnd((SvEq("V1"), le)), v)
    assert not eval_guard(GuardAnd((SvEq("V0"), le)), v)


# -- pick ranges --------------------------------------------------------------

def test_pick_range_frozen_example():
    # rcvd <= eps && eps <= nsnt + f, at rcvd=1, nsnt=2, f=1: choices {1,2,3}.
    cond = PickCond((PickAtom("rcvd", EPS), PickAtom(EPS, "nsnt", linear_form(f=1))))
    v = byz_valuation("V0", 1, 2, {"n": 4, "t": 1, "f": 1})
    assert pick_range(cond, v) == (1, 3)


def test_pick_range_empty_and_edge_cases():
    cond = PickCond((PickAtom("rcvd", EPS), PickAtom(EPS, "nsnt")))
    lo, hi = pick_range(cond, byz_valuation("V0", 5, 2))
    assert lo > hi                                        # 5 <= e <= 2: empty
    # eps <= eps + off: tautological for off >= 0, contradictory below.
    tauto = PickCond((PickAtom(EPS, EPS), PickAtom(EPS, "nsnt")))
    assert pick_range(tauto, byz_valuation("V0", 0, 2)) == (0, 2)
    contra = PickCond((PickAtom(EPS, EPS, linear_form(-1)),
                       PickAtom(EPS, "nsnt")))
    lo, hi = pick_range(contra, byz_valuation("V0", 0, 2))
    assert lo > hi
    # var <= var' + off atoms gate the whole choice.
    gated = PickCond((PickAtom("rcvd", "nsnt"), PickAtom(EPS, "nsnt")))
    lo, hi = pick_range(gated, byz_valuation("V0", 5, 2))
    assert lo > hi
    assert pick_range(gated, byz_valuation("V0", 1, 2)) == (0, 2)


def test_pick_range_requires_upper_bound():
    unbounded = PickCond((PickAtom("rcvd", EPS),))
    assert not unbounded.has_upper_bound()
    with pytest.raises(ModelError):
        pick_range(unbounded, byz_valuation("V0", 0, 0))


# -- operations ----------------------------------------------------------------

def test_apply_op_semantics():
    v = byz_valuation("V0", 1, 2)
    assert apply_op(v, Guard(SvEq("V0"))) == [v]
    assert apply_op(v, Guard(SvEq("V1"))) == []
    assert apply_op(v, SetStatus("SE")) == [v.with_status("SE")]
    assert apply_op(v, Inc("nsnt")) == [v.with_variable("nsnt", 3)]
    pick = Pick("rcvd", PickCond((PickAtom("rcvd", EPS),
                                  PickAtom(EPS, "nsnt", linear_form(f=1)))))
    out = apply_op(v, pick)
    assert [w.value("rcvd") for w in out] == [1, 2, 3, 4]


# -- structure -----------------------------------------------------------------

def test_validate_rejects_cycles_and_dangles():
    loop = (Edge("qI", Guard(SvEq("V0")), "q1"),
            Edge("q1", Guard(SvEq("V0")), "q1"),
            Edge("q1", Guard(SvEq("V0")), "qF"))
    cfa, problems = build_cfa(loop)
    assert cfa is None
    assert any("cycle" in p for p in problems)
    dangling = (Edge("qI", Guard(SvEq("V0")), "qF"),
                Edge("qI", Guard(SvEq("V0")), "q9"))
    cfa, problems = build_cfa(dangling)
    assert cfa is None
    assert any("q9" in p for p in problems)


def test_op_names_lists_every_name_in_writing_order():
    guard = Guard(GuardAnd((SvEq("V0"), GuardNot(ThresholdLe(
        linear_form(1, t=1), "rcvd")))))
    assert op_names(guard) == [("status", "V0"), ("variable", "rcvd"),
                               ("parameter", "t")]
    assert op_names(SetStatus("AC")) == [("status", "AC")]
    assert op_names(Inc("nsnt")) == [("variable", "nsnt")]
    pick = Pick("rcvd", PickCond((PickAtom("rcvd", EPS),
                                  PickAtom(EPS, "nsnt", linear_form(f=1)))))
    assert op_names(pick) == [("variable", "rcvd"), ("variable", "rcvd"),
                              ("variable", "nsnt"), ("parameter", "f")]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_cfas_validate_cleanly(name):
    model = load_builtin(name)
    assert build_cfa(model.cfa.edges) == (model.cfa, [])
    # The entry and exit are read from the layers, not stored beside them.
    assert model.cfa._fields == ("edges", "layers")
    assert model.cfa.initial == model.cfa.layers[0][0] == "qI"
    assert model.cfa.final == model.cfa.layers[-1][0] == "qF"


@pytest.mark.parametrize("name,expected", [
    ("byz", 10), ("omit", 10), ("symm", 10), ("clean", 4),
])
def test_path_counts(name, expected):
    model = load_builtin(name)
    paths = enumerate_paths(model.cfa)
    oracle = nx_step_paths(model.cfa)
    assert len(paths) == expected
    assert len(oracle) == expected
    assert set(paths) == set(oracle)


# -- step successors -------------------------------------------------------------

def test_byz_step_successors_frozen_examples():
    cfa = load_builtin("byz").cfa
    # A value-1 process sends (nsnt 0→1) and moves to SE; its receive count
    # may advance to anything within the send bound nsnt+f.
    out = step_successors(byz_valuation("V1", 0, 0), cfa)
    assert [(w.status, w.value("rcvd"), w.value("nsnt")) for w in out] == \
        [("SE", 0, 1), ("SE", 1, 1), ("SE", 2, 1)]
    # A sent process that clears both thresholds accepts without sending again.
    out = step_successors(byz_valuation("SE", 5, 5), cfa)
    assert [(w.status, w.value("rcvd"), w.value("nsnt")) for w in out] == \
        [("AC", 5, 5), ("AC", 6, 5), ("AC", 7, 5)]
    # A value-0 process fans out: park, echo-send, or accept, by receive count.
    out = step_successors(byz_valuation("V0", 0, 3), cfa)
    assert [(w.status, w.value("rcvd"), w.value("nsnt")) for w in out] == \
        [("AC", 5, 4), ("SE", 3, 4), ("SE", 4, 4),
         ("V0", 0, 3), ("V0", 1, 3), ("V0", 2, 3)]


def test_clean_step_successor_self_loop():
    cfa = load_builtin("clean").cfa
    v = make_valuation("V0", {"rcvd": 0}, {"nsnt": 0}, {"n": 2, "t": 1})
    assert step_successors(v, cfa) == [v]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_step_successors_against_naive_enumeration(name):
    model = load_builtin(name)
    rng = random.Random(f"steps-{name}")
    for _ in range(250):
        v = random_valuation(rng, model)
        assert step_successors(v, model.cfa) == naive_step_successors(v, model.cfa)
