"""System instances: initial states, interleaving, symmetry, labeling."""

import random

import pytest

from oracles import (eval_atomic_prop, multiset_count, naive_step_successors,
                     reference_initial_states, reference_successors)
from tgmc import kripke
from tgmc.buchi import build_buchi
from tgmc.checker import Product, combined_formula, nested_dfs
from tgmc.core import LinearForm, ModelError, make_valuation
from tgmc.dsl import parse_model
from tgmc.harness import TRACE_MAGIC, load_builtin, parse_trace
from tgmc.kripke import Instance
from tgmc.ltl import LessProp, StatusProp, negate_to_nnf


def byz_instance(symmetry=True, env=None):
    return Instance(load_builtin("byz"), env or {"n": 7, "t": 2, "f": 2},
                    symmetry=symmetry)


def decoded(inst, states):
    return [inst.decode(state) for state in states]


def canonical(state):
    """The representative the symmetric engine stores: processes sorted."""
    procs, shareds = state
    return (tuple(sorted(procs)), shareds)


def test_parameter_binding_is_validated():
    model = load_builtin("byz")
    with pytest.raises(ModelError):
        Instance(model, {"n": 7, "t": 2})
    with pytest.raises(ModelError):
        Instance(model, {"n": 7, "t": 2, "f": 2, "x": 1})
    with pytest.raises(ModelError):
        Instance(model, {"n": 1, "t": 0, "f": 2})   # size n-f = -1


def test_initial_state_counts():
    # 5 processes (n-f), statuses V0/V1 free per process.
    inst = byz_instance(symmetry=False)
    assert inst.count == 5
    full = decoded(inst, inst.initial_states())
    assert len(full) == 2 ** 5 == 32
    inst = byz_instance(symmetry=True)
    reduced = decoded(inst, inst.initial_states())
    assert len(reduced) == multiset_count(2, 5) == 6
    # Every full initial state canonicalizes into the reduced set.
    canon = {canonical(s) for s in full}
    assert canon == set(reduced)
    # Shared values and locals start at zero; statuses come from `init`.
    model = load_builtin("byz")
    assert inst.env == {"n": 7, "t": 2, "f": 2}
    assert model.shareds == ("nsnt",)
    for procs, shareds in full + reduced:
        assert shareds == (0,)
        assert all(model.statuses[status] in ("V0", "V1") and values == (0,)
                   for status, values in procs)


def test_zero_process_instance_self_loops():
    inst = Instance(load_builtin("clean"), {"n": 0, "t": 1})
    states = inst.initial_states()
    assert len(states) == 1
    (empty,) = states
    assert inst.decode(empty) == ((), (0,))
    assert inst.successors(empty) == [empty]


def test_successors_move_one_process_and_frame_the_rest():
    inst = byz_instance(symmetry=False)
    model = load_builtin("byz")
    packed = inst.initial_states()[7]
    state = inst.decode(packed)
    for succ in decoded(inst, inst.successors(packed)):
        procs, shareds = state
        new_procs, new_shareds = succ
        changed = [i for i in range(len(procs)) if procs[i] != new_procs[i]]
        assert len(changed) <= 1
        # The mover's step is a single-process step at the old shared values.
        (i,) = changed or (0,)
        old_status, old_locals = procs[i]
        v = make_valuation(model.statuses[old_status],
                           dict(zip(model.locals, old_locals)),
                           dict(zip(model.shareds, shareds)), inst.env)
        singles = {(w.status, tuple(w.value(x) for x in model.locals),
                    tuple(w.value(s) for s in model.shareds))
                   for w in naive_step_successors(v, model.cfa)}
        new_status, new_locals = new_procs[i]
        assert (model.statuses[new_status], new_locals, new_shareds) in singles


def test_symmetric_successors_are_canonical_quotient():
    # The symmetric successor set equals the canonicalized full successor set.
    env = {"n": 4, "t": 1, "f": 1}
    full = byz_instance(symmetry=False, env=env)
    reduced = byz_instance(symmetry=True, env=env)
    rng = random.Random("quotient")
    frontier = full.initial_states()
    for _ in range(60):
        state = rng.choice(frontier)
        via_full = {canonical(s) for s in decoded(full, full.successors(state))}
        via_reduced = set(decoded(reduced, reduced.successors(
            reduced.encode(canonical(full.decode(state))))))
        assert via_full == via_reduced
        frontier = full.successors(state) or frontier


def test_canonicalize_is_idempotent_and_label_preserving():
    # Compiled propositions cannot tell a state from any permutation of its
    # process vector; the sorted vector is a fixed point that every
    # permutation reaches, and the symmetric engine yields only such states:
    # a permutation packs to the same state.
    inst = byz_instance()
    model = load_builtin("byz")
    props = [StatusProp("all", "V0", True), StatusProp("some", "AC", True),
             StatusProp("all", "V1", False),
             LessProp("rcvd", LinearForm(), "nsnt"),
             LessProp("rcvd", LinearForm.of(f=1), "nsnt")]
    letter = inst.compile_ap(props)
    rng = random.Random("canon")
    for _ in range(300):
        procs = tuple((rng.randrange(len(model.statuses)),
                       (rng.randrange(0, 5),))
                      for _ in range(inst.count))
        state = (procs, (rng.randrange(0, 5),))
        c = canonical(state)
        assert canonical(c) == c
        assert sorted(c[0]) == sorted(procs)
        shuffled = list(procs)
        rng.shuffle(shuffled)
        permuted = (tuple(shuffled), state[1])
        assert canonical(permuted) == c
        assert inst.encode(c) == inst.encode(state) == inst.encode(permuted)
        assert inst.decode(inst.encode(permuted)) == c
        assert letter(inst.encode(c)) == letter(inst.encode(state)) == \
            letter(inst.encode(permuted))
        assert letter(inst.encode(c)) == sum(
            1 << i for i, prop in enumerate(props)
            if eval_atomic_prop(prop, c, model, inst.env))
        assert all(canonical(s) == s
                   for s in decoded(inst, inst.successors(inst.encode(c))))


def test_eval_atomic_prop_quantifiers():
    model = load_builtin("byz")
    v0, ac = model.statuses.index("V0"), model.statuses.index("AC")

    def holds(prop, state):
        # An instance of n - f = len(procs) processes, with f = 1.
        inst = Instance(model, {"n": len(state[0]) + 1, "t": 2, "f": 1})
        value = inst.compile_ap([prop])(inst.encode(state)) == 1
        assert value == eval_atomic_prop(prop, state, model, inst.env)
        return value

    empty = ((), (3,))
    assert holds(StatusProp("all", "AC", True), empty) is True
    assert holds(StatusProp("some", "AC", True), empty) is False
    assert holds(LessProp("rcvd", LinearForm(), "nsnt"), empty) is False

    state = (((v0, (0,)), (ac, (3,))), (2,))
    assert holds(StatusProp("some", "AC", True), state) is True
    assert holds(StatusProp("all", "AC", True), state) is False
    assert holds(StatusProp("all", "V1", False), state) is True
    # rcvd < nsnt holds for the first process (0 < 2), not the second.
    assert holds(LessProp("rcvd", LinearForm(), "nsnt"), state) is True
    # rcvd + f < nsnt: 0+1 < 2 holds.
    assert holds(LessProp("rcvd", LinearForm.of(f=1), "nsnt"), state) is True
    # shared-to-shared comparison is per-process but constant: nsnt < nsnt fails.
    assert holds(LessProp("nsnt", LinearForm(), "nsnt"), state) is False


def test_compiled_ap_matches_direct_evaluation():
    # Raw states repeat an entry, whose witness bits are read more than once.
    model = load_builtin("byz")
    props = [StatusProp("all", "V0", True), StatusProp("some", "SE", True),
             StatusProp("some", "V1", False), StatusProp("all", "V1", False),
             LessProp("rcvd", LinearForm(), "nsnt"),
             LessProp("rcvd", LinearForm.of(f=1), "nsnt")]
    for symmetry in (True, False):
        inst = byz_instance(symmetry=symmetry)
        letter = inst.compile_ap(props)
        seen = set(inst.initial_states())
        rng = random.Random("aps")
        for _ in range(200):
            state = rng.choice(sorted(seen, key=inst.decode)[:500])
            seen.update(inst.successors(state))
            assert letter(state) == sum(
                1 << i for i, prop in enumerate(props)
                if eval_atomic_prop(prop, inst.decode(state), model, inst.env))


def test_unknown_names_raise():
    inst = byz_instance()
    with pytest.raises(ModelError, match="unknown status 'ZZ'"):
        inst.compile_ap([StatusProp("some", "AC", True),
                         StatusProp("all", "ZZ", True)])
    with pytest.raises(ModelError, match="unknown variable 'zz'"):
        inst.compile_ap([LessProp("zz", LinearForm(), "nsnt")])
    with pytest.raises(ModelError, match="unknown variable 'n'"):
        inst.compile_ap([LessProp("rcvd", LinearForm(), "n")])
    # Named states enter the engine only through trace parsing.
    with pytest.raises(ModelError, match="unknown status 'ZZ'"):
        parse_trace(f"{TRACE_MAGIC}\nmodel: byz\nparams: n=1, t=0, f=0\n"
                    "spec: relay\nfairness: on\nsymmetry: on\nprefix:\n"
                    "  0: nsnt=0 | ZZ(rcvd=0) | -\n", load_builtin("byz"))


# -- the packed form against the tuple-form reference --------------------------

BARE = """model bare;
param n;
size n;
status A, B;
init A;
step {
  from qI to q1 : when sv == A;
  from q1 to qF : set sv = B;
  from qI to qF : when !(sv == A);
}
spec done: F all(sv == B);
"""

# The first process to move picks any x in 0..m: raw, more than 255 entry ids.
WIDE = """model wide;
param n, m;
size n;
status S0, S1;
init S0;
local x;
shared done;
step {
  from qI to q1 : when sv == S0;
  from q1 to q2 : when !(1 <= done);
  from q2 to q3 : pick x where eps <= x + m;
  from q3 to q4 : inc done;
  from q4 to qF : set sv = S1;
  from q1 to qF : when 1 <= done;
  from qI to qF : when !(sv == S0);
}
spec once: G (some(sv == S1) -> G some(sv == S1));
"""


def reference_reachable(inst):
    """The reachable states of ``inst`` in tuple form, by the reference."""
    seen = set(reference_initial_states(inst))
    frontier, moves = list(seen), {}
    while frontier:
        for succ in reference_successors(inst, frontier.pop(), moves):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


def walk_against_reference(inst):
    """Walk every reachable packed state: it round-trips through decode and
    encode, and its successors decode to the reference's list, in order.
    Returns the decoded reachable states."""
    initial = inst.initial_states()
    assert decoded(inst, initial) == reference_initial_states(inst)
    seen, frontier, moves = set(initial), list(initial), {}
    while frontier:
        state = frontier.pop()
        view = inst.decode(state)
        assert inst.encode(view) == state
        successors = inst.successors(state)
        assert decoded(inst, successors) == \
            reference_successors(inst, view, moves), view
        for succ in successors:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    views = set(decoded(inst, seen))
    assert len(views) == len(seen)
    return views


@pytest.mark.parametrize("model, env, symmetry, reachable", [
    ("byz", {"n": 7, "t": 2, "f": 2}, True, 2688),
    ("omit", {"n": 5, "t": 2, "f": 2}, False, 17498),
    ("clean", {"n": 0, "t": 1}, True, 1),
    # No digit may overflow into its neighbour: a model without locals or
    # shareds, counts above 255, and more than 255 raw entry ids.
    (BARE, {"n": 4}, False, 2 ** 4),
    (BARE, {"n": 300}, True, 301),
    (WIDE, {"n": 2, "m": 1000}, False, 1 + 2 * 1001),
    (WIDE, {"n": 3, "m": 1000}, True, 1 + 1001),
], ids=["byz-n7", "omit-n5-raw", "clean-n0", "bare-n4-raw", "bare-n300",
        "wide-m1000-raw", "wide-m1000"])
def test_packed_graph_matches_the_reference(model, env, symmetry, reachable):
    model = load_builtin(model) if model in ("byz", "omit", "clean") \
        else parse_model(model)
    views = walk_against_reference(Instance(model, env, symmetry=symmetry))
    assert len(views) == reachable
    assert views == reference_reachable(Instance(model, env, symmetry=symmetry))


def test_a_full_field_raises_instead_of_wrapping(monkeypatch):
    # With 8-bit fields, entry id 256 of the raw instance does not fit.
    monkeypatch.setattr(kripke, "_FIELD_BITS", 8)
    monkeypatch.setattr(kripke, "_FIELD_MASK", 255)
    small = Instance(parse_model(WIDE), {"n": 2, "m": 200}, symmetry=False)
    assert len(walk_against_reference(small)) == 1 + 2 * 201
    inst = Instance(parse_model(WIDE), {"n": 2, "m": 1000}, symmetry=False)
    with pytest.raises(ModelError, match="entries"):
        walk_against_reference(inst)
    # ... and shareds id 256 does not either.
    with pytest.raises(ModelError, match="shared vectors"):
        for value in range(300):
            inst.encode((((0, (0,)), (0, (0,))), (value,)))


@pytest.mark.parametrize("symmetry", [True, False], ids=["symmetric", "raw"])
def test_flat_successor_store_matches_successors(monkeypatch, symmetry):
    """Two specs in a row over one instance: the second reads the runs the
    first stored, and every run reads back as the successors' ids."""
    model = load_builtin("byz")
    inst = Instance(model, {"n": 4, "t": 1, "f": 1}, symmetry=symmetry)
    expanded = []
    successors = Instance.successors

    def counting_successors(self, state):
        expanded.append(state)
        return successors(self, state)

    monkeypatch.setattr(Instance, "successors", counting_successors)
    sizes = []
    for spec in ("unforg", "corr"):
        ba = build_buchi(negate_to_nnf(combined_formula(model, spec, True)))
        product = Product(inst, ba)
        nested_dfs(product.initial_nodes(), product.successors,
                   product.is_accepting)
        sizes.append(len(expanded))
    assert 0 < sizes[0] < sizes[1]
    assert len(set(expanded)) == len(expanded)
    monkeypatch.setattr(Instance, "successors", successors)
    for state in expanded:
        gid = inst.state_id(state)
        assert list(inst.successor_ids(gid)) == \
            [inst.state_id(s) for s in inst.successors(state)]
