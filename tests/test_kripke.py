"""System instances: initial states, interleaving, symmetry, labeling."""

import inspect
import itertools
import random
import sys
from array import array
from collections import Counter

import pytest

from oracles import (eval_atomic_prop, linear_form, make_valuation,
                     multiset_count, naive_step_successors, naive_successors,
                     random_model_text, reference_initial_states)
from tgmc import kripke
from tgmc.buchi import build_buchi
from tgmc.checker import (Product, check_spec, combined_formula, nested_dfs,
                          reference_successors)
from tgmc.core import LinearForm, ModelError
from tgmc.dsl import format_model, parse_model
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
    # Every value is an int, not a bool, and at least 0.
    for bad in ({"t": -1}, {"f": -1}, {"t": True}, {"n": "4"}, {"n": 4.0}):
        with pytest.raises(ModelError):
            Instance(model, {"n": 4, "t": 1, "f": 0, **bad})


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
             LessProp("rcvd", linear_form(f=1), "nsnt")]
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
    assert holds(LessProp("rcvd", linear_form(f=1), "nsnt"), state) is True
    # shared-to-shared comparison is per-process but constant: nsnt < nsnt fails.
    assert holds(LessProp("nsnt", LinearForm(), "nsnt"), state) is False


def test_compiled_ap_matches_direct_evaluation():
    # Raw states repeat an entry, whose witness bits are read more than once.
    model = load_builtin("byz")
    props = [StatusProp("all", "V0", True), StatusProp("some", "SE", True),
             StatusProp("some", "V1", False), StatusProp("all", "V1", False),
             LessProp("rcvd", LinearForm(), "nsnt"),
             LessProp("rcvd", linear_form(f=1), "nsnt")]
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
    with pytest.raises(ModelError, match="unknown parameter 'k'"):
        inst.compile_ap([LessProp("rcvd", LinearForm((("k", 1),), -1), "nsnt")])
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


def test_random_models_match_the_reference():
    """Models with several locals and shareds, where an entry's values are
    read by position (every builtin declares one of each): each model
    round-trips through the formatter, its instances at n = 1, 2, 3 walk as
    the reference does in both modes, every successor set equals the one
    found with values looked up by name, and symmetry changes no verdict."""
    rng = random.Random("random-models")
    verdicts = Counter()
    for i in range(100):
        text = random_model_text(rng, f"random{i}")
        model = parse_model(text)
        assert parse_model(format_model(model)) == model, text
        for n in (1, 2, 3):
            for symmetry in (True, False):
                inst = Instance(model, {"n": n}, symmetry=symmetry)
                memo = {}
                for view in walk_against_reference(inst):
                    assert set(decoded(inst, inst.successors(inst.encode(view)))) \
                        == naive_successors(inst, view, memo), (text, view)
            status = {check_spec(model, {"n": n}, "prop", symmetry=symmetry).status
                      for symmetry in (True, False)}
            assert len(status) == 1, (text, n, status)
            verdicts[status.pop()] += 1
    assert verdicts["holds"] >= 50 and verdicts["violated"] >= 50, verdicts


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
    first stored, and every run reads back as the successors' ids, an
    ``array`` equal to what the call that stored it returned (a later read
    may come from a wider copy of the store)."""
    model = load_builtin("byz")
    inst = Instance(model, {"n": 4, "t": 1, "f": 1}, symmetry=symmetry)
    expanded, first = [], {}
    successors, successor_ids = Instance.successors, Instance.successor_ids

    def counting_successors(self, state):
        expanded.append(state)
        return successors(self, state)

    def recording_successor_ids(self, gid):
        ids = successor_ids(self, gid)
        first.setdefault(gid, ids)
        return ids

    monkeypatch.setattr(Instance, "successors", counting_successors)
    monkeypatch.setattr(Instance, "successor_ids", recording_successor_ids)
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
    monkeypatch.setattr(Instance, "successor_ids", successor_ids)
    for state in expanded:
        gid = inst.state_id(state)
        ids = inst.successor_ids(gid)
        assert isinstance(ids, array) and ids == first[gid]
        assert list(ids) == [inst.state_id(s) for s in inst.successors(state)]


def expand_all(inst):
    """Expand every reachable state of ``inst`` by ``successor_ids``;
    returns the expanded gids in order and, per expansion, the store's
    typecode after it and the largest id its run could have interned."""
    todo = [inst.state_id(state) for state in inst.initial_states()]
    seen, order, codes, tops = set(todo), [], [], []
    while todo:
        gid = todo.pop()
        before = len(inst.states)
        ids = inst.successor_ids(gid)
        for succ in ids:
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
        order.append(gid)
        codes.append(inst._succ.typecode)
        tops.append(before + len(ids) - 1)
    return order, codes, tops


def assert_runs_match_successors(inst, gids):
    for gid in gids:
        assert list(inst.successor_ids(gid)) == [
            inst.state_id(s) for s in inst.successors(inst.states[gid])], gid


def test_successor_store_widens_past_65535_states():
    """An instance of 85,234 states: its ids start as 2-byte ``'H'`` and
    switch to ``'i'`` at the first expansion whose run could intern the
    65,536th state (id 0xFFFF), and every run, also those stored before the
    switch, reads back as its successors' ids.  The offsets are ``'q'``
    from the start."""
    inst = Instance(load_builtin("symm"), {"n": 7, "t": 3, "fp": 0, "fs": 3})
    assert inst._succ.typecode == "H" and inst._succ_at.typecode == "q"
    order, codes, tops = expand_all(inst)
    assert len(inst.states) == 85_234
    switch = codes.index("i")
    assert switch == next(i for i, top in enumerate(tops) if top >= 0xFFFF)
    assert 0 < switch and set(codes[switch:]) == {"i"}
    assert_runs_match_successors(inst, order)


def test_a_successor_id_past_31_bits_raises_instead_of_wrapping(monkeypatch):
    """The 4-byte ids take no wider step: an id of 2**31 raises
    OverflowError, and the state is left unexpanded."""
    inst = byz_instance()
    gid = inst.state_id(inst.initial_states()[0])
    inst._succ = array("i")
    monkeypatch.setattr(Instance, "state_id", lambda self, state: 1 << 31)
    with pytest.raises(OverflowError):
        inst.successor_ids(gid)
    assert inst._succ_at[gid] == -1


def test_an_interrupted_expansion_records_no_run(monkeypatch):
    """An exception while a run's successors are interned leaves no run
    for that state: expanding it again stores the whole run."""
    inst = Instance(load_builtin("byz"), {"n": 5, "t": 1, "f": 1})
    state_id, calls = Instance.state_id, []

    def failing_state_id(self, state):
        calls.append(state)
        if len(calls) == 500:
            raise KeyboardInterrupt
        return state_id(self, state)

    monkeypatch.setattr(Instance, "state_id", failing_state_id)
    with pytest.raises(KeyboardInterrupt):
        expand_all(inst)
    monkeypatch.setattr(Instance, "state_id", state_id)
    order, *_ = expand_all(inst)
    assert_runs_match_successors(inst, order)


def test_an_interrupted_intern_names_no_state_twice():
    """An exception between ``state_id``'s writes never gives two states
    one id."""
    class FailingList(list):
        def append(self, item):
            if len(self) == 3:
                raise KeyboardInterrupt
            super().append(item)

    inst = byz_instance()
    inst.states = FailingList()
    first, second, third, fourth = inst.initial_states()[:4]
    ids = [inst.state_id(state) for state in (first, second, third)]
    with pytest.raises(KeyboardInterrupt):
        inst.state_id(fourth)
    inst.states = list(inst.states)
    ids += [inst.state_id(fourth), inst.state_id(first)]
    assert ids == [0, 1, 2, 3, 0]
    assert all(inst.states[inst.state_id(state)] == state
               for state in (first, second, third, fourth))
    assert len(inst._succ_at) >= len(inst.states)


def new_id_lines(method):
    """The code of ``method`` and the lines of its new-id branch: those
    after its ``if ... is None:`` and before its ``return``."""
    source, first = inspect.getsourcelines(method)
    texts = [line.strip() for line in source]
    start = next(i for i, text in enumerate(texts) if text.endswith("is None:"))
    end = next(i for i, text in enumerate(texts) if text.startswith("return"))
    return method.__code__, range(first + start + 1, first + end)


def interrupted(walk, code, lines, at):
    """Run ``walk`` with a KeyboardInterrupt raised at the ``at``-th line
    boundary that any frame of ``code`` reaches within ``lines``.  Whether
    it was raised: false once ``walk`` passes fewer boundaries."""
    passed = 0

    def trace_line(frame, event, arg):
        nonlocal passed
        if event == "line" and frame.f_lineno in lines:
            passed += 1
            if passed == at:
                raise KeyboardInterrupt
        return trace_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 trace_line if frame.f_code is code else None)
    try:
        walk()
    except KeyboardInterrupt:
        return True
    finally:
        sys.settrace(previous)
    return False


@pytest.mark.parametrize("symmetry", [True, False], ids=["symmetric", "raw"])
def test_an_interrupt_anywhere_in_interning_leaves_a_valid_graph(symmetry):
    """A KeyboardInterrupt at each line boundary of the new-id branches of
    ``_entry_id``, ``_shareds_id`` and ``state_id``, then the whole walk
    again on the same instance: it names the states a fresh instance
    names, each id the state it indexes, and every named state's
    successors are the reference's.  ``len(states)`` is not compared: a
    stopped ``state_id`` may leave a slot that no id names."""
    model, env = load_builtin("byz"), {"n": 3, "t": 1, "f": 1}
    fresh = Instance(model, env, symmetry=symmetry)
    expand_all(fresh)
    moves = {}
    views = [fresh.decode(state) for state in fresh._state_ids]
    want = {view: reference_successors(fresh, view, moves) for view in views}
    interned = {"_entry_id": fresh._entries, "_shareds_id": fresh._shared_vecs,
                "state_id": fresh.states}
    for name, tables in interned.items():
        code, lines = new_id_lines(getattr(Instance, name))
        for at in itertools.count(1):
            inst = Instance(model, env, symmetry=symmetry)
            if not interrupted(lambda: expand_all(inst), code, lines, at):
                break
            expand_all(inst)
            got = {}
            for state, gid in inst._state_ids.items():
                assert inst.states[gid] == state, (name, at)
                got[inst.decode(state)] = decoded(
                    inst, [inst.states[succ] for succ in inst.successor_ids(gid)])
            assert got == want, (name, at)
        # Every new id passes at least one boundary of its branch.
        assert at > len(tables), name
