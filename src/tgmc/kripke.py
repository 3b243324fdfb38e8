"""System instances: a fixed number of identical processes, asynchronously
interleaved, sharing one copy of the shared variables.

A global transition moves exactly one process through its control-flow
automaton (one full initial→final path) while every other process keeps its
status and locals; shared variables are read and written by the mover.

Engine representation: one ``int`` per state.  Each instance interns the
process entries ``(status_index, (local values...))`` and the shared vectors
(values in declaration order) it meets to small ids, and packs a state as

    state = shareds_id + sum of digit_i << (32 + width * i)

The low 32 bits hold the shareds id.  Under symmetry digit i is the number of
processes whose entry has id i, in as many bits as the process count needs,
so no count can carry into its neighbour.  Raw, digit i is the entry id of
process i, in 32 bits.  An instance that would need a 33-bit entry id or
shareds id raises ModelError rather than wrap.  A process's move from one
entry and shared vector to another is one integer delta, cached per
``(entry id, shareds id)``, and each successor is ``state + delta`` (raw:
the entry part shifted to the mover's position).  ``decode`` gives the
tuple view ``(procs, shareds)`` that counterexamples, traces and replay
read, under symmetry with the processes sorted; ``encode`` is its
inverse.

The state graph is built on demand and shared by every search over the
instance.  States are interned to dense ids (gids).  The successor ids of
every expanded state lie back to back in one flat ``array('i')``; since
states are expanded in search order, not gid order, an offset (``array('q')``)
and a length (``array('i')``) per gid find each state's run.  So a state
costs its packed int, its slot in the id dict and in ``states``, 12 bytes
of offset and length, and 4 bytes per successor.

Parameters are factored out of states: every state of an instance shares the
instance's binding, so transitions preserve parameters by construction.

Symmetry reduction (on by default) stores one state per multiset of process
entries, sound because processes are fully interchangeable and every atomic
proposition is quantified over the process vector, hence invariant under
permutations.
"""

from __future__ import annotations

import bisect
import itertools
from array import array
from collections import Counter
from collections.abc import Callable, Sequence

from .cfa import step_successors
from .core import ModelError, ParamEnv, Valuation, eval_linear_form
from .dsl import ModelDef
from .ltl import AtomicProp, LessProp, StatusProp, ap_holds

# The decoded view of a state (documentation only).
ProcEntry = tuple[int, tuple[int, ...]]
EngineState = tuple[tuple[ProcEntry, ...], tuple[int, ...]]

_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1


class Instance:
    """One concrete system: a model plus a complete parameter binding."""

    def __init__(self, model: ModelDef, env: ParamEnv, symmetry: bool = True):
        missing = [p for p in model.params if p not in env]
        if missing:
            raise ModelError(f"missing parameter(s): {', '.join(missing)}")
        extra = [p for p in env if p not in model.params]
        if extra:
            raise ModelError(f"unknown parameter(s): {', '.join(extra)}")
        self.model = model
        self.env = dict(env)
        self.symmetry = symmetry
        self.count = eval_linear_form(model.size, env)
        if self.count < 0:
            raise ModelError(f"size {model.size.render()} evaluates to "
                             f"{self.count} (< 0) under {env}")
        # Digit i sits at bit _shifts[i]: under symmetry one digit per
        # entry id, wide enough for any count; raw one per process.
        self._width = max(self.count.bit_length(), 1) if symmetry else _FIELD_BITS
        self._digit_mask = (1 << self._width) - 1
        self._shifts = [] if symmetry else [_FIELD_BITS + self._width * i
                                            for i in range(self.count)]
        self.statuses = model.statuses
        self._status_index = {s: i for i, s in enumerate(model.statuses)}
        self._locals = model.locals
        self._shareds = model.shareds
        self._params_pairs = tuple((p, env[p]) for p in model.params)
        self._init_indices = tuple(sorted(self._status_index[s]
                                          for s in model.initial_statuses))
        self._cfa = model.cfa
        # Interned process entries and shared vectors; under symmetry the
        # entry ids also in the natural order of their entries.
        self._entries: list[ProcEntry] = []
        self._order: list[int] = []
        self._entry_ids: dict[ProcEntry, int] = {}
        self._shared_vecs: list[tuple[int, ...]] = []
        self._shared_ids: dict[tuple[int, ...], int] = {}
        # (entry id, shareds id) -> the moves of a process there, as deltas:
        # under symmetry one int each, raw (entry id delta, shareds id delta).
        self._step_cache: dict[tuple[int, int], tuple] = {}
        # The state graph, built on demand and shared by every search over
        # this instance: states interned to dense ids (gids), and the
        # successor ids of every expanded state as one run of ``_succ``, at
        # offset ``_succ_at[gid]`` (-1 until expanded), ``_succ_len[gid]`` long.
        self.states: list[int] = []
        self._state_ids: dict[int, int] = {}
        self._succ = array("i")
        self._succ_at = array("q")
        self._succ_len = array("i")

    # -- packing --------------------------------------------------------------

    def _entry_id(self, entry: ProcEntry) -> int:
        eid = self._entry_ids.get(entry)
        if eid is None:
            eid = len(self._entries)
            if not self.symmetry and eid > _FIELD_MASK:
                raise ModelError(f"more than {_FIELD_MASK + 1} process "
                                 "entries in one instance")
            self._entry_ids[entry] = eid
            self._entries.append(entry)
            if self.symmetry:
                self._shifts.append(_FIELD_BITS + self._width * eid)
                bisect.insort(self._order, eid, key=self._entries.__getitem__)
        return eid

    def _shareds_id(self, shareds: tuple[int, ...]) -> int:
        sid = self._shared_ids.get(shareds)
        if sid is None:
            sid = len(self._shared_vecs)
            if sid > _FIELD_MASK:
                raise ModelError(f"more than {_FIELD_MASK + 1} shared vectors "
                                 "in one instance")
            self._shared_ids[shareds] = sid
            self._shared_vecs.append(shareds)
        return sid

    def encode(self, state: EngineState) -> int:
        """The packed form of a ``(procs, shareds)`` state."""
        procs, shareds = state
        if len(procs) != self.count:
            raise ModelError(f"a state of {len(procs)} processes in an "
                             f"instance of {self.count}")
        packed = self._shareds_id(shareds)
        if self.symmetry:
            for entry, n in Counter(procs).items():
                packed += n << self._shifts[self._entry_id(entry)]
        else:
            for shift, entry in zip(self._shifts, procs):
                packed += self._entry_id(entry) << shift
        return packed

    def decode(self, state: int) -> EngineState:
        """The ``(procs, shareds)`` view of a packed state; under symmetry
        the processes come sorted."""
        shareds = self._shared_vecs[state & _FIELD_MASK]
        entries = self._entries
        if self.symmetry:
            procs = tuple(entries[eid] for eid in self.entry_ids(state)
                          for _ in range(state >> self._shifts[eid]
                                         & self._digit_mask))
        else:
            procs = tuple(entries[eid] for eid in self.entry_ids(state))
        return (procs, shareds)

    def entry_ids(self, state: int) -> list[int]:
        """The entry ids of ``state``'s processes: under symmetry each
        distinct entry once, in the natural order of the entries; raw, one
        per process, by position."""
        shifts, mask = self._shifts, self._digit_mask
        if self.symmetry:
            return [eid for eid in self._order if state >> shifts[eid] & mask]
        return [state >> shift & mask for shift in shifts]

    # -- initial states ------------------------------------------------------

    def initial_states(self) -> list[int]:
        zero_locals = (0,) * len(self._locals)
        zero_shareds = (0,) * len(self._shareds)
        if self.symmetry:
            combos = itertools.combinations_with_replacement(self._init_indices,
                                                             self.count)
        else:
            combos = itertools.product(self._init_indices, repeat=self.count)
        return [self.encode((tuple((idx, zero_locals) for idx in combo),
                             zero_shareds))
                for combo in combos]

    # -- transitions ---------------------------------------------------------

    def valuation(self, entry: ProcEntry, shareds: tuple[int, ...]) -> Valuation:
        """One process's view of a state: its entry, the shareds, the binding."""
        status_idx, local_vals = entry
        return Valuation(self.statuses[status_idx],
                         tuple(zip(self._locals, local_vals)),
                         tuple(zip(self._shareds, shareds)),
                         self._params_pairs)

    def entry(self, valuation: Valuation) -> tuple[ProcEntry, tuple[int, ...]]:
        """Inverse of ``valuation``: (process entry, shareds)."""
        local_map = dict(valuation.locals)
        shared_map = dict(valuation.shareds)
        return ((self._status_index[valuation.status],
                 tuple(local_map[n] for n in self._locals)),
                tuple(shared_map[n] for n in self._shareds))

    def _moves(self, eid: int, sid: int) -> tuple:
        """The cached deltas of a process at entry ``eid`` and shareds
        ``sid``, one per reference step successor, in its order."""
        moves = []
        valuation = self.valuation(self._entries[eid], self._shared_vecs[sid])
        for succ in step_successors(valuation, self._cfa):
            new_entry, new_shareds = self.entry(succ)
            new_eid = self._entry_id(new_entry)
            new_sid = self._shareds_id(new_shareds)
            if self.symmetry:
                moves.append((1 << self._shifts[new_eid])
                             - (1 << self._shifts[eid]) + new_sid - sid)
            else:
                moves.append((new_eid - eid, new_sid - sid))
        self._step_cache[eid, sid] = moves = tuple(moves)
        return moves

    def successors(self, state: int) -> list[int]:
        """All MOVE/FRAME successors, deduplicated, in deterministic order.

        Under symmetry each distinct entry moves once (moving either of two
        identical processes yields the same state), the entries in their
        natural order; raw, each process moves, by position.
        """
        sid = state & _FIELD_MASK
        cache = self._step_cache
        out: dict[int, None] = {}
        if self.symmetry:
            for eid in self.entry_ids(state):
                moves = cache.get((eid, sid))
                if moves is None:
                    moves = self._moves(eid, sid)
                for delta in moves:
                    out[state + delta] = None
        else:
            mask = self._digit_mask
            for shift in self._shifts:
                eid = state >> shift & mask
                moves = cache.get((eid, sid))
                if moves is None:
                    moves = self._moves(eid, sid)
                for entry_delta, shareds_delta in moves:
                    out[state + (entry_delta << shift) + shareds_delta] = None
        if not out:
            # A state with no mover (e.g. zero processes) self-loops so that
            # every run is infinite.
            out[state] = None
        return list(out)

    # -- state graph ----------------------------------------------------------

    def state_id(self, state: int) -> int:
        """The dense id of ``state``, interning it on first sight."""
        gid = self._state_ids.get(state)
        if gid is None:
            gid = len(self.states)
            self._state_ids[state] = gid
            self.states.append(state)
            self._succ_at.append(-1)
            self._succ_len.append(0)
        return gid

    def successor_ids(self, gid: int) -> Sequence[int]:
        """Ids of the successors of state ``gid``, in ``successors`` order;
        ``successors`` runs at most once per state.  The first call returns
        the list it stored, later ones a slice of the flat store."""
        at = self._succ_at[gid]
        if at >= 0:
            return self._succ[at:at + self._succ_len[gid]]
        ids = [self.state_id(s) for s in self.successors(self.states[gid])]
        self._succ_at[gid] = len(self._succ)
        self._succ_len[gid] = len(ids)
        self._succ.extend(ids)
        return ids

    # -- labeling -------------------------------------------------------------

    def compile_ap(self, aps: Sequence[AtomicProp]) -> Callable[[int], int]:
        """The letter function of ``aps``: a state's bitmask, bit i set when
        ``aps[i]`` holds.  Per (entry id, shareds id), as ``_moves`` does, it
        caches one process's *witness bits* by ``ltl.ap_holds``: bit i is set
        when the process makes a ``some`` ``aps[i]`` true or an ``all`` one
        false.  A letter ORs its entries' witness bits and flips the ``all``
        bits, so over no processes ∀ is true and ∃ false."""
        for ap in aps:
            if isinstance(ap, StatusProp) and ap.status not in self._status_index:
                raise ModelError(f"unknown status {ap.status!r}")
            for name in (ap.x, ap.y) if isinstance(ap, LessProp) else ():
                if name not in self._locals and name not in self._shareds:
                    raise ModelError(f"unknown variable {name!r}")
        flip = sum(1 << i for i, ap in enumerate(aps)
                   if isinstance(ap, StatusProp) and ap.quant == "all")
        witnesses: dict[tuple[int, int], int] = {}
        entry_ids = self.entry_ids

        def letter(state: int) -> int:
            sid = state & _FIELD_MASK
            bits = 0
            for eid in entry_ids(state):
                found = witnesses.get((eid, sid))
                if found is None:
                    view = [self.valuation(self._entries[eid], self._shared_vecs[sid])]
                    found = witnesses[eid, sid] = sum(
                        1 << i for i, ap in enumerate(aps)
                        if ap_holds(ap, view, self.env) != (flip >> i & 1))
                bits |= found
            return bits ^ flip

        return letter
