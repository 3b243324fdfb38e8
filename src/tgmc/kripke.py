"""System instances: a fixed number of identical processes, asynchronously
interleaved, sharing one copy of the shared variables.

A global transition moves exactly one process through its control-flow
automaton (one full initial→final path) while every other process keeps its
status and locals; shared variables are read and written by the mover.

Engine representation (internal, compact, hashable):

    state   = (procs, shareds)
    procs   = tuple of per-process entries (status_index, (local values...))
    shareds = tuple of shared values, in declaration order

Parameters are factored out of states: every state of an instance shares the
instance's binding, so transitions preserve parameters by construction.

Symmetry reduction (on by default) stores one representative per multiset of
process entries — sound because processes are fully interchangeable and every
atomic proposition is quantified over the process vector, hence invariant
under permutations.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .cfa import step_successors
from .core import ModelError, ParamEnv, Valuation, eval_linear_form
from .dsl import ModelDef
from .ltl import AtomicProp, LessProp, StatusProp

# Engine state aliases (documentation only).
ProcEntry = tuple[int, tuple[int, ...]]
EngineState = tuple[tuple[ProcEntry, ...], tuple[int, ...]]


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
        self.statuses = model.statuses
        self._status_index = {s: i for i, s in enumerate(model.statuses)}
        self._locals = model.locals
        self._shareds = model.shareds
        self._params_pairs = tuple((p, env[p]) for p in model.params)
        self._init_indices = tuple(sorted(self._status_index[s]
                                          for s in model.initial_statuses))
        self._cfa = model.cfa
        # (proc entry, shareds) -> tuple of successor (proc entry, shareds)
        self._step_cache: dict[tuple[ProcEntry, tuple[int, ...]],
                               tuple[tuple[ProcEntry, tuple[int, ...]], ...]] = {}
        # The state graph, built on demand and shared by every search over
        # this instance: states interned to dense ids, successor ids per id.
        self.states: list[EngineState] = []
        self._state_ids: dict[EngineState, int] = {}
        self._successor_ids: list[tuple[int, ...] | None] = []

    # -- initial states ------------------------------------------------------

    def initial_states(self) -> list[EngineState]:
        zero_locals = (0,) * len(self._locals)
        zero_shareds = (0,) * len(self._shareds)
        states: list[EngineState] = []
        if self.symmetry:
            combos = itertools.combinations_with_replacement(self._init_indices,
                                                             self.count)
        else:
            combos = itertools.product(self._init_indices, repeat=self.count)
        for combo in combos:
            procs = tuple((idx, zero_locals) for idx in combo)
            states.append((procs, zero_shareds))
        return states

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

    def _entry_successors(self, entry: ProcEntry, shareds: tuple[int, ...]):
        key = (entry, shareds)
        cached = self._step_cache.get(key)
        if cached is None:
            cached = tuple(self.entry(succ) for succ in step_successors(
                self.valuation(entry, shareds), self._cfa))
            self._step_cache[key] = cached
        return cached

    def successors(self, state: EngineState) -> list[EngineState]:
        """All MOVE/FRAME successors, deduplicated, in deterministic order.

        Under symmetry, identical process entries are expanded once (moving
        either of two identical processes yields the same canonical state) and
        each successor's process vector is sorted into its canonical form.
        """
        procs, shareds = state
        out: dict[EngineState, None] = {}
        previous: ProcEntry | None = None
        for i, entry in enumerate(procs):
            if self.symmetry and entry == previous:
                continue
            previous = entry
            for new_entry, new_shareds in self._entry_successors(entry, shareds):
                new_procs = procs[:i] + (new_entry,) + procs[i + 1:]
                if self.symmetry:
                    new_procs = tuple(sorted(new_procs))
                out[(new_procs, new_shareds)] = None
        if not out:
            # A state with no mover (e.g. zero processes) self-loops so that
            # every run is infinite.
            out[state] = None
        return list(out)

    # -- state graph ----------------------------------------------------------

    def state_id(self, state: EngineState) -> int:
        """The dense id of ``state``, interning it on first sight."""
        gid = self._state_ids.get(state)
        if gid is None:
            gid = len(self.states)
            self._state_ids[state] = gid
            self.states.append(state)
            self._successor_ids.append(None)
        return gid

    def successor_ids(self, gid: int) -> tuple[int, ...]:
        """Ids of the successors of state ``gid``, in ``successors`` order;
        ``successors`` runs at most once per state."""
        succ = self._successor_ids[gid]
        if succ is None:
            succ = tuple(self.state_id(s)
                         for s in self.successors(self.states[gid]))
            self._successor_ids[gid] = succ
        return succ

    # -- labeling -------------------------------------------------------------

    def compile_ap(self, ap: AtomicProp) -> Callable[[EngineState], bool]:
        """Fast evaluator for one atomic proposition over engine states."""
        if isinstance(ap, StatusProp):
            if ap.status not in self._status_index:
                raise ModelError(f"unknown status {ap.status!r}")
            target = self._status_index[ap.status]
            want_all = ap.quant == "all"
            eq = ap.eq

            def eval_status(state: EngineState) -> bool:
                procs = state[0]
                if want_all:
                    return all((e[0] == target) == eq for e in procs)
                return any((e[0] == target) == eq for e in procs)

            return eval_status

        if isinstance(ap, LessProp):
            offset = eval_linear_form(ap.offset, self.env)
            x_slot = self._variable_slot(ap.x)
            y_slot = self._variable_slot(ap.y)

            def eval_less(state: EngineState) -> bool:
                procs, shareds = state
                for entry in procs:
                    xv = entry[1][x_slot[1]] if x_slot[0] else shareds[x_slot[1]]
                    yv = entry[1][y_slot[1]] if y_slot[0] else shareds[y_slot[1]]
                    if xv + offset < yv:
                        return True
                return False

            return eval_less
        raise ModelError(f"unknown atomic proposition {ap!r}")

    def _variable_slot(self, name: str) -> tuple[bool, int]:
        """(is_local, index) for a per-process view of a declared variable."""
        if name in self._locals:
            return (True, self._locals.index(name))
        if name in self._shareds:
            return (False, self._shareds.index(name))
        raise ModelError(f"unknown variable {name!r}")

