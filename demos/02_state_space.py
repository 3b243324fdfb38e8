#!/usr/bin/env python3
"""Tour of the state space: interleaving, counting, and symmetry reduction.

A system state is the shared counters plus every process's local view.  One
global transition lets a single process take one atomic step while the rest
stand still.  Because correct processes run identical code and the properties
never name an individual process, states differing only by a permutation of
processes are interchangeable - so the engine stores one state per
equivalence class: a count per distinct process entry, packed with the shared
counters into one integer.  `decode` turns it back into the sorted
representative that traces print.
"""

from tgmc.dsl import parse_params_binding
from tgmc.harness import load_builtin, render_state
from tgmc.kripke import Instance


def reachable_count(inst):
    seen = set(inst.initial_states())
    frontier = list(seen)
    while frontier:
        state = frontier.pop()
        for nxt in inst.successors(state):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


model = load_builtin("byz")
env = parse_params_binding("n=7,t=2,f=2", model)

print("=== initial states ===")
inst = Instance(model, env, symmetry=True)
print(f"byz n=7,t=2,f=2 models n-f = {inst.count} processes, "
      f"each starting V0 or V1:")
for state in inst.initial_states():
    print(f"  {render_state(inst.decode(state), model)}")
print("(with symmetry on, 2^5 = 32 raw combinations collapse to 6 multisets)")
print()

print("=== a few successors of one state ===")
start = inst.initial_states()[-1]
print(f"from  {render_state(inst.decode(start), model)}")
for nxt in inst.successors(start)[:5]:
    print(f"  ->  {render_state(inst.decode(nxt), model)}")
print()

print("=== symmetry shrinks the reachable space, never the verdicts ===")
for params in ("n=4,t=1,f=1", "n=5,t=1,f=1", "n=7,t=2,f=2"):
    env = parse_params_binding(params, model)
    reduced = reachable_count(Instance(model, env, symmetry=True))
    full = reachable_count(Instance(model, env, symmetry=False))
    print(f"  byz {params}: {full:>7} raw states, {reduced:>6} canonical "
          f"({full / reduced:.1f}x smaller)")
