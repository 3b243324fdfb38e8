#!/usr/bin/env python3
"""Tour of the model layer: parameterized process models and atomic steps.

A model describes one process of a fault-tolerant broadcast algorithm as a
small acyclic control-flow graph.  Every path from the entry to the exit
location is one atomic step: receive some messages, maybe echo, maybe accept.
"""

from tgmc.cfa import enumerate_paths, step_successors
from tgmc.core import check_resilience
from tgmc.dsl import format_model
from tgmc.harness import BUILTIN_NAMES, load_builtin
from tgmc.kripke import Instance

model = load_builtin("byz")

print("=== model text (canonical form) ===")
print(format_model(model))

print("=== resilience condition ===")
print(f"condition: {model.resilience.render()}")
for env in ({"n": 7, "t": 2, "f": 2}, {"n": 7, "t": 3, "f": 3}):
    ok = "satisfied" if check_resilience(model.resilience, env) else "violated"
    print(f"  {env} -> {ok}")
print()

print("=== atomic steps (entry-to-exit paths) ===")
for name in BUILTIN_NAMES:
    m = load_builtin(name)
    print(f"{name}: {len(enumerate_paths(m.cfa))} step paths")
print()
print("each byz path, as the operations it performs:")
for i, ops in enumerate(enumerate_paths(model.cfa), start=1):
    print(f"  {i}: " + "; ".join(op.render() for op in ops))
print()

print("=== one process, one step ===")
env = {"n": 7, "t": 2, "f": 2}
# A process is (status index, local values); the shareds are a tuple too.
v = Instance(model, env).valuation((model.statuses.index("V1"), (0,)), (0,))
print(f"from sv=V1, rcvd=0, nsnt=0 under {env}, a process may step to:")
for nxt in step_successors(v, model.cfa):
    print(f"  sv={nxt.status}  rcvd={nxt.value('rcvd')}  nsnt={nxt.value('nsnt')}")
print("(it echoes - nsnt rises to 1 - and may receive 0..f phantom messages)")
