#!/usr/bin/env python3
"""Tour of the checker: verdicts, counterexample traces, and replay.

Every `violated` verdict comes with a lasso - a finite stem into a repeating
cycle - that the engine re-validates transition by transition before
reporting it.  The same machinery turns a saved trace file back into states
and replays it, so a counterexample can be audited independently.
"""

from tgmc.checker import check_spec, replay_lasso
from tgmc.dsl import parse_params_binding
from tgmc.harness import load_builtin, render_trace, verify_trace
from tgmc.kripke import Instance

model = load_builtin("byz")

print("=== a healthy instance: all three specs hold ===")
env = parse_params_binding("n=7,t=2,f=2", model)
for spec in model.specs:
    verdict = check_spec(model, env, spec.name)
    print(f"  byz n=7,t=2,f=2 {spec.name:<6} -> {verdict.status}   "
          f"({verdict.product_states} product states, "
          f"{verdict.elapsed_ms} ms)")
print()

print("=== too many faults: relay breaks ===")
env = parse_params_binding("n=7,t=1,f=2", model)
verdict = check_spec(model, env, "relay")
print(f"  byz n=7,t=1,f=2 relay -> {verdict.status}")
lasso = verdict.counterexample
trace = render_trace(lasso, model, env=env, spec_name="relay",
                     fairness=True, symmetry=True)
print()
print(trace)

print("=== the counterexample replays against a fresh instance ===")
problems = replay_lasso(Instance(model, env, symmetry=True), lasso,
                        verdict.negated)
print(f"  replay problems: {problems or 'none'}")
print(f"  trace file round-trip: "
      f"{verify_trace(trace, model) or 'valid'}")
print()

print("=== tampering is caught ===")
broken = trace.replace("nsnt=1", "nsnt=9", 1)
for problem in verify_trace(broken, model):
    print(f"  {problem}")
