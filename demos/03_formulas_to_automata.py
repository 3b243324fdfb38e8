#!/usr/bin/env python3
"""Tour of the property pipeline: specs, negation, and Büchi automata.

A spec is a temporal formula over counting propositions like `all(sv != AC)`.
To check it, the engine negates the formula (in negation normal form), builds
a Büchi automaton for the negation, and searches the product with the state
space for an accepting cycle - a single infinite run that breaks the spec.
"""

from tgmc.buchi import build_buchi
from tgmc.checker import combined_formula
from tgmc.harness import load_builtin
from tgmc.ltl import (eval_formula_on_lasso, formula_aps, negate_to_nnf,
                      render_formula)

model = load_builtin("byz")

print("=== from spec to automaton ===")
for spec in model.specs:
    target = combined_formula(model, spec.name, fairness=True)
    negated = negate_to_nnf(target)
    ba = build_buchi(negated)
    print(f"{spec.name}:")
    print(f"  checked formula: {render_formula(target)}")
    print(f"  negation (NNF):  {render_formula(negated)}")
    print(f"  automaton:       {ba.n_states()} states, "
          f"{len(formula_aps(negated))} propositions")
print()

print("=== the fairness escape clause ===")
psi = model.unfairness_formula("inequity")
print(f"unfair runs satisfy: {render_formula(psi)}")
print("liveness specs carry `unless inequity`, so the checked formula is")
print("`spec OR inequity`: a run only counts against the spec if every")
print("pending message is eventually delivered.")
print()

print("=== the evaluator on concrete words ===")
f = model.spec("relay").formula
by_text = {ap.render(): ap for ap in formula_aps(f)}
some_ac = by_text["some(sv == AC)"]
all_ac = by_text["all(sv == AC)"]
print(f"relay: {render_formula(f)}")
words = {
    "nobody ever accepts":          ([], [frozenset()]),
    "one accepts, all follow":      ([frozenset({some_ac})],
                                     [frozenset({some_ac, all_ac})]),
    "one accepts, others never do": ([], [frozenset({some_ac})]),
}
for label, (prefix, cycle) in words.items():
    by_eval = eval_formula_on_lasso(f, prefix, cycle)
    print(f"  {label:<32} -> {'satisfied' if by_eval else 'falsified'}")
print("(the tests cross-check the automaton on such words: the checker's")
print("product of a word with it must accept exactly the satisfied ones)")
