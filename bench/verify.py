"""Checks of tgmc's verdicts that do not trust the engine that made them.

A check passes when its verdict is the one its manifest expects and, if that
verdict is ``violated``, its counterexample replays against the reference
step relation (``cfa.step_successors`` on one process valuation at a time):

- the lasso starts in an initial state;
- each consecutive pair of states, the wrap edge included, differs by the
  move of one process.  Under symmetry the states are canonical (sorted), so
  the other processes need only be unchanged as a multiset; without it the
  engine moves process i in place, so every other process must keep its
  position;
- the propositions recorded at each position are those that this module's
  own ``all``/``some`` evaluation over the process vector gives;
- the negated formula holds on the lasso word (``ltl.eval_formula_on_lasso``).

Nothing here compares against a stored copy of earlier output.
"""

from __future__ import annotations

from collections import Counter

from tgmc.cfa import step_successors
from tgmc.checker import check_spec, combined_formula
from tgmc.core import ModelError, Valuation
from tgmc.harness import resolve_model
from tgmc.ltl import (LessProp, StatusProp, eval_formula_on_lasso,
                      formula_aps, negate_to_nnf)


def parse_params(text: str) -> dict[str, int]:
    """``"n=7,t=2,f=2"`` -> ``{"n": 7, "t": 2, "f": 2}``."""
    env = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        env[name.strip()] = int(value)
    return env


def byz_condition(params: str) -> bool:
    """The resilience condition under which ``byz`` relay holds."""
    env = parse_params(params)
    return env["n"] > 3 * env["t"] and env["f"] <= env["t"]


def _linear(form, env) -> int:
    return form.const + sum(coeff * env[name] for name, coeff in form.coeffs)


def ap_holds(ap, model, env, state) -> bool:
    """Quantified truth of one proposition over the process vector."""
    procs, shareds = state
    if isinstance(ap, StatusProp):
        values = [(model.statuses[status] == ap.status) == ap.eq
                  for status, _ in procs]
        return all(values) if ap.quant == "all" else any(values)
    if isinstance(ap, LessProp):
        offset = _linear(ap.offset, env)
        shared = dict(zip(model.shareds, shareds))

        def view(local_values, name):
            local = dict(zip(model.locals, local_values))
            return local[name] if name in local else shared[name]

        return any(view(local_values, ap.x) + offset < view(local_values, ap.y)
                   for _, local_values in procs)
    raise ModelError(f"unknown atomic proposition {ap!r}")


def _moves(model, params, entry, shareds):
    """(new entry, new shareds) for each reference step of one process."""
    status, local_values = entry
    valuation = Valuation(model.statuses[status],
                          tuple(zip(model.locals, local_values)),
                          tuple(zip(model.shareds, shareds)), params)
    for succ in step_successors(valuation, model.cfa):
        local_map, shared_map = dict(succ.locals), dict(succ.shareds)
        yield ((model.statuses.index(succ.status),
                tuple(local_map[name] for name in model.locals)),
               tuple(shared_map[name] for name in model.shareds))


def is_step(model, params, here, there, symmetry: bool) -> bool:
    """Whether ``there`` follows ``here`` by the move of one process.

    Under symmetry the processes are compared as a multiset; without it,
    by position.
    """
    procs, shareds = here
    procs_after, shareds_after = there
    after = Counter(procs_after)
    any_move = False
    for i, entry in enumerate(procs):
        for new_entry, new_shareds in _moves(model, params, entry, shareds):
            any_move = True
            moved = procs[:i] + (new_entry,) + procs[i + 1:]
            if new_shareds == shareds_after and (
                    Counter(moved) == after if symmetry else moved == procs_after):
                return True
    # A state in which no process can move repeats forever.
    return not any_move and here == there


def is_initial(model, env, state) -> bool:
    procs, shareds = state
    initial = {model.statuses.index(s) for s in model.initial_statuses}
    return (len(procs) == _linear(model.size, env)
            and all(status in initial and not any(local_values)
                    for status, local_values in procs)
            and not any(shareds))


def replay_problems(model, env, lasso, negated,
                    symmetry: bool = True) -> list[str]:
    """Everything wrong with ``lasso`` as a witness of ``negated``."""
    if not lasso.cycle:
        return ["the lasso has an empty cycle"]
    params = tuple((name, env[name]) for name in model.params)
    states = lasso.prefix + lasso.cycle
    problems = []
    if not is_initial(model, env, states[0]):
        problems.append("the lasso does not start in an initial state")
    edges = list(zip(states, states[1:])) + [(lasso.cycle[-1], lasso.cycle[0])]
    for i, (here, there) in enumerate(edges):
        if not is_step(model, params, here, there, symmetry):
            where = "the wrap edge" if i == len(edges) - 1 else f"edge {i}"
            problems.append(f"{where} is not the move of one process")
    aps = formula_aps(negated)
    truth = [frozenset(ap for ap in aps if ap_holds(ap, model, env, s))
             for s in states]
    if [set(t) for t in lasso.ap_truth] != [set(t) for t in truth]:
        problems.append("the recorded propositions disagree with evaluation")
    split = len(lasso.prefix)
    if not eval_formula_on_lasso(negated, truth[:split], truth[split:]):
        problems.append("the negated formula is false on the lasso word")
    return problems


def replay_case(case, symmetry: bool) -> list[str]:
    """Re-run a violated check through ``check_spec`` and replay its lasso.

    ``run_manifest`` returns no counterexample, and ``check_spec`` is
    deterministic, so the re-run finds the lasso the timed run found.
    """
    try:
        model = resolve_model(case.model)
        env = parse_params(case.params)
        fairness = model.spec(case.spec).unless is not None
        verdict = check_spec(model, env, case.spec, fairness=fairness,
                             symmetry=symmetry)
        if verdict.counterexample is None:
            return [f"the re-run gave {verdict.status} without a counterexample"]
        negated = negate_to_nnf(combined_formula(model, case.spec, fairness))
        return replay_problems(model, env, verdict.counterexample, negated,
                               symmetry)
    except ModelError as exc:
        return [f"the re-run failed: {exc}"]


class Verifier:
    """Judges each check of a workload; replays are made once per case."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self._replays: dict = {}

    def failure(self, record) -> str | None:
        """Why the check behind ``record`` failed, or None if it passed."""
        case = record.case
        if record.verdict in ("error", "inconclusive"):
            return f"{record.verdict} {record.detail}".rstrip()
        expected = case.expected
        if self.workload.byz_condition and byz_condition(case.params) != (expected == "holds"):
            return f"the manifest expects {expected}, against n > 3t and f <= t"
        if record.verdict != expected:
            return f"expected {expected}, got {record.verdict}"
        if record.verdict == "violated":
            problems = self._replays.get(case)
            if problems is None:
                problems = replay_case(case, self.workload.symmetry)
                self._replays[case] = problems
            if problems:
                return "replay: " + "; ".join(problems)
        return None
