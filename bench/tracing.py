"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions through which one layer of
``tgmc`` calls the next with wrappers that time each call.  Spans are
aggregated in memory per name (calls, total and self time), because storing
every one of the million-odd spans of a round would dwarf the program's own
memory.  A span's self time is its duration minus the time of the spans it
directly encloses.

The wrapped names are those each layer looks up at call time, so a call is
traced where it crosses from one module into the next:

    harness.run_case          -> harness.run_case (via run_manifest)
    harness.check_spec        -> checker.check_spec (via run_case)
    harness.render_*          -> harness.render
    checker.build_buchi       -> buchi.build
    checker.nested_dfs        -> checker.nested_dfs
    checker.Product.successors-> checker.product_successors
    checker.replay_lasso      -> checker.replay
    kripke.Instance.successors-> kripke.successors
    kripke.step_successors    -> cfa.step (step-cache misses)
    kripke.Instance.compile_ap-> kripke.ap (each evaluator it returns)
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self._open: list[list] = []      # [name, child seconds], innermost last
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.buchi_states = 0
        self.lasso_states = 0
        self.verdicts: list = []
        # Distinct Kripke states built, per (model, params, symmetry).
        self.built: dict[tuple, set] = defaultdict(set)

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` sees each call."""
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            open_spans.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - started
                open_spans.pop()
                if open_spans:
                    open_spans[-1][1] += seconds
                self.calls[name] += 1
                self.total[name] += seconds
                self.self_time[name] += seconds - frame[1]
            if after is not None:
                after(result, args)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, tgmc) -> None:
        harness, checker, kripke = tgmc.harness, tgmc.checker, tgmc.kripke
        wrap = self._patch

        wrap(harness, "run_case",
             self.span("harness.run_case", harness.run_case))
        wrap(harness, "check_spec",
             self.span("checker.check_spec", harness.check_spec,
                       lambda verdict, _: self.verdicts.append(verdict)))
        for attr in ("render_state", "render_trace"):
            wrap(harness, attr, self.span("harness.render", getattr(harness, attr)))
        wrap(checker, "build_buchi",
             self.span("buchi.build", checker.build_buchi, self._count_buchi))
        wrap(checker, "nested_dfs",
             self.span("checker.nested_dfs", checker.nested_dfs))
        wrap(checker.Product, "successors",
             self.span("checker.product_successors", checker.Product.successors))
        wrap(checker, "replay_lasso",
             self.span("checker.replay", checker.replay_lasso, self._count_lasso))
        wrap(kripke, "step_successors",
             self.span("cfa.step", kripke.step_successors))
        wrap(kripke.Instance, "successors",
             self.span("kripke.successors", kripke.Instance.successors,
                       self._record_built))
        wrap(kripke.Instance, "initial_states",
             self.span("kripke.initial_states", kripke.Instance.initial_states,
                       self._record_built))
        compile_ap = kripke.Instance.compile_ap
        wrap(kripke.Instance, "compile_ap",
             lambda inst, ap: self.span("kripke.ap", compile_ap(inst, ap)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _count_buchi(self, ba, _args) -> None:
        self.buchi_states += ba.n_states()

    def _count_lasso(self, _problems, args) -> None:
        self.lasso_states += len(args[1].states())

    def _record_built(self, states, args) -> None:
        # Only states the product search builds count; the successors that
        # counterexample replay asks for are not part of the graph.
        parent = self._open[-1][0] if self._open else None
        if parent not in ("checker.product_successors", "checker.check_spec"):
            return
        inst = args[0]
        key = (inst.model.name, tuple(sorted(inst.env.items())), inst.symmetry)
        self.built[key].update(states)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures of everything traced since ``reset``."""
        ms = 1000.0
        kripke_states = sum(v.kripke_states for v in self.verdicts)
        product_states = sum(v.product_states for v in self.verdicts)
        expansions = self.calls["checker.product_successors"]
        distinct = sum(len(states) for states in self.built.values())
        return {
            "buchi.build_ms": self.total["buchi.build"] * ms,
            "buchi.states": self.buchi_states,
            "cfa.step_calls": self.calls["cfa.step"],
            "cfa.step_ms": self.total["cfa.step"] * ms,
            "kripke.succ_calls": self.calls["kripke.successors"],
            "kripke.succ_self_ms": self.self_time["kripke.successors"] * ms,
            "kripke.states": kripke_states,
            "kripke.rebuild_ratio": kripke_states / distinct if distinct else 0.0,
            "kripke.ap_evals": self.calls["kripke.ap"],
            "kripke.ap_ms": self.total["kripke.ap"] * ms,
            "checker.label_self_ms":
                self.self_time["checker.product_successors"] * ms,
            "checker.dfs_self_ms": self.self_time["checker.nested_dfs"] * ms,
            "checker.product_states": product_states,
            "checker.expansions": expansions,
            "checker.reexpansion_ratio":
                expansions / product_states if product_states else 0.0,
            "checker.product_edges": sum(v.transitions for v in self.verdicts),
            "checker.replays": self.calls["checker.replay"],
            "checker.replay_ms": self.total["checker.replay"] * ms,
            "checker.lasso_states": self.lasso_states,
            "harness.case_overhead_ms": self.self_time["harness.run_case"] * ms,
            # render_trace calls render_state: the self times add up to the
            # time covered by rendering, without counting it twice.
            "harness.render_ms": self.self_time["harness.render"] * ms,
        }

    def spans(self) -> list[dict]:
        """Aggregated spans since ``reset``, for the trace file."""
        return [{"name": name, "calls": self.calls[name],
                 "total_ms": self.total[name] * 1000.0,
                 "self_ms": self.self_time[name] * 1000.0}
                for name in sorted(self.calls)]
