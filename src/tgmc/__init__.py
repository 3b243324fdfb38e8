"""Explicit-state model checker for threshold-guarded fault-tolerant
broadcast algorithms.

Models are acyclic control-flow automata over a status variable, counters,
and thresholds that are linear forms in the system parameters.  For a
concrete parameter binding the package builds the interleaved state space of
N identical processes and checks LTL (without Next) specifications built
from quantified atomic propositions, under an optional declarative
communication-fairness escape clause.
"""

from .checker import Lasso, Verdict, check_spec, combined_formula
from .core import ModelError
from .dsl import parse_model, parse_params_binding
from .harness import (BUILTIN_NAMES, CaseSpec, RunRecord, load_builtin,
                      read_manifest, run_manifest)
from .ltl import negate_to_nnf

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES", "CaseSpec", "Lasso", "ModelError", "RunRecord",
    "Verdict", "check_spec", "combined_formula", "load_builtin",
    "negate_to_nnf", "parse_model", "parse_params_binding", "read_manifest",
    "run_manifest",
]
