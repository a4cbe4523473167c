"""SPMD correctness analysis: static lint + runtime verification.

Two layers over :mod:`repro.mpi`:

* **Static** — ``python -m repro.analyze src/ examples/`` prints
  ``file:line: RULE-ID message`` findings with a CI-friendly exit code.
  One pipeline (:mod:`repro.analyze.engine`): each function definition is
  *lowered* once (:mod:`repro.analyze.lower`), the per-function rules are
  *judged* on that lowering (:mod:`repro.analyze.rules`,
  :mod:`repro.analyze.dataflow`), and per-function summaries are *joined*
  into one whole program for the interprocedural and cost rules
  (:mod:`repro.analyze.interproc`, :mod:`repro.analyze.costlint`).
  ``RULES`` in :mod:`repro.analyze.rules` is the rule catalogue.
* **Runtime** — ``run_spmd(..., check=True)`` (or ``REPRO_CHECK=1``)
  attaches a :class:`~repro.analyze.runtime_check.RuntimeChecker` that
  verifies collective congruence, detects deadlocks via a wait-for graph,
  and reports leaked messages / never-completed requests at finalize —
  without perturbing the virtual clocks.

Attribute access is lazy so that :mod:`repro.mpi` can import the runtime
checker without dragging the lint engine (and its import of
:mod:`repro.mpi.tags`) into a cycle.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "Finding",
    "analyze_paths",
    "analyze_source",
    "analyze_program",
    "CallGraph",
    "check_program",
    "summarize_module",
    "RULES",
    "RuntimeChecker",
    "main",
    "check_conformance",
    "ConformanceReport",
    "extract_function_cost",
]

_EXPORTS = {
    "Finding": ("repro.analyze.astlint", "Finding"),
    "analyze_paths": ("repro.analyze.astlint", "analyze_paths"),
    "analyze_source": ("repro.analyze.astlint", "analyze_source"),
    "analyze_program": ("repro.analyze.engine", "analyze_program"),
    "CallGraph": ("repro.analyze.callgraph", "CallGraph"),
    "check_program": ("repro.analyze.interproc", "check_program"),
    "summarize_module": ("repro.analyze.interproc", "summarize_module"),
    "RULES": ("repro.analyze.rules", "RULES"),
    "RuntimeChecker": ("repro.analyze.runtime_check", "RuntimeChecker"),
    "main": ("repro.analyze.cli", "main"),
    "check_conformance": ("repro.analyze.conformance", "check_conformance"),
    "ConformanceReport": ("repro.analyze.conformance", "ConformanceReport"),
    "extract_function_cost": ("repro.analyze.costlint", "extract_function_cost"),
}


def __getattr__(name: str) -> Any:
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module), attr)
