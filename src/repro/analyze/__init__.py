"""SPMD correctness analysis: the static lint over :mod:`repro.mpi` programs.

``python -m repro.analyze src/ examples/`` prints ``file:line: RULE-ID
message`` findings with a CI-friendly exit code.  One pipeline
(:mod:`repro.analyze.engine`): each function definition is *lowered* once
(:mod:`repro.analyze.lower`), the per-function rules are *judged* on that
lowering (:mod:`repro.analyze.rules`, :mod:`repro.analyze.dataflow`), and
per-function summaries are *joined* into one whole program for the
interprocedural and cost rules (:mod:`repro.analyze.interproc`,
:mod:`repro.analyze.costlint`).  ``RULES`` in :mod:`repro.analyze.rules` is
the rule catalogue.  The runtime's own checks (collective congruence,
deadlocks, leak accounting) live in :mod:`repro.mpi`.

Attribute access is lazy so that importing one submodule — the CLI, or
:mod:`repro.analyze.symbolic` alone — loads only what it needs, not every
layer of the engine.
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
