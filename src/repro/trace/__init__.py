"""Observability: event tracing, phase timers, analysis.

The subpackage has three layers:

- recording — :class:`TraceRecorder` (attached to a runtime via
  ``Runtime(trace=True)`` / ``run_spmd(..., trace=True)``) and the
  per-rank :class:`RankTracer` handles exposed as ``comm.tracer``;
- export — :mod:`repro.trace.export` writes Chrome-trace JSON that loads
  in Perfetto (one track per rank, phase-colored spans);
- analysis — :mod:`repro.trace.analysis` computes idle fractions,
  imbalance ratios, traffic matrices and the critical path, and
  ``python -m repro.trace.report`` renders them as text.
"""

from .analysis import (
    PathSegment,
    RankActivity,
    critical_path,
    critical_path_composition,
    idle_fraction,
    imbalance_ratio,
    phase_breakdown,
    rank_activity,
    traffic_matrix,
)
from .events import NULL_TRACER, NullTracer, RankTracer, Span, TraceRecorder
from .export import (
    chrome_trace_events,
    spans_from_chrome,
    to_chrome_json,
    write_chrome_trace,
)
from .timer import PhaseTimer, combine_phases

__all__ = [
    "PhaseTimer",
    "combine_phases",
    "Span",
    "TraceRecorder",
    "RankTracer",
    "NullTracer",
    "NULL_TRACER",
    "chrome_trace_events",
    "to_chrome_json",
    "write_chrome_trace",
    "spans_from_chrome",
    "RankActivity",
    "rank_activity",
    "idle_fraction",
    "imbalance_ratio",
    "phase_breakdown",
    "traffic_matrix",
    "PathSegment",
    "critical_path",
    "critical_path_composition",
]
