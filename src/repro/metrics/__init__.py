"""Traffic counters summed over many runs.

- the registry — :class:`MetricsRegistry`, labelled monotone counters
  (:mod:`repro.metrics.registry`);
- the collector — :func:`collect_runtime` adds a finished runtime's
  :meth:`repro.mpi.Stats.snapshot` to four counters, strictly post-hoc so
  observed runs stay bit-identical to unobserved ones
  (:mod:`repro.metrics.collect`).

:class:`repro.serve.SortService` is the accumulator: every epoch's
runtime is folded into ``service.registry``.
"""

from .collect import collect_runtime
from .registry import Counter, MetricFamily, MetricsRegistry

__all__ = ["Counter", "MetricFamily", "MetricsRegistry", "collect_runtime"]
