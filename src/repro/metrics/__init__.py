"""Typed metrics over the virtual-clock runtime (the perf observatory's
measurement half).

Three layers:

- registry — :class:`MetricsRegistry` with counter / gauge / histogram
  families, fixed label-name tuples, and exponential virtual-time buckets
  (:mod:`repro.metrics.registry`);
- the collector — :func:`collect_runtime` folds a finished runtime's
  :meth:`repro.mpi.Stats.snapshot` into a registry, strictly post-hoc so
  observed runs stay bit-identical to unobserved ones
  (:mod:`repro.metrics.collect`);
- exposition — deterministic Prometheus text and JSON renderings
  (:mod:`repro.metrics.expose`).

:class:`repro.serve.SortService` is the accumulator: every epoch's
runtime is folded into ``service.registry``.
"""

from .collect import collect_runtime
from .expose import to_json, to_prometheus, write_json, write_prometheus
from .registry import (
    BYTES_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    exponential_buckets,
)

__all__ = [
    "BYTES_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "TIME_BUCKETS",
    "collect_runtime",
    "exponential_buckets",
    "to_json",
    "to_prometheus",
    "write_json",
    "write_prometheus",
]
