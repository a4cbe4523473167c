"""The one ``StatsSnapshot`` → registry fold.

A single run needs no registry — :meth:`repro.mpi.Stats.snapshot` is its
record; :class:`~repro.serve.SortService`, the one long-lived accumulator,
folds every epoch's finished runtime in here.  Collection is strictly
*post-hoc*: it reads an immutable snapshot and never calls into a live
rank or advances a clock, so an observed run is bit-identical to an
unobserved one.  Control, fault and per-rank data stay where they live:
``StatsSnapshot.control``, ``rt.fault_stats`` and ``rt.clocks``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.runtime import Runtime

__all__ = ["collect_runtime"]


def collect_runtime(registry: MetricsRegistry, runtime: "Runtime") -> None:
    """Add a finished runtime's traffic to ``registry``'s four counters:
    bytes on the wire, p2p bytes, messages, and collective calls by op."""
    snap = runtime.stats.snapshot()
    registry.counter("repro_bytes_on_wire_total").labels().inc(snap.wire_bytes)
    registry.counter("repro_p2p_bytes_total").labels().inc(snap.total_bytes_sent)
    registry.counter("repro_messages_total").labels().inc(
        snap.total_msgs_sent + snap.total_collective_calls
    )
    calls = registry.counter("repro_collective_calls_total", ("op",))
    for op, (n_calls, _, _) in snap.collectives.items():
        calls.labels(op=op).inc(n_calls)
