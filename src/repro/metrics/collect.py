"""The one ``StatsSnapshot`` → registry fold.

A single run needs no registry — :meth:`repro.mpi.Stats.snapshot` is its
record; :class:`~repro.serve.SortService`, the one long-lived accumulator,
folds every epoch's finished runtime in here.  Collection is strictly
*post-hoc*: it reads an immutable snapshot and never calls into a live
rank or advances a clock, so an observed run is bit-identical to an
unobserved one.  ``labels`` identifies the observed run and joins every
family's label names beside the intrinsic ones (``op``, ``kind``,
``event``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from .registry import BYTES_BUCKETS, TIME_BUCKETS, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.runtime import Runtime

__all__ = ["collect_runtime"]


def collect_runtime(
    registry: MetricsRegistry,
    runtime: "Runtime",
    *,
    labels: Mapping[str, Any] | None = None,
) -> None:
    """Fold a finished runtime's statistics into ``registry``.

    Emits traffic counters (bytes on wire, message and collective-call
    counts), the modelled makespan gauge, and per-rank virtual-time /
    bytes histograms — everything sourced from one consistent
    :meth:`~repro.mpi.Stats.snapshot`.
    """
    base = {k: str(v) for k, v in (labels or {}).items()}
    names = tuple(base)
    snap = runtime.stats.snapshot()

    registry.counter(
        "repro_bytes_on_wire_total",
        "Payload bytes on the wire: point-to-point plus collective payloads",
        names,
    ).labels(**base).inc(snap.wire_bytes)
    registry.counter(
        "repro_p2p_bytes_total", "Point-to-point payload bytes sent by all ranks", names
    ).labels(**base).inc(snap.total_bytes_sent)
    registry.counter(
        "repro_messages_total",
        "Messages on the wire: point-to-point sends plus collective calls",
        names,
    ).labels(**base).inc(snap.total_msgs_sent + snap.total_collective_calls)
    registry.counter(
        "repro_compute_seconds_total", "Virtual compute seconds over all ranks", names
    ).labels(**base).inc(snap.total_compute_time)
    registry.counter(
        "repro_runs_total", "Observed runtime executions", names
    ).labels(**base).inc()
    registry.gauge(
        "repro_makespan_seconds", "Modelled makespan (max rank clock) of the last run", names
    ).labels(**base).set(runtime.elapsed())
    registry.gauge(
        "repro_ranks", "World size of the last observed run", names
    ).labels(**base).set(runtime.size)

    # Control-plane traffic (buddy checkpoints and restores) is
    # accounted separately from the data-plane families
    # above, so repro_bytes_on_wire_total stays comparable across runs
    # with and without the recovery machinery enabled.
    ctl_names = names + ("kind",)
    ctl_msgs = registry.counter(
        "repro_control_messages_total",
        "Control-plane messages by kind (excluded from repro_messages_total)",
        ctl_names,
    )
    ctl_bytes = registry.counter(
        "repro_control_bytes_total",
        "Control-plane bytes by kind (excluded from repro_bytes_on_wire_total)",
        ctl_names,
    )
    for kind, (n_msgs, n_bytes) in snap.control.items():
        ctl_msgs.labels(kind=kind, **base).inc(n_msgs)
        ctl_bytes.labels(kind=kind, **base).inc(n_bytes)

    fs = runtime.fault_stats
    fault_events = registry.counter(
        "repro_fault_events_total",
        "Injected faults and recovery-machinery responses, by event",
        names + ("event",),
    )
    for event, count in (
        ("dropped", fs.dropped),
        ("duplicated", fs.duplicated),
        ("delayed", fs.delayed),
        ("crashed", len(fs.crashed)),
        ("recoveries", fs.recoveries),
        ("spares_used", fs.spares_used),
        ("checkpoints", fs.checkpoints),
        ("restored", fs.restored),
        ("lost", fs.lost),
    ):
        if count:
            fault_events.labels(event=event, **base).inc(count)

    coll_names = names + ("op",)
    calls = registry.counter(
        "repro_collective_calls_total", "Collective invocations by operation", coll_names
    )
    cbytes = registry.counter(
        "repro_collective_bytes_total", "Collective payload bytes by operation", coll_names
    )
    cranks = registry.counter(
        "repro_collective_rank_participations_total",
        "Summed participant counts by operation (ranks / calls = mean comm size)",
        coll_names,
    )
    for op, (n_calls, n_bytes, n_ranks) in snap.collectives.items():
        calls.labels(op=op, **base).inc(n_calls)
        cbytes.labels(op=op, **base).inc(n_bytes)
        cranks.labels(op=op, **base).inc(n_ranks)

    clock_hist = registry.histogram(
        "repro_rank_clock_seconds",
        "Per-rank final virtual clocks",
        names,
        buckets=TIME_BUCKETS,
    ).labels(**base)
    bytes_hist = registry.histogram(
        "repro_rank_bytes_sent",
        "Per-rank payload bytes sent",
        names,
        buckets=BYTES_BUCKETS,
    ).labels(**base)
    for rank in range(snap.size):
        clock_hist.observe(float(runtime.clocks[rank]))
        bytes_hist.observe(float(snap.bytes_sent[rank]))
