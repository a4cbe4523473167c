"""Event tracing over the virtual clocks: spans, the recorder, rank tracers.

A :class:`TraceRecorder` hangs off a :class:`~repro.mpi.runtime.Runtime`
(``runtime.trace``) and collects begin/end :class:`Span` records in
*virtual time* for every communication operation, every
:meth:`~repro.mpi.comm.Comm.compute` charge, and any user-defined section.
Each span carries the world rank, a category, and free-form attributes
(peer, payload bytes, locality level, idle time, ...).

Thread-safety
-------------
Ranks are concurrent threads, so the recorder keeps **one span list per
rank** and every rank appends only to its own list — no locking on the hot
path.  The only cross-thread value is the collective entry-maximum written
by a collective's last arriver before it wakes the others (see
:meth:`repro.mpi.comm._CommState.collective`), whose visibility that
rendezvous already orders.

Zero cost when disabled
-----------------------
``runtime.trace`` is ``None`` unless tracing was requested; every hook in
the runtime guards with a single ``is not None`` check, and
:data:`NULL_TRACER` supplies no-op context managers for instrumented
algorithm code.  Recording never touches the virtual clocks, so a traced
run's modelled makespan is bit-identical to an untraced one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.runtime import Runtime

__all__ = ["Span", "TraceRecorder", "RankTracer", "NullTracer", "NULL_TRACER"]

#: span categories, used by the exporter and the analysis ("fault" marks
#: crashes, retry-ladder timeouts and revocations)
CATEGORIES = ("phase", "collective", "p2p", "compute", "user", "fault")


@dataclass
class Span:
    """One begin/end interval on one rank's virtual timeline.

    ``attrs`` holds operation-specific attributes; the well-known ones are
    ``bytes`` (payload contribution), ``idle`` (portion of the span spent
    blocked on peers rather than transferring), ``level`` (locality level
    of the traffic), ``peer``/``src`` (world rank of the other side),
    ``comm``/``seq`` (collective matching key) and ``last_arrival`` (entry
    clock of the last rank into a collective).
    """

    rank: int
    name: str
    cat: str
    t0: float
    t1: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def idle(self) -> float:
        """Blocked time within the span (0.0 for non-waiting spans)."""
        return float(self.attrs.get("idle", 0.0))

    @property
    def nbytes(self) -> int:
        return int(self.attrs.get("bytes", 0))


class _NullContext:
    """A reusable do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullContext:
        return _NULL_CONTEXT

    def record(self, name: str, t0: float, *, cat: str = "user", **attrs: Any) -> None:
        return None

    def instant(self, name: str, **attrs: Any) -> None:
        return None


NULL_TRACER = NullTracer()


class _SpanContext:
    """Context manager recording a span from enter-clock to exit-clock."""

    __slots__ = ("_tracer", "_name", "_attrs", "_t0")

    def __init__(self, tracer: "RankTracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._t0 = 0.0

    def __enter__(self) -> "_SpanContext":
        self._t0 = self._tracer.clock
        return self

    def __exit__(self, *exc: Any) -> None:
        t = self._tracer
        t._rec.record(t._rank, self._name, "user", self._t0, t.clock, **self._attrs)


class RankTracer:
    """One rank's handle on the recorder (obtained via ``comm.tracer``)."""

    __slots__ = ("_rec", "_rank")
    enabled = True

    def __init__(self, recorder: "TraceRecorder", rank: int):
        self._rec = recorder
        self._rank = rank

    @property
    def clock(self) -> float:
        """The rank's current virtual clock."""
        return float(self._rec._clocks[self._rank])

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Record a user span around a ``with`` block (virtual-time bounds)."""
        return _SpanContext(self, name, attrs)

    def record(self, name: str, t0: float, *, cat: str = "user", **attrs: Any) -> Span:
        """Record a span from an explicit start clock to the current clock."""
        return self._rec.record(self._rank, name, cat, t0, self.clock, **attrs)

    def instant(self, name: str, **attrs: Any) -> Span:
        """Record a zero-duration marker at the current clock."""
        now = self.clock
        return self._rec.record(self._rank, name, "user", now, now, **attrs)


class TraceRecorder:
    """Collects spans for every rank of one runtime."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime
        self.size = runtime.size
        self._clocks = runtime.clocks
        self._spans: list[list[Span]] = [[] for _ in range(self.size)]
        self._tracers = [RankTracer(self, r) for r in range(self.size)]
        self.enabled = True
        #: run-level attribution (e.g. the tuning ``plan_id`` that chose the
        #: configuration); exported into the Chrome trace's ``otherData`` so
        #: ``repro.trace.report`` can attribute a run to its plan
        self.metadata: dict[str, Any] = {}
        # The (node_local, leaders) pair behind the ``by_node=True``
        # collectives is built with the communicator, at launch: reported,
        # never charged.
        setup = runtime.cost.node_setup(runtime.active_state.world_ranks)
        if setup:
            self.metadata["node_setup_s"] = setup

    # ---------------------------------------------------------------- record

    def record(
        self, rank: int, name: str, cat: str, t0: float, t1: float, **attrs: Any
    ) -> Span:
        """Append a span to ``rank``'s timeline (owning thread only).

        Adjacent ``compute`` spans are coalesced to keep traces compact:
        the runtime charges compute in many small increments that would
        otherwise each become an event.
        """
        lst = self._spans[rank]
        if cat == "compute" and lst:
            last = lst[-1]
            if last.cat == "compute" and abs(last.t1 - t0) < 1e-18:
                last.t1 = t1
                return last
        span = Span(rank, name, cat, float(t0), float(t1), attrs)
        lst.append(span)
        return span

    def tracer(self, rank: int) -> RankTracer:
        return self._tracers[rank]

    # ----------------------------------------------------------------- query

    def rank_spans(self, rank: int) -> list[Span]:
        """The spans of one rank, ordered enclosing-first at equal starts."""
        return sorted(self._spans[rank], key=lambda s: (s.t0, -s.t1))

    def spans(self) -> list[Span]:
        """All spans, ordered by (rank, start, -end)."""
        out: list[Span] = []
        for rank in range(self.size):
            out.extend(self.rank_spans(rank))
        return out

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans())

    def __len__(self) -> int:
        return sum(len(lst) for lst in self._spans)

    @property
    def makespan(self) -> float:
        """Latest span end over all ranks (0.0 when empty)."""
        return max((s.t1 for lst in self._spans for s in lst), default=0.0)
