"""Trace analysis: idle fractions, load imbalance, traffic, critical path.

All functions take a flat list of :class:`~repro.trace.events.Span` —
either straight from a :class:`~repro.trace.TraceRecorder` (``.spans()``)
or reconstructed from an exported file via
:func:`repro.trace.export.spans_from_chrome` — so recorded and reloaded
runs analyse identically.

The decompositions mirror how the paper argues about its phase breakdowns
(Figs. 2b/3b, Table 1): where time goes per rank (busy vs. blocked), which
rank straggles, which collective moves the bytes of which phase, and the
chain of operations that actually determines the makespan.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

from .events import Span

__all__ = [
    "RankActivity",
    "rank_activity",
    "idle_fraction",
    "imbalance_ratio",
    "phase_breakdown",
    "phase_of",
    "traffic_matrix",
    "phase_traffic",
    "level_traffic",
    "PathSegment",
    "critical_path",
    "critical_path_composition",
]

#: categories whose spans advance the clock (phase/user spans overlay them)
_OP_CATS = ("collective", "p2p", "compute")


def _by_rank(spans: list[Span], cats: tuple[str, ...] = _OP_CATS) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.cat in cats:
            out[s.rank].append(s)
    for lst in out.values():
        lst.sort(key=lambda s: (s.t0, s.t1))
    return out


def makespan_of(spans: list[Span]) -> float:
    return max((s.t1 for s in spans), default=0.0)


# ---------------------------------------------------------------- activity


@dataclass(frozen=True)
class RankActivity:
    """Where one rank's share of the makespan went."""

    rank: int
    end: float      #: the rank's final clock
    busy: float     #: compute + transfer time
    idle: float     #: blocked on peers (incl. waiting for the run to end)

    @property
    def idle_fraction(self) -> float:
        total = self.busy + self.idle
        return self.idle / total if total > 0 else 0.0


def rank_activity(spans: list[Span]) -> list[RankActivity]:
    """Per-rank busy/idle decomposition against the global makespan.

    ``idle`` sums the blocked portions of waiting operations (collective
    entry skew, p2p waits) plus the tail between the rank's last event and
    the makespan; ``busy`` is the remainder of the makespan.
    """
    total = makespan_of(spans)
    per_rank = _by_rank(spans)
    out = []
    for rank in sorted(per_rank):
        ops = per_rank[rank]
        end = max(s.t1 for s in ops)
        idle = sum(s.idle for s in ops) + (total - end)
        out.append(RankActivity(rank=rank, end=end, busy=total - idle, idle=idle))
    return out


def idle_fraction(spans: list[Span]) -> float:
    """Mean idle fraction over ranks (0 = perfectly busy machine)."""
    acts = rank_activity(spans)
    if not acts:
        return 0.0
    return sum(a.idle_fraction for a in acts) / len(acts)


def imbalance_ratio(spans: list[Span]) -> float:
    """Straggler metric: max over ranks of busy time / mean busy time (>= 1)."""
    acts = rank_activity(spans)
    if not acts:
        return 1.0
    mean = sum(a.busy for a in acts) / len(acts)
    if mean <= 0:
        return 1.0
    return max(a.busy for a in acts) / mean


# ------------------------------------------------------------------ phases


def phase_breakdown(spans: list[Span], how: str = "max") -> dict[str, float]:
    """Per-phase durations combined over ranks (Fig. 2b/3b style)."""
    from .timer import combine_phases

    per_rank: dict[int, dict[str, float]] = defaultdict(dict)
    for s in spans:
        if s.cat == "phase":
            d = per_rank[s.rank]
            d[s.name] = d.get(s.name, 0.0) + s.duration
    return combine_phases([per_rank[r] for r in sorted(per_rank)], how=how)


def phase_of(spans: list[Span]) -> dict[int, "_PhaseIndex"]:
    """Per-rank lookup from a time to the enclosing phase name."""
    per_rank = _by_rank(spans, cats=("phase",))
    return {rank: _PhaseIndex(lst) for rank, lst in per_rank.items()}


class _PhaseIndex:
    """Binary-searchable phase timeline of one rank."""

    def __init__(self, phases: list[Span]):
        self._phases = phases
        self._starts = [p.t0 for p in phases]

    def at(self, t: float) -> str:
        i = bisect_right(self._starts, t) - 1
        if i >= 0 and t < self._phases[i].t1 + 1e-18:
            return self._phases[i].name
        return "-"


def _payload_spans(spans: list[Span]) -> Iterator[Span]:
    """The spans that moved a payload: collectives and p2p sends."""
    for s in spans:
        if (s.cat == "collective" or (s.cat == "p2p" and s.name == "send")) and s.nbytes > 0:
            yield s


def traffic_matrix(spans: list[Span]) -> dict[tuple[str, str], int]:
    """Bytes moved, keyed by ``(phase, operation)``.

    Sums every rank's payload contribution of collectives and p2p sends,
    attributed to the phase enclosing the operation's start on that rank
    (``"-"`` when the operation ran outside any marked phase).
    """
    phases = phase_of(spans)
    out: dict[tuple[str, str], int] = defaultdict(int)
    for s in _payload_spans(spans):
        index = phases.get(s.rank)
        phase = index.at(s.t0) if index is not None else "-"
        out[(phase, s.name)] += s.nbytes
    return dict(out)


def level_traffic(spans: list[Span]) -> dict[str, int]:
    """Bytes moved per locality level: a collective's deposits count at the
    widest level its communicator spans — or, composed by node, at the level
    each one travels — a send at its pair's."""
    out: dict[str, int] = defaultdict(int)
    for s in _payload_spans(spans):
        out[s.attrs.get("level", "-")] += s.nbytes
    return dict(out)


def phase_traffic(spans: list[Span]) -> dict[str, int]:
    """Bytes moved per phase, all operations combined.

    The marginal of :func:`traffic_matrix` over operations, comparable
    byte for byte with the per-phase wire-byte predictions of
    :mod:`repro.model.phases` because both follow the runtime's recording
    conventions (every rank's payload counts; broadcasts count the root
    payload once).
    """
    out: dict[str, int] = defaultdict(int)
    for (phase, _op), nbytes in traffic_matrix(spans).items():
        out[phase] += nbytes
    return dict(out)


# ----------------------------------------------------------- critical path


@dataclass(frozen=True)
class PathSegment:
    """One hop of the critical path: rank ``rank`` doing ``name``."""

    rank: int
    name: str
    cat: str
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def critical_path(spans: list[Span]) -> list[PathSegment]:
    """The dependency chain that determines the makespan.

    Walks backward from the rank that finishes last.  Whenever the walk
    meets an operation that spent time *blocked* — a collective whose last
    arriver came later (matched across ranks via the ``(comm, seq)``
    attributes) or a receive that waited on its sender (``departure``) —
    it hops to the blocking rank and continues there; everything else
    stays on-rank.  By construction the returned segments contain no idle
    time: they are the work (compute + transfer) a faster machine would
    actually have to shorten.
    """
    per_rank = _by_rank(spans)
    if not per_rank:
        return []
    total = makespan_of(spans)
    tol = max(total * 1e-12, 1e-15)

    # Index collectives by invocation for the cross-rank hop.
    coll: dict[tuple, list[Span]] = defaultdict(list)
    for lst in per_rank.values():
        for s in lst:
            if s.cat == "collective" and "comm" in s.attrs and "seq" in s.attrs:
                coll[(s.attrs["comm"], s.attrs["seq"])].append(s)

    ends = {rank: [s.t1 for s in lst] for rank, lst in per_rank.items()}
    rank = max(per_rank, key=lambda r: max(ends[r]))
    t = max(ends[rank])
    segments: list[PathSegment] = []

    for _ in range(len(spans) + len(per_rank) + 8):
        if t <= tol:
            break
        lst = per_rank[rank]
        # Latest op ending at or before t; skip zero-duration spans.
        i = bisect_right(ends[rank], t + tol) - 1
        while i >= 0 and lst[i].duration <= tol:
            i -= 1
        if i < 0:
            break
        span = lst[i]
        if span.t1 < t - tol:
            # Untracked clock advance (e.g. a raw clock write): attribute
            # the gap to the rank itself and continue from the span's end.
            segments.append(PathSegment(rank, "(untracked)", "compute", span.t1, t))
            t = span.t1
            continue

        blocked = span.idle > tol
        if blocked and span.cat == "collective":
            last = float(span.attrs.get("last_arrival", span.t0))
            work_start = min(max(last, span.t0), span.t1)
            if span.t1 > work_start + tol:
                segments.append(PathSegment(rank, span.name, span.cat, work_start, span.t1))
            key = (span.attrs.get("comm"), span.attrs.get("seq"))
            peers = coll.get(key, [])
            if peers:
                blocker = max(peers, key=lambda s: s.t0)
                rank, t = blocker.rank, blocker.t0
                continue
            t = span.t0
            continue
        if blocked and span.cat == "p2p" and "departure" in span.attrs:
            dep = float(span.attrs["departure"])
            work_start = min(max(dep, span.t0), span.t1)
            if span.t1 > work_start + tol:
                segments.append(PathSegment(rank, span.name, span.cat, work_start, span.t1))
            src = span.attrs.get("src")
            if src in per_rank:
                rank, t = int(src), dep
                continue
            t = span.t0
            continue
        segments.append(PathSegment(rank, span.name, span.cat, span.t0, span.t1))
        t = span.t0

    segments.reverse()
    return segments


def critical_path_composition(segments: list[PathSegment]) -> dict[str, float]:
    """Critical-path time by operation name (descending)."""
    acc: dict[str, float] = defaultdict(float)
    for seg in segments:
        acc[seg.name] += seg.duration
    return dict(sorted(acc.items(), key=lambda kv: -kv[1]))
