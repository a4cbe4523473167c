"""Seeded, deterministic fault schedules.

All randomness comes from splitmix64 over ``(seed, src, dst, event index)``
— never from ``random``, ``numpy.random`` global state, or wall clock — so
the same :class:`FaultSpec` + seed always yields the same drops, delays,
degradation windows and crash points, regardless of thread scheduling.

Per-link event counters are only ever advanced by the *sending* rank's
thread (each rank sends on its own links), so counting is race-free and the
decision for the k-th message on a link is a pure function of the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One step of the splitmix64 generator (also used as a mixer)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _u01(x: int) -> float:
    """Map a 64-bit word to [0, 1) with 53 bits of precision."""
    return (x >> 11) / float(1 << 53)


def fold(words: Iterable[int]) -> int:
    """One 64-bit word standing for a sequence of integers, position by
    position: the hash of an event identity."""
    h = 0
    for i, e in enumerate(words):
        h ^= _splitmix64(((e + 1) * _GOLDEN ^ (i * 0x9FB21C651E98DF25)) & _MASK64)
    return h


@dataclass(frozen=True)
class CrashEvent:
    """Kill ``rank`` at its ``at_op``-th communication operation and/or when
    its virtual clock reaches ``at_time`` (whichever it hits first)."""

    rank: int
    at_op: int | None = None
    at_time: float | None = None

    def __post_init__(self):
        if self.at_op is None and self.at_time is None:
            raise ValueError("CrashEvent needs at_op and/or at_time")
        if self.at_op is not None and self.at_op < 0:
            raise ValueError("at_op must be >= 0")


@dataclass(frozen=True)
class DegradedWindow:
    """Directed link (src -> dst) is slow by ``factor`` for departures in
    [t0, t1) of virtual time."""

    src: int
    dst: int
    t0: float
    t1: float
    factor: float


@dataclass(frozen=True)
class LinkFault:
    """Decision for one message on one link."""

    drop: bool = False
    duplicate: bool = False
    delay_factor: float = 0.0  # extra transfer-cost multiples to pay on delivery


@dataclass(frozen=True)
class FaultSpec:
    """What the adversary is allowed to do; rates are per message.

    ``degrade_links`` transient windows are placed at plan-build time on
    seed-chosen directed links inside ``[0, horizon)`` of virtual time.
    ``crashes`` are explicit; ``crash_ranks`` additionally kills that many
    seed-chosen ranks at a seed-chosen op count in ``crash_op_range``.  At
    least one rank always survives.
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    delay_factor: float = 8.0
    degrade_links: int = 0
    degrade_factor: float = 4.0
    degrade_duration: float = 2e-3
    horizon: float = 20e-3
    crashes: tuple[CrashEvent, ...] = ()
    crash_ranks: int = 0
    crash_op_range: tuple[int, int] = (5, 200)

    def __post_init__(self):
        for name in ("drop_rate", "dup_rate", "delay_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.delay_factor < 0 or self.degrade_factor < 0:
            raise ValueError("delay/degrade factors must be >= 0")
        if self.degrade_links < 0 or self.crash_ranks < 0:
            raise ValueError("degrade_links / crash_ranks must be >= 0")
        lo, hi = self.crash_op_range
        if not 0 <= lo <= hi:
            raise ValueError(f"bad crash_op_range {self.crash_op_range}")


class FaultPlan:
    """A concrete, deterministic fault schedule for a ``size``-rank run.

    One plan instance belongs to one run: it carries per-link message
    counters that the sending ranks advance.  Build a fresh plan (same
    spec, same seed) to replay the identical schedule.
    """

    def __init__(self, spec: FaultSpec, seed: int, size: int):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.spec = spec
        self.seed = int(seed)
        self.size = size
        self._root = _splitmix64((self.seed & _MASK64) ^ 0xFA017_5EED)
        self._link_seq: dict[tuple[int, int, int], int] = {}
        self._windows: dict[tuple[int, int], list[DegradedWindow]] = {}
        self.windows: tuple[DegradedWindow, ...] = self._place_windows()
        self.crashes: dict[int, CrashEvent] = self._place_crashes()

    # -- construction ----------------------------------------------------

    def _draws(self, stream: int):
        """Infinite deterministic word stream for a given sub-stream id."""
        h = _splitmix64(self._root ^ (stream * 0xC2B2AE3D27D4EB4F) & _MASK64)
        while True:
            h = _splitmix64(h)
            yield h

    def _place_windows(self) -> tuple[DegradedWindow, ...]:
        spec = self.spec
        out: list[DegradedWindow] = []
        if spec.degrade_links and self.size > 1:
            g = self._draws(1)
            span = max(0.0, spec.horizon - spec.degrade_duration)
            for _ in range(spec.degrade_links):
                src = next(g) % self.size
                dst = (src + 1 + next(g) % (self.size - 1)) % self.size
                t0 = _u01(next(g)) * span
                w = DegradedWindow(src, dst, t0, t0 + spec.degrade_duration,
                                   spec.degrade_factor)
                out.append(w)
                self._windows.setdefault((src, dst), []).append(w)
        return tuple(out)

    def _place_crashes(self) -> dict[int, CrashEvent]:
        spec = self.spec
        crashes: dict[int, CrashEvent] = {}
        for ev in spec.crashes:
            if not 0 <= ev.rank < self.size:
                raise ValueError(f"crash rank {ev.rank} out of range for size {self.size}")
            crashes[ev.rank] = ev
        if spec.crash_ranks:
            if spec.crash_ranks + len(crashes) > self.size - 1:
                raise ValueError(
                    f"crash_ranks={spec.crash_ranks} (plus "
                    f"{len(crashes)} explicit) leaves no survivor at "
                    f"size {self.size}"
                )
            g = self._draws(2)
            # deterministic shuffle: order ranks by a per-rank hash
            order = sorted(range(self.size),
                           key=lambda r: _splitmix64(self._root ^ (r * 0xD6E8FEB86659FD93)))
            lo, hi = spec.crash_op_range
            for r in order:
                if len(crashes) >= spec.crash_ranks + len(spec.crashes):
                    break
                if r in crashes:
                    continue
                at_op = lo + next(g) % (hi - lo + 1)
                crashes[r] = CrashEvent(rank=r, at_op=at_op)
        if len(crashes) >= self.size:
            raise ValueError("a fault plan must leave at least one survivor")
        return crashes

    # -- queries (hot path) ----------------------------------------------

    def link_event(
        self, src: int, dst: int, stream: int = 0,
        event: tuple[int, ...] | None = None,
    ) -> LinkFault:
        """Decide the fate of the next message src -> dst on ``stream``.

        Called once per attempt of a send, by the sending rank's thread
        only, which makes the per-link counter race-free.  ``stream``
        separates logically independent message sequences sharing a link.

        ``event`` replaces the per-link counter with an explicit event
        identity: the decision becomes a pure function of *what* is being
        sent instead of *how many* messages preceded it on the link.
        Collectives use it for the messages they stand for
        (:func:`~repro.mpi.reliable.collective_faults`): their fates are
        drawn by whichever member arrives last, so no per-link counter
        could be race-free.
        """
        if event is None:
            key = (src, dst, stream)
            seq = self._link_seq.get(key, 0)
            self._link_seq[key] = seq + 1
            ev_hash = (seq * _GOLDEN) & _MASK64
        else:
            ev_hash = fold(event)
        spec = self.spec
        h = _splitmix64(self._root
                        ^ ((src * 0xBF58476D1CE4E5B9) & _MASK64)
                        ^ ((dst * 0x94D049BB133111EB) & _MASK64)
                        ^ ((stream * 0xC2B2AE3D27D4EB4F) & _MASK64)
                        ^ ev_hash)
        h = _splitmix64(h)
        drop = _u01(h) < spec.drop_rate
        h = _splitmix64(h)
        dup = (not drop) and _u01(h) < spec.dup_rate
        h = _splitmix64(h)
        delay = spec.delay_factor if (not drop and _u01(h) < spec.delay_rate) else 0.0
        return LinkFault(drop=drop, duplicate=dup, delay_factor=delay)

    def degrade_factor(self, src: int, dst: int, departure: float) -> float:
        """Extra transfer-cost multiples from degradation windows covering
        a message departing src -> dst at virtual time ``departure``."""
        ws = self._windows.get((src, dst))
        if not ws:
            return 0.0
        extra = 0.0
        for w in ws:
            if w.t0 <= departure < w.t1:
                extra += w.factor
        return extra

    def crash_now(self, rank: int, op_index: int, clock: float) -> bool:
        """Should ``rank`` die at its ``op_index``-th op / virtual ``clock``?"""
        ev = self.crashes.get(rank)
        if ev is None:
            return False
        if ev.at_op is not None and op_index >= ev.at_op:
            return True
        if ev.at_time is not None and clock >= ev.at_time:
            return True
        return False

    @property
    def has_crashes(self) -> bool:
        return bool(self.crashes)

    def describe(self) -> str:
        spec = self.spec
        parts = [f"seed={self.seed}", f"size={self.size}",
                 f"drop={spec.drop_rate:g}", f"dup={spec.dup_rate:g}",
                 f"delay={spec.delay_rate:g}x{spec.delay_factor:g}"]
        if self.windows:
            parts.append("degraded=" + ",".join(
                f"{w.src}->{w.dst}@[{w.t0:.4g},{w.t1:.4g})" for w in self.windows))
        if self.crashes:
            parts.append("crashes=" + ",".join(
                f"r{ev.rank}@" + (f"op{ev.at_op}" if ev.at_op is not None
                                  else f"t{ev.at_time:g}")
                for ev in sorted(self.crashes.values(), key=lambda e: e.rank)))
        return "FaultPlan(" + " ".join(parts) + ")"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.describe()


@dataclass
class FaultStats:
    """Mutable per-run tally of injected events and the recovery machinery's
    responses (for traces and reports).

    Every counter here must stay a *pure function of the plan's seed* for
    runs that complete: the chaos harness replays a seed and compares
    summaries bit-for-bit.  The injection counters are advanced as a
    message climbs the retry ladder (:func:`repro.mpi.reliable.climb`),
    by its sending rank or a collective's last arriver; the recovery
    counters at recovery epoch transitions.  The one exception is the
    teardown window of a *failing* run: between one rank's raise and the
    abort reaching its peers, a peer may squeeze in a few more counted
    events, so the chaos harness compares only error classes (not
    tallies) for error outcomes.
    """

    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    crashed: list[int] = field(default_factory=list)
    #: recovery epochs that rebuilt a communicator (spare substitution or
    #: shrink) after a failure
    recoveries: int = 0
    #: warm spare ranks substituted for crashed actives
    spares_used: int = 0
    #: buddy checkpoints taken (one per rank per phase boundary)
    checkpoints: int = 0
    #: partitions restored from a buddy replica after a crash
    restored: int = 0
    #: partitions lost for good (holder and buddy both dead)
    lost: int = 0

    def summary(self) -> str:
        s = (f"dropped={self.dropped} duplicated={self.duplicated} "
             f"delayed={self.delayed} crashed={sorted(self.crashed)}")
        if self.recoveries or self.checkpoints:
            s += (f" recoveries={self.recoveries} spares={self.spares_used} "
                  f"checkpoints={self.checkpoints} restored={self.restored} "
                  f"lost={self.lost}")
        return s
