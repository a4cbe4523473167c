"""Per-rank phase timers over virtual clocks.

A :class:`PhaseTimer` slices a rank's virtual-clock timeline into named
phases (local sort, splitting, exchange, merge, ...).  The per-rank
dictionaries are combined across ranks with :func:`combine_phases`, which is
what Fig. 2(b)/3(b)-style breakdowns are made of.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm

__all__ = ["PhaseTimer", "combine_phases"]


class PhaseTimer:
    """Attributes virtual-clock progress to named phases.

    >>> timer = PhaseTimer(comm)
    >>> ...local sort...
    >>> timer.mark("local_sort")
    >>> ...splitting...
    >>> timer.mark("splitting")
    >>> timer.phases   # {'local_sort': 1.2, 'splitting': 0.4}
    """

    def __init__(self, comm: "Comm"):
        self._comm = comm
        self._last = comm.clock
        self.phases: dict[str, float] = {}

    def mark(self, name: str) -> float:
        """Close the current phase under ``name``; returns its duration.

        When the runtime records a trace, the closed phase also becomes a
        ``phase`` span on this rank's timeline, which is how the exporter
        and the analysis attribute raw events to algorithm phases.
        """
        now = self._comm.clock
        delta = now - self._last
        self.phases[name] = self.phases.get(name, 0.0) + delta
        rec = self._comm.trace_recorder
        if rec is not None and now > self._last:
            rec.record(self._comm.world_rank, name, "phase", self._last, now)
        self._last = now
        return delta

    @property
    def total(self) -> float:
        return float(sum(self.phases.values()))


def combine_phases(
    per_rank: Sequence[Mapping[str, float]], how: str = "max"
) -> dict[str, float]:
    """Combine per-rank phase dictionaries (``max``, ``mean``, or ``sum``).

    Phases missing on a rank count as zero (for ``max`` and ``mean``);
    names keep first-seen order.
    """
    if how not in ("max", "mean", "sum"):
        raise ValueError(f"how must be 'max', 'mean', or 'sum', got {how!r}")
    acc: dict[str, list[float]] = {}
    for d in per_rank:
        for k, v in d.items():
            acc.setdefault(k, []).append(float(v))
    n = len(per_rank)
    out: dict[str, float] = {}
    for name, vals in acc.items():
        if how == "sum":
            out[name] = sum(vals)
        elif how == "mean":
            out[name] = sum(vals) / n
        else:
            out[name] = max(vals) if len(vals) == n else max(max(vals), 0.0)
    return out
