"""Vector clocks for the happens-before sanitizer.

One vector clock per rank, one component per rank.  The sanitizer advances
them at exactly the edges where the runtime already synchronizes:

* ``send``/``isend`` — the sender ticks its own component and the message
  carries a snapshot of the sender's clock;
* ``recv``/``wait`` — the receiver joins the piggybacked snapshot into its
  own clock, then ticks;
* collectives — every member deposits a snapshot on entry and leaves with
  the join of *all* members' snapshots (a collective is a full
  synchronization point), then ticks.

Two accesses to a shared object are *ordered* (happen-before) iff the
earlier access's snapshot is component-wise ``<=`` the later accessor's
current clock; otherwise they are concurrent and — if at least one is a
write — a race.

These are plain Python ints kept entirely outside the runtime's virtual
clocks (``runtime.clocks``): advancing a vector clock never perturbs
modelled time, which is what makes sanitized runs bit-identical to
unsanitized ones.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["VClockTable", "join", "leq"]

Snapshot = tuple[int, ...]


def join(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Component-wise maximum of two clocks."""
    return [x if x >= y else y for x, y in zip(a, b)]


def leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """``a`` happened-before-or-equals ``b`` (component-wise <=)."""
    return all(x <= y for x, y in zip(a, b))


class VClockTable:
    """The per-rank vector clocks of one runtime.

    Not internally locked: the owning :class:`~repro.sanitize.Sanitizer`
    serializes all access under its own lock.
    """

    def __init__(self, size: int):
        self.size = size
        # Each rank starts in its own epoch (own component = 1, not 0):
        # with all-zero clocks every pair of initial accesses would compare
        # as *ordered* (0 <= 0 component-wise) and races before the first
        # synchronization edge would be invisible.
        self._vc: list[list[int]] = [
            [1 if i == r else 0 for i in range(size)] for r in range(size)
        ]

    def tick(self, rank: int) -> None:
        """Advance ``rank``'s own component (a new epoch for that rank)."""
        self._vc[rank][rank] += 1

    def merge(self, rank: int, snapshot: Sequence[int]) -> None:
        """Join ``snapshot`` into ``rank``'s clock (a receive edge)."""
        vc = self._vc[rank]
        for i, v in enumerate(snapshot):
            if v > vc[i]:
                vc[i] = v

    def snapshot(self, rank: int) -> Snapshot:
        """An immutable copy of ``rank``'s current clock."""
        return tuple(self._vc[rank])
