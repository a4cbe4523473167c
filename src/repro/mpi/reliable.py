"""Link faults priced into the collective rendezvous: the retry ladder.

The rendezvous moves no messages — the last arriver combines deposits —
so a :class:`~repro.faults.FaultPlan`'s drops, duplicates and delays
cannot act on messages.  :func:`collective_faults` prices them instead:
each message a message-passing collective would send retries on
:data:`DEFAULT_POLICY`'s fixed ladder until an attempt gets through, and
a message dropped on every attempt fails the collective with
:class:`~repro.mpi.errors.MessageTimeoutError` on every member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["RetryPolicy", "DEFAULT_POLICY", "collective_faults"]

#: fault-decision stream of the messages a collective stands for
_COLLECTIVE_STREAM = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Retry ladder of one priced message.

    Attempt ``k`` (0-based) that is dropped costs ``base_timeout *
    backoff**k`` virtual seconds before the next; after ``max_attempts``
    dropped attempts the message is beyond repair.
    """

    max_attempts: int = 8
    base_timeout: float = 1e-3
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_timeout <= 0.0:
            raise ValueError("base_timeout must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")

    def timeout(self, attempt: int) -> float:
        """Deadline (virtual seconds) of 0-based ``attempt``."""
        return self.base_timeout * self.backoff**attempt


DEFAULT_POLICY = RetryPolicy()


def collective_faults(
    state, gen: int, name: str, start: float, stages: tuple,
    links: Sequence[tuple[int, int]] | None = None,
) -> tuple[tuple, str | None]:
    """The fault plan's price on generation ``gen`` of collective ``name``
    on ``state``, computed once by the last arriver: ``(stages, failure)``.

    Each priced stage stands for the messages a message-passing collective
    would send: ``links``, as ``(src, dst)`` member pairs, when the caller
    knows them; otherwise one from every other member to member 0 and one
    back — for ``alltoall``/``alltoallv``, one per ordered pair.  Attempt
    ``a`` of a message draws its fate from the content identity ``(comm,
    generation, stage, a)``, so the price is a pure function of the seed.
    A dropped attempt costs :data:`DEFAULT_POLICY`'s deadline for it; the
    delivered attempt's delay and degraded-window penalty multiply the
    stage cost (its receiver's, for a per-rank stage).  A stage ends at its
    slowest message.  A message dropped on every attempt is beyond repair:
    its stage costs the whole ladder and ends the list, and ``failure``
    says which message it was.
    """
    rt = state.runtime
    plan = rt._faults
    ranks = state.world_ranks
    p = len(ranks)
    if links is None:
        if name in ("alltoall", "alltoallv"):
            links = [(i, j) for i in range(p) for j in range(p) if i != j]
        else:
            links = [(i, 0) for i in range(1, p)] + [(0, i) for i in range(1, p)]
    policy = DEFAULT_POLICY
    clocks = np.full(p, float(start))
    priced = []
    for s, stage in enumerate(stages):
        cost = np.broadcast_to(np.asarray(stage, dtype=np.float64), (p,))
        extra = np.zeros(p)
        for src, dst in links:
            waited = 0.0
            for a in range(policy.max_attempts):
                fate = plan.link_event(ranks[src], ranks[dst], _COLLECTIVE_STREAM,
                                       (state.trace_id, gen, s, a))
                if not fate.drop:
                    break
                rt._count_fault("dropped")
                waited += policy.timeout(a)
            else:
                return (*priced, waited), (
                    f"{name} on comm#{state.trace_id} (generation {gen}): its "
                    f"message {ranks[src]} -> {ranks[dst]} was dropped on all "
                    f"{policy.max_attempts} attempts")
            if fate.duplicate:
                rt._count_fault("duplicated")
            penalty = fate.delay_factor + plan.degrade_factor(
                ranks[src], ranks[dst], clocks[src] + waited)
            if penalty:
                rt._count_fault("delayed")
            extra[dst] = max(extra[dst], waited + penalty * cost[dst])
        stage = stage + (extra if np.ndim(stage) else extra.max())
        priced.append(stage)
        clocks = clocks + stage
    return tuple(priced), None
