"""The one retry ladder every message climbs under a fault plan.

A point-to-point send, or one of the messages a collective stands for
(:func:`collective_faults`: the rendezvous itself moves none), retries
until an attempt gets through: attempt ``a`` draws its fate from the
:class:`~repro.faults.FaultPlan` and costs ``DEADLINES[a]`` virtual
seconds if dropped.  A duplicate is counted but never delivered — the
receiver's sequence numbers would discard it.  A message dropped on all
``MAX_ATTEMPTS`` attempts is beyond repair: after the whole ``LADDER`` its
receiver (every member, for a collective) raises
:class:`~repro.mpi.errors.MessageTimeoutError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import LinkFault

__all__ = ["MAX_ATTEMPTS", "DEADLINES", "LADDER", "climb", "collective_faults"]

#: attempts a message gets before it is beyond repair
MAX_ATTEMPTS = 8
#: virtual seconds a dropped attempt ``a`` costs before the next
DEADLINES = tuple(1e-3 * 2.0**a for a in range(MAX_ATTEMPTS))
#: virtual seconds a message beyond repair costs: the whole ladder
LADDER = sum(DEADLINES)

#: fault-decision stream of the messages a collective stands for
_COLLECTIVE_STREAM = 2


def climb(rt, fate_of: Callable[[int], LinkFault]) -> tuple[float, LinkFault | None]:
    """Walk one message up the ladder; ``fate_of(a)`` draws attempt
    ``a``'s fate.  Returns ``(seconds waited on dropped attempts, fate of
    the delivered attempt)`` — the fate ``None`` when every attempt was
    dropped — and counts the drops and a duplicate in ``rt.fault_stats``."""
    waited = 0.0
    for a, deadline in enumerate(DEADLINES):
        fate = fate_of(a)
        if not fate.drop:
            if fate.duplicate:
                rt._count_fault("duplicated")
            return waited, fate
        rt._count_fault("dropped")
        waited += deadline
    return waited, None


def collective_faults(
    state, gen: int, name: str, start: float, stages: tuple,
    links: Sequence[tuple[int, int]] | None = None,
) -> tuple[tuple, str | None]:
    """The fault plan's price on generation ``gen`` of collective ``name``
    on ``state``, computed once by the last arriver: ``(stages, failure)``.

    Each priced stage stands for the messages a message-passing collective
    would send: ``links``, as ``(src, dst)`` member pairs, when the caller
    knows them; otherwise one from every other member to member 0 and one
    back — for ``alltoall``/``alltoallv``, one per ordered pair.  Each
    message climbs the ladder, attempt ``a`` drawing its fate from the
    content identity ``(comm, generation, stage, a)`` — the communicator
    by its creation identity, ``state.fault_key`` — so the price is a
    pure function of the seed.  The delivered attempt's delay and
    degraded-window penalty multiply the stage cost (its receiver's, for a
    per-rank stage).  A stage ends at its slowest message.  A message
    beyond repair makes its stage cost the whole ladder and ends the list,
    and ``failure`` says which message it was.
    """
    rt = state.runtime
    plan = rt._faults
    ranks = state.world_ranks
    key = state.fault_key
    p = len(ranks)
    if links is None:
        if name in ("alltoall", "alltoallv"):
            links = [(i, j) for i in range(p) for j in range(p) if i != j]
        else:
            links = [(i, 0) for i in range(1, p)] + [(0, i) for i in range(1, p)]
    clocks = np.full(p, float(start))
    priced = []
    for s, stage in enumerate(stages):
        cost = np.broadcast_to(np.asarray(stage, dtype=np.float64), (p,))
        extra = np.zeros(p)
        for src, dst in links:
            waited, fate = climb(rt, lambda a: plan.link_event(
                ranks[src], ranks[dst], _COLLECTIVE_STREAM, (key, gen, s, a)))
            if fate is None:
                return (*priced, waited), (
                    f"{name} on comm#{state.trace_id} (generation {gen}): its "
                    f"message {ranks[src]} -> {ranks[dst]} was dropped on all "
                    f"{MAX_ATTEMPTS} attempts")
            penalty = fate.delay_factor + plan.degrade_factor(
                ranks[src], ranks[dst], clocks[src] + waited)
            if penalty:
                rt._count_fault("delayed")
            extra[dst] = max(extra[dst], waited + penalty * cost[dst])
        stage = stage + (extra if np.ndim(stage) else extra.max())
        priced.append(stage)
        clocks = clocks + stage
    return tuple(priced), None
