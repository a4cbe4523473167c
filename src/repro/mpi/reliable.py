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

from ..machine.cost import advance

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


def climb(fate_of: Callable[[int], LinkFault],
          count: Callable[[str], None]) -> tuple[float, LinkFault | None]:
    """Walk one message up the ladder; ``fate_of(a)`` draws attempt
    ``a``'s fate.  Returns ``(seconds waited on dropped attempts, fate of
    the delivered attempt)`` — the fate ``None`` when every attempt was
    dropped — and ``count``s each drop and a duplicate by kind."""
    waited = 0.0
    for a, deadline in enumerate(DEADLINES):
        fate = fate_of(a)
        if not fate.drop:
            if fate.duplicate:
                count("duplicated")
            return waited, fate
        count("dropped")
        waited += deadline
    return waited, None


def collective_faults(
    state, gen: int, name: str, start: float, alternatives: list[tuple],
    links: Sequence[tuple[int, int]] | None = None,
) -> list[tuple[tuple, str | None, list[str]]]:
    """The fault plan's price on generation ``gen`` of collective ``name``
    on ``state``, computed once by the last arriver for each alternative
    price (flat first, then the node composition): ``(stages, failure,
    fault kinds to count)`` — counted only for the alternative kept.

    Each priced stage stands for the messages a message-passing collective
    would send: ``links``, as ``(src, dst)`` member pairs, when the caller
    knows them; otherwise, flat, one from every other member to member 0
    and one back — for ``alltoall``/``alltoallv``, one per ordered pair —
    and composed, the pairs each stage uses (:func:`_links`).  Each
    message climbs the ladder, attempt ``a`` drawing its fate from the
    content identity ``(comm, generation, stage, a)`` — the communicator
    by its creation identity, ``state.fault_key``, the stages numbered on
    across the alternatives — so the price is a pure function of the seed.
    The delivered attempt's delay and degraded-window penalty multiply the
    stage cost (its receiver's, for a per-rank stage).  A stage ends at its
    slowest message.  A message beyond repair makes its stage cost the
    whole ladder and ends the list, and ``failure`` says which message it
    was.
    """
    out, first = [], 0
    for composed, stages in enumerate(alternatives):
        pairs = [links] if links is not None else _links(state, name, composed)
        out.append(_with_faults(state, gen, name, start, stages, pairs, first))
        first += len(stages)
    return out


def _with_faults(state, gen, name, start, stages, per_stage, first):
    """:func:`collective_faults` of one alternative, its stages numbered
    from ``first``."""
    rt = state.runtime
    plan = rt._faults
    ranks = state.world_ranks
    key = state.fault_key
    p = len(ranks)
    clocks = np.full(p, float(start))
    priced, tally = [], []
    for s, stage in enumerate(stages):
        stage, group = stage if isinstance(stage, tuple) else (stage, None)
        cost = np.broadcast_to(np.asarray(stage, dtype=np.float64), (p,))
        extra = np.zeros(p)
        for src, dst in per_stage[s]:
            waited, fate = climb(lambda a: plan.link_event(
                ranks[src], ranks[dst], _COLLECTIVE_STREAM, (key, gen, first + s, a)),
                tally.append)
            if fate is None:
                return (*priced, waited), (
                    f"{name} on comm#{state.trace_id} (generation {gen}): its "
                    f"message {ranks[src]} -> {ranks[dst]} was dropped on all "
                    f"{MAX_ATTEMPTS} attempts"), tally
            penalty = fate.delay_factor + plan.degrade_factor(
                ranks[src], ranks[dst], clocks[src] + waited)
            if penalty:
                tally.append("delayed")
            extra[dst] = max(extra[dst], waited + penalty * cost[dst])
        stage = stage + (extra if np.ndim(stage) else extra.max())
        priced.append(stage if group is None else (stage, group))
        clocks = advance(clocks, priced[-1])
    return tuple(priced), None, tally


def _links(state, name: str, composed: bool) -> list[list[tuple[int, int]]]:
    """Per stage, the ``(src, dst)`` member pairs collective ``name`` sends
    on — flat, or (``composed``) through one leader per node: members to
    their leader (every same-node pair, for ``node_alltoallv``), leader
    pairs, leaders to their members."""
    p = state.size
    if composed:
        node, leaders = (a.tolist() for a in state.runtime.cost.node_layout(state.world_ranks)[:2])
        down = [(leaders[node[j]], j) for j in range(p) if leaders[node[j]] != j]
        return [
            [(i, j) for i in range(p) for j in range(p) if i != j and node[i] == node[j]]
            if name == "node_alltoallv" else [(j, i) for i, j in down],
            [(i, j) for i in leaders for j in leaders if i != j],
            down,
        ]
    if name.removeprefix("node_") in ("alltoall", "alltoallv"):
        return [[(i, j) for i in range(p) for j in range(p) if i != j]]
    return [[(i, 0) for i in range(1, p)] + [(0, i) for i in range(1, p)]]
