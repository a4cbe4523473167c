"""Tuned ALL-TO-ALLV with communication/merge overlap (§VI-E.1).

The paper's discussion section sketches the optimisation its authors were
studying for a follow-up: replace the monolithic ``MPI_Alltoallv`` + final
merge with explicit point-to-point rounds in a **1-factor schedule** —
every round pairs all ranks into disjoint partners — and merge chunks as
soon as two are available, overlapping the merge with the next round's
transfer.

:func:`exchange_merge_overlap` implements exactly that on the runtime: the
real chunks travel through ``sendrecv``; the pairwise merges execute for
real; and the merge *cost* is charged only to the extent it does not hide
behind communication (a per-round overlap budget equal to that round's
communication time).  The ablation bench compares it against the plain
exchange + merge path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..mpi.tags import OVERLAP_ROUND_BASE
from ..seq.kmerge import merge_two_sorted
from .exchange import ExchangePlan

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm

__all__ = ["OverlapResult", "one_factor_partner", "exchange_merge_overlap"]


@dataclass(frozen=True)
class OverlapResult:
    """Merged output plus overlap accounting."""

    output: np.ndarray
    rounds: int
    merge_cost_total: float    #: modelled merge work generated
    merge_cost_hidden: float   #: portion hidden behind communication

    @property
    def overlap_ratio(self) -> float:
        if self.merge_cost_total <= 0:
            return 1.0
        return self.merge_cost_hidden / self.merge_cost_total


def one_factor_partner(rank: int, p: int, round_: int) -> int:
    """Partner of ``rank`` in round ``round_`` of a 1-factor schedule.

    For even ``p`` this is the classic 1-factorization of K_p on p-1 rounds
    (every rank busy every round); odd ``p`` runs p rounds with one idle
    rank per round (partner == rank means idle).
    """
    if p <= 1:
        return rank
    if p % 2 == 0:
        # Rank p-1 is the pivot; the others rotate (standard construction).
        if rank == p - 1:
            return round_ % (p - 1)
        if round_ % (p - 1) == rank:
            return p - 1
        return (2 * (round_ % (p - 1)) - rank) % (p - 1)
    idle = round_ % p
    if rank == idle:
        return rank
    return (2 * (round_ % p) - rank) % p


def exchange_merge_overlap(
    comm: "Comm", local_sorted: np.ndarray, plan: ExchangePlan
) -> OverlapResult:
    """Exchange + merge with per-round overlap; collective over ``comm``.

    Produces the same output partition as
    ``local_merge(exchange(...), "binary_tree")`` but pipelines pairwise
    merges behind the 1-factor communication rounds.
    """
    local_sorted = np.asarray(local_sorted)
    p = comm.size
    compute = comm.cost.compute
    chunks = [
        local_sorted[plan.cuts[d] : plan.cuts[d + 1]] for d in range(p)
    ]
    acc = chunks[comm.rank].copy()

    nrounds = (p - 1) if p % 2 == 0 else p
    merge_total = 0.0
    merge_hidden = 0.0
    debt = 0.0  # merge work not yet paid for nor hidden
    tracer = comm.tracer
    # Deliberate O(p)-round pairwise schedule (paper §VI-E.1): the whole
    # point of this module is pipelining merges behind per-round
    # transfers, which a single alltoallv cannot express.
    for r in range(nrounds):
        partner = one_factor_partner(comm.rank, p, r)
        if partner == comm.rank:
            continue  # idle round (odd p)
        t_round = comm.clock
        t0 = comm.clock
        incoming = comm.sendrecv(chunks[partner], partner, tag=OVERLAP_ROUND_BASE + r)
        comm_window = max(comm.clock - t0, 0.0)

        # The merge issued in the *previous* round hides behind this
        # round's transfer; whatever exceeds the window is paid now.
        hidden = min(debt, comm_window)
        merge_hidden += hidden
        leftover = debt - hidden
        if leftover > 0:
            comm.compute(leftover)
        # Issue this round's merge (executed for real, charged as debt).
        acc = merge_two_sorted(acc, incoming)
        cost = compute.merge_pass(acc.size)
        merge_total += cost
        debt = cost
        tracer.record("overlap_round", t_round, round=r, partner=partner)
    if debt > 0:
        comm.compute(debt)  # the last merge has nothing to hide behind

    expected = plan.elements_received
    if acc.size != expected:
        raise AssertionError(
            f"rank {comm.rank}: overlap exchange produced {acc.size} "
            f"elements, planned {expected}"
        )
    return OverlapResult(
        output=acc,
        rounds=nrounds,
        merge_cost_total=merge_total,
        merge_cost_hidden=merge_hidden,
    )
