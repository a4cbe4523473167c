"""Hyperquicksort (Wagar 1987) — §III-C's hypercube quicksort baseline.

Requires ``P = 2^d`` ranks.  Each of the ``d`` rounds: the subcube's first
rank broadcasts its local median as the pivot, every rank splits its data
at the pivot, partners across the halving dimension swap halves, and each
rank merges what it kept with what it received.  Data therefore moves up to
``log2 P`` times — the structural disadvantage versus single-exchange
algorithms that §III-C calls out.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..mpi.tags import HYPERQUICKSORT_ROUND_BASE
from ..seq.kmerge import merge_two_sorted, sort_keys
from ..trace.timer import PhaseTimer
from .common import BaselineResult

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm

__all__ = ["hyperquicksort"]


def hyperquicksort(comm: "Comm", local: np.ndarray) -> BaselineResult:
    """Hypercube quicksort; ``comm.size`` must be a power of two."""
    p = comm.size
    if p & (p - 1):
        raise ValueError(f"hyperquicksort needs a power-of-two rank count, got {p}")
    local = np.asarray(local)
    compute = comm.cost.compute
    timer = PhaseTimer(comm)

    work = sort_keys(local)
    comm.compute(compute.sort(work.size))
    timer.mark("local_sort")

    sub = comm
    moved = 0
    rounds = 0
    tracer = comm.tracer
    while sub.size > 1:
        t_round = comm.clock
        rounds += 1
        half = sub.size // 2
        # Pivot: median of the subcube's first rank (classic formulation).
        if sub.rank == 0:
            pivot = work[work.size // 2] if work.size else None
        else:
            pivot = None
        pivot = sub.bcast(pivot, root=0)
        if pivot is None:
            # First rank empty: fall back to the subcube-wide max of mins.
            lo = work[0] if work.size else None
            # `pivot` is the bcast result, equal on every rank of `sub`; the
            # flow-insensitive taint still carries its pre-bcast value
            cands = [
                c for c in sub.allgather(lo) if c is not None  # spmd: ignore[DIV-COLLECTIVE]
            ]
            pivot = cands[len(cands) // 2] if cands else np.float64(0)

        cut = int(np.searchsorted(work, pivot, side="right"))
        comm.compute(compute.search(1, max(work.size, 1)))
        low, high = work[:cut], work[cut:]
        in_low_half = sub.rank < half
        partner = sub.rank + half if in_low_half else sub.rank - half
        outgoing = high if in_low_half else low
        keep = low if in_low_half else high
        incoming = sub.sendrecv(outgoing, partner, tag=HYPERQUICKSORT_ROUND_BASE + rounds)
        moved += int(outgoing.size)
        work = merge_two_sorted(keep, incoming)
        comm.compute(compute.merge_pass(work.size))
        sub2 = sub.split(0 if in_low_half else 1, sub.rank)
        assert sub2 is not None
        sub = sub2
        tracer.record("hq_round", t_round, round=rounds, partner=partner)
    timer.mark("exchange")

    return BaselineResult(
        output=work,
        phases=dict(timer.phases),
        info={"rounds": rounds, "elements_moved": moved},
    )
