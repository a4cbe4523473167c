"""Batcher's bitonic sort over ranks (§III-C's sorting-network baseline).

``log2(P) * (log2(P)+1) / 2`` compare-split stages; every stage exchanges
whole partitions with a partner rank and keeps the lower or upper half of
the merged pair.  Transfers the data ``O(log^2 P)`` times, which is why it
"cannot keep up with sample sort if N/P >> 1" (§III-C).

Each rank keeps its input size, so perfect partitioning holds by
construction when input sizes are the target capacities.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..mpi.tags import BITONIC_STAGE_BASE
from ..seq.kmerge import merge_two_sorted, sort_keys
from ..trace.timer import PhaseTimer
from .common import BaselineResult

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm

__all__ = ["bitonic_sort"]


def bitonic_sort(comm: "Comm", local: np.ndarray) -> BaselineResult:
    """Bitonic sort; ``comm.size`` must be a power of two."""
    p = comm.size
    if p & (p - 1):
        raise ValueError(f"bitonic sort needs a power-of-two rank count, got {p}")
    local = np.asarray(local)
    compute = comm.cost.compute
    timer = PhaseTimer(comm)

    sizes = comm.allgather(int(local.size))
    if len(set(sizes)) > 1:
        # Block-bitonic compare-split is only a sorting network for equal
        # block sizes (0-1 principle on blocks).
        raise ValueError(f"bitonic sort requires equal partition sizes, got {sizes}")

    work = sort_keys(local)
    comm.compute(compute.sort(work.size))
    timer.mark("local_sort")

    d = p.bit_length() - 1
    stages = 0
    moved = 0
    tracer = comm.tracer
    for i in range(d):
        for j in range(i, -1, -1):
            stages += 1
            partner = comm.rank ^ (1 << j)
            ascending = ((comm.rank >> (i + 1)) & 1) == 0
            t_stage = comm.clock
            other = comm.sendrecv(work, partner, tag=BITONIC_STAGE_BASE + stages)
            moved += int(work.size)
            merged = merge_two_sorted(work, other)
            comm.compute(compute.merge_pass(merged.size))
            keep_low = ascending == (comm.rank < partner)
            n_keep = int(work.size)
            work = merged[:n_keep] if keep_low else merged[merged.size - n_keep :]
            tracer.record("compare_split", t_stage, stage=stages, partner=partner)
    timer.mark("exchange")

    return BaselineResult(
        output=work,
        phases=dict(timer.phases),
        info={"stages": stages, "elements_moved": moved},
    )
