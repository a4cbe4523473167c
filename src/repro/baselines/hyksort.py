"""HykSort (Sundar, Malhotra & Biros 2013) — §III-C's k-way hypercube sort.

Generalizes hyperquicksort: each round splits the current process group
into ``k`` subgroups around ``k-1`` sampled splitters, exchanges data so
subgroup ``g`` holds bucket ``g`` (an all-to-allv within the group), merges,
and recurses into the subgroup — ``log_k P`` rounds, with the communicator
split per round whose linear cost §III-C criticizes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..seq.kmerge import merge_in_place, sort_keys
from ..trace.timer import PhaseTimer
from .common import BaselineResult

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm

__all__ = ["hyksort"]


def _sampled_splitters(
    sub: "Comm", work: np.ndarray, nsplit: int, oversampling: int, rng: np.random.Generator
) -> np.ndarray:
    """k-1 splitters from a gathered regular+random sample of the group."""
    n = work.size
    take = min(oversampling * max(nsplit, 1), n)
    if take:
        idx = np.unique(
            np.concatenate(
                [
                    np.linspace(0, n - 1, num=max(take // 2, 1)).astype(np.int64),
                    rng.integers(0, n, size=max(take // 2, 1)),
                ]
            )
        )
        sample = work[idx]
    else:
        sample = work[:0]
    gathered = sub.allgather(sample)
    flat = np.sort(np.concatenate(gathered))
    if flat.size == 0:
        return flat[: 0]
    pos = np.minimum((np.arange(1, nsplit + 1) * flat.size) // (nsplit + 1), flat.size - 1)
    return flat[pos]


def hyksort(
    comm: "Comm",
    local: np.ndarray,
    k: int = 4,
    oversampling: int = 16,
    seed: int = 1,
) -> BaselineResult:
    """k-way hypercube sort; ``comm.size`` must be a power of ``k``... or at
    least splittable — any ``comm.size`` works, the last round simply uses a
    smaller ``k``."""
    if k < 2:
        raise ValueError("k must be >= 2")
    local = np.asarray(local)
    compute = comm.cost.compute
    timer = PhaseTimer(comm)
    rng = np.random.Generator(np.random.MT19937([seed, comm.rank]))

    work = sort_keys(local)
    comm.compute(compute.sort(work.size))
    timer.mark("local_sort")

    sub = comm
    rounds = 0
    moved = 0
    tracer = comm.tracer
    while sub.size > 1:
        t_round = comm.clock
        rounds += 1
        kk = min(k, sub.size)
        # Subgroup sizes as equal as possible.
        base, rem = divmod(sub.size, kk)
        group_sizes = [base + (1 if g < rem else 0) for g in range(kk)]
        starts = np.concatenate(([0], np.cumsum(group_sizes)))
        my_group = int(np.searchsorted(starts, sub.rank, side="right") - 1)

        splitters = _sampled_splitters(sub, work, kk - 1, oversampling, rng)
        comm.compute(compute.sort(max(splitters.size, 1)))
        if splitters.size < kk - 1:
            pad = work[-1] if work.size else (splitters[-1] if splitters.size else np.float64(0))
            splitters = np.concatenate(
                [splitters, np.full(kk - 1 - splitters.size, pad, dtype=work.dtype)]
            )

        # Bucket g of every rank goes to the g-th subgroup, spread round-
        # robin over its members.
        bucket_cuts = np.concatenate(
            ([0], np.searchsorted(work, splitters, side="right"), [work.size])
        ).astype(np.int64)
        # Bucket g is split evenly over the members of subgroup g; buckets
        # are contiguous in ``work``, so the sends are ``work`` cut by counts.
        dest = np.arange(sub.size)
        g = np.searchsorted(starts, dest, side="right") - 1
        seg, within, gs = np.diff(bucket_cuts)[g], dest - starts[g], np.asarray(group_sizes)[g]
        counts = (seg * (within + 1)) // gs - (seg * within) // gs
        moved += int(work.size - counts[sub.rank])
        work, got = sub.alltoallv(work, counts)
        work = merge_in_place(work, int(np.count_nonzero(got)))
        comm.compute(compute.kway_merge(work.size, max(sub.size, 2)))

        new_sub = sub.split(my_group, sub.rank)
        assert new_sub is not None
        sub = new_sub
        tracer.record("hyk_round", t_round, round=rounds, group=my_group, k=kk)
    timer.mark("exchange")

    return BaselineResult(
        output=work,
        phases=dict(timer.phases),
        info={"rounds": rounds, "elements_moved": moved, "k": k},
    )
