"""Shared-epoch batching: fuse compatible small sort jobs into one sort.

The amortization argument of "Histogram Sort with Sampling" applied to a
multi-tenant service: splitter determination and the single ALLTOALLV
dominate small sorts, so ``b`` compatible jobs fused into **one** SPMD
epoch pay for one splitter search and one exchange instead of ``b``.

Fusion works by *concatenation with provenance*: each job in a batch gets
a slot number, every rank packs its per-job fragments as

    ``packed = (slot << key_bits) | key``        (uint64)

concatenates them, and the epoch runs one histogram sort over the packed
keys.  Because the slot occupies the high bits, the sorted output is
grouped slot-major — demultiplexing is a mask per job, and each job's
unpacked values form a valid globally sorted distributed dataset (its
per-rank pieces are contiguous in the global order).

Compatibility rules (all must hold, checked host-side at plan time):

* every job's keys are non-negative integers of the **same dtype**,
* the packed layout fits: slot bits + ``key_bits`` <= 64, where
  ``key_bits`` covers the batch-wide maximum key,
* the jobs sit in the same log2 size class (fusing a huge job with tiny
  ones would charge the giant's makespan to every small job's latency),
* the batch stays within ``AdmissionPolicy.max_epoch_jobs``.

Jobs that cannot fuse (floats, oversized keys, lone size classes) run as
solo epochs — correctness never depends on fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .job import Job

__all__ = ["Batch", "plan_batches", "size_class"]


def _bits_for(value: int) -> int:
    return max(1, int(value).bit_length())


def size_class(n_per_rank: int) -> int:
    """Jobs fuse only within one log2 class of per-rank volume."""
    return int(math.log2(max(n_per_rank, 1)))


@dataclass
class Batch:
    """One planned sort epoch: 1 job (solo) or several (fused).

    ``key_bits`` is the packed key width for fused batches (0 for solo);
    slots are positions in ``jobs`` order.
    """

    jobs: list[Job]
    fused: bool
    key_bits: int = 0
    #: host-side per-job per-rank input partitions, jobs-order aligned
    data: list[list[np.ndarray]] = field(default_factory=list)

    @property
    def job_ids(self) -> tuple[int, ...]:
        return tuple(j.job_id for j in self.jobs)

    def describe(self) -> dict[str, object]:
        return {
            "jobs": list(self.job_ids),
            "fused": self.fused,
            "key_bits": self.key_bits,
        }


def _fusable(parts: list[np.ndarray]) -> tuple[bool, int]:
    """(can this job's data enter a fused batch, max key observed)."""
    dtype = parts[0].dtype
    if dtype.kind not in "iu":
        return False, 0
    max_key = 0
    for arr in parts:
        if arr.size == 0:
            continue
        if dtype.kind == "i" and int(arr.min()) < 0:
            return False, 0
        max_key = max(max_key, int(arr.max()))
    return True, max_key


def plan_batches(
    sort_jobs: Sequence[Job],
    data: dict[int, list[np.ndarray]],
    *,
    max_epoch_jobs: int,
) -> list[Batch]:
    """Group ready sort jobs into fused/solo batches, deterministically.

    ``sort_jobs`` arrives in scheduling order and that order is preserved
    both across batches and inside each batch (slot numbers follow it).
    ``data`` maps job id to the job's materialized per-rank partitions.
    """
    groups: dict[tuple[str, int], list[tuple[Job, int]]] = {}
    solos: list[Batch] = []
    for job in sort_jobs:
        parts = data[job.job_id]
        ok, max_key = _fusable(parts)
        if not ok:
            solos.append(Batch(jobs=[job], fused=False, data=[parts]))
            continue
        key = (str(parts[0].dtype), size_class(job.spec.n_per_rank))
        groups.setdefault(key, []).append((job, max_key))

    batches: list[Batch] = []
    for _, members in sorted(groups.items()):
        start = 0
        while start < len(members):
            chunk = members[start : start + max_epoch_jobs]
            # shrink the chunk until the packed layout fits 64 bits
            while len(chunk) > 1:
                key_bits = _bits_for(max(mk for _, mk in chunk))
                if _bits_for(len(chunk) - 1) + key_bits <= 64:
                    break
                chunk = chunk[:-1]
            key_bits = _bits_for(max(mk for _, mk in chunk))
            jobs = [j for j, _ in chunk]
            if len(jobs) == 1 or _bits_for(len(jobs) - 1) + key_bits > 64:
                batches.extend(
                    Batch(jobs=[j], fused=False, data=[data[j.job_id]]) for j in jobs
                )
            else:
                batches.append(
                    Batch(
                        jobs=jobs,
                        fused=True,
                        key_bits=key_bits,
                        data=[data[j.job_id] for j in jobs],
                    )
                )
            start += len(chunk)

    batches.extend(solos)
    # deterministic epoch order: the batch carrying the oldest job first
    batches.sort(key=lambda b: min(b.job_ids))
    return batches


def pack_batch(
    batch: Batch, rank: int, key_bits: int
) -> tuple[np.ndarray, np.dtype]:
    """Rank ``rank``'s concatenated packed input for a fused batch."""
    frags = []
    for slot, parts in enumerate(batch.data):
        arr = np.asarray(parts[rank])
        frags.append((np.uint64(slot) << np.uint64(key_bits)) | arr.astype(np.uint64))
    combined = (
        np.concatenate(frags) if frags else np.empty(0, np.uint64)
    )
    return combined, batch.data[0][rank].dtype


def demux_output(
    output: np.ndarray, n_jobs: int, key_bits: int, dtype: np.dtype
) -> list[np.ndarray]:
    """Split one rank's sorted packed output back into per-job runs.

    Output stays sorted inside each slot because the slot occupies the
    high bits; the per-job run is the job's contiguous share of the
    global order that landed on this rank.
    """
    output = np.asarray(output, dtype=np.uint64)
    slots = output >> np.uint64(key_bits)
    mask = np.uint64((1 << key_bits) - 1)
    return [
        (output[slots == np.uint64(slot)] & mask).astype(dtype)
        for slot in range(n_jobs)
    ]
