"""Workload fingerprints: what the tuner knows before it picks a plan.

A :class:`WorkloadFingerprint` compresses one distributed sort's input into
the handful of statistics the planner's cost scoring actually depends on:
problem shape (``n_total``, ``p``, ``ranks_per_node``, ``itemsize``), key
properties (dtype kind, effective key width), distribution character
(duplicate ratio, sortedness, skew), and the machine's cost signature.

Everything is computed from a **cheap deterministic sample** of the local
partition — an evenly strided slice, no RNG — so the same input always
produces the same fingerprint, and fingerprinting costs O(sample) per rank
plus one scalar allreduce when taken collectively.

The exact statistics are continuous; cache keys must not be.
:meth:`WorkloadFingerprint.bucket_key` coarsens them into discrete classes
(log2 size buckets, low/medium/high duplicate and skew classes) so "the
same kind of workload" maps to the same persistent cache entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..machine.spec import MachineSpec
    from ..mpi import Comm

__all__ = ["WorkloadFingerprint", "fingerprint_partition", "fingerprint_collective"]

#: bump when the fingerprint statistics or bucketing change: old cache keys
#: must not alias new ones
FINGERPRINT_VERSION = 1

#: per-rank sample budget; stride sampling, so cost is O(SAMPLE)
SAMPLE = 1024


@dataclass(frozen=True)
class WorkloadFingerprint:
    """The tuner's view of one (workload, machine) pair.

    Attributes
    ----------
    n_total, p, ranks_per_node, itemsize:
        Problem shape; ``n_total`` is the global element count.
    dtype_kind:
        Numpy kind character: ``"u"``, ``"i"``, ``"f"``.
    key_bits:
        Effective key width in bits — for integers the log2 span of the
        sampled value range (what bounds histogramming rounds, §V-A), for
        floats the format width.
    dup_ratio:
        ``1 - unique/sample`` in the sample: 0.0 all-distinct, → 1.0 heavy
        duplication.
    sortedness:
        Fraction of adjacent sample pairs already in non-descending order
        (the sample preserves input order): ~0.5 random, 1.0 sorted.
    skew:
        Normalized mean-median distance ``|mean - median| / (std + tiny)``,
        clipped to [0, 10]: 0 symmetric, large for Zipf/exponential tails.
    machine:
        :meth:`repro.machine.MachineSpec.signature` of the cost model.
    """

    n_total: int
    p: int
    ranks_per_node: int
    itemsize: int
    dtype_kind: str
    key_bits: int
    dup_ratio: float
    sortedness: float
    skew: float
    machine: str

    def __post_init__(self) -> None:
        if self.n_total < 0 or self.p < 1 or self.ranks_per_node < 1:
            raise ValueError("need n_total >= 0, p >= 1, ranks_per_node >= 1")
        if self.dtype_kind not in ("u", "i", "f"):
            raise ValueError(f"unsupported dtype kind {self.dtype_kind!r}")

    # ------------------------------------------------------------- bucketing

    @property
    def n_per_rank(self) -> int:
        return self.n_total // max(self.p, 1)

    def bucket_key(self) -> str:
        """Coarse, discrete cache key for this fingerprint.

        Continuous statistics collapse into classes so near-identical
        workloads share a cache entry: sizes bucket by log2, duplicate
        ratio into none/some/heavy, sortedness into random/presorted, skew
        into low/high.  The machine signature and fingerprint version are
        part of the key, so a different cluster — or a different
        fingerprint definition — can never alias.
        """
        logn = int(round(math.log2(self.n_total))) if self.n_total > 0 else 0
        dup = "heavy" if self.dup_ratio > 0.5 else ("some" if self.dup_ratio > 0.05 else "none")
        sorted_cls = "presorted" if self.sortedness > 0.9 else "random"
        skew_cls = "high" if self.skew > 0.5 else "low"
        bits = min(((self.key_bits + 7) // 8) * 8, 64)
        return (
            f"v{FINGERPRINT_VERSION}|m={self.machine}|p={self.p}|rpn={self.ranks_per_node}"
            f"|k={self.dtype_kind}{self.itemsize}|logn={logn}|bits={bits}"
            f"|dup={dup}|ord={sorted_cls}|skew={skew_cls}"
        )

    # ----------------------------------------------------------------- serde

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadFingerprint":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown WorkloadFingerprint field(s): {sorted(unknown)}")
        return cls(**data)


def _sample(local: np.ndarray, budget: int) -> np.ndarray:
    """An order-preserving strided sample of at most ``budget`` elements."""
    if local.size <= budget:
        return local
    stride = local.size // budget
    return local[:: max(stride, 1)][:budget]


def _local_stats(local: np.ndarray) -> tuple[float, float, float, float, float]:
    """(dup_ratio, sortedness, skew, vmin, vmax) of one partition's sample."""
    s = _sample(np.asarray(local), SAMPLE)
    if s.size == 0:
        return 0.0, 1.0, 0.0, 0.0, 0.0
    dup = 1.0 - np.unique(s).size / s.size
    if s.size > 1:
        sortedness = float(np.count_nonzero(s[1:] >= s[:-1])) / (s.size - 1)
    else:
        sortedness = 1.0
    sf = s.astype(np.float64)
    std = float(sf.std())
    skew = min(abs(float(sf.mean()) - float(np.median(sf))) / (std + 1e-30), 10.0)
    return float(dup), sortedness, skew, float(sf.min()), float(sf.max())


def _key_bits(dtype: np.dtype, vmin: float, vmax: float) -> int:
    """Effective key width: value-range span for ints, format width for floats."""
    if dtype.kind == "f":
        return int(dtype.itemsize * 8)
    span = max(vmax - vmin, 0.0)
    return max(int(math.ceil(math.log2(span + 1))), 1) if span > 0 else 1


def fingerprint_partition(
    local: np.ndarray,
    *,
    p: int,
    machine: "MachineSpec",
    ranks_per_node: int | None = None,
) -> WorkloadFingerprint:
    """Fingerprint from a single local partition (no communication).

    Assumes the other ``p - 1`` partitions look statistically like this one
    (``n_total`` is ``p * local.size``).  Use
    :func:`fingerprint_collective` inside an SPMD program for globally
    agreed statistics.
    """
    local = np.asarray(local)
    dup, sortedness, skew, vmin, vmax = _local_stats(local)
    rpn = ranks_per_node if ranks_per_node is not None else min(p, machine.node.cores)
    return WorkloadFingerprint(
        n_total=int(p * local.size),
        p=int(p),
        ranks_per_node=int(rpn),
        itemsize=int(local.dtype.itemsize),
        dtype_kind=str(local.dtype.kind),
        key_bits=_key_bits(local.dtype, vmin, vmax),
        dup_ratio=round(dup, 6),
        sortedness=round(sortedness, 6),
        skew=round(skew, 6),
        machine=machine.signature(),
    )


def fingerprint_collective(comm: "Comm", local: np.ndarray) -> WorkloadFingerprint:
    """Collective fingerprint: every rank returns the identical value.

    One scalar allreduce combines the per-rank sample statistics
    (size-weighted means for the ratios, min/max for the value range), so
    the cost is O(sample) compute plus a single small collective — cheap
    enough to run in front of every tuned sort.
    """
    from ..mpi.ops import ReduceOp

    local = np.asarray(local)
    dup, sortedness, skew, vmin, vmax = _local_stats(local)
    n = int(local.size)
    w = float(n)

    def _combine(a, b):
        na, nb = a[0], b[0]
        if na == 0:
            return b
        if nb == 0:
            return a
        wt = na + nb
        return (
            wt,
            (a[1] * na + b[1] * nb) / wt,
            (a[2] * na + b[2] * nb) / wt,
            (a[3] * na + b[3] * nb) / wt,
            min(a[4], b[4]),
            max(a[5], b[5]),
        )

    op = ReduceOp("fingerprint", _combine)
    tot, g_dup, g_sorted, g_skew, g_min, g_max = comm.allreduce(
        (w, dup, sortedness, skew, vmin, vmax), op=op
    )
    machine = comm.cost.machine
    placement = comm.cost.placement
    return WorkloadFingerprint(
        n_total=int(round(tot)),
        p=comm.size,
        ranks_per_node=int(placement.ranks_per_node),
        itemsize=int(local.dtype.itemsize),
        dtype_kind=str(local.dtype.kind),
        key_bits=_key_bits(local.dtype, g_min, g_max),
        dup_ratio=round(float(g_dup), 6),
        sortedness=round(float(g_sorted), 6),
        skew=round(float(g_skew), 6),
        machine=machine.signature(),
    )
