"""The sorted-output index: the service's persistent query tier.

After a sort epoch the service keeps, per dataset, the sorted per-rank
partitions **plus** a :class:`SortedIndex` — the per-rank splitter table
(first/last key of every partition) and the global offset of each
partition.  Rank/percentile/range queries then become ``nth_element``-style
lookups: every rank binary-searches its own partition and the answers
travel as O(result) scalars through small collectives — **no ALLTOALLV,
no data movement** (asserted per query epoch by the service and by
``tests/test_serve.py``).

Index invalidation: an index is valid exactly as long as its dataset's
partitions.  Re-sorting a dataset (a second ``sort`` job under the same
``(tenant, dataset)`` name) atomically replaces partitions *and* index in
the same epoch; there is no window in which queries can observe a stale
index, because epochs are serialized on the service's virtual clock.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..core.api import nearest_rank

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm

__all__ = ["Dataset", "SortedIndex", "nearest_rank", "query_program"]


@dataclass(frozen=True)
class SortedIndex:
    """Per-rank splitter table + global offsets of one sorted dataset.

    ``offsets`` has ``p + 1`` entries (partition ``r`` holds global
    positions ``[offsets[r], offsets[r+1])``); ``lo``/``hi`` are the
    first/last key of each partition (0 for empty partitions — consult
    ``offsets`` for emptiness).
    """

    offsets: tuple[int, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @property
    def total(self) -> int:
        return self.offsets[-1]

    @property
    def p(self) -> int:
        return len(self.offsets) - 1

    def owner(self, position: int) -> int:
        """The rank whose partition holds global ``position``."""
        if not 0 <= position < self.total:
            raise IndexError(f"position {position} out of range [0, {self.total})")
        return int(np.searchsorted(np.asarray(self.offsets), position, side="right")) - 1

    @classmethod
    def build(cls, parts: Sequence[np.ndarray]) -> "SortedIndex":
        sizes = [int(np.asarray(p).size) for p in parts]
        offsets = [0]
        for s in sizes:
            offsets.append(offsets[-1] + s)
        lo = tuple(float(p[0]) if np.asarray(p).size else 0.0 for p in parts)
        hi = tuple(float(p[-1]) if np.asarray(p).size else 0.0 for p in parts)
        return cls(offsets=tuple(offsets), lo=lo, hi=hi)

    def to_dict(self) -> dict[str, Any]:
        return {"offsets": list(self.offsets), "lo": list(self.lo), "hi": list(self.hi)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SortedIndex":
        return cls(
            offsets=tuple(int(x) for x in data["offsets"]),
            lo=tuple(float(x) for x in data["lo"]),
            hi=tuple(float(x) for x in data["hi"]),
        )


@dataclass
class Dataset:
    """One tenant-scoped sorted dataset the service keeps warm."""

    tenant: str
    name: str
    parts: list[np.ndarray]
    index: SortedIndex
    created_epoch: int

    @property
    def key(self) -> tuple[str, str]:
        return (self.tenant, self.name)

    @property
    def dtype(self) -> np.dtype:
        return self.parts[0].dtype

    def summary(self) -> dict[str, Any]:
        """The sort job's result payload: layout-independent facts only.

        The checksum covers the globally sorted concatenation, so it is
        identical whatever partitioning the chosen plan produced.
        """
        joined = np.concatenate(self.parts) if self.parts else np.empty(0)
        return {
            "n": int(self.index.total),
            "dtype": str(self.dtype),
            "min": joined[0].item() if joined.size else None,
            "max": joined[-1].item() if joined.size else None,
            "checksum": zlib.crc32(np.ascontiguousarray(joined).tobytes()),
        }


def _scalar(value: Any) -> Any:
    """Numpy scalar → plain Python (results must persist as JSON)."""
    return value.item() if hasattr(value, "item") else value


def query_program(comm: "Comm", queries: Sequence[Mapping[str, Any]]) -> dict[int, Any]:
    """SPMD program of one query epoch; collective over ``comm``.

    ``queries`` is the epoch's batch — each entry carries the job id,
    kind, parameters, and the target dataset's partitions + index.  All
    ranks iterate the same list (collective congruence), do local binary
    searches, and combine O(result)-sized scalars with small collectives.
    By construction there is **no alltoallv and no partition movement**;
    the service asserts this on the epoch's traffic statistics.
    """
    compute = comm.cost.compute
    out: dict[int, Any] = {}
    for q in queries:
        kind = q["kind"]
        index: SortedIndex = q["index"]
        local = np.asarray(q["parts"][comm.rank])
        off = index.offsets[comm.rank]
        end = index.offsets[comm.rank + 1]
        with comm.tracer.span("serve.query", job=q["job_id"], kind=kind):
            if kind == "percentile":
                positions = [nearest_rank(p, index.total) for p in q["pcts"]]
                mine = [
                    (i, _scalar(local[k - off]))
                    for i, k in enumerate(positions)
                    if off <= k < end
                ]
                comm.compute(compute.search(len(positions), max(local.size, 1)))
                gathered = comm.allgather(mine)
                by_pos = {i: v for pairs in gathered for i, v in pairs}
                out[q["job_id"]] = {
                    float(p): by_pos[i] for i, p in enumerate(q["pcts"])
                }
            elif kind == "top_k":
                k = min(q["k"], index.total)
                cut = index.total - k
                start = max(cut, off)
                slice_ = local[start - off : end - off] if start < end else local[:0]
                comm.compute(compute.search(1, max(local.size, 1)))
                gathered = comm.allgather([_scalar(v) for v in slice_])
                ascending = [v for chunk in gathered for v in chunk]
                out[q["job_id"]] = ascending[::-1]
            elif kind == "range_query":
                lo_cnt = int(np.searchsorted(local, q["lo"], side="left"))
                hi_cnt = int(np.searchsorted(local, q["hi"], side="left"))
                comm.compute(compute.search(2, max(local.size, 1)))
                count, first = comm.allreduce((hi_cnt - lo_cnt, lo_cnt))
                out[q["job_id"]] = {"count": int(count), "first_rank": int(first)}
            else:  # pragma: no cover - specs are validated at admission
                raise ValueError(f"unknown query kind {kind!r}")
    return out
