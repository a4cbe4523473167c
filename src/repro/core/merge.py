"""Local merge of received chunks — superstep 4 (§V-C, §VI-E.2).

Strategy selection mirrors the paper's discussion:

* ``sort``        — concatenate + re-sort (what the paper's evaluation ran);
* ``binary_tree`` — ceil(log2 k) pairwise merge passes;
* ``tournament``  — loser-tree replacement selection, one pass;
* ``adaptive``    — tree for few large chunks, re-sort for many small ones
  (the §VI-E.2 finding that merging many small chunks with many threads
  degrades into cache misses while a parallel sort keeps winning).

The strategy selects only the *virtual-time* charge (:func:`merge_cost`),
so the merge study bench can compare them at paper scale; the host work is
one in-place sort of the receive buffer whichever is chosen
(:func:`~repro.seq.kmerge.merge_in_place`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..seq.kmerge import merge_in_place

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm

__all__ = ["local_merge", "merge_cost"]

#: below this per-chunk size the adaptive strategy falls back to re-sorting
_ADAPTIVE_MIN_CHUNK = 1 << 14


def merge_cost(compute, n_total: int, k: int, strategy: str) -> float:
    """Modelled cost of merging ``k`` runs totalling ``n_total`` keys."""
    if n_total <= 0:
        return compute.call_overhead
    if strategy == "sort":
        return compute.sort(n_total)
    if strategy == "binary_tree":
        return compute.kway_merge(n_total, max(k, 1))
    if strategy == "tournament":
        # One pass, log(k) comparisons per element through the tree.
        passes = max(1.0, math.log2(max(k, 2)))
        return compute.call_overhead + compute.c_merge * n_total * passes
    raise ValueError(f"unknown merge strategy {strategy!r}")


def local_merge(
    comm: "Comm", received: tuple[np.ndarray, np.ndarray], strategy: str = "sort"
) -> np.ndarray:
    """Merge the received runs — the exchange's ``(recvbuf, recv_counts)`` —
    into this rank's output partition: the buffer, sorted in place."""
    buf, counts = received
    n_total = int(buf.size)
    k = int(np.count_nonzero(counts))
    compute = comm.cost.compute

    if strategy == "adaptive":
        small = n_total == 0 or (n_total / max(k, 1)) < _ADAPTIVE_MIN_CHUNK
        strategy = "sort" if (small and k > 4) else "binary_tree"

    comm.compute(merge_cost(compute, n_total, k, strategy))
    return merge_in_place(buf, k)
