"""Data exchange — Algorithm 4 and the single ALL-TO-ALLV round (§V-B).

Once the splitters are known, each rank cuts its locally sorted partition
into ``P`` contiguous segments and ships segment ``i`` to rank ``i``.  With
perfect partitioning (or duplicate keys) the cut positions need refinement
around the splitter boundaries: all keys strictly below splitter ``i`` are
*definitely* left of boundary ``i``; the keys *equal* to the splitter are
assigned left-to-right by rank order until the boundary's realized rank is
met — this is the permutation-matrix refinement of Algorithm 4, and it is
what makes the sort exact in the presence of arbitrary duplicate runs.

Communication stays ``O(p)`` per rank as in the paper: an EXCLUSIVE_SCAN
over the per-boundary duplicate counts gives each rank its rank-order fill
offset, and one ALL-TO-ALL of the send counts gives the receive side —
together the equivalent of the paper's two ALL-TO-ALLs plus scan (§V-B).

Every rank knows each destination's key range once the splitters are
agreed, so under ``"squeeze"`` a destination whose range is narrow gets
only the low bytes of each key (:attr:`SplitterResult.widths`) in the same
one ALL-TO-ALLV, and restores the keys from its range's low end.  The
count ALL-TO-ALL also sizes what is elided: a zero-width destination
receives no byte and fills its keys from the counts alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..seq.search import local_histogram
from .multiselect import SplitterResult

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm

__all__ = ["ExchangePlan", "build_exchange_plan", "exchange"]


@dataclass(frozen=True)
class ExchangePlan:
    """Cut positions and count vectors for the ALL-TO-ALLV.

    ``cuts`` has ``P+1`` entries; this rank sends
    ``local_sorted[cuts[d]:cuts[d+1]]`` to rank ``d``.  ``send_counts`` and
    ``recv_counts`` are the classic MPI count vectors (elements, not bytes).
    ``by_node``, ``widths``, ``lows``, ``masks``: the splitters'
    (:class:`SplitterResult`).
    """

    cuts: np.ndarray
    send_counts: np.ndarray
    recv_counts: np.ndarray
    by_node: bool = False
    widths: np.ndarray | None = None
    lows: np.ndarray | None = None
    masks: np.ndarray | None = None

    @property
    def elements_sent(self) -> int:
        return int(self.send_counts.sum())

    @property
    def elements_received(self) -> int:
        return int(self.recv_counts.sum())


def build_exchange_plan(
    comm: "Comm", local_sorted: np.ndarray, splitters: SplitterResult
) -> ExchangePlan:
    """Compute this rank's cut positions (Algorithm 4)."""
    local_sorted = np.asarray(local_sorted)
    p = comm.size
    n_local = int(local_sorted.size)
    compute = comm.cost.compute

    if p == 1:
        counts = np.array([n_local], dtype=np.int64)
        return ExchangePlan(
            cuts=np.array([0, n_local], dtype=np.int64),
            send_counts=counts,
            recv_counts=counts.copy(),
        )

    t_plan = comm.clock
    # Local bounds of every splitter value: lb = keys strictly below,
    # ub = keys at-or-below; the difference is this rank's share of the
    # boundary's duplicate run.
    lb, ub = local_histogram(local_sorted, splitters.values)
    comm.compute(compute.search(2 * (p - 1), max(n_local, 1)))

    # Rank-order fill (Algorithm 4): boundary i must place need[i] =
    # realized[i] - L[i] of its duplicate run on the left side; ranks
    # contribute in rank order, so this rank's fill offset is the sum of
    # the duplicate counts on all lower ranks — one EXCLUSIVE_SCAN.
    equal = (ub - lb).astype(np.int64)
    prefix = comm.exscan(equal, by_node=splitters.by_node)
    if prefix is None:  # rank 0
        prefix = np.zeros_like(equal)
    need = (splitters.realized_ranks - splitters.lower).astype(np.int64)
    take = np.clip(need - prefix, 0, equal)
    my_cuts = np.concatenate(([0], lb + take, [n_local])).astype(np.int64)
    if np.any(np.diff(my_cuts) < 0):
        raise AssertionError("non-monotone cut positions (internal error)")
    send_counts = np.diff(my_cuts)
    comm.compute(compute.partition(2 * p))

    # Receive counts: one ALL-TO-ALL of the send counts (§V-B).
    recv_counts = np.asarray(
        comm.alltoall([int(c) for c in send_counts], by_node=splitters.by_node), dtype=np.int64
    )
    comm.tracer.record("exchange_plan", t_plan, elements=int(send_counts.sum()))

    return ExchangePlan(
        cuts=my_cuts,
        send_counts=send_counts,
        recv_counts=recv_counts,
        by_node=splitters.by_node,
        widths=splitters.widths,
        lows=splitters.lows,
        masks=splitters.masks,
    )


def exchange(
    comm: "Comm", local_sorted: np.ndarray, plan: ExchangePlan
) -> tuple[np.ndarray, np.ndarray]:
    """Run the single ALL-TO-ALLV round — composed by node where ``plan``
    allows it and that is cheaper, each key in its destination's ``widths``
    bytes where ``plan`` has them; returns ``(recvbuf, recv_counts)``."""
    t_data = comm.clock
    if plan.widths is None:
        received = comm.alltoallv(local_sorted, plan.send_counts, by_node=plan.by_node)
    else:
        received = _packed_exchange(comm, local_sorted, plan)
    comm.tracer.record(
        "exchange_data",
        t_data,
        elements_sent=plan.elements_sent,
        elements_received=plan.elements_received,
    )
    return received


def _packed_exchange(comm: "Comm", local_sorted, plan: ExchangePlan):
    """The ALL-TO-ALLV of the ``widths[d]`` bytes the mask word ``masks[d]``
    marks in each key for destination ``d``, in one byte buffer; a receiver
    of ``w < itemsize`` bytes restores its keys as ``lows[me] + (x -
    lows[me]) mod 2**(8 w)``.  O(1) NumPy calls per rank, whatever ``p``."""
    compute, dtype, me = comm.cost.compute, local_sorted.dtype, comm.rank
    size, widths, masks = dtype.itemsize, plan.widths, plan.masks
    # each destination's mask word, repeated once per key sent there
    sendbuf = np.ascontiguousarray(local_sorted).view(np.uint8).compress(
        np.repeat(masks, plan.send_counts).view(bool))
    comm.compute(compute.partition(local_sorted.size))
    buf, _ = comm.alltoallv(sendbuf, plan.send_counts * widths, by_node=plan.by_node)
    w = int(widths[me])
    if w == size:
        return buf.view(dtype), plan.recv_counts
    if w:
        low = plan.lows[me:me + 1].astype(np.uint64)
        keys = buf.view(np.dtype(f"u{w}").newbyteorder(dtype.byteorder)) - low  # mod 2**64
        keys &= np.uint64((1 << 8 * w) - 1)
        keys += low
        keys = keys.astype(dtype, copy=False)
    else:  # every key is the low end
        keys = np.empty(plan.elements_received, dtype)
        keys.fill(plan.lows[me])
    comm.compute(compute.partition(keys.size))
    return keys, plan.recv_counts
