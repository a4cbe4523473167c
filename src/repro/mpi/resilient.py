"""A communicator whose collectives survive message drops and duplications.

The base :class:`~repro.mpi.comm.Comm` implements collectives with a
deposit/plan/pick protocol over shared slots — no messages travel, so
a :class:`~repro.faults.FaultPlan` cannot perturb them.  That is exactly
wrong for fault-injection experiments.  :class:`ResilientComm` re-expresses
every collective in terms of *point-to-point messages* carried by the
stop-and-wait ARQ layer of :mod:`repro.mpi.reliable`, so injected drops,
duplications, and delay spikes hit real traffic and are healed by
retransmission — or surface as a typed :class:`MessageTimeoutError` when
the link is beyond repair.

Algorithms (deliberately simple and deterministic):

* rooted trees are *linear*: ``gather``/``reduce`` pull rank by rank into
  the root, ``bcast``/``scatter`` push rank by rank out of it;
* ``allreduce``/``allgather``/``barrier`` are gather-to-0 + bcast;
* ``alltoall``/``alltoallv`` use an ordered pairwise exchange — each rank
  walks its peers in increasing order, the smaller rank of a pair sends
  first.  Every exchange with the smallest unfinished rank is that peer's
  next operation, so by induction on the rank order no cycle of waits can
  form (deadlock-free even though the ARQ sender blocks for its ack);
* ``scan``/``exscan`` run a linear chain up the ranks.

All collectives multiplex one reliable channel per rank pair
(:data:`~repro.mpi.tags.RESILIENT_COLL_TAG`); stop-and-wait keeps the
channel in order, which makes that safe.

Use ``ResilientComm(comm._state, comm.rank)`` to wrap an existing
communicator's state, or let :func:`repro.core.resilient.resilient_sort`
do it for you.  ``shrink()`` returns a :class:`ResilientComm` again, so
recovery loops stay on the resilient implementation.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Sequence

import numpy as np

from .comm import Comm
from .ops import SUM, ReduceOp
from .payload import copy_payload
from .reliable import ADAPTIVE_POLICY, RetryPolicy, reliable_recv, reliable_send
from .tags import RESILIENT_COLL_TAG

__all__ = ["ResilientComm"]

_CH = RESILIENT_COLL_TAG


def _local(then: Callable[[Any], Any] | None, value: Any) -> Any:
    """The ``then=`` step of a collective, applied on each rank: no member
    shares one rendezvous here to run it once for all."""
    return value if then is None else then(value)


class ResilientComm(Comm):
    """Drop-in :class:`Comm` whose collectives ride the reliable p2p layer."""

    #: retry schedule used by all collectives of this communicator:
    #: phi-accrual-adaptive deadlines (per-link arrival histories) with a
    #: 3-strike circuit breaker.  Faultless runs never reach a deadline, so
    #: the adaptive schedule cannot perturb their clocks.
    policy: RetryPolicy = ADAPTIVE_POLICY

    # ------------------------------------------------------------ primitives

    def _rsend(self, obj: Any, dest: int) -> None:
        reliable_send(self, obj, dest, _CH, self.policy)

    def _rrecv(self, source: int) -> Any:
        # Copy on receipt: ranks share one address space, and the base
        # collectives' extract step never hands two ranks the same object.
        return copy_payload(reliable_recv(self, source, _CH))

    def _gather0(self, value: Any) -> list[Any] | None:
        """Linear gather of every rank's ``value`` to rank 0."""
        if self.rank == 0:
            slots = [value]
            for src in range(1, self.size):
                slots.append(self._rrecv(src))
            return slots
        self._rsend(value, 0)
        return None

    def _bcast0(self, obj: Any) -> Any:
        """Linear broadcast of rank 0's ``obj`` to every rank."""
        if self.rank == 0:
            for dest in range(1, self.size):
                self._rsend(obj, dest)
            return obj
        return self._rrecv(0)

    def _exchange(self, peer: int, payload: Any) -> Any:
        """One ordered pairwise exchange (smaller rank sends first)."""
        if self.rank < peer:
            self._rsend(payload, peer)
            return self._rrecv(peer)
        out = self._rrecv(peer)
        self._rsend(payload, peer)
        return out

    # ----------------------------------------------------------- collectives

    def barrier(self) -> None:
        self._gather0(None)
        self._bcast0(None)

    def bcast(self, obj: Any, root: int = 0, *,
              then: Callable[[Any], Any] | None = None) -> Any:
        if self.rank == root:
            for dest in range(self.size):
                if dest != root:
                    self._rsend(obj, dest)
            return _local(then, copy_payload(obj))
        return _local(then, self._rrecv(root))

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        if self.rank == root:
            slots: list[Any] = []
            for src in range(self.size):
                slots.append(copy_payload(value) if src == root
                             else self._rrecv(src))
            return slots
        self._rsend(value, root)
        return None

    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        slots = self.gather(value, root)
        if slots is None:
            return None
        return functools.reduce(op, slots)

    def allreduce(self, value: Any, op: ReduceOp = SUM, *, by_node: bool = False,
                  then: Callable[[Any], Any] | None = None) -> Any:
        # the linear p2p trees have no node level to compose
        acc = self.reduce(value, op, 0)
        return _local(then, self._bcast0(acc))

    def allgather(self, value: Any, *,
                  then: Callable[[list[Any]], Any] | None = None) -> Any:
        return _local(then, self._bcast0(self._gather0(value)))

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Any:
        if self.rank == root:
            assert values is not None and len(values) == self.size
            own: Any = None
            for dest in range(self.size):
                if dest == root:
                    own = copy_payload(values[dest])
                else:
                    self._rsend(values[dest], dest)
            return own
        return self._rrecv(root)

    def alltoall(self, values: Sequence[Any]) -> list[Any]:
        if len(values) != self.size:
            raise ValueError("alltoall needs one value per rank")
        out: list[Any] = [None] * self.size
        out[self.rank] = copy_payload(values[self.rank])
        for peer in range(self.size):
            if peer != self.rank:
                out[peer] = self._exchange(peer, values[peer])
        return out

    def alltoallv(self, chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        if len(chunks) != self.size:
            raise ValueError("alltoallv needs one chunk per rank")
        out = self.alltoall([np.asarray(c) for c in chunks])
        return [np.asarray(c) for c in out]

    def scan(self, value: Any, op: ReduceOp = SUM) -> Any:
        acc = value
        if self.rank > 0:
            acc = op(self._rrecv(self.rank - 1), value)
        if self.rank + 1 < self.size:
            self._rsend(acc, self.rank + 1)
        return acc

    def exscan(self, value: Any, op: ReduceOp = SUM) -> Any:
        prev = None
        if self.rank > 0:
            prev = self._rrecv(self.rank - 1)
        if self.rank + 1 < self.size:
            acc = value if prev is None else op(prev, value)
            self._rsend(acc, self.rank + 1)
        return prev
