"""Buddy checkpointing: in-memory partition replication around a ring.

Diskless checkpoint/restart in the style of Plank's diskless
checkpointing and the buddy schemes of SCR/Fenix: at every phase
boundary of an epoch, each rank replicates its partition and a
*phase-progress marker* to its **buddy** — the occupant of the next ring
position, ``(pos + 1) % p``.  The replica lives in the buddy's process
memory (here: its rank thread's :class:`BuddyCheckpointer` instance), so
the failure model is honest:

* a rank crash destroys that rank's *own* state **and every replica it
  held for others** — the thread unwinds and the checkpointer object
  dies with it;
* a single failure at position ``i`` is always recoverable from the
  buddy at ``(i + 1) % p`` (if it survived);
* adjacent double failures lose the partition — the recovery layer
  counts it in ``FaultStats.lost`` and the chaos oracle subtracts it
  from the conservation check.

A ring exchange, like a restore after a failure, is one collective,
:func:`move`: it rides the same rendezvous as the sort's own collectives,
so a fault plan's drops, duplicates and delays are priced into it on the
links that carry a replica, and a link beyond repair raises
:class:`~repro.mpi.errors.MessageTimeoutError` on every member.  Its bytes
are control-plane traffic (``Stats.record_control(..., "checkpoint")``),
so ``wire_bytes`` stays comparable between runs with and without
checkpointing.

Phase markers
-------------
``PH_START < PH_SORTED < PH_SPLIT`` order the restartable points of one
epoch of the histogram sort:

* :data:`PH_START` — replica holds the rank's *input* partition;
* :data:`PH_SORTED` — replica holds the locally sorted (possibly
  packed) partition; the local-sort phase need not be redone;
* :data:`PH_SPLIT` — splitter agreement completed (marker-only update:
  splitters are identical on every rank, so a survivor re-shares them
  through the recovery rendezvous instead of the ring).

The recovery layer resumes an epoch from the *minimum* marker over the
new membership (:mod:`repro.mpi.spare`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .comm import Comm
from .payload import copy_payload, payload_nbytes

__all__ = [
    "PH_START", "PH_SORTED", "PH_SPLIT", "MARKER_NAMES",
    "Replica", "BuddyCheckpointer", "move",
]

#: epoch entered; replica payload is the input partition
PH_START = 0
#: local sort finished; replica payload is the sorted (packed) partition
PH_SORTED = 1
#: splitter agreement finished (marker-only ring update)
PH_SPLIT = 2

MARKER_NAMES = {PH_START: "start", PH_SORTED: "sorted", PH_SPLIT: "split"}


@dataclass
class Replica:
    """One buddy replica: a peer's partition at a phase boundary.

    ``origins`` are the *initial* ring positions whose input data the
    partition carries (normally one; more after a shrink salvaged a lost
    peer's replica into a survivor) — the unit of the chaos harness's
    conservation oracle.  ``spec`` is the key-packing plan when the
    payload is packed (``None`` otherwise) and ``dtype`` the unpacked
    element type.
    """

    owner_pos: int
    marker: int
    origins: tuple[int, ...]
    data: np.ndarray
    spec: Any = None
    dtype: Any = None

    @property
    def nbytes(self) -> int:
        """Wire size: the partition plus its header (owner, marker, origins)."""
        return int(self.data.nbytes) + payload_nbytes(
            (self.owner_pos, self.marker, self.origins))

    def unpacked(self) -> np.ndarray:
        """The replica's payload as unpacked (original-key) elements."""
        if self.spec is None:
            return self.data
        from ..core.keys import unpack_keys

        return unpack_keys(self.data, self.spec, dtype=self.dtype)


def _nbytes(payload: Any) -> int:
    return payload.nbytes if isinstance(payload, Replica) else payload_nbytes(payload)


def move(comm: Comm, name: str, dest: int | None, payload: Any) -> Any:
    """One collective ``name`` over ``comm`` in which each member sends
    ``payload`` to member ``dest`` (nothing when ``dest`` is ``None``) and
    gets back what was sent to it, or ``None``; at most one payload may be
    sent to any member.

    Priced by :meth:`~repro.machine.cost.CostModel.alltoallv_per_rank`
    over the volume matrix of what moves; under a fault plan only the
    pairs that move something draw link fates.  The bytes are accounted
    as ``"checkpoint"`` control traffic, one message per payload.
    """
    state = comm._state
    rt = comm._rt
    ranks = state.world_ranks

    def plan(slots: list[Any]) -> Any:
        vols = np.zeros((len(slots), len(slots)))
        senders = {}
        for i, (to, obj) in enumerate(slots):
            if to is not None:
                vols[i, to] = nbytes = _nbytes(obj)
                senders[to] = i
                rt.stats.record_control(ranks[i], nbytes, "checkpoint")
        return senders, rt.cost.alltoallv_per_rank(vols, ranks), 0

    def pick(slots: list[Any], senders: dict[int, int], idx: int) -> Any:
        src = senders.get(idx)
        return None if src is None else copy_payload(slots[src][1])

    def links(slots: list[Any]) -> list[tuple[int, int]]:
        return [(i, to) for i, (to, _) in enumerate(slots) if to is not None]

    return state.collective(comm.rank, name, (dest, payload), plan, pick,
                            trace_bytes=0 if dest is None else _nbytes(payload),
                            links=links)


class BuddyCheckpointer:
    """One rank's checkpointing endpoint on the replication ring.

    Owned by the rank's thread; holds (at most) one replica — the
    predecessor's — which models the buddy's process memory: it is lost
    when this rank crashes.  ``save`` refreshes the full replica,
    ``save_marker`` advances only the progress marker (splitter
    agreement changes no data).
    """

    def __init__(self) -> None:
        #: the predecessor's replica (None until the first ring exchange)
        self.held: Replica | None = None

    def _ring(self, comm: Comm, payload: Replica | tuple) -> None:
        """One ring exchange: send ``payload`` to the successor, hold what
        the predecessor sent.  ``p == 1`` degenerates to self-buddying —
        the replica dies with its owner either way, so nothing travels."""
        p = comm.size
        got = payload if p == 1 else move(comm, "checkpoint", (comm.rank + 1) % p, payload)
        if isinstance(got, Replica):
            self.held = got
        elif self.held is not None and self.held.owner_pos == got[0]:
            self.held.marker = got[1]

    def save(self, comm: Comm, marker: int, origins: tuple[int, ...],
             data: np.ndarray, spec: Any = None, dtype: Any = None) -> None:
        """Replicate this rank's partition at a phase boundary.

        Collective over ``comm``.  Counted in ``FaultStats.checkpoints``
        (deterministic: one per rank per boundary reached).
        """
        comm._rt._count_fault("checkpoints")
        rep = Replica(owner_pos=comm.rank, marker=marker, origins=origins,
                      data=data, spec=spec,
                      dtype=dtype if dtype is not None else data.dtype)
        self._ring(comm, rep)

    def save_marker(self, comm: Comm, marker: int) -> None:
        """Advance only the progress marker at the buddy (splitter
        agreement: the data is unchanged, so a full replica would waste
        a partition's worth of wire).  Collective over ``comm``."""
        comm._rt._count_fault("checkpoints")
        self._ring(comm, (comm.rank, marker))
